"""Regular and nearest-integer continued fractions.

Digits here are the signed integers produced by the nearest-integer map
T(x) = 1/x - round(1/x) on [-1/2, 1/2]; the digit is b(x) = floor(1/x + 1/2)
(half rounded up), so |b| >= 2 always and T maps back into [-1/2, 1/2).
A digit 2 is always followed by a positive digit and -2 by a negative one,
which is exactly the incidence rule of the associated graph system.

``Word`` caches the convergent pairs (p_n, q_n) of a digit string, the
engine behind every exact derivative and distortion formula downstream:

    p_n = d_n p_(n-1) + p_(n-2),   p_(-1) = 1, p_0 = 0
    q_n = d_n q_(n-1) + q_(n-2),   q_(-1) = 0, q_0 = 1
    p_(n-1) q_n - q_(n-1) p_n = (-1)**n
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

HALF = Fraction(1, 2)


def admissible_pair(e: int, f: int) -> bool:
    """Incidence rule for nearest-integer digits: may f follow e?"""
    if abs(e) < 2 or abs(f) < 2:
        raise ValueError(f"not a nearest-integer digit pair: {e}, {f}")
    if e == 2:
        return f > 0
    if e == -2:
        return f < 0
    return True


def is_admissible_digits(digits: Sequence[int]) -> bool:
    return all(admissible_pair(e, f) for e, f in zip(digits, digits[1:]))


class Word:
    """An admissible digit string with cached convergents.

    The q-sequence index runs 0..len(digits); q[0] = 1.  Instances are
    immutable.
    """

    __slots__ = ("digits", "p", "q")

    def __init__(self, digits: Iterable[int]):
        ds = tuple(int(d) for d in digits)
        for d in ds:
            if abs(d) < 2:
                raise ValueError(f"digit {d} has |d| < 2")
        p, q = [1, 0], [0, 1]  # indices -1 and 0
        for d in ds:
            p.append(d * p[-1] + p[-2])
            q.append(d * q[-1] + q[-2])
        self.digits = ds
        self.p = tuple(p[1:])
        self.q = tuple(q[1:])

    def __len__(self) -> int:
        return len(self.digits)

    def __repr__(self) -> str:
        return f"Word({list(self.digits)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.digits == other.digits

    def __hash__(self) -> int:
        return hash(self.digits)

    @property
    def last(self) -> int:
        return self.digits[-1]

    def q_ratio(self) -> Fraction:
        """|q_(n-1) / q_n| for the full word."""
        return Fraction(abs(self.q[-2]), abs(self.q[-1]))


def convergents(w: Word) -> List[Tuple[int, int]]:
    """The cached (p_n, q_n) pairs, n = 0..|w|."""
    if len(w) == 0:
        raise ValueError("empty word")
    return list(zip(w.p, w.q))


def evaluate(w: Word, xi: Fraction = Fraction(0)) -> Fraction:
    """phi_w(xi) = (p_n + xi p_(n-1)) / (q_n + xi q_(n-1)), exactly."""
    if len(w) == 0:
        raise ValueError("empty word")
    xi = Fraction(xi)
    num = w.p[-1] + xi * w.p[-2]
    den = w.q[-1] + xi * w.q[-2]
    if den == 0:
        raise ZeroDivisionError("degenerate evaluation point")
    return num / den


def nicf_digits(x: Fraction, n: int) -> List[int]:
    """First n nearest-integer digits of x in [-1/2, 1/2].

    Rational x has a finite expansion; the list stops early when an
    iterate hits 0.  Boundary ties (1/x + 1/2 integral) round half up.
    """
    x = Fraction(x)
    if not -HALF <= x <= HALF:
        raise ValueError("x outside [-1/2, 1/2]")
    out: List[int] = []
    while len(out) < n and x != 0:
        b = math.floor(1 / x + HALF)
        out.append(b)
        x = 1 / x - b
    return out


def rcf_digits(x: Fraction, n: int) -> List[int]:
    """First n regular (Gauss-map) digits of x in (0, 1)."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("x outside (0, 1)")
    out: List[int] = []
    while len(out) < n and x != 0:
        a = math.floor(1 / x)
        out.append(a)
        x = 1 / x - a
    return out


def _singularize_pairs(pairs: List[Tuple[int, int]]) -> Tuple[int, List[Tuple[int, int]]]:
    """Eliminate every (+1, 1) entry via the local rewrite

        [.., e*b, +1, +f*c, ..] -> [.., e*(b+1), -(c+1), ..]

    applied leftmost-first, then merge a trailing lone (+1, 1).
    Returns (carry into the leading integer part, remaining entries).
    """
    carry = 0
    i = 0
    while i < len(pairs):
        eps, beta = pairs[i]
        if not (eps == 1 and beta == 1 and i + 1 < len(pairs)):
            i += 1
            continue
        eps2, beta2 = pairs[i + 1]
        if eps2 != 1:
            raise ValueError("invalid semi-regular block: 1 followed by a minus sign")
        if i == 0:
            carry += 1
        else:
            pe, pb = pairs[i - 1]
            pairs[i - 1] = (pe, pb + 1)
        pairs[i + 1] = (-1, beta2 + 1)
        del pairs[i]
        i = max(i - 1, 0)
    if pairs and pairs[-1] == (1, 1):
        if len(pairs) == 1:
            carry += 1
            pairs = []
        else:
            pe, pb = pairs[-2]
            pairs[-2] = (pe, pb + 1)
            pairs.pop()
    return carry, pairs


def singularize(rcf: Sequence[int], return_carry: bool = False):
    """Rewrite a regular digit block into its nearest-integer block.

    Input digits are the positive RCF digits of some x; output is the
    signed digit block of the same x.  The two evaluate to the same
    rational exactly, except when the input starts with digit 1 (x > 1/2):
    the rewrite then carries +1 into the integer part, and the value is
    carry + value(block).  Pass ``return_carry=True`` to receive
    (carry, digits) instead of digits alone.
    """
    for a in rcf:
        if a < 1:
            raise ValueError(f"regular digit {a} < 1")
    carry, pairs = _singularize_pairs([(1, int(a)) for a in rcf])
    digits: List[int] = []
    sign = 1
    for eps, beta in pairs:
        sign *= eps
        digits.append(sign * beta)
    if return_carry:
        return carry, digits
    return digits


def evaluate_digits(digits: Sequence[int], xi: Fraction = Fraction(0)) -> Fraction:
    """Nested evaluation 1/(d1 + 1/(d2 + ... + 1/(dm + xi))), exactly."""
    if not digits:
        raise ValueError("empty digit sequence")
    acc = Fraction(xi)
    for d in reversed(digits):
        acc = 1 / (d + acc)
    return acc
