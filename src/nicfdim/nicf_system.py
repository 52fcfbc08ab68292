"""The nearest-integer graph system and its vertex-induced alphabet.

Three vertices carry the spaces X_v = [-1/2, 1/2], X_w = [0, 1/2],
X_z = [-1/2, 0]; the generators are phi_b(x) = 1/(b + x).  Barred copies
of the letters differ only in codomain, so all derivative arithmetic
lives on plain digit strings: for a word w with convergent denominators
q, q' = q_(n-1),

    |phi_w'(x)| = 1 / (q + x q')**2

and |q + x q'| is monotone in x on the word's domain, so sup / inf / the
distortion ratio are exact rational evaluations at the two endpoints.

The induced alphabet at v consists of the loop letters (sign, j, k):
the self-loops +-k (j = 0) and the runs 2^j k, (-2)^j (-k) with j >= 1,
k >= 3, in the block order -3, 3, -4, 4, then the run blocks.  One
generator, ``_block_order``, walks that order without end, and
``vertex_alphabet(budget)`` cuts its first ``budget`` letters; the
successor sums of ``ledger.phi_v_sides`` rest on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count, islice
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from .cf_core import HALF, Word
from .exactnum import Interval, surd_enclosure
from .symbolic import GraphSystem

K_GLOBAL = Fraction(25, 9)       # distortion for words ending in a digit of size >= 3
K_PREC5 = Fraction(64, 25)       # (8/5)**2, words over letters preceding +-5
SURD_BITS = 128                  # the one precision of every surd constant below

X_V = (-HALF, HALF)
X_W = (Fraction(0), HALF)
X_Z = (-HALF, Fraction(0))


def domain_of_digit(d: int) -> Tuple[Fraction, Fraction]:
    """Domain of phi_d (equals the domain of any word ending in d)."""
    if d == 2:
        return X_W
    if d == -2:
        return X_Z
    if abs(d) >= 3:
        return X_V
    raise ValueError(f"not a nearest-integer digit: {d}")


@cache
def alpha_interval() -> Interval:
    """(3 - sqrt(5)) / 2, the supremum of |q_(n-1)/q_n| over digits >= 3."""
    return (3 - surd_enclosure(5, SURD_BITS)) * HALF


@cache
def beta4_interval() -> Interval:
    """2 - sqrt(3), the ratio supremum over digits of size >= 4."""
    return 2 - surd_enclosure(3, SURD_BITS)


def distortion_from_ratio(beta: Interval) -> Interval:
    """((1 + beta/2) / (1 - beta/2))**2: distortion from a ratio bound beta."""
    return ((2 + beta) / (2 - beta)) ** 2


@cache
def k_prec4_interval() -> Interval:
    """((7 - sqrt5)/(1 + sqrt5))**2: distortion over words preceding +-4."""
    s5 = surd_enclosure(5, SURD_BITS)
    return ((7 - s5) / (1 + s5)) ** 2


@cache
def run_factor_interval() -> Interval:
    """g = sum_{r>=1} [(3/2 + sqrt2)(1 + sqrt2)**(r-1)]**-2
         = (1 + sqrt2) / (2 (3/2 + sqrt2)**2): the run letters' weight."""
    s2 = surd_enclosure(2, SURD_BITS)
    return (1 + s2) / (2 * (Fraction(3, 2) + s2) ** 2)


@cache
def k4_printed_interval() -> Interval:
    """((4 - sqrt3)/(1 + sqrt3))**2, the constant as displayed.

    The display simplifies ((1 + (2-sqrt3)/2)/(1 - (2-sqrt3)/2))**2
    incorrectly (the value below is < 1, so it cannot be a distortion
    constant); see ``k4_corrected_interval`` for the consistent value.
    Kept verbatim because the letter-3 chain is stated with it.
    """
    s3 = surd_enclosure(3, SURD_BITS)
    return ((4 - s3) / (1 + s3)) ** 2


@cache
def k3_interval() -> Interval:
    """distortion_from_ratio(alpha): K of digit systems whose smallest |b| is 3."""
    return distortion_from_ratio(alpha_interval())


@cache
def k4_corrected_interval() -> Interval:
    """((4 - sqrt3)/sqrt3)**2 = distortion_from_ratio(2 - sqrt3), K for |b| >= 4."""
    return distortion_from_ratio(beta4_interval())


# ---------------------------------------------------------------------------
# exact derivative formulas
# ---------------------------------------------------------------------------

def _as_word(w: Union[Word, Sequence[int]]) -> Word:
    return w if isinstance(w, Word) else Word(w)


def deriv_at(w: Union[Word, Sequence[int]], x: Fraction) -> Fraction:
    """|phi_w'(x)| = 1/(q + x q')**2, exactly."""
    w = _as_word(w)
    x = Fraction(x)
    lo, hi = domain_of_digit(w.last)
    if not lo <= x <= hi:
        raise ValueError(f"x={x} outside the domain of a word ending in {w.last}")
    den = w.q[-1] + x * w.q[-2]
    return 1 / den ** 2


def norm_bounds(w: Union[Word, Sequence[int]]) -> Tuple[Fraction, Fraction]:
    """(inf, sup) of |phi_w'| over the word's domain, from the endpoints."""
    w = _as_word(w)
    lo, hi = domain_of_digit(w.last)
    d0 = abs(w.q[-1] + lo * w.q[-2])
    d1 = abs(w.q[-1] + hi * w.q[-2])
    dmin, dmax = min(d0, d1), max(d0, d1)
    return 1 / dmax ** 2, 1 / dmin ** 2


def distortion_constant(w: Union[Word, Sequence[int]]) -> Fraction:
    """K_w = sup |phi_w'| / inf |phi_w'|, exactly."""
    inf, sup = norm_bounds(w)
    return sup / inf


def g_ratio(w: Union[Word, Sequence[int]], x: Fraction) -> Fraction:
    """|(q_n + x q_(n-1)) / (q_(n+1) + x q_n)| for a word of length n+1."""
    w = _as_word(w)
    if len(w) < 2:
        raise ValueError("need a word of length >= 2")
    x = Fraction(x)
    num = w.q[-2] + x * w.q[-3]
    den = w.q[-1] + x * w.q[-2]
    return abs(Fraction(num, den))


# ---------------------------------------------------------------------------
# loop letters (the vertex-induced alphabet)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopLetter:
    """A first-return loop at v: sign * (2^j then k); j = 0 is a self-loop."""

    sign: int
    j: int
    k: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if self.j < 0:
            raise ValueError("run length j must be >= 0")
        if self.k < 3:
            raise ValueError("terminal digit magnitude must be >= 3")

    @property
    def word_digits(self) -> Tuple[int, ...]:
        return (self.sign * 2,) * self.j + (self.sign * self.k,)

    def __len__(self) -> int:
        return self.j + 1

    def __str__(self) -> str:
        head = f"({self.sign * 2})" if self.sign < 0 else "(2)"
        tail = f"({self.sign * self.k})" if self.sign < 0 else f"({self.k})"
        if self.j == 0:
            return str(self.sign * self.k)
        if self.j == 1:
            return f"{head}{tail}"
        return f"{head}^{self.j}{tail}"


def _block_order() -> Iterator[LoopLetter]:
    yield from (LoopLetter(sign, 0, k) for k in (3, 4) for sign in (-1, 1))
    for m in count(3):
        if m >= 5:
            yield from (LoopLetter(sign, 0, m) for sign in (-1, 1))
        for sign in (-1, 1):
            yield from (LoopLetter(sign, r, m) for r in range(1, m + 1))
            yield from (LoopLetter(sign, m, l) for l in range(m - 1, 2, -1))


def vertex_alphabet(budget: int) -> List[LoopLetter]:
    """The first ``budget`` letters of the induced alphabet in block order.

    Blocks: -3, 3, -4, 4; then runs (-2)^r(-3) r<=3, (2)^r(3) r<=3;
    (-2)^r(-4) r<=4, (-2)^4(-3); (2)^r(4) r<=4, (2)^4(3); then for each
    m >= 5: -m, m; (-2)^r(-m) r<=m, (-2)^m(-l) for l = m-1..3; and the
    positive mirror.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return list(islice(_block_order(), budget))


# ---------------------------------------------------------------------------
# the barred three-vertex graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarredLetter:
    """A digit plus a codomain tag; barred copies share the generator map."""

    value: int
    barred: bool = False

    def __str__(self) -> str:
        return f"{self.value}~" if self.barred else str(self.value)

    __repr__ = __str__


def nicf_barred_graph(k_max: int) -> GraphSystem:
    """The three-vertex system truncated to digit magnitudes <= k_max.

    Edges: self-loops e at v for 3 <= |e| <= k_max; 2: v->w; 2~: w->w;
    e~: w->v for e >= 3; -2: v->z; -2~: z->z; e~: z->v for e <= -3.
    """
    if k_max < 3:
        raise ValueError("need k_max >= 3")
    v, w, z = "v", "w", "z"
    edges: List[BarredLetter] = []
    initial: Dict[BarredLetter, str] = {}
    terminal: Dict[BarredLetter, str] = {}

    def add(letter: BarredLetter, i0: str, t0: str) -> None:
        edges.append(letter)
        initial[letter] = i0
        terminal[letter] = t0

    for k in range(3, k_max + 1):
        for s in (1, -1):
            add(BarredLetter(s * k, False), v, v)
    add(BarredLetter(2, False), v, w)
    add(BarredLetter(2, True), w, w)
    for k in range(3, k_max + 1):
        add(BarredLetter(k, True), w, v)
    add(BarredLetter(-2, False), v, z)
    add(BarredLetter(-2, True), z, z)
    for k in range(3, k_max + 1):
        add(BarredLetter(-k, True), z, v)
    return GraphSystem((v, w, z), tuple(edges), initial, terminal)

