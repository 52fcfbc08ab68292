"""Exact rational arithmetic and certified enclosures.

Every certified comparison in this package reduces to arithmetic on
intervals with ``fractions.Fraction`` endpoints.  Interval operations are
outward: the result interval always contains the exact mathematical
result.  Two lanes are provided:

* the exact lane (surds, rational powers, integral-test tails at integer
  exponents) performs no floating-point arithmetic at all and is the
  only lane the inequality ledger is allowed to use; a power whose
  integers would exceed 2**16 bits raises ``NumericRangeError``;
* a guarded floating-point lane (``log_interval``, ``exp_interval`` and
  the ``f*`` helpers) wraps libm calls with directed ulp padding and is
  used on the pressure path, where x**t is exact only at integer t (no
  roots; ``pow_iv``).  Padding is 1 ulp for correctly-rounded IEEE
  operations and 8 ulps for transcendental calls, folded outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction
RationalLike = Union[Fraction, int]

#: ulp padding applied to libm results (log/exp/pow).
_LIBM_PAD = 8

_SUPPORTED_SURDS = (2, 3, 5)
_MAX_POW_BITS = 1 << 16  # most bits of an integer that pow_enclosure builds


class DivergentTailError(ValueError):
    """Raised when a series tail fails the convergence precondition."""


class NumericRangeError(ArithmeticError):
    """Raised when a value leaves the range of the guarded float lane
    (overflow, or a positive value that underflows to zero)."""


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _frac(self.lo))
        object.__setattr__(self, "hi", _frac(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @staticmethod
    def point(x: RationalLike) -> "Interval":
        x = _frac(x)
        return Interval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, other: Union["Interval", RationalLike]) -> bool:
        if isinstance(other, Interval):
            return self.lo <= other.lo and other.hi <= self.hi
        x = _frac(other)
        return self.lo <= x <= self.hi

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        x = _frac(other)
        return Interval(self.lo + x, self.hi + x)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return self + (-_as_interval(other))

    def __rsub__(self, other) -> "Interval":
        return _as_interval(other) + (-self)

    def __mul__(self, other) -> "Interval":
        o = _as_interval(other)
        ps = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(ps), max(ps))

    __rmul__ = __mul__

    def reciprocal(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Interval":
        return self * _as_interval(other).reciprocal()

    def __rtruediv__(self, other) -> "Interval":
        return _as_interval(other) * self.reciprocal()

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int):
            raise TypeError("use pow_enclosure for non-integer exponents")
        if n < 0:
            return (self ** (-n)).reciprocal()
        if n == 0:
            return Interval.point(1)
        if n % 2 == 1 or self.lo >= 0:
            return Interval(self.lo ** n, self.hi ** n)
        if self.hi <= 0:
            return Interval(self.hi ** n, self.lo ** n)
        # even power of an interval straddling zero
        return Interval(Fraction(0), max(self.lo ** n, self.hi ** n))

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi})"


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


# ---------------------------------------------------------------------------
# integer roots
# ---------------------------------------------------------------------------

def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by integer Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n if k == 1 else (0 if n == 0 else 1)
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)  # 2**ceil(bits/k) >= n**(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


# ---------------------------------------------------------------------------
# surd enclosures
# ---------------------------------------------------------------------------

def surd_enclosure(n: int, bits: int) -> Interval:
    """Dyadic enclosure [s, s + 1] / 2**bits of sqrt(n) for n in {2, 3, 5},
    s = isqrt(n * 4**bits): n is no perfect square, so sqrt(n) lies inside,
    and the width 2**-bits halves exactly per extra bit."""
    if n not in _SUPPORTED_SURDS:
        raise ValueError("unsupported surd")
    if bits < 1:
        raise ValueError("need bits >= 1")
    s = math.isqrt(n << (2 * bits))
    return Interval(Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits))


# ---------------------------------------------------------------------------
# rational powers
# ---------------------------------------------------------------------------

def pow_enclosure(base: RationalLike, t: RationalLike, bits: int = 64) -> Interval:
    """Enclosure of base**t for base > 0 and rational t = u/v.

    Integer t gives an exact point interval, as does any t whose result is
    rational (e.g. the square root of a square).  Otherwise the v-th root
    is taken with relative precision about 2**-bits via scaled integer
    roots, so endpoints are dyadic rationals.  Raises ``NumericRangeError``
    when its integers would exceed 2**16 bits: |u| times the bit length of
    base (numerator or denominator), plus v * bits if a root is taken.
    """
    base = _frac(base)
    t = _frac(t)
    if base <= 0:
        raise ValueError("base must be positive")
    u, v = t.numerator, t.denominator
    size = abs(u) * max(base.numerator.bit_length(), base.denominator.bit_length())
    if size + (v * bits if v > 1 else 0) > _MAX_POW_BITS:
        raise NumericRangeError(f"an exact power needs over {_MAX_POW_BITS:,} bits")
    if v == 1:
        return Interval.point(base ** u)
    r = base ** u  # exact rational, r > 0
    a, b = r.numerator, r.denominator
    ra, rb = integer_nth_root(a, v), integer_nth_root(b, v)
    if ra ** v == a and rb ** v == b:
        return Interval.point(Fraction(ra, rb))
    # normalize so the root is in [1/2, 2]: r * 2**(v*shift) ~ 1
    e = a.bit_length() - b.bit_length()
    shift = -(e // v)
    if shift >= 0:
        a <<= v * shift
    else:
        b <<= -v * shift
    scale = 1 << bits
    num = a << (v * bits)
    lo_int = integer_nth_root(num // b, v)
    hi_int = integer_nth_root(-(-num // b), v) + 1
    lo = Fraction(lo_int, scale)
    hi = Fraction(hi_int, scale)
    if shift >= 0:
        return Interval(lo / (1 << shift), hi / (1 << shift))
    return Interval(lo * (1 << -shift), hi * (1 << -shift))


def interval_pow(x: Union[Interval, RationalLike], t: RationalLike,
                 bits: int = 64) -> Interval:
    """Enclosure of x**t for a positive interval (or rational) x."""
    x = _as_interval(x)
    t = _frac(t)
    if x.lo <= 0:
        raise ValueError("interval_pow needs a strictly positive base")
    if x.is_point():
        return pow_enclosure(x.lo, t, bits)
    if t >= 0:
        return Interval(pow_enclosure(x.lo, t, bits).lo,
                        pow_enclosure(x.hi, t, bits).hi)
    return Interval(pow_enclosure(x.hi, t, bits).lo,
                    pow_enclosure(x.lo, t, bits).hi)


def pow_iv(x: Union[Interval, RationalLike], t: RationalLike) -> Interval:
    """Enclosure of x**t for positive x: exact at integer t, where no root
    (and so no precision) is needed, guarded float lane otherwise."""
    t = _frac(t)
    if t.denominator == 1:
        return interval_pow(x, t)
    x = _as_interval(x)
    if x.lo <= 0:
        raise ValueError("pow_iv needs a strictly positive base")
    lo, hi = fpow_bounds(float_down(x.lo), float_up(x.hi),
                         float_down(t), float_up(t))
    return Interval(max(Fraction(lo), Fraction(0)), Fraction(hi))


# ---------------------------------------------------------------------------
# integral-test tail enclosures
# ---------------------------------------------------------------------------

def tail_sum_enclosure(k: int, c: Union[Interval, RationalLike],
                       s: RationalLike, terms: int = 0) -> Interval:
    """Enclosure of sum_{j>=k} (j + c)**(-2s) by the integral test.

    Requires k >= 1, c >= 0 and 2s > 1; raises DivergentTailError when
    2s <= 1.  With ``terms`` = N the first N summands are added exactly
    (as enclosures) and the integral test is applied at k + N, which
    tightens both endpoints; the integral lower bound at any split point
    stays inside the returned interval.  Powers go through ``pow_iv``, so
    the tail is exact at integer 2s and in the guarded float lane otherwise.
    """
    c = _as_interval(c)
    s = _frac(s)
    if k < 1:
        raise ValueError("need k >= 1")
    if c.lo < 0:
        raise ValueError("need c >= 0")
    two_s = 2 * s
    if two_s <= 1:
        raise DivergentTailError("divergent tail")
    lo = Fraction(0)
    hi = Fraction(0)
    for j in range(k, k + terms):
        f = pow_iv(c + j, -two_s)
        lo += f.lo
        hi += f.hi
    m = k + terms
    # integral of (x+c)**(-2s) over [m, inf) = (m+c)**(1-2s) / (2s-1)
    integral = pow_iv(c + m, 1 - two_s) / (two_s - 1)
    first = pow_iv(c + m, -two_s)
    return Interval(lo + integral.lo, hi + first.hi + integral.hi)


# ---------------------------------------------------------------------------
# directed floating point (pressure path only)
# ---------------------------------------------------------------------------

def next_down(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


def next_up(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


def float_down(x: RationalLike) -> float:
    """Largest double <= x (x a Fraction or int)."""
    x = _frac(x)
    try:
        f = float(x)
        while Fraction(f) > x:
            f = math.nextafter(f, -math.inf)
    except OverflowError:  # from float(x), or Fraction(-inf), beyond the doubles
        raise NumericRangeError("a value outside the double range") from None
    return f


def float_up(x: RationalLike) -> float:
    """Smallest double >= x."""
    x = _frac(x)
    try:
        f = float(x)
        while Fraction(f) < x:
            f = math.nextafter(f, math.inf)
    except OverflowError:
        raise NumericRangeError("a value outside the double range") from None
    return f


def flog_down(x: float) -> float:
    if x <= 0:
        raise ValueError("log of non-positive value")
    return next_down(math.log(x), _LIBM_PAD)


def flog_up(x: float) -> float:
    if x <= 0:
        raise ValueError("log of non-positive value")
    return next_up(math.log(x), _LIBM_PAD)


def fexp_down(x: float) -> float:
    return next_down(math.exp(x), _LIBM_PAD)


def fexp_up(x: float) -> float:
    return next_up(math.exp(x), _LIBM_PAD)


def fpow_bounds(b_lo: float, b_hi: float, t_lo: float, t_hi: float):
    """Directed bounds of b**t over b in [b_lo,b_hi], t in [t_lo,t_hi], b > 0."""
    if b_lo <= 0:
        raise ValueError("fpow_bounds needs positive base")
    cands = (
        math.pow(b_lo, t_lo), math.pow(b_lo, t_hi),
        math.pow(b_hi, t_lo), math.pow(b_hi, t_hi),
    )
    return next_down(min(cands), _LIBM_PAD), next_up(max(cands), _LIBM_PAD)


def log_interval(x: Union[Interval, RationalLike]) -> Interval:
    """Enclosure of log(x) with dyadic endpoints (guarded float path)."""
    x = _as_interval(x)
    if x.lo <= 0:
        raise ValueError("log of non-positive interval")
    if x.is_point() and x.lo == 1:
        return Interval.point(0)
    lo = float_down(x.lo)
    if lo == 0:
        raise NumericRangeError("log of a positive value below the float range")
    return Interval(Fraction(flog_down(lo)), Fraction(flog_up(float_up(x.hi))))


def exp_interval(x: Union[Interval, RationalLike]) -> Interval:
    """Enclosure of exp(x) with dyadic endpoints (guarded float path)."""
    x = _as_interval(x)
    if x.is_point() and x.lo == 0:
        return Interval.point(1)
    lo = fexp_down(float_down(x.lo))
    hi = fexp_up(float_up(x.hi))
    return Interval(max(Fraction(lo), Fraction(0)), Fraction(hi))
