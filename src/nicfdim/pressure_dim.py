"""Partition sums, certified pressure bounds and dimension intervals.

For an alphabet F and t >= 0 the depth-n partition sum is
Z_n(t) = sum over admissible length-n words of (sup |phi_w'|)**t.
Sub/super-multiplicativity of word norms gives, for every n,

    (log Z_n - t log K) / n  <=  P_F(t)  <=  (log Z_n) / n,

with K a distortion constant for F, so sign certificates for the
pressure never need a limit:

    Z_n <= 1      certifies  P_F(t) <= 0,
    Z_n >= K**t   certifies  P_F(t) >= 0.

Dimension intervals come from bisection on t using only such
certificates; no uncertified digit is ever emitted.  Each probe t walks
the depth ladder once (``_sign_verdict``): every Z_n(t) is computed once
and the walk stops at the first certificate of either sign.  Both hold
at one depth only where Z_n = K**t = 1, so P(t) = 0, which the walk
reports as nonpositive.  The same walk decides each letter of the greedy
spectrum and the regularity test of ``classify_nature``.  K is
enclosed once per kind of digit system (smallest |b| = 3 or >= 4) and
the cofinite letter tail once per (truncation, t).  Word-tree sums run
in the guarded float lane at every t > 0: each (letters, depth) tree is
walked once into one array of bases 4/d**2 kept in an 8-tree LRU cache,
and bisection probes only re-raise them to a new t and add them in walk
order.  Every other x**t is exact only at integer t, where no root is
needed (``exactnum.pow_iv``), and in the float lane otherwise; only the
worked similarity examples keep exact roots (up to the 64th).
``_z_exact`` (exact rationals) is only the float lane's test oracle.

Every system (``DigitIfs``, ``LoopIfs``, ``SimilarityIfs``) offers the
same members: ``letter_count``, ``infinite_alphabet``, ``theta``,
``k_interval()``, ``ladder(max_depth, word_budget)`` and
``partition_sum_body(t, n)``; the functions below call those
instead of asking which kind of system they hold.  ``k_interval()``
encloses K at one fixed precision (96-bit surds): K enters the bounds
only through ``log K`` in doubles or ``K**t``, so a finer surd would
move no bound by more than about 2**-90.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from .exactnum import (
    DivergentTailError,
    Interval,
    NumericRangeError,
    float_up,
    interval_pow,
    log_interval,
    next_down,
    next_up,
    pow_enclosure,
    pow_iv,
    tail_sum_enclosure,
)
from .nicf_system import (
    HALF,
    K_GLOBAL,
    LoopLetter,
    alpha_interval,
    beta4_interval,
    distortion_from_ratio,
)
from .symbolic import AlphabetSelection, GraphSystem, first_return_loops


class _DivergentType:
    """Flag returned where a sum provably diverges (t at or below theta)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DIVERGENT"


DIVERGENT = _DivergentType()


def is_divergent(x) -> bool:
    return x is DIVERGENT


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

class _WordTreeIfs:
    """Systems whose word norms come from continuant letter matrices.

    Subclasses supply ``letters``, ``infinite_alphabet``, ``k_interval``,
    the letter matrices ``_mats()`` and, for an infinite alphabet, an
    enclosure ``_tail_mass(t)`` of the letter tail mass at t > theta;
    the word-tree sum and the divergence test are shared.
    """

    @property
    def letter_count(self) -> int:
        return len(self.letters)

    @property
    def theta(self) -> Fraction:
        """Finiteness exponent: tail letters have mass ~ (k - 1/2)**(-2t)."""
        return HALF if self.infinite_alphabet else Fraction(0)

    def ladder(self, max_depth: int, word_budget: int) -> List[int]:
        """Depths 1, 2, 4, ... up to the deepest affordable within budget."""
        cap = max_depth
        if self.letter_count >= 2:
            while cap > 1 and self.letter_count ** cap > word_budget:
                cap -= 1
        ns = []
        n = 1
        while n < cap:
            ns.append(n)
            n *= 2
        ns.append(cap)
        return ns

    def partition_sum_body(self, t: Fraction, n: int):
        """Z_n(t) for t >= 0, n >= 1 (see ``partition_sum``)."""
        if self.infinite_alphabet and t <= self.theta:
            return DIVERGENT
        mats = self._mats()
        if t == 0:  # the alphabet is finite here
            return Interval.point(Fraction(len(mats)) ** n)

        core = _z_float(mats, n, t)
        if not self.infinite_alphabet:
            return core
        tail = self._tail_mass(t)
        if n == 1:
            return Interval(core.lo + tail.lo, core.hi + tail.hi)
        sigma_t = _z_float(mats, 1, t)
        correction = ((sigma_t + tail) ** n).hi - (sigma_t ** n).lo
        return Interval(core.lo, core.hi + max(correction, 0))


@dataclass(frozen=True)
class DigitIfs(_WordTreeIfs):
    """The restricted-digit system Phi_F for F with all |b| >= 3 (full shift)."""

    selection: AlphabetSelection

    def __post_init__(self):
        if self.selection.min_magnitude() < 3:
            raise ValueError(
                "pressure requires an IFS selection: digits |b| >= 3 "
                "(letters +-2 live on different vertex spaces)")

    @property
    def letters(self) -> Tuple[int, ...]:
        return self.selection.letters

    @property
    def infinite_alphabet(self) -> bool:
        return self.selection.is_cofinite

    def k_interval(self) -> Interval:
        return _digit_k(self.selection.min_magnitude() == 3)

    def _mats(self):
        return tuple(_letter_matrix((b,)) for b in self.letters)

    def _tail_mass(self, t: Fraction):
        return _cofinite_tail(self.selection.trunc, t)


@lru_cache(maxsize=2)
def _digit_k(smallest_is_3: bool) -> Interval:
    """K of a digit system: it depends only on whether 3 is its smallest
    |b| (ratio bound alpha) or not (ratio bound 2 - sqrt3)."""
    return distortion_from_ratio(alpha_interval() if smallest_is_3
                                 else beta4_interval())


@lru_cache(maxsize=64)  # (trunc, t) pairs: a dim job probes a few dozen t
def _cofinite_tail(trunc: int, t: Fraction) -> Interval:
    """Mass of the cofinite tail letters, both signs:
    2 * sum_{k > trunc} (k - 1/2)**(-2t)."""
    # (k - 1/2) for k >= trunc+1 equals (j + 1/2) for j >= trunc
    return 2 * tail_sum_enclosure(trunc, HALF, t, terms=2)


@dataclass(frozen=True)
class LoopIfs(_WordTreeIfs):
    """A finite set of vertex loop letters, optionally carrying the tail of
    the full induced alphabet beyond the truncation grid j <= j_max,
    k <= k_max (``letters`` must then be exactly that grid)."""

    letters: Tuple[LoopLetter, ...]
    with_tail: bool = False
    j_max: int = 0
    k_max: int = 0

    @property
    def infinite_alphabet(self) -> bool:
        return self.with_tail

    def k_interval(self) -> Interval:
        return Interval.point(K_GLOBAL)

    def _mats(self):
        return tuple(_letter_matrix(l.word_digits) for l in self.letters)

    def _tail_mass(self, t: Fraction):
        return vertex_tail_bound(t, self.j_max, self.k_max)


def vertex_system(j_max: int, k_max: int) -> LoopIfs:
    """The full induced system at v, truncated to runs j <= j_max and
    terminal digits k <= k_max, with a rigorous tail."""
    if j_max < 0 or k_max < 3:
        raise ValueError("need j_max >= 0 and k_max >= 3")
    letters = tuple(
        LoopLetter(sign, j, k)
        for sign in (-1, 1)
        for j in range(0, j_max + 1)
        for k in range(3, k_max + 1)
    )
    return LoopIfs(letters, with_tail=True, j_max=j_max, k_max=k_max)


@dataclass(frozen=True)
class SimilarityIfs:
    """Letters with exact |phi'| = ratio, plus geometric families
    {base * ratio**m : m >= 0}; word norms multiply exactly, so K = 1
    and Z_n = Z_1**n."""

    ratios: Tuple[Fraction, ...] = ()
    families: Tuple[Tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        for r in self.ratios:
            if not 0 < r < 1:
                raise ValueError("not a contraction")
        for base, r in self.families:
            if not (0 < r < 1 and 0 < base < 1):
                raise ValueError("not a contraction")

    @property
    def letter_count(self) -> int:
        return max(len(self.ratios) + len(self.families), 1)

    @property
    def infinite_alphabet(self) -> bool:
        return bool(self.families)

    @property
    def theta(self) -> Fraction:
        return Fraction(0)  # geometric families converge for every t > 0

    def k_interval(self) -> Interval:
        return Interval.point(Fraction(1))

    def ladder(self, max_depth: int, word_budget: int) -> List[int]:
        return [1]  # Z_n = Z_1**n, deeper adds nothing

    def partition_sum_body(self, t: Fraction, n: int):
        if t == 0:
            if self.families:
                return DIVERGENT
            return Interval.point(Fraction(len(self.ratios)) ** n)
        z1 = Interval.point(0)
        for r in self.ratios:
            z1 = z1 + pow_iv(r, t)
        for base, r in self.families:
            z1 = z1 + pow_iv(base, t) / _geometric_gap(pow_iv(r, t))
        return z1 ** n


def _geometric_gap(rt: Interval) -> Interval:
    """1 - r**t of a family ratio r < 1 at t > 0, where the family sum
    converges; a ratio so close to 1 that the enclosure of r**t reaches 1
    shows no convergence at this precision."""
    if rt.hi >= 1:
        raise NumericRangeError(
            "a ratio**t enclosure reaches 1: the geometric family converges "
            "at t > 0, but not provably at this precision")
    return 1 - rt


System = Union[DigitIfs, LoopIfs, SimilarityIfs]


def as_system(x) -> System:
    if isinstance(x, (DigitIfs, LoopIfs, SimilarityIfs)):
        return x
    if isinstance(x, AlphabetSelection):
        return DigitIfs(x)
    raise TypeError(f"not a pressure system: {type(x).__name__}")


# ---------------------------------------------------------------------------
# partition sums
# ---------------------------------------------------------------------------

_WORD_CACHE_SIZE = 8  # word trees whose float bases stay cached
WORD_BUDGET = 300_000  # default words per partition sum on a depth ladder


def _letter_matrix(digits: Sequence[int]) -> Tuple[int, int, int, int]:
    """Fold [[d,1],[1,0]] over the digits: the continuant transfer matrix.

    Appending the block to a word with state (q_n, q_(n-1)) gives the new
    state (a q + b q', c q + d q')."""
    a, b, c, d = 1, 0, 0, 1
    for dig in digits:
        a, b, c, d = dig * a + c, dig * b + d, a, b
    return a, b, c, d


def _sup_from_state(q: int, qp: int) -> Fraction:
    """sup |phi_w'| = 4 / (2|q_n| - |q_(n-1)|)**2 on the symmetric domain."""
    d = 2 * abs(q) - abs(qp)
    return Fraction(4, d * d)


def _z_exact(mats, n: int, t: Fraction, bits: int) -> Interval:
    """The word-tree sum in exact rationals (``pow_enclosure`` terms at
    ``bits``): the float lane's test oracle, called by no code path."""
    # one sum per first letter: running rational sums grow their
    # denominators with every term, so shorter runs are cheaper
    los, his = [], []
    for m0 in mats:
        lo = Fraction(0)
        hi = Fraction(0)
        stack = [(1, m0[0], m0[2])]
        while stack:
            depth, q, qp = stack.pop()
            if depth == n:
                term = pow_enclosure(_sup_from_state(q, qp), t, bits)
                lo += term.lo
                hi += term.hi
                continue
            for a, b, c, dd in mats:
                stack.append((depth + 1, a * q + b * qp, c * q + dd * qp))
        los.append(lo)
        his.append(hi)
    return Interval(sum(los), sum(his))


# Error model of ``_z_float`` (u = 2**-53; all terms are positive, so
# relative term errors bound the sum's).  A base 4.0 / d**2 is rounded
# once (the division; d*d < 2**53 converts exactly) or twice, and x**tf
# multiplies that by tf and adds libm's ~1 ulp (2u).  Every letter matrix
# here has d >= 5, so a normal term (base**tf >= 2**-1022) has tf <= 387,
# or tf <= 20 once d*d >= 2**53: each term is within 390u, inside
# _TERM_SLACK = 512u.  Adding the terms left to right in one pass is
# within (count - 1) u, counted as count * 2**-51 (4x).  An inexact
# exponent tf != t adds |t - tf| |log base| <= t u 2 log(dmax), counted
# twice.  Subnormal terms are still exact to 2**-1070 absolute.
_TERM_SLACK = 2.0 ** -44


@lru_cache(maxsize=_WORD_CACHE_SIZE)
def _word_bases(mats: Tuple[Tuple[int, int, int, int], ...], n: int):
    """Float bases 4.0 / d**2 of the depth-n words in walk order, and the
    largest denominator d (at least 2).  The array is shared by every
    caller through the cache: read only."""
    bases = array("d")
    dmax = 2
    stack = [(1, a, c) for a, _, c, _ in reversed(mats)]
    try:
        while stack:
            depth, q, qp = stack.pop()
            if depth == n:
                d = 2 * abs(q) - abs(qp)
                bases.append(4.0 / float(d * d))
                if d > dmax:
                    dmax = d
                continue
            for a, b, c, dd in mats:
                stack.append((depth + 1, a * q + b * qp, c * q + dd * qp))
    except OverflowError:
        raise NumericRangeError(
            f"a depth-{n} word denominator exceeds the float range") from None
    return bases, dmax


def _z_float(mats, n: int, t: Fraction) -> Interval:
    tf = float(t)
    bases, dmax = _word_bases(tuple(mats), n)
    raw = 0.0
    for x in bases:
        raw += x ** tf
    count = len(bases)
    slack = _TERM_SLACK + count * 2.0 ** -51
    if Fraction(tf) != t:
        slack += 4.0 * tf * math.log(dmax) * 2.0 ** -53
    subnormal = count * 2.0 ** -1070
    lo = next_down(raw - raw * slack - subnormal, 2)
    hi = next_up(raw + raw * slack + subnormal, 2)
    return Interval(max(Fraction(lo), Fraction(0)), Fraction(hi))


def vertex_tail_bound(t: Fraction, j_max: int, k_max: int):
    """Upper enclosure of the loop-letter mass outside j <= j_max, k <= k_max,

        sum over {j > j_max, k >= 3} + {j <= j_max, k > k_max}
        of (sup |phi'_{2^j k}|)**t,

    both signs, via sup <= (1/4)**j (k - 1/2)**-2.  Divergent for t <= 1/2.
    """
    t = Fraction(t)
    if 2 * t <= 1:
        return DIVERGENT
    s_all = tail_sum_enclosure(2, HALF, t, terms=2)       # k >= 3
    s_tail = tail_sum_enclosure(k_max, HALF, t, terms=1)  # k > k_max
    x = pow_iv(Fraction(1, 4), t)                         # 4**-t < 1
    geo_gt = x ** (j_max + 1) / (1 - x)
    geo_le = Interval.point(0)
    acc = Interval.point(1)
    for _ in range(j_max + 1):
        geo_le = geo_le + acc
        acc = acc * x
    upper = 2 * (geo_gt.hi * s_all.hi + geo_le.hi * s_tail.hi)
    return Interval(Fraction(0), upper)


def partition_sum(system, t: Fraction, n: int, *, threads: int = 1):
    """Enclosure of Z_n(t) for the system, or DIVERGENT.

    Cofinite digit systems and the tailed vertex system add their letter
    tails exactly at n = 1; for n >= 2 the lower bound is the truncated
    enumeration and the upper bound adds the letterwise-product
    correction (sigma_T + sigma_L)**n - sigma_T**n, valid because word
    norms are submultiplicative.  ``threads`` is accepted for
    compatibility and has no effect: the sum runs on one thread.
    """
    system = as_system(system)
    t = Fraction(t)
    if t < 0:
        raise ValueError("needs t >= 0")
    if n < 1:
        raise ValueError("needs depth n >= 1")
    return system.partition_sum_body(t, n)


# ---------------------------------------------------------------------------
# pressure bounds and the sign walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PressureBounds:
    t: Fraction
    lo: Fraction
    hi: Fraction
    depth: int
    k_used: Fraction

    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)


def pressure_bounds(system, t: Fraction, n: int):
    """Two-sided pressure enclosure at depth n, or DIVERGENT."""
    system = as_system(system)
    t = Fraction(t)
    z = partition_sum(system, t, n)
    if is_divergent(z):
        return DIVERGENT
    if z.lo <= 0:
        raise NumericRangeError(
            "partition sum vanishes at this precision; no finite lower "
            "pressure bound at this depth/exponent")
    k = system.k_interval()
    log_z = log_interval(z)
    log_k_t = log_interval(k) * t
    return PressureBounds(
        t=t,
        lo=Fraction(log_z.lo - log_k_t.hi, n),
        hi=Fraction(log_z.hi, n),
        depth=n,
        k_used=k.hi,
    )


def _sign_verdict(system, t: Fraction, max_depth: int, word_budget: int) -> int:
    """The sign of P(t) as far as one walk up the depth ladder certifies it:
    -1 at the first depth where Z_n <= 1, +1 at the first where Z_n
    diverges or Z_n >= K**t, and 0 if no depth decides.  Each Z_n is
    computed once.  Both certificates at one depth mean P(t) = 0 exactly,
    reported as -1; they meet only in the exact lane, where Z_n = K**t = 1
    (a singleton at t = 0, or a similarity system at integer t).  At
    t = 0, Z_n = count**n decides by itself: +1 for two or more letters or
    an infinite alphabet, -1 for one letter."""
    k_t = None  # K**t, computed once at the first depth that needs it
    for n in system.ladder(max_depth, word_budget):
        z = partition_sum(system, t, n)
        if is_divergent(z):
            return 1
        if z.hi <= 1:
            return -1
        if k_t is None:
            # K = 1 exactly: pow_iv(1, t) pads above 1 at fractional t
            k = system.k_interval().hi
            k_t = k if k == 1 else pow_iv(k, t).hi
        if z.lo >= k_t:
            return 1
    return 0


# ---------------------------------------------------------------------------
# dimension intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionInterval:
    lo: Fraction
    hi: Fraction
    depth: int
    target_tol: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def achieved(self) -> bool:
        return self.width <= self.target_tol

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi


_UPPER_STARTS = (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3))


def dim_interval(system, max_depth: int, tol, *,
                 word_budget: int = WORD_BUDGET) -> DimensionInterval:
    """Certified enclosure of the Bowen root by bisection on t.

    The left endpoint always carries a P >= 0 certificate (t = 0 needs
    none) and the right endpoint a P <= 0 certificate.  Each probe t is
    decided by one walk up the depth ladder (``_sign_verdict``), so no
    Z_n(t) is computed twice.  When neither side certifies at a midpoint,
    both flanks are refined independently and the straddle widens the
    result rather than guessing.
    """
    system = as_system(system)
    tol = Fraction(tol)
    verdict = partial(_sign_verdict, system, max_depth=max_depth,
                      word_budget=word_budget)
    a = Fraction(0)
    b = None
    for cand in _UPPER_STARTS:
        if verdict(cand) < 0:
            b = cand
            break
    if b is None:
        # no upper certificate at desk depth: report the honest wide interval
        return DimensionInterval(a, _UPPER_STARTS[-1], max_depth, tol)

    iterations = 0
    while b - a > tol and iterations < 80:
        iterations += 1
        m = (a + b) / 2
        sign = verdict(m)
        if sign > 0:
            a = m
        elif sign < 0:
            b = m
        else:
            a = _refine_flank(a, m, tol, lambda t: verdict(t) > 0)
            b = _refine_flank(b, m, tol, lambda t: verdict(t) < 0)
            break
    return DimensionInterval(a, b, max_depth, tol)


def _refine_flank(good, bad, tol, certify) -> Fraction:
    """Push the endpoint ``good``, which ``certify`` holds at, toward the
    indeterminate midpoint ``bad``."""
    steps = 0
    while abs(bad - good) > tol / 2 and steps < 24:
        steps += 1
        m = (good + bad) / 2
        if certify(m):
            good = m
        else:
            bad = m
    return good


# ---------------------------------------------------------------------------
# finiteness exponents and regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitenessExponent:
    theta: Fraction
    witness: Mapping[str, object]


def finiteness_exponent(system) -> FinitenessExponent:
    """theta = inf{t : Z_1(t) converges}, with certificates around it."""
    system = as_system(system)
    if not system.infinite_alphabet:
        return FinitenessExponent(Fraction(0), {"reason": "finite alphabet"})
    if system.theta == 0:
        w = {"diverges_at": "0 (infinitely many letters)",
             "converges_for": "every t > 0 (geometric families)"}
        return FinitenessExponent(Fraction(0), w)
    t_conv = system.theta + Fraction(1, 16)
    z1 = partition_sum(system, t_conv, 1)
    w = {
        "diverges_at": "every t <= 1/2: the one-letter sum dominates a tail "
                       "of sum (k - 1/2)**(-2t) with 2t <= 1 (integral test)",
        "converges_at": str(t_conv),
        "z1_upper_at_witness": float_up(z1.hi),
    }
    return FinitenessExponent(system.theta, w)


_NATURE_GRID = (Fraction(9, 16), Fraction(5, 8), Fraction(3, 4), Fraction(7, 8),
                Fraction(1, 4), Fraction(1, 2), Fraction(1, 8))
_NATURE_DEPTH = 6


def classify_nature(system, *,
                    t_samples: Optional[Sequence[Fraction]] = None) -> str:
    """Certified regularity classification; 'indeterminate' when the
    sampled certificates decide nothing.

    P is finite and strictly decreasing on (theta, inf), so P(t) >= 0 at
    a sample t > theta gives 0 < P < inf just left of t: strongly regular.
    Samples at or below theta are skipped.  No sample can show
    irregularity: P(theta + delta) < 0 leaves room for a zero in
    (theta, theta + delta), and every infinite system here diverges at
    theta, so such a zero always exists."""
    system = as_system(system)
    theta = system.theta
    if not system.infinite_alphabet:
        if system.letter_count >= 2:
            return "strongly regular"  # 0 < P(0) = log(count) < inf, exactly
        return "critically regular"    # singleton: P(theta) = P(0) = 0
    for t in (_NATURE_GRID if t_samples is None else t_samples):
        t = Fraction(t)
        if t > theta and _sign_verdict(system, t, _NATURE_DEPTH,
                                       WORD_BUDGET) > 0:
            return "strongly regular"
    return "indeterminate"


# ---------------------------------------------------------------------------
# the worked similarity examples
# ---------------------------------------------------------------------------

# Closed forms are checked at 160 bits against 64-bit loop enumerations,
# too fine for the float lane; exact roots at every t would make
# ``appendix --t-grid 0.001:0.003:0.001`` a few hundred times slower.
_APPENDIX_EXACT_ROOTS = 64


def _appendix_pow(x: Fraction, t: Fraction, bits: int) -> Interval:
    if t.denominator <= _APPENDIX_EXACT_ROOTS:
        return interval_pow(x, t, bits)
    return pow_iv(x, t)


@dataclass(frozen=True)
class LoopFamily:
    """Loops base * cycle**m, m >= 0; lengths base_len + m * cycle_len."""

    base_ratio: Fraction
    cycle_ratio: Fraction
    base_len: int
    cycle_len: int

    def count_up_to(self, max_len: int) -> int:
        if self.base_len > max_len:
            return 0
        return (max_len - self.base_len) // self.cycle_len + 1


@dataclass(frozen=True)
class VertexLoopSpec:
    """First-return alphabet of a vertex: single loops plus geometric
    families, each with exact ratios and word lengths."""

    singles: Tuple[Tuple[Fraction, int], ...] = ()
    families: Tuple[LoopFamily, ...] = ()

    def similarity_ifs(self) -> SimilarityIfs:
        return SimilarityIfs(
            ratios=tuple(r for r, _ in self.singles),
            families=tuple((f.base_ratio, f.cycle_ratio) for f in self.families),
        )

    def count_up_to(self, max_len: int) -> int:
        return (sum(1 for _, ln in self.singles if ln <= max_len)
                + sum(f.count_up_to(max_len) for f in self.families))

    def z1_tail_beyond(self, max_len: int, t: Fraction,
                       bits: int = 64) -> Interval:
        """Mass of the loops of length > max_len."""
        t = Fraction(t)
        acc = Interval.point(0)
        for r, ln in self.singles:
            if ln > max_len:
                acc = acc + _appendix_pow(r, t, bits)
        for f in self.families:
            if t == 0:
                raise DivergentTailError("divergent loop tail")
            m0 = f.count_up_to(max_len)  # first omitted member index
            rt = _appendix_pow(f.cycle_ratio, t, bits)
            acc = (acc + _appendix_pow(f.base_ratio, t, bits) * rt ** m0
                   / _geometric_gap(rt))
        return acc


@dataclass(frozen=True)
class AppendixSystem:
    name: str
    graph: GraphSystem
    ratios: Mapping[object, Fraction]
    loop_specs: Mapping[str, VertexLoopSpec]

    def vertex_ifs(self, vertex: str) -> SimilarityIfs:
        return self.loop_specs[vertex].similarity_ifs()

    def closed_pressure(self, vertex: str, t: Fraction, bits: int = 96) -> Interval:
        """The exact closed form of P_{E_vertex}(t), as an enclosure: the
        mass of all first-return loops, every one longer than 0."""
        return log_interval(self.loop_specs[vertex].z1_tail_beyond(0, t, bits))

    def full_pressure_closed(self, t: Fraction, bits: int = 64) -> Interval:
        """P(t) = log rho(M(t)) of the whole graph system, where M(t)[u][v]
        is the sum of r_e**t over the edges e from u to v.  For any
        positive x the Collatz-Wielandt bracket

            min_u (M_lo x)_u / x_u  <=  rho(M(t))  <=  max_u (M_hi x)_u / x_u

        holds, with M_lo <= M(t) <= M_hi the entrywise enclosures; x is
        the Perron vector as far as a float power iteration finds it."""
        t = Fraction(t)
        g = self.graph
        index = {v: i for i, v in enumerate(g.vertices)}
        size = len(index)
        m = [[Interval.point(0)] * size for _ in range(size)]
        for e in g.edges:
            u, v = index[g.initial[e]], index[g.terminal[e]]
            m[u][v] = m[u][v] + _appendix_pow(self.ratios[e], t, bits)
        # iterate the scaled shift s I + M, which has M's Perron vector and
        # converges for periodic graphs and at every t alike
        mf = [[float(entry.lo) for entry in row] for row in m]
        shift = max(max(row) for row in mf) or 1.0  # 0 if M(t) underflows
        x = [1.0] * size
        for _ in range(200):
            y = [shift * x[u] + sum(mf[u][v] * x[v] for v in range(size))
                 for u in range(size)]
            top = max(y)
            x = [yi / top for yi in y]
        xs = [Fraction(xi) for xi in x]
        lo = min(sum(m[u][v].lo * xs[v] for v in range(size)) / xs[u]
                 for u in range(size))
        hi = max(sum(m[u][v].hi * xs[v] for v in range(size)) / xs[u]
                 for u in range(size))
        return log_interval(Interval(lo, hi))

    def enumerated_pressure(self, vertex: str, t: Fraction, max_len: int,
                            bits: int = 64) -> Interval:
        """Pressure from actually enumerated first-return loops up to
        max_len plus the exact geometric tail; contains the closed form."""
        t = Fraction(t)
        spec = self.loop_specs[vertex]
        loops = first_return_loops(self.graph, vertex, max_len)
        z1 = Interval.point(0)
        n_enum = 0
        for words in loops.values():
            for wrd in words:
                ratio = Fraction(1)
                for e in wrd:
                    ratio *= self.ratios[e]
                z1 = z1 + _appendix_pow(ratio, t, bits)
                n_enum += 1
        if n_enum != spec.count_up_to(max_len):
            raise AssertionError("loop enumeration disagrees with the family spec")
        z1 = z1 + spec.z1_tail_beyond(max_len, t, bits)
        return log_interval(z1)


def appendix_example(name: str, ratios: Mapping[object, Fraction]) -> AppendixSystem:
    """The two worked similarity systems: the 4-edge cycle graph and the
    6-edge triangle.  ``ratios`` maps each edge to its contraction ratio."""
    ratios = {e: Fraction(r) for e, r in ratios.items()}
    for r in ratios.values():
        if not 0 < r < 1:
            raise ValueError("not a contraction")

    if name == "cycle4":
        edges = (1, 2, 3, 4)
        if set(ratios) != set(edges):
            raise ValueError("cycle4 needs ratios for edges 1..4")
        initial = {1: "v", 2: "w", 3: "z", 4: "z"}
        terminal = {1: "w", 2: "z", 3: "v", 4: "w"}
        g = GraphSystem(("v", "w", "z"), edges, initial, terminal)
        s = ratios[1] * ratios[2] * ratios[3]   # loops 123 / 231 / 312
        r = ratios[2] * ratios[4]               # loops 24 / 42
        specs = {
            "v": VertexLoopSpec(families=(LoopFamily(s, r, 3, 2),)),
            "w": VertexLoopSpec(singles=((s, 3), (r, 2))),
            "z": VertexLoopSpec(singles=((s, 3), (r, 2))),
        }
        return AppendixSystem("cycle4", g, ratios, specs)

    if name == "triangle6":
        edges = tuple("abcdef")
        if set(ratios) != set(edges):
            raise ValueError("triangle6 needs ratios for edges a..f")
        initial = {"a": "v", "b": "w", "c": "w", "d": "z", "e": "v", "f": "z"}
        terminal = {"a": "w", "b": "v", "c": "z", "d": "w", "e": "z", "f": "v"}
        g = GraphSystem(("v", "w", "z"), edges, initial, terminal)
        R = ratios

        def fam(base_edges: str, cycle_edges: str) -> LoopFamily:
            base = Fraction(1)
            for e in base_edges:
                base *= R[e]
            cyc = Fraction(1)
            for e in cycle_edges:
                cyc *= R[e]
            return LoopFamily(base, cyc, len(base_edges), len(cycle_edges))

        # first-return loops at v: a(cd)^n b, a(cd)^n cf, e(dc)^n f, e(dc)^n db
        specs = {
            "v": VertexLoopSpec(families=(
                fam("ab", "cd"), fam("acf", "cd"),
                fam("ef", "dc"), fam("edb", "dc"),
            )),
            # by the symmetry of the triangle, the other vertices mirror v
            "w": VertexLoopSpec(families=(
                fam("ba", "ef"), fam("bed", "ef"),
                fam("cd", "fe"), fam("cfa", "fe"),
            )),
            "z": VertexLoopSpec(families=(
                fam("dc", "ba"), fam("dbe", "ba"),
                fam("fe", "ab"), fam("fac", "ab"),
            )),
        }
        return AppendixSystem("triangle6", g, ratios, specs)

    raise ValueError(f"unknown appendix example {name!r} (use cycle4 or triangle6)")
