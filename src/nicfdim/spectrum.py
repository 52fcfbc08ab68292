"""Letter-addition criteria and greedy digit-set construction.

A letter b may be appended to any digit set built from its predecessors
without overshooting the attainable dimensions as long as
M_b < 2 * sum of m_c over the letters c following b in the ordering,
where m/M are the letter constants making
m_b ||phi'_{w w'}|| <= ||phi'_{w b w'}|| <= M_b ||phi'_{w w'}||.
``mme_check`` certifies exactly that sum inequality with enclosed
margins.  It states no side of its own: it picks the ledger's sides for
the letter (``ledger.lemma_2_6_sides`` for phi_f, ``ledger.phi_v_sides``
for phi_v) and escalates their tail terms.  The first letters (+-3),
where the criterion has no room, are handled by
``direct_lambda_comparison`` instead.

``construct`` runs the greedy sweep: walk the ordering, tentatively add
each letter, and decide it by one walk up the depth ladder at the
target (``pressure_dim._sign_verdict``), which stops at the first depth
that certifies either sign.  The letter is kept only when that walk
certifies the tentative set's pressure nonpositive (so its dimension is
certifiably at most the target).  A letter whose dimension straddles
the target is rejected; the achieved interval can only approach the
target from below.  The orderings are not stated here: phi_f walks
``symbolic.paper_order(3)`` (``phi_f_ordering``) and phi_v the block
order of ``nicf_system.vertex_alphabet``.  The trace keeps the letter
sequence once, as its decisions (a letter and whether it was kept; every
kept set's dimension lies in [0, target]); ``achieved`` is a plain
``Interval``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import List, Optional, Sequence, Tuple, Union

from .exactnum import DivergentTailError, Interval, float_down, float_up
from .ledger import lemma_2_6_sides, phi_v_sides
from .nicf_system import LoopLetter, vertex_alphabet
from .pressure_dim import (
    WORD_BUDGET,
    DigitIfs,
    LoopIfs,
    _sign_verdict,
    as_system,
    dim_interval,
    partition_sum,
    pressure_bounds,
)
from .symbolic import AlphabetSelection, paper_order

DIRECT_COMPARISON = "use direct comparison"


@dataclass(frozen=True)
class MmeVerdict:
    letter: str
    passes: Optional[bool]          # None: not decidable by this criterion
    lhs: Optional[Interval]         # M_b upper family
    rhs: Optional[Interval]         # 2 * successor m-sum
    note: str = ""

    @property
    def margin(self) -> Optional[Interval]:
        if self.lhs is None or self.rhs is None:
            return None
        return self.rhs - self.lhs


_ESCALATION = (4, 8, 16, 32, 64, 128)  # tail term counts


def mme_check(b: Union[int, LoopLetter], system: str) -> MmeVerdict:
    """Certify M_b < 2 sum m_c over the successors of b, per the ordering.

    ``system`` is 'phi_f' (restricted digits, natural order; the sides
    are those of the digit-sum lemma, ``ledger.lemma_2_6_sides``) or
    'phi_v' (the induced vertex alphabet in block order; the sides are
    ``ledger.phi_v_sides``).  Letters +-3 of
    either system return the direct-comparison signal instead of a
    verdict.  Each step of ``_ESCALATION`` sets the tail terms; the first
    step whose sides separate strictly decides.
    """
    if system not in ("phi_f", "phi_v"):
        raise ValueError("system must be phi_f or phi_v")

    if isinstance(b, LoopLetter) and b.j == 0:
        b = b.sign * b.k

    if system == "phi_f":
        if not isinstance(b, int):
            raise ValueError("phi_f letters are plain digits")
        j, k = 0, abs(b)
        if k < 3:
            raise ValueError("constants defined on F")
        sides = partial(lemma_2_6_sides, k)
    else:
        j, k = (0, abs(b)) if isinstance(b, int) else (b.j, b.k)
        sides = partial(phi_v_sides, j, k)

    if j == 0 and k == 3:
        return MmeVerdict(str(b), None, None, None, DIRECT_COMPARISON)
    for terms in _ESCALATION:
        lhs, rhs = sides(terms)
        if lhs.hi < rhs.lo:
            return MmeVerdict(str(b), True, lhs, rhs)
        if lhs.lo > rhs.hi:
            return MmeVerdict(str(b), False, lhs, rhs)
    return MmeVerdict(str(b), None, lhs, rhs, "undecided at escalation cap")


# ---------------------------------------------------------------------------
# direct letter comparisons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    t: Fraction
    verdict: str        # "pass" | "indeterminate"
    method: str         # "divergence" | "z1-chain" | "pressure"
    lhs_hi: Optional[float] = None
    rhs_lo: Optional[float] = None


_DIRECT_DEPTH = 8  # depth cap of the pressure ladders in a direct comparison


def direct_lambda_comparison(f_small, f_large,
                             t_grid: Sequence[Fraction]) -> List[ComparisonRow]:
    """Certify lambda_{F_small}(t) <= lambda_{F_large}(t) per grid point.

    Auto-pass where the large side diverges (t at or below its finiteness
    exponent).  Against a cofinite digit tail with 1/2 < t <= 1 the chain
    lambda_small <= Z_1(small) and lambda_large >= Z_1(large) / K_large
    decides at depth one; otherwise pressure bounds over the depth ladders
    up to ``_DIRECT_DEPTH`` are compared.
    Past the large side's exponent only the small side can diverge
    (``DivergentTailError``); that t is reported indeterminate, with no
    bounds.
    """
    small = as_system(f_small)
    large = as_system(f_large)
    rows: List[ComparisonRow] = []
    for t_raw in t_grid:
        t = Fraction(t_raw)
        if t <= large.theta:
            rows.append(ComparisonRow(t, "pass", "divergence"))
            continue
        if small == large:
            rows.append(ComparisonRow(t, "pass", "pressure"))
            continue
        try:
            row = None
            if t <= 1:
                z1s = partition_sum(small, t, 1)
                rhs = partition_sum(large, t, 1) / large.k_interval()
                if z1s.hi <= rhs.lo:
                    row = ComparisonRow(t, "pass", "z1-chain",
                                        float_up(z1s.hi), float_down(rhs.lo))
            if row is None:
                row = _pressure_comparison(small, large, t)
        except DivergentTailError:
            row = ComparisonRow(t, "indeterminate", "pressure")
        rows.append(row)
    return rows


def _pressure_comparison(small, large, t) -> ComparisonRow:
    best_hi = min(pressure_bounds(small, t, n).hi
                  for n in small.ladder(_DIRECT_DEPTH, WORD_BUDGET))
    best_lo = max(pressure_bounds(large, t, n).lo
                  for n in large.ladder(_DIRECT_DEPTH, WORD_BUDGET))
    verdict = "pass" if best_hi <= best_lo else "indeterminate"
    return ComparisonRow(t, verdict, "pressure",
                         float_up(best_hi), float_down(best_lo))


# ---------------------------------------------------------------------------
# greedy construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decision:
    letter: str
    accepted: bool


@dataclass(frozen=True)
class SpectrumTrace:
    target: Fraction
    system: str
    depth: int                          # construct's depth cap
    decisions: Tuple[Decision, ...]     # one per letter of the ordering
    achieved: Interval                  # the final set's dimension

    @property
    def final_letters(self) -> Tuple[str, ...]:
        """The accepted letters, in the order they were decided."""
        return tuple(d.letter for d in self.decisions if d.accepted)

    def to_json_dict(self) -> dict:
        return {
            "target": float(self.target),
            "system": self.system,
            "ordering": [d.letter for d in self.decisions],
            "decisions": [
                {"letter": d.letter, "accepted": d.accepted,
                 "dim_lo": 0.0, "dim_hi": float_up(self.target)}
                for d in self.decisions
            ],
            "final_F": list(self.final_letters),
            "achieved": {
                "lo": float_down(self.achieved.lo),
                "hi": float_up(self.achieved.hi),
                "depth": self.depth,
            },
        }


def phi_f_ordering(budget: int) -> List[int]:
    """The first ``budget`` digits -3, 3, -4, 4, ... of the phi_f sweep."""
    return list(islice(paper_order(3), budget))


# 300,000 words would give 4- and 6-letter tentative sets one more, and the
# costliest, ladder depth (for 4 letters, 4**9 = 262,144 words)
_CONSTRUCT_WORD_BUDGET = 150_000
_ACHIEVED_TOL = Fraction(1, 100)


def construct(target, system: str, budget: int, depth: int) -> SpectrumTrace:
    """Greedy sweep over the ordering, keeping a letter only when the
    tentative set's dimension is certified <= target.

    Each letter is decided by one walk up the depth ladder at the target,
    which stops at the first depth certifying either sign of P(target).
    It is kept iff that walk certifies P(target) <= 0, which bounds the
    Bowen root by the target (P(target) = 0 exactly, as for the lone
    letter -3 at target 0, counts as <= 0); the per-step
    certified upper bound therefore never exceeds the target.  Budgeted
    truncation means the result is a finite digit set whose dimension
    approaches the target from below; nothing is claimed about the
    (asymptotic) attainment of the target itself.
    """
    target = Fraction(target)
    if not 0 <= target <= 1:
        raise ValueError("target must lie in [0, 1]")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if system not in ("phi_f", "phi_v"):
        raise ValueError("system must be phi_f or phi_v")

    if system == "phi_f":
        ordering: Sequence = phi_f_ordering(budget)

        def make(letters):
            return DigitIfs(AlphabetSelection.explicit(letters))
    else:
        ordering = vertex_alphabet(budget)

        def make(letters):
            return LoopIfs(tuple(letters))

    accepted: List = []
    decisions: List[Decision] = []
    for letter in ordering:
        tentative = accepted + [letter]
        ok = _sign_verdict(make(tentative), target, depth,
                           _CONSTRUCT_WORD_BUDGET) < 0
        if ok:
            accepted = tentative
        decisions.append(Decision(str(letter), ok))

    if accepted:
        achieved = dim_interval(make(accepted), depth, _ACHIEVED_TOL,
                                word_budget=_CONSTRUCT_WORD_BUDGET)
        # the final set is the last accepted tentative set, whose
        # P(target) <= 0 certificate already bounds its dimension by the target
        achieved = Interval(achieved.lo, min(achieved.hi, target))
    else:  # no letter certified: the empty set has dimension 0
        achieved = Interval.point(0)
    return SpectrumTrace(target, system, depth, tuple(decisions), achieved)
