"""Exact re-verification of the displayed case inequalities.

Every case is decided purely in rational/surd interval arithmetic (no
floating point anywhere on this path): a verdict "holds" requires the
upper end of the left side to sit strictly at or below the lower end of
the right side, "fails" the reverse.  Sides with an l-sum escalate its
tail term count until they separate (all margins here are bounded away
from zero); other overlapping sides raise.  The surds are fixed once, at
``nicf_system.SURD_BITS``.

This module is the one home of each inequality's sides: the letter
constants of ``spectrum.mme_check`` are ``lemma_2_6_sides`` (phi_f) and
``phi_v_sides`` (phi_v), whose l-sums are ``plain_tail`` and
``weighted_tail``; ``mme_check`` only picks the sides and escalates.
``letter_constants(b)`` reads each M_b off those left sides and adds
the m_b of the bracket m_b ||phi'_{ww'}|| <= ||phi'_{wbw'}|| <= M_b ||phi'_{ww'}||.

Where a displayed constant disagrees with its own derivation, the case
records both variants instead of guessing: the reduced sufficient
condition of the digit-sum lemma fails at k = 4 while the lemma itself
holds; the run-weight sum appears with two different weight fractions;
and the distortion constant for digits of size >= 4 is printed in a
simplified form whose value is below 1 (the derivation's value is
((4 - sqrt3)/sqrt3)**2).  Verdicts certify the derivation-consistent
statements; the printed variants are certified alongside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .cf_core import Word
from .exactnum import Interval, surd_enclosure, tail_sum_enclosure
from .nicf_system import (
    HALF,
    K_GLOBAL,
    K_PREC5,
    SURD_BITS,
    LoopLetter,
    alpha_interval,
    k4_corrected_interval,
    k4_printed_interval,
    k_prec4_interval,
    run_factor_interval,
)

_ESCALATION = (0, 2, 4, 8, 16, 32, 64, 128, 256, 512)  # tail term counts

# the last k, j or r of every swept case
_SWEEP_END = 200

HOLDS = "holds"
FAILS = "fails"
EXACT_SUM_ONLY = "holds-with-exact-sum-only"


@dataclass(frozen=True)
class SweepRow:
    params: Mapping[str, int]
    verdict: str
    margin: Interval          # rhs - lhs at the deciding precision
    variant: str = "main"


@dataclass(frozen=True)
class LedgerResult:
    case_id: str
    statement: str
    verdict: str
    lhs: Interval             # the tightest decided instance
    rhs: Interval
    sweep: Tuple[SweepRow, ...]
    notes: Tuple[str, ...] = ()

    @property
    def margin(self) -> Interval:
        return self.rhs - self.lhs

    def row_map(self, variant: str = "main") -> Dict[Tuple[int, ...], str]:
        out = {}
        for row in self.sweep:
            if row.variant == variant:
                out[tuple(sorted(row.params.items()))] = row.verdict
        return out


def _verdict(lhs: Interval, rhs: Interval) -> Optional[str]:
    """HOLDS if lhs.hi <= rhs.lo, FAILS if lhs.lo > rhs.hi, else None."""
    return HOLDS if lhs.hi <= rhs.lo else (FAILS if lhs.lo > rhs.hi else None)


def _decide(sides: Callable[[int], Tuple[Interval, Interval]]
            ) -> Tuple[str, Interval, Interval]:
    """Escalate the tail terms until the comparison lhs <= rhs separates.

    ``sides(terms)`` returns (lhs, rhs).  Not shared with
    ``spectrum.mme_check``: the ledger certifies the displayed non-strict
    lhs <= rhs and escalates further, while the letter-addition criterion
    needs the strict M_b < 2 sum m_c."""
    for terms in _ESCALATION:
        lhs, rhs = sides(terms)
        if verdict := _verdict(lhs, rhs):
            return verdict, lhs, rhs
    raise ArithmeticError("comparison undecided at the escalation cap")


def _row(params: Mapping[str, int], lhs: Interval, rhs: Interval,
         variant: str = "main") -> SweepRow:
    """The row of one instance of lhs <= rhs: it holds iff lhs.hi <= rhs.lo
    and fails iff lhs.lo > rhs.hi; overlapping sides raise."""
    verdict = _verdict(lhs, rhs)
    if verdict is None:
        raise ArithmeticError("comparison undecided: the sides overlap")
    return SweepRow(params, verdict, rhs - lhs, variant)


def _decreasing(values: Sequence[Fraction]) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _all_hold(rows: Iterable[SweepRow]) -> bool:
    return all(r.verdict == HOLDS for r in rows)


# ---------------------------------------------------------------------------
# inequality sides
# ---------------------------------------------------------------------------

def plain_tail(m: int, terms: int) -> Interval:
    """sum_{l >= m} (l + 1/2)**-2, the first ``terms`` terms exact."""
    return tail_sum_enclosure(m, HALF, 1, terms=terms)


def weighted_tail(m: int, num: Tuple[int, int], den: Tuple[int, int],
                  terms: int) -> Interval:
    """sum_{l >= m} ((num0*l + num1)/(den0*l + den1))**2 (l + 1/2)**-2 with a
    weight decreasing toward (num0/den0)**2."""
    lo = Fraction(0)
    hi = Fraction(0)
    for l in range(m, m + terms):
        w = Fraction(num[0] * l + num[1], den[0] * l + den[1]) ** 2 / (l + HALF) ** 2
        lo += w
        hi += w
    cut = m + terms
    t = plain_tail(cut, 0)
    w_hi = Fraction(num[0] * cut + num[1], den[0] * cut + den[1]) ** 2
    w_lo = Fraction(num[0], den[0]) ** 2
    return Interval(lo + w_lo * t.lo, hi + w_hi * t.hi)


def lemma_2_6_sides(k: int, terms: int) -> Tuple[Interval, Interval]:
    """(9/4)(k - a)^-2 and (8/9) sum_{j>=k+1} (j + a)^-2, a = (3 - sqrt5)/2:
    the digit-sum lemma, which is also M_k < 2 sum m_c for phi_f."""
    a = alpha_interval()
    return (Fraction(9, 4) * ((k - a) ** 2).reciprocal(),
            Fraction(8, 9) * tail_sum_enclosure(k + 1, a, 1, terms=terms))


def phi_v_sides(j: int, k: int, terms: int) -> Tuple[Interval, Interval]:
    """M_b and 2 * the successor m-sum for the phi_v loop letter b = 2^j k
    (either sign; j = 0 is the plain digit k >= 4)."""
    if j > 0 or k >= 6:
        # b precedes +-l from l = j+1 (j > k), k+2 (1 <= j <= k) or k+1 (j = 0)
        first = j + 1 if j > k else (k + 2 if j else k + 1)
        return (Interval.point(K_GLOBAL * Fraction(1, 4) ** j / (k - HALF) ** 2),
                Fraction(18, 25) * plain_tail(first, terms))
    g = run_factor_interval()
    if k == 5:
        # sharper distortion over the preceding letters, and the run
        # letters 2^r l with l >= 6 join the successor sum
        return (Interval.point(K_PREC5 / (k - HALF) ** 2),
                Fraction(18, 25) * (1 + g) * plain_tail(6, terms))
    if k != 4:
        raise ValueError("phi_v letter constants need k >= 4 when j = 0")
    # M_4 = K_{prec 4} * ||phi_4'||, the run weights (3l+5)/(5l+7)
    return (k_prec4_interval() * Fraction(4, 49),
            2 * weighted_tail(5, (3, 5), (5, 7), terms)
            + Fraction(18, 25) * g * plain_tail(3, terms))


def letter_constants(b: Union[int, LoopLetter]) -> Tuple[Interval, Interval]:
    """(m_b, M_b) for a plain digit |b| >= 3 or a loop letter (j = 0 is the
    digit).  M_b is the left side of ``lemma_2_6_sides`` (digits) or of
    ``phi_v_sides`` (run letters, j >= 1); m_b is stated only here:
        digits:       m_b = ((2/3) / (|b| + alpha))**2,
        run letters:  m_b = K**-1 ((3/2 + sqrt2)(1 + sqrt2)**(j-1))**-2 (k + 1/2)**-2.
    """
    if isinstance(b, LoopLetter) and b.j == 0:
        b = b.sign * b.k
    if isinstance(b, int):
        if abs(b) < 3:
            raise ValueError("constants defined on F")
        small = (Fraction(2, 3) / (abs(b) + alpha_interval())) ** 2
        return small, lemma_2_6_sides(abs(b), 0)[0]
    s2 = surd_enclosure(2, SURD_BITS)
    growth = (Fraction(3, 2) + s2) * (1 + s2) ** (b.j - 1)
    small = (growth ** 2 * K_GLOBAL).reciprocal() / (b.k + HALF) ** 2
    return small, phi_v_sides(b.j, b.k, 0)[0]


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def _case_lemma_2_6() -> LedgerResult:
    rows: List[SweepRow] = []
    held: List[Tuple[Interval, Interval]] = []
    any_reduced_fail = False
    a = alpha_interval()
    for k in range(4, _SWEEP_END + 1):
        v_full, lhs, rhs = _decide(partial(lemma_2_6_sides, k))
        reduced = _row({"k": k}, lhs, Fraction(8, 9) * (k + 1 + a).reciprocal(),
                       "reduced")
        if reduced.verdict == FAILS:
            any_reduced_fail = True
        row_verdict = (v_full if v_full != HOLDS or reduced.verdict == HOLDS
                       else EXACT_SUM_ONLY)
        rows.append(SweepRow({"k": k}, row_verdict, rhs - lhs, "full"))
        rows.append(reduced)
        if v_full == HOLDS:
            held.append((lhs, rhs))
    full_all = all(r.verdict in (HOLDS, EXACT_SUM_ONLY) for r in rows if r.variant == "full")
    verdict = (EXACT_SUM_ONLY if full_all and any_reduced_fail
               else (HOLDS if full_all else FAILS))
    lhs, rhs = min(held, key=lambda sides: (sides[1] - sides[0]).lo)
    return LedgerResult(
        "lemma_2_6",
        "(9/4)(k - a)^-2 <= (8/9) sum_{j>=k+1} (j + a)^-2 for k >= 4, "
        "a = (3 - sqrt5)/2; 'reduced' rows check the one-term sufficient "
        "condition (9/4)(k - a)^-2 <= (8/9)(k + 1 + a)^-1",
        verdict, lhs, rhs, tuple(rows),
        notes=("the reduced sufficient condition fails at k = 4 and holds "
               "for k >= 5; the full-sum statement holds for every swept k",),
    )


def _case_j_gt_k() -> LedgerResult:
    def sides(j):
        return (Interval.point(Fraction(50, 81) * (j + Fraction(3, 2))),
                Interval.point(Fraction(2) ** (2 * j + 1)))

    rows = [_row({"j": j}, *sides(j)) for j in range(1, _SWEEP_END + 1)]
    lhs, rhs = sides(4)  # the smallest j inside the claim region j > k >= 3
    return LedgerResult(
        "case_j_gt_k",
        "(50/81)(j + 3/2) <= 2^(2j+1); needed for run letters with j > k >= 3",
        HOLDS if _all_hold(rows) else FAILS, lhs, rhs, tuple(rows),
    )


def _case_j_le_k() -> LedgerResult:
    ks = range(3, _SWEEP_END + 1)
    vals = [Fraction(625, 81) * (k + Fraction(5, 2)) / (k - HALF) ** 2 for k in ks]
    lhs = Interval.point(vals[0])  # k = 3
    rhs = Interval.point(Fraction(8))  # j = 1 is the binding exponent
    rows = [_row({"k": k, "j": 1}, Interval.point(v), rhs) for k, v in zip(ks, vals)]
    rows += [_row({"k": 3, "j": j}, lhs, Interval.point(Fraction(2) ** (2 * j + 1)))
             for j in range(2, 13)]
    verdict = HOLDS if _all_hold(rows) and _decreasing(vals) else FAILS
    notes = ("left side verified strictly decreasing in k over the sweep",)
    return LedgerResult(
        "case_j_le_k",
        "(25/9)^2 (k + 5/2)(k - 1/2)^-2 <= 2^(2j+1) for 1 <= j <= k, k >= 3",
        verdict, lhs, rhs, tuple(rows), notes)


def _case_esti() -> LedgerResult:
    ks = range(3, _SWEEP_END + 1)
    vals = [Fraction(625, 81) * (k + Fraction(3, 2)) / (k - HALF) ** 2 for k in ks]
    rhs = Interval.point(Fraction(2))
    rows = [_row({"k": k}, Interval.point(v), rhs) for k, v in zip(ks, vals)]
    pattern_ok = all(
        (r.verdict == FAILS) == (r.params["k"] <= 5) for r in rows) and _decreasing(vals)
    lhs6 = Interval.point(vals[6 - 3])  # k = 6
    return LedgerResult(
        "case_esti",
        "(25/9)^2 (k + 3/2)(k - 1/2)^-2 <= 2; smallest k for which it holds is 6",
        HOLDS if pattern_ok else FAILS, lhs6, rhs, tuple(rows),
        notes=("fails for k <= 5, holds for 6 <= k <= sweep end; left side "
               "strictly decreasing in k",),
    )


def _case_pm5() -> LedgerResult:
    ks = range(5, _SWEEP_END + 1)
    vals = [Fraction(32, 9) * (k + Fraction(3, 2)) / (k - HALF) ** 2 for k in ks]
    rhs = 1 + run_factor_interval()
    rows = [_row({"k": k}, Interval.point(v), rhs) for k, v in zip(ks, vals)]
    lhs = Interval.point(vals[0])  # k = 5
    return LedgerResult(
        "case_pm5",
        "(25/18)(8/5)^2 (k + 3/2)(k - 1/2)^-2 <= "
        "1 + (1 + sqrt2)/(2 (3/2 + sqrt2)^2) for k >= 5",
        HOLDS if _all_hold(rows) and _decreasing(vals) else FAILS,
        lhs, rhs, tuple(rows),
        notes=("tight at k = 5: the certified margin is below 2e-3",),
    )


def _case_pm4() -> LedgerResult:
    def printed(terms):
        # the printed final display: squared norm on the left, weights
        # (3l+2)/(5l+2)
        terms = max(terms, 64)
        return (k_prec4_interval() * Fraction(4, 49) ** 2,
                2 * weighted_tail(5, (3, 2), (5, 2), terms)
                + Fraction(18, 25) * run_factor_interval() * plain_tail(3, terms))

    # derivation constants: the phi_v letter constants of the digit 4
    v_main, lhs, rhs = _decide(lambda terms: phi_v_sides(0, 4, max(terms, 64)))
    rows = (_row({"k": 4}, lhs, rhs), _row({"k": 4}, *_decide(printed)[1:], "printed"))
    return LedgerResult(
        "case_pm4",
        "((7-sqrt5)/(1+sqrt5))^2 (4/49) <= 2 sum_{l>=5} ((3l+5)/(5l+7))^2 "
        "(l+1/2)^-2 + (18/25) g sum_{l>=3} (l+1/2)^-2, "
        "g = (1+sqrt2)/(2(3/2+sqrt2)^2)",
        v_main, lhs, rhs, rows,
        notes=(
            "the printed final display squares the norm factor (4/49) and "
            "uses weights (3l+2)/(5l+2); certified as the 'printed' variant, "
            "it also holds",
            "both variants are certified with integral-test tail enclosures "
            "for the l-sums",
        ),
    )


def _case_letter3() -> LedgerResult:
    rhs = Interval.point(Fraction(25, 49))
    lhs_c = Fraction(2, 7) * k4_corrected_interval()
    rows = (_row({}, Fraction(2, 7) * k4_printed_interval(), rhs, "printed"),
            _row({}, lhs_c, rhs, "corrected"))
    return LedgerResult(
        "case_letter3",
        "(5/7)^2 >= (2/7) K_4 with K_4 = ((4-sqrt3)/(1+sqrt3))^2 as printed; "
        "the 'corrected' variant uses ((4-sqrt3)/sqrt3)^2, the value the "
        "derivation of the distortion constant actually yields",
        HOLDS if _all_hold(rows) else FAILS, lhs_c, rhs, rows,
        notes=("the printed simplification is below 1 and so cannot be a "
               "distortion constant; the chain holds with either value",),
    )


def _case_q_growth() -> LedgerResult:
    s2 = surd_enclosure(2, 192)
    q = Word([2] * _SWEEP_END).q  # q_r of the run word 2^r, r = 0..200
    rows = []
    growth = True  # 1 <= q_r <= (1 + sqrt2)**r for every r
    pw = Interval.point(1)  # (1 + sqrt2)**r
    for r in range(1, _SWEEP_END + 1):
        pw = pw * (1 + s2)
        growth = growth and 1 <= q[r] <= pw.lo
        lhs = Interval.point(q[r] + Fraction(q[r - 1], 2))
        rhs = (Fraction(3, 2) + s2) * (pw / (1 + s2))  # (3/2 + sqrt2)(1 + sqrt2)**(r-1)
        rows.append(_row({"r": r}, lhs, rhs))
        if r == 1:
            tight = (lhs, rhs)
    lhs, rhs = tight
    return LedgerResult(
        "q_growth",
        "for the run word 2^r: 1 <= q_n <= (1+sqrt2)^n, and "
        "q_r + q_(r-1)/2 <= (3/2+sqrt2)(1+sqrt2)^(r-1), so "
        "inf |phi'| >= [(3/2+sqrt2)(1+sqrt2)^(r-1)]^-2",
        HOLDS if growth and _all_hold(rows) else FAILS, lhs, rhs, tuple(rows),
    )


def _case_lem_2s() -> LedgerResult:
    rows = []
    tight = None
    for k in range(1, _SWEEP_END + 1):
        for sign in (1, -1):
            w = Word([3 * sign] + [2 * sign] * k + [3 * sign])
            lhs = Interval.point(w.q_ratio())
            rhs = Interval.point(Fraction(k + 2, 2 * k + 5))
            rows.append(_row({"k": k, "sign": sign}, lhs, rhs))
            if k == 1 and sign == 1:
                tight = (lhs, rhs)
    lhs, rhs = tight
    return LedgerResult(
        "lem_2s_table",
        "words ... m 2^k m' with |m|, |m'| >= 3 have |q_(n-1)/q_n| <= "
        "(k+2)/(2k+5); checked on the canonical two-sided family",
        HOLDS if _all_hold(rows) else FAILS, lhs, rhs, tuple(rows),
    )


_CASES: Dict[str, Callable[[], LedgerResult]] = {
    "lemma_2_6": _case_lemma_2_6,
    "case_j_gt_k": _case_j_gt_k,
    "case_j_le_k": _case_j_le_k,
    "case_esti": _case_esti,
    "case_pm5": _case_pm5,
    "case_pm4": _case_pm4,
    "case_letter3": _case_letter3,
    "q_growth": _case_q_growth,
    "lem_2s_table": _case_lem_2s,
}


def case_ids() -> Tuple[str, ...]:
    return tuple(_CASES)


def run_case(case_id: str) -> LedgerResult:
    if case_id not in _CASES:
        raise ValueError(
            f"unknown case {case_id!r}; valid ids: {', '.join(_CASES)}")
    return _CASES[case_id]()


def run_all() -> List[LedgerResult]:
    return [run_case(cid) for cid in _CASES]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_table(results: Sequence[LedgerResult]) -> str:
    header = f"{'case':<14} {'verdict':<28} {'margin >=':>14} {'rows':>6}"
    lines = [header, "-" * len(header)]
    for res in results:
        lines.append(
            f"{res.case_id:<14} {res.verdict:<28} "
            f"{float(res.margin.lo):>14.6g} {len(res.sweep):>6d}")
    return "\n".join(lines)


def results_to_json(results: Sequence[LedgerResult]) -> str:
    payload = []
    for res in results:
        payload.append({
            "case": res.case_id,
            "statement": res.statement,
            "verdict": res.verdict,
            "lhs": [float(res.lhs.lo), float(res.lhs.hi)],
            "rhs": [float(res.rhs.lo), float(res.rhs.hi)],
            "margin": [float(res.margin.lo), float(res.margin.hi)],
            "notes": list(res.notes),
            "sweep": [
                {"params": dict(row.params), "verdict": row.verdict,
                 "variant": row.variant,
                 "margin": [float(row.margin.lo), float(row.margin.hi)]}
                for row in res.sweep
            ],
        })
    return json.dumps(payload, indent=2)
