"""Exact re-verification of the displayed case inequalities.

Every case is decided purely in rational/surd interval arithmetic (no
floating point anywhere on this path): a verdict "holds" requires the
upper end of the left side to sit strictly at or below the lower end of
the right side, "fails" the reverse, and anything undecided escalates
the tail term count and surd precision until it separates (all margins
here are bounded away from zero, so escalation terminates).

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
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .cf_core import Word
from .exactnum import Interval, surd_enclosure, tail_sum_enclosure
from .nicf_system import (
    HALF,
    alpha_interval,
    k4_corrected_interval,
    k4_printed_interval,
    k_prec4_interval,
    run_factor_interval,
)

_ESCALATION: Tuple[Tuple[int, int], ...] = (
    (0, 128), (2, 128), (4, 128), (8, 128), (16, 128),
    (32, 256), (64, 512), (128, 1024), (256, 2048), (512, 4096),
)

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
    margin: Interval
    sweep: Tuple[SweepRow, ...]
    notes: Tuple[str, ...] = ()

    def row_map(self, variant: str = "main") -> Dict[Tuple[int, ...], str]:
        out = {}
        for row in self.sweep:
            if row.variant == variant:
                out[tuple(sorted(row.params.items()))] = row.verdict
        return out


def _decide(sides: Callable[[int, int], Tuple[Interval, Interval]]
            ) -> Tuple[str, Interval, Interval]:
    """Escalate (terms, bits) until the comparison lhs <= rhs separates.

    ``sides(terms, bits)`` returns (lhs, rhs).  Not shared with
    ``spectrum.mme_check``: the ledger certifies the displayed non-strict
    lhs <= rhs and escalates further, while the letter-addition criterion
    needs the strict M_b < 2 sum m_c."""
    lhs = rhs = None
    for terms, bits in _ESCALATION:
        lhs, rhs = sides(terms, bits)
        if lhs.hi <= rhs.lo:
            return HOLDS, lhs, rhs
        if lhs.lo > rhs.hi:
            return FAILS, lhs, rhs
    raise ArithmeticError("comparison undecided at the escalation cap")


def _margin(lhs: Interval, rhs: Interval) -> Interval:
    return rhs - lhs


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def lemma_2_6_sides(k: int, terms: int, bits: int) -> Tuple[Interval, Interval]:
    """(9/4)(k - a)^-2 and (8/9) sum_{j>=k+1} (j + a)^-2, a = (3 - sqrt5)/2:
    the digit-sum lemma, which is also M_k < 2 sum m_c for phi_f."""
    a = alpha_interval(bits)
    return (Fraction(9, 4) * ((k - a) ** 2).reciprocal(),
            Fraction(8, 9) * tail_sum_enclosure(k + 1, a, 1, terms=terms))


def _case_lemma_2_6(k_max: int = 200) -> LedgerResult:
    rows: List[SweepRow] = []
    worst: Optional[Tuple[Interval, Interval]] = None
    any_reduced_fail = False
    for k in range(4, k_max + 1):
        v_full, lhs, rhs = _decide(partial(lemma_2_6_sides, k))
        v_red, lhs_r, rhs_r = _decide(lambda terms, bits: (
            Fraction(9, 4) * ((k - alpha_interval(bits)) ** 2).reciprocal(),
            Fraction(8, 9) * (k + 1 + alpha_interval(bits)).reciprocal()))
        if v_red == FAILS:
            any_reduced_fail = True
        row_verdict = v_full if v_full != HOLDS or v_red == HOLDS else EXACT_SUM_ONLY
        rows.append(SweepRow({"k": k}, row_verdict, _margin(lhs, rhs), "full"))
        rows.append(SweepRow({"k": k}, v_red, _margin(lhs_r, rhs_r), "reduced"))
        if v_full == HOLDS and (worst is None or _margin(lhs, rhs).lo < _margin(*worst).lo):
            worst = (lhs, rhs)
    full_all = all(r.verdict in (HOLDS, EXACT_SUM_ONLY) for r in rows if r.variant == "full")
    verdict = (EXACT_SUM_ONLY if full_all and any_reduced_fail
               else (HOLDS if full_all else FAILS))
    lhs, rhs = worst
    return LedgerResult(
        "lemma_2_6",
        "(9/4)(k - a)^-2 <= (8/9) sum_{j>=k+1} (j + a)^-2 for k >= 4, "
        "a = (3 - sqrt5)/2; 'reduced' rows check the one-term sufficient "
        "condition (9/4)(k - a)^-2 <= (8/9)(k + 1 + a)^-1",
        verdict, lhs, rhs, _margin(lhs, rhs), tuple(rows),
        notes=("the reduced sufficient condition fails at k = 4 and holds "
               "for k >= 5; the full-sum statement holds for every swept k",),
    )


def _case_j_gt_k(j_max: int = 200) -> LedgerResult:
    rows = []
    worst = None
    for j in range(1, j_max + 1):
        lhs = Interval.point(Fraction(50, 81) * (j + Fraction(3, 2)))
        rhs = Interval.point(Fraction(2) ** (2 * j + 1))
        verdict = HOLDS if lhs.hi <= rhs.lo else FAILS
        rows.append(SweepRow({"j": j}, verdict, _margin(lhs, rhs)))
        if j == 4:
            worst = (lhs, rhs)  # the smallest j inside the claim region j > k >= 3
    verdict = HOLDS if all(r.verdict == HOLDS for r in rows) else FAILS
    lhs, rhs = worst
    return LedgerResult(
        "case_j_gt_k",
        "(50/81)(j + 3/2) <= 2^(2j+1); needed for run letters with j > k >= 3",
        verdict, lhs, rhs, _margin(lhs, rhs), tuple(rows),
    )


def _case_j_le_k(k_max: int = 200) -> LedgerResult:
    rows = []
    prev = None
    monotone = True
    for k in range(3, k_max + 1):
        val = Fraction(625, 81) * (k + Fraction(5, 2)) / (k - HALF) ** 2
        if prev is not None and val >= prev:
            monotone = False
        prev = val
        lhs = Interval.point(val)
        rhs = Interval.point(Fraction(8))  # j = 1 is the binding exponent
        rows.append(SweepRow({"k": k, "j": 1},
                             HOLDS if lhs.hi <= rhs.lo else FAILS,
                             _margin(lhs, rhs)))
    for j in range(2, 13):
        lhs = Interval.point(Fraction(625, 81) * (3 + Fraction(5, 2)) / (3 - HALF) ** 2)
        rhs = Interval.point(Fraction(2) ** (2 * j + 1))
        rows.append(SweepRow({"k": 3, "j": j},
                             HOLDS if lhs.hi <= rhs.lo else FAILS,
                             _margin(lhs, rhs)))
    verdict = HOLDS if all(r.verdict == HOLDS for r in rows) and monotone else FAILS
    lhs = Interval.point(Fraction(625, 81) * Fraction(11, 2) / Fraction(25, 4))
    rhs = Interval.point(Fraction(8))
    notes = ("left side verified strictly decreasing in k over the sweep",)
    return LedgerResult(
        "case_j_le_k",
        "(25/9)^2 (k + 5/2)(k - 1/2)^-2 <= 2^(2j+1) for 1 <= j <= k, k >= 3",
        verdict, lhs, rhs, _margin(lhs, rhs), tuple(rows), notes)


def _case_esti(k_max: int = 200) -> LedgerResult:
    rows = []
    prev = None
    monotone = True
    for k in range(3, k_max + 1):
        val = Fraction(625, 81) * (k + Fraction(3, 2)) / (k - HALF) ** 2
        if prev is not None and val >= prev:
            monotone = False
        prev = val
        lhs = Interval.point(val)
        rhs = Interval.point(Fraction(2))
        rows.append(SweepRow({"k": k},
                             HOLDS if lhs.hi <= rhs.lo else FAILS,
                             _margin(lhs, rhs)))
    pattern_ok = all(
        (r.verdict == FAILS) == (r.params["k"] <= 5) for r in rows) and monotone
    lhs6 = Interval.point(Fraction(625, 81) * Fraction(15, 2) / Fraction(121, 4))
    rhs = Interval.point(Fraction(2))
    return LedgerResult(
        "case_esti",
        "(25/9)^2 (k + 3/2)(k - 1/2)^-2 <= 2; smallest k for which it holds is 6",
        HOLDS if pattern_ok else FAILS, lhs6, rhs, _margin(lhs6, rhs), tuple(rows),
        notes=("fails for k <= 5, holds for 6 <= k <= sweep end; left side "
               "strictly decreasing in k",),
    )


def _case_pm5(k_max: int = 200) -> LedgerResult:
    rows = []
    tight = None
    prev = None
    monotone = True
    for k in range(5, k_max + 1):
        val = Fraction(32, 9) * (k + Fraction(3, 2)) / (k - HALF) ** 2
        if prev is not None and val >= prev:
            monotone = False
        prev = val
        verdict, lhs, rhs = _decide(lambda terms, bits, v=val: (
            Interval.point(v), 1 + run_factor_interval(bits)))
        rows.append(SweepRow({"k": k}, verdict, _margin(lhs, rhs)))
        if k == 5:
            tight = (lhs, rhs)
    verdict = HOLDS if all(r.verdict == HOLDS for r in rows) and monotone else FAILS
    lhs, rhs = tight
    return LedgerResult(
        "case_pm5",
        "(25/18)(8/5)^2 (k + 3/2)(k - 1/2)^-2 <= "
        "1 + (1 + sqrt2)/(2 (3/2 + sqrt2)^2) for k >= 5",
        verdict, lhs, rhs, _margin(lhs, rhs), tuple(rows),
        notes=("tight at k = 5: the certified margin is below 2e-3",),
    )


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
    t = tail_sum_enclosure(cut, HALF, 1, terms=0)
    w_hi = Fraction(num[0] * cut + num[1], den[0] * cut + den[1]) ** 2
    w_lo = Fraction(num[0], den[0]) ** 2
    return Interval(lo + w_lo * t.lo, hi + w_hi * t.hi)


def _case_pm4() -> LedgerResult:
    def sides(norm, weights):
        def make(terms, bits):
            terms = max(terms, 64)
            a_sum = weighted_tail(5, weights[0], weights[1], terms)
            b_sum = Fraction(18, 25) * run_factor_interval(bits) * tail_sum_enclosure(
                3, HALF, 1, terms=terms)
            return k_prec4_interval(bits) * norm, 2 * a_sum + b_sum
        return make

    # derivation constants: M_4 = K_{prec 4} * ||phi_4'|| with weights (3l+5)/(5l+7)
    v_main, lhs, rhs_iv = _decide(sides(Fraction(4, 49), ((3, 5), (5, 7))))
    rows = [SweepRow({"k": 4}, v_main, _margin(lhs, rhs_iv), "main")]
    # printed final display: squared norm on the left, weights (3l+2)/(5l+2)
    v_printed, lhs_p, rhs_p = _decide(
        sides(Fraction(4, 49) ** 2, ((3, 2), (5, 2))))
    rows.append(SweepRow({"k": 4}, v_printed, _margin(lhs_p, rhs_p), "printed"))
    verdict = HOLDS if v_main == HOLDS else FAILS
    return LedgerResult(
        "case_pm4",
        "((7-sqrt5)/(1+sqrt5))^2 (4/49) <= 2 sum_{l>=5} ((3l+5)/(5l+7))^2 "
        "(l+1/2)^-2 + (18/25) g sum_{l>=3} (l+1/2)^-2, "
        "g = (1+sqrt2)/(2(3/2+sqrt2)^2)",
        verdict, lhs, rhs_iv, _margin(lhs, rhs_iv), tuple(rows),
        notes=(
            "the printed final display squares the norm factor (4/49) and "
            "uses weights (3l+2)/(5l+2); certified as the 'printed' variant, "
            "it also holds",
            "both variants are certified with integral-test tail enclosures "
            "for the l-sums",
        ),
    )


def _case_letter3() -> LedgerResult:
    rhs_iv = Interval.point(Fraction(25, 49))
    v_printed, lhs_p, _ = _decide(lambda terms, bits: (
        Fraction(2, 7) * k4_printed_interval(bits), rhs_iv))
    v_corr, lhs_c, _ = _decide(lambda terms, bits: (
        Fraction(2, 7) * k4_corrected_interval(bits), rhs_iv))
    rows = (
        SweepRow({}, v_printed, _margin(lhs_p, rhs_iv), "printed"),
        SweepRow({}, v_corr, _margin(lhs_c, rhs_iv), "corrected"),
    )
    verdict = HOLDS if v_printed == HOLDS and v_corr == HOLDS else FAILS
    return LedgerResult(
        "case_letter3",
        "(5/7)^2 >= (2/7) K_4 with K_4 = ((4-sqrt3)/(1+sqrt3))^2 as printed; "
        "the 'corrected' variant uses ((4-sqrt3)/sqrt3)^2, the value the "
        "derivation of the distortion constant actually yields",
        verdict, lhs_c, rhs_iv, _margin(lhs_c, rhs_iv), rows,
        notes=("the printed simplification is below 1 and so cannot be a "
               "distortion constant; the chain holds with either value",),
    )


def _case_q_growth(r_max: int = 200) -> LedgerResult:
    bits = 192
    s2 = surd_enclosure(2, bits)
    one_plus = 1 + s2
    factor = Fraction(3, 2) + s2
    rows = []
    tight = None
    q_prev, q = 0, 1  # q_-1, q_0 for the empty run
    pw = Interval.point(1)  # (1 + sqrt2)**r
    for r in range(1, r_max + 1):
        q_prev, q = q, 2 * q + q_prev
        pw = pw * one_plus
        upper_ok = Fraction(q) <= pw.lo
        lower_ok = 1 <= q
        inf_rhs = factor * (pw / one_plus)  # (3/2 + sqrt2)(1 + sqrt2)**(r-1)
        inf_ok = q + Fraction(q_prev, 2) <= inf_rhs.lo
        verdict = HOLDS if (upper_ok and lower_ok and inf_ok) else FAILS
        margin = Interval(inf_rhs.lo - (q + Fraction(q_prev, 2)),
                          inf_rhs.hi - (q + Fraction(q_prev, 2)))
        rows.append(SweepRow({"r": r}, verdict, margin))
        if r == 1:
            tight = (Interval.point(q + Fraction(q_prev, 2)), inf_rhs)
    verdict = HOLDS if all(r.verdict == HOLDS for r in rows) else FAILS
    lhs, rhs = tight
    return LedgerResult(
        "q_growth",
        "for the run word 2^r: 1 <= q_n <= (1+sqrt2)^n, and "
        "q_r + q_(r-1)/2 <= (3/2+sqrt2)(1+sqrt2)^(r-1), so "
        "inf |phi'| >= [(3/2+sqrt2)(1+sqrt2)^(r-1)]^-2",
        verdict, lhs, rhs, _margin(lhs, rhs), tuple(rows),
    )


def _case_lem_2s(k_max: int = 200) -> LedgerResult:
    rows = []
    tight = None
    for k in range(1, k_max + 1):
        for sign in (1, -1):
            digits = [3 * sign] + [2 * sign] * k + [3 * sign]
            w = Word(digits)
            ratio = w.q_ratio()
            bound = Fraction(k + 2, 2 * k + 5)
            verdict = HOLDS if ratio <= bound else FAILS
            rows.append(SweepRow({"k": k, "sign": sign}, verdict,
                                 Interval.point(bound - ratio)))
            if k == 1 and sign == 1:
                tight = (Interval.point(ratio), Interval.point(bound))
    verdict = HOLDS if all(r.verdict == HOLDS for r in rows) else FAILS
    lhs, rhs = tight
    return LedgerResult(
        "lem_2s_table",
        "words ... m 2^k m' with |m|, |m'| >= 3 have |q_(n-1)/q_n| <= "
        "(k+2)/(2k+5); checked on the canonical two-sided family",
        verdict, lhs, rhs, _margin(lhs, rhs), tuple(rows),
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
