"""Answer checks, run after the timed passes.

``check_batch`` returns, per job id, a ``Verdict``: the problems found
(any problem makes the job a failed job), findings (valid answers that
are looser than they need be), the certified bits of the job's primary
enclosure (None when it has none), and whether the job ended
uncertified.  The expected ledger and ``mme_check`` verdicts are those
``tests/test_acceptance.py`` and ``tests/test_ledger.py`` pin.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

import oracle
from workloads import DIM_TOL

DOCUMENTED_DIM_CODES = (0, 3)   # success, indeterminate certification
ACHIEVED_TOL = 0.01             # spectrum.construct's default achieved_tol
FLOAT_EPS = 1e-12

PINNED_LEDGER = {
    "lemma_2_6": "holds-with-exact-sum-only",
    "case_j_gt_k": "holds",
    "case_j_le_k": "holds",
    "case_esti": "holds",
    "case_pm5": "holds",
    "case_pm4": "holds",
    "case_letter3": "holds",
    "q_growth": "holds",
    "lem_2s_table": "holds",
}


@dataclass
class Verdict:
    problems: List[str] = field(default_factory=list)
    findings: List[str] = field(default_factory=list)
    bits: Optional[float] = None
    uncertified: bool = False


def _bits(width: float) -> Optional[float]:
    """-log2 of a positive enclosure width; None for an exact point."""
    return -math.log2(width) if width > 0 else None


def _slack(err: float) -> float:
    """Allowance around the oracle: it is not rigorous, so four times its
    own two-grid error estimate."""
    return 4.0 * err + 1e-9


def _parse(res, v: Verdict):
    if res["error"]:
        v.problems.append(f"raised {res['error']}")
        return None
    try:
        return json.loads(res["output"]["stdout"])
    except ValueError:
        v.problems.append("stdout is not JSON")
        return None


def _check_dim(jobs, results) -> Dict[str, Verdict]:
    out: Dict[str, Verdict] = {}
    by_alphabet: Dict[str, list] = {}
    estimates: Dict[str, tuple] = {}
    for job in jobs:
        meta = job["meta"]
        v = out[job["id"]] = Verdict()
        res = results[job["id"]]
        rc = res["output"]["rc"]
        if rc not in DOCUMENTED_DIM_CODES:
            v.problems.append(f"exit code {rc}")
        got = _parse(res, v)
        if got is None:
            continue
        lo, hi = got["lo"], got["hi"]
        if not lo <= hi or got["depth"] != meta["depth"]:
            v.problems.append(f"malformed interval {got}")
            continue
        width = hi - lo
        if (rc == 0) != (width <= float(DIM_TOL) + FLOAT_EPS):
            v.problems.append(f"exit code {rc} disagrees with width {width}")
        v.uncertified = rc == 3
        v.bits = _bits(width)
        cof = meta["cofinite"]
        # a cofinite set's dimension depends only on its lower bound
        oracle_key = ("absmin", cof[0]) if cof else tuple(meta["letters"])
        if oracle_key not in estimates:
            estimates[oracle_key] = oracle.estimate(meta["letters"], cof and tuple(cof))
        est, err = estimates[oracle_key]
        key = meta["alphabet"]
        if not lo - _slack(err) <= est <= hi + _slack(err):
            v.problems.append(f"[{lo}, {hi}] misses the oracle {est} (+-{err:.1e})")
        by_alphabet.setdefault(key, []).append((job["id"], lo, hi))
    for key, rows in by_alphabet.items():
        if max(r[1] for r in rows) > min(r[2] for r in rows):
            for job_id, *_ in rows:
                out[job_id].problems.append(f"depths disagree for {key}: {rows}")
    return out


def _check_spectrum(jobs, results) -> Dict[str, Verdict]:
    out: Dict[str, Verdict] = {}
    for job in jobs:
        v = out[job["id"]] = Verdict()
        res = results[job["id"]]
        if res["output"]["rc"] != 0:
            v.problems.append(f"exit code {res['output']['rc']}")
        got = _parse(res, v)
        if got is None:
            continue
        target = float(Fraction(job["meta"]["target"]))
        for d in got["decisions"]:
            if d["dim_hi"] > target + FLOAT_EPS:
                v.problems.append(f"step {d['letter']} hi {d['dim_hi']} > target")
        ach = got["achieved"]
        lo, hi = ach["lo"], ach["hi"]
        if not lo <= hi or lo > target + FLOAT_EPS:
            v.problems.append(f"achieved [{lo}, {hi}] inconsistent with target {target}")
            continue
        if hi > target + FLOAT_EPS:
            # the final set is certified to have dimension <= target (every
            # accepted step proved P(target) <= 0, and the oracle check below
            # confirms it); dim_interval's bisection does not clip its upper
            # end at the target, so the interval is valid but looser
            v.findings.append(f"achieved hi {hi} > target {target}")
        v.bits = _bits(hi - lo)
        v.uncertified = hi - lo > ACHIEVED_TOL
        if job["meta"]["system"] == "phi_f":
            letters = [int(x) for x in got["final_F"]]
            est, err = oracle.estimate(letters)
            if not lo - _slack(err) <= est <= hi + _slack(err):
                v.problems.append(f"achieved [{lo}, {hi}] misses the oracle {est}")
            if est > target + _slack(err):
                v.problems.append(f"oracle {est} above the accepted target {target}")
    return out


def _ledger_bits(widths) -> Optional[float]:
    """Median certified bits over a job's margin enclosures; exact points
    (width 0) have no finite bit count and are left out."""
    bits = [_bits(w) for w in widths if w > 0]
    return statistics.median(bits) if bits else None


def _check_ledger_all(res) -> Verdict:
    v = Verdict()
    if res["output"]["rc"] != 0:
        v.problems.append(f"exit code {res['output']['rc']}")
    got = _parse(res, v)
    if got is None:
        return v
    cases = {c["case"]: c for c in got}
    for case, verdict in PINNED_LEDGER.items():
        if case not in cases or cases[case]["verdict"] != verdict:
            v.problems.append(f"{case}: expected {verdict}")
    if v.problems:
        return v

    def rows(case, variant=None):
        return {tuple(sorted(r["params"].items())): r
                for r in cases[case]["sweep"]
                if variant is None or r["variant"] == variant}

    esti = rows("case_esti")
    if esti[(("k", 5),)]["verdict"] != "fails" or any(
            esti[(("k", k),)]["verdict"] != "holds" for k in range(6, 201)):
        v.problems.append("case_esti sweep differs from the pinned pattern")
    full, red = rows("lemma_2_6", "full"), rows("lemma_2_6", "reduced")
    if any(full[(("k", k),)]["verdict"] not in ("holds", "holds-with-exact-sum-only")
           for k in range(4, 201)):
        v.problems.append("lemma_2_6 full sweep does not hold throughout")
    if red[(("k", 4),)]["verdict"] != "fails" or any(
            red[(("k", k),)]["verdict"] != "holds" for k in range(5, 201)):
        v.problems.append("lemma_2_6 reduced sweep differs from the pinned pattern")
    m5 = rows("case_pm5")[(("k", 5),)]["margin"]
    if not (0 < m5[0] and m5[1] < 2e-3 and m5[1] - m5[0] <= 1e-6):
        v.problems.append(f"case_pm5 margin at k=5 is {m5}")
    for case in ("case_j_gt_k", "case_j_le_k", "q_growth", "lem_2s_table"):
        if any(r["verdict"] != "holds" for r in cases[case]["sweep"]):
            v.problems.append(f"{case}: a sweep row does not hold")
    for case, variants in (("case_pm4", ("main", "printed")),
                           ("case_letter3", ("printed", "corrected"))):
        got_v = {r["variant"]: r["verdict"] for r in cases[case]["sweep"]}
        if any(got_v.get(name) != "holds" for name in variants):
            v.problems.append(f"{case} variants {got_v}")
    v.bits = _ledger_bits([c["margin"][1] - c["margin"][0] for c in got])
    return v


def _check_mme(res) -> Verdict:
    v = Verdict()
    got = _parse(res, v)
    if got is None:
        return v
    widths = []
    for row in got:
        if row["passes"] is not True:
            v.problems.append(f"mme_check({row['letter']}) gave {row['passes']}")
        if row["margin"] is not None:
            lo, hi = (Fraction(x) for x in row["margin"])
            widths.append(float(hi - lo))
    v.bits = _ledger_bits(widths)
    return v


def _check_direct(res) -> Verdict:
    v = Verdict()
    got = _parse(res, v)
    if got is None:
        return v
    for row in got:
        want = "z1-chain" if Fraction(row["t"]) > Fraction(1, 2) else "divergence"
        if row["verdict"] != "pass" or row["method"] != want:
            v.problems.append(f"t={row['t']}: {row['verdict']} by {row['method']}")
    return v


def _check_ledger(jobs, results) -> Dict[str, Verdict]:
    out = {}
    for job in jobs:
        res = results[job["id"]]
        if job["kind"] == "cli":
            out[job["id"]] = _check_ledger_all(res)
        elif job["kind"] == "mme":
            out[job["id"]] = _check_mme(res)
        else:
            out[job["id"]] = _check_direct(res)
    return out


CHECKS = {
    "dim-sweep": _check_dim,
    "spectrum-greedy": _check_spectrum,
    "ledger-exact": _check_ledger,
}


def check_batch(workload: str, jobs, results) -> Dict[str, Verdict]:
    """Check one full pass; ``results`` maps job id to the worker result."""
    return CHECKS[workload](jobs, results)
