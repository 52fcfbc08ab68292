"""Acceptance criteria, one test per criterion, with timing limits.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Every tolerance is pinned here; nothing is deferred.
"""

import json
import math
import random
import time
from fractions import Fraction as F

from nicfdim.cf_core import Word, evaluate, nicf_digits, rcf_digits, singularize
from nicfdim.cli import main as cli_main
from nicfdim.ledger import run_case
from nicfdim.nicf_system import (
    K_GLOBAL,
    alpha_interval,
    distortion_constant,
    g_ratio,
    vertex_alphabet,
)
from nicfdim.pressure_dim import (
    DigitIfs,
    SimilarityIfs,
    appendix_example,
    dim_interval,
)
from nicfdim.spectrum import construct, direct_lambda_comparison, mme_check
from nicfdim.symbolic import AlphabetSelection, first_return_loops


def _report(num: int, desc: str, t0: float, limit: float):
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:>2}: PASS  {desc}  ({elapsed:.2f} s / limit {limit:.0f} s)")
    assert elapsed < limit, f"criterion {num} exceeded its time limit"


def test_criterion_01_esti_sharpness(capsys):
    t0 = time.perf_counter()
    rc = cli_main(["ledger", "--case", "case_esti", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)[0]
    verdicts = {row["params"]["k"]: row["verdict"] for row in payload["sweep"]}
    assert verdicts[5] == "fails"
    assert all(verdicts[k] == "holds" for k in range(6, 201))
    with capsys.disabled():
        _report(1, "esti fails at k=5, holds for k=6..200 (exact)", t0, 1.0)


def test_criterion_02_pm5_tightness(capsys):
    t0 = time.perf_counter()
    res = run_case("case_pm5")
    assert res.verdict == "holds"
    row5 = [r for r in res.sweep if r.params["k"] == 5][0]
    assert F(0) < row5.margin.lo
    assert row5.margin.hi < F(2, 1000)
    assert row5.margin.width <= F(1, 10 ** 6)
    with capsys.disabled():
        _report(2, "pm5 margin at k=5 inside (0, 2e-3), width <= 1e-6", t0, 10.0)


def test_criterion_03_mathematica_replacements(capsys):
    t0 = time.perf_counter()
    res4 = run_case("case_pm4")
    res3 = run_case("case_letter3")
    assert res4.verdict == "holds"
    assert res3.verdict == "holds"
    with capsys.disabled():
        _report(3, "pm4 (with l-sum tail enclosures) and letter3 hold", t0, 5.0)


def test_criterion_04_lemma_2_6_audit(capsys):
    t0 = time.perf_counter()
    res = run_case("lemma_2_6")
    full = res.row_map("full")
    red = res.row_map("reduced")
    for k in range(4, 201):
        assert full[(("k", k),)] in ("holds", "holds-with-exact-sum-only")
    assert red[(("k", 4),)] == "fails"
    for k in range(5, 201):
        assert red[(("k", k),)] == "holds"
    with capsys.disabled():
        _report(4, "digit-sum lemma holds k=4..200; reduced step fails only at k=4",
                t0, 10.0)


def test_criterion_05_exact_word_properties(capsys):
    t0 = time.perf_counter()
    rng = random.Random(2024)
    a_hi = alpha_interval().hi
    xs = [F(-1, 2), F(-1, 4), F(0), F(1, 4), F(1, 2)]
    violations = 0
    for _ in range(10_000):
        n = rng.randint(2, 30)
        digits = [rng.choice((-1, 1)) * rng.randint(3, 40) for _ in range(n)]
        w = Word(digits)
        p, q = w.p, w.q
        for i in range(1, n + 1):
            if p[i - 1] * q[i] - q[i - 1] * p[i] != (-1) ** i:
                violations += 1
            if i >= 2:
                ratio = F(abs(q[i - 1]), abs(q[i]))
                b = abs(digits[i - 1])
                if not (ratio <= a_hi and 1 / (b + a_hi) <= ratio <= 1 / (b - a_hi)):
                    violations += 1
        b_last = abs(digits[-1])
        g_lo = F(2, 3) / (b_last + a_hi)
        g_hi = F(3, 2) / (b_last - a_hi)
        for x in xs:
            if not g_lo <= g_ratio(w, x) <= g_hi:
                violations += 1
    letters = vertex_alphabet(40)
    for _ in range(2_000):
        digits = []
        for _ in range(rng.randint(1, 4)):
            digits.extend(rng.choice(letters).word_digits)
        if distortion_constant(Word(digits)) > K_GLOBAL:
            violations += 1
    assert violations == 0
    with capsys.disabled():
        _report(5, "1e4 words: determinant, ratio, G bounds; K_w <= 25/9", t0, 30.0)


def test_criterion_06_singularization_equivalence(capsys):
    t0 = time.perf_counter()
    rng = random.Random(777)
    failures = 0
    done = 0
    while done < 500:
        x = F(rng.getrandbits(256) | 1, rng.getrandbits(256) | 3)
        x -= round(x)
        if x == 0:
            continue
        done += 1
        nd = nicf_digits(x, 20)
        if x > 0:
            sd = singularize(rcf_digits(x, 60))
        else:
            sd = [-d for d in singularize(rcf_digits(-x, 60))]
        k = min(15, len(nd), len(sd))
        if nd[:k] != sd[:k]:
            failures += 1
        back = evaluate(Word(nicf_digits(x, 25)))
        if abs(back - x) > F(1, 2 ** 40):
            failures += 1
    assert failures == 0
    with capsys.disabled():
        _report(6, "500 random 256-bit rationals: prefix >= 15, error <= 2^-40",
                t0, 30.0)


def test_criterion_07_appendix_structure(capsys):
    t0 = time.perf_counter()
    ap1 = appendix_example("cycle4", {e: F(1, 3) for e in (1, 2, 3, 4)})
    loops = first_return_loops(ap1.graph, "v", 9)
    got = sorted(w for ws in loops.values() for w in ws)
    want = sorted(tuple([1] + [2, 4] * n + [2, 3]) for n in range(0, 4))
    assert got == want
    got_w = sorted(w for ws in first_return_loops(ap1.graph, "w", 9).values()
                   for w in ws)
    assert got_w == [(2, 3, 1), (2, 4)]
    got_z = sorted(w for ws in first_return_loops(ap1.graph, "z", 9).values()
                   for w in ws)
    assert got_z == [(3, 1, 2), (4, 2)]

    ap2 = appendix_example("triangle6", {e: F(1, 3) for e in "abcdef"})
    loops2 = first_return_loops(ap2.graph, "v", 9)
    flat = {w for ws in loops2.values() for w in ws}
    want2 = set()
    for n in range(0, 5):
        for pat in ("a" + "cd" * n + "b", "a" + "cd" * n + "cf",
                    "e" + "dc" * n + "f", "e" + "dc" * n + "db"):
            if len(pat) <= 9:
                want2.add(tuple(pat))
    assert flat == want2
    with capsys.disabled():
        _report(7, "first-return loops match both worked examples to length 9",
                t0, 10.0)


def test_criterion_08_appendix_pressure(capsys):
    t0 = time.perf_counter()
    ap = appendix_example("cycle4", {e: F(1, 3) for e in (1, 2, 3, 4)})
    # oracle: bisect u^3 + u^2 = 1 exactly, h = log u / log(1/3)
    lo, hi = F(0), F(1)
    for _ in range(64):
        mid = (lo + hi) / 2
        if mid ** 3 + mid ** 2 < 1:
            lo = mid
        else:
            hi = mid
    h_oracle = math.log(float((lo + hi) / 2)) / math.log(1.0 / 3.0)
    h64 = F(round(h_oracle * 64), 64)
    for t in (h64 / 2, h64, 2 * h64):
        for vertex in ("v", "w", "z"):
            closed = ap.closed_pressure(vertex, t, bits=160)
            enc = ap.enumerated_pressure(vertex, t, 30, bits=64)
            assert enc.lo <= closed.lo and closed.hi <= enc.hi
    for ifs in (ap.vertex_ifs("w"), ap.vertex_ifs("v")):
        di = dim_interval(ifs, 6, F(1, 2000))
        assert float(di.lo) - 1e-3 <= h_oracle <= float(di.hi) + 1e-3
    # P_{E_v} > P_{E_w} >= P for t below the root, via closed forms
    for t in (h64 / 4, h64 / 2, 3 * h64 / 4):
        pv = ap.closed_pressure("v", t, bits=160)
        pw = ap.closed_pressure("w", t, bits=160)
        pf = ap.full_pressure_closed(t, bits=160)
        assert pv.lo > pw.hi and pw.hi >= pf.lo
    with capsys.disabled():
        _report(8, "loop pressures contain closed forms; Bowen root within 1e-3",
                t0, 30.0)


def test_criterion_09_dimension_engine(capsys):
    t0 = time.perf_counter()
    di = dim_interval(AlphabetSelection.explicit([3]), 8, F(1, 10 ** 6))
    assert di.lo == 0 and di.hi <= F(1, 10 ** 6)
    di = dim_interval(SimilarityIfs(ratios=(F(1, 4), F(1, 4))), 4, F(1, 1000))
    assert di.contains(F(1, 2))
    di_pm3 = dim_interval(AlphabetSelection.explicit([-3, 3]), 16, F(2, 100))
    assert di_pm3.width <= F(2, 100)
    from test_pressure_dim import _transfer_operator_dim  # needs numpy
    oracle = _transfer_operator_dim([-3, 3])
    assert float(di_pm3.lo) < oracle < float(di_pm3.hi)
    results = []
    for top in range(3, 9):
        di = dim_interval(AlphabetSelection.abs_range(3, top), 10, F(5, 100),
                          word_budget=120_000)
        assert di.hi <= 1 + F(1, 10 ** 12)
        results.append(di)
    for i in range(len(results)):
        for j in range(i, len(results)):
            assert results[i].lo <= results[j].hi
    with capsys.disabled():
        _report(9, "dim engine: singleton, similarity pair, pm3+oracle, nested",
                t0, 120.0)


def test_criterion_10_spectrum_construction(capsys):
    t0 = time.perf_counter()
    rc = cli_main(["spectrum", "--target", "0.3", "--system", "phi_f",
                   "--budget", "40", "--depth", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert all(d["dim_hi"] <= 0.3 + 1e-12 for d in payload["decisions"])
    ach = payload["achieved"]
    assert 0.2 <= ach["lo"] <= ach["hi"] <= 0.3
    trace0 = construct(0, "phi_f", budget=6, depth=8)
    assert len(trace0.final_letters) == 1
    assert trace0.achieved.lo == 0 and trace0.achieved.hi <= F(1, 100)
    trace1 = construct(1, "phi_f", budget=20, depth=6)
    assert len(trace1.final_letters) == 20
    with capsys.disabled():
        _report(10, "greedy spectrum: per-step bounds <= 0.3, achieved in [0.2,0.3]",
                t0, 60.0)


def test_criterion_11_mme_and_direct_coverage(capsys):
    t0 = time.perf_counter()
    for b in range(4, 101):
        assert mme_check(b, "phi_f").passes is True
        assert mme_check(-b, "phi_f").passes is True
    from nicfdim.nicf_system import LoopLetter
    for k in range(4, 31):
        assert mme_check(k, "phi_v").passes is True
    for j in range(1, 13):
        for k in (3, 4, 5, 8):
            assert mme_check(LoopLetter(1, j, k), "phi_v").passes is True
    assert mme_check(3, "phi_v").note == "use direct comparison"
    small = DigitIfs(AlphabetSelection.explicit([-3, 3]))
    large = DigitIfs(AlphabetSelection.cofinite(4, 200))
    grid = [F(11, 20) + F(j, 20) for j in range(0, 10)]  # 0.55 .. 1.0
    rows = direct_lambda_comparison(small, large, grid)
    assert all(r.verdict == "pass" and r.method == "z1-chain" for r in rows)
    rows_low = direct_lambda_comparison(small, large, [F(1, 4), F(1, 2)])
    assert all(r.verdict == "pass" and r.method == "divergence" for r in rows_low)
    with capsys.disabled():
        _report(11, "mme passes |b|=4..100 and the vertex case split; "
                    "letters 3 via the Z1/K4 chain on 0.55..1.0", t0, 60.0)
