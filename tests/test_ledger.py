"""The exact-arithmetic inequality ledger."""

import json
from fractions import Fraction as F

import pytest

from nicfdim.exactnum import Interval
from nicfdim.ledger import (
    _row,
    case_ids,
    lemma_2_6_sides,
    letter_constants,
    phi_v_sides,
    plain_tail,
    render_table,
    results_to_json,
    run_case,
)
from nicfdim.nicf_system import alpha_interval, vertex_alphabet


def test_row_refuses_overlapping_sides():
    # an undecided comparison must never print "fails"
    with pytest.raises(ArithmeticError):
        _row({"k": 4}, Interval(F(1), F(3)), Interval(F(2), F(4)))
    assert _row({}, Interval.point(F(1)), Interval.point(F(1))).verdict == "holds"
    assert _row({}, Interval(F(3), F(4)), Interval.point(F(2))).verdict == "fails"


def test_unknown_case_lists_ids():
    with pytest.raises(ValueError) as err:
        run_case("case_unknown")
    for cid in case_ids():
        assert cid in str(err.value)


def test_esti_sharpness():
    res = run_case("case_esti")
    assert res.verdict == "holds"
    rows = res.row_map()
    assert rows[(("k", 5),)] == "fails"
    for k in range(6, 201):
        assert rows[(("k", k),)] == "holds"
    # frozen exact values: lhs(6) = 18750/9801, lhs(5) = 16250/6561
    assert res.lhs.lo == F(18750, 9801)
    lhs5 = F(625, 81) * F(13, 2) / F(81, 4)
    assert lhs5 == F(16250, 6561) and lhs5 > 2


def test_pm5_tightness():
    res = run_case("case_pm5")
    assert res.verdict == "holds"
    row5 = [r for r in res.sweep if r.params["k"] == 5][0]
    assert 0 < row5.margin.lo and row5.margin.hi < F(2, 1000)
    assert row5.margin.width <= F(1, 10 ** 6)


def test_pm4_and_letter3_hold():
    res4 = run_case("case_pm4")
    assert res4.verdict == "holds"
    variants = {r.variant: r.verdict for r in res4.sweep}
    assert variants["main"] == "holds" and variants["printed"] == "holds"
    res3 = run_case("case_letter3")
    assert res3.verdict == "holds"
    variants = {r.variant: r.verdict for r in res3.sweep}
    assert variants["printed"] == "holds" and variants["corrected"] == "holds"


def test_lemma_2_6_audit():
    res = run_case("lemma_2_6")
    assert res.verdict == "holds-with-exact-sum-only"
    full = res.row_map("full")
    red = res.row_map("reduced")
    for k in range(4, 201):
        assert full[(("k", k),)] in ("holds", "holds-with-exact-sum-only")
    assert full[(("k", 4),)] == "holds-with-exact-sum-only"
    assert red[(("k", 4),)] == "fails"
    for k in range(5, 201):
        assert red[(("k", k),)] == "holds"


def test_j_cases_and_growth():
    for cid in ("case_j_gt_k", "case_j_le_k", "q_growth", "lem_2s_table"):
        res = run_case(cid)
        assert res.verdict == "holds", cid
        assert all(r.verdict == "holds" for r in res.sweep)


def test_reproducible_bit_identical():
    a = run_case("case_pm5")
    b = run_case("case_pm5")
    assert a.lhs == b.lhs and a.rhs == b.rhs and a.margin == b.margin
    assert [r.margin for r in a.sweep] == [r.margin for r in b.sweep]


def test_monotone_claims_checked_not_assumed():
    # the esti case certifies the decreasing-in-k claim by comparing
    # consecutive exact values; forcing a wrong sweep start would flip it
    res = run_case("case_esti")
    assert "decreasing" in res.notes[0]


def test_rendering():
    results = [run_case("case_esti"), run_case("case_letter3")]
    table = render_table(results)
    assert "case_esti" in table and "holds" in table
    payload = json.loads(results_to_json(results))
    assert payload[0]["case"] == "case_esti"
    assert payload[0]["sweep"][0]["params"] == {"k": 3}
    assert isinstance(payload[0]["margin"][0], float)


def test_ledger_and_mme_check_stay_float_free(monkeypatch):
    # every ledger and mme_check tail has s = 1, so no libm call is made
    from nicfdim import exactnum
    from nicfdim.ledger import run_all
    from nicfdim.nicf_system import LoopLetter
    from nicfdim.spectrum import mme_check

    def no_floats(*args):
        raise AssertionError("guarded float lane on the exact path")

    for name in ("fpow_bounds", "flog_down", "flog_up", "fexp_down", "fexp_up"):
        monkeypatch.setattr(exactnum, name, no_floats)
    assert all(r.verdict.startswith("holds") for r in run_all())
    for b in (4, -7, 25):
        assert mme_check(b, "phi_f").passes
    for b in (4, -5, 9, LoopLetter(1, 2, 3), LoopLetter(-1, 5, 3)):
        assert mme_check(b, "phi_v").passes


def test_phi_v_successor_rule_follows_block_order():
    # phi_v_sides sums the plain letters +-l from l = first on; each of
    # them must come after the letter b in the block order
    letters = vertex_alphabet(2000)
    plain_at = {l.sign * l.k: i for i, l in enumerate(letters) if l.j == 0}
    checked = 0
    for i, b in enumerate(letters):
        j, k = b.j, b.k
        if not (j > 0 or k >= 6):
            continue
        first = j + 1 if j > k else (k + 2 if j else k + 1)
        assert all(pos > i for l, pos in plain_at.items() if abs(l) >= first)
        assert phi_v_sides(j, k, 4)[1] == F(18, 25) * plain_tail(first, 4)
        checked += 1
    assert checked > 1900


def test_letter_constants_read_m_b_off_the_sides():
    # each M_b is the left side the ledger certifies, endpoint for endpoint
    a = alpha_interval()
    for k in range(3, 201):
        side = lemma_2_6_sides(k, 0)[0]
        assert side == (F(3, 2) / (k - a)) ** 2
        assert letter_constants(k)[1] == letter_constants(-k)[1] == side
    for letter in vertex_alphabet(2000):
        if letter.j >= 1:
            side = phi_v_sides(letter.j, letter.k, 0)[0]
            assert letter_constants(letter)[1] == side
