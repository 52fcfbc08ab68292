"""Letter-addition criteria and the greedy construction."""

from fractions import Fraction as F

import pytest

from nicfdim import spectrum
from nicfdim.exactnum import Interval, float_up
from nicfdim.ledger import phi_v_sides, run_case
from nicfdim.nicf_system import K_GLOBAL, LoopLetter
from nicfdim.pressure_dim import DigitIfs, LoopIfs, vertex_system
from nicfdim.spectrum import (
    DIRECT_COMPARISON,
    construct,
    direct_lambda_comparison,
    mme_check,
    phi_f_ordering,
)
from nicfdim.symbolic import AlphabetSelection


def test_mme_phi_f():
    for b in (4, -4, 7, 33, 100):
        v = mme_check(b, "phi_f")
        assert v.passes is True
        assert v.margin.lo > 0
    v3 = mme_check(3, "phi_f")
    assert v3.passes is None and v3.note == DIRECT_COMPARISON
    with pytest.raises(ValueError):
        mme_check(2, "phi_f")
    with pytest.raises(ValueError):
        mme_check(4, "phi_q")


def test_mme_phi_v_plain():
    for k in (4, 5, 6, 9, 60):
        v = mme_check(k, "phi_v")
        assert v.passes is True, (k, v.note)
    assert mme_check(3, "phi_v").note == DIRECT_COMPARISON
    assert mme_check(-3, "phi_v").note == DIRECT_COMPARISON
    assert mme_check(LoopLetter(1, 0, 5), "phi_v").passes is True


def test_mme_phi_v_runs():
    # j > k and 1 <= j <= k branches of the case split
    for j, k in ((4, 3), (7, 3), (10, 4), (1, 3), (2, 2 + 1), (3, 3), (4, 9)):
        v = mme_check(LoopLetter(1, j, k), "phi_v")
        assert v.passes is True, ((j, k), v.note)
        assert v.margin.lo > 0
    # negative-sign letters behave identically by symmetry
    assert mme_check(LoopLetter(-1, 2, 4), "phi_v").passes is True


def test_mme_check_decides_the_ledger_sides():
    # the ledger states the phi_v letter constants once; case_pm4 and
    # mme_check decide the same sides at their first escalation step
    pm4 = run_case("case_pm4")
    assert (pm4.lhs, pm4.rhs) == phi_v_sides(0, 4, 64)
    v = mme_check(4, "phi_v")
    assert (v.lhs, v.rhs) == phi_v_sides(0, 4, 4)
    for j in range(13):
        for k in range(6, 12):
            lhs = mme_check(LoopLetter(1, j, k), "phi_v").lhs
            assert lhs == Interval.point(K_GLOBAL * F(1, 4) ** j / (k - F(1, 2)) ** 2)
    # +-1 and +-2 are no phi_v letters; they used to get the digit 4's sides
    for b in (2, -1):
        with pytest.raises(ValueError):
            mme_check(b, "phi_v")


def test_direct_comparison_grid():
    small = DigitIfs(AlphabetSelection.explicit([-3, 3]))
    large = DigitIfs(AlphabetSelection.cofinite(4, 200))
    grid = [F(2, 5), F(1, 2)] + [F(11, 20) + F(k, 20) for k in range(0, 10)]
    rows = direct_lambda_comparison(small, large, grid)
    for row in rows:
        assert row.verdict == "pass", (row.t, row.method)
    assert rows[0].method == "divergence"
    assert rows[1].method == "divergence"
    assert all(r.method == "z1-chain" for r in rows[2:])


def test_direct_comparison_divergent_small_side():
    # past the large side's exponent only the small side can diverge: such
    # a t is indeterminate with no bounds, the first convergent t has both
    small = DigitIfs(AlphabetSelection.cofinite(3, 10))
    large = DigitIfs(AlphabetSelection.explicit([3, 4]))
    rows = direct_lambda_comparison(small, large, [F(1, 4), F(1, 2), F(3, 4)])
    for row in rows[:2]:
        assert (row.verdict, row.method) == ("indeterminate", "pressure")
        assert row.lhs_hi is None and row.rhs_lo is None
    assert rows[2].method == "pressure"
    assert isinstance(rows[2].lhs_hi, float) and isinstance(rows[2].rhs_lo, float)


def test_direct_comparison_reflexive():
    sel = DigitIfs(AlphabetSelection.explicit([-3, 3]))
    rows = direct_lambda_comparison(sel, sel, [F(3, 4)])
    assert rows[0].verdict == "pass"


def test_direct_comparison_equal_selections_are_equal_systems():
    small = DigitIfs(AlphabetSelection.explicit([-3, 3]))
    large = DigitIfs(AlphabetSelection.abs_range(3, 3))
    rows = direct_lambda_comparison(small, large, [F(3, 4)])
    assert [(r.verdict, r.method) for r in rows] == [("pass", "pressure")]


def test_direct_comparison_equal_letters_are_not_equal_systems(monkeypatch):
    monkeypatch.setattr(spectrum, "_DIRECT_DEPTH", 4)
    # each left side has the right side's letters plus a tail of further
    # letters, so its lambda is strictly larger: no row may pass
    vertex = vertex_system(1, 4)
    pairs = ((DigitIfs(AlphabetSelection.cofinite(3, 3)),
              DigitIfs(AlphabetSelection.explicit([-3, 3]))),
             (vertex, LoopIfs(vertex.letters)))
    for small, large in pairs:
        rows = direct_lambda_comparison(small, large, [F(3, 4), F(1)])
        assert [r.verdict for r in rows] == ["indeterminate", "indeterminate"]


def test_phi_f_ordering():
    assert phi_f_ordering(6) == [-3, 3, -4, 4, -5, 5]


def test_construct_target_zero():
    trace = construct(0, "phi_f", budget=6, depth=8)
    assert trace.final_letters == ("-3",)
    assert trace.decisions[0].accepted is True
    assert all(not d.accepted for d in trace.decisions[1:])
    assert trace.achieved.lo == 0 and trace.achieved.hi <= F(1, 100)


def test_construct_with_no_certified_letter():
    # at target 1e-20 the float lane cannot show Z_n <= 1 even for {-3}:
    # nothing is accepted, and the empty set has dimension 0
    trace = construct(F("1e-20"), "phi_f", budget=2, depth=2)
    assert trace.final_letters == ()
    assert (trace.achieved.lo, trace.achieved.hi) == (0, 0)
    # a target the float lane resolves still keeps -3
    trace = construct(F("1e-12"), "phi_f", budget=2, depth=2)
    assert trace.final_letters == ("-3",)


def test_construct_target_one_accepts_all():
    trace = construct(1, "phi_f", budget=8, depth=6)
    assert all(d.accepted for d in trace.decisions)
    assert len(trace.final_letters) == 8


def test_construct_intermediate_target():
    trace = construct(F(3, 10), "phi_f", budget=10, depth=9)
    payload = trace.to_json_dict()
    assert all(d["dim_hi"] <= 0.3 + 1e-12 for d in payload["decisions"])
    assert trace.achieved.hi <= F(3, 10)
    assert trace.achieved.lo > F(1, 10)
    # monotone: the accepted set's upper certificate never exceeds target
    assert trace.final_letters  # nonempty


@pytest.mark.parametrize("system, target", [("phi_f", F(3, 10)), ("phi_v", F(1, 4))])
def test_json_step_bounds_are_zero_and_the_target(system, target):
    payload = construct(target, system, budget=6, depth=6).to_json_dict()
    assert payload["decisions"]
    for d in payload["decisions"]:
        assert d["dim_lo"] == 0.0 and d["dim_hi"] == float_up(target)


def test_construct_achieved_never_above_target():
    # the accepted set's P(target) <= 0 certificate bounds its dimension,
    # so the achieved interval ends at the target at the latest
    target = F("0.201")
    tr = construct(target, "phi_f", budget=20, depth=8)
    assert tr.final_letters == ("-3", "-12")
    assert tr.achieved.lo <= target and tr.achieved.hi == target


def test_construct_phi_v():
    trace = construct(F(1, 4), "phi_v", budget=8, depth=8)
    assert trace.achieved.hi <= F(1, 4)
    assert trace.decisions[0].accepted
    d = trace.to_json_dict()
    assert set(d) == {"target", "system", "ordering", "decisions",
                      "final_F", "achieved"}
    assert d["achieved"]["lo"] <= d["achieved"]["hi"]


def test_construct_validation():
    with pytest.raises(ValueError):
        construct(F(3, 2), "phi_f", 4, 4)
    with pytest.raises(ValueError):
        construct(F(1, 2), "phi_x", 4, 4)
    with pytest.raises(ValueError):
        construct(F(1, 2), "phi_f", 0, 4)


def test_construct_refuses_depth_zero():
    # the depth ladder refuses the cap before any letter is decided
    with pytest.raises(ValueError, match="max_depth >= 1, got 0"):
        construct(F(3, 10), "phi_f", 6, 0)


def test_rejection_does_not_preclude_later_letters():
    trace = construct(F(3, 10), "phi_f", budget=10, depth=9)
    flags = [d.accepted for d in trace.decisions]
    first_reject = flags.index(False)
    assert any(flags[first_reject + 1:]), "a later letter is accepted"
