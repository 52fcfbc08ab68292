"""Partition sums, pressure certificates, dimension intervals, appendix."""

import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from nicfdim import pressure_dim
from nicfdim.cf_core import Word
from nicfdim.exactnum import (
    DivergentTailError,
    NumericRangeError,
    exp_interval,
    pow_iv,
)
from nicfdim.ledger import letter_constants
from nicfdim.nicf_system import LoopLetter, norm_bounds, vertex_alphabet
from nicfdim.pressure_dim import (
    DigitIfs,
    LoopIfs,
    SimilarityIfs,
    appendix_example,
    classify_nature,
    dim_interval,
    partition_sum,
    pressure_bounds,
    vertex_system,
    vertex_tail_bound,
)
from nicfdim.symbolic import AlphabetSelection

S3 = AlphabetSelection.explicit([3])
PM3 = AlphabetSelection.explicit([-3, 3])


def test_partition_single_word_exact():
    # one word [3,3]: q = 1, 3, 10; sup = 1/(10 - 3/2)**2 = 4/289
    from nicfdim.pressure_dim import _letter_matrix, _z_exact
    ze = _z_exact([_letter_matrix((3,))], 2, F(1), 64)
    assert ze.is_point() and ze.lo == F(4, 289)
    z = partition_sum(S3, 1, 2)  # the float lane, rounded outward
    assert z.lo <= F(4, 289) <= z.hi
    assert z.width <= F(4, 289) * F(1, 10 ** 9)
    _, sup = norm_bounds(Word([3, 3]))
    assert sup == F(4, 289)


def test_partition_zero_exponent_counts_words():
    z = partition_sum(PM3, 0, 3)
    assert z.is_point() and z.lo == 8


def test_partition_cofinite_divergence_flag():
    cof = AlphabetSelection.cofinite(3, 40)
    with pytest.raises(DivergentTailError):
        partition_sum(cof, F(1, 2), 1)
    with pytest.raises(DivergentTailError):
        partition_sum(cof, F(1, 4), 2)
    z = partition_sum(cof, F(3, 4), 1)
    assert z.lo > 2  # the tail is genuinely included


def test_partition_cofinite_tail_bracket():
    # a wider truncation can only move Z_1 inside the tail bracket
    t = F(3, 4)
    narrow = partition_sum(AlphabetSelection.cofinite(3, 30), t, 1)
    wide = partition_sum(AlphabetSelection.cofinite(3, 300), t, 1)
    assert narrow.lo <= wide.lo and wide.hi <= narrow.hi


def test_partition_threads_bit_identical():
    for sel, t, n in ((PM3, F(1, 3), 6), (AlphabetSelection.cofinite(3, 20), F(2, 3), 3)):
        z1 = partition_sum(sel, t, n, threads=1)
        z4 = partition_sum(sel, t, n, threads=4)
        assert z1.lo == z4.lo and z1.hi == z4.hi


def test_pressure_zero_exponent():
    pb = pressure_bounds(PM3, 0, 6)
    log2 = F(math.log(2))
    assert pb.lo <= log2 <= pb.hi
    assert pb.hi - pb.lo < F(1, 10 ** 9)


def test_pressure_singleton_growth_rate():
    # oracle: exact q-recurrence growth rate of the constant-3 word
    q_prev, q = 1, 3
    for _ in range(60):
        q_prev, q = q, 3 * q + q_prev
    rate = F(q, q_prev)
    for t in (F(1, 2), F(1)):
        pb = pressure_bounds(S3, t, 40)
        target = -2 * float(t) * math.log(float(rate))
        assert float(pb.lo) <= target <= float(pb.hi)
    # widths shrink with depth
    w10 = pressure_bounds(S3, F(1, 2), 10)
    w40 = pressure_bounds(S3, F(1, 2), 40)
    assert (w40.hi - w40.lo) < (w10.hi - w10.lo)


def test_pressure_width_bound():
    for t in (F(1, 4), F(1, 2), F(1)):
        for n in (4, 8):
            pb = pressure_bounds(PM3, t, n)
            slack = F(1, 10 ** 6)
            log_k = F(math.log(float(DigitIfs(PM3).k_interval().hi)))
            assert pb.hi - pb.lo <= 2 * t * log_k / n + slack


def test_pressure_nesting_with_depth():
    # intersecting deeper bounds never empties the interval
    acc_lo, acc_hi = F(-100), F(100)
    for n in (2, 4, 8, 12):
        pb = pressure_bounds(PM3, F(1, 3), n)
        acc_lo, acc_hi = max(acc_lo, pb.lo), min(acc_hi, pb.hi)
        assert acc_lo <= acc_hi


def test_monotonicity_in_alphabet():
    t = F(2, 5)
    small = pressure_bounds(PM3, t, 8)
    big = pressure_bounds(AlphabetSelection.abs_range(3, 5), t, 6)
    assert small.lo <= big.hi


_NESTED_ALPHABETS = st.lists(
    st.sampled_from([s * k for k in range(3, 13) for s in (-1, 1)]),
    min_size=1, max_size=6, unique=True,
).flatmap(lambda big: st.tuples(
    st.lists(st.sampled_from(big), min_size=1, max_size=len(big), unique=True),
    st.just(big)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(alphabets=_NESTED_ALPHABETS, depth=st.integers(2, 6))
def test_dim_interval_monotone_under_alphabet_inclusion(alphabets, depth):
    # F inside G gives dim F <= dim G, so the enclosures cannot separate
    small, big = (AlphabetSelection.explicit(a) for a in alphabets)
    lo = dim_interval(small, depth, F(1, 16), word_budget=4096).lo
    assert lo <= dim_interval(big, depth, F(1, 16), word_budget=4096).hi


def test_dim_singleton():
    di = dim_interval(S3, 8, F(1, 10 ** 6))
    assert di.lo == 0 and di.hi <= F(1, 10 ** 6)


def test_dim_similarity_pair_quarter():
    di = dim_interval(SimilarityIfs(ratios=(F(1, 4), F(1, 4))), 4, F(1, 1000))
    assert di.contains(F(1, 2))
    assert di.width <= F(1, 1000)


def _transfer_operator_dim(letters, grid_size=1200, iters=400):
    """Discretized transfer-operator oracle: bisect t until the leading
    eigenvalue of (L_t f)(x) = sum_b |phi_b'(x)|**t f(phi_b x) is 1."""
    import numpy as np

    xs = np.linspace(-0.5, 0.5, grid_size)

    def eigenvalue(t: float) -> float:
        f = np.ones(grid_size)
        lam = 1.0
        targets = []
        for b in letters:
            y = 1.0 / (b + xs)
            w = (1.0 / (b + xs) ** 2) ** t
            idx = np.clip(np.round((y + 0.5) * (grid_size - 1)).astype(int),
                          0, grid_size - 1)
            targets.append((w, idx))
        for _ in range(iters):
            nf = np.zeros(grid_size)
            for w, idx in targets:
                nf += w * f[idx]
            lam = nf.max()
            f = nf / lam
        return lam

    lo, hi = 0.05, 0.95
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if eigenvalue(mid) > 1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_dim_pm3_certified_and_oracle():
    di = dim_interval(PM3, 16, F(2, 100))
    assert di.width <= F(2, 100)
    oracle = _transfer_operator_dim([-3, 3])
    assert float(di.lo) < oracle < float(di.hi)


def test_dim_nested_ranges():
    prev = None
    for top in range(3, 7):
        di = dim_interval(AlphabetSelection.abs_range(3, top), 10, F(5, 100),
                          word_budget=120_000)
        assert di.hi <= 1
        if prev is not None:
            assert prev.lo <= di.hi
        prev = di


def test_certificates_are_consistent():
    # P(t) cannot be certified both strictly above and below zero
    for t in (F(1, 4), F(1, 3), F(1, 2)):
        up = _nonpos_at_some_depth(PM3, t, 12)
        dn = _nonneg_at_some_depth(PM3, t, 12)
        assert up is None or dn is None  # both only at an exact root
        if t < F(31, 100):
            assert up is None  # dim > t means P(t) > 0


def test_finiteness_exponents():
    assert DigitIfs(AlphabetSelection.cofinite(3, 40)).theta == F(1, 2)
    assert DigitIfs(AlphabetSelection.cofinite(4, 40)).theta == F(1, 2)
    assert DigitIfs(PM3).theta == 0
    assert vertex_system(4, 12).theta == F(1, 2)


def test_vertex_tail_bound_contains_brute_force():
    t = F(3, 4)
    j_max, k_max = 10, 50
    bound = vertex_tail_bound(t, j_max, k_max)
    # brute-force mass of the region beyond the truncation
    tf = float(t)
    total = 0.0
    for j in range(0, 41):
        for k in range(3, 10_000):
            if j <= j_max and k <= k_max:
                continue
            total += 2.0 * ((0.25 ** j) / (k - 0.5) ** 2) ** tf
    assert total <= float(bound.hi)
    # the run-length tail alone is tiny; the terminal-digit tail dominates
    assert float(bound.hi) < 2.0


def test_vertex_tail_bound_formula_instance():
    # t = 1, no run truncation: bounded by 2 K sum_j 4^-j sum_k (k-1/2)^-2
    from nicfdim.exactnum import tail_sum_enclosure
    bound = vertex_tail_bound(F(1), 0, 3)
    s_all = tail_sum_enclosure(2, F(1, 2), F(1), terms=8)
    crude = 2 * F(25, 9) * F(4, 3) * s_all.hi
    assert bound.hi <= crude


def test_vertex_tail_bound_monotone():
    t = F(3, 4)
    base = vertex_tail_bound(t, 4, 20)
    assert vertex_tail_bound(t, 6, 20).hi <= base.hi
    assert vertex_tail_bound(t, 4, 40).hi <= base.hi
    with pytest.raises(DivergentTailError):
        vertex_tail_bound(F(1, 2), 4, 20)


@pytest.mark.parametrize("j_max, k_max", [(2, 6), (4, 12), (8, 40)])
def test_vertex_cylinders_tile_x_v(j_max, k_max):
    # the loop cylinders phi_w(X_v) tile X_v = [-1/2, 1/2], so the kept
    # letters cover at most length 1 and, with the tail's sup |phi'|, at least 1
    def phi(digits, x):
        for d in reversed(digits):
            x = 1 / (d + x)
        return x

    covered = sum(abs(phi(l.word_digits, F(1, 2)) - phi(l.word_digits, F(-1, 2)))
                  for l in vertex_system(j_max, k_max).letters)
    assert covered <= 1 <= covered + vertex_tail_bound(F(1), j_max, k_max).hi


def test_tailed_loop_ifs_needs_its_grid():
    grid = vertex_system(4, 12).letters
    assert vertex_system(4, 12) == LoopIfs(grid, (4, 12))
    for letters in (grid[:-1], grid + (LoopLetter(1, 5, 3),), grid[::-1]):
        with pytest.raises(ValueError, match="letters of its grid"):
            LoopIfs(letters, (4, 12))
    with pytest.raises(ValueError, match="letters of its grid"):
        LoopIfs(grid, (4, 13))


def test_vertex_system_partition():
    vs = vertex_system(5, 15)
    z = partition_sum(vs, F(3, 4), 1)
    assert z.lo > 0 and z.hi > z.lo
    with pytest.raises(DivergentTailError):
        partition_sum(vs, F(1, 2), 1)
    z2 = partition_sum(vs, F(3, 4), 2)
    assert z2.lo > 0


def test_appendix_cycle4_structure_and_pressures():
    ap = appendix_example("cycle4", {e: F(1, 3) for e in (1, 2, 3, 4)})
    s, r = F(1, 27), F(1, 9)
    spec_v = ap.loop_specs["v"]
    assert spec_v.families[0].base_ratio == s
    assert spec_v.families[0].cycle_ratio == r
    for t in (F(1, 8), F(1, 4), F(1, 2)):
        closed = ap.closed_pressure("v", t, bits=128)
        enc = ap.enumerated_pressure("v", t, 30)
        assert enc.lo <= closed.lo and closed.hi <= enc.hi
        # closed form really is log(s^t/(1-r^t))
        val = math.log(float(s) ** float(t) / (1 - float(r) ** float(t)))
        assert float(closed.lo) - 1e-9 <= val <= float(closed.hi) + 1e-9


def test_appendix_cycle4_bowen_root():
    ap = appendix_example("cycle4", {e: F(1, 3) for e in (1, 2, 3, 4)})
    # oracle: exact bisection of u**3 + u**2 = 1, then h = log u / log(1/3)
    lo, hi = F(0), F(1)
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid ** 3 + mid ** 2 < 1:
            lo = mid
        else:
            hi = mid
    h_oracle = math.log(float((lo + hi) / 2)) / math.log(1 / 3)
    di_w = dim_interval(ap.vertex_ifs("w"), 4, F(1, 2000))
    di_v = dim_interval(ap.vertex_ifs("v"), 4, F(1, 2000))
    for di in (di_w, di_v):
        assert float(di.lo) - 1e-3 <= h_oracle <= float(di.hi) + 1e-3
    # the cycle system and its vertex systems share the dimension
    assert max(di_w.lo, di_v.lo) <= min(di_w.hi, di_v.hi)


def test_appendix_cycle4_pressure_ordering():
    ap = appendix_example("cycle4", {e: F(1, 3) for e in (1, 2, 3, 4)})
    # P_{E_v}(t) > P_{E_w}(t) = P_{E_z}(t) >= P(t) strictly below the root
    for t in (F(1, 16), F(1, 8), F(3, 16), F(1, 4)):
        pv = ap.closed_pressure("v", t, bits=128)
        pw = ap.closed_pressure("w", t, bits=128)
        pz = ap.closed_pressure("z", t, bits=128)
        pf = ap.full_pressure_closed(t, bits=128)
        assert pv.lo > pw.hi
        assert pw.lo == pz.lo and pw.hi == pz.hi
        assert pw.hi >= pf.lo
    # and the order flips above the root
    for t in (F(5, 16), F(1, 2)):
        pv = ap.closed_pressure("v", t, bits=128)
        pw = ap.closed_pressure("w", t, bits=128)
        assert pv.hi < pw.lo


def test_appendix_loop_family_diverges_at_negative_t():
    # every member of v's loop family has ratio**t >= 1 at t <= 0, so the
    # family sum diverges; it is no precision failure
    ap = appendix_example("cycle4", {e: F(1, 3) for e in (1, 2, 3, 4)})
    with pytest.raises(DivergentTailError):
        ap.closed_pressure("v", F(-1, 8))
    # w and z have single loops only: finite at every t
    assert ap.closed_pressure("w", F(-1, 8)).hi < 2


def _graph_pressure_oracle(ap, t):
    # log of the spectral radius of M(t)[u][v] = sum of r_e**t over e: u -> v
    import numpy as np
    g = ap.graph
    index = {v: i for i, v in enumerate(g.vertices)}
    m = np.zeros((len(index), len(index)))
    for e in g.edges:
        m[index[g.initial[e]], index[g.terminal[e]]] += float(ap.ratios[e]) ** float(t)
    return math.log(max(abs(np.linalg.eigvals(m))))


@pytest.mark.parametrize("name, edges", [("cycle4", (1, 2, 3, 4)),
                                         ("triangle6", tuple("abcdef"))])
def test_full_pressure_closed_matches_eigenvalue_oracle(name, edges):
    ap = appendix_example(name, {e: F(1, 2 + i) for i, e in enumerate(edges)})
    # t = 0 gives log rho of the bare graph: the plastic number for cycle4
    for t in (F(0), F(1, 16), F(1, 3), F(1, 2), F(1), F(7, 3), F(5)):
        pf = ap.full_pressure_closed(t, bits=96)
        oracle = _graph_pressure_oracle(ap, t)
        assert float(pf.lo) - 1e-12 <= oracle <= float(pf.hi) + 1e-12
        assert pf.width < F(1, 10 ** 9)


def test_appendix_triangle6():
    ap = appendix_example("triangle6", {e: F(1, 4) for e in "abcdef"})
    assert ap.vertex_ifs("v").theta == 0
    assert classify_nature(ap.vertex_ifs("v")) == "strongly regular"
    for t in (F(1, 4), F(1, 2)):
        closed = ap.closed_pressure("v", t, bits=128)
        enc = ap.enumerated_pressure("v", t, 24)
        assert enc.lo <= closed.lo and closed.hi <= enc.hi
    with pytest.raises(ValueError, match="not a contraction"):
        appendix_example("cycle4", {e: F(3, 2) for e in (1, 2, 3, 4)})
    with pytest.raises(ValueError, match="unknown appendix example"):
        appendix_example("pentagon", {})


def test_appendix_triangle6_turned_loops():
    # distinct ratios tell the edges apart, so the loops of w and z, derived
    # by turning v's, must be the loops the graph enumerates
    ap = appendix_example("triangle6", {e: F(1, 2 + i) for i, e in enumerate("abcdef")})
    for vertex in ("v", "w", "z"):
        for t in (F(1, 4), F(1, 2), F(1)):
            closed = ap.closed_pressure(vertex, t, bits=128)
            enc = ap.enumerated_pressure(vertex, t, 16)
            assert enc.lo <= closed.lo and closed.hi <= enc.hi


def test_classify_nature(monkeypatch):
    assert classify_nature(PM3) == "strongly regular"
    assert classify_nature(S3) == "critically regular"
    assert classify_nature(AlphabetSelection.cofinite(3, 40)) == "strongly regular"
    # an empty sample grid decides nothing for a tailed system
    monkeypatch.setattr(pressure_dim, "_NATURE_GRID", ())
    assert classify_nature(AlphabetSelection.cofinite(3, 40)) == "indeterminate"
    # samples at or below theta = 1/2 are skipped, not read through the
    # divergence of Z_n there
    monkeypatch.setattr(pressure_dim, "_NATURE_GRID", (F(1, 2), F(1, 4)))
    assert classify_nature(AlphabetSelection.cofinite(3, 40)) == "indeterminate"


def test_loop_system_needs_distinct_letters():
    with pytest.raises(ValueError, match="empty alphabet"):
        LoopIfs(())
    letter = LoopLetter(1, 0, 3)
    with pytest.raises(ValueError, match="duplicate letters"):
        LoopIfs((letter, LoopLetter(-1, 0, 3), letter))


def test_classify_nature_claims_no_irregularity():
    # the root lies in [7/1024, 1/128], below every sample, so P < 0 at
    # each sample; that leaves a zero in (theta, sample) and shows nothing
    system = SimilarityIfs(families=((F(1, 10 ** 300), F(1, 2)),))
    di = dim_interval(system, 4, F(1, 1000))
    assert F(7, 1024) <= di.lo and di.hi <= F(1, 128)
    assert classify_nature(system) == "indeterminate"


def test_similarity_ratio_near_one_is_out_of_range_not_divergent():
    # every ratio is below 1, so the family converges at every t > 0; a
    # float enclosure of ratio**t that reaches 1 is a precision failure
    system = SimilarityIfs(families=((F(1, 10 ** 300), 1 - F(1, 10 ** 20)),))
    with pytest.raises(DivergentTailError):
        partition_sum(system, 0, 1)
    with pytest.raises(NumericRangeError):
        partition_sum(system, F(1, 2), 1)
    with pytest.raises(NumericRangeError):
        dim_interval(system, 4, F(1, 1000))


def test_lambda_sandwich_on_letter_addition():
    # lambda_{F + e} between lambda_F + m_e^t and lambda_F + M_e^t,
    # checked as enclosure consistency
    f_small = DigitIfs(PM3)
    f_big = DigitIfs(AlphabetSelection.explicit([-3, 3, -4]))
    for t in (F(1, 2), F(3, 4), F(1)):
        lam_small = exp_interval(pressure_bounds(f_small, t, 10))
        lam_big = exp_interval(pressure_bounds(f_big, t, 8))
        m_iv, m_big_iv = letter_constants(-4)
        from nicfdim.exactnum import interval_pow
        mt = interval_pow(m_iv, t, 64)
        bt = interval_pow(m_big_iv, t, 64)
        assert lam_big.hi >= lam_small.lo + mt.lo
        assert lam_big.lo <= lam_small.hi + bt.hi
        assert lam_big.hi >= lam_small.lo  # monotone in the alphabet


def test_loop_ifs_partition_and_dim():
    letters = (LoopLetter(-1, 0, 3), LoopLetter(1, 0, 3), LoopLetter(1, 1, 3))
    sys = LoopIfs(letters)
    z = partition_sum(sys, F(1, 2), 2)
    assert z.lo > 0
    di = dim_interval(sys, 10, F(3, 100))
    assert 0 < di.lo and di.hi < 1


def test_float_lane_contains_exact_lane():
    # the guarded float lane must enclose the (much tighter) exact lane
    from nicfdim.pressure_dim import _letter_matrix, _z_exact, _z_float
    letters = [-3, 3, -5]
    mats = [_letter_matrix((b,)) for b in letters]
    for t in (F(1, 4), F(1, 2), F(3, 4), F(7, 8)):
        for n in (2, 4, 6):
            ze = _z_exact(mats, n, t, 96)
            zf = _z_float(mats, n, t)
            assert zf.lo <= ze.lo <= ze.hi <= zf.hi
            assert zf.width <= ze.hi * F(1, 10 ** 9)  # still extremely tight


# every k/8 in (0, 2) as well, and the integer upper starts of dim_interval
_DYADIC_T = [F(k, 16) for k in range(1, 32)] + [F(2), F(3)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(letters=st.lists(st.integers(3, 12).flatmap(
           lambda m: st.sampled_from((-m, m))), min_size=1, max_size=4),
       n=st.integers(1, 5),
       t=st.sampled_from(_DYADIC_T))
def test_float_lane_contains_exact_lane_at_dyadic_t(letters, n, t):
    # the dyadic bisection midpoints run in the float lane
    from nicfdim.pressure_dim import _letter_matrix, _z_exact, _z_float
    mats = [_letter_matrix((b,)) for b in letters]
    ze = _z_exact(mats, n, t, 96)
    zf = _z_float(mats, n, t)
    assert zf.lo <= ze.lo <= ze.hi <= zf.hi


_SIXTEENTHS = st.integers(1, 48).map(lambda k: F(k, 16))  # integers too
_DIGIT_SELECTIONS = st.one_of(
    st.lists(st.integers(3, 9).flatmap(lambda m: st.sampled_from((-m, m))),
             min_size=1, max_size=3, unique=True).map(AlphabetSelection.explicit),
    st.integers(3, 6).flatmap(lambda lo: st.integers(lo, lo + 2).map(
        lambda trunc: AlphabetSelection.cofinite(lo, trunc))),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sel=_DIGIT_SELECTIONS, t=_SIXTEENTHS,
       depths=st.tuples(st.integers(1, 4), st.integers(1, 4)))
def test_pressure_brackets_at_two_depths_intersect(sel, t, depths):
    # both brackets enclose the one pressure P(t); both depths diverge
    # exactly when the alphabet is cofinite and t <= theta = 1/2
    if sel.is_cofinite and t <= F(1, 2):
        for n in depths:
            with pytest.raises(DivergentTailError):
                pressure_bounds(sel, t, n)
        return
    a, b = (pressure_bounds(sel, t, n) for n in depths)
    assert max(a.lo, b.lo) <= min(a.hi, b.hi)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sel=_DIGIT_SELECTIONS, t=_SIXTEENTHS, depth=st.integers(1, 5))
def test_sign_certificates_never_both_hold(sel, t, depth):
    # both need P(t) = 0, where every Z_n >= 1, so Z_n <= 1 would need an
    # enclosure of width 0 at 1; float-lane sums always have positive width
    assert (_nonneg_at_some_depth(sel, t, depth) is None
            or _nonpos_at_some_depth(sel, t, depth) is None)


def _nonneg_at_some_depth(sel, t, depth):
    """The first ladder depth certifying P(t) >= 0 (Z_n diverges or
    Z_n >= K**t), P(t) <= 0 certificates ignored; None if none does."""
    system = pressure_dim.as_system(sel)
    k_t = pow_iv(system.k_interval().hi, t).hi
    for n in system.ladder(depth, pressure_dim.WORD_BUDGET):
        try:
            z = partition_sum(system, t, n)
        except DivergentTailError:
            return n
        if z.lo >= k_t:
            return n
    return None


def _nonpos_at_some_depth(sel, t, depth):
    """The first ladder depth certifying P(t) <= 0 (Z_n <= 1), P(t) >= 0
    certificates ignored; None if none does."""
    system = pressure_dim.as_system(sel)
    for n in system.ladder(depth, pressure_dim.WORD_BUDGET):
        try:
            z = partition_sum(system, t, n)
        except DivergentTailError:
            return None
        if z.hi <= 1:
            return n
    return None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sel=_DIGIT_SELECTIONS, t=_SIXTEENTHS, depth=st.integers(1, 5))
# about 1 draw in 70 needs depth > 1; these two are decided at 4 and 2
@example(sel=AlphabetSelection.explicit([-3, -4]), t=F(1, 4), depth=5)
@example(sel=AlphabetSelection.explicit([-3, -4]), t=F(5, 16), depth=5)
# t = 0, where Z_n = count**n decides: S3 ties (Z_1 = K**0 = 1) and gets -1,
# PM3 (Z_n = 2**n) and the divergent cofinite(3, 5) get +1
@example(sel=S3, t=F(0), depth=3)
@example(sel=PM3, t=F(0), depth=3)
@example(sel=AlphabetSelection.cofinite(3, 5), t=F(0), depth=3)
def test_one_walk_verdict_matches_the_two_certificates(sel, t, depth):
    # the one walk stops at the first depth holding either certificate and
    # reports a tie there as -1; 0 means no depth holds either
    from nicfdim.pressure_dim import WORD_BUDGET, _sign_verdict
    verdict = _sign_verdict(pressure_dim.as_system(sel), t, depth, WORD_BUDGET)
    nonneg = _nonneg_at_some_depth(sel, t, depth)
    nonpos = _nonpos_at_some_depth(sel, t, depth)
    if verdict == 1:
        assert nonneg is not None and (nonpos is None or nonneg < nonpos)
    elif verdict == -1:
        assert nonpos is not None and (nonneg is None or nonpos <= nonneg)
    else:
        assert verdict == 0 and nonneg is None and nonpos is None


def test_dim_computes_each_sum_and_tail_once(monkeypatch):
    from nicfdim.pressure_dim import _cofinite_tail
    sums, tails = [], []
    partition, tail = pressure_dim.partition_sum, pressure_dim.tail_sum_enclosure

    def recording_sum(system, t, n):
        sums.append((t, n))
        return partition(system, t, n)

    def recording_tail(k, c, s, terms=0):
        tails.append((k, s))
        return tail(k, c, s, terms)

    monkeypatch.setattr(pressure_dim, "partition_sum", recording_sum)
    monkeypatch.setattr(pressure_dim, "tail_sum_enclosure", recording_tail)
    _cofinite_tail.cache_clear()
    for sel, depth, tol in ((PM3, 10, F(1, 50)),
                            (AlphabetSelection.cofinite(3, 5), 4, F(1, 1000))):
        sums.clear()
        dim_interval(sel, depth, tol)
        assert sums and len(sums) == len(set(sums))  # each (t, n) once
    assert tails and len(tails) == len(set(tails))    # each cofinite tail once


def test_pressure_path_never_calls_the_exact_lane(monkeypatch):
    # _z_exact is the test oracle only: integer t runs in the float lane too
    from nicfdim.spectrum import construct, direct_lambda_comparison

    def no_exact_lane(*args):
        raise AssertionError("exact word-tree lane on the pressure path")

    monkeypatch.setattr(pressure_dim, "_z_exact", no_exact_lane)
    dim_interval(PM3, 10, F(1, 50))
    dim_interval(AlphabetSelection.cofinite(3, 5), 4, F(1, 1000))
    pressure_bounds(PM3, 1, 4)
    construct(F(3, 10), "phi_f", 8, 8)
    rows = direct_lambda_comparison(PM3, AlphabetSelection.cofinite(4, 60), [F(1)])
    assert [r.t for r in rows] == [1]


def test_pressure_path_takes_no_integer_roots(monkeypatch):
    # x**t is exact only at integer t, where no root is needed
    from nicfdim import exactnum
    from nicfdim.spectrum import construct, direct_lambda_comparison

    def no_roots(n, k):
        raise AssertionError(f"integer {k}-th root on the pressure path")

    monkeypatch.setattr(exactnum, "integer_nth_root", no_roots)
    absmin = AlphabetSelection.cofinite(3, 5)
    dim_interval(PM3, 10, F(1, 50))
    dim_interval(absmin, 4, F(1, 1000))
    pressure_bounds(absmin, F(7001, 10000), 4)
    partition_sum(vertex_system(4, 12), F(3, 4), 2)
    construct(F(3, 10), "phi_f", 8, 8)
    direct_lambda_comparison(PM3, AlphabetSelection.cofinite(4, 60),
                             [F(3, 5), F(3, 4), F(11, 20), F(1)])


def test_word_bases_cache_matches_cold_call():
    from nicfdim.pressure_dim import _letter_matrix, _word_bases, _z_float
    mats = tuple(_letter_matrix((b,)) for b in (-4, 3, 7))
    warm = [_z_float(mats, 5, t) for t in (F(1, 3), F(3, 8), F(5, 7))]
    cached = [_z_float(mats, 5, t) for t in (F(1, 3), F(3, 8), F(5, 7))]
    _word_bases.cache_clear()
    cold = [_z_float(mats, 5, t) for t in (F(1, 3), F(3, 8), F(5, 7))]
    assert warm == cached == cold


def test_word_bases_cache_stays_bounded():
    from nicfdim.pressure_dim import _word_bases
    _word_bases.cache_clear()
    dim_interval(PM3, 10, F(1, 50))
    dim_interval(AlphabetSelection.explicit([-5, 3, 7]), 6, F(1, 50))
    info = _word_bases.cache_info()
    assert info.misses > info.maxsize  # nine trees through an 8-tree cache
    assert info.currsize <= info.maxsize


def test_dim_walks_each_word_tree_once(monkeypatch):
    from nicfdim.pressure_dim import _word_bases
    depths = []
    original = pressure_dim._z_float

    def recording(mats, n, t):
        depths.append(n)
        return original(mats, n, t)

    monkeypatch.setattr(pressure_dim, "_z_float", recording)
    _word_bases.cache_clear()
    dim_interval(PM3, 10, F(1, 50))
    info = _word_bases.cache_info()
    assert len(depths) > len(set(depths))  # trees are probed more than once
    assert info.misses == len(set(depths))


def test_word_bases_overflow_is_not_cached():
    # the alphabet of test_dim_overflow_exits_numeric_range
    big = 10 ** 12
    sel = AlphabetSelection.explicit([-big, big])
    for _ in range(2):
        with pytest.raises(NumericRangeError):
            partition_sum(sel, F(1, 2), 16)


def test_dim_intervals_pinned():
    # endpoints of the exact-lane-at-dyadic-t implementation; moving the
    # dyadic midpoints to the float lane must not change a single one
    cases = (
        (PM3, 10, F(5, 16), F(21, 64)),
        (AlphabetSelection.explicit([-5, 3, 7]), 6, F(45, 128), F(3, 8)),
        (AlphabetSelection.cofinite(3, 5), 4, F(105, 128), F(127, 128)),
    )
    for sel, depth, lo, hi in cases:
        di = dim_interval(sel, depth, F(1, 50))
        assert (di.lo, di.hi) == (lo, hi)


def test_classify_vertex_system():
    assert classify_nature(vertex_system(4, 12)) == "strongly regular"


def test_over_budget_depth_is_refused_before_any_word(monkeypatch):
    # 36 letters at depth 6 are 36**6 ~ 2.2e9 words, over WORD_BUDGET
    def walk(*_):
        raise AssertionError("a word tree was walked")

    monkeypatch.setattr(pressure_dim, "_word_bases", walk)
    system = DigitIfs(AlphabetSelection.cofinite(3, 20))
    for bound in (partition_sum, pressure_bounds):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="2,176,782,336 words"):
            bound(system, F(3, 4), 6)
        assert time.perf_counter() - start < 1


def test_ladder_never_exceeds_the_word_budget():
    system = DigitIfs(AlphabetSelection.abs_range(3, 4))
    ladder = system.ladder(12, pressure_dim.WORD_BUDGET)
    assert system.ladder(12, 10 ** 7) == ladder
    assert system.letter_count ** ladder[-1] <= pressure_dim.WORD_BUDGET


def _walk_down_ladder(system, max_depth, word_budget):
    """The ladder with its cap walked down from max_depth, one depth a step."""
    cap = max_depth
    while system._over_budget(cap, min(word_budget, pressure_dim.WORD_BUDGET)):
        cap -= 1
    ns = []
    n = 1
    while n < cap:
        ns.append(n)
        n *= 2
    return ns + [cap]


def test_ladder_matches_a_walk_down_reference():
    letters = tuple(vertex_alphabet(40))
    for count in range(1, 41):  # a loop system has at least one letter
        system = LoopIfs(letters[:count])
        for max_depth in range(1, 65):
            for budget in (1, 100, 4096, pressure_dim.WORD_BUDGET, 10 ** 7):
                assert (system.ladder(max_depth, budget)
                        == _walk_down_ladder(system, max_depth, budget))


def _similarity_root(ratios, families):
    """The float root s of sum r**s + sum b**s / (1 - r**s) = 1."""
    def excess(s):
        return (sum(float(r) ** s for r in ratios)
                + sum(float(b) ** s / (1 - float(r) ** s) for b, r in families)
                - 1)
    lo, hi = 1e-9, 64.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    return (lo + hi) / 2


def _recorded_probes(monkeypatch):
    """The t of every ``_sign_verdict`` walk, recorded as it is made."""
    probes = []
    verdict = pressure_dim._sign_verdict

    def recording(system, t, max_depth, word_budget):
        probes.append(t)
        return verdict(system, t, max_depth, word_budget)

    monkeypatch.setattr(pressure_dim, "_sign_verdict", recording)
    return probes


def test_dim_above_three_is_enclosed(monkeypatch):
    # 100 letters of ratio 1/2 have dimension log2(100) = 6.64: the right
    # end comes from doubling t, certified, never an uncertified 3
    probes = _recorded_probes(monkeypatch)
    di = dim_interval(SimilarityIfs(ratios=(F(1, 2),) * 100), 4, F(1, 100))
    assert di.contains(F(math.log2(100))) and di.width <= F(1, 100)
    assert probes[:4] == [1, 2, 4, 8]
    assert len(probes) == len(set(probes))


def test_dim_walks_no_t_twice_across_undecided_probes(monkeypatch):
    # the vertex system has dimension 1 and leaves t = 1 undecided
    probes = _recorded_probes(monkeypatch)
    di = dim_interval(vertex_system(4, 12), 2, F(1, 1000))
    assert probes[:2] == [1, 2] and di.contains(1) and di.hi < F(5, 4)
    assert len(probes) == len(set(probes))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ratios=st.lists(st.integers(2, 9).map(lambda k: F(1, k)),
                       min_size=1, max_size=60),
       families=st.lists(st.tuples(st.integers(2, 9), st.integers(2, 9)).map(
           lambda p: (F(1, p[0]), F(1, p[1]))), max_size=1))
@example(ratios=[F(1, 2)] * 60, families=[(F(1, 2), F(1, 2))])  # dimension 6
def test_similarity_dim_encloses_the_float_root(ratios, families):
    system = SimilarityIfs(ratios=tuple(ratios), families=tuple(families))
    tol = F(1, 64)
    di = dim_interval(system, 1, tol)
    root = _similarity_root(ratios, families)
    assert di.lo - 1e-9 <= root <= di.hi + 1e-9
    assert di.width <= tol


@pytest.mark.parametrize("tol", [0, -1])
def test_dim_tolerance_must_be_positive(tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        dim_interval(PM3, 4, tol)


def test_dim_without_a_right_end_is_out_of_range(monkeypatch):
    # never an uncertified right end: every probe certifying P >= 0 runs
    # out of probes and raises
    monkeypatch.setattr(pressure_dim, "_sign_verdict", lambda *_: 1)
    with pytest.raises(NumericRangeError, match="certifies P"):
        dim_interval(PM3, 4, F(1, 50))


def test_float_range_depth_is_refused_before_any_word(monkeypatch):
    # a one-letter tree stays within the word budget at every depth, but
    # from depth 387 on every denominator leaves the double range
    from nicfdim.pressure_dim import _FLOAT_DEPTH, _letter_matrix, _word_bases
    with pytest.raises(NumericRangeError, match="float range"):
        _word_bases((_letter_matrix((3,)),), _FLOAT_DEPTH)

    def walk(*_):
        raise AssertionError("a word tree was walked")

    monkeypatch.setattr(pressure_dim, "_word_bases", walk)
    for t in (F(1, 2), F(1)):
        with pytest.raises(NumericRangeError, match="depth-100000 word"):
            partition_sum(S3, t, 100_000)
    assert partition_sum(S3, 0, 100_000).lo == 1  # t = 0 walks no word
    # a divergent tail still raises first (the budget lifted to reach it)
    monkeypatch.setattr(DigitIfs, "_over_budget", lambda *_: False)
    cofinite = AlphabetSelection.cofinite(3, 3)
    with pytest.raises(DivergentTailError):
        partition_sum(cofinite, F(1, 2), _FLOAT_DEPTH)
    with pytest.raises(NumericRangeError, match="float range"):
        partition_sum(cofinite, F(3, 4), _FLOAT_DEPTH)


@pytest.mark.parametrize("depth", [0, -3])
@pytest.mark.parametrize("system", [
    DigitIfs(PM3), DigitIfs(S3), SimilarityIfs(ratios=(F(1, 3), F(1, 3)))],
    ids=["pm3", "3", "similarity"])
def test_depth_cap_below_one_is_refused(system, depth):
    # the ladder turns the cap into depths, so it refuses a cap that
    # allows none, instead of walking depth 1 or failing deeper down
    with pytest.raises(ValueError, match=f"max_depth >= 1, got {depth}"):
        system.ladder(depth, pressure_dim.WORD_BUDGET)
    with pytest.raises(ValueError, match="max_depth"):
        dim_interval(system, depth, F(1, 50))


def test_similarity_system_needs_a_letter():
    with pytest.raises(ValueError, match="empty alphabet"):
        SimilarityIfs()
    assert SimilarityIfs(ratios=(F(1, 2),)).letter_count == 1
    assert SimilarityIfs(families=((F(1, 2), F(1, 3)),)).letter_count == 1
