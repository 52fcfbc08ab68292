"""Interval substrate: surds, rational powers, integral-test tails."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nicfdim.exactnum import (
    DivergentTailError,
    Interval,
    NumericRangeError,
    exp_interval,
    float_down,
    float_up,
    integer_nth_root,
    interval_pow,
    log_interval,
    pow_enclosure,
    surd_enclosure,
    tail_sum_enclosure,
)


def _longdiv_sqrt(n: int, digits: int) -> F:
    # classic digit-by-digit square root oracle, scaled to a power of 100
    scaled = n * 100 ** digits
    root = math.isqrt(scaled)
    return F(root, 10 ** digits)


def test_interval_basics():
    iv = Interval(F(1, 3), F(1, 2))
    assert iv.contains(F(2, 5))
    assert not iv.contains(F(3, 5))
    assert (iv + 1).lo == F(4, 3)
    assert (-iv).hi == -F(1, 3)
    assert (iv * 2).hi == 1
    with pytest.raises(ValueError):
        Interval(F(1), F(0))
    with pytest.raises(ZeroDivisionError):
        Interval(F(-1), F(1)).reciprocal()


def test_interval_pow_int():
    iv = Interval(F(-2), F(3))
    assert (iv ** 2) == Interval(F(0), F(9))
    assert (iv ** 3) == Interval(F(-8), F(27))
    assert (Interval(F(1, 2), F(2)) ** -1) == Interval(F(1, 2), F(2))


def test_interval_mul_inclusion_monotone():
    rng = random.Random(11)
    for _ in range(200):
        a, b = sorted(F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(2))
        c, d = sorted(F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(2))
        inner = Interval(a, b)
        outer = Interval(a - 1, b + 1)
        other = Interval(c, d)
        assert outer.contains(inner)
        assert (outer * other).contains(inner * other)
        assert (outer + other).contains(inner + other)


def test_surd_bracket_and_width():
    for n in (2, 3, 5):
        for bits in (8, 16, 64):
            iv = surd_enclosure(n, bits)
            assert iv.lo ** 2 <= n <= iv.hi ** 2
            assert iv.width <= F(1, 2 ** (bits - 1))


def test_surd_width_halves_per_bit():
    for n in (2, 3, 5):
        prev = surd_enclosure(n, 8).width
        for bits in range(9, 40):
            w = surd_enclosure(n, bits).width
            assert w <= prev / 2
            prev = w


def test_surd_coarse_example():
    iv = surd_enclosure(5, 4)
    assert iv.contains(F(2236, 1000)) or (iv.lo <= F(22360679, 10 ** 7) <= iv.hi)
    assert iv.width <= F(1, 8)


def test_surd_unsupported():
    with pytest.raises(ValueError, match="unsupported surd"):
        surd_enclosure(7, 32)
    with pytest.raises(ValueError):
        surd_enclosure(2, 0)


def test_surd_against_long_division_oracle():
    for n in (2, 3, 5):
        oracle = _longdiv_sqrt(n, 30)
        iv = surd_enclosure(n, 64)
        assert iv.lo - F(1, 10 ** 29) <= oracle <= iv.hi + F(1, 10 ** 29)


def test_k4_propagation_through_surd_endpoints():
    # outward interval quotient for (4 - s)/(1 + s), s enclosing sqrt3:
    # lower endpoint pairs small numerator with LARGE denominator
    s3 = surd_enclosure(3, 64)
    k4_lo = (F(4) - s3.hi) ** 2 / (1 + s3.hi) ** 2
    k4_hi = (F(4) - s3.lo) ** 2 / (1 + s3.lo) ** 2
    assert k4_lo <= k4_hi
    root = _longdiv_sqrt(3, 30)  # long-division square-root oracle
    oracle = (F(4) - root) ** 2 / (1 + root) ** 2
    assert k4_lo - F(1, 10 ** 25) <= oracle <= k4_hi + F(1, 10 ** 25)
    # and the library constant built from Interval arithmetic agrees
    from nicfdim.nicf_system import k4_printed_interval
    k4 = k4_printed_interval()
    assert k4.lo <= oracle + F(1, 10 ** 25) and oracle - F(1, 10 ** 25) <= k4.hi


def test_integer_nth_root():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.getrandbits(rng.randint(1, 120))
        k = rng.randint(1, 9)
        r = integer_nth_root(n, k)
        assert r ** k <= n < (r + 1) ** k


def test_pow_integer_exponent_exact():
    assert pow_enclosure(F(4, 25), 1) == Interval.point(F(4, 25))
    assert pow_enclosure(F(4, 25), -2) == Interval.point(F(625, 16))
    assert pow_enclosure(F(7, 3), 0) == Interval.point(F(1))


def test_pow_identity_base():
    assert pow_enclosure(F(1), F(17, 5)) == Interval.point(F(1))


def test_pow_exact_root_of_square():
    assert pow_enclosure(F(4, 25), F(1, 2)) == Interval.point(F(2, 5))
    assert pow_enclosure(F(27, 8), F(1, 3)) == Interval.point(F(3, 2))


def test_pow_random_containment():
    rng = random.Random(17)
    for _ in range(120):
        base = F(rng.randint(1, 400), rng.randint(1, 400))
        t = F(rng.randint(-8, 8), rng.randint(1, 6))
        iv = pow_enclosure(base, t, 64)
        val = float(base) ** float(t)
        assert float(iv.lo) <= val * (1 + 1e-12) and val * (1 - 1e-12) <= float(iv.hi)
        assert iv.lo > 0


def test_pow_relative_width():
    iv = pow_enclosure(F(2), F(1, 2), 80)
    assert iv.width / iv.lo <= F(1, 2 ** 70)


def test_interval_pow_monotone_cases():
    x = Interval(F(1, 4), F(1, 2))
    up = interval_pow(x, F(3, 4), 64)
    dn = interval_pow(x, F(-3, 4), 64)
    assert float(up.lo) <= 0.25 ** 0.75 <= float(up.hi) * (1 + 1e-12)
    assert float(dn.lo) <= 0.5 ** -0.75 <= float(dn.hi)


def test_interval_pow_point_calls_pow_enclosure_once(monkeypatch):
    import nicfdim.exactnum as ex
    calls = []
    original = ex.pow_enclosure

    def counting(base, t, bits=64):
        calls.append((base, t))
        return original(base, t, bits)

    monkeypatch.setattr(ex, "pow_enclosure", counting)
    for x, t in ((F(3, 7), F(2, 5)), (F(22, 7), F(-1, 3)), (F(1, 2), F(3))):
        calls.clear()
        iv = interval_pow(x, t, 96)
        assert len(calls) == 1
        assert iv == original(x, t, 96)
    calls.clear()
    interval_pow(Interval(F(1, 3), F(1, 2)), F(1, 3), 96)
    assert len(calls) == 2  # a proper interval still needs both ends


def test_tail_known_rational_case():
    # sum_{l >= j+1} (l + 1/2)**-2 >= 1/(j + 3/2), exactly
    for j in (1, 3, 10, 50):
        iv = tail_sum_enclosure(j + 1, F(1, 2), 1)
        assert iv.lo >= F(1, 1) / (j + F(3, 2))
        assert iv.hi >= iv.lo


def test_tail_against_partial_sum_oracle():
    # k=5, c=(3-sqrt5)/2, s=1: 1e5 explicit terms plus integral remainder
    from nicfdim.nicf_system import alpha_interval
    a = alpha_interval()
    iv = tail_sum_enclosure(5, a, 1, terms=4)
    c = float(a.lo)
    partial = math.fsum((j + c) ** -2 for j in range(5, 100_000))
    remainder = 1.0 / (100_000 + c)
    oracle = partial + remainder
    assert float(iv.lo) - 1e-6 <= oracle <= float(iv.hi) + 1e-6
    assert abs(oracle - 0.2041) < 1e-3


def test_tail_partial_plus_remainder_inside_for_every_split():
    c = F(1, 2)
    iv = tail_sum_enclosure(3, c, 1)
    for n_terms in range(0, 30):
        partial = sum((F(j) + c) ** -2 for j in range(3, 3 + n_terms))
        lower_remainder = 1 / (F(3 + n_terms) + c)
        assert iv.lo <= partial + lower_remainder <= iv.hi


def test_tail_more_terms_tightens():
    a = F(2, 5)
    wide = tail_sum_enclosure(4, a, 1, terms=0)
    tight = tail_sum_enclosure(4, a, 1, terms=16)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi
    assert tight.width < wide.width


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(2, 60), terms=st.integers(0, 4),
       s=st.sampled_from([F(j, 16) for j in range(9, 48) if j % 8]))
def test_float_tail_contains_exact_tail(k, terms, s):
    # at fractional 2s the tail runs in the float lane; the oracle is the
    # same integral-test formula with exact (root-taking) powers
    c, two_s = F(1, 2), 2 * s
    lo = hi = F(0)
    for j in range(k, k + terms):
        f = interval_pow(c + j, -two_s, 96)
        lo += f.lo
        hi += f.hi
    m = k + terms
    integral = interval_pow(c + m, 1 - two_s, 96) / (two_s - 1)
    first = interval_pow(c + m, -two_s, 96)
    exact = Interval(lo + integral.lo, hi + first.hi + integral.hi)
    assert tail_sum_enclosure(k, c, s, terms=terms).contains(exact)


def test_tail_divergence():
    with pytest.raises(DivergentTailError, match="divergent tail"):
        tail_sum_enclosure(3, F(1, 2), F(1, 2))
    with pytest.raises(DivergentTailError):
        tail_sum_enclosure(1, F(0), F(1, 4))


def test_float_bridges():
    x = F(1, 3)
    assert F(float_down(x)) <= x <= F(float_up(x))
    assert float_down(x) <= float_up(x)
    y = F(7, 8)  # exactly representable
    assert float_down(y) == float_up(y) == 0.875


@pytest.mark.parametrize("x", [F(10 ** 320), F(-10 ** 320), F(2 ** 1024)])
def test_float_bridges_refuse_values_beyond_the_doubles(x):
    for bridge in (float_down, float_up):
        with pytest.raises(NumericRangeError):
            bridge(x)


def test_log_exp_enclosures():
    iv = log_interval(F(2))
    assert float(iv.lo) <= math.log(2) <= float(iv.hi)
    assert log_interval(F(1)) == Interval.point(F(0))
    ev = exp_interval(Interval(F(0), F(1)))
    assert float(ev.lo) <= 1 <= math.e <= float(ev.hi)
    with pytest.raises(ValueError):
        log_interval(F(0))
