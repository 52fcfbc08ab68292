"""Exact norms, distortion, letter constants, the induced alphabet."""

import math
import random
from fractions import Fraction as F

import pytest

from nicfdim.cf_core import Word
from nicfdim.ledger import letter_constants
from nicfdim.nicf_system import (
    K_GLOBAL,
    K_PREC5,
    LoopLetter,
    alpha_interval,
    beta4_interval,
    deriv_at,
    distortion_constant,
    g_ratio,
    k4_corrected_interval,
    k4_printed_interval,
    k_prec4_interval,
    nicf_barred_graph,
    norm_bounds,
    run_factor_interval,
    vertex_alphabet,
)
from nicfdim.spectrum import phi_f_ordering
from nicfdim.symbolic import first_return_loops

HALF = F(1, 2)


def random_f_word(rng, max_len=30, max_mag=30):
    n = rng.randint(2, max_len)
    return Word([rng.choice((-1, 1)) * rng.randint(3, max_mag) for _ in range(n)])


def test_deriv_examples():
    assert deriv_at([3], F(-1, 2)) == F(4, 25)
    assert deriv_at([3], F(1, 2)) == F(4, 49)
    assert deriv_at([3, -3, 3], F(0)) == F(1, 441)
    with pytest.raises(ValueError):
        deriv_at([2], F(-1, 4))  # outside the domain of a word ending in 2


def test_norm_bounds_examples():
    assert norm_bounds([2, 3]) == (F(1, 64), F(1, 36))
    for k in (3, 5, 11):
        assert norm_bounds([k]) == (1 / (k + HALF) ** 2, 1 / (k - HALF) ** 2)
    # dense sampling oracle
    rng = random.Random(2)
    for _ in range(40):
        w = random_f_word(rng, max_len=8)
        inf, sup = norm_bounds(w)
        for i in range(21):
            x = F(-1, 2) + F(i, 20)
            assert inf <= deriv_at(w, x) <= sup


def test_norm_bounds_two_runs_growth():
    # sup norms of 2-run words stay consistent with q_n <= (1+sqrt2)^n
    from nicfdim.exactnum import surd_enclosure
    growth = 1 + surd_enclosure(2, 96)
    pw = growth
    for r in range(1, 40):
        w = Word([2] * r)
        assert 1 <= w.q[-1] and F(w.q[-1]) <= pw.lo
        pw = pw * growth


def test_distortion_examples():
    assert distortion_constant([3]) == F(49, 25)
    rng = random.Random(7)
    for _ in range(200):
        w = random_f_word(rng, max_len=12)
        assert distortion_constant(w) <= K_GLOBAL


def test_distortion_vertex_words():
    # words over the induced alphabet end in a digit of size >= 3
    rng = random.Random(13)
    letters = vertex_alphabet(30)
    for _ in range(200):
        digits = []
        for _ in range(rng.randint(1, 5)):
            digits.extend(rng.choice(letters).word_digits)
        assert distortion_constant(Word(digits)) <= K_GLOBAL


def test_distortion_words_preceding_5():
    # letters before +-5 have runs of length <= 4, so K <= (8/5)**2
    rng = random.Random(17)
    letters = vertex_alphabet(20)  # exactly the letters preceding -5
    for _ in range(300):
        digits = []
        for _ in range(rng.randint(1, 6)):
            digits.extend(rng.choice(letters).word_digits)
        assert distortion_constant(Word(digits)) <= K_PREC5


def test_ratio_bounds_lemmas():
    rng = random.Random(19)
    a = alpha_interval()
    for _ in range(500):
        w = random_f_word(rng)
        ratio = w.q_ratio()
        assert ratio <= a.hi
        b = abs(w.last)
        assert ratio <= 1 / (b - a.hi)
        assert ratio >= 1 / (b + a.hi)


def test_g_ratio_bounds():
    rng = random.Random(23)
    a = alpha_interval()
    xs = [F(-1, 2), F(-1, 4), F(0), F(1, 4), F(1, 2)]
    for _ in range(300):
        w = random_f_word(rng, max_len=15)
        b = abs(w.last)
        for x in xs:
            g = g_ratio(w, x)
            assert g <= F(3, 2) / (b - a.hi)
            assert g >= F(2, 3) / (b + a.hi)


def test_two_run_ratio_bound():
    rng = random.Random(29)
    for _ in range(200):
        k = rng.randint(1, 40)
        sign = rng.choice((-1, 1))
        prefix = [rng.choice((-1, 1)) * rng.randint(3, 9)
                  for _ in range(rng.randint(0, 4))]
        digits = prefix + [sign * 3] + [sign * 2] * k + [sign * rng.randint(3, 9)]
        w = Word(digits)
        assert w.q_ratio() <= F(k + 2, 2 * k + 5)


def test_fixed_point_expansions():
    from nicfdim.cf_core import nicf_digits
    s5 = F(math.isqrt(5 * 4 ** 90), 2 ** 90)
    x = (3 - s5) / 2  # solves x = 1/(3 - x)
    assert nicf_digits(x, 6) == [3, -3, 3, -3, 3, -3]
    s3 = F(math.isqrt(3 * 4 ** 90), 2 ** 90)
    y = 2 - s3  # solves x = 1/(4 - x)
    assert nicf_digits(y, 6) == [4, -4, 4, -4, 4, -4]


def test_system_constants_widths():
    for iv in (alpha_interval(), k_prec4_interval(), k4_printed_interval()):
        assert iv.width <= F(1, 2 ** 48)
    assert K_GLOBAL == F(25, 9)
    assert K_PREC5 == F(64, 25)
    # the printed K_4 simplification is below 1; the derivation-consistent
    # constant is the ratio-based one
    assert k4_printed_interval().hi < 1
    assert k4_corrected_interval().lo > 1
    assert k_prec4_interval().lo > 1
    # beta4 = 2 - sqrt3 is the digit->4 fixed-point ratio
    b4 = beta4_interval()
    assert b4.lo <= F(2679, 10000) + F(1, 100) and b4.hi >= F(26, 100)


def test_surd_constants_are_enclosed_at_surd_bits():
    from nicfdim.pressure_dim import DigitIfs
    from nicfdim.symbolic import AlphabetSelection
    digit_k = [DigitIfs(AlphabetSelection.explicit([b])).k_interval()
               for b in (3, 4)]
    constants = (alpha_interval(), beta4_interval(), k_prec4_interval(),
                 run_factor_interval(), k4_printed_interval(),
                 k4_corrected_interval(), *digit_k)
    for iv in constants:
        assert 0 < iv.width <= F(1, 2 ** 120)


def test_letter_constants_plain():
    a = alpha_interval()
    m, big = letter_constants(4)
    assert big.contains((F(3, 2) / (4 - a.mid)) ** 2) or (
        big.lo <= (F(3, 2)) ** 2 / (4 - a.lo) ** 2
    )
    assert m.lo <= (F(2, 3)) ** 2 / (4 + a.lo) ** 2 <= m.hi + F(1, 2 ** 40)
    with pytest.raises(ValueError, match="constants defined on F"):
        letter_constants(2)


def test_letter_constants_bracket_norms():
    rng = random.Random(31)
    letters = vertex_alphabet(100)
    sample = rng.sample(letters, 100)
    for letter in sample:
        m, big = letter_constants(letter)
        inf, sup = norm_bounds(letter.word)
        assert m.hi <= sup
        assert sup <= big.hi + F(1, 2 ** 60)
        assert m.hi <= inf + F(1, 2 ** 60)


def test_letter_constants_loop_example():
    m, big = letter_constants(LoopLetter(1, 1, 3))
    # M = K * (1/4) * (3 - 1/2)**-2 = (25/9)(1/4)(4/25) = 1/9
    assert big.contains(F(1, 9))
    _, sup = norm_bounds([2, 3])
    assert sup <= big.hi


def test_vertex_alphabet_prefix():
    strs = [str(l) for l in vertex_alphabet(56)]
    assert strs[:4] == ["-3", "3", "-4", "4"]
    assert strs[4:10] == ["(-2)(-3)", "(-2)^2(-3)", "(-2)^3(-3)",
                          "(2)(3)", "(2)^2(3)", "(2)^3(3)"]
    assert strs[10:15] == ["(-2)(-4)", "(-2)^2(-4)", "(-2)^3(-4)",
                           "(-2)^4(-4)", "(-2)^4(-3)"]
    assert strs[15:20] == ["(2)(4)", "(2)^2(4)", "(2)^3(4)",
                           "(2)^4(4)", "(2)^4(3)"]
    assert strs[20:22] == ["-5", "5"]
    assert strs[22:29] == ["(-2)(-5)", "(-2)^2(-5)", "(-2)^3(-5)",
                           "(-2)^4(-5)", "(-2)^5(-5)", "(-2)^5(-4)",
                           "(-2)^5(-3)"]
    assert strs[29:36] == ["(2)(5)", "(2)^2(5)", "(2)^3(5)", "(2)^4(5)",
                           "(2)^5(5)", "(2)^5(4)", "(2)^5(3)"]
    assert strs[36:38] == ["-6", "6"]
    assert strs[38:47] == ["(-2)(-6)", "(-2)^2(-6)", "(-2)^3(-6)",
                           "(-2)^4(-6)", "(-2)^5(-6)", "(-2)^6(-6)",
                           "(-2)^6(-5)", "(-2)^6(-4)", "(-2)^6(-3)"]
    assert len(strs) == 56


def test_vertex_alphabet_matches_first_return_loops():
    g = nicf_barred_graph(6)
    loops = first_return_loops(g, "v", 5)
    produced = set()
    for ws in loops.values():
        for w in ws:
            produced.add(tuple(e.value for e in w))
    letters = {
        l.word_digits
        for l in vertex_alphabet(10_000)
        if len(l) <= 5 and l.k <= 6
    }
    assert produced == letters


def test_loop_letter_validation():
    with pytest.raises(ValueError):
        LoopLetter(0, 1, 3)
    with pytest.raises(ValueError):
        LoopLetter(1, -1, 3)
    with pytest.raises(ValueError):
        LoopLetter(1, 2, 2)
    assert LoopLetter(-1, 2, 4).word_digits == (-2, -2, -4)
    assert len(LoopLetter(1, 0, 7)) == 1


def test_letter_constants_compose_on_word_triples():
    # M_b and m_b really do bracket the effect of inserting a letter:
    # m_b ||phi'_{w w'}|| <= ||phi'_{w b w'}|| <= M_b ||phi'_{w w'}||
    rng = random.Random(37)
    for _ in range(150):
        left = [rng.choice((-1, 1)) * rng.randint(3, 9)
                for _ in range(rng.randint(1, 6))]
        right = [rng.choice((-1, 1)) * rng.randint(3, 9)
                 for _ in range(rng.randint(1, 6))]
        b = rng.choice((-1, 1)) * rng.randint(3, 12)
        m, big = letter_constants(b)
        _, sup_plain = norm_bounds(Word(left + right))
        _, sup_with = norm_bounds(Word(left + [b] + right))
        assert sup_with <= big.hi * sup_plain
        assert sup_with >= m.lo * sup_plain


def test_distortion_sandwich_for_inserted_blocks():
    # K_w ||phi'_t|| bounds the effect of splicing a block t into w w':
    # K_w^-1 inf|phi'_t| ||phi'_{w w'}|| <= ||phi'_{w t w'}||
    #                                    <= K_w ||phi'_t|| ||phi'_{w w'}||
    rng = random.Random(43)
    for _ in range(120):
        w = [rng.choice((-1, 1)) * rng.randint(3, 9)
             for _ in range(rng.randint(1, 5))]
        tau = [rng.choice((-1, 1)) * rng.randint(3, 9)
               for _ in range(rng.randint(1, 5))]
        wb = [rng.choice((-1, 1)) * rng.randint(3, 9)
              for _ in range(rng.randint(1, 5))]
        k_w = distortion_constant(Word(w))
        inf_t, sup_t = norm_bounds(Word(tau))
        _, sup_plain = norm_bounds(Word(w + wb))
        _, sup_spliced = norm_bounds(Word(w + tau + wb))
        assert sup_spliced <= k_w * sup_t * sup_plain
        assert sup_spliced >= inf_t / k_w * sup_plain


def _documented_block_order(m_max):
    """The block layout of ``vertex_alphabet``'s docstring as (sign, j, k)
    triples, for terminal magnitudes up to m_max."""
    out = [(-1, 0, 3), (1, 0, 3), (-1, 0, 4), (1, 0, 4)]
    for m in range(3, m_max + 1):
        if m >= 5:
            out += [(-1, 0, m), (1, 0, m)]
        for sign in (-1, 1):
            out += [(sign, r, m) for r in range(1, m + 1)]
            out += [(sign, m, l) for l in range(m - 1, 2, -1)]
    return out


def test_letter_orderings_follow_the_documented_layout():
    expected = _documented_block_order(60)
    got = [(l.sign, l.j, l.k) for l in vertex_alphabet(len(expected))]
    assert got == expected
    assert len(set(got)) == len(got)
    assert phi_f_ordering(9) == [-3, 3, -4, 4, -5, 5, -6, 6, -7]
