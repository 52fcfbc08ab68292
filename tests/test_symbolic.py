"""Graph systems, word enumeration, first-return loops, selections."""

import itertools

import pytest

from nicfdim import symbolic
from nicfdim.cli import parse_alphabet_spec
from nicfdim.cf_core import is_admissible_digits
from nicfdim.nicf_system import BarredLetter, nicf_barred_graph
from nicfdim.symbolic import (
    AlphabetSelection,
    GraphSystem,
    count_admissible_words,
    enumerate_words,
    first_return_loops,
    is_admissible,
)


def cycle4_graph() -> GraphSystem:
    initial = {1: "v", 2: "w", 3: "z", 4: "z"}
    terminal = {1: "w", 2: "z", 3: "v", 4: "w"}
    return GraphSystem(("v", "w", "z"), (1, 2, 3, 4), initial, terminal)


def triangle6_graph() -> GraphSystem:
    initial = {"a": "v", "b": "w", "c": "w", "d": "z", "e": "v", "f": "z"}
    terminal = {"a": "w", "b": "v", "c": "z", "d": "w", "e": "z", "f": "v"}
    return GraphSystem(("v", "w", "z"), tuple("abcdef"), initial, terminal)


def test_graph_validation():
    with pytest.raises(ValueError, match="no successor"):
        GraphSystem(("v", "w"), ("a",), {"a": "v"}, {"a": "w"})
    with pytest.raises(ValueError, match="no outgoing"):
        GraphSystem(("v", "w"), ("a",), {"a": "v"}, {"a": "v"})


def test_is_admissible_plain_nicf():
    assert is_admissible_digits([2, 3])
    assert not is_admissible_digits([2, -3])
    assert is_admissible_digits([5])
    assert is_admissible_digits([-2, -2, -3])
    assert not is_admissible_digits([-2, 2])
    with pytest.raises(ValueError, match="unknown letter"):
        is_admissible([9], nicf_barred_graph(5))


def test_enumerate_full_shift_count():
    g = GraphSystem(("*",), (-3, 3), {-3: "*", 3: "*"}, {-3: "*", 3: "*"})
    words = list(enumerate_words(g, [-3, 3], 3))
    assert len(words) == 8
    assert len(set(words)) == 8


def test_enumerate_restricted_barred_pairs():
    g = nicf_barred_graph(4)
    two = BarredLetter(2, False)
    three_bar = BarredLetter(3, True)
    three = BarredLetter(3, False)
    letters = [two, three_bar, three]
    words = list(enumerate_words(g, letters, 2))
    # brute-force oracle over all 9 pairs
    expected = [
        (e, f) for e, f in itertools.product(letters, repeat=2) if g.allowed(e, f)
    ]
    assert sorted(map(repr, words)) == sorted(map(repr, expected))
    assert len(words) == 5


def test_enumerate_lengths_zero_and_one():
    g = cycle4_graph()
    assert list(enumerate_words(g, g.edges, 0)) == [()]
    assert len(list(enumerate_words(g, g.edges, 1))) == 4


def test_enumeration_count_matches_matrix_power():
    for g in (cycle4_graph(), triangle6_graph(), nicf_barred_graph(4)):
        for n in range(1, 6):
            words = list(enumerate_words(g, g.edges, n))
            assert len(words) == count_admissible_words(g, g.edges, n)
            assert len(set(words)) == len(words)


def test_first_return_cycle4():
    g = cycle4_graph()
    loops = first_return_loops(g, "v", 9)
    flat = [w for ws in loops.values() for w in ws]
    assert sorted(flat) == sorted(
        [(1, 2, 3), (1, 2, 4, 2, 3), (1, 2, 4, 2, 4, 2, 3),
         (1, 2, 4, 2, 4, 2, 4, 2, 3)])
    loops_w = first_return_loops(g, "w", 9)
    assert (2, 3, 1) in loops_w[3] and (2, 4) in loops_w[2]
    assert sum(len(ws) for ws in loops_w.values()) == 2
    loops_z = first_return_loops(g, "z", 9)
    assert sorted(w for ws in loops_z.values() for w in ws) == [(3, 1, 2), (4, 2)]


def test_first_return_triangle6():
    g = triangle6_graph()
    loops = first_return_loops(g, "v", 8)
    flat = {tuple(w) for ws in loops.values() for w in ws}
    expected = set()
    for n in range(0, 4):
        expected.add(tuple("a" + "cd" * n + "b"))
        expected.add(tuple("a" + "cd" * n + "cf"))
        expected.add(tuple("e" + "dc" * n + "f"))
        expected.add(tuple("e" + "dc" * n + "db"))
    expected = {w for w in expected if len(w) <= 8}
    assert flat == expected


def test_first_return_prefix_property():
    for g, v in ((cycle4_graph(), "v"), (triangle6_graph(), "v"),
                 (nicf_barred_graph(4), "v")):
        loops = first_return_loops(g, v, 6)
        for ws in loops.values():
            for w in ws:
                assert g.initial[w[0]] == v and g.terminal[w[-1]] == v
                for m in range(1, len(w)):
                    assert g.terminal[w[m - 1]] != v


def test_first_return_brute_force_crosscheck():
    g = triangle6_graph()
    loops = first_return_loops(g, "v", 6)
    for n in range(1, 7):
        brute = []
        for w in enumerate_words(g, g.edges, n):
            if g.initial[w[0]] != "v" or g.terminal[w[-1]] != "v":
                continue
            if any(g.terminal[w[m - 1]] == "v" for m in range(1, len(w))):
                continue
            brute.append(w)
        assert sorted(map(repr, loops[n])) == sorted(map(repr, brute))


def test_selection_forms():
    sel = AlphabetSelection.explicit([-3, 3])
    assert sel.letters == (-3, 3) and not sel.is_cofinite
    sel = AlphabetSelection.abs_range(3, 4)
    assert sel.letters == (-3, 3, -4, 4)
    sel = AlphabetSelection.cofinite(3, 6)
    assert sel.letters == (-3, 3, -4, 4, -5, 5, -6, 6)
    assert sel.is_cofinite and sel.trunc == 6
    assert parse_alphabet_spec("absmin:3:6") == sel
    with pytest.raises(ValueError):
        AlphabetSelection.abs_range(2, 5)
    with pytest.raises(ValueError):
        AlphabetSelection.explicit([])
    with pytest.raises(ValueError):
        AlphabetSelection.explicit([3, 3])


def test_a_selection_is_its_letters_and_truncation():
    assert AlphabetSelection.explicit([-3, 3]) == AlphabetSelection.abs_range(3, 3)
    assert AlphabetSelection.cofinite(3, 3) != AlphabetSelection.explicit([-3, 3])


def test_range_forms_are_capped_before_any_letter_is_built(monkeypatch):
    def no_letters(lo):
        raise AssertionError("a range letter was built")

    monkeypatch.setattr(symbolic, "paper_order", no_letters)
    for make in (AlphabetSelection.abs_range, AlphabetSelection.cofinite):
        with pytest.raises(ValueError, match="1,999,999,996 letters, over 100,000"):
            make(3, 10 ** 9)
