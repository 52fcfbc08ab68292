"""Graph systems, alphabet selections and admissible-word enumeration.

A ``GraphSystem`` is a finite-vertex directed multigraph (V, E, i, t):
edge f may follow edge e exactly when t(e) = i(f).  The nearest-integer
sign rule (``cf_core.admissible_pair``) is encoded that way by the
barred three-vertex graph of ``nicf_system``.  Words are tuples of edge
labels; enumeration is depth-first in the caller's letter order, so
output order is deterministic.

First-return loops at a vertex v are the admissible loops based at v
that never revisit v at a proper prefix; they form the alphabet of the
iterated function system induced at v.

Digit alphabets: ``paper_order(lo)`` is the one home of the paper's
digit order -lo, lo, -(lo+1), lo+1, ...; ``AlphabetSelection`` (letters
plus a truncation) takes its range letters from it and is the one home
of the alphabet rules: explicit digits are distinct with |b| >= 2, and
the range forms need |b| >= 3, a non-empty range (a truncation no lower
than the lower bound) and at most ``MAX_RANGE_LETTERS`` letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Dict, Hashable, Iterator, List, Mapping, Sequence, Tuple

Edge = Hashable
WordT = Tuple[Edge, ...]


@dataclass(frozen=True)
class GraphSystem:
    vertices: Tuple[Hashable, ...]
    edges: Tuple[Edge, ...]
    initial: Mapping[Edge, Hashable]
    terminal: Mapping[Edge, Hashable]

    def __post_init__(self):
        vs = set(self.vertices)
        for e in self.edges:
            if self.initial[e] not in vs or self.terminal[e] not in vs:
                raise ValueError(f"edge {e!r} touches an unknown vertex")
        out = {self.initial[e] for e in self.edges}
        for e in self.edges:
            if self.terminal[e] not in out:
                raise ValueError(f"edge {e!r} has no successor")
        for v in self.vertices:
            if v not in out:
                raise ValueError(f"vertex {v!r} has no outgoing edge")

    def allowed(self, e: Edge, f: Edge) -> bool:
        return self.terminal[e] == self.initial[f]

    def check_edge(self, e: Edge) -> None:
        if e not in self.initial:
            raise ValueError(f"unknown letter {e!r}")


def is_admissible(word: Sequence[Edge], g: GraphSystem) -> bool:
    """True iff each letter of the word starts where the one before ends."""
    for e in word:
        g.check_edge(e)
    return all(g.allowed(e, f) for e, f in zip(word, word[1:]))


def enumerate_words(g: GraphSystem, letters: Sequence[Edge], n: int) -> Iterator[WordT]:
    """All admissible length-n words over the given letters, lexicographic
    in the letter order.  n = 0 yields the empty word."""
    for e in letters:
        g.check_edge(e)
    if n == 0:
        yield ()
        return

    def rec(prefix: List[Edge]) -> Iterator[WordT]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        last = prefix[-1] if prefix else None
        for f in letters:
            if last is None or g.allowed(last, f):
                prefix.append(f)
                yield from rec(prefix)
                prefix.pop()

    yield from rec([])


def count_admissible_words(g: GraphSystem, letters: Sequence[Edge], n: int) -> int:
    """Path count via the edge adjacency matrix power, for cross-checks."""
    if n == 0:
        return 1
    counts = {e: 1 for e in letters}
    for _ in range(n - 1):
        counts = {
            e: sum(counts[f] for f in letters if g.allowed(e, f))
            for e in letters
        }
    return sum(counts.values())


def first_return_loops(g: GraphSystem, v: Hashable, max_len: int) -> Dict[int, List[WordT]]:
    """First-return loops at v, grouped by length, lengths 1..max_len.

    Breadth-first by length; paths are pruned as soon as they revisit v,
    so no returned loop is a concatenation of shorter ones.
    """
    if v not in g.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    loops: Dict[int, List[WordT]] = {n: [] for n in range(1, max_len + 1)}
    # frontier: paths starting at v that have not yet returned to v
    frontier: List[WordT] = []
    for e in g.edges:
        if g.initial[e] != v:
            continue
        if g.terminal[e] == v:
            loops[1].append((e,))
        else:
            frontier.append((e,))
    for n in range(2, max_len + 1):
        nxt: List[WordT] = []
        for path in frontier:
            last = path[-1]
            for f in g.edges:
                if not g.allowed(last, f):
                    continue
                if g.terminal[f] == v:
                    loops[n].append(path + (f,))
                else:
                    nxt.append(path + (f,))
        frontier = nxt
    for n in loops:
        loops[n].sort(key=repr)
    return loops


# ---------------------------------------------------------------------------
# digit alphabet selections
# ---------------------------------------------------------------------------

def paper_order(lo: int) -> Iterator[int]:
    """The paper's digit order -lo, lo, -(lo+1), lo+1, ..., without end."""
    for k in count(lo):
        yield -k
        yield k


MAX_RANGE_LETTERS = 100_000  # most letters of one range form


def _range_letters(lo: int, hi: int, empty: str) -> Tuple[int, ...]:
    """The digits lo <= |b| <= hi in paper order, sized before any is built."""
    count = 2 * (hi - lo + 1)
    if count > MAX_RANGE_LETTERS:
        raise ValueError(f"the range has {count:,} letters, over {MAX_RANGE_LETTERS:,}")
    if lo < 3:
        raise ValueError("digits |b| >= 3 required for the restricted system")
    if hi < lo:
        raise ValueError(empty)
    return tuple(islice(paper_order(lo), count))


@dataclass(frozen=True)
class AlphabetSelection:
    """A digit set F: ``letters`` in enumeration order and, for a cofinite
    selection |b| >= lo, the truncation ``trunc``: the letters stop at
    |b| = trunc and pressure code bounds the magnitudes beyond it by
    rigorous integral-test tails.  ``trunc = 0`` marks a finite set.
    """

    letters: Tuple[int, ...]
    trunc: int = 0

    @staticmethod
    def explicit(letters: Sequence[int]) -> "AlphabetSelection":
        ls = tuple(int(b) for b in letters)
        if not ls:
            raise ValueError("empty alphabet")
        for b in ls:
            if abs(b) < 2:
                raise ValueError(f"digit {b} has |b| < 2")
        if len(set(ls)) != len(ls):
            raise ValueError("duplicate letters")
        return AlphabetSelection(ls)

    @staticmethod
    def abs_range(lo: int, hi: int) -> "AlphabetSelection":
        return AlphabetSelection(_range_letters(lo, hi, "empty range"))

    @staticmethod
    def cofinite(lo: int, trunc: int) -> "AlphabetSelection":
        letters = _range_letters(lo, trunc, "truncation below the lower bound")
        return AlphabetSelection(letters, trunc)

    @property
    def is_cofinite(self) -> bool:
        return self.trunc > 0

    def min_magnitude(self) -> int:
        return min(abs(b) for b in self.letters)
