"""Graph systems, alphabet selections and admissible-word enumeration.

A ``GraphSystem`` is a finite-vertex directed multigraph (V, E, i, t)
with an incidence predicate A on edge pairs; A(e, f) = 1 forces
t(e) = i(f), and by default A is exactly that vertex-matching rule.
Words are tuples of edge labels; enumeration is depth-first in the
caller's letter order, so output order is deterministic.

First-return loops at a vertex v are the admissible loops based at v
that never revisit v at a proper prefix; they form the alphabet of the
iterated function system induced at v.

Digit alphabets: ``paper_order(lo)`` is the one home of the paper's
digit order -lo, lo, -(lo+1), lo+1, ...; ``AlphabetSelection`` takes its
range letters from it and is the one home of the alphabet rules: explicit
digits are distinct with |b| >= 2, and the range forms need |b| >= 3, a
non-empty range (a truncation no lower than the lower bound) and at most
``MAX_RANGE_LETTERS`` letters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice
from typing import Callable, Dict, Hashable, Iterator, List, Mapping, Optional, Sequence, Tuple

Edge = Hashable
WordT = Tuple[Edge, ...]


@dataclass(frozen=True)
class GraphSystem:
    vertices: Tuple[Hashable, ...]
    edges: Tuple[Edge, ...]
    initial: Mapping[Edge, Hashable]
    terminal: Mapping[Edge, Hashable]
    incidence: Optional[Callable[[Edge, Edge], bool]] = field(default=None)

    def __post_init__(self):
        vs = set(self.vertices)
        for e in self.edges:
            if self.initial[e] not in vs or self.terminal[e] not in vs:
                raise ValueError(f"edge {e!r} touches an unknown vertex")
        for e in self.edges:
            if not any(self.allowed(e, f) for f in self.edges):
                raise ValueError(f"edge {e!r} has no successor")
        out = {self.initial[e] for e in self.edges}
        for v in self.vertices:
            if v not in out:
                raise ValueError(f"vertex {v!r} has no outgoing edge")
        if self.incidence is not None:
            for e in self.edges:
                for f in self.edges:
                    if self.allowed(e, f) and self.terminal[e] != self.initial[f]:
                        raise ValueError(
                            f"incidence allows {e!r}->{f!r} across mismatched vertices")

    def allowed(self, e: Edge, f: Edge) -> bool:
        if self.incidence is not None:
            return bool(self.incidence(e, f))
        return self.terminal[e] == self.initial[f]

    def check_edge(self, e: Edge) -> None:
        if e not in self.initial:
            raise ValueError(f"unknown letter {e!r}")


def is_admissible(word: Sequence[Edge], g: GraphSystem) -> bool:
    """True iff every consecutive pair of letters is incidence-allowed."""
    for e in word:
        g.check_edge(e)
    return all(g.allowed(e, f) for e, f in zip(word, word[1:]))


def enumerate_words(g: GraphSystem, letters, n: int) -> Iterator[WordT]:
    """All admissible length-n words over the given letters (a sequence or
    an AlphabetSelection), lexicographic in the letter order.  n = 0
    yields the empty word."""
    if isinstance(letters, AlphabetSelection):
        letters = letters.letters
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
    """Path count via the incidence matrix power, for cross-checks."""
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
    """A digit set F: an explicit list, a two-sided magnitude range, or a
    cofinite selection |b| >= lo carried as (truncated letters, tail).

    ``letters`` is the finite (or truncated) part in enumeration order;
    cofinite selections keep ``tail_min``, the smallest magnitude not
    enumerated, so pressure code can attach rigorous integral-test tails.
    """

    kind: str  # "explicit" | "abs_range" | "cofinite"
    letters: Tuple[int, ...]
    lo: int = 0
    hi: int = 0
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
        return AlphabetSelection("explicit", ls)

    @staticmethod
    def abs_range(lo: int, hi: int) -> "AlphabetSelection":
        letters = _range_letters(lo, hi, "empty range")
        return AlphabetSelection("abs_range", letters, lo=lo, hi=hi)

    @staticmethod
    def cofinite(lo: int, trunc: int) -> "AlphabetSelection":
        letters = _range_letters(lo, trunc, "truncation below the lower bound")
        return AlphabetSelection("cofinite", letters, lo=lo, trunc=trunc)

    @property
    def is_cofinite(self) -> bool:
        return self.kind == "cofinite"

    @property
    def tail_min(self) -> int:
        """Smallest magnitude beyond the truncation (cofinite only)."""
        if not self.is_cofinite:
            raise ValueError("finite selection has no tail")
        return self.trunc + 1

    def min_magnitude(self) -> int:
        return min(abs(b) for b in self.letters)

    def spec_string(self) -> str:
        if self.kind == "explicit":
            return ",".join(str(b) for b in self.letters)
        if self.kind == "abs_range":
            return f"abs:{self.lo}..{self.hi}"
        return f"absmin:{self.lo}:{self.trunc}"
