"""Admissible words, the three-vertex graph, and first-return loops.

The digit 2 may only be followed by a positive digit (and -2 by a
negative one), which forces three vertex spaces and barred letter
copies.  The alphabet induced at the central vertex consists of the
first-return loops; its block ordering drives everything downstream.
"""

from nicfdim import (
    count_admissible_words,
    enumerate_words,
    first_return_loops,
    is_admissible_digits,
    nicf_barred_graph,
    vertex_alphabet,
)

print("== the sign rule ==")
for word in ([2, 3], [2, -3], [-2, -4], [-2, 4], [3, -2, -2, -3]):
    print(f"  {word!s:>18} admissible: {is_admissible_digits(word)}")
print()

g = nicf_barred_graph(5)
print("== words over the barred graph ==")
for n in range(1, 5):
    words = list(enumerate_words(g, g.edges, n))
    print(f"  length {n}: {len(words)} admissible words "
          f"(matrix-power count {count_admissible_words(g, g.edges, n)})")
print()

print("== first-return loops at v (run length <= 3, digits <= 5) ==")
loops = first_return_loops(g, "v", 4)
for n in sorted(loops):
    sample = ["".join(str(e) for e in w) for w in loops[n][:6]]
    print(f"  length {n}: {len(loops[n])} loops, e.g. {sample}")
print()

print("== the induced-alphabet ordering (first 22 letters) ==")
print("  " + ", ".join(str(l) for l in vertex_alphabet(22)))
