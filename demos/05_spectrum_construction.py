"""Greedy construction of a digit set with dimension at most a target.

A letter is kept only when the enlarged set's pressure at the target is
certified nonpositive, so the certified dimension upper bound never
crosses the target; rejected letters stay available for later digit
sets (the ordering is what the letter-addition theorems need).
"""

import time
from fractions import Fraction as F

from nicfdim import construct, mme_check

print("== letter-addition margins (restricted-digit system) ==")
for b in (4, 5, 8, 20):
    v = mme_check(b, "phi_f")
    print(f"  letter {b:>3}: passes={v.passes}  margin >= {float(v.margin.lo):.5f}")
print("  letter   3:", mme_check(3, "phi_f").note)
print()

t0 = time.perf_counter()
trace = construct(F(3, 10), "phi_f", budget=16, depth=9)
print("== greedy sweep toward target 0.3 ==")
for d in trace.decisions:
    mark = "kept    " if d.accepted else "rejected"
    print(f"  {d.letter:>4}: {mark} (certified dim of kept set <= {float(trace.target)})")
print(f"final digit set: {list(trace.final_letters)}")
print(f"achieved dim in [{float(trace.achieved.lo):.4f}, "
      f"{float(trace.achieved.hi):.4f}]  ({time.perf_counter() - t0:.2f} s)")
print()

trace = construct(0, "phi_f", budget=5, depth=8)
print("== target 0 keeps exactly one letter ==")
print("final:", list(trace.final_letters),
      " achieved hi:", float(trace.achieved.hi))
