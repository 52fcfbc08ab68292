"""Partition sums, two-sided pressure bounds, certified dimension intervals.

Everything here is an enclosure: Z_n is bracketed, the pressure sits in
[(log Z_n - t log K)/n, (log Z_n)/n], and dimension intervals come from
bisection on sign certificates alone.
"""

import time
from fractions import Fraction as F

from nicfdim import (
    AlphabetSelection,
    DivergentTailError,
    dim_interval,
    finiteness_exponent,
    partition_sum,
    pressure_bounds,
)

pm3 = AlphabetSelection.explicit([-3, 3])
print("== partition sums for {-3, 3} ==")
for n in (1, 2, 4, 8):
    z = partition_sum(pm3, F(1, 3), n)
    print(f"  Z_{n}(1/3) in [{float(z.lo):.6f}, {float(z.hi):.6f}]")
print()

print("== pressure enclosures tighten with depth ==")
for n in (2, 4, 8, 16):
    pb = pressure_bounds(pm3, F(1, 3), n)
    print(f"  depth {n:>2}: P(1/3) in [{float(pb.lo):+.5f}, {float(pb.hi):+.5f}]"
          f"  (width {float(pb.hi - pb.lo):.5f})")
print()

print("== certified dimension intervals ==")
t0 = time.perf_counter()
for spec, depth, tol in (("3", 8, F(1, 10 ** 6)),
                         ("-3,3", 16, F(2, 100)),
                         ("abs:3..5", 10, F(5, 100))):
    sel = (AlphabetSelection.explicit([int(s) for s in spec.split(",")])
           if "abs" not in spec else AlphabetSelection.abs_range(3, int(spec[-1])))
    di = dim_interval(sel, depth, tol)
    print(f"  dim(J_{{{spec}}}) in [{float(di.lo):.6f}, {float(di.hi):.6f}]")
print(f"  ({time.perf_counter() - t0:.2f} s)")
print()

print("== the cofinite tail diverges at and below t = 1/2 ==")
cof = AlphabetSelection.cofinite(3, 60)
print("  theta =", finiteness_exponent(cof).theta)
try:
    partition_sum(cof, F(1, 2), 1)
    print("  Z_1(1/2) divergent: False")
except DivergentTailError:
    print("  Z_1(1/2) divergent: True")
z = partition_sum(cof, F(5, 8), 1)
print(f"  Z_1(5/8) in [{float(z.lo):.4f}, {float(z.hi):.4f}] (tail included)")
