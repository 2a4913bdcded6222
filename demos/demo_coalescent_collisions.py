"""Collision counts of a Beta coalescent that stays infinite.

The block-counting jump chain of the Beta(3/2, 1) coalescent drops from n
to 1; the number of jumps, normalized by h(1/n), approaches the
exponential functional of a subordinator.  We print the collision-rate
asymptotics, the exact normalized mean by DP, and a Monte Carlo run, and
show how slowly the finite-size bias melts away.
"""

import math
import time

from sschain import (absorption_moments, beta_coalescent_kernel, collapse_absorbing,
                     empirical_moment, sample_absorption_times)

kernel = beta_coalescent_kernel(1.5, 1.0)
print("index beta =", kernel.beta, "   h(1/n) = 3(sqrt(n) - 1)")

print("\ntotal collision rate vs Gamma(2 - beta) h(1/n):")
for n in (100, 1000, 10_000):
    ratio = kernel.total_rate(n) / (math.gamma(1.5) * kernel.h(1.0 / n))
    print(f"  n = {n:6d}   ratio = {ratio:.5f}")

target = 1.0 / kernel.psi(0.5)
print(f"\nasymptotic normalized mean collision count: 1/psi(1/2) = {target:.6f}")

# the collapsed chain takes one extra step, from the single block to 0
print("exact E[collisions]/h(1/n) by DP, one call up to n = 2^18; the bias "
      "E/target - 1 decays like a slow power (local rho per doubling):")
t0 = time.perf_counter()
table = absorption_moments(collapse_absorbing(kernel), 2 ** 18, 1)
elapsed = time.perf_counter() - t0
prev = None
for j in range(9, 19):
    n = 2 ** j
    exact = (table.moment(n, 1) - 1.0) / kernel.h(1.0 / n)
    bias = exact / target - 1.0
    rho = f"{math.log2(prev / bias):.3f}" if prev else "-"
    print(f"  n = 2^{j:<2d}  {exact:.6f}   bias {bias:+.3e}   rho {rho}")
    prev = bias
print(f"  ({elapsed:.1f} s for the DP)")

n = 3000
times = sample_absorption_times(kernel, n, 5000, seed=3)
mc = empirical_moment(times / kernel.h(1.0 / n), 1.0)
print(f"\nMonte Carlo at n = {n}: {mc}")
print(f"exact at n = {n}:        {(table.moment(n, 1) - 1) / kernel.h(1 / n):.6f}")
