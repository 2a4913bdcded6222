"""The random walk with a barrier, exactly and by simulation.

Three views of the same number: the exact DP absorption moments, a Monte
Carlo run of the chain, and the analytic moments of the limiting
exponential functional.  The DP runs to n = 2^18, where the relative
error E[A_n]/a_n / E[I] - 1 is still about 1e-3; the barrier walk's rows
are one step law shifted, so the DP builds none of them.  Then one
trajectory is rescaled and its two clocks are printed side by side.
"""

import time

import numpy as np

from sschain import (analytic_moments, barrier_kernel, barrier_measure,
                     absorption_moments, empirical_moment, power_tail,
                     rescale, sample_absorption_times, sample_path)

GAMMA = 0.5
kernel = barrier_kernel(power_tail(GAMMA))
limit = analytic_moments(barrier_measure(GAMMA), GAMMA, 2)

print("analytic limit moments:   E =", round(limit[1], 5), "  E^2 =", round(limit[2], 5))

start = time.perf_counter()
table = absorption_moments(kernel, 2 ** 18, 2)
print(f"\nexact DP to n = 2^18 in {time.perf_counter() - start:.1f} s, "
      "normalized by the scaling sequence:")
for n in (64, 256, 1024, 4096):
    a = kernel.scaling(n)
    print(f"  n = {n:5d}   E[A]/a = {table.moment(n, 1) / a:.5f}"
          f"   E[A^2]/a^2 = {table.moment(n, 2) / a ** 2:.5f}")
print("relative error of the mean, E[A]/a / E[I] - 1:")
for k in range(10, 19):
    n = 2 ** k
    print(f"  n = 2^{k}   {table.moment(n, 1) / kernel.scaling(n) / limit[1] - 1:+.3e}")

n = 2048
times = sample_absorption_times(kernel, n, 20_000, seed=1)
mc = empirical_moment(times / kernel.scaling(n), 1.0)
print(f"\nMonte Carlo at n = {n}: E[A/a] = {mc}")
print(f"exact value at n = {n}:  {table.moment(2048, 1) / kernel.scaling(2048):.5f}")

path = sample_path(kernel, 64, seed=7)
resc = rescale(path)
print(f"\none trajectory from 64 (absorbed after {path.absorption_time} steps):")
print("  states:", [int(x) for x in path.states[:12]], "...")
print("  original clock: each step lasts", round(1 / resc.a_n, 4))
vals, durs = resc.z_segments()
print("  changed clock:  first segment durations",
      np.round(durs[:6], 4), "...")
print("  first-zero time A/a =", round(resc.sigma, 4),
      " equals the weighted segment sum:",
      round(float(np.sum(vals ** GAMMA * durs)), 4))
