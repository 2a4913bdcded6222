"""Killed subordinators and their exponential clock change.

Sample paths with truncated small jumps (mean-compensated, with a
variance certificate), run the clock change to get the non-increasing
limit path, and check the two identities that make the machinery tick:
the marginal law of exp(-xi_t) and the first-zero time equalling the
exponential functional, path by path.
"""

import math

import numpy as np

from sschain import (analytic_moments, barrier_measure, empirical_moment, lamperti,
                     levy_triple, philox_rng, sample_exponential_functional,
                     sample_subordinator, sample_z_marginals)

GAMMA = 0.5
triple = levy_triple(barrier_measure(GAMMA))
print("triple: killing =", triple.killing, " drift =", triple.drift,
      " jump tail at 1 =", round(triple.levy.tail(1.0), 5))

path = sample_subordinator(triple, 4.0, philox_rng(11))
print(f"\none path: {len(path.jump_times)} jumps above eps = {path.eps_cut:.2e}, "
      f"compensating drift {path.drift:.4f}")
print(f"neglected small-jump variance certificate: {path.neglected_variance:.2e}")

sample = lamperti(path, GAMMA)
print("clock-changed path: I =", round(sample.I, 5),
      " sigma =", round(sample.sigma, 5), " (identical by construction)")
print("Y at the quartiles of its life:",
      np.round([sample.Y(q * sample.I) for q in (0.0, 0.25, 0.5, 0.75)], 4))

print("\nmarginal law of Z(t) = exp(-xi_t), 20000 paths:")
z = sample_z_marginals(triple, [0.5, 1.0], 20_000, seed=21)
for j, t in enumerate((0.5, 1.0)):
    for lam in (0.5, 1.0, 2.0):
        est = empirical_moment(z[:, j], lam)
        tgt = math.exp(-triple.laplace_exponent(lam) * t)
        print(f"  E[Z({t})^{lam:g}] = {est.value:.5f} +- {est.se:.5f}"
              f"   exp(-psi t) = {tgt:.5f}")

print("\nexponential functional, 10000 paths with Markov-restart horizon control:")
I = sample_exponential_functional(triple, GAMMA, 10_000, seed=33)
mom = analytic_moments(barrier_measure(GAMMA), GAMMA, 2)
print(f"  E[I]   = {empirical_moment(I, 1.0)}   analytic {mom[1]:.5f}")
print(f"  E[I^2] = {empirical_moment(I, 2.0)}   analytic {mom[2]:.5f}")
