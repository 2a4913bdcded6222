"""Log-space combinatorics and Gamma-function helpers shared across modules."""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, gammasgn


def log_binom(n, k):
    """log of the binomial coefficient C(n, k), vectorized in k (and n)."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def gamma_ratio(u, v):
    """Gamma(u) / Gamma(v) for real (possibly negative, non-pole) arguments."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    sign = gammasgn(u) * gammasgn(v)
    return sign * np.exp(gammaln(u) - gammaln(v))
