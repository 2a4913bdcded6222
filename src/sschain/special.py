"""Log-space combinatorics and Gamma-function helpers shared across modules."""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, gammasgn


def log_binom(n, k):
    """log of the binomial coefficient C(n, k) for integers 0 <= k <= n, vectorized.

    The log-factorials are read from one table gammaln(1), ..., gammaln(max n + 1)
    built per call.  Its arguments are exact integers, so the result is bit
    for bit gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1).
    """
    n = np.asarray(n)
    k = np.asarray(k)
    if n.dtype.kind != "i" or k.dtype.kind != "i" or np.minimum(k, n - k).min(initial=0) < 0:
        raise ValueError(f"log_binom needs integers 0 <= k <= n, got n={n}, k={k}")
    log_fact = gammaln(np.arange(1.0, n.max(initial=0) + 2.0))
    return log_fact[n] - log_fact[k] - log_fact[n - k]


def gamma_ratio(u, v):
    """Gamma(u) / Gamma(v) for real (possibly negative, non-pole) arguments."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    sign = gammasgn(u) * gammasgn(v)
    return sign * np.exp(gammaln(u) - gammaln(v))
