"""Log-space combinatorics and Gamma-function helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, gammasgn

# gammaln(j + shift) by shift: pure values, so every caller may share them
_LGAMMA_TABLES: dict[float, np.ndarray] = {}
# Gamma(j + shift) / j! by shift, as pure as the tables above
_RATIO_TABLES: dict[float, np.ndarray] = {}


def _lgamma_table(shift: float, size: int) -> np.ndarray:
    """gammaln(j + shift) for j = 0..size-1 or more, kept and grown by doubling."""
    t = _LGAMMA_TABLES.get(shift)
    if t is None or t.size < size:
        m = max(size, 64 if t is None else 2 * t.size)
        t = _LGAMMA_TABLES[shift] = gammaln(np.arange(m) + shift)
    return t


def gamma_ratio_table(shift: float, size: int) -> np.ndarray:
    """Gamma(j + shift) / j! for j = 0..size-1 or more, kept and grown by doubling.

    A running product: from j0, the first j with j + shift > 0, each entry
    is the last times (j + shift) / (j + 1), so no log-Gamma difference
    rounds it and a longer table repeats the shorter one bit for bit.
    Entries below j0 are nan.
    """
    t = _RATIO_TABLES.get(shift)
    if t is None or t.size < size:
        m = max(size, 64 if t is None else 2 * t.size)
        j0 = max(0, math.floor(-shift) + 1)
        j = np.arange(j0, m - 1, dtype=float)
        step = np.empty(m - j0)
        step[0] = math.gamma(j0 + shift) / math.factorial(j0)
        step[1:] = (j + shift) / (j + 1.0)
        t = np.full(m, np.nan)
        t[j0:] = np.cumprod(step)
        _RATIO_TABLES[shift] = t
    return t


def log_binom(n, k):
    """log of the binomial coefficient C(n, k) for integers 0 <= k <= n, vectorized.

    The log-factorials are read from the kept table gammaln(j + 1).  Its
    arguments are exact integers, so the result is bit for bit
    gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1).
    """
    n = np.asarray(n)
    k = np.asarray(k)
    if n.dtype.kind != "i" or k.dtype.kind != "i" or np.minimum(k, n - k).min(initial=0) < 0:
        raise ValueError(f"log_binom needs integers 0 <= k <= n, got n={n}, k={k}")
    log_fact = _lgamma_table(1.0, int(n.max(initial=0)) + 1)
    return log_fact[n] - log_fact[k] - log_fact[n - k]


def gamma_ratio(u, v):
    """Gamma(u) / Gamma(v) for real (possibly negative, non-pole) arguments."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    sign = gammasgn(u) * gammasgn(v)
    return sign * np.exp(gammaln(u) - gammaln(v))
