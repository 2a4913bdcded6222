"""Estimators and convergence verdicts used by the verification harness.

Everything here is a pure function over sample arrays.  Acceptance bands
are 4 standard errors wide throughout the package, so the suite stays
deterministic in practice under fixed seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaincinv


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    se: float
    n_samples: int

    def within(self, target: float, n_se: float = 4.0) -> bool:
        """|value - target| <= n_se * se (degenerate se compares exactly)."""
        if self.se == 0.0:
            return self.value == target
        return abs(self.value - target) <= n_se * self.se

    def __str__(self):
        return f"{self.value:.6g} +- {self.se:.2g} ({self.n_samples} samples)"


def empirical_moment(samples, p: float = 1.0) -> EstimateWithError:
    """Mean of x**p with a leave-one-out jackknife standard error."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("empirical_moment needs at least 2 scalar samples")
    if p < 0:
        raise ValueError("empirical_moment needs p >= 0")
    xp = x ** p
    n = xp.size
    total = float(np.sum(xp))
    mean = total / n
    # leave-one-out estimates of the mean collapse to a closed form
    loo = (total - xp) / (n - 1)
    se = float(np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2)))
    return EstimateWithError(mean, se, n)


def chi2_quantile(p: float, dof: int) -> float:
    """``scipy.stats.chi2.ppf(p, dof)`` by its own formula, without that slow import."""
    return 2.0 * gammaincinv(dof / 2, p)


def ks_distance(samples_a, samples_b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic.

    Both empirical CDFs are evaluated right-continuously on the pooled
    points, so ties are handled consistently.
    """
    a = np.sort(np.asarray(samples_a, dtype=float))
    b = np.sort(np.asarray(samples_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_distance needs non-empty samples")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


@dataclass(frozen=True)
class TrendReport:
    passed: bool
    errors: tuple
    threshold: float
    slack: float
    reason: str = ""

    def __bool__(self):
        return self.passed

    def __str__(self):
        tag = "pass" if self.passed else "FAIL"
        errs = ", ".join(f"{e:.3g}" for e in self.errors)
        out = f"[{tag}] errors=({errs}) final<{self.threshold:g}"
        if self.reason:
            out += f" ({self.reason})"
        return out


def trend_verdict(errors: Sequence[float], threshold: float,
                  slack: float = 1.10, floor: float = 0.0) -> TrendReport:
    """Convergence verdict for an error sequence indexed by increasing n.

    Passes iff the errors over the last half of the grid are
    non-increasing up to the multiplicative ``slack`` and the final error
    is below ``threshold``.  Intended for grids of at least 4 points;
    shorter grids (down to 2) are accepted for coarse scans.  ``floor``
    exempts pairs already at numerical-noise level from the
    monotonicity requirement.
    """
    errs = tuple(float(e) for e in errors)
    if len(errs) < 2:
        raise ValueError("trend_verdict needs at least 2 grid points")
    if any(e < 0 for e in errs):
        raise ValueError("errors must be non-negative")
    tail = errs[len(errs) // 2:]
    for prev, nxt in zip(tail, tail[1:]):
        if nxt > max(slack * prev, floor):
            return TrendReport(False, errs, threshold, slack,
                               f"error rose {prev:.3g} -> {nxt:.3g} in the last half")
    if errs[-1] > threshold:
        return TrendReport(False, errs, threshold, slack,
                           f"final error {errs[-1]:.3g} above threshold")
    return TrendReport(True, errs, threshold, slack)
