"""Exact absorption-time distributions, moments, and marginals.

First-step analysis over the transition rows: no Monte Carlo anywhere in
this module, so its outputs serve as the independent oracle against which
both simulation and the asymptotic predictions are validated.  The only
self-referential term in the moment recursion (the diagonal self-loop) is
solved algebraically, which keeps the tables exact even for kernels with
heavy diagonals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# CostGuardError and DPError are raised through kernels; this module re-exports them
from .kernels import ABSORB_TOL, CostGuardError, DPError, Kernel

# most operations a dense pushforward may spend over one pmf evolution
DP_BUDGET_OPS = 4e9


@dataclass(frozen=True)
class MomentTable:
    """values[n, p] = E[A_n ** p] for n = 0..n_max, p = 0..p_max."""
    kernel_name: str
    values: np.ndarray

    @property
    def n_max(self) -> int:
        return self.values.shape[0] - 1

    @property
    def p_max(self) -> int:
        return self.values.shape[1] - 1

    def moment(self, n: int, p: int) -> float:
        return float(self.values[n, p])

    def to_csv(self, kernel: Kernel) -> str:
        lines = ["n,p,moment,normalized"]
        for n in range(self.n_max + 1):
            a = kernel.scaling(n)
            for p in range(self.p_max + 1):
                v = float(self.values[n, p])
                lines.append(f"{n},{p},{v!r},{float(v / a ** p)!r}")
        return "\n".join(lines) + "\n"


def _stuck(n: int) -> DPError:
    return DPError(f"state {n} is absorbing; collapse the kernel (collapse_absorbing) "
                   "so 0 is the only absorbing state")


def absorption_moments(kernel: Kernel, n_max: int, p_max: int = 1) -> MomentTable:
    """E[A_n^p] for every start n <= n_max and order p <= p_max.

    Requires a kernel whose only absorbing state is 0.  O(n_max^2 * p_max)
    time, O(n_max * p_max) memory; rows are built once and discarded.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    values = np.zeros((n_max + 1, p_max + 1))
    values[:, 0] = 1.0
    # W[j, p] = E[(1 + A_j)^p]
    W = np.zeros((n_max + 1, p_max + 1))
    W[0, :] = 1.0
    choose = [[math.comb(p, r) for r in range(p + 1)] for p in range(p_max + 1)]
    for n in range(1, n_max + 1):
        row = kernel.build_row(n)
        pnn = float(row[n])
        if pnn >= 1.0 - ABSORB_TOL:
            raise _stuck(n)
        for p in range(1, p_max + 1):
            s = float(np.dot(row[:n], W[:n, p]))
            lower = math.fsum(choose[p][r] * values[n, r] for r in range(p))
            values[n, p] = (s + pnn * lower) / (1.0 - pnn)
        for p in range(p_max + 1):
            W[n, p] = math.fsum(choose[p][r] * values[n, r] for r in range(p)) \
                + values[n, p]
    return MomentTable(kernel.name, values)


# ---------------------------------------------------------------------------
# pmf evolution (one step is the kernel's pushforward)
# ---------------------------------------------------------------------------

def absorption_distribution(kernel: Kernel, n: int, k_max: int | None = None):
    """pmf of A_n truncated at k_max, plus the unaccounted tail mass.

    The state pmf is pushed forward step by step; the newly absorbed mass
    at 0 after each step is recorded.  Requires a collapsed kernel.  A
    dense pushforward may cost at most DP_BUDGET_OPS operations over the
    k_max steps.
    Returns (pmf, tail_mass) with pmf[k] = P(A_n = k) for k <= k_max.
    """
    if k_max is None:
        k_max = int(math.ceil(50.0 * kernel.scaling(n)))
    pmf = np.zeros(k_max + 1)
    if n == 0:
        pmf[0] = 1.0
        return pmf, 0.0
    step = kernel.pushforward(n, DP_BUDGET_OPS / max(1, k_max))
    stuck = np.nonzero(kernel.absorbing_mask(np.arange(1, n + 1)))[0]
    if stuck.size:
        raise _stuck(int(stuck[0]) + 1)
    pi = np.zeros(n + 1)
    pi[n] = 1.0
    absorbed = 0.0
    prev_total = 1.0
    for k in range(1, k_max + 1):
        pi = step(pi)
        total = math.fsum(memoryview(pi))
        if abs(total - prev_total) > 1e-12:
            raise DPError(f"pmf mass drifted by {total - prev_total!r} at step {k}")
        prev_total = total
        newly = float(pi[0]) - absorbed
        pmf[k] = max(newly, 0.0)
        absorbed = float(pi[0])
    return pmf, 1.0 - absorbed


def marginal_distribution(kernel: Kernel, n: int, steps: Sequence[int]) -> np.ndarray:
    """pmf of X_n after each step count in steps, from one pushforward loop.

    Returns an array of shape (len(steps), n + 1) whose row j is
    P(X_n(steps[j]) = k) for k = 0..n.  The dense pushforward may cost at
    most DP_BUDGET_OPS operations over the longest run.
    """
    steps = [int(s) for s in steps]
    if any(s < 0 for s in steps):
        raise ValueError("step counts must be >= 0")
    last = max(steps, default=0)
    step = kernel.pushforward(n, DP_BUDGET_OPS / last) if last > 0 else None
    out = np.empty((len(steps), n + 1))
    pi = np.zeros(n + 1)
    pi[n] = 1.0
    done = 0
    for j in np.argsort(steps, kind="stable"):
        for _ in range(steps[j] - done):
            pi = step(pi)
        done = steps[j]
        out[j] = pi
    return out


def marginal_moment(kernel: Kernel, n: int, t: float, lam: float) -> float:
    """Exact E[(X_n(floor(a_n t)) / n) ** lam] by pmf evolution."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if n == 0:
        return 0.0 if lam > 0 else 1.0
    steps = int(math.floor(kernel.scaling(n) * t))
    pi = marginal_distribution(kernel, n, [steps])[0]
    grid = (np.arange(n + 1) / n) ** lam if lam > 0 else np.ones(n + 1)
    if lam > 0:
        grid[0] = 0.0
    return float(np.dot(pi, grid))
