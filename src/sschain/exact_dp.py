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
from scipy.fft import irfft, next_fast_len, rfft

# CostGuardError and DPError are raised through kernels; this module re-exports them
from .kernels import ABSORB_TOL, DIRECT_SUPPORT, CostGuardError, DPError, Kernel

# most operations the generic row-matrix pushforward may spend over one pmf
# evolution, charged (n + 1)^2 per step
DP_BUDGET_OPS = 4e9
# the relaxed correlation of absorption_moments sums blocks of this many states directly
LEAF_STATES = 32


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
        """One line per (n, p); ``normalized`` is E[A_n^p] / a_n^p, nan where a_n = 0 < p."""
        lines = ["n,p,moment,normalized"]
        for n in range(self.n_max + 1):
            a = kernel.scaling(n)
            for p in range(self.p_max + 1):
                v = float(self.values[n, p])
                norm = float(v / a ** p) if a or not p else math.nan
                lines.append(f"{n},{p},{v!r},{norm!r}")
        return "\n".join(lines) + "\n"


def _stuck(n: int) -> DPError:
    return DPError(f"state {n} is absorbing; collapse the kernel (collapse_absorbing) "
                   "so 0 is the only absorbing state")


def absorption_moments(kernel: Kernel, n_max: int, p_max: int = 1) -> MomentTable:
    """E[A_n^p] for every start n <= n_max and order p <= p_max.

    Requires a kernel whose only absorbing state is 0.  O(n_max * p_max)
    memory.  The time depends on the kernel:

    * with a ``toeplitz`` hook, no row is built: the sums over k < n of
      p_{n,k} E[(1 + A_k)^p] are one online correlation of q with
      weight_k E[(1 + A_k)^p].  The hook is there for the barrier family
      (weight 1) and for a coalescent or composition kernel with one Beta
      term and no atoms, collapsed or not (weight and q are two slices of
      ``gamma_ratio_table``; one more column, the weight alone, gives each
      row's normaliser).  A q whose last support point s is at most
      DIRECT_SUPPORT is summed term by term, O(n_max * s * p_max);
      otherwise relaxed multiplication (van der Hoeven, "Relax, but don't
      be too lazy", 2002) splits the states in halves, adds each left
      half into the right one by FFT and solves blocks of LEAF_STATES
      directly, O(n_max log^2 n_max * p_max).
    * any other kernel: each row is built once, checked and discarded,
      O(n_max^2 * p_max).
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    values = np.zeros((n_max + 1, p_max + 1))
    values[:, 0] = 1.0
    # W[j, p] = E[(1 + A_j)^p]
    W = np.zeros((n_max + 1, p_max + 1))
    W[0, :] = 1.0
    choose = [[math.comb(p, r) for r in range(p + 1)] for p in range(p_max + 1)]

    def finish(n: int, sums, pnn: float):
        # sums[p - 1] = sum over k < n of p_{n,k} W[k, p]
        if pnn >= 1.0 - ABSORB_TOL:
            raise _stuck(n)
        v = [1.0]  # E[A_n^r], r = 0..p
        for p in range(1, p_max + 1):
            lower = math.fsum([c * x for c, x in zip(choose[p], v)])
            v.append((sums[p - 1] + pnn * lower) / (1.0 - pnn))
        values[n] = v
        W[n] = [math.fsum([c * x for c, x in zip(choose[p][:p], v)]) + v[p]
                for p in range(p_max + 1)]

    parts = kernel.toeplitz(n_max)
    if parts is None:
        for n in range(1, n_max + 1):
            row = kernel._checked_row(n)
            finish(n, [float(np.dot(row[:n], W[:n, p])) for p in range(1, p_max + 1)],
                   float(row[n]))
    else:
        q, weight, norm, zero, diag = parts
        # V[k] = weight[k] W[k]; without given norms, V's column 0 is the
        # weight alone, whose correlation is each row's Toeplitz mass
        lead = 0 if norm is None else 1
        V = np.zeros((n_max + 1, p_max + 1 - lead))
        V[0] = weight[0] * W[0, lead:]

        def finish_row(n: int, corr: np.ndarray):
            # W[0, p] = 1, so the mass sent to state 0 adds zero[n] to every sum
            corr = corr.tolist()
            scale = corr.pop(0) if norm is None else float(norm[n])
            sent = float(zero[n])
            finish(n, [c / scale + sent for c in corr] if scale else [sent] * p_max,
                   float(diag[n]))
            V[n] = weight[n] * W[n, lead:]

        _online_correlation(q, V, finish_row)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DPError(f"{kernel.name}: moments of A_n are not finite from state "
                      f"{int(np.argmin(finite))} on")
    return MomentTable(kernel.name, values)


def _online_correlation(q: np.ndarray, W: np.ndarray, finish) -> None:
    """finish(n, sum over k < n of q[n - k] W[k]) for n = 1, 2, ... in order.

    ``finish`` fills W[n], which the sums of later states read; q[0] is
    never used.  Direct sums cover a support up to DIRECT_SUPPORT, else
    relaxed multiplication: solving states [lo, hi) is solving [lo, mid),
    adding that half into acc[mid:top], top = min(hi, n_max + 1), as the
    middle of one cyclic convolution of length at least top - lo (the
    outputs that wrap around land below mid; with power-of-two halves, one
    transform of q per length), then solving [mid, hi).
    """
    n_max = W.shape[0] - 1
    nz = np.flatnonzero(q[1:])
    support = int(nz[-1]) + 1 if nz.size else 0

    def leaf(lo: int, hi: int, width: int, acc):
        for n in range(max(lo, 1), min(hi, n_max + 1)):
            k0 = max(lo, n - width)
            corr = q[n - k0:0:-1] @ W[k0:n]
            finish(n, corr if acc is None else corr + acc[n])

    if support <= DIRECT_SUPPORT:
        leaf(0, n_max + 1, support, None)
        return
    acc = np.zeros(W.shape)
    q_hat: dict[int, np.ndarray] = {}

    def solve(lo: int, hi: int):
        if hi - lo <= LEAF_STATES:
            leaf(lo, hi, LEAF_STATES, acc)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        if mid > n_max:
            return
        top = min(hi, n_max + 1)
        size = next_fast_len(top - lo, real=True)
        if size not in q_hat:
            q_hat[size] = rfft(q[:size], size)[:, None]
        part = irfft(rfft(W[lo:mid], size, axis=0) * q_hat[size], size, axis=0)
        acc[mid:top] += part[mid - lo:top - lo]
        solve(mid, hi)

    solve(0, 1 << n_max.bit_length())


# ---------------------------------------------------------------------------
# pmf evolution (one step is the kernel's pushforward)
# ---------------------------------------------------------------------------

def absorption_distribution(kernel: Kernel, n: int, k_max: int | None = None):
    """pmf of A_n truncated at k_max, plus the unaccounted tail mass.

    The state pmf is pushed forward step by step; the newly absorbed mass
    at 0 after each step is recorded.  Requires a collapsed kernel.  A
    row-matrix pushforward may cost at most DP_BUDGET_OPS operations over
    the k_max steps.
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
        if not abs(total - prev_total) <= 1e-12:  # NaN fails it too
            raise DPError(f"{kernel.name}: pmf mass drifted by {total - prev_total!r} "
                          f"at step {k}")
        prev_total = total
        newly = float(pi[0]) - absorbed
        pmf[k] = max(newly, 0.0)
        absorbed = float(pi[0])
    return pmf, 1.0 - absorbed


def marginal_distribution(kernel: Kernel, n: int, steps: Sequence[int]) -> np.ndarray:
    """pmf of X_n after each step count in steps, from one pushforward loop.

    Returns an array of shape (len(steps), n + 1) whose row j is
    P(X_n(steps[j]) = k) for k = 0..n.  A row-matrix pushforward may cost
    at most DP_BUDGET_OPS operations over the longest run.
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
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        first = min(s for s, ok in zip(steps, finite) if not ok)
        raise DPError(f"{kernel.name}: the pmf is not finite at step {first}")
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
