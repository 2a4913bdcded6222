"""Exact absorption-time distributions, moments, and marginals.

No Monte Carlo anywhere in this module, so its outputs serve as the
independent oracle against which simulation and the asymptotic predictions
are validated.  Moments are first-step analysis: ``_first_step`` forms each
state's sums over the lower states, and a functional's ``finish`` solves the
diagonal self-loop algebraically, which keeps it exact for heavy diagonals.
Distributions evolve the pmf from delta_n in blocks of BLOCK_STEPS steps,
each block one call of the kernel's ``pushforward`` stepper.
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
# the relaxed correlation of _first_step sums blocks of this many states directly
LEAF_STATES = 32
# a pmf evolution asks the kernel's pushforward for this many steps at a time
BLOCK_STEPS = 32


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


class AbsorbingStateError(DPError):
    """A state past 0 is absorbing, which the oracle refuses; ``state`` names it."""

    def __init__(self, state: int):
        super().__init__(f"state {state} is absorbing; collapse the kernel (collapse_absorbing) "
                         "so 0 is the only absorbing state")
        self.state = state


def absorption_moments(kernel: Kernel, n_max: int, p_max: int = 1) -> MomentTable:
    """E[A_n^p] for every start n <= n_max and order p <= p_max.

    Requires a kernel whose only absorbing state is 0.  ``_first_step``
    carries W[k, p - 1] = E[(1 + A_k)^p] from W[0] = 1; O(n_max * p_max) memory.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    values = np.zeros((n_max + 1, p_max + 1))
    values[:, 0] = 1.0
    choose = [[math.comb(p, r) for r in range(p + 1)] for p in range(p_max + 1)]

    def finish(n: int, sums, pnn: float):
        # E[A_n^p] = sum_k p_{n,k} E[(1 + A_k)^p], solved for k = n order by order
        v = [1.0]  # E[A_n^r], r = 0..p
        for p in range(1, p_max + 1):
            lower = math.fsum([c * x for c, x in zip(choose[p], v)])
            v.append((sums[p - 1] + pnn * lower) / (1.0 - pnn))
        values[n] = v
        return [math.fsum([c * x for c, x in zip(choose[p][:p], v)]) + v[p]
                for p in range(1, p_max + 1)]

    _first_step(kernel, n_max, [1.0] * p_max, finish)
    return MomentTable(kernel.name, values)


def _first_step(kernel: Kernel, n_max: int, w0: Sequence[float], finish) -> np.ndarray:
    """W[n] = finish(n, sums, p_nn) for n = 1..n_max in order, from W[0] = w0.

    sums[j] = sum over k < n of p_{n,k} W[k, j]: a first-step functional is
    one ``finish``, which solves for its k = n term.  An absorbing state
    n >= 1 is refused, and so is the first state whose values are not
    finite.  ``toeplitz`` rows are one ``_online_correlation`` of q with
    weight_k W[k], building no row; other rows are built once each.
    """
    # a spare column keeps W's columns strided: np.dot's order is then one for any width
    W = np.zeros((n_max + 1, len(w0) + 1))[:, :len(w0)]
    W[0] = w0

    def solve(n: int, sums, pnn: float):
        if pnn >= 1.0 - ABSORB_TOL:
            raise AbsorbingStateError(n)
        W[n] = finish(n, sums, pnn)

    parts = kernel.toeplitz(n_max)
    if parts is None:
        for n in range(1, n_max + 1):
            row = kernel._checked_row(n)
            solve(n, [float(np.dot(row[:n], W[:n, j])) for j in range(len(w0))], float(row[n]))
    else:
        q, weight, norm, zero, diag = parts
        own = int(norm is None)  # the weight alone first: its correlation is each row's mass
        V = np.column_stack([weight] * own + [weight[:, None] * W])

        def finish_row(n: int, corr: np.ndarray):
            corr = corr.tolist()
            scale = corr.pop(0) if own else float(norm[n])
            sent = float(zero[n])
            solve(n, [c / scale + sent * w for c, w in zip(corr, w0)] if scale
                  else [sent * w for w in w0], float(diag[n]))
            V[n, own:] = weight[n] * W[n]

        _online_correlation(q, V, finish_row)
    bad = np.flatnonzero(~np.isfinite(W).all(axis=1))
    if bad.size:
        raise DPError(f"{kernel.name}: first-step values are not finite from state {bad[0]} on")
    return W


def _online_correlation(q: np.ndarray, W: np.ndarray, finish) -> None:
    """finish(n, sum over k < n of q[n - k] W[k]) for n = 1, 2, ... in order.

    ``finish`` fills W[n], which the sums of later states read; q[0] is
    never used.  Direct sums cover a support s up to DIRECT_SUPPORT in
    O(n_max * s) per column, else relaxed multiplication (van der Hoeven,
    "Relax, but don't be too lazy", 2002) in O(n_max log^2 n_max): solving
    states [lo, hi) is solving [lo, mid), adding that half into
    acc[mid:top], top = min(hi, n_max + 1), as the middle of one cyclic
    convolution of length at least top - lo (the outputs that wrap around
    land below mid; with power-of-two halves, one transform of q per
    length), then solving [mid, hi).
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
# pmf evolution (the kernel's pushforward advances it a block of steps at a time)
# ---------------------------------------------------------------------------

def _blocks(advance, n: int, steps: int):
    """The pmfs of X_n after 0..steps steps, as (k, traj) per block of BLOCK_STEPS.

    traj[i] is the pmf after k + i steps; a block's last row is the next
    block's row 0, and the next block overwrites traj.
    """
    traj = np.zeros((BLOCK_STEPS + 1, n + 1))
    traj[0, n] = 1.0
    for k in range(0, steps, BLOCK_STEPS):
        block = traj[:min(BLOCK_STEPS, steps - k) + 1]
        advance(block)
        yield k, block
        traj[0] = block[-1]


def absorption_distribution(kernel: Kernel, n: int, k_max: int | None = None):
    """pmf of A_n truncated at k_max, plus the unaccounted tail mass.

    The state pmf is pushed forward in blocks of BLOCK_STEPS steps; the
    newly absorbed mass at 0 after each step is recorded, and each step's
    total mass is checked.  Requires a collapsed kernel.  A row-matrix
    pushforward may cost at most DP_BUDGET_OPS operations over the k_max
    steps.
    Returns (pmf, tail_mass) with pmf[k] = P(A_n = k) for k <= k_max.
    """
    if k_max is None:
        k_max = int(math.ceil(50.0 * kernel.scaling(n)))
    pmf = np.zeros(k_max + 1)
    if n == 0:
        pmf[0] = 1.0
        return pmf, 0.0
    advance = kernel.pushforward(n, DP_BUDGET_OPS / max(1, k_max))
    stuck = np.nonzero(kernel.absorbing_mask(np.arange(1, n + 1)))[0]
    if stuck.size:
        raise AbsorbingStateError(int(stuck[0]) + 1)
    absorbed = 0.0
    prev_total = 1.0
    for k0, traj in _blocks(advance, n, k_max):
        for k, pi in enumerate(traj[1:], k0 + 1):
            # numpy's pairwise sum of 10^4 terms near 1 errs by about 2e-15, far inside the bound
            total = float(np.sum(pi))
            if not abs(total - prev_total) <= 1e-12:  # NaN fails it too
                raise DPError(f"{kernel.name}: pmf mass drifted by {total - prev_total!r} "
                              f"at step {k}")
            prev_total = total
            newly = float(pi[0]) - absorbed
            pmf[k] = max(newly, 0.0)
            absorbed = float(pi[0])
    return pmf, 1.0 - absorbed


def marginal_distribution(kernel: Kernel, n: int, steps: Sequence[int]) -> np.ndarray:
    """pmf of X_n after each step count in steps, from one pmf evolution.

    Returns an array of shape (len(steps), n + 1) whose row j is
    P(X_n(steps[j]) = k) for k = 0..n.  A row-matrix pushforward may cost
    at most DP_BUDGET_OPS operations over the longest run.
    """
    at = np.array([int(s) for s in steps], dtype=np.int64)
    if np.any(at < 0):
        raise ValueError("step counts must be >= 0")
    out = np.zeros((at.size, n + 1))
    out[:, n] = 1.0  # the pmf after 0 steps; every later row is overwritten
    last = int(at.max(initial=0))
    if last > 0:
        advance = kernel.pushforward(n, DP_BUDGET_OPS / last)
        for k, traj in _blocks(advance, n, last):
            hit = (at > k) & (at < k + traj.shape[0])
            out[hit] = traj[at[hit] - k]
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise DPError(f"{kernel.name}: the pmf is not finite at step {int(at[~finite].min())}")
    return out


def marginal_moment(kernel: Kernel, n: int, t: float, lam: float) -> float:
    """Exact E[(X_n(floor(a_n t)) / n) ** lam] by pmf evolution.

    Summed by ``math.fsum``: the same bits under any BLAS thread count."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if n == 0:
        return 0.0 if lam > 0 else 1.0
    steps = int(math.floor(kernel.scaling(n) * t))
    pi = marginal_distribution(kernel, n, [steps])[0]
    grid = (np.arange(n + 1) / n) ** lam if lam > 0 else np.ones(n + 1)
    if lam > 0:
        grid[0] = 0.0
    return math.fsum(memoryview(pi * grid))
