"""Chain trajectories, rescaled paths, martingales, couplings, compositions.

Single trajectories are sampled row-by-row with inverse CDF on the
memoized row and one uniform per step, so a path is a pure function of
its (seed, stream) pair.  The batch helpers advance one whole column of
per-replicate streams per step through the kernel's vectorized
``step`` and ``absorbing_mask`` (the barrier family samples its step
law directly instead of the conditioned row: same law, same
determinism guarantee, much faster).

Time changes on step paths are exact piecewise algebra: between jumps the
rescaled path is constant, so the clock change is linear per segment and
nothing is ever integrated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import (BarrierKernel, IgnoredJumpKernel, Kernel,
                      StepDistribution, TruncatedKernel)
from .streams import BlockUniforms, philox_rng

DEFAULT_STEP_CAP = 10 ** 9


class RunawayChainError(RuntimeError):
    """The chain exceeded the configured step cap without absorbing."""


class MartingaleOverflow(ArithmeticError):
    """A martingale log-product exceeded the configured bound."""


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainPath:
    """One trajectory, from the start state down to first absorption."""
    kernel: Kernel
    states: np.ndarray
    seed: int
    stream: int

    def __post_init__(self):
        s = self.states
        if s.ndim != 1 or s.size == 0:
            raise ValueError("states must be a non-empty vector")
        if np.any(np.diff(s) > 0):
            raise ValueError("states must be non-increasing")

    @property
    def start(self) -> int:
        return int(self.states[0])

    @property
    def absorption_time(self) -> int:
        return self.states.size - 1

    def record(self, include_path: bool = False) -> dict:
        """Per-replicate JSON-ready record."""
        rec = {
            "kernel": self.kernel.name,
            "n": self.start,
            "seed": self.seed,
            "stream": self.stream,
            "absorption_time": self.absorption_time,
            "final_state": int(self.states[-1]),
        }
        if include_path:
            rec["states"] = [int(x) for x in self.states]
        return rec

    def to_csv(self) -> str:
        """Full path as (step, state) rows."""
        lines = ["step,state"]
        lines += [f"{k},{int(s)}" for k, s in enumerate(self.states)]
        return "\n".join(lines) + "\n"


def sample_path(kernel: Kernel, n: int, seed: int, stream: int = 0,
                max_steps: int = DEFAULT_STEP_CAP) -> ChainPath:
    """Sample one trajectory started at n, stopped on entering the absorbing set."""
    rng = philox_rng(seed, stream)
    states = [n]
    current = n
    while not kernel.absorbing(current):
        if len(states) > max_steps:
            raise RunawayChainError(
                f"{kernel.name}: no absorption within {max_steps} steps from {n}")
        c = kernel.row_cumsum(current)
        u = rng.random()
        current = int(np.searchsorted(c, u, side="right"))
        states.append(current)
    return ChainPath(kernel, np.asarray(states, dtype=np.int64), seed, stream)


def sample_absorption_times(kernel: Kernel, n: int, replicates: int, seed: int,
                            stream0: int = 0,
                            max_steps: int = DEFAULT_STEP_CAP) -> np.ndarray:
    """Absorption times of independent replicates on streams stream0, stream0+1, ..."""
    uniforms = BlockUniforms(seed, stream0, replicates)
    states = np.full(replicates, n, dtype=np.int64)
    steps = np.zeros(replicates, dtype=np.int64)
    alive = ~kernel.absorbing_mask(states)
    taken = 0
    while alive.any():
        if taken >= max_steps:
            raise RunawayChainError(f"{kernel.name}: step cap hit in batch sampling")
        u = uniforms.next_column(alive)
        states[alive] = kernel.step(states[alive], u[alive])
        steps[alive] += 1
        taken += 1
        alive[alive] = ~kernel.absorbing_mask(states[alive])
    return steps


def sample_marginal_states(kernel: Kernel, n: int, step_points: Sequence[int],
                           replicates: int, seed: int, stream0: int = 0) -> np.ndarray:
    """States of independent replicates after each step count in step_points.

    Returns an array of shape (replicates, len(step_points)); absorbed
    replicates simply stay put, exactly like the chain itself.
    """
    points = sorted(set(int(s) for s in step_points))
    out = np.empty((replicates, len(points)), dtype=np.int64)
    uniforms = BlockUniforms(seed, stream0, replicates)
    states = np.full(replicates, n, dtype=np.int64)
    col = {p: i for i, p in enumerate(points)}
    if 0 in col:
        out[:, col[0]] = states
    alive = ~kernel.absorbing_mask(states)
    for k in range(1, max(points) + 1):
        u = uniforms.next_column(alive)
        if alive.any():
            states[alive] = kernel.step(states[alive], u[alive])
            alive[alive] = ~kernel.absorbing_mask(states[alive])
        if k in col:
            out[:, col[k]] = states
    return out


# ---------------------------------------------------------------------------
# rescaled paths and their exact time change
# ---------------------------------------------------------------------------

class RescaledPath:
    """The space-time rescaling of a trajectory and its clock change.

    Y holds value states[j]/n on [j/a_n, (j+1)/a_n); Z is Y run with the
    gamma-clock, under which segment j lasts (states[j]/n)**-gamma / a_n.
    All lookups are exact segment algebra.
    """

    def __init__(self, path: ChainPath, gamma: float | None = None,
                 a_n: float | None = None):
        self.path = path
        n = path.start
        self.n = n
        k = path.kernel
        self.gamma = k.gamma if gamma is None else gamma
        if self.gamma is None:
            raise ValueError("no gamma available; pass one explicitly")
        self.a_n = k.scaling(n) if a_n is None else a_n
        self.y = path.states / n if n > 0 else path.states.astype(float)
        yk = self.y[:-1]
        if np.any(yk == 0.0):
            raise ValueError("interior states must be positive")
        # duration of segment j on the Z clock
        self.z_durations = yk ** -self.gamma / self.a_n
        self.z_bounds = np.concatenate([[0.0], np.cumsum(self.z_durations)])

    @property
    def absorption_time(self) -> int:
        return self.path.absorption_time

    @property
    def sigma(self) -> float:
        """First zero of Y: A_n/a_n when the chain absorbs at 0, else inf."""
        if self.y[-1] == 0.0:
            return self.absorption_time / self.a_n
        return math.inf

    def Y(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        idx = np.minimum(np.floor(self.a_n * t).astype(int), self.absorption_time)
        out = self.y[idx]
        return float(out) if out.ndim == 0 else out

    def _z_index(self, t) -> np.ndarray:
        return np.minimum(np.searchsorted(self.z_bounds, t, side="right") - 1,
                          self.absorption_time)

    def Z(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        out = self.y[self._z_index(t)]
        return float(out) if out.ndim == 0 else out

    def step_index_at(self, t: float) -> int:
        """Chain step index floor(a_n tau_inv(t)) at Z-clock time t."""
        return int(self._z_index(np.asarray(t, dtype=float)))

    def tau_inv(self, t) -> np.ndarray | float:
        """Y-clock time reached by Z-clock time t (integral of Z**gamma).

        Past absorption the segment value is either 0 (slope 0: the clock
        freezes at sigma) or positive (the clock keeps its final slope),
        and the same two-term formula covers both.
        """
        t = np.asarray(t, dtype=float)
        j = self._z_index(t)
        out = j / self.a_n + (t - self.z_bounds[j]) * self.y[j] ** self.gamma
        return float(out) if out.ndim == 0 else out

    def first_below(self, eps: float) -> float:
        """First Z-clock time with Z <= eps (inf if the path never gets there)."""
        hits = np.nonzero(self.y <= eps)[0]
        if hits.size == 0:
            return math.inf
        return float(self.z_bounds[hits[0]])

    def z_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, durations) of the constancy intervals of Z before absorption."""
        return self.y[:-1], self.z_durations


def rescale(path: ChainPath, gamma: float | None = None,
            a_n: float | None = None) -> RescaledPath:
    return RescaledPath(path, gamma, a_n)


# ---------------------------------------------------------------------------
# martingales
# ---------------------------------------------------------------------------

def _log_g_sum(path: ChainPath, lam: float, k: int, log_bound: float) -> float:
    kernel = path.kernel
    total = 0.0
    for i in range(k):
        g = kernel.generating(int(path.states[i]), lam)
        if g <= 0.0:
            return -math.inf
        total += math.log(g)
        if abs(total) > log_bound:
            raise MartingaleOverflow(
                f"log product reached {total:.3g} at step {i} (bound {log_bound:g})")
    return total


def martingale_upsilon(path: ChainPath, lam: float, k: int,
                       log_bound: float = 700.0) -> float:
    """Product martingale (X(k)/n)**lam / prod_{i<k} G_{X(i)}(lam).

    Zero whenever X(k) = 0, which also absorbs the only way a factor
    G = 0 can enter the product.
    """
    if lam <= 0.0:
        raise ValueError("needs lam > 0")
    if k > path.absorption_time:
        k = path.absorption_time
    xk = int(path.states[k])
    if xk == 0:
        return 0.0
    logs = _log_g_sum(path, lam, k, log_bound)
    return math.exp(lam * math.log(xk / path.start) - logs)


def martingale_additive(path: ChainPath, lam: float, k: int) -> float:
    """(X(k)/n)**lam plus the compensator sum of (X(i)/n)**lam (1 - G_{X(i)}(lam))."""
    if lam <= 0.0:
        raise ValueError("needs lam > 0")
    if k > path.absorption_time:
        k = path.absorption_time
    n = path.start
    kernel = path.kernel
    val = (path.states[k] / n) ** lam if path.states[k] > 0 else 0.0
    comp = []
    for i in range(k):
        xi = int(path.states[i])
        if xi == 0:
            break
        comp.append((xi / n) ** lam * (1.0 - kernel.generating(xi, lam)))
    return val + math.fsum(comp)


def martingale_M(rescaled: RescaledPath, lam: float, t: float, eps: float,
                 log_bound: float = 700.0) -> float:
    """The stopped continuous-time martingale evaluated at t ^ (first time Z <= eps)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("needs eps in (0, 1)")
    if t < 0.0:
        raise ValueError("needs t >= 0")
    s = min(t, rescaled.first_below(eps))
    j = rescaled.step_index_at(s)
    return martingale_upsilon(rescaled.path, lam, j, log_bound)


# ---------------------------------------------------------------------------
# coupled barrier / truncated / ignored triple
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoupledTriple:
    """Three walks driven by one jump stream.

    The ignored-jump walk skips overflowing jumps, the truncated walk dies
    on the first overflow, and the conditioned walk reads the ignored walk
    along its jump-acceptance times.
    """
    path_tilde: ChainPath
    path_x: ChainPath
    path_hat: ChainPath
    acceptance_times: np.ndarray

    def __iter__(self):
        return iter((self.path_tilde, self.path_x, self.path_hat))


def coupled_barrier_triple(q: StepDistribution, n: int, seed: int, stream: int = 0,
                           kernels: tuple[Kernel, Kernel, Kernel] | None = None,
                           max_draws: int = DEFAULT_STEP_CAP) -> CoupledTriple:
    """Couple the three barrier-family walks on one i.i.d. step stream."""
    if kernels is None:
        kernels = (TruncatedKernel(q), BarrierKernel(q), IgnoredJumpKernel(q))
    k_tilde, k_x, k_hat = kernels
    rng = philox_rng(seed, stream)
    # every step longer than n overflows all three walks alike
    cum = q.cdf_upto(n)
    hat = [n]
    tilde = [n]
    accept = [0]
    s_raw = 0
    s_hat = 0
    draws = 0
    buf = np.empty(0)
    used = 0
    while hat[-1] != 0:
        if draws >= max_draws:
            raise RunawayChainError("coupled triple: draw cap exceeded")
        if used >= buf.size:
            buf = rng.random(64)
            used = 0
        z = int(np.searchsorted(cum, buf[used], side="right"))
        used += 1
        draws += 1
        s_raw += z
        if s_hat + z <= n:
            s_hat += z
            accept.append(draws)
        hat.append(n - s_hat)
        tilde.append(n - min(s_raw, n))
    accept_arr = np.asarray(accept, dtype=np.int64)
    hat_arr = np.asarray(hat, dtype=np.int64)
    tilde_arr = np.asarray(tilde, dtype=np.int64)
    # the truncated walk is absorbed at its first zero
    t_end = int(np.argmax(tilde_arr == 0))
    x_states = hat_arr[accept_arr]
    path_tilde = ChainPath(k_tilde, tilde_arr[:t_end + 1], seed, stream)
    path_x = ChainPath(k_x, x_states, seed, stream)
    path_hat = ChainPath(k_hat, hat_arr, seed, stream)
    return CoupledTriple(path_tilde, path_x, path_hat, accept_arr)


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Composition:
    """Ordered positive integer parts."""
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("composition parts must be positive")

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def total(self) -> int:
        return sum(self.parts)


def composition_from_path(path: ChainPath) -> Composition:
    """Increments of a strictly decreasing path, read until absorption at 0."""
    if int(path.states[-1]) != 0:
        raise ValueError("composition paths must absorb at 0")
    diffs = -np.diff(path.states)
    if np.any(diffs <= 0):
        raise ValueError("path is not strictly decreasing (zero part found)")
    return Composition(tuple(int(d) for d in diffs))
