"""Chain trajectories, rescaled paths, martingales, couplings, compositions.

Single trajectories are sampled row-by-row with inverse CDF on the
memoized row and one uniform per step, so a path is a pure function of
its (seed, stream) pair.  The batch helpers advance one whole column of
per-replicate streams per step through the kernel's vectorized
``step`` and ``absorbing_mask`` (the barrier family samples its step
law directly instead of the conditioned row: same law, same
determinism guarantee, much faster).

``sample_path`` stays a scalar row-inversion loop because one path is
too narrow for the array calls.  On a shared 2-CPU host (Python 3.11,
numpy 2.4), a warm ``sample_path`` step on the barrier kernel took
3.5-4.3 us, against 11-14 us for ``step`` plus 13 us for
``absorbing_mask`` on one-element arrays.  1000 barrier paths at
n = 1000 took 0.22-0.24 s this way and 1.96-2.50 s as replicate 0 of
``_batch_steps``.

``time_change`` is the one step-path clock change: between jumps the
rescaled path is constant, so the clock change is linear per segment and
nothing is ever integrated numerically.  ``RescaledPath`` reads Y, Z and
tau_inv off it.
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
# largest |log prod G| a product martingale may reach
MARTINGALE_LOG_BOUND = 700.0


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

    def to_csv(self) -> str:
        """Full path as (step, state) rows."""
        lines = ["step,state"]
        lines += [f"{k},{int(s)}" for k, s in enumerate(self.states)]
        return "\n".join(lines) + "\n"


def sample_path(kernel: Kernel, n: int, seed: int, stream: int = 0) -> ChainPath:
    """Sample one trajectory started at n, stopped on entering the absorbing set."""
    uniforms = _uniforms(philox_rng(seed, stream))
    states = [n]
    current = n
    cap = DEFAULT_STEP_CAP
    while not kernel.absorbing(current):
        if len(states) > cap:
            raise RunawayChainError(
                f"{kernel.name}: no absorption within {cap} steps from {n}")
        current = int(kernel.row_cumsum(current).searchsorted(next(uniforms), side="right"))
        states.append(current)
    return ChainPath(kernel, np.asarray(states, dtype=np.int64), seed, stream)


def _uniforms(rng: np.random.Generator):
    """The uniforms of rng one by one, in order, drawn a block at a time."""
    while True:
        yield from rng.random(BlockUniforms.BLOCK).tolist()


def _batch_steps(kernel: Kernel, n: int, replicates: int, seed: int, stream0: int):
    """Yield (states, alive), updated in place, at step 0 and after each step.

    A step's uniform column is drawn only when the caller asks for that step.
    """
    uniforms = BlockUniforms(seed, stream0, replicates)
    states = np.full(replicates, n, dtype=np.int64)
    alive = ~kernel.absorbing_mask(states)
    while True:
        yield states, alive
        u = uniforms.next_column(alive)
        if alive.any():
            states[alive] = kernel.step(states[alive], u[alive])
            alive[alive] = ~kernel.absorbing_mask(states[alive])


def sample_absorption_times(kernel: Kernel, n: int, replicates: int, seed: int,
                            stream0: int = 0) -> np.ndarray:
    """Absorption times of independent replicates on streams stream0, stream0+1, ..."""
    steps = np.zeros(replicates, dtype=np.int64)
    cap = DEFAULT_STEP_CAP
    for taken, (_, alive) in enumerate(_batch_steps(kernel, n, replicates, seed, stream0)):
        if not alive.any():
            return steps
        if taken >= cap:
            raise RunawayChainError(f"{kernel.name}: step cap hit in batch sampling")
        steps[alive] += 1


def sample_marginal_states(kernel: Kernel, n: int, step_points: Sequence[int],
                           replicates: int, seed: int, stream0: int = 0) -> np.ndarray:
    """States of independent replicates after each step count in step_points.

    Returns an array of shape (replicates, len(step_points)) whose column j
    holds the states after step_points[j] steps, in the order given and
    repeats included, as ``exact_dp.marginal_distribution`` orders its
    rows.  Absorbed replicates simply stay put, exactly like the chain.
    """
    points = [int(s) for s in step_points]
    cols: dict[int, list[int]] = {}
    for j, s in enumerate(points):
        if s < 0:
            raise ValueError(f"step counts must be >= 0, got {s}")
        cols.setdefault(s, []).append(j)
    out = np.empty((replicates, len(points)), dtype=np.int64)
    chain = _batch_steps(kernel, n, replicates, seed, stream0)
    for k, (states, _) in zip(range(max(cols, default=-1) + 1), chain):
        if k in cols:
            out[:, cols[k]] = states[:, None]
    return out


# ---------------------------------------------------------------------------
# step functions and their exact clock change
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous non-increasing step function on [0, inf) with values in [0, 1].

    Holds values[i] on [knots[i], knots[i+1]), with knots[0] = 0 and the
    last value persisting forever.  Neighbouring values may be equal (a
    chain path holds); only the last value may be 0.  Both are float
    vectors, kept as given when they already are.
    """
    values: np.ndarray
    knots: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        k = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "knots", k)
        if v.ndim != 1 or v.shape != k.shape or v.size == 0:
            raise ValueError("values and knots must be vectors of equal positive length")
        # each check counts the pairs that pass, so NaN fails it
        m = v.size - 1
        if not (k[0] == 0.0 and np.count_nonzero(k[1:] > k[:-1]) == m):
            raise ValueError("knots must start at 0 and strictly increase")
        if np.count_nonzero(v[1:] <= v[:-1]) != m:
            raise ValueError("values must not increase")
        if not (v[0] <= 1.0 and v[-1] >= 0.0):
            raise ValueError("values must lie in [0, 1]")
        if v.size > 1 and not v[-2] > 0.0:
            raise ValueError("only the last value may be 0")

    def segment(self, t):
        """Index i of the segment [knots[i], knots[i+1]) holding t (0 for t < 0)."""
        return self.knots[1:].searchsorted(t, side="right")

    def __call__(self, t):
        out = self.values[self.segment(t)]
        return float(out) if out.ndim == 0 else out

    @property
    def sigma(self) -> float:
        """First time the function is 0 (inf if it never is)."""
        return float(self.knots[-1]) if self.values[-1] == 0.0 else math.inf


@dataclass(frozen=True, eq=False)
class TimeChange:
    """Exact clock-change bundle of a step path: g = f o tau_inv on its own knots."""
    f: StepFunction
    g: StepFunction
    gamma: float
    sigma_f: float

    def tau(self, t) -> np.ndarray | float:
        """Inverse clock: integral of f**-gamma up to t (inf from sigma_f on)."""
        t = np.asarray(t, dtype=float)
        v, k = self.f.values, self.f.knots
        idx = self.f.segment(t)
        slopes = np.zeros_like(v)
        np.power(v, -self.gamma, out=slopes, where=v > 0.0)
        # g's knots are the values of tau at f's knots
        out = np.where(t >= self.sigma_f, math.inf,
                       self.g.knots[idx] + (t - k[idx]) * slopes[idx])
        return float(out) if out.ndim == 0 else out

    def tau_inv(self, t) -> np.ndarray | float:
        """Forward clock: integral of g**gamma up to t; reaches sigma_f in the limit."""
        t = np.asarray(t, dtype=float)
        idx = self.g.segment(t)
        out = self.f.knots[idx] + (t - self.g.knots[idx]) * self.g.values[idx] ** self.gamma
        out = np.minimum(out, self.sigma_f)
        return float(out) if out.ndim == 0 else out


def time_change(f: StepFunction, gamma: float) -> TimeChange:
    """Exact clock change for a non-increasing step path.

    Returns the bundle (tau, tau_inv, sigma_f, g) with g = f composed with
    tau_inv; every piece is closed-form segment algebra.
    """
    if gamma <= 0.0:
        raise ValueError("needs gamma > 0")
    # only the last value may be 0, so every earlier segment advances the
    # new clock at a finite rate
    v, k = f.values, f.knots
    g_durs = (k[1:] - k[:-1]) * v[:-1] ** -gamma
    g = StepFunction(v, np.concatenate([[0.0], g_durs.cumsum()]))
    return TimeChange(f, g, gamma, f.sigma)


# ---------------------------------------------------------------------------
# rescaled chain paths
# ---------------------------------------------------------------------------

class RescaledPath:
    """The space-time rescaling of a trajectory and its clock change.

    ``clock`` is ``time_change(Y, gamma)`` for the step function Y holding
    states[j]/n on [j/a_n, (j+1)/a_n).  Z = Y o tau_inv is Y run with the
    gamma-clock, under which segment j lasts (states[j]/n)**-gamma / a_n;
    Y, Z, tau_inv and sigma (A_n/a_n when the chain absorbs at 0, else
    inf) are the clock's own.
    """

    def __init__(self, path: ChainPath):
        self.path = path
        n = path.start
        self.n = n
        k = path.kernel
        if k.gamma is None:
            raise ValueError(f"{k.name}: no gamma attached")
        self.gamma = k.gamma
        self.a_n = k.scaling(n)
        y = path.states / n if n > 0 else path.states.astype(float)
        self.clock = time_change(StepFunction(y, np.arange(y.size) / self.a_n), self.gamma)
        self.Y, self.Z = self.clock.f, self.clock.g
        self.tau_inv, self.sigma = self.clock.tau_inv, self.clock.sigma_f

    def step_index_at(self, t: float) -> int:
        """Chain step index floor(a_n tau_inv(t)) at Z-clock time t."""
        return int(self.Z.segment(t))

    def first_below(self, eps: float) -> float:
        """First Z-clock time with Z <= eps (inf if the path never gets there)."""
        j = np.count_nonzero(self.Z.values > eps)  # values do not increase
        return math.inf if j == self.Z.values.size else float(self.Z.knots[j])

    @property
    def z_durations(self) -> np.ndarray:
        """Z-clock length of each segment before absorption."""
        return np.diff(self.Z.knots)

    def z_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, durations) of the constancy intervals of Z before absorption."""
        return self.Z.values[:-1], self.z_durations


def rescale(path: ChainPath) -> RescaledPath:
    return RescaledPath(path)


# ---------------------------------------------------------------------------
# martingales
# ---------------------------------------------------------------------------

def _check_martingale_args(lam: float, k: int):
    if lam <= 0.0:
        raise ValueError("needs lam > 0")
    if k < 0:  # a negative index would read the path from its end
        raise ValueError(f"needs a step count k >= 0, got k = {k}")


def martingale_upsilon(path: ChainPath, lam: float, k: int) -> float:
    """Product martingale (X(k)/n)**lam / prod_{i<k} G_{X(i)}(lam).

    Zero whenever X(k) = 0, which also absorbs the only way a factor
    G = 0 can enter the product.  The log product may not pass
    MARTINGALE_LOG_BOUND in absolute value.
    """
    _check_martingale_args(lam, k)
    if k > path.absorption_time:
        k = path.absorption_time
    xk = int(path.states[k])
    if xk == 0:
        return 0.0
    kernel = path.kernel
    bound = MARTINGALE_LOG_BOUND
    logs = 0.0
    for i in range(k):
        g = kernel.generating(int(path.states[i]), lam)
        if g <= 0.0:
            logs = -math.inf
            break
        logs += math.log(g)
        if abs(logs) > bound:
            raise MartingaleOverflow(
                f"log product reached {logs:.3g} at step {i} (bound {bound:g})")
    return math.exp(lam * math.log(xk / path.start) - logs)


def martingale_additive(path: ChainPath, lam: float, k: int) -> float:
    """(X(k)/n)**lam plus the compensator sum of (X(i)/n)**lam (1 - G_{X(i)}(lam))."""
    _check_martingale_args(lam, k)
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


def martingale_M(rescaled: RescaledPath, lam: float, t: float, eps: float) -> float:
    """The stopped continuous-time martingale evaluated at t ^ (first time Z <= eps)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("needs eps in (0, 1)")
    if t < 0.0:
        raise ValueError("needs t >= 0")
    s = min(t, rescaled.first_below(eps))
    j = rescaled.step_index_at(s)
    return martingale_upsilon(rescaled.path, lam, j)


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
                           kernels: tuple[Kernel, Kernel, Kernel] | None = None) -> CoupledTriple:
    """Couple the three barrier-family walks on one i.i.d. step stream."""
    if kernels is None:
        kernels = (TruncatedKernel(q), BarrierKernel(q), IgnoredJumpKernel(q))
    k_tilde, k_x, k_hat = kernels
    # every step longer than n overflows all three walks alike
    jumps = _quantile_draws(q, n, philox_rng(seed, stream))
    hat = [n]
    tilde = [n]
    accept = [0]
    s_raw = 0
    s_hat = 0
    draws = 0
    while hat[-1] != 0:
        if draws >= DEFAULT_STEP_CAP:
            raise RunawayChainError("coupled triple: draw cap exceeded")
        z = next(jumps)
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


def _quantile_draws(q: StepDistribution, n: int, rng: np.random.Generator):
    """``q.quantile(u, n)``, one uniform u of rng each, a block of uniforms at a time."""
    while True:
        yield from q.quantile(rng.random(BlockUniforms.BLOCK), n).tolist()


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
