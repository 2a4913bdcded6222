"""Killed subordinators, the exponential clock change, and limit functionals.

Paths are piecewise linear plus jumps: jumps above a cutoff come from a
Poisson process at the exact truncated rate, the discarded small jumps
are replaced by their mean drift, and the neglected variance is reported
on the path as a certificate.  That mean and variance are computed once
per (Lévy measure, cutoff) and kept with the jump sampler, so every path
on one cutoff carries the same certificate value.  Everything downstream
of a sampled path (clock change, exponential functional, gap structure)
is closed-form segment algebra, never numerical integration.

Every sampler draws from a generator made by ``philox_rng(seed, stream)``,
so a path is a function of that generator's (seed, stream) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measures import FiniteMeasure, LevyMeasure, LevyTriple, laplace_exponent
from .streams import philox_rng

SMALL_JUMP_VARIANCE_BUDGET = 1e-6
RESTART_BLOCK = 4.0  # ξ-time per Markov-restart block of the I and Y samplers


class InsufficientHorizonError(RuntimeError):
    """The simulated horizon or cutoff cannot resolve the requested quantity."""


# ---------------------------------------------------------------------------
# jump-size sampling above the cutoff
# ---------------------------------------------------------------------------

class _JumpSampler:
    """Inverse-CDF sampler for jump sizes conditioned to exceed the cutoff."""

    def __init__(self, levy: LevyMeasure, eps: float):
        self.eps = eps
        self.atoms = sorted((y, m) for y, m in levy.atoms if y > eps)
        self.atom_mass = math.fsum(m for _, m in self.atoms)
        self._atom_cum = np.cumsum([m for _, m in self.atoms])
        self._atom_y = np.array([y for y, _ in self.atoms])
        self.rate = levy.tail(eps)
        # small-jump mean and variance of every path on this cutoff; atoms at
        # or below it are compensated and certified like the density part
        self.mean_below = levy.mean_below(eps)
        self.variance_below = levy.variance_below(eps)
        self.dens_rate = self.rate - self.atom_mass
        self._inverse = None
        if levy.density is not None and self.dens_rate > 0.0:
            if levy.tail_inverse is not None:
                self._inverse = levy.tail_inverse
            else:
                self._inverse = _spline_tail_inverse(levy, eps, self.dens_rate)

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms to jump sizes; u is consumed one value per jump."""
        r = u * self.rate
        out = np.empty_like(r)
        dens = r < self.dens_rate
        if np.any(dens):
            out[dens] = self._inverse(r[dens])
        if np.any(~dens):
            idx = np.searchsorted(self._atom_cum, (r[~dens] - self.dens_rate))
            idx = np.minimum(idx, len(self.atoms) - 1)
            out[~dens] = self._atom_y[idx]
        return out


def _spline_tail_inverse(levy: LevyMeasure, eps: float, rate: float) -> Callable:
    """Monotone log-grid interpolant of the density tail, Newton-polished."""
    # imported here: every closed-form tail skips this slow import
    from scipy.interpolate import PchipInterpolator
    y_hi = max(2.0 * eps, 1.0)
    def dens_tail(y):
        return levy.tail(y) - math.fsum(m for loc, m in levy.atoms if loc > y)
    while dens_tail(y_hi) > rate * 1e-14:
        y_hi *= 2.0
        if y_hi > 1e12:
            break
    grid = np.exp(np.linspace(math.log(eps), math.log(y_hi), 800))
    tails = np.array([dens_tail(y) for y in grid])
    keep = tails > 0.0
    grid, tails = grid[keep], tails[keep]
    order = np.argsort(tails)
    interp = PchipInterpolator(np.log(tails[order]), np.log(grid[order]),
                               extrapolate=True)
    dens = levy.density

    def inverse(r):
        r = np.asarray(r, dtype=float)
        y = np.exp(interp(np.log(r)))
        for _ in range(4):
            resid = np.array([dens_tail(v) for v in np.atleast_1d(y)]) - r
            y = np.clip(y + resid / np.maximum(dens(y), 1e-300), eps, None)
        bad = np.abs(np.array([dens_tail(v) for v in np.atleast_1d(y)]) - r)
        if np.any(bad > 1e-8 * rate):
            raise InsufficientHorizonError("tail inversion missed its tolerance")
        return y

    return inverse


def default_cutoff(levy: LevyMeasure, horizon: float) -> float:
    """Largest cutoff whose neglected-variance certificate stays in budget."""
    if levy.is_zero:
        return 1.0
    target = SMALL_JUMP_VARIANCE_BUDGET / max(horizon, 1e-12)
    lo, hi = 1e-14, 1.0
    if levy.density is not None:
        if levy.variance_below(hi) <= target:
            lo = hi
        else:
            for _ in range(64):
                mid = math.sqrt(lo * hi)
                if levy.variance_below(mid) <= target:
                    lo = mid
                else:
                    hi = mid
    eps = lo
    if levy.atoms:
        eps = min(eps, 0.5 * min(y for y, _ in levy.atoms))
    return eps


# ---------------------------------------------------------------------------
# subordinator paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubordinatorPath:
    """Piecewise-linear-plus-jumps approximation of a killed subordinator."""
    triple: LevyTriple
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    drift: float            # compensated drift: true drift + mean of cut jumps
    killing_time: float
    horizon: float
    eps_cut: float
    neglected_variance: float

    def xi_at(self, t) -> np.ndarray | float:
        """Path value at ξ-clock times t <= horizon (inf past the killing time)."""
        t = np.asarray(t, dtype=float)
        if np.any(t > self.horizon * (1 + 1e-12)):
            raise InsufficientHorizonError("path evaluated past its horizon")
        cum = np.concatenate([[0.0], np.cumsum(self.jump_sizes)])
        val = self.drift * t + cum[np.searchsorted(self.jump_times, t, side="right")]
        out = np.where(t < self.killing_time, val, math.inf)
        return float(out) if out.ndim == 0 else out

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """(xi0, dt): start value and length of each affine piece up to
        min(horizon, killing_time); coincident jumps give pieces of length 0."""
        t_end = min(self.horizon, self.killing_time)
        keep = self.jump_times < t_end
        dt = np.diff(np.concatenate([[0.0], self.jump_times[keep], [t_end]]))
        xi0 = np.concatenate([[0.0], np.cumsum(self.drift * dt[:-1] + self.jump_sizes[keep])])
        return xi0, dt

    def to_csv(self) -> str:
        """Event-time dump: (t, value just after t) at 0, each jump, and the end."""
        t_end = min(self.horizon, self.killing_time)
        keep = self.jump_times < t_end
        times = np.concatenate([[0.0], self.jump_times[keep], [t_end]])
        cum = np.concatenate([[0.0], np.cumsum(self.jump_sizes[keep])])
        vals = self.drift * times + np.concatenate([cum, cum[-1:]])[:times.size]
        lines = ["t,xi"]
        lines += [f"{float(t)!r},{float(v)!r}" for t, v in zip(times, vals)]
        return "\n".join(lines) + "\n"


def sample_subordinator(triple: LevyTriple, horizon: float, rng: np.random.Generator,
                        eps_cut: float | None = None) -> SubordinatorPath:
    """Sample jumps above the cutoff exactly; compensate the rest by drift.

    ``rng`` comes from ``philox_rng(seed, stream)``.  Stream consumption
    order is fixed (killing clock, jump count, jump times, jump sizes), so
    a path is a function of its generator's (seed, stream).  The cutoff
    defaults to ``default_cutoff(triple.levy, horizon)``.
    """
    levy = triple.levy
    if eps_cut is None:
        eps_cut = default_cutoff(levy, horizon)
    if eps_cut <= 0.0:
        raise ValueError("eps_cut must be positive")
    u_kill = rng.random()
    killing_time = math.inf if triple.killing == 0.0 else \
        -math.log1p(-u_kill) / triple.killing
    if levy.is_zero:
        times = np.empty(0)
        sizes = np.empty(0)
        neglected = 0.0
        drift = triple.drift
    else:
        sampler = _jump_sampler(levy, eps_cut)
        n_jumps = int(rng.poisson(sampler.rate * horizon))
        times = np.sort(rng.random(n_jumps)) * horizon
        sizes = sampler.sample(rng.random(n_jumps)) if n_jumps else np.empty(0)
        neglected = sampler.variance_below
        drift = triple.drift + sampler.mean_below
    return SubordinatorPath(triple, times, sizes, drift, killing_time,
                            horizon, eps_cut, neglected)


def _jump_sampler(levy: LevyMeasure, eps: float) -> _JumpSampler:
    cache = vars(levy).setdefault("_sampler_cache", {})
    if eps not in cache:
        cache[eps] = _JumpSampler(levy, eps)
    return cache[eps]


# ---------------------------------------------------------------------------
# the exponential clock change
# ---------------------------------------------------------------------------

def _segment_lengths(xi0: np.ndarray, dt: np.ndarray, b: float, gamma: float):
    """Clock-change length of each affine ξ-segment, in closed form."""
    if b == 0.0:
        return dt * np.exp(-gamma * xi0)
    return np.exp(-gamma * xi0) * (-np.expm1(-gamma * b * dt)) / (gamma * b)


class LimitSample:
    """A sampled limit path: Y (changed clock), I and σ.

    Built from affine ξ-segments, which start at the ξ-clock times
    ``t_bounds``; Z = exp(-ξ) is read off the subordinator path itself
    (``SubordinatorPath.xi_at``).  ``tail_weight`` is exp(-γ ξ(end)) for an
    unkilled path, the factor multiplying whatever the unsimulated future
    would contribute to I.
    """

    def __init__(self, seg_xi0: np.ndarray, seg_dt: np.ndarray, drift: float,
                 gamma: float, killed: bool):
        self.gamma = gamma
        self.drift = drift
        self.killed = killed
        self.seg_xi0 = seg_xi0
        self.seg_dt = seg_dt
        self.t_bounds = np.concatenate([[0.0], np.cumsum(seg_dt)])
        self.lengths = _segment_lengths(seg_xi0, seg_dt, drift, gamma)
        self.y_bounds = np.concatenate([[0.0], np.cumsum(self.lengths)])
        self.I = float(self.y_bounds[-1])
        xi_end = (seg_xi0[-1] + drift * seg_dt[-1]) if len(seg_xi0) else 0.0
        self.xi_end = float(xi_end)
        self.tail_weight = 0.0 if killed else math.exp(-gamma * xi_end)

    @property
    def sigma(self) -> float:
        """First zero of Y; equals I identically on the sampled path."""
        return self.I

    def Y(self, t) -> np.ndarray | float:
        """The clock-changed path at Y-time t; 0 from σ on."""
        t = np.asarray(t, dtype=float)
        beyond = t >= self.I
        if np.any(beyond) and not self.killed and self.tail_weight > 1e-9:
            raise InsufficientHorizonError(
                "Y evaluated past the simulated clock range")
        tt = np.minimum(t, self.I)
        idx = np.minimum(np.searchsorted(self.y_bounds, tt, side="right") - 1,
                         len(self.seg_dt) - 1)
        a = self.seg_xi0[idx]
        rel = tt - self.y_bounds[idx]
        g, b = self.gamma, self.drift
        if b == 0.0:
            xi = a
        else:
            # invert rel = e^{-g a} (1 - e^{-g b s})/(g b) for the in-segment time s
            arg = np.minimum(rel * g * b * np.exp(g * a), np.nextafter(1.0, 0.0))
            s = -np.log1p(-arg) / (g * b)
            xi = a + b * s
        out = np.where(beyond, 0.0, np.exp(-xi))
        return float(out) if out.ndim == 0 else out


def lamperti(path: SubordinatorPath, gamma: float) -> LimitSample:
    """Run the exponential clock change over a sampled path.

    Segments between jumps are affine, so the clock integral is exact per
    segment.  The sample ends at the killing time or the horizon,
    whichever comes first; ``tail_weight`` reports what the cut future is
    worth for I.
    """
    if gamma <= 0.0:
        raise ValueError("needs gamma > 0")
    xi0, dt = path.segments()
    pos = dt > 0.0
    # drop zero-length segments (coincident jumps)
    return LimitSample(xi0[pos], dt[pos], path.drift, gamma,
                       path.killing_time <= path.horizon)


def analytic_moments(psi, gamma: float, p_max: int) -> list[float]:
    """Moments p!/(psi(gamma) psi(2 gamma) ... psi(p gamma)) of the limit time.

    ``psi`` may be a FiniteMeasure, a LevyTriple, or a plain callable
    lam -> psi(lam).
    """
    if isinstance(psi, FiniteMeasure):
        mu = psi
        fn = lambda lam: laplace_exponent(mu, lam)
    elif isinstance(psi, LevyTriple):
        fn = psi.laplace_exponent
    else:
        fn = psi
    out = [1.0]
    prod = 1.0
    for p in range(1, p_max + 1):
        val = fn(gamma * p)
        if val <= 0.0:
            raise ValueError(f"psi({gamma * p}) = {val} is not positive")
        prod *= val
        out.append(math.factorial(p) / prod)
    return out


# ---------------------------------------------------------------------------
# batch samplers with Markov-restart horizon control
# ---------------------------------------------------------------------------

def sample_z_marginals(triple: LevyTriple, t_grid: Sequence[float], replicates: int,
                       seed: int, stream0: int = 0) -> np.ndarray:
    """Matrix of Z(t) = exp(-ξ_t) samples, killed paths contributing 0."""
    t = np.asarray(sorted(t_grid), dtype=float)
    horizon = float(t[-1])
    eps_cut = default_cutoff(triple.levy, horizon)
    out = np.empty((replicates, t.size))
    for i in range(replicates):
        path = sample_subordinator(triple, horizon, philox_rng(seed, stream0 + i), eps_cut)
        out[i] = np.exp(-path.xi_at(t))
    return out


def _restart_blocks(triple: LevyTriple, gamma: float, rng: np.random.Generator,
                    eps: float):
    """Clock-changed RESTART_BLOCK pieces of one path, drawn in turn from
    ``rng`` (Markov restarts); the first killed piece is the last."""
    while True:
        block = lamperti(sample_subordinator(triple, RESTART_BLOCK, rng, eps), gamma)
        yield block
        if block.killed:
            return


def sample_exponential_functional(triple: LevyTriple, gamma: float,
                                  replicates: int, seed: int, stream0: int = 0) -> np.ndarray:
    """I = integral of exp(-γ ξ): restart by the Markov property every
    RESTART_BLOCK units of ξ-time until the certified tail weight drops
    below 1e-4 of the running value."""
    psi_g = triple.laplace_exponent(gamma)
    if psi_g <= 0.0:
        raise ValueError("degenerate exponent: psi(gamma) <= 0")
    expected_I = 1.0 / psi_g
    eps = default_cutoff(triple.levy, RESTART_BLOCK)
    out = np.empty(replicates)
    for i in range(replicates):
        total = 0.0
        weight = 1.0
        for block in _restart_blocks(triple, gamma, philox_rng(seed, stream0 + i), eps):
            total += weight * block.I
            weight *= block.tail_weight  # 0 on a killed block
            if weight * expected_I <= 1e-4 * max(total, 1e-300):
                break
        out[i] = total
    return out


def sample_y_marginals(triple: LevyTriple, gamma: float, t_grid: Sequence[float],
                       replicates: int, seed: int, stream0: int = 0) -> np.ndarray:
    """Matrix of Y(t) samples of the clock-changed limit path.

    Paths are extended block by block (Markov restarts on one stream)
    until the requested Y-times are covered or the leftover weight
    exp(-γ ξ) is at most 1e-9; Y is 0 beyond the first zero.
    """
    t = np.asarray(sorted(t_grid), dtype=float)
    t_max = float(t[-1])
    eps = default_cutoff(triple.levy, RESTART_BLOCK)
    out = np.empty((replicates, t.size))
    for i in range(replicates):
        xi0_parts, dt_parts = [], []
        offset = 0.0
        covered = 0.0
        for block in _restart_blocks(triple, gamma, philox_rng(seed, stream0 + i), eps):
            xi0_parts.append(block.seg_xi0 + offset)
            dt_parts.append(block.seg_dt)
            covered += math.exp(-gamma * offset) * block.I
            offset += block.xi_end
            if covered >= t_max or math.exp(-gamma * offset) <= 1e-9:
                break
        sample = LimitSample(np.concatenate(xi0_parts), np.concatenate(dt_parts),
                             block.drift, gamma, block.killed)
        vals = np.zeros(t.size)
        inside = t < sample.I
        if inside.any():
            vals[inside] = np.atleast_1d(sample.Y(t[inside]))
        out[i] = vals
    return out


def limit_record(psi_id: str, gamma: float, path: SubordinatorPath,
                 sample: LimitSample) -> dict:
    """JSON-ready record of one clock-changed sample with its certificates."""
    kill = path.killing_time
    return {
        "psi": psi_id,
        "gamma": gamma,
        "I": sample.I,
        "sigma": sample.sigma,
        "killing_time": None if math.isinf(kill) else kill,
        "eps_cut": path.eps_cut,
        "neglected_variance": path.neglected_variance,
        "tail_weight": sample.tail_weight,
    }


# ---------------------------------------------------------------------------
# compositions from the gap structure of the range
# ---------------------------------------------------------------------------

def balls_in_gaps(path: SubordinatorPath, n: int, rng: np.random.Generator):
    """Throw n uniforms from ``rng`` into the gaps of the closed range of 1 - exp(-ξ).

    Balls sharing an open gap form one block; balls landing on a covered
    stretch (positive drift) are singletons.  Blocks are returned in
    left-to-right order as a composition of n.  Raises when a ball falls
    beyond the range the path resolves.
    """
    from .chain_engine import Composition

    if n < 1:
        raise ValueError("needs n >= 1")
    if path.killing_time <= path.horizon:
        raise ValueError("balls_in_gaps needs an unkilled path")
    u = np.sort(rng.random(n))
    # covered stretches of 1 - e^-xi, one per affine segment
    xi0, dt = path.segments()
    lo = 1.0 - np.exp(-xi0)
    hi = 1.0 - np.exp(-(xi0 + path.drift * dt))
    if u[-1] >= hi[-1]:
        raise InsufficientHorizonError(
            f"a ball at {u[-1]:.6g} falls beyond the resolved range {hi[-1]:.6g}")
    flat = np.empty(2 * lo.size)
    flat[0::2] = lo
    flat[1::2] = hi
    idx = np.searchsorted(flat, u, side="left")
    parts = []
    current_gap = None
    count = 0
    for pos in idx:
        if pos % 2 == 1:  # inside a covered stretch: its own singleton block
            if count:
                parts.append(count)
            parts.append(1)
            current_gap = None
            count = 0
        else:
            gap = pos // 2
            if gap == current_gap:
                count += 1
            else:
                if count:
                    parts.append(count)
                current_gap = gap
                count = 1
    if count:
        parts.append(count)
    return Composition(tuple(parts))


def sample_gap_compositions(triple: LevyTriple, n: int, replicates: int,
                            seed: int, stream0: int = 0) -> list:
    """Independent balls-in-gaps compositions, one per replicate stream.

    Paths run to horizon 64.  The horizon doubles (on the same stream, up
    to 2**20) in the rare event that a ball falls beyond the resolved
    range, so results stay deterministic.
    """
    out = []
    cutoffs = {}  # one default_cutoff bisection per horizon, not per path
    for i in range(replicates):
        gen = philox_rng(seed, stream0 + i)
        T = 64.0
        while True:
            if T not in cutoffs:
                cutoffs[T] = default_cutoff(triple.levy, T)
            path = sample_subordinator(triple, T, gen, cutoffs[T])
            try:
                out.append(balls_in_gaps(path, n, gen))
                break
            except InsufficientHorizonError:
                T *= 2.0
                if T > 2 ** 20:
                    raise
    return out
