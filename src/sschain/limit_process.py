"""Killed subordinators, the exponential clock change, and limit functionals.

Paths are piecewise linear plus jumps: jumps above a cutoff come from a
Poisson process at the exact truncated rate, the discarded small jumps
are replaced by their mean drift, and the neglected variance is reported
on the path as a certificate.  That mean and variance are closed forms in
the measure's Beta terms (``LevyMeasure.mean_below``), computed once per
(Lévy measure, cutoff) and kept with the jump sampler, so every path on
one cutoff carries the same certificate value.  Jump sizes invert the
tail: the barrier's inverse is exact, and any other density inverts its
closed-form tail by Newton steps on the whole jump array.  Everything
downstream of a sampled path (clock change, exponential functional, gap
structure) is closed-form segment algebra, never numerical integration.

Every sampler draws from a generator made by ``philox_rng(seed, stream)``,
so a path is a function of that generator's (seed, stream) pair.  The
batch samplers take BATCH_REPLICATES replicates at a time, replicate i on
``philox_rng(seed, stream0 + i)``, and advance them in lockstep rounds:
every live replicate draws its next path from its own generator with
``sample_subordinator``, then one clock change runs over the round's
paths, padded into a (paths x segments) grid, and the restart and stop
rules act on whole rows.  A replicate's numbers are those of a batch of
one, bit for bit.
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
BATCH_REPLICATES = 64  # replicates whose generators and paths are alive together


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
                self._inverse = _newton_tail_inverse(levy, eps, self.dens_rate)

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms to jump sizes; u is consumed one value per jump."""
        r = u * self.rate
        if not self.atoms:  # r < rate for every u < 1: all from the density
            return self._inverse(r)
        if self.dens_rate <= 0.0:  # r >= 0: all atoms
            return self._atom_sizes(r)
        out = np.empty_like(r)
        dens = r < self.dens_rate
        if np.any(dens):
            out[dens] = self._inverse(r[dens])
        if np.any(~dens):
            out[~dens] = self._atom_sizes(r[~dens])
        return out

    def _atom_sizes(self, r: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._atom_cum, r - self.dens_rate)
        return self._atom_y[np.minimum(idx, len(self.atoms) - 1)]


def _newton_tail_inverse(levy: LevyMeasure, eps: float, rate: float) -> Callable:
    """Inverse of the density part's tail on (0, rate), for whole arrays.

    The start is a log-log linear interpolant over a grid of the tail from
    eps to where it falls below 1e-14 rate, within about 1e-5 rate; three
    Newton steps on the whole array follow (two reach rounding), and an
    answer off by more than 1e-8 rate is refused.
    """
    tail = levy._density_tail
    y_hi = max(2.0 * eps, 1.0)
    while tail(y_hi) > rate * 1e-14 and y_hi < 1e12:
        y_hi *= 2.0
    grid = np.geomspace(eps, y_hi, 800)
    tails = tail(grid)
    keep = tails > 0.0
    order = np.argsort(tails[keep])
    log_t, log_y = np.log(tails[keep][order]), np.log(grid[keep][order])
    dens = levy.density

    def inverse(r):
        r = np.asarray(r, dtype=float)
        y = np.exp(np.interp(np.log(r), log_t, log_y))
        for _ in range(3):
            y = np.clip(y + (tail(y) - r) / np.maximum(dens(y), 1e-300), eps, None)
        if np.any(np.abs(tail(y) - r) > 1e-8 * rate):
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
        out = _xi_grid([self], t.ravel())[0].reshape(t.shape)
        return float(out) if out.ndim == 0 else out

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """(xi0, dt): start value and length of each affine piece up to
        min(horizon, killing_time); coincident jumps give pieces of length 0."""
        xi0, dt, _ends, _drift = _segment_grid([self])
        return xi0[0], dt[0]

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
# a batch of paths on one padded (path x jump) grid
# ---------------------------------------------------------------------------
#
# Row i of a grid holds path i's numbers at the columns the path alone
# would give them, then padding: pieces of length 0, whose clock length is
# exactly 0.  Row-wise np.cumsum adds sequentially, as a 1-d one does, so
# every value at a path's own columns, and its running clock, are bit for
# bit what the path gives alone.  Jump times are sorted.

def _xi_grid(paths, t: np.ndarray) -> np.ndarray:
    """ξ of each path at the flat ξ-clock times t, one row per path; inf
    from the path's killing time on."""
    horizon = np.array([p.horizon for p in paths])
    if np.any(t > horizon[:, None] * (1 + 1e-12)):
        raise InsufficientHorizonError("path evaluated past its horizon")
    cum = np.zeros((len(paths), 1 + max(p.jump_sizes.size for p in paths)))
    idx = np.empty((len(paths), t.size), dtype=np.intp)
    for i, p in enumerate(paths):
        cum[i, 1:p.jump_sizes.size + 1] = p.jump_sizes
        idx[i] = np.searchsorted(p.jump_times, t, side="right")
    np.cumsum(cum, axis=1, out=cum)
    drift = np.array([p.drift for p in paths])
    val = drift[:, None] * t + np.take_along_axis(cum, idx, axis=1)
    killing = np.array([p.killing_time for p in paths])
    return np.where(t < killing[:, None], val, math.inf)


def _segment_grid(paths):
    """(xi0, dt, ends, drift): the affine pieces of each path up to
    min(horizon, killing_time), piece k of path i at (i, k).

    Row i holds ``ends[i] + 1`` pieces, then padding pieces of length 0.
    """
    t_end = np.array([min(p.horizon, p.killing_time) for p in paths])
    # the jumps before t_end, a prefix of the sorted times
    ends = [int(np.searchsorted(p.jump_times, te)) for p, te in zip(paths, t_end.tolist())]
    width = max(ends) + 1
    bounds = np.empty((len(paths), width + 1))
    bounds[:, 0] = 0.0
    bounds[:, 1:] = t_end[:, None]
    xi0 = np.zeros((len(paths), width))
    for i, (p, k) in enumerate(zip(paths, ends)):
        bounds[i, 1:k + 1] = p.jump_times[:k]
        xi0[i, 1:k + 1] = p.jump_sizes[:k]
    dt = np.diff(bounds, axis=1)
    drift = np.array([p.drift for p in paths])
    xi0[:, 1:] += drift[:, None] * dt[:, :-1]
    np.cumsum(xi0, axis=1, out=xi0)
    return xi0, dt, np.array(ends), drift


# ---------------------------------------------------------------------------
# the exponential clock change
# ---------------------------------------------------------------------------

def _segment_lengths(xi0: np.ndarray, dt: np.ndarray, b: np.ndarray, gamma: float):
    """Clock-change length of each affine ξ-segment, in closed form; b is
    the drift of each row.  A segment of length 0 gets exactly 0."""
    decay = np.exp(-gamma * xi0)
    flat = b == 0.0
    if not flat.any():
        return decay * (-np.expm1(-gamma * b * dt)) / (gamma * b)
    b = np.where(flat, 1.0, b)  # any b > 0 keeps the unused formula finite
    return np.where(flat, dt * decay, decay * (-np.expm1(-gamma * b * dt)) / (gamma * b))


def _clock(xi0, dt, ends, drift, killed, gamma):
    """The clock change of rows of affine segments, padded or not.

    Returns the segments' clock lengths, the running clock ``y_bounds``
    (a leading 0, then the running sums of the lengths, so the last
    column is I), ξ at the end of segment ``ends[i]`` and the tail weight
    exp(-γ ξ(end)) of each row (0 when killed).
    """
    lengths = _segment_lengths(xi0, dt, drift[:, None], gamma)
    y_bounds = np.zeros((lengths.shape[0], lengths.shape[1] + 1))
    y_bounds[:, 1:] = lengths
    np.cumsum(y_bounds, axis=1, out=y_bounds)
    rows = np.arange(len(ends))
    xi_end = (xi0[rows, ends] + drift * dt[rows, ends]).tolist()
    tail_weight = [0.0 if k else math.exp(-gamma * x) for k, x in zip(killed, xi_end)]
    return lengths, y_bounds, xi_end, tail_weight


class _ClockChange:
    """The clock change of a batch of paths on one padded segment grid.

    Row i carries what ``lamperti(paths[i], gamma)`` gives: ``I[i]``,
    ``xi_end[i]``, ``tail_weight[i]``, ``killed[i]`` and ``segments(i)``.
    """

    def __init__(self, paths, gamma: float):
        self.xi0, self.dt, ends, self.drift = _segment_grid(paths)
        self.killed = [p.killing_time <= p.horizon for p in paths]
        _lengths, y_bounds, self.xi_end, self.tail_weight = _clock(
            self.xi0, self.dt, ends, self.drift, self.killed, gamma)
        self.I = y_bounds[:, -1].copy()  # a view would keep the grid alive

    def segments(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(xi0, dt) of path i's segments of positive length."""
        pos = self.dt[i] > 0.0
        return self.xi0[i, pos], self.dt[i, pos]


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
        n = seg_dt.size
        # a path killed at time 0 has no segment: clock one of length 0
        grid = (seg_xi0, seg_dt) if n else (np.zeros(1), np.zeros(1))
        lengths, y_bounds, xi_end, tail_weight = _clock(
            grid[0][None], grid[1][None], np.array([grid[1].size - 1]),
            np.array([drift]), [killed], gamma)
        self.lengths = lengths[0, :n]
        self.y_bounds = y_bounds[0, :n + 1]
        self.I = float(self.y_bounds[-1])
        self.xi_end = xi_end[0]
        self.tail_weight = tail_weight[0]

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
        if not self.seg_dt.size:  # killed at time 0: Y is 0 from the start
            return 0.0 if t.ndim == 0 else np.zeros(t.shape)
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

def _batches(replicates: int, seed: int, stream0: int):
    """(first replicate, generators) of each batch of BATCH_REPLICATES
    replicates in turn, replicate i on ``philox_rng(seed, stream0 + i)``."""
    for b0 in range(0, replicates, BATCH_REPLICATES):
        yield b0, [philox_rng(seed, stream0 + i)
                   for i in range(b0, min(b0 + BATCH_REPLICATES, replicates))]


def sample_z_marginals(triple: LevyTriple, t_grid: Sequence[float], replicates: int,
                       seed: int, stream0: int = 0) -> np.ndarray:
    """Matrix of Z(t) = exp(-ξ_t) samples, killed paths contributing 0."""
    t = np.asarray(sorted(t_grid), dtype=float)
    horizon = float(t[-1])
    eps_cut = default_cutoff(triple.levy, horizon)
    out = np.empty((replicates, t.size))
    for b0, gens in _batches(replicates, seed, stream0):
        paths = [sample_subordinator(triple, horizon, gen, eps_cut) for gen in gens]
        out[b0:b0 + len(gens)] = np.exp(-_xi_grid(paths, t))
    return out


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
    for b0, gens in _batches(replicates, seed, stream0):
        total = np.zeros(len(gens))
        weight = np.ones(len(gens))
        live = np.arange(len(gens))
        while live.size:
            # one restart block of every live replicate, each on its own stream
            clock = _ClockChange([sample_subordinator(triple, RESTART_BLOCK, gens[i], eps)
                                  for i in live.tolist()], gamma)
            total[live] += weight[live] * clock.I
            weight[live] *= clock.tail_weight  # 0 on a killed block
            small = weight[live] * expected_I <= 1e-4 * np.maximum(total[live], 1e-300)
            live = live[~(small | clock.killed)]
        out[b0:b0 + len(gens)] = total
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
    for b0, gens in _batches(replicates, seed, stream0):
        parts = [([], []) for _ in gens]
        offset = [0.0] * len(gens)
        covered = [0.0] * len(gens)
        last = [None] * len(gens)  # (drift, killed) of the latest block
        live = list(range(len(gens)))
        while live:
            clock = _ClockChange([sample_subordinator(triple, RESTART_BLOCK, gens[i], eps)
                                  for i in live], gamma)
            more = []
            for j, (i, I) in enumerate(zip(live, clock.I.tolist())):
                xi0, dt = clock.segments(j)
                parts[i][0].append(xi0 + offset[i])
                parts[i][1].append(dt)
                covered[i] += math.exp(-gamma * offset[i]) * I
                offset[i] += clock.xi_end[j]
                last[i] = (float(clock.drift[j]), clock.killed[j])
                if not (covered[i] >= t_max or math.exp(-gamma * offset[i]) <= 1e-9
                        or clock.killed[j]):
                    more.append(i)
            live = more
        for i, (xi0_parts, dt_parts) in enumerate(parts):
            sample = LimitSample(np.concatenate(xi0_parts), np.concatenate(dt_parts),
                                 last[i][0], gamma, last[i][1])
            vals = np.zeros(t.size)
            inside = t < sample.I
            if inside.any():
                vals[inside] = np.atleast_1d(sample.Y(t[inside]))
            out[b0 + i] = vals
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

def _covered(xi0: np.ndarray, dt: np.ndarray, drift) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the stretch of 1 - exp(-ξ) each affine segment covers."""
    return 1.0 - np.exp(-xi0), 1.0 - np.exp(-(xi0 + drift * dt))


def _gap_composition(u: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The composition the sorted balls u make in the gaps between the
    covered stretches [lo, hi]; raises when a ball falls beyond hi[-1]."""
    from .chain_engine import Composition

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


def _check_gap_args(path: SubordinatorPath, n: int):
    if n < 1:
        raise ValueError("needs n >= 1")
    if path.killing_time <= path.horizon:
        raise ValueError("balls_in_gaps needs an unkilled path")


def balls_in_gaps(path: SubordinatorPath, n: int, rng: np.random.Generator):
    """Throw n uniforms from ``rng`` into the gaps of the closed range of 1 - exp(-ξ).

    Balls sharing an open gap form one block; balls landing on a covered
    stretch (positive drift) are singletons.  Blocks are returned in
    left-to-right order as a composition of n.  Raises when a ball falls
    beyond the range the path resolves.
    """
    _check_gap_args(path, n)
    u = np.sort(rng.random(n))
    return _gap_composition(u, *_covered(*path.segments(), path.drift))


def sample_gap_compositions(triple: LevyTriple, n: int, replicates: int,
                            seed: int, stream0: int = 0) -> list:
    """Independent balls-in-gaps compositions, one per replicate stream.

    Paths run to horizon 64.  The horizon doubles (on the same stream, up
    to 2**20) in the rare event that a ball falls beyond the resolved
    range, so results stay deterministic.  Each replicate draws its path,
    then its balls, and again after each doubling, from its own stream.
    """
    out = []
    cutoffs = {}  # one default_cutoff bisection per horizon, not per path
    for _b0, gens in _batches(replicates, seed, stream0):
        comps = [None] * len(gens)
        horizon = [64.0] * len(gens)
        live = list(range(len(gens)))
        while live:
            paths, balls = [], []
            for i in live:
                T = horizon[i]
                if T not in cutoffs:
                    cutoffs[T] = default_cutoff(triple.levy, T)
                paths.append(sample_subordinator(triple, T, gens[i], cutoffs[T]))
                _check_gap_args(paths[-1], n)
                balls.append(np.sort(gens[i].random(n)))
            xi0, dt, ends, drift = _segment_grid(paths)
            lo, hi = _covered(xi0, dt, drift[:, None])
            more = []
            for j, i in enumerate(live):
                m = ends[j] + 1
                try:
                    comps[i] = _gap_composition(balls[j], lo[j, :m], hi[j, :m])
                except InsufficientHorizonError:
                    horizon[i] *= 2.0
                    if horizon[i] > 2 ** 20:
                        raise
                    more.append(i)
            live = more
        out += comps
    return out
