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
rules act on whole rows.  Y(t) and the gap compositions are read off the
round's arrays too: the Y sampler carries each replicate's running clock
from round to round, and one gap readout takes every row's balls at
once.  A replicate's numbers are those of a batch of one, bit for bit.
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
BATCH_REPLICATES = 32  # replicates whose generators and paths are alive together


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
        idx = self._atom_cum.searchsorted(r - self.dens_rate)
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
        times = rng.random(n_jumps)
        times.sort()
        times *= horizon
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
        idx[i] = p.jump_times.searchsorted(t, side="right")
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
    # the jumps before t_end, a prefix of the sorted times: all of them
    # unless the last is not before t_end
    ends = [int(tm.searchsorted(te)) if tm.size and tm[-1] >= te else tm.size
            for tm, te in zip((p.jump_times for p in paths), t_end.tolist())]
    width = max(ends) + 1
    bounds = np.empty((len(paths), width + 1))
    bounds[:, 0] = 0.0
    bounds[:, 1:] = t_end[:, None]
    xi0 = np.zeros((len(paths), width))
    for i, (p, k) in enumerate(zip(paths, ends)):
        bounds[i, 1:k + 1] = p.jump_times[:k]
        xi0[i, 1:k + 1] = p.jump_sizes[:k]
    dt = bounds[:, 1:] - bounds[:, :-1]
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
        y = _y_in_segment(tt - self.y_bounds[idx], self.seg_xi0[idx], self.drift, self.gamma)
        out = np.where(beyond, 0.0, y)
        return float(out) if out.ndim == 0 else out


def _y_in_segment(rel, a, b: float, gamma: float):
    """exp(-ξ) at clock time ``rel`` into affine ξ-segments that start at
    ξ = a with slope b: inverts rel = e^{-γa} (1 - e^{-γbs})/(γb) for the
    in-segment time s (rel e^{γa} when b = 0)."""
    if b == 0.0:
        xi = a
    else:
        arg = np.minimum(rel * gamma * b * np.exp(gamma * a), np.nextafter(1.0, 0.0))
        s = -np.log1p(-arg) / (gamma * b)
        xi = a + b * s
    return np.exp(-xi)


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
            paths = [sample_subordinator(triple, RESTART_BLOCK, gens[i], eps)
                     for i in live.tolist()]
            xi0, dt, ends, drift = _segment_grid(paths)
            killed = np.array([p.killing_time <= p.horizon for p in paths])
            _lengths, y_bounds, _xi_end, tail_weight = _clock(xi0, dt, ends, drift, killed, gamma)
            total[live] += weight[live] * y_bounds[:, -1]
            weight[live] *= tail_weight  # 0 on a killed block
            small = weight[live] * expected_I <= 1e-4 * np.maximum(total[live], 1e-300)
            live = live[~(small | killed)]
        out[b0:b0 + len(gens)] = total
    return out


def sample_y_marginals(triple: LevyTriple, gamma: float, t_grid: Sequence[float],
                       replicates: int, seed: int, stream0: int = 0) -> np.ndarray:
    """Matrix of Y(t) samples of the clock-changed limit path.

    Paths are extended block by block (Markov restarts on one stream)
    until the running clock passes every requested Y-time or the leftover
    weight exp(-γ ξ) is at most 1e-9; Y is 0 beyond the first zero.

    Each round carries its replicates' one running clock: the block's
    pieces, ξ shifted by the replicate's offset, are summed on from the
    clock so far, exactly the running sums of the concatenated blocks, and
    Y(t) is read in the block where that clock first passes t.  A
    replicate stops once its clock is past the last t, so a t at a block's
    end is read at the start of the next block.
    """
    t = np.asarray(sorted(t_grid), dtype=float)
    t_max = float(t[-1])
    eps = default_cutoff(triple.levy, RESTART_BLOCK)
    out = np.zeros((replicates, t.size))
    for b0, gens in _batches(replicates, seed, stream0):
        vals = out[b0:b0 + len(gens)]
        offset = np.zeros(len(gens))
        clock_so_far = np.zeros(len(gens))
        live = np.arange(len(gens))
        while live.size:
            paths = [sample_subordinator(triple, RESTART_BLOCK, gens[i], eps)
                     for i in live.tolist()]
            xi0, dt, ends, drift = _segment_grid(paths)
            rows = np.arange(live.size)
            xi_end = xi0[rows, ends] + drift * dt[rows, ends]  # as _clock takes it
            xi0 += offset[live][:, None]
            run = np.empty((live.size, xi0.shape[1] + 1))
            run[:, 0] = clock_so_far[live]
            run[:, 1:] = _segment_lengths(xi0, dt, drift[:, None], gamma)
            np.cumsum(run, axis=1, out=run)
            clock_so_far[live] = run[:, -1]
            r, k = np.nonzero((run[:, :1] <= t) & (t < run[:, -1:]))
            if r.size:
                # the last piece starting at or before t
                idx = np.count_nonzero(run[r, 1:-1] <= t[k, None], axis=1)
                vals[live[r], k] = _y_in_segment(  # every block has one drift
                    t[k] - run[r, idx], xi0[r, idx], paths[0].drift, gamma)
            offset[live] += xi_end
            done = [clock > t_max or math.exp(-gamma * x) <= 1e-9 or p.killing_time <= p.horizon
                    for clock, x, p in zip(run[:, -1].tolist(), offset[live].tolist(), paths)]
            live = live[~np.array(done)]
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


def _gap_compositions(u: np.ndarray, lo: np.ndarray, hi: np.ndarray, ends: np.ndarray) -> list:
    """The composition each row's sorted balls u[i] make in the gaps between
    the covered stretches [lo[i, k], hi[i, k]], k <= ends[i]; None for a
    row whose last ball falls at or beyond hi[i, ends[i]].

    A ball's position is the count of stretch ends (lo and hi) below it:
    odd inside a covered stretch, where it is its own singleton block, even
    in gap pos // 2.  A block starts at the first ball, at every ball on a
    stretch, and wherever the position changes.  The padding stretches
    past ends[i] sit at hi[i, ends[i]], so they count below no ball in range.
    """
    from .chain_engine import Composition

    rows, n = u.shape
    # a stable row-wise sort puts each ball before the stretch ends equal to it
    is_end = np.argsort(np.concatenate([u, lo, hi], axis=1), axis=1, kind="stable") >= n
    pos = np.cumsum(is_end, axis=1)[~is_end].reshape(rows, n)
    starts = np.ones((rows, n), dtype=bool)
    starts[:, 1:] = (pos[:, 1:] % 2 == 1) | (pos[:, 1:] != pos[:, :-1])
    r, k = np.nonzero(starts)
    stops = np.append(k[1:], n)
    stops[np.append(r[1:] != r[:-1], True)] = n  # a row's last block runs to n
    sizes = (stops - k).tolist()
    resolved = (u[:, -1] < hi[np.arange(rows), ends]).tolist()
    out, b = [], 0
    for ok, m in zip(resolved, np.count_nonzero(starts, axis=1).tolist()):
        out.append(Composition(tuple(sizes[b:b + m])) if ok else None)
        b += m
    return out


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
    xi0, dt, ends, drift = _segment_grid([path])
    lo, hi = _covered(xi0, dt, drift[:, None])
    comp, = _gap_compositions(u[None], lo, hi, ends)
    if comp is None:
        raise InsufficientHorizonError(
            f"a ball at {u[-1]:.6g} falls beyond the resolved range {hi[0, ends[0]]:.6g}")
    return comp


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
            got = _gap_compositions(np.array(balls), *_covered(xi0, dt, drift[:, None]), ends)
            more = []
            for i, comp in zip(live, got):
                if comp is None:
                    horizon[i] *= 2.0
                    if horizon[i] > 2 ** 20:
                        raise InsufficientHorizonError(
                            f"a ball falls beyond the range resolved at horizon {2 ** 20}")
                    more.append(i)
                comps[i] = comp
            live = more
        out += comps
    return out
