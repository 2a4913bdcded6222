"""Subordinator paths, the exponential clock change, and limit functionals."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sschain import config as C
from sschain import limit_process as LP
from sschain import measures as M
from sschain.stats import empirical_moment
from sschain.streams import STREAM_BLOCK, philox_rng

SEED = 31415
GAMMA = 0.5


@pytest.fixture(scope="module")
def barrier_triple():
    return M.levy_triple(M.barrier_measure(GAMMA))


# ---------------------------------------------------------------------------
# path sampling
# ---------------------------------------------------------------------------

def test_pure_killing_path():
    tr = M.levy_triple(M.atom(1.0, 0.0))
    kills = []
    for i in range(4000):
        p = LP.sample_subordinator(tr, 50.0, philox_rng(SEED, i))
        assert p.jump_times.size == 0 and p.drift == 0.0
        assert p.xi_at(min(p.killing_time * 0.9, 50.0)) == 0.0
        kills.append(min(p.killing_time, 50.0))
    # exponential(1) clock: mean of the capped variable is 1 - e^-50 ~ 1
    assert empirical_moment(np.array(kills), 1.0).within(1.0, 4.0)


def test_pure_drift_path():
    tr = M.levy_triple(M.atom(1.0, 1.0))
    p = LP.sample_subordinator(tr, 10.0, philox_rng(SEED, 0))
    t = np.linspace(0.0, 10.0, 7)
    assert np.allclose(p.xi_at(t), t)
    assert p.killing_time == math.inf


def test_compound_poisson_moments():
    rho, y0, T = 1.0, math.log(2.0), 2.0
    tr = M.LevyTriple(0.0, 0.0, M.levy_atom(rho, y0))
    counts, ends = [], []
    for i in range(4000):
        p = LP.sample_subordinator(tr, T, philox_rng(SEED, i))
        counts.append(len(p.jump_times))
        ends.append(p.xi_at(T))
        assert np.all(p.jump_sizes == y0)
    assert empirical_moment(np.array(counts, float), 1.0).within(rho * T, 4.0)
    assert empirical_moment(np.array(ends), 1.0).within(rho * y0 * T, 4.0)


def test_path_determinism(barrier_triple):
    p1 = LP.sample_subordinator(barrier_triple, 2.0, philox_rng(9, 5))
    p2 = LP.sample_subordinator(barrier_triple, 2.0, philox_rng(9, 5))
    assert np.array_equal(p1.jump_times, p2.jump_times)
    assert np.array_equal(p1.jump_sizes, p2.jump_sizes)


def test_cutoff_certificate(barrier_triple):
    levy = barrier_triple.levy
    for horizon in (1.0, 8.0):
        eps = LP.default_cutoff(levy, horizon)
        assert levy.variance_below(eps) <= LP.SMALL_JUMP_VARIANCE_BUDGET / horizon
        p = LP.sample_subordinator(barrier_triple, horizon, philox_rng(1, 0))
        assert p.neglected_variance <= LP.SMALL_JUMP_VARIANCE_BUDGET / horizon
        # compensation keeps the mean exact: drift gains the cut-jump mean
        assert p.drift == barrier_triple.drift + levy.mean_below(p.eps_cut)
        assert p.neglected_variance == levy.variance_below(p.eps_cut)


@pytest.mark.parametrize("tr", [M.LevyTriple(0.2, 0.3, M.levy_atom(1.0, 0.7)),
                                M.LevyTriple(0.0, 0.1, M.barrier_levy_measure(GAMMA))],
                         ids=["killed", "unkilled"])
def test_segments_tile_the_path(tr):
    horizon = 20.0
    p = LP.sample_subordinator(tr, horizon, philox_rng(SEED, 4))
    assert (p.killing_time < horizon) == (tr.killing > 0.0)
    t_end = min(horizon, p.killing_time)
    xi0, dt = p.segments()
    assert np.sum(dt) == pytest.approx(t_end, rel=1e-12)
    starts = np.concatenate([[0.0], p.jump_times[p.jump_times < t_end]])
    assert xi0.size == starts.size > 1
    assert np.allclose(xi0, p.xi_at(starts), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("tr", [M.levy_triple(M.barrier_measure(GAMMA)),
                                M.levy_triple(M.atom(1.0, 0.0))], ids=["barrier", "killing"])
def test_z_marginals_rows_are_subordinator_paths(tr):
    t = np.array([0.25, 0.5, 1.0])
    z = LP.sample_z_marginals(tr, t, 30, SEED, stream0=17)
    eps = LP.default_cutoff(tr.levy, t[-1])
    for i in range(30):
        p = LP.sample_subordinator(tr, t[-1], philox_rng(SEED, 17 + i), eps)
        assert np.array_equal(z[i], np.exp(-p.xi_at(t)))


def test_gap_compositions_compute_the_cutoff_once_per_horizon(monkeypatch):
    calls = {"cutoff": 0, "paths": 0}
    cutoff, subordinator = LP.default_cutoff, LP.sample_subordinator

    def counted_cutoff(*args, **kwargs):
        calls["cutoff"] += 1
        return cutoff(*args, **kwargs)

    def counted_subordinator(*args, **kwargs):
        calls["paths"] += 1
        return subordinator(*args, **kwargs)

    monkeypatch.setattr(LP, "default_cutoff", counted_cutoff)
    monkeypatch.setattr(LP, "sample_subordinator", counted_subordinator)
    reps = 20
    comps = LP.sample_gap_compositions(
        M.LevyTriple(0.0, 0.1, M.barrier_levy_measure(GAMMA)), 3, reps, SEED)
    assert all(c.total == 3 for c in comps)
    doublings = calls["paths"] - reps
    assert 1 <= calls["cutoff"] <= 1 + doublings


def test_batch_samplers_read_whole_rounds(monkeypatch):
    # no LimitSample rebuild, no per-path readout and no per-replicate gap
    # readout: each drawn path is one SubordinatorPath, read off the round's grid
    calls = {"paths": 0, "built": 0, "limit_samples": 0, "readouts": 0, "gap_rounds": 0,
             "grids": 0, "lengths": 0}

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(LP, "sample_subordinator", count("paths", LP.sample_subordinator))
    monkeypatch.setattr(LP.SubordinatorPath, "__init__",
                        count("built", LP.SubordinatorPath.__init__))
    monkeypatch.setattr(LP.LimitSample, "__init__", count("limit_samples", LP.LimitSample.__init__))
    for method in ("segments", "xi_at"):
        monkeypatch.setattr(LP.SubordinatorPath, method,
                            count("readouts", getattr(LP.SubordinatorPath, method)))
    monkeypatch.setattr(LP, "_gap_compositions", count("gap_rounds", LP._gap_compositions))
    barrier = M.levy_triple(M.barrier_measure(GAMMA))
    killed = M.LevyTriple(0.2, 0.3, M.levy_atom(1.0, 0.7))
    reps = 70
    LP.sample_z_marginals(barrier, (0.5, 1.0), reps, SEED)
    LP.sample_exponential_functional(killed, 0.7, reps, SEED)
    # the Y sampler sums each round's clock once
    monkeypatch.setattr(LP, "_segment_grid", count("grids", LP._segment_grid))
    monkeypatch.setattr(LP, "_segment_lengths", count("lengths", LP._segment_lengths))
    LP.sample_y_marginals(barrier, GAMMA, (0.5, 1.0), reps, SEED)
    LP.sample_y_marginals(killed, 0.7, (0.5, 1.0, 2.0), reps, SEED)
    assert calls["grids"] >= 2 * -(-reps // LP.BATCH_REPLICATES)
    assert calls["lengths"] == calls["grids"]
    assert calls["gap_rounds"] == 0
    LP.sample_gap_compositions(M.LevyTriple(0.0, 0.0, M.levy_atom(1.0, math.log(2.0))), 3,
                               reps, SEED)
    assert calls["paths"] > 6 * reps
    assert calls["built"] == calls["paths"]
    assert calls["limit_samples"] == calls["readouts"] == 0
    rounds = -(-reps // LP.BATCH_REPLICATES)
    assert rounds <= calls["gap_rounds"] < reps


def test_small_jump_constants_are_computed_once_per_cutoff(monkeypatch):
    calls = {"n": 0}
    mean_below, variance_below = M.LevyMeasure.mean_below, M.LevyMeasure.variance_below

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(M.LevyMeasure, "mean_below", counted(mean_below))
    monkeypatch.setattr(M.LevyMeasure, "variance_below", counted(variance_below))
    counts = []
    for reps in (10, 40):
        calls["n"] = 0
        LP.sample_z_marginals(M.levy_triple(M.barrier_measure(GAMMA)), [0.5, 2.0], reps, SEED)
        counts.append(calls["n"])
    assert counts[0] == counts[1]


BARRIER_SAMPLERS_SCRIPT = """
import sys
from sschain import limit_process as LP, measures as M

tr = M.levy_triple(M.barrier_measure(0.5))
LP.sample_z_marginals(tr, [0.5, 1.0], 20, 7)
LP.sample_exponential_functional(tr, 0.5, 20, 7)
LP.sample_y_marginals(tr, 0.5, [0.5, 1.0], 20, 7)
LP.sample_gap_compositions(M.LevyTriple(0.0, 0.1, tr.levy), 3, 5, 7)
loaded = [m for m in ("scipy.integrate", "scipy.optimize", "scipy.linalg") if m in sys.modules]
assert not loaded, loaded
print("ok")
"""


def test_barrier_limit_samplers_never_load_scipy_integrate():
    # the small-jump moments, the cutoff bisection and psi are closed forms
    # in the Beta terms and the barrier's tail inverse is exact, so nothing
    # on these paths integrates
    src = str(Path(M.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", BARRIER_SAMPLERS_SCRIPT], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_spline_inverse_matches_exact_inverse():
    # Newton on the barrier's closed tail against its closed inverse
    levy = M.barrier_levy_measure(GAMMA)
    eps = 1e-3
    rate = levy.tail(eps)
    inverse = LP._newton_tail_inverse(levy, eps, rate)
    u = np.linspace(1e-6, 1 - 1e-6, 200)
    assert np.allclose(inverse(u * rate), levy.tail_inverse(u * rate), rtol=1e-7)


def test_levy_measure_sum_of_two_density_parts():
    # terms concatenate as FiniteMeasure's do; the tail index is the heavier
    # part's, and two terms have no closed inverse, so the sampler runs Newton
    total = C.parse_levy_measure("barrier_tail(0.5) + barrier_tail(0.3)")
    parts = (M.barrier_levy_measure(0.5), M.barrier_levy_measure(0.3))
    assert total.unit_beta_terms == parts[0].unit_beta_terms + parts[1].unit_beta_terms
    assert total.tail_index == 0.5 and total.tail_inverse is None
    # the closed forms are sums over the terms, so the moments and the
    # exponent equal the sums over the parts; the tail series differs from
    # the parts' closed tails by at most 8.4e-16 relative (y = 3), bound twice that
    for x in (1e-6, 0.1, 0.69, 0.7, 3.0):
        ref = sum(lm.tail(x) for lm in parts)
        assert abs(total.tail(x) - ref) <= 1.7e-15 * ref, (x, total.tail(x), ref)
    for name, args in (("exponent_integral", (0.25, 1.0, 7.5)),
                       ("mean_below", (1e-5, 1.0, 2.5, math.inf)),
                       ("variance_below", (1e-5, 1.0, 2.5, math.inf))):
        for x in args:
            assert getattr(total, name)(x) == sum(getattr(lm, name)(x) for lm in parts), (name, x)
    eps = 1e-4
    sampler = LP._JumpSampler(total, eps)
    u = np.random.default_rng(SEED).random(20_000)
    y = sampler.sample(u)  # refuses a residual above 1e-8 rate
    assert np.all(y >= eps)
    resid = np.abs(total._density_tail(y) - u * sampler.rate)
    assert resid.max() <= 1e-8 * sampler.rate


def test_tail_inverse_of_a_log_tail_matches_its_closed_inverse():
    # lebesgue maps to the unit term (1, 1, 0), an infinite measure with
    # tail -log(1 - e^-y): one sample call inverts 20000 jumps at once.
    # Worst measured relative error 7.7e-15; the tolerance is twice that
    lm = M.levy_triple(M.lebesgue()).levy
    assert lm.tail_inverse is None
    sampler = LP._JumpSampler(lm, 1e-4)
    u = np.random.default_rng(SEED).random(20_000)
    exact = -np.log1p(-np.exp(-u * sampler.rate))
    assert np.allclose(sampler.sample(u), exact, rtol=1.5e-14, atol=0.0)


def test_tail_inverse_of_a_beta_term_with_negative_b_on_a_whole_array():
    # beta(1.5, 0.5) maps to the unit term (c, 1.5, -0.5), whose tail is
    # c (2 sqrt(x / (1-x)) - 2 asin(sqrt(x))) at x = e^-y.  The sampler
    # refuses a residual above 1e-8 rate; the worst measured is 4.5e-16 rate
    lm = M.levy_triple(M.beta_density(1.5, 0.5)).levy
    (t,) = lm.unit_beta_terms
    eps = 1e-4
    sampler = LP._JumpSampler(lm, eps)
    u = np.random.default_rng(SEED).random(20_000)
    r = u * sampler.rate
    y = sampler.sample(u)
    x = np.exp(-y)
    tail = t.coef * (2 * np.sqrt(x / -np.expm1(-y)) - 2 * np.arcsin(np.sqrt(x)))
    assert np.all(y > eps)
    assert np.max(np.abs(tail - r)) <= 1e-15 * sampler.rate


# ---------------------------------------------------------------------------
# the clock change
# ---------------------------------------------------------------------------

def test_lamperti_pure_killing():
    tr = M.levy_triple(M.atom(1.0, 0.0))
    p = LP.sample_subordinator(tr, 100.0, philox_rng(SEED, 3))
    ls = LP.lamperti(p, GAMMA)
    e = p.killing_time
    assert ls.killed and ls.I == pytest.approx(e, rel=1e-14)
    assert ls.sigma == ls.I
    assert ls.Y(0.3 * e) == 1.0
    assert ls.Y(e * 1.0001) == 0.0


def test_lamperti_deterministic_drift_closed_form():
    # unit drift with gamma = 1: the changed-clock path is the tent 1 - t
    tr = M.levy_triple(M.atom(1.0, 1.0))
    p = LP.sample_subordinator(tr, 80.0, philox_rng(SEED, 0))
    ls = LP.lamperti(p, 1.0)
    assert ls.I == pytest.approx(1.0, rel=1e-12)
    for t in (0.0, 0.25, 0.77, 0.999):
        assert ls.Y(t) == pytest.approx(1.0 - t, rel=1e-9)
    assert p.xi_at(2.5) == pytest.approx(2.5, rel=1e-12)


def test_sigma_equals_I_pathwise():
    tr = M.LevyTriple(0.7, 0.2, M.levy_atom(0.5, 0.9))
    for i in range(20):
        p = LP.sample_subordinator(tr, 300.0, philox_rng(SEED, i))
        ls = LP.lamperti(p, 0.7)
        assert ls.killed
        assert abs(ls.sigma - ls.I) <= 1e-12


def test_lamperti_markov_restart_consistency(barrier_triple):
    # pathwise self-similarity: after Y-time t0 the path restarts as a
    # rescaled fresh copy driven by the shifted increments
    p = LP.sample_subordinator(barrier_triple, 6.0, philox_rng(SEED, 2))
    ls = LP.lamperti(p, GAMMA)
    t0 = 0.3 * ls.I
    s0 = p.xi_at(_invert_clock(ls, t0))
    y0 = math.exp(-s0)
    # shifted path: same jumps after the split time, values offset by s0
    split = _invert_clock(ls, t0)
    keep = p.jump_times > split
    shifted = LP.SubordinatorPath(
        p.triple, p.jump_times[keep] - split, p.jump_sizes[keep], p.drift,
        math.inf, p.horizon - split, p.eps_cut, p.neglected_variance)
    ls2 = LP.lamperti(shifted, GAMMA)
    for u in (0.05, 0.2, 0.4):
        t = t0 + u * (ls.I - t0)
        rel = (t - t0) * y0 ** -GAMMA
        if rel < ls2.I:
            assert ls.Y(t) == pytest.approx(y0 * ls2.Y(rel), rel=1e-9)


def _invert_clock(ls, t):
    # first xi-clock time whose accumulated Y-length reaches t
    j = int(np.searchsorted(ls.y_bounds, t, side="right") - 1)
    a, b, g = ls.seg_xi0[j], ls.drift, ls.gamma
    rel = t - ls.y_bounds[j]
    if b == 0.0:
        return ls.t_bounds[j] + rel * math.exp(g * a)
    return ls.t_bounds[j] - math.log1p(-rel * g * b * math.exp(g * a)) / (g * b)


def _hand_built_paths():
    tr = M.LevyTriple(0.0, 0.3, M.levy_atom(1.0, 0.5))  # the clock change never reads it
    path = LP.SubordinatorPath
    return [
        path(tr, np.empty(0), np.empty(0), 0.3, math.inf, 2.0, 1e-3, 0.0),  # no jumps
        path(tr, np.array([0.5, 1.0]), np.array([0.2, 0.4]), 0.3, 0.0, 2.0, 1e-3,
             0.0),  # killed at time 0
        path(tr, np.array([0.25, 0.5, 1.5, 1.75]), np.array([0.1, 0.7, 0.2, 0.3]), 0.3,
             1.2, 2.0, 1e-3, 0.0),  # killed inside the horizon
        path(tr, np.array([0.4, 0.9, 0.9, 1.3]), np.array([0.2, 0.1, 0.3, 0.5]), 0.3,
             math.inf, 2.0, 1e-3, 0.0),  # two jumps at one time
        path(tr, np.array([0.1, 0.6, 1.1]), np.array([0.5, 0.25, 0.125]), 0.0,
             math.inf, 2.0, 1e-3, 0.0),  # no drift
        LP.sample_subordinator(M.levy_triple(M.barrier_measure(GAMMA)), 2.0,
                               philox_rng(SEED, 8)),  # hundreds of jumps
    ]


def _per_path_clock(p, gamma):
    # the clock change of one path, written out piece by piece
    t_end = min(p.horizon, p.killing_time)
    keep = p.jump_times < t_end
    dt = np.diff(np.concatenate([[0.0], p.jump_times[keep], [t_end]]))
    xi0 = np.concatenate([[0.0], np.cumsum(p.drift * dt[:-1] + p.jump_sizes[keep])])
    pos = dt > 0.0
    xi0, dt, b = xi0[pos], dt[pos], p.drift
    if b == 0.0:
        lengths = dt * np.exp(-gamma * xi0)
    else:
        lengths = np.exp(-gamma * xi0) * (-np.expm1(-gamma * b * dt)) / (gamma * b)
    I = float(np.concatenate([[0.0], np.cumsum(lengths)])[-1])
    xi_end = float(xi0[-1] + b * dt[-1]) if xi0.size else 0.0
    return xi0, dt, I, xi_end


def test_clock_change_padding_does_not_leak_between_paths():
    paths = _hand_built_paths()
    gamma = 0.7
    grid_xi0, grid_dt, ends, drift = LP._segment_grid(paths)
    killed = [p.killing_time <= p.horizon for p in paths]
    _lengths, y_bounds, xi_end, tail_weight = LP._clock(
        grid_xi0, grid_dt, ends, drift, killed, gamma)
    I = y_bounds[:, -1]
    t = np.array([0.0, 0.3, 0.9, 1.2, 1.9])
    xi = LP._xi_grid(paths, t)
    for i, p in enumerate(paths):
        alone = LP.lamperti(p, gamma)
        pos = grid_dt[i] > 0.0
        xi0, dt = grid_xi0[i, pos], grid_dt[i, pos]
        ref_xi0, ref_dt, ref_I, ref_xi_end = _per_path_clock(p, gamma)
        for got in (alone.seg_xi0, xi0):
            assert got.tobytes() == ref_xi0.tobytes(), i
        for got in (alone.seg_dt, dt):
            assert got.tobytes() == ref_dt.tobytes(), i
        assert I[i] == alone.I == ref_I, i
        assert xi_end[i] == alone.xi_end == ref_xi_end, i
        assert killed[i] == alone.killed
        assert tail_weight[i] == alone.tail_weight
        assert tail_weight[i] == (0.0 if alone.killed else math.exp(-gamma * ref_xi_end))
        y_t = alone.I * np.array([0.0, 0.2, 0.5, 0.9])
        batch_sample = LP.LimitSample(xi0, dt, float(drift[i]), gamma, killed[i])
        assert batch_sample.Y(y_t).tobytes() == alone.Y(y_t).tobytes(), i
        assert xi[i].tobytes() == p.xi_at(t).tobytes(), i
    assert I[1] == 0.0 and killed[1]  # killed at time 0: no segment
    assert np.count_nonzero(grid_dt[3] > 0.0) == 4  # the coincident jumps leave one piece of 0


def _y_by_concatenated_blocks(triple, gamma, t, seed, stream):
    # one replicate of sample_y_marginals, written out with lamperti and one
    # LimitSample over the ξ-shifted blocks of its stream
    gen = philox_rng(seed, stream)
    eps = LP.default_cutoff(triple.levy, LP.RESTART_BLOCK)
    xi0s, dts = [], []
    offset = 0.0
    while True:
        block = LP.lamperti(LP.sample_subordinator(triple, LP.RESTART_BLOCK, gen, eps), gamma)
        xi0s.append(block.seg_xi0 + offset)
        dts.append(block.seg_dt)
        offset += block.xi_end
        # the running clock of the blocks so far
        sample = LP.LimitSample(np.concatenate(xi0s), np.concatenate(dts), block.drift,
                                gamma, block.killed)
        if sample.I > t[-1] or math.exp(-gamma * offset) <= 1e-9 or block.killed:
            break
    inside = t < sample.I
    vals = np.zeros(t.size)
    if inside.any():
        vals[inside] = sample.Y(t[inside])
    return vals, sample.I


@pytest.mark.parametrize("triple, gamma, t", [
    (M.levy_triple(M.barrier_measure(GAMMA)), GAMMA, (0.5, 1.0, 40.0)),
    (M.LevyTriple(0.2, 0.3, M.levy_atom(1.0, 0.7)), 0.7, (0.5, 1.0, 2.0)),
    (M.LevyTriple(0.0, 0.0, M.levy_atom(1.0, 0.7)), 0.7, (0.5, 1.0, 2.0, 30.0)),
], ids=["barrier", "killed", "zero-drift"])
def test_y_rows_equal_the_clock_change_of_the_concatenated_blocks(triple, gamma, t):
    t = np.array(t)
    reps = 40  # straddles the batch size
    y = LP.sample_y_marginals(triple, gamma, t, reps, SEED, stream0=11)
    beyond = 0
    for i in range(reps):
        ref, I = _y_by_concatenated_blocks(triple, gamma, t, SEED, 11 + i)
        assert y[i].tobytes() == ref.tobytes(), i
        beyond += t[-1] >= I
    assert beyond >= 1  # some row is read past its first zero


def test_y_at_a_block_end_is_read_in_the_next_block():
    # pure drift 1/2 with gamma = 1/2: a block takes ξ from 0 to 2, so at its
    # clock I1 = (1 - e^-1) / (1/4) the path is e^-2, not yet 0
    triple = M.LevyTriple(0.0, 0.5, M.LevyMeasure())
    gamma = 0.5
    block = LP.lamperti(LP.sample_subordinator(triple, LP.RESTART_BLOCK, philox_rng(SEED, 0)),
                        gamma)
    I1 = block.I
    assert I1 == 2.5284822353142307
    y = LP.sample_y_marginals(triple, gamma, (I1 / 2, I1), 1, SEED)
    assert y.tolist() == [[0.4677735413948743, math.exp(-2.0)]]


def test_analytic_moments():
    assert LP.analytic_moments(lambda lam: 1.0, 1.0, 3) == [1.0, 1.0, 2.0, 6.0]
    mu = M.barrier_measure(GAMMA)
    mom = LP.analytic_moments(mu, GAMMA, 2)
    assert mom[1] == pytest.approx(1.0 / (math.pi / 2 - 1), rel=1e-12)
    assert mom[2] == pytest.approx(2.0 / (math.pi / 2 - 1), rel=1e-12)
    # cross-oracle: quadrature route through the triple representation
    tr = M.levy_triple(mu)
    mom2 = LP.analytic_moments(tr, GAMMA, 2)
    assert mom2[1] == pytest.approx(mom[1], rel=1e-8)
    with pytest.raises(ValueError):
        LP.analytic_moments(lambda lam: 0.0, 1.0, 1)  # degenerate exponent


def test_exponential_functional_moments(barrier_triple):
    samples = LP.sample_exponential_functional(barrier_triple, GAMMA, 6000, SEED)
    mom = LP.analytic_moments(M.barrier_measure(GAMMA), GAMMA, 2)
    assert empirical_moment(samples, 1.0).within(mom[1], 4.0)
    assert empirical_moment(samples, 2.0).within(mom[2], 4.0)


def test_exponential_functional_moments_beta_density():
    # a non-barrier limit: the Beta(1.5, 0.5) image has unit term b = -0.5,
    # and its jumps invert the closed-form tail.  300 replicates take
    # 2.2-3.5 s on a 2-CPU host
    mu = M.beta_density(1.5, 0.5)
    samples = LP.sample_exponential_functional(M.levy_triple(mu), GAMMA, 300, SEED)
    mom = LP.analytic_moments(mu, GAMMA, 2)
    assert empirical_moment(samples, 1.0).within(mom[1], 4.0)
    assert empirical_moment(samples, 2.0).within(mom[2], 4.0)


def test_z_marginals_match_exponent(barrier_triple):
    z = LP.sample_z_marginals(barrier_triple, [0.5, 1.0], 20_000, SEED)
    for j, t in enumerate((0.5, 1.0)):
        for lam in (0.5, 1.0, 2.0):
            m = empirical_moment(z[:, j], lam)
            target = math.exp(-barrier_triple.laplace_exponent(lam) * t)
            assert m.within(target, 4.0), (t, lam)


# ---------------------------------------------------------------------------
# balls in gaps
# ---------------------------------------------------------------------------

def test_balls_in_gaps_single_ball():
    tr = M.LevyTriple(0.0, 0.0, M.levy_atom(1.0, math.log(2.0)))
    comps = LP.sample_gap_compositions(tr, 1, 500, SEED)
    assert all(c.length == 1 and c.total == 1 for c in comps)


def test_balls_in_gaps_share_probability_geometric_oracle():
    # geometric-series oracle: sum over gaps of (2^-j)^2 = 1/3
    tr = M.LevyTriple(0.0, 0.0, M.levy_atom(1.0, math.log(2.0)))
    comps = LP.sample_gap_compositions(tr, 2, 20_000, SEED)
    share = np.array([1.0 if c.length == 1 else 0.0 for c in comps])
    assert empirical_moment(share, 1.0).within(1.0 / 3.0, 4.0)
    assert all(c.total == 2 for c in comps)


def test_balls_in_gaps_equals_the_batch_row_it_reads():
    # about one replicate in ten doubles its horizon; every other row is
    # what balls_in_gaps reads off the replicate's first path and balls
    slow = M.LevyTriple(0.0, 0.02, M.levy_atom(0.1, 0.5))
    reps = 60
    comps = LP.sample_gap_compositions(slow, 3, reps, SEED, stream0=5)
    compared = 0
    for i in range(reps):
        gen = philox_rng(SEED, 5 + i)
        path = LP.sample_subordinator(slow, 64.0, gen)
        try:
            single = LP.balls_in_gaps(path, 3, gen)
        except LP.InsufficientHorizonError:
            continue  # this row doubled its horizon
        assert single == comps[i], i
        compared += 1
    assert reps // 2 <= compared < reps


def test_balls_in_gaps_requires_unkilled_path():
    tr = M.LevyTriple(5.0, 0.0, M.levy_atom(1.0, 1.0))
    rng = philox_rng(SEED, 0)
    while True:
        p = LP.sample_subordinator(tr, 10.0, rng)
        if p.killing_time <= 10.0:
            break
    with pytest.raises(ValueError):
        LP.balls_in_gaps(p, 2, rng)


def test_balls_in_gaps_insufficient_horizon_flag():
    tr = M.LevyTriple(0.0, 0.0, M.levy_atom(1.0, math.log(2.0)))
    # a near-1 ball must eventually fall beyond a tiny path's resolution
    with pytest.raises(LP.InsufficientHorizonError):
        for i in range(2000):
            p = LP.sample_subordinator(tr, 0.5, philox_rng(SEED, i))
            LP.balls_in_gaps(p, 4, philox_rng(SEED, 10_000 + i))


def test_balls_in_gaps_drift_singletons():
    # pure drift covers the whole range: every ball is its own block
    tr = M.levy_triple(M.atom(1.0, 1.0))
    p = LP.sample_subordinator(tr, 60.0, philox_rng(SEED, 0))
    c = LP.balls_in_gaps(p, 6, philox_rng(SEED, 1))
    assert c.parts == (1,) * 6


def test_z_marginals_match_exponent_for_barrier_plus_interior_atom():
    # an interior atom of mu is a fixed-size jump beside the barrier density,
    # which keeps its closed-form tail inverse
    mu = M.atom(0.3, 0.5) + M.barrier_measure(GAMMA)
    triple = M.levy_triple(mu)
    assert triple.levy.tail_inverse is not None
    z = LP.sample_z_marginals(triple, [0.5, 1.0], 2000, SEED)
    for j, t in enumerate((0.5, 1.0)):
        for lam in (0.5, 1.0, 2.0):
            target = math.exp(-M.laplace_exponent(mu, lam) * t)
            assert empirical_moment(z[:, j], lam).within(target, 4.0), (t, lam)


# ---------------------------------------------------------------------------
# pinned sampler outputs
# ---------------------------------------------------------------------------

PIN_SEED = 20260809
PIN_REPLICATES = 150  # straddles the samplers' batch size
PIN_T = (0.5, 1.0)


def _pinned_samplers():
    barrier = M.levy_triple(M.barrier_measure(GAMMA))
    killing = M.levy_triple(M.atom(1.0, 0.0))
    atomic = M.LevyTriple(0.0, 0.0, M.levy_atom(1.0, math.log(2.0)))
    killed = M.LevyTriple(0.2, 0.3, M.levy_atom(1.0, 0.7))  # killed, drift, atoms
    zero_drift = M.LevyTriple(0.0, 0.0, M.levy_atom(1.0, 0.7))  # Y is flat between jumps
    samplers = {
        "z_barrier": lambda reps, s0: LP.sample_z_marginals(barrier, PIN_T, reps, PIN_SEED, s0),
        "z_killing": lambda reps, s0: LP.sample_z_marginals(
            killing, PIN_T, reps, PIN_SEED, STREAM_BLOCK + s0),
        "exp_functional": lambda reps, s0: LP.sample_exponential_functional(
            barrier, GAMMA, reps, PIN_SEED, 2 * STREAM_BLOCK + s0),
        "y_marginals": lambda reps, s0: LP.sample_y_marginals(
            barrier, GAMMA, PIN_T, reps, PIN_SEED, 3 * STREAM_BLOCK + s0),
        "exp_functional_killed": lambda reps, s0: LP.sample_exponential_functional(
            killed, 0.7, reps, PIN_SEED, 4 * STREAM_BLOCK + s0),
        "y_marginals_killed": lambda reps, s0: LP.sample_y_marginals(
            killed, 0.7, (0.5, 1.0, 2.0), reps, PIN_SEED, 5 * STREAM_BLOCK + s0),
        "y_marginals_zero_drift": lambda reps, s0: LP.sample_y_marginals(
            zero_drift, 0.7, (0.5, 1.0, 2.0), reps, PIN_SEED, 10 * STREAM_BLOCK + s0),
    }
    for n in (2, 3, 4):
        samplers[f"gaps_{n}"] = lambda reps, s0, n=n: LP.sample_gap_compositions(
            atomic, n, reps, PIN_SEED, (4 + n) * STREAM_BLOCK + s0)
    # drift covers stretches, and the range resolves so slowly that about
    # one replicate in ten doubles its horizon
    slow = M.LevyTriple(0.0, 0.02, M.levy_atom(0.1, 0.5))
    samplers["gaps_doubling"] = lambda reps, s0: LP.sample_gap_compositions(
        slow, 3, reps, PIN_SEED, 9 * STREAM_BLOCK + s0)
    return samplers


def _sample_digest(out) -> str:
    if isinstance(out, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(out, dtype=float).tobytes()).hexdigest()
    return hashlib.sha256(repr([c.parts for c in out]).encode()).hexdigest()


# SHA-256 of each sampler's output at PIN_SEED.  Every sample is a function
# of its replicate's (seed, stream) pair alone; a change that moves one
# must say so and re-pin.
PINNED_LIMIT_DIGESTS = {
    "z_barrier": "79e2a683c313d5ca0117f4fd559dae6e684586ae8734c72b7b26c656c9a521dc",
    "z_killing": "f54d6a39f51ca7c78b9d5d7d787e0b5b526ee09210fafe91e1103ca19c855b70",
    "exp_functional": "284323524e7daf2ed7eaaf79e35eee230e5985b85f70e0d93492f113a461832e",
    "y_marginals": "5948595274bfc05fd0a6422cafae4921462f4e165edd9a46b3de29449e0692ef",
    "exp_functional_killed": "c0d240c8fabb64a4898073a9913c525aece2ffbb781db41230ff8ec0fc6be250",
    "y_marginals_killed": "e76006d181e4905e42750d2b8ab92f0a0951e92287f211d6eb2495e6a78dc9a4",
    "y_marginals_zero_drift": "dbd0ad72a53a9049bcc78598666d3d2b48c7d30509cf8e3e6b4cbf6bc7f26a9c",
    "gaps_2": "d50b450436e1207b5736420d0a5047ac9044412a052b45a2aaa94f9da756e8a2",
    "gaps_3": "13c06d375ef9bd8bdbbc62240b43027df1c8bd9144ad73a5f71d70872d3636f7",
    "gaps_4": "fc43b20d5030f44c733cdefec3b5b1f612fc34d8501e5fb8c14025d01d2959c0",
    "gaps_doubling": "7394632d415923285ad94e41d400d084cdd3d6031f80221964d1fd87b6c0c7cd",
}


def test_limit_samples_are_pinned():
    got = {name: _sample_digest(fn(PIN_REPLICATES, 0))
           for name, fn in _pinned_samplers().items()}
    assert got == PINNED_LIMIT_DIGESTS


@pytest.fixture(scope="module")
def single_replicates():
    # row i of any batch must be what a batch of one at stream0 + i gives
    return {name: [fn(1, i) for i in range(65)] for name, fn in _pinned_samplers().items()}


@pytest.mark.parametrize("reps", [0, 1, 31, 32, 33, 63, 64, 65])
def test_batch_rows_equal_single_replicates(reps, single_replicates):
    for name, fn in _pinned_samplers().items():
        out = fn(reps, 0)
        assert len(out) == reps, name
        for i in range(reps):
            single = single_replicates[name][i]
            if isinstance(out, np.ndarray):
                assert out[i].tobytes() == single[0].tobytes(), (name, i)
            else:
                assert out[i] == single[0], (name, i)
