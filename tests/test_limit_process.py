"""Subordinator paths, the exponential clock change, and limit functionals."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sschain import limit_process as LP
from sschain import measures as M
from sschain.stats import empirical_moment
from sschain.streams import philox_rng

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
    levy = M.barrier_levy_measure(GAMMA)
    eps = 1e-3
    plain = M.LevyMeasure(density=levy.density, tail=levy._tail,
                          unit_beta_terms=levy.unit_beta_terms)  # closed tail, no exact inverse
    sampler = LP._JumpSampler(plain, eps)
    u = np.linspace(1e-6, 1 - 1e-6, 200)
    got = sampler.sample(u.copy())
    expect = levy.tail_inverse(u * levy.tail(eps))
    assert np.allclose(got, expect, rtol=1e-7)


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
