"""Trajectories, rescaled paths, martingales, couplings, compositions."""

import math

import numpy as np
import pytest

from sschain import chain_engine as CE
from sschain import kernels as K
from sschain import measures as M
from sschain.stats import empirical_moment

SEED = 1234


def drop_kernel(a=4.0):
    def rows(n):
        r = np.zeros(n + 1)
        r[0] = 1.0
        return r
    return K.ExplicitKernel(rows, scaling=lambda n: a, gamma=1.0, name="drop")


@pytest.fixture(scope="module")
def pt():
    return K.power_tail(0.5)


@pytest.fixture(scope="module")
def bk(pt):
    return K.barrier_kernel(pt)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_path_immediate_drop():
    p = CE.sample_path(drop_kernel(), 7, SEED)
    assert list(p.states) == [7, 0]
    assert p.absorption_time == 1


def test_sample_path_start_absorbed():
    p = CE.sample_path(drop_kernel(), 0, SEED)
    assert list(p.states) == [0]
    assert p.absorption_time == 0


def test_sample_path_two_step_enumeration():
    # enumeration oracle: from 2 the chain hits 0 directly w.p. 1/2
    bk2 = K.barrier_kernel(K.finite_step([0.0, 0.5, 0.5]))
    times = CE.sample_absorption_times(bk2, 2, 20_000, SEED)
    assert set(np.unique(times)) <= {1, 2}
    m = empirical_moment((times == 1).astype(float), 1.0)
    assert m.within(0.5, 4.0)


def test_determinism_bitwise(bk):
    p1 = CE.sample_path(bk, 64, 99, stream=3)
    p2 = CE.sample_path(bk, 64, 99, stream=3)
    p3 = CE.sample_path(bk, 64, 99, stream=4)
    assert np.array_equal(p1.states, p2.states)
    assert not np.array_equal(p1.states, p3.states)


def test_batch_matches_single_paths_for_generic_kernels():
    co = K.beta_coalescent_kernel(1.5, 1.0)
    times = CE.sample_absorption_times(co, 30, 16, SEED, stream0=5)
    singles = [CE.sample_path(co, 30, SEED, stream=5 + i).absorption_time
               for i in range(16)]
    assert list(times) == singles


def test_runaway_guard():
    # deterministic one-step-down walk from far away cannot absorb in time
    def down(n):
        row = np.zeros(n + 1)
        row[max(n - 1, 0)] = 1.0
        return row
    loop = K.ExplicitKernel(down, name="walk-down")
    with pytest.raises(CE.RunawayChainError):
        CE.sample_path(loop, 10 ** 6, SEED, max_steps=100)


def test_batch_sampler_stops_at_inner_absorbing_state():
    # q = (1/2, 0, 1/2): from 3 the walk moves to 1 or stays; row(1) = [0, 1]
    gap = K.barrier_kernel(K.finite_step([0.5, 0.0, 0.5]))
    assert gap.absorbing(1)
    singles = [CE.sample_path(gap, 3, SEED, stream=i) for i in range(200)]
    assert {int(p.states[-1]) for p in singles} == {1}
    # the batch sampler draws the step law, not the row: same law, other paths
    times = CE.sample_absorption_times(gap, 3, 200, SEED, max_steps=200)
    assert times.min() >= 1
    late = CE.sample_marginal_states(gap, 3, [200], 200, SEED)
    assert np.all(late == 1)


def test_record_schema(bk):
    p = CE.sample_path(bk, 32, SEED, stream=7)
    rec = p.record()
    assert rec["kernel"] == bk.name
    assert rec["n"] == 32
    assert rec["seed"] == SEED and rec["stream"] == 7
    assert rec["absorption_time"] == p.absorption_time
    assert "states" in p.record(include_path=True)


def test_marginal_states_snapshots(bk):
    out = CE.sample_marginal_states(bk, 100, [0, 3, 7], 64, SEED)
    assert out.shape == (64, 3)
    assert np.all(out[:, 0] == 100)
    assert np.all(np.diff(out, axis=1) <= 0)


# ---------------------------------------------------------------------------
# rescaling and the exact clock change
# ---------------------------------------------------------------------------

def test_rescale_two_point_path():
    p = CE.ChainPath(drop_kernel(4.0), np.array([7, 0]), SEED, 0)
    r = CE.rescale(p)
    assert r.Y(0.0) == 1.0 and r.Y(0.2499) == 1.0
    assert r.Y(0.25) == 0.0 and r.Y(5.0) == 0.0
    assert r.sigma == 0.25


def test_rescale_constant_segment_is_clock_neutral():
    # while the path sits at its start the two clocks advance together
    k = K.ExplicitKernel(lambda n: np.eye(n + 1)[0], scaling=lambda n: 2.0,
                         gamma=0.7, name="d")
    p = CE.ChainPath(k, np.array([5, 5, 5, 0]), SEED, 0)
    r = CE.rescale(p)
    # first three segments have value 1, so each lasts 1/a_n on both clocks
    assert r.z_durations[0] == pytest.approx(0.5)
    assert r.tau_inv(1.0) == pytest.approx(1.0)
    assert r.Z(1.49) == 1.0 and r.Z(1.5) == 0.0


def brute_force_Z(states, a_n, gamma, t, dt=1e-4):
    # Riemann inversion oracle for the clock change
    horizon = len(states) / a_n
    uu = np.arange(0.0, horizon, dt)
    idx = np.minimum((uu * a_n).astype(int), len(states) - 1)
    Y = states[idx] / states[0]
    pos = Y > 0
    tau = np.concatenate([[0.0], np.cumsum(np.where(pos, Y, 1.0) ** -gamma * dt)])
    tau[1:][~pos] = np.inf
    j = np.searchsorted(tau, t, side="right") - 1
    j = min(j, len(uu) - 1)
    return Y[j]


def test_rescale_staircase_vs_brute_force_oracle():
    k = drop_kernel(1.0)
    states = np.array([2, 1, 0])
    p = CE.ChainPath(k, states, SEED, 0)
    r = CE.RescaledPath(p, gamma=1.0, a_n=1.0)
    for t in (0.1, 0.9, 1.1, 2.3, 2.9):
        assert r.Z(t) == brute_force_Z(states, 1.0, 1.0, t)
    assert np.allclose(r.z_durations, [1.0, 2.0])


def test_sigma_identity_exact(bk):
    # A/a equals the gamma-weighted length of the changed-clock segments
    for stream in range(5):
        p = CE.sample_path(bk, 300, SEED, stream=stream)
        r = CE.rescale(p)
        vals, durs = r.z_segments()
        assert r.sigma == pytest.approx(
            float(np.sum(vals ** r.gamma * durs)), abs=1e-12)
        assert r.sigma == p.absorption_time / r.a_n


def test_first_below_and_step_index(bk):
    p = CE.sample_path(bk, 500, SEED, stream=11)
    r = CE.rescale(p)
    T = r.first_below(0.2)
    assert r.Z(T) <= 0.2
    if T > 0:
        assert r.Z(T - 1e-12) > 0.2
    j = r.step_index_at(T)
    assert p.states[j] / 500 <= 0.2


# ---------------------------------------------------------------------------
# martingales
# ---------------------------------------------------------------------------

def test_upsilon_at_zero_is_one(bk):
    p = CE.sample_path(bk, 100, SEED)
    assert CE.martingale_upsilon(p, 1.0, 0) == 1.0
    assert CE.martingale_M(CE.rescale(p), 1.0, 0.0, 0.5) == 1.0


def test_martingale_means_are_unit(bk):
    reps, n, k, lam = 4000, 60, 6, 1.0
    ups = np.empty(reps)
    add = np.empty(reps)
    for i in range(reps):
        p = CE.sample_path(bk, n, SEED, stream=i)
        ups[i] = CE.martingale_upsilon(p, lam, k)
        add[i] = CE.martingale_additive(p, lam, k)
    assert empirical_moment(ups, 1.0).within(1.0, 4.0)
    assert empirical_moment(add, 1.0).within(1.0, 4.0)


def test_stopped_martingale_mean_and_bound(bk):
    reps, n, lam, eps = 3000, 400, 1.0, 0.1
    for t in (0.5, 1.0):
        vals = np.empty(reps)
        for i in range(reps):
            p = CE.sample_path(bk, n, SEED + 1, stream=i)
            vals[i] = CE.martingale_M(CE.rescale(p), lam, t, eps)
        assert empirical_moment(vals, 1.0).within(1.0, 4.0)
    # pathwise bound grows at most exponentially in t: estimate the rate on
    # [0, 0.5] and check it covers t = 2 with slack
    maxima = {}
    for t in (0.5, 2.0):
        m = 0.0
        for i in range(reps):
            p = CE.sample_path(bk, n, SEED + 1, stream=i)
            m = max(m, CE.martingale_M(CE.rescale(p), lam, t, eps))
        maxima[t] = m
    c_hat = math.log(maxima[0.5]) / 0.5
    assert maxima[2.0] <= math.exp(1.5 * max(c_hat, 0.5) * 2.0)


def test_martingale_overflow_flag():
    # a heavy self-loop with tiny G accumulates -ln G fast
    k = K.ExplicitKernel(
        lambda n: ([1.0] if n == 0 else [0.9] + [0.0] * (n - 1) + [0.1]),
        scaling=lambda n: 1.0, gamma=1.0, name="sticky")
    p = CE.ChainPath(k, np.array([5] * 6 + [0]), SEED, 0)
    with pytest.raises(CE.MartingaleOverflow):
        CE.martingale_upsilon(p, 1.0, 5, log_bound=10.0)
    # with a generous bound the value is finite and large
    assert CE.martingale_upsilon(p, 1.0, 5, log_bound=700.0) == pytest.approx(
        1.0 / 0.1 ** 5)


# ---------------------------------------------------------------------------
# coupled triple
# ---------------------------------------------------------------------------

def test_coupled_triple_invariants(pt):
    for i in range(200):
        trip = CE.coupled_barrier_triple(pt, 80, SEED, stream=i)
        tl, x, ht = (p.states for p in trip)
        kk = min(len(tl), len(x), len(ht))
        assert np.all(tl[:kk] <= x[:kk]) and np.all(x[:kk] <= ht[:kk])
        assert np.array_equal(ht[trip.acceptance_times], x)
        a_t = len(tl) - 1
        m = min(a_t, kk - 1)
        assert np.array_equal(tl[:m], x[:m])
        assert np.array_equal(tl[:m], ht[:m])
        assert tl[-1] == 0 and x[-1] == 0 and ht[-1] == 0


def test_coupled_marginal_laws_match_kernels(pt):
    # the conditioned-walk marginal read off the coupling equals an
    # independently sampled barrier walk in distribution (absorption mean)
    reps, n = 3000, 60
    bk = K.barrier_kernel(pt)
    direct = CE.sample_absorption_times(bk, n, reps, SEED + 7)
    coupled = np.array([
        CE.coupled_barrier_triple(pt, n, SEED + 8, stream=i).path_x.absorption_time
        for i in range(reps)])
    ma, mb = empirical_moment(direct.astype(float), 1.0), \
        empirical_moment(coupled.astype(float), 1.0)
    assert abs(ma.value - mb.value) <= 4.0 * math.hypot(ma.se, mb.se)


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

def test_composition_from_path():
    p = CE.ChainPath(drop_kernel(), np.array([3, 1, 0]), SEED, 0)
    c = CE.composition_from_path(p)
    assert c.parts == (2, 1)
    assert c.length == 2 and c.total == 3


def test_composition_rejects_zero_parts():
    k = drop_kernel()
    p = CE.ChainPath(k, np.array([3, 3, 0]), SEED, 0)
    with pytest.raises(ValueError):
        CE.composition_from_path(p)
    p2 = CE.ChainPath(k, np.array([3, 1]), SEED, 0)
    with pytest.raises(ValueError):
        CE.composition_from_path(p2)


def test_composition_chain_first_part_law():
    comp = K.composition_kernel(M.levy_atom(1.0, math.log(2.0)))
    reps = 8000
    hits = 0
    for i in range(reps):
        p = CE.sample_path(comp, 2, SEED, stream=i)
        c = CE.composition_from_path(p)
        assert c.total == 2
        hits += c.length == 1
    assert empirical_moment(
        np.repeat([1.0, 0.0], [hits, reps - hits]), 1.0).within(1 / 3, 4.0)


def test_collapse_coupling_shifts_absorption_by_at_most_one():
    co = K.beta_coalescent_kernel(1.5, 1.0)
    cc = K.collapse_absorbing(co)
    for i in range(100):
        a = CE.sample_path(co, 40, SEED, stream=i).absorption_time
        b = CE.sample_path(cc, 40, SEED, stream=i).absorption_time
        assert b - a == 1  # state 1 takes exactly one extra hop to 0
