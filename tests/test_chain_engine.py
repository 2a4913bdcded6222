"""Trajectories, rescaled paths, martingales, couplings, compositions."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from sschain import chain_engine as CE
from sschain import kernels as K
from sschain import measures as M
from sschain.stats import empirical_moment
from sschain.streams import STREAM_BLOCK, BlockUniforms, philox_rng

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


def _uniform_rows_absorbing_at_3(n):
    # uniform rows, so every state may hold; state 3 absorbs
    return np.eye(n + 1)[n] if n == 3 else np.full(n + 1, 1.0 / (n + 1))


GENERIC_KERNELS = {
    "coalescent": lambda: K.beta_coalescent_kernel(1.5, 1.0),
    "collapsed-coalescent": lambda: K.collapse_absorbing(K.beta_coalescent_kernel(1.5, 1.0)),
    "composition": lambda: K.composition_kernel(M.barrier_levy_measure(0.5)),
    "explicit": lambda: K.ExplicitKernel(_uniform_rows_absorbing_at_3, name="uniform-stop-3"),
}


def test_batch_matches_single_paths_for_generic_kernels():
    # the state sweep and sample_path read draw k of a replicate's stream at step k
    n, reps, stream0 = 30, 16, 5
    points = [0, 1, 2, 5, 5, 17, 3, 60]
    for name, make in GENERIC_KERNELS.items():
        kernel = make()
        assert kernel.step is None, name
        singles = [CE.sample_path(kernel, n, SEED, stream=stream0 + i) for i in range(reps)]
        times = CE.sample_absorption_times(make(), n, reps, SEED, stream0=stream0)
        assert times.tolist() == [p.absorption_time for p in singles], name
        states = CE.sample_marginal_states(make(), n, points, reps, SEED, stream0=stream0)
        expect = [[int(p.states[min(k, p.absorption_time)]) for k in points] for p in singles]
        assert states.tolist() == expect, name


def test_runaway_guard(monkeypatch):
    # deterministic one-step-down walk from far away cannot absorb in time
    def down(n):
        row = np.zeros(n + 1)
        row[max(n - 1, 0)] = 1.0
        return row
    loop = K.ExplicitKernel(down, name="walk-down")
    monkeypatch.setattr(CE, "DEFAULT_STEP_CAP", 100)
    # sample_path caches one cumulative row per visited state, so start low
    with pytest.raises(CE.RunawayChainError):
        CE.sample_path(loop, 1000, SEED)
    with pytest.raises(CE.RunawayChainError):
        CE.sample_absorption_times(loop, 1000, 4, SEED)
    assert CE.sample_absorption_times(loop, 100, 4, SEED).tolist() == [100] * 4


def test_batch_sampler_stops_at_inner_absorbing_state():
    # q = (1/2, 0, 1/2): from 3 the walk moves to 1 or stays; row(1) = [0, 1]
    gap = K.barrier_kernel(K.finite_step([0.5, 0.0, 0.5]))
    assert gap.absorbing(1)
    singles = [CE.sample_path(gap, 3, SEED, stream=i) for i in range(200)]
    assert {int(p.states[-1]) for p in singles} == {1}
    # the batch sampler draws the step law, not the row: same law, other paths
    times = CE.sample_absorption_times(gap, 3, 200, SEED)
    assert times.min() >= 1
    late = CE.sample_marginal_states(gap, 3, [200], 200, SEED)
    assert np.all(late == 1)


def test_batch_sampler_builds_each_row_once():
    # "is n absorbing?" and "where does n jump?" share one build of row n
    kernel = K.beta_coalescent_kernel(1.5, 1.0)
    build, calls = kernel.build_row, []

    def counting(n):
        calls.append(n)
        return build(n)
    kernel.build_row = counting
    CE.sample_absorption_times(kernel, 300, 200, SEED)
    assert calls and len(calls) == len(set(calls))


def test_state_sweep_holds_one_row_at_a_time():
    # caching every visited cumulative row peaks at 34.7 MiB here; the sweep
    # measured 0.48 MiB: one row of <= 3001 entries and 200 replicates' blocks
    kernel = K.beta_coalescent_kernel(1.5, 1.0)
    tracemalloc.start()
    try:
        CE.sample_absorption_times(kernel, 3000, 200, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def test_block_uniforms_follow_each_stream_as_rows_die():
    # rows die at different steps; every live row reads its own stream, draw
    # for draw, across four refills.  The keys wrap modulo 2^64 as in philox_rng.
    seed, stream0, count = 20260809, 2 ** 64 - 20, 40
    cols = 4 * BlockUniforms.BLOCK
    death = np.arange(count) * cols // (count - 1)  # from never live to live throughout
    ref = np.array([philox_rng(seed, stream0 + i).random(cols) for i in range(count)])
    uniforms = BlockUniforms(seed, stream0, count)
    for j in range(cols):
        live = np.flatnonzero(death > j)
        assert np.array_equal(uniforms.draws(live, j), ref[live, j])


@pytest.mark.parametrize("seed", [0, -1, 2 ** 64 - 1])
@pytest.mark.parametrize("stream", [0, 7 * STREAM_BLOCK, 2 ** 63])
def test_philox_rng_draws_as_the_keyed_constructor(seed, stream):
    # philox_rng sets the key through the state setter instead of building
    # Philox(key=...), whose throwaway SeedSequence reads OS entropy
    u64 = (1 << 64) - 1
    key = np.array([seed & u64, stream & u64], dtype=np.uint64)
    keyed = np.random.Generator(np.random.Philox(key=key))
    gen = philox_rng(seed, stream)
    assert gen.random(9).tobytes() == keyed.random(9).tobytes()
    assert gen.poisson(3.5, 9).tobytes() == keyed.poisson(3.5, 9).tobytes()
    assert gen.integers(0, 1000, 9).tobytes() == keyed.integers(0, 1000, 9).tobytes()
    assert gen.random() == keyed.random()


def test_block_uniforms_serve_rows_at_their_own_draws():
    # as in the state sweep: each call asks a few rows for their own next
    # draw, some rows run ahead by whole blocks, and some skip draws
    seed, stream0, count = 7, 3, 12
    cols = 5 * BlockUniforms.BLOCK
    ref = np.array([philox_rng(seed, stream0 + i).random(cols) for i in range(count)])
    uniforms = BlockUniforms(seed, stream0, count)
    rng = philox_rng(99)
    pos = np.zeros(count, dtype=np.int64)
    spread = 0  # most blocks apart two rows of one call sat
    for _ in range(300):
        rows = np.flatnonzero(rng.random(count) < 0.5)
        rows = rows[pos[rows] < cols]
        got = uniforms.draws(rows, pos[rows])
        assert np.array_equal(got, ref[rows, pos[rows]])
        blocks = pos[rows] // BlockUniforms.BLOCK
        spread = max(spread, int(blocks.max(initial=0) - blocks.min(initial=0)))
        pos[rows] += rng.integers(1, 40, rows.size)
    assert spread >= 2 and pos.min() >= cols


def _per_state_step(kernel, states, u):
    out = states.copy()
    for m in np.unique(states):
        sel = states == m
        out[sel] = np.searchsorted(kernel.row_cumsum(int(m)), u[sel], side="right")
    return out


@pytest.mark.parametrize("make", [
    lambda: K.ExplicitKernel(lambda n: np.full(n + 1, 1.0 / (n + 1)), name="uniform"),
    lambda: K.collapse_absorbing(K.beta_coalescent_kernel(1.5, 1.0)),
], ids=["explicit", "collapsed-coalescent"])
@pytest.mark.parametrize("states", [[], [7] * 50, list(range(60)) * 3 + [0, 1, 59] * 5],
                         ids=["empty", "one-state", "many-states"])
def test_generic_step_matches_per_state_searchsorted(make, states):
    # row kernels have no step: the sweep inverts each state's uncached
    # cumulative row, which must equal sample_path's memoized one
    kernel = make()
    assert kernel.step is None
    states = np.asarray(states, dtype=np.int64)
    u = philox_rng(SEED).random(states.size)
    got = np.array([make().cumulative_row(int(m)).searchsorted(x, side="right")
                    for m, x in zip(states.tolist(), u)], dtype=np.int64)
    assert np.array_equal(got.reshape(states.shape), _per_state_step(kernel, states, u))
    mask = kernel.absorbing_mask(states)
    assert mask.shape == states.shape
    assert mask.tolist() == [kernel.absorbing(int(m)) for m in states]


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


# SHA-256 of the sampled int64 arrays at seed 20260809.  A speed-up must leave
# every sampled number as it is; a change that moves one must say so and re-pin.
PINNED_DIGESTS = {
    "absorption_barrier": "709223b9e7115cbfe934bf942df595b74bf2e35bbca9cddf65facfb9e5d96985",
    "absorption_barrier_finite":
        "7b839614dbb0a49f5edb48e810144b324b6b93a741b735fd5c7cb387d85afae6",
    "absorption_coalescent": "b5da3af9b3a1f19d309ee03a73cc55b7bc1017ab1d3cc03f0d81754bac8f45db",
    "marginal_states": "144d54b92a275eb2ea486789488253f856c58a09174fe3b3eded5a1c3ab4338f",
    "paths": "fd670e0b96e75aead6cb4d2769738026d5cee553479ec7004c4da6a70ae19c3c",
    "triples": "9acb87cb71a3b2e706287afefba116bcd58566c27f621434e6080fdf4fad0ac4",
}


def test_sampled_numbers_are_pinned(pt):
    seed, n = 20260809, 300
    finite = K.finite_step([1 / 3, 1 / 3, 1 / 3])  # paths of ~n steps: several blocks
    bk = K.barrier_kernel(pt)
    a_n = bk.scaling(n)
    triples = [CE.coupled_barrier_triple(pt, n, seed, stream=i) for i in range(50)]
    got = {
        "absorption_barrier": [CE.sample_absorption_times(bk, n, 500, seed)],
        "absorption_barrier_finite": [
            CE.sample_absorption_times(K.barrier_kernel(finite), n, 200, seed, stream0=3)],
        "absorption_coalescent": [CE.sample_absorption_times(
            K.beta_coalescent_kernel(1.5, 1.0), n, 500, seed, stream0=7)],
        "marginal_states": [CE.sample_marginal_states(
            bk, n, [0, int(a_n / 2), int(a_n), int(4 * a_n)], 500, seed, stream0=11)],
        "paths": [CE.sample_path(K.barrier_kernel(pt if i < 10 else finite), n, seed,
                                 stream=i).states for i in range(20)],
        "triples": [x for trip in triples
                    for x in (*(p.states for p in trip), trip.acceptance_times)],
    }
    assert {k: _digest(v) for k, v in got.items()} == PINNED_DIGESTS


def test_marginal_states_snapshots(bk):
    out = CE.sample_marginal_states(bk, 100, [0, 3, 7], 64, SEED)
    assert out.shape == (64, 3)
    assert np.all(out[:, 0] == 100)
    assert np.all(np.diff(out, axis=1) <= 0)


def test_marginal_states_keep_the_order_given(bk):
    fwd = CE.sample_marginal_states(bk, 100, [5, 10], 64, SEED)
    assert not np.array_equal(fwd[:, 0], fwd[:, 1])
    rev = CE.sample_marginal_states(bk, 100, [10, 5], 64, SEED)
    assert np.array_equal(rev, fwd[:, ::-1])


def test_marginal_states_give_a_column_per_repeated_count(bk):
    fwd = CE.sample_marginal_states(bk, 100, [5, 10], 64, SEED)
    twice = CE.sample_marginal_states(bk, 100, [5, 5], 64, SEED)
    assert twice.shape == (64, 2)
    assert np.array_equal(twice, fwd[:, [0, 0]])


def test_marginal_states_refuse_a_negative_count(bk):
    with pytest.raises(ValueError, match="got -1"):
        CE.sample_marginal_states(bk, 100, [-1, 5], 64, SEED)


# ---------------------------------------------------------------------------
# rescaling and the exact clock change
# ---------------------------------------------------------------------------

def test_step_function_validation():
    with pytest.raises(ValueError):
        CE.StepFunction((0.5, 0.7), (0.0, 1.0))       # increasing
    with pytest.raises(ValueError):
        CE.StepFunction((1.0, 0.5), (0.5, 1.0))       # knots not from 0
    with pytest.raises(ValueError):
        CE.StepFunction((1.5, 0.5), (0.0, 1.0))       # above 1
    with pytest.raises(ValueError):
        CE.StepFunction((1.0, 0.0, 0.0), (0.0, 1.0, 2.0))  # 0 before the last value
    with pytest.raises(ValueError):
        CE.StepFunction((1.0, math.nan), (0.0, 1.0))  # NaN value
    # a chain path holds: equal neighbouring values are accepted
    f = CE.StepFunction((1.0, 1.0, 0.5, 0.5, 0.0), (0.0, 1.0, 2.0, 3.0, 4.0))
    assert f(1.5) == 1.0 and f(3.5) == 0.5 and f.sigma == 4.0


def test_time_change_identity_segment():
    f = CE.StepFunction((1.0, 0.0), (0.0, 1.0))
    tc = CE.time_change(f, 2.3)
    assert tc.tau(0.5) == 0.5
    assert tc.sigma_f == 1.0
    assert np.array_equal(tc.g.values, f.values) and np.array_equal(tc.g.knots, f.knots)


def test_time_change_round_trip_and_inverse_region():
    f = CE.StepFunction((1.0, 0.5, 0.25, 0.0), (0.0, 0.7, 1.9, 2.4))
    tc = CE.time_change(f, 1.3)
    for t in (0.1, 0.69, 1.0, 2.39):
        assert tc.tau_inv(tc.tau(t)) == pytest.approx(t, abs=1e-12)
    assert tc.tau(2.4) == math.inf
    assert tc.tau_inv(1e9) == pytest.approx(tc.sigma_f)


def test_time_change_brute_force_oracle():
    f = CE.StepFunction((1.0, 0.5), (0.0, 1.0))
    tc = CE.time_change(f, 1.0)
    delta = 1e-4
    grid = np.arange(0.0, 3.0, delta)
    riemann = np.cumsum(np.asarray(tc.g(grid)) ** 1.0) * delta
    for t in (0.3, 0.9, 1.5, 2.5):
        idx = min(int(t / delta), riemann.size - 1)
        assert abs(tc.tau_inv(t) - riemann[idx]) <= 2 * delta


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
    cases = [
        ([2, 1, 0], [1.0, 2.0], (0.1, 0.9, 1.1, 2.3, 2.9)),
        # a holding path: each repeated state is one more segment of the same value
        ([4, 4, 2, 2, 0], [1.0, 1.0, 2.0, 2.0], (0.5, 1.5, 2.5, 3.9, 4.1, 5.9, 6.5)),
    ]
    for states, durations, probes in cases:
        states = np.array(states)
        r = CE.RescaledPath(CE.ChainPath(k, states, SEED, 0))
        for t in probes:
            assert r.Z(t) == brute_force_Z(states, 1.0, 1.0, t)
        assert np.allclose(r.z_durations, durations)


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


@pytest.mark.parametrize("martingale", [CE.martingale_upsilon, CE.martingale_additive])
def test_martingales_refuse_a_negative_step_count(bk, martingale):
    # k = -2 used to read the path from its end and return 0.02
    p = CE.sample_path(bk, 100, 1)
    with pytest.raises(ValueError, match="k = -2"):
        martingale(p, 1.0, -2)


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


def test_paths_and_martingales_build_each_row_once(pt):
    # sample_path's running sums come from the kept row(n), which generating reads too
    kernel = K.barrier_kernel(pt)
    build, calls = kernel.build_row, []

    def counting(n):
        calls.append(n)
        return build(n)
    kernel.build_row = counting
    visited = set()
    for i in range(50):
        p = CE.sample_path(kernel, 300, SEED, stream=i)
        CE.martingale_additive(p, 1.0, p.absorption_time)
        CE.martingale_upsilon(p, 1.0, p.absorption_time - 1)
        visited.update(p.states.tolist())
    assert len(calls) == len(set(calls)) and set(calls) == visited - {0}


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


def test_martingale_overflow_flag(monkeypatch):
    # a heavy self-loop with tiny G accumulates -ln G fast
    k = K.ExplicitKernel(
        lambda n: ([1.0] if n == 0 else [0.9] + [0.0] * (n - 1) + [0.1]),
        scaling=lambda n: 1.0, gamma=1.0, name="sticky")
    p = CE.ChainPath(k, np.array([5] * 6 + [0]), SEED, 0)
    # with the fixed bound the value is finite and large
    assert CE.martingale_upsilon(p, 1.0, 5) == pytest.approx(1.0 / 0.1 ** 5)
    monkeypatch.setattr(CE, "MARTINGALE_LOG_BOUND", 10.0)
    with pytest.raises(CE.MartingaleOverflow):
        CE.martingale_upsilon(p, 1.0, 5)


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


def test_coupled_triple_never_overflows_past_a_finite_support(monkeypatch):
    # every uniform is 1 - 2^-53, which is where the running sum of ten 0.1s
    # rounds to, so the inverse CDF falls past the support; clamped, every
    # draw is the largest step, 9.  Unclamped it was 100, an overflow of all
    # three walks, and the ignored walk waited at 99 until the draw cap
    class NearOne:
        def random(self, size):
            return np.full(size, 1.0 - 2.0 ** -53)
    monkeypatch.setattr(CE, "philox_rng", lambda seed, stream: NearOne())
    monkeypatch.setattr(CE, "DEFAULT_STEP_CAP", 1000)
    trip = CE.coupled_barrier_triple(K.finite_step([0.1] * 10), 99, SEED)
    expect = list(range(99, -1, -9))
    for path in trip:
        assert path.states.tolist() == expect
    assert trip.acceptance_times.tolist() == list(range(12))


def test_coupled_triple_ends_each_walk_at_its_own_absorption(monkeypatch):
    # from 1 only the step 0 fits, so the ignored and the conditioned walks
    # can be absorbed at 1 while the truncated walk goes on to die at 0; the
    # draws used to run until the ignored walk reached 0, that is forever.
    # A small cap makes a relapse raise at once instead of filling memory.
    monkeypatch.setattr(CE, "DEFAULT_STEP_CAP", 10 ** 4)
    q = K.finite_step([0.5, 0.0, 0.25, 0.25])
    ends = set()
    for i in range(8):
        trip = CE.coupled_barrier_triple(q, 500, SEED, stream=i)
        for path in trip:
            stop = path.kernel.absorbing_mask(path.states).tolist()
            assert stop[-1] and not any(stop[:-1]), (i, path.kernel.name)
        tl, x, ht = (p.states for p in trip)
        assert tl[-1] == 0 and x[-1] == ht[-1]
        assert np.array_equal(ht[trip.acceptance_times], x)
        kk = min(len(tl), len(x), len(ht))
        assert np.all(tl[:kk] <= x[:kk]) and np.all(x[:kk] <= ht[:kk])
        ends.add(int(ht[-1]))
    assert ends == {0, 1}


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


def _nan_past_50(k):
    k = np.asarray(k, dtype=float)
    return np.where(k <= 50, (k + 1.0) ** -0.5, np.nan)


def _doubled_past_50(k):
    # falls at every probe of the constructor, but rises from 50 to 51
    k = np.asarray(k, dtype=float)
    return np.where(k <= 50, 1.0, 2.0) * (k + 1.0) ** -0.5


@pytest.mark.parametrize("tail", [_nan_past_50, _doubled_past_50], ids=["nan", "rising"])
@pytest.mark.parametrize("run", [
    lambda q: CE.sample_absorption_times(K.truncated_kernel(q), 80, 2000, 1),
    lambda q: CE.sample_marginal_states(K.truncated_kernel(q), 80, [5], 200, 1),
    lambda q: CE.coupled_barrier_triple(q, 80, 1),
], ids=["absorption", "marginal", "coupled"])
def test_step_samplers_refuse_a_tail_that_is_no_law(tail, run):
    q = K.StepDistribution(tail=tail, gamma=0.5, name="bent")
    with pytest.raises(ValueError, match=r"step law bent: qbar\(51\) = "):
        run(q)
    # below the bad k the law is a law's tail, and draws go on
    assert q.quantile(np.array([0.5]), 50).tolist() == [4]
