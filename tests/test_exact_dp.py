"""Exact absorption-time tables against enumeration, closed forms, and MC."""

import math

import numpy as np
import pytest
from scipy.signal import fftconvolve

from sschain import chain_engine as CE
from sschain import exact_dp as DP
from sschain import kernels as K
from sschain import measures as M
from sschain import suites
from sschain.stats import empirical_moment

SEED = 4321


def two_path_kernel():
    # p_{1,0} = 1; p_{2,0} = p_{2,1} = 1/2
    def rows(n):
        if n == 0:
            return [1.0]
        if n == 1:
            return [1.0, 0.0]
        return [0.5, 0.5, 0.0]
    return K.ExplicitKernel(rows, scaling=lambda n: float(n), gamma=1.0,
                            name="two-path")


def test_moments_by_exhaustive_enumeration():
    # from 2: path (2,0) w.p. 1/2 has A=1; path (2,1,0) w.p. 1/2 has A=2
    tbl = DP.absorption_moments(two_path_kernel(), 2, 2)
    assert tbl.moment(1, 1) == pytest.approx(1.0)
    assert tbl.moment(2, 1) == pytest.approx(1.5)
    assert tbl.moment(2, 2) == pytest.approx(2.5)
    assert tbl.moment(0, 1) == 0.0 and tbl.moment(0, 2) == 0.0
    assert tbl.moment(0, 0) == 1.0


def test_geometric_self_loop():
    for q in (0.1, 0.5, 0.9):
        k = K.ExplicitKernel(
            lambda n, _q=q: [1.0] if n == 0 else [_q] + [0.0] * (n - 1) + [1 - _q],
            name="geom")
        tbl = DP.absorption_moments(k, 1, 2)
        assert tbl.moment(1, 1) == pytest.approx(1.0 / q, rel=1e-12)
        # E[G^2] = (2-q)/q^2 for a geometric(q) step count
        assert tbl.moment(1, 2) == pytest.approx((2 - q) / q ** 2, rel=1e-12)


def test_moment_table_lyapunov_monotonicity():
    bk = K.barrier_kernel(K.power_tail(0.5))
    tbl = DP.absorption_moments(bk, 50, 3)
    for n in (5, 17, 50):
        roots = [tbl.moment(n, p) ** (1.0 / p) for p in (1, 2, 3)]
        assert roots[0] <= roots[1] + 1e-12 <= roots[2] + 1e-12


def test_requires_collapsed_kernel():
    co = K.beta_coalescent_kernel(1.5, 1.0)
    with pytest.raises(DP.DPError):
        DP.absorption_moments(co, 10, 1)
    tbl = DP.absorption_moments(K.collapse_absorbing(co), 10, 1)
    assert tbl.moment(10, 1) > 1.0


@pytest.mark.parametrize("make", [
    lambda: K.barrier_kernel(K.power_tail(0.5)),
    lambda: K.truncated_kernel(K.power_tail(0.5)),
    lambda: K.ignored_jump_kernel(K.power_tail(0.5)),
    lambda: K.collapse_absorbing(K.beta_coalescent_kernel(1.5, 1.0)),
    lambda: K.composition_kernel(M.barrier_levy_measure(0.5)),
    lambda: K.collapse_absorbing(K.canonical_kernel(M.lebesgue(), gamma=0.5)),
])
def test_dp_matches_monte_carlo(make):
    kernel = make()
    for n in (10, 100):
        tbl = DP.absorption_moments(kernel, n, 1)
        times = CE.sample_absorption_times(kernel, n, 10_000, SEED)
        m = empirical_moment(times.astype(float), 1.0)
        assert m.within(tbl.moment(n, 1), 4.0), (kernel.name, n)


def test_distribution_point_mass():
    def rows(n):
        r = np.zeros(n + 1)
        r[0] = 1.0
        return r
    k = K.ExplicitKernel(rows, scaling=lambda n: 1.0, name="drop")
    pmf, tail = DP.absorption_distribution(k, 9, k_max=4)
    assert pmf[1] == 1.0 and tail == pytest.approx(0.0, abs=1e-15)


def test_distribution_two_path_enumeration():
    pmf, tail = DP.absorption_distribution(two_path_kernel(), 2, k_max=6)
    assert pmf[1] == pytest.approx(0.5)
    assert pmf[2] == pytest.approx(0.5)
    assert tail == pytest.approx(0.0, abs=1e-14)


def test_distribution_conserves_mass_and_brackets_moments():
    bk = K.barrier_kernel(K.power_tail(0.5))
    n = 60
    k_max = 400
    pmf, tail = DP.absorption_distribution(bk, n, k_max=k_max)
    assert abs(pmf.sum() + tail - 1.0) < 1e-12
    tbl = DP.absorption_moments(bk, n, 1)
    lo = float(np.dot(np.arange(k_max + 1), pmf))
    hi = lo + tail * 10 ** 9  # loose upper bracket via the step cap
    assert lo <= tbl.moment(n, 1) <= hi
    assert tbl.moment(n, 1) == pytest.approx(lo, abs=1e-6 + tail * 1e4)


def test_distribution_n_zero():
    pmf, tail = DP.absorption_distribution(two_path_kernel(), 0, k_max=3)
    assert pmf[0] == 1.0 and tail == 0.0


def test_marginal_moment_values():
    bk = K.barrier_kernel(K.finite_step([0.0, 0.5, 0.5]))
    assert DP.marginal_moment(bk, 2, 0.0, 1.0) == 1.0
    # one step: matches the generating function at lam = 1
    v = DP.marginal_moment(bk, 2, 1.0 / bk.scaling(2), 1.0)
    assert v == pytest.approx(bk.generating(2, 1.0), rel=1e-12)


def test_marginal_moment_matches_simulation():
    bk = K.barrier_kernel(K.power_tail(0.5))
    n, t, lam = 200, 0.5, 1.0
    exact = DP.marginal_moment(bk, n, t, lam)
    steps = int(math.floor(bk.scaling(n) * t))
    states = CE.sample_marginal_states(bk, n, [steps], 10_000, SEED)
    m = empirical_moment((states[:, 0] / n) ** lam, 1.0)
    assert m.within(exact, 4.0)


def test_marginal_distribution_is_one_pushforward_loop():
    kernel = K.truncated_kernel(K.power_tail(0.5))
    n, steps = 60, [7, 0, 3, 7, 12]
    got = DP.marginal_distribution(kernel, n, steps)
    step = kernel.pushforward(n)
    pi = np.zeros(n + 1)
    pi[n] = 1.0
    expect = [pi]
    for _ in range(12):
        expect.append(step(expect[-1]))
    assert got.shape == (len(steps), n + 1)
    for row, s in zip(got, steps):
        assert np.array_equal(row, expect[s])
    # marginal_moment is the dot product on the same pmf
    t = 12.5 / kernel.scaling(n)
    grid = (np.arange(n + 1) / n) ** 0.5
    grid[0] = 0.0
    assert DP.marginal_moment(kernel, n, t, 0.5) == float(np.dot(got[-1], grid))
    assert DP.marginal_distribution(kernel, n, []).shape == (0, n + 1)
    with pytest.raises(ValueError, match="step counts"):
        DP.marginal_distribution(kernel, n, [3, -1])


def _dense_reference(kernel, n):
    m = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        m[j, :j + 1] = kernel.row(j)
    return m


@pytest.mark.parametrize("make", [K.barrier_kernel, K.truncated_kernel,
                                  K.ignored_jump_kernel],
                         ids=["barrier", "truncated", "ignored"])
@pytest.mark.parametrize("q", [K.finite_step([0.2, 0.3, 0.5]), K.power_tail(0.5)],
                         ids=["finite", "power"])
def test_pushforward_matches_dense_rows(make, q):
    kernel = make(q)
    n = 300  # the power-tail barrier row has support > 256: the FFT branch
    ref = _dense_reference(kernel, n)
    step = kernel.pushforward(n)
    pi = np.zeros(n + 1)
    pi[n] = 1.0
    expect = pi.copy()
    for _ in range(20):
        pi = step(pi)
        expect = expect @ ref
        assert np.max(np.abs(pi - expect)) <= 1e-12


DKW_CASES = ([(K.barrier_kernel, n) for n in (250, 1000, 4000)]
             + [(make, n) for make in (K.truncated_kernel, K.ignored_jump_kernel)
                for n in (250, 1000)])


@pytest.mark.parametrize("kernel, n", [(make(K.power_tail(0.5)), n) for make, n in DKW_CASES]
                         + [(K.beta_coalescent_kernel(1.5, 1.0), 200)],
                         ids=lambda v: getattr(v, "name", v))
def test_sampled_marginals_lie_in_dkw_band_of_exact_pmf(kernel, n):
    # Dvoretzky-Kiefer-Wolfowitz (Massart's constant): the empirical CDF of N
    # draws leaves an eps-band around the true CDF with probability at most
    # 2 exp(-2 N eps^2); alpha = 1e-6 at N = 10^4 gives eps = 0.0269
    reps, alpha = 10_000, 1e-6
    eps = math.sqrt(math.log(2.0 / alpha) / (2.0 * reps))
    steps = [int(math.floor(kernel.scaling(n) * t)) for t in (0.5, 1.0)]
    pmf = DP.marginal_distribution(kernel, n, steps)
    states = CE.sample_marginal_states(kernel, n, steps, reps, suites.ACCEPTANCE_SEED)
    for col, step in enumerate(steps):
        ecdf = np.cumsum(np.bincount(states[:, col], minlength=n + 1)) / reps
        assert np.max(np.abs(ecdf - np.cumsum(pmf[col]))) < eps, step


def test_barrier_fft_step_is_fftconvolve_bit_for_bit():
    # the transform of q is taken once per pushforward; each step must give
    # exactly fftconvolve's numbers
    rng = np.random.default_rng(SEED)
    q = K.power_tail(0.5)
    for n in (300, 2000):
        step = K.barrier_kernel(q).pushforward(n)
        qn, live = q.pmf_upto(n), q.tail_upto(n) < 1.0
        norm = np.where(live, 1.0 - q.tail_upto(n), 1.0)
        for _ in range(10):
            pi = rng.random(n + 1)
            rho = np.where(live, pi / norm, 0.0)
            expect = np.clip(fftconvolve(rho[::-1], qn)[:n + 1][::-1], 0.0, None)
            expect[~live] += pi[~live]
            assert np.array_equal(step(pi), expect), n


def test_inner_absorbing_state_is_refused_by_distribution():
    gap = K.barrier_kernel(K.finite_step([0.5, 0.0, 0.5]))
    with pytest.raises(DP.DPError, match="state 1 is absorbing"):
        DP.absorption_distribution(gap, 3, k_max=10)
    # marginals evolve through absorbing states for every kernel
    for kernel in (gap, K.collapse_absorbing(gap), K.ignored_jump_kernel(gap.q),
                   K.beta_coalescent_kernel(1.5, 1.0)):
        assert 0.0 <= DP.marginal_moment(kernel, 3, 5.0 / kernel.scaling(3), 1.0) <= 1.0
    assert DP.marginal_moment(gap, 3, 50.0 / gap.scaling(3), 1.0) == pytest.approx(1 / 3)


def nan_rows(n):
    # a one-step-down walk whose row 3 holds a NaN
    if n == 3:
        return [np.nan, 0.5, 0.5, 0.0]
    r = np.zeros(n + 1)
    r[max(n - 1, 0)] = 1.0
    return r


def nan_row_kernel():
    return K.ExplicitKernel(nan_rows, scaling=lambda n: float(n), name="nan-row")


def test_nan_row_fails_absorption_moments():
    with pytest.raises(DP.DPError, match="nan-row: .* from state 3"):
        DP.absorption_moments(nan_row_kernel(), 5, 1)


def test_nan_row_fails_marginal_distribution():
    with pytest.raises(DP.DPError, match="nan-row: .* at step 1"):
        DP.marginal_distribution(nan_row_kernel(), 5, [3, 1, 2])
    # the walk from 2 never reaches row 3
    assert DP.marginal_distribution(nan_row_kernel(), 2, [1])[0].tolist() == [0, 1, 0]


def test_nan_row_fails_absorption_distribution_drift_check():
    class UncheckedMask(K.ExplicitKernel):
        # a kernel whose fast absorbing mask builds no rows, so no row is validated
        def absorbing_mask(self, states):
            return states == 0
    k = UncheckedMask(nan_rows, scaling=lambda n: float(n), name="nan-row")
    # the dense pushforward spreads 0 * NaN over column 0 from the first step
    with pytest.raises(DP.DPError, match="nan-row: pmf mass drifted by nan at step 1"):
        DP.absorption_distribution(k, 4, k_max=6)


def test_cost_guard(monkeypatch):
    co = K.collapse_absorbing(K.beta_coalescent_kernel(1.5, 1.0))
    monkeypatch.setattr(DP, "DP_BUDGET_OPS", 10_000)
    with pytest.raises(DP.CostGuardError):
        DP.marginal_moment(co, 4000, 1.0, 1.0)
