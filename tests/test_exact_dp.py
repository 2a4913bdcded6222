"""Exact absorption-time tables against enumeration, closed forms, and MC."""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.fft import rfft
from scipy.signal import fftconvolve

from sschain import chain_engine as CE
from sschain import exact_dp as DP
from sschain import kernels as K
from sschain import limit_process as LP
from sschain import measures as M
from sschain import suites
from sschain.stats import empirical_moment, trend_verdict

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


def test_moment_csv_writes_nan_where_the_scaling_is_zero():
    # a collapsed coalescent has a_1 = h(1) = 0; the CSV used to divide by it
    kernel = K.collapse_absorbing(K.beta_coalescent_kernel(1.5, 1.0))
    tbl = DP.absorption_moments(kernel, 300, 3)
    assert kernel.scaling(1) == 0.0
    lines = tbl.to_csv(kernel).splitlines()
    assert lines[0] == "n,p,moment,normalized" and len(lines) == 1 + 301 * 4
    for line in lines[1:]:
        n, p, v, norm = line.split(",")
        n, p, v = int(n), int(p), float(v)
        a = kernel.scaling(n)
        if a == 0.0 and p > 0:
            assert norm == "nan"
        else:
            assert float(norm) == v / a ** p
    assert "1,0,1.0,1.0" in lines and "1,1,1.0,nan" in lines


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


def _from_top(n, steps):
    # rows 1..steps for advance to fill, row 0 the start delta_n
    traj = np.zeros((steps + 1, n + 1))
    traj[0, n] = 1.0
    return traj


def test_marginal_distribution_is_one_pushforward_loop():
    kernel = K.truncated_kernel(K.power_tail(0.5))
    n, steps = 60, [7, 0, 3, 7, 12]
    got = DP.marginal_distribution(kernel, n, steps)
    expect = _from_top(n, 12)
    kernel.pushforward(n)(expect)
    assert got.shape == (len(steps), n + 1)
    for row, s in zip(got, steps):
        assert np.array_equal(row, expect[s])
    # marginal_moment is the correctly rounded sum over the same pmf
    t = 12.5 / kernel.scaling(n)
    grid = (np.arange(n + 1) / n) ** 0.5
    grid[0] = 0.0
    assert DP.marginal_moment(kernel, n, t, 0.5) == math.fsum(memoryview(got[-1] * grid))
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
    traj = _from_top(n, 20)
    kernel.pushforward(n)(traj)
    expect = traj[0]
    for pi in traj[1:]:
        expect = expect @ ref
        assert np.max(np.abs(pi - expect)) <= 1e-12


# runs in a fresh interpreter, since OpenBLAS reads its thread count at load:
# argv[1] "check" compares every panel step with the dense product pi @ m of
# _dense_reference's matrix at each size; the last line is the SHA-256 of the
# panel steps at every size.  The steps fill one trajectory array, whose rows
# start 8 bytes off a 16-byte boundary in turn where n + 1 is odd
PANEL_SCRIPT = """
import hashlib, sys
import numpy as np
from sschain import kernels as K

W = K.PANEL_COLUMNS
makes = [lambda: K.truncated_kernel(K.power_tail(0.5)),
         lambda: K.ignored_jump_kernel(K.power_tail(0.5)),
         # q_0 > 0, a support shorter than n and a diagonal that is not constant
         lambda: K.truncated_kernel(K.finite_step([0.2, 0.5, 0.3])),
         lambda: K.ignored_jump_kernel(K.finite_step([0.2, 0.5, 0.3])),
         lambda: K.collapse_absorbing(K.beta_coalescent_kernel(1.5, 1.0)),
         lambda: K.ExplicitKernel(lambda n: np.arange(1.0, n + 2) / ((n + 1) * (n + 2) / 2),
                                  name="ramp")]
h = hashlib.sha256()
for make in makes:
    for n in (0, 1, W - 1, W, W + 1, 1000):
        kernel = make()
        traj = np.zeros((21, n + 1))
        traj[0, n] = 1.0
        kernel.pushforward(n)(traj)
        h.update(traj.tobytes())
        if sys.argv[1] == "check":
            m = np.zeros((n + 1, n + 1))
            for j in range(n + 1):
                m[j, :j + 1] = kernel.row(j)
            dense = traj[0]
            for pi in traj[1:]:
                dense = dense @ m
                assert np.array_equal(pi, dense), (kernel.name, n)
print(h.hexdigest())
"""


def _run_with_blas_threads(threads: int, script: str, *args: str) -> str:
    src = str(Path(K.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_panel_pushforward_is_the_dense_product_bit_for_bit():
    # with one BLAS thread, as the bench runs, each panel gemv sums the terms
    # of pi @ m in the same order; with two, the dense product moves in the
    # last bits at n >= 777, while the panels keep the one-thread bytes
    single = _run_with_blas_threads(1, PANEL_SCRIPT, "check")
    assert _run_with_blas_threads(2, PANEL_SCRIPT, "digest") == single


CRITERION_2_SCRIPT = """
import json
from sschain import suites
marginals = suites.criterion_2().estimates["marginals"]
print(json.dumps({t: repr(v) for t, v in marginals.items()}))
"""


def test_criterion_2_marginals_do_not_depend_on_blas_threads():
    # a BLAS dot product over the 10001-entry pmf sums in another order
    # under two threads and moved E[Y_n(0.5)] by one ulp; fsum does not
    single, double = (json.loads(_run_with_blas_threads(threads, CRITERION_2_SCRIPT))
                      for threads in (1, 2))
    assert sorted(single) == ["0.25", "0.5", "0.75"]
    assert single == double


def test_panel_pushforward_stores_about_half_the_matrix():
    # the dense (n + 1)^2 matrix is 32.0 MB here; 128-column panels hold
    # 0.532 of it, and the traced peak measured 0.541 with the kept tables
    n = 2000
    kernel = K.truncated_kernel(K.power_tail(0.5))
    tracemalloc.start()
    try:
        kernel.pushforward(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.55 * (n + 1) ** 2 * 8, peak / ((n + 1) ** 2 * 8)


@pytest.mark.parametrize("make", [K.barrier_kernel, K.truncated_kernel,
                                  K.ignored_jump_kernel],
                         ids=["barrier", "truncated", "ignored"])
@pytest.mark.parametrize("q", [K.power_tail(0.5), K.finite_step([0.2, 0.5, 0.3]),
                               K.finite_step([0.0, 0.0, 1.0])], ids=["power", "finite", "gap"])
def test_barrier_family_panels_are_the_row_fill_bytes(monkeypatch, make, q):
    # the barrier's own pushforward never asks for panels, but its fill
    # divides by norm != 1, so it is checked here too; the gap law's
    # ignored walk has the absorbing state 1
    for n in (0, 1, K.PANEL_COLUMNS - 1, K.PANEL_COLUMNS, K.PANEL_COLUMNS + 1, 777):
        rows, fill = make(q), make(q)
        expect = K.Kernel._panels(rows, n)
        monkeypatch.setattr(fill, "build_row", _refuse_row)
        got = fill._panels(n)
        assert [c0 for c0, _ in got] == [c0 for c0, _ in expect]
        for (_, a), (_, b) in zip(got, expect):
            assert a.flags.c_contiguous and a.flags.writeable
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (fill.name, n)
        assert fill._absorbing_cache == rows._absorbing_cache
        assert [fill.absorbing(m) for m in range(n + 1)] == \
            [bool(r[m] >= 1.0 - K.ABSORB_TOL) for m, r in enumerate(map(rows.row, range(n + 1)))]


def _refuse_row(n):
    raise AssertionError(f"row {n} was built")


def _tail_walk(make, tail):
    return make(K.StepDistribution(tail=tail, gamma=0.5, name="bent"))


def _nan_tail(k):
    k = np.asarray(k, dtype=float)
    return np.where(k <= 50, (k + 1.0) ** -0.5, np.nan)


def _rising_tail(k):
    # probed at 0, 1, 10, 100, 10^4 and 2^40 it falls, but it doubles past 50:
    # q_51 clips to 0 and the rows from 51 on sum to about 1.14
    k = np.asarray(k, dtype=float)
    return np.where(k <= 50, 1.0, 2.0) * (k + 1.0) ** -0.5


@pytest.mark.parametrize("make", [K.truncated_kernel, K.ignored_jump_kernel],
                         ids=["truncated", "ignored"])
@pytest.mark.parametrize("tail, error, message", [
    (_nan_tail, K.DPError, "row 51 is not finite"),
    (_rising_tail, K.KernelConstructionError, "row 51 sums to 1.1"),
], ids=["nan", "rising"])
def test_panel_fill_refuses_bad_rows_as_the_row_fill_does(monkeypatch, make, tail, error,
                                                          message):
    n = 80
    rows = _tail_walk(make, tail)
    with pytest.raises(error) as generic:
        K.Kernel._panels(rows, n)
    fill = _tail_walk(make, tail)
    monkeypatch.setattr(fill, "build_row", _refuse_row)
    with pytest.raises(error) as fast:
        fill.pushforward(n)
    assert type(fast.value) is type(generic.value)
    assert str(fast.value) == str(generic.value)
    assert str(fast.value).startswith(f"{fill.name}: {message}")
    # both record the rows before the bad one, and the NaN row itself
    assert fill._absorbing_cache == rows._absorbing_cache
    assert sorted(fill._absorbing_cache) == list(range(51 + (error is K.DPError)))


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
        advance = K.barrier_kernel(q).pushforward(n)
        qn, live = q.pmf_upto(n), q.tail_upto(n) < 1.0
        norm = np.where(live, 1.0 - q.tail_upto(n), 1.0)
        for _ in range(10):
            traj = np.empty((2, n + 1))
            pi = traj[0] = rng.random(n + 1)
            advance(traj)
            rho = np.where(live, pi / norm, 0.0)
            expect = np.clip(fftconvolve(rho[::-1], qn)[:n + 1][::-1], 0.0, None)
            expect[~live] += pi[~live]
            assert np.array_equal(traj[1], expect), n


def _ramp(n):
    return np.arange(1.0, n + 2) / ((n + 1) * (n + 2) / 2)


# three panels at n = 300, whose odd n + 1 shifts every other trajectory row by 8 bytes
@pytest.mark.parametrize("make", [
    lambda: K.truncated_kernel(K.power_tail(0.5)),
    lambda: K.ignored_jump_kernel(K.power_tail(0.5)),
    lambda: K.collapse_absorbing(K.beta_coalescent_kernel(1.5, 1.0)),
    lambda: K.ExplicitKernel(_ramp, name="ramp"),
    # q_0 = 0, a gap and the dead state 0: the direct path's other branch
    lambda: K.barrier_kernel(K.finite_step([0.0, 0.25, 0.0, 0.75])),
    lambda: K.barrier_kernel(K.power_tail(0.5)),
], ids=["truncated", "ignored", "collapsed-coalescent", "explicit", "barrier-direct",
        "barrier-fft"])
def test_evolution_in_blocks_is_one_evolution(make):
    n, steps = 300, 70
    kernel = make()
    advance = kernel.pushforward(n)
    runs = []
    for block in (1, 3, DP.BLOCK_STEPS, steps):
        rows = _from_top(n, steps)
        for k in range(0, steps, block):
            # rows left from an earlier block must not leak: advance writes every entry
            traj = np.full((min(block, steps - k) + 1, n + 1), np.nan)
            traj[0] = rows[k]
            advance(traj)
            rows[k + 1:k + traj.shape[0]] = traj[1:]
        runs.append(rows.tobytes())
    assert runs == [runs[0]] * 4
    assert DP.marginal_distribution(kernel, n, range(steps + 1)).tobytes() == runs[0]


@pytest.mark.parametrize("probs", [[0.2, 0.3, 0.5], [0.0, 0.25, 0.0, 0.75]],
                         ids=["q0", "gap"])
def test_direct_barrier_step_sets_exact_zeros_below_its_reach(probs):
    n, s = 300, len(probs) - 1
    traj = _from_top(n, 120)
    K.barrier_kernel(K.finite_step(probs)).pushforward(n)(traj)
    for k, pi in enumerate(traj):
        low = max(n - k * s, 0)
        assert pi[:low].tobytes() == bytes(8 * low), k
        assert pi[low:].any()


def test_inner_absorbing_state_is_refused_by_distribution():
    gap = K.barrier_kernel(K.finite_step([0.5, 0.0, 0.5]))
    with pytest.raises(DP.AbsorbingStateError, match="state 1 is absorbing") as err:
        DP.absorption_distribution(gap, 3, k_max=10)
    assert err.value.state == 1
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
    with pytest.raises(DP.DPError, match="nan-row: row 3 is not finite"):
        DP.marginal_distribution(nan_row_kernel(), 5, [3, 1, 2])
    # the walk from 2 never reaches row 3
    assert DP.marginal_distribution(nan_row_kernel(), 2, [1])[0].tolist() == [0, 1, 0]


def test_nan_row_fails_absorption_distribution_drift_check():
    class UncheckedMask(K.ExplicitKernel):
        # a kernel whose fast absorbing mask builds no rows, so no row is validated
        def absorbing_mask(self, states):
            return states == 0
    k = UncheckedMask(nan_rows, scaling=lambda n: float(n), name="nan-row")
    # the generic pushforward names the row while it stores the rows
    with pytest.raises(DP.DPError, match="nan-row: row 3 is not finite"):
        DP.absorption_distribution(k, 4, k_max=6)


def _one_step_down(n):
    r = np.zeros(n + 1)
    r[max(n - 1, 0)] = 1.0
    return r


class _BrokenStep(K.ExplicitKernel):
    # valid rows, but a pushforward that scales the pmf (a mass leak, or NaN)
    def __init__(self, factor, name):
        super().__init__(_one_step_down, scaling=lambda n: float(n), name=name)
        self.factor = factor

    def pushforward(self, n, budget_ops=math.inf):
        def advance(traj):
            for s in range(1, traj.shape[0]):
                traj[s] = traj[s - 1] * self.factor
        return advance


@pytest.mark.parametrize("factor, name, drift", [(1.0 - 1e-9, "leaky", r"-9\.9999\d*e-10"),
                                                 (np.nan, "nan-step", "nan")],
                         ids=["leak", "nan"])
def test_distribution_refuses_a_pmf_whose_mass_drifts(factor, name, drift):
    with pytest.raises(DP.DPError, match=rf"^{name}: pmf mass drifted by {drift} at step 1$"):
        DP.absorption_distribution(_BrokenStep(factor, name), 5, k_max=8)
    # a drift inside 1e-12 per step passes
    pmf, tail = DP.absorption_distribution(_BrokenStep(1.0 - 1e-13, "tiny-leak"), 5, k_max=8)
    assert pmf.tolist() == [0.0] * 9 and tail == 1.0


class _LeakOnLeaving(K.ExplicitKernel):
    # the one-step-down walk, whose stepper halves the pmf on a step out of `state`
    def __init__(self, state):
        super().__init__(_one_step_down, scaling=lambda n: float(n), name="leak-late")
        self.state = state

    def pushforward(self, n, budget_ops=math.inf):
        def advance(traj):
            for s in range(1, traj.shape[0]):
                traj[s, 1:] = traj[s - 1, 2:].tolist() + [0.0]
                traj[s, 0] = traj[s - 1, 0] + traj[s - 1, 1]
                if traj[s - 1, self.state]:
                    traj[s] *= 0.5
        return advance


def test_distribution_names_the_drifting_step_past_a_block():
    # from 45 the walk leaves state 5 on step 41, in the second block of steps
    assert DP.BLOCK_STEPS < 41
    with pytest.raises(DP.DPError, match=r"^leak-late: pmf mass drifted by -0\.5 at step 41$"):
        DP.absorption_distribution(_LeakOnLeaving(5), 45, k_max=60)
    # the 40 steps before it pass, across the first block's end
    pmf, tail = DP.absorption_distribution(_LeakOnLeaving(5), 45, k_max=40)
    assert pmf.tolist() == [0.0] * 41 and tail == 1.0


def test_dense_distribution_builds_each_row_once_and_keeps_none():
    # the dense pushforward's row checks record absorbing(n), so the generic
    # absorbing_mask after it reads flags: no second build, no kept cumulative row
    built = []

    def uniform(n):
        built.append(n)
        return np.full(n + 1, 1.0 / (n + 1))
    k = K.ExplicitKernel(uniform, scaling=lambda n: float(n), name="uniform")
    pmf, tail = DP.absorption_distribution(k, 1500, k_max=30)
    assert sorted(built) == list(range(1501))
    assert not k._cumsum_cache and not k._row_cache
    # from n the first step lands on 0 with probability 1/(n + 1)
    assert pmf[1] == pytest.approx(1 / 1501, rel=1e-12)
    assert math.fsum(pmf) + tail == pytest.approx(1.0, abs=1e-12)


def test_nan_diagonal_records_not_absorbing():
    def rows(n):
        r = np.zeros(n + 1)
        r[max(n - 1, 0)] = 1.0
        if n == 3:
            r[3] = np.nan
        return r
    k = K.ExplicitKernel(rows, scaling=lambda n: float(n), name="nan-diag")
    with pytest.raises(DP.DPError, match="nan-diag: row 3 is not finite"):
        DP.absorption_distribution(k, 4, k_max=6)
    assert k._absorbing_cache[3] is False
    # validation still names the row
    with pytest.raises(K.KernelConstructionError, match="nan-diag: row 3"):
        k.row(3)


def test_cost_guard(monkeypatch):
    co = K.collapse_absorbing(K.beta_coalescent_kernel(1.5, 1.0))
    monkeypatch.setattr(DP, "DP_BUDGET_OPS", 10_000)
    with pytest.raises(DP.CostGuardError):
        DP.marginal_moment(co, 4000, 1.0, 1.0)


# ---------------------------------------------------------------------------
# bit-level pins of the pushforwards
# ---------------------------------------------------------------------------

# SHA-256 of the pmf bytes from marginal_distribution (steps 0, 1, 7, 50) and
# absorption_distribution (k <= 200, then the tail): the direct and FFT
# barrier correlations and the dense truncated and ignored matrices.  A
# speed-up of a pushforward must leave every bit as it is.
PINNED_PUSHFORWARD_DIGESTS = {
    "barrier(finite[1/3]*3)": "033af736d78c4ae320e770d6f9cbd75363020dc965e2300e0a97b6ecc2553420",
    "barrier(power_tail(0.5))": "cae7a8b7cdd795c445e09bfc0a80009fe764806e8ddcbca60d9aa4f028e4d4df",
    "truncated(power_tail(0.5))":
        "13644f49092766ec2261b1e50185de3a69e3d4ee4458f2944822dbd8be36ed28",
    "ignored(power_tail(0.5))": "5bd29002582cfa1dddfe4f7977079eb4dd06f315d440ec2dde302be11e2bf322",
}


def test_pushforward_outputs_are_pinned():
    cases = {
        "barrier(finite[1/3]*3)": (K.barrier_kernel(K.finite_step([1 / 3, 1 / 3, 1 / 3])), 300),
        "barrier(power_tail(0.5))": (K.barrier_kernel(K.power_tail(0.5)), 2000),
        "truncated(power_tail(0.5))": (K.truncated_kernel(K.power_tail(0.5)), 300),
        "ignored(power_tail(0.5))": (K.ignored_jump_kernel(K.power_tail(0.5)), 300),
    }
    got = {}
    for name, (kernel, n) in cases.items():
        h = hashlib.sha256()
        h.update(DP.marginal_distribution(kernel, n, [0, 1, 7, 50]).tobytes())
        pmf, tail = DP.absorption_distribution(kernel, n, k_max=200)
        h.update(pmf.tobytes())
        h.update(np.float64(tail).tobytes())
        got[name] = h.hexdigest()
    assert got == PINNED_PUSHFORWARD_DIGESTS


# ---------------------------------------------------------------------------
# moments of the barrier family from its Toeplitz rows
# ---------------------------------------------------------------------------

WALKS = [K.barrier_kernel, K.truncated_kernel, K.ignored_jump_kernel]
THIRDS = [1 / 3, 1 / 3, 1 / 3]


def rows_only(kernel):
    # the same rows with no toeplitz hook: the generic row-by-row loop
    return K.ExplicitKernel(kernel.build_row, name=f"rows of {kernel.name}")


WALK_IDS = ["barrier", "truncated", "ignored"]
# the collapsed coalescent and the composition with one Beta term: rows from
# two Gamma-ratio slices, whose normaliser the correlation reads off itself
BETA_TERM_DP = [("collapsed-coalescent",
                 lambda: K.collapse_absorbing(K.beta_coalescent_kernel(1.5, 1.0))),
                ("collapsed-coalescent(1.3,0.7)",
                 lambda: K.collapse_absorbing(K.coalescent_kernel(M.beta_density(1.3, 0.7)))),
                ("composition", lambda: K.composition_kernel(M.barrier_levy_measure(0.5)))]


def _walk_cases(laws):
    return [pytest.param(lambda w=walk, q=q: w(q), *rest, id=f"{law}-{wid}")
            for law, q, *rest in laws for walk, wid in zip(WALKS, WALK_IDS)]


# the Beta-term supports reach n: direct sums up to DIRECT_SUPPORT, FFT above
@pytest.mark.parametrize("make, n", _walk_cases(
    [("power-fft", K.power_tail(0.5), 3000), ("finite-direct", K.finite_step(THIRDS), 3000),
     ("power-direct", K.power_tail(0.5), 200)])
    + [pytest.param(make, n, id=f"{kind}-{name}") for name, make in BETA_TERM_DP
       for kind, n in (("fft", 3000), ("direct", 200))]
    # an inner absorbing state 1, sent to 0 by the collapse: its norm turns infinite
    + [pytest.param(lambda w=walk: K.collapse_absorbing(w(K.finite_step([0.5, 0.0, 0.5]))), 300,
                    id=f"collapsed-gap-{wid}") for walk, wid in zip(WALKS, WALK_IDS)])
def test_toeplitz_moments_match_the_row_loop(make, n):
    kernel = make()
    assert kernel.toeplitz(n) is not None and rows_only(kernel).toeplitz(n) is None
    fast = DP.absorption_moments(kernel, n, 3).values
    slow = DP.absorption_moments(rows_only(kernel), n, 3).values
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)


def _exact_rows(walk, n):
    # row n of the walk on q = (1/3, 1/3, 1/3), in rationals
    q = [Fraction(1, 3)] * 3 + [Fraction(0)] * max(0, n - 2)
    qbar = 1 - sum(q[:n + 1])
    row = [q[n - k] for k in range(n + 1)]
    if walk == "barrier":
        return [x / (1 - qbar) for x in row]
    row[0 if walk == "truncated" else n] += qbar
    return row


@pytest.mark.parametrize("walk", ["barrier", "truncated", "ignored"])
def test_finite_step_moments_match_exact_rationals(walk):
    n_max, p_max = 40, 3
    m = [[Fraction(1)] + [Fraction(0)] * p_max]  # m[n][p] = E[A_n^p]
    for n in range(1, n_max + 1):
        row = _exact_rows(walk, n)
        # E[A_n^p] = sum_k p_{n,k} E[(1 + A_k)^p], with A_n on both sides at k = n
        shifted = [[sum(math.comb(p, r) * m[k][r] for r in range(p + 1)) for p in range(p_max + 1)]
                   for k in range(n)]
        cur = [Fraction(1)]
        for p in range(1, p_max + 1):
            rhs = sum(row[k] * shifted[k][p] for k in range(n)) \
                + row[n] * sum(math.comb(p, r) * cur[r] for r in range(p))
            cur.append(rhs / (1 - row[n]))
        m.append(cur)
    kernel = {"barrier": K.barrier_kernel, "truncated": K.truncated_kernel,
              "ignored": K.ignored_jump_kernel}[walk](K.finite_step(THIRDS))
    got = DP.absorption_moments(kernel, n_max, p_max).values
    np.testing.assert_allclose(got, np.array(m, dtype=float), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("make", _walk_cases([("power", K.power_tail(0.5)),
                                               ("finite", K.finite_step(THIRDS))])
                         + [pytest.param(make, id=name) for name, make in BETA_TERM_DP])
def test_toeplitz_moments_build_no_row(monkeypatch, make):
    kernel = make()
    expect = DP.absorption_moments(kernel, 600, 2).values

    def refuse(n):
        raise AssertionError(f"row {n} was built")
    for k in (kernel, getattr(kernel, "base", kernel)):
        monkeypatch.setattr(k, "build_row", refuse)
    assert np.array_equal(DP.absorption_moments(kernel, 600, 2).values, expect)


def test_collapsed_toeplitz_sends_an_absorbing_row_whole_to_zero():
    # state 1 of this ignored walk waits with probability 1 - 1e-13, inside
    # ABSORB_TOL, and steps to 0 with 1e-13: collapsed, row 1 is exactly (1, 0)
    kernel = K.collapse_absorbing(K.ignored_jump_kernel(K.finite_step([0.5, 1e-13, 0.5 - 1e-13])))
    assert kernel.base.absorbing(1) and kernel.toeplitz(5) is not None
    for k in (kernel, rows_only(kernel)):
        assert DP.absorption_moments(k, 5, 2).values[1].tolist() == [1.0, 1.0, 1.0]


def test_toeplitz_moments_refuse_an_absorbing_state_as_the_row_loop_does():
    # the ignored walk with steps of 2 waits at 1 forever
    kernel = K.ignored_jump_kernel(K.finite_step([0.0, 0.0, 1.0]))
    messages = []
    for k in (kernel, rows_only(kernel)):
        with pytest.raises(DP.DPError, match="state 1 is absorbing") as err:
            DP.absorption_moments(k, 5, 1)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    # the barrier walk's dead state 1 (no step fits below it) is absorbing too
    gap = K.barrier_kernel(K.finite_step([0.0, 0.0, 1.0]))
    with pytest.raises(DP.DPError, match="state 1 is absorbing"):
        DP.absorption_moments(gap, 5, 1)


# ---------------------------------------------------------------------------
# the first-step engine: a second finish, a 30-digit reference, one loop
# ---------------------------------------------------------------------------

# the truncated walk sends mass to 0 in every row: zero_n != 0, read against W[0]
FIRST_STEP_KERNELS = [("barrier", lambda: K.barrier_kernel(K.power_tail(0.5))),
                      ("truncated", lambda: K.truncated_kernel(K.power_tail(0.5))),
                      BETA_TERM_DP[0], BETA_TERM_DP[2]]


def _passage_times(kernel, n_max, level):
    # E[steps until the chain is at or below level], from W[0] = 0
    def finish(n, sums, pnn):
        return [0.0 if n <= level else (1.0 + sums[0]) / (1.0 - pnn)]
    return DP._first_step(kernel, n_max, [0.0], finish)[:, 0]


@pytest.mark.parametrize("make", [pytest.param(make, id=name)
                                  for name, make in FIRST_STEP_KERNELS])
def test_first_step_runs_a_second_finish_on_either_path(make):
    kernel, n_max = make(), 600  # supports past DIRECT_SUPPORT: the relaxed FFT correlation
    assert kernel.toeplitz(n_max) is not None
    for level in (0, 1, 37):
        fast = _passage_times(kernel, n_max, level)
        slow = _passage_times(rows_only(kernel), n_max, level)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)
        assert not fast[:level + 1].any() and (fast[level + 1:] >= 1.0).all()
    # passage to 0 is absorption
    np.testing.assert_allclose(_passage_times(kernel, n_max, 0),
                               DP.absorption_moments(kernel, n_max, 1).values[:, 1],
                               rtol=1e-12, atol=0.0)


def _mp_rows(family, n_max):
    """Rows 0..n_max of a kernel family in 30-digit arithmetic, each over k = 0..n."""
    mp = mpmath.mpf
    if family == "barrier":  # power_tail(0.5): qbar_m = (m + 1)^(-1/2), divided by 1 - qbar_n
        qbar = [1 / mpmath.sqrt(m + 1) for m in range(n_max + 1)]
        q = [mp(0)] + [qbar[m - 1] - qbar[m] for m in range(1, n_max + 1)]
        return [[mp(1)]] + [[q[n - k] / (1 - qbar[n]) for k in range(n + 1)]
                            for n in range(1, n_max + 1)]
    # both put C(n, i) B(i + 1, n - i - 1/2) on destination i + first (the coalescent's
    # Beta(1.5, 1) and omega's unit term Beta(1, -1/2)): n! / Gamma(n + 1/2) cancels in
    # each row, leaving Gamma(n - i - 1/2) / (n - i)!
    first = {"collapsed-coalescent": 1, "composition": 0}[family]
    v = [mp(0)] + [mpmath.gamma(j - mp(0.5)) / mpmath.factorial(j) for j in range(1, n_max + 1)]
    rows = [[mp(1)], [mp(1), mp(0)]]  # row 1 of both, the collapsed state 1 sent to 0
    for n in range(2, n_max + 1):
        ent = [mp(0)] * first + [v[n - i] for i in range(n - first)] + [mp(0)]
        z = mpmath.fsum(ent)
        rows.append([e / z for e in ent])
    return rows


def _mp_moments(rows, p_max):
    """E[A_n^p] = sum_k p_{n,k} E[(1 + A_k)^p], solved for the k = n term."""
    one = mpmath.mpf(1)
    m, shifted = [[one] + [0 * one] * p_max], [[one] * (p_max + 1)]
    for n in range(1, len(rows)):
        row, cur = rows[n], [one]
        for p in range(1, p_max + 1):
            rhs = mpmath.fsum(row[k] * shifted[k][p] for k in range(n)) \
                + row[n] * mpmath.fsum(math.comb(p, r) * cur[r] for r in range(p))
            cur.append(rhs / (1 - row[n]))
        m.append(cur)
        shifted.append([mpmath.fsum(math.comb(p, r) * cur[r] for r in range(p + 1))
                        for p in range(p_max + 1)])
    return m


# twice the worst relative error of E[A_n^p], 1 <= n <= 200, p = 1, 2, measured
# (correlation, row loop): barrier 3.6e-16, 3.3e-16; collapsed coalescent
# 1.8e-15, 3.7e-16; composition 1.4e-15, 1.1e-15
MP_BOUNDS = {"barrier": (7.3e-16, 6.6e-16), "collapsed-coalescent": (3.6e-15, 7.4e-16),
             "composition": (2.9e-15, 2.3e-15)}


def _check_mp_moments(family, n_max, bounds):
    # both paths, correlation then row loop, against the 30-digit recursion
    make = dict(FIRST_STEP_KERNELS)[family]
    with mpmath.workdps(30):
        ref = _mp_moments(_mp_rows(family, n_max), 2)
        for kernel, bound in zip((make(), rows_only(make())), bounds):
            got = DP.absorption_moments(kernel, n_max, 2).values
            worst = max(float(abs(got[n, p] - ref[n][p]) / ref[n][p])
                        for n in range(1, n_max + 1) for p in (1, 2))
            assert worst <= bound, (kernel.name, worst)


@pytest.mark.parametrize("family", list(MP_BOUNDS))
def test_moments_match_a_30_digit_first_step_recursion(family):
    _check_mp_moments(family, 200, MP_BOUNDS[family])


# the same past DIRECT_SUPPORT, n <= 320, where the correlation runs by
# relaxed FFT; twice the worst measured (correlation, row loop): barrier
# 1.29e-15, 3.26e-16; collapsed coalescent 4.76e-15, 5.94e-16; composition
# 5.59e-15, 1.20e-15
MP_FFT_BOUNDS = {"barrier": (2.6e-15, 6.6e-16), "collapsed-coalescent": (9.6e-15, 1.2e-15),
                 "composition": (1.2e-14, 2.5e-15)}


@pytest.mark.parametrize("family", list(MP_FFT_BOUNDS))
def test_moments_past_direct_support_match_a_30_digit_recursion(monkeypatch, family):
    transforms = []
    monkeypatch.setattr(DP, "rfft", lambda *args, **kw: transforms.append(1) or rfft(*args, **kw))
    _check_mp_moments(family, 320, MP_FFT_BOUNDS[family])
    assert transforms  # the correlation path ran the relaxed FFT branch


def test_only_the_first_step_engine_forms_row_sums():
    # a new exact functional is one more finish, not a second loop over the rows
    tree = ast.parse(Path(DP.__file__).read_text(encoding="utf-8"))
    callers = {getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) == "_online_correlation"
                    or getattr(node.func, "attr", None) in ("toeplitz", "_checked_row"))}
    assert callers == {"_first_step"}


# ---------------------------------------------------------------------------
# Aldous' beta-splitting trees: the tagged-leaf chain is a composition chain
# ---------------------------------------------------------------------------

def test_beta_splitting_height_moments_approach_the_limit():
    # at beta = -1.5 omega(dy) = e^(-(beta+2) y) (1 - e^-y)^beta dy, the unit
    # term (1, beta+2, beta+1): gamma = -beta - 1 = 1/2 and psi(1/2) = 2.
    # Measured relative errors of E[A_n^p] / Z_n^p at n = 2^10 ... 2^16:
    # p = 1 -1.74e-2 ... -2.20e-3, p = 2 -4.06e-2 ... -5.18e-3, halving per step
    beta = -1.5
    omega = M.LevyMeasure(unit_beta_terms=(M.BetaTerm(1.0, beta + 2, beta + 1),))
    kernel = K.composition_kernel(omega)
    assert kernel.gamma == 0.5 and kernel.psi(0.5) == pytest.approx(2.0, rel=1e-14)
    grid = (2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16)
    moments = DP.absorption_moments(kernel, grid[-1], 2).values
    limit = LP.analytic_moments(kernel.psi, 0.5, 2)
    for p in (1, 2):
        errors = [abs(moments[n, p] / kernel.scaling(n) ** p / limit[p] - 1.0) for n in grid]
        assert trend_verdict(errors, 1e-2).passed, (p, errors)


# ---------------------------------------------------------------------------
# the DP refuses rows that are not probability vectors
# ---------------------------------------------------------------------------

def bad_row_kernel(row3):
    def rows(n):
        if n == 3:
            return row3
        r = np.zeros(n + 1)
        r[max(n - 1, 0)] = 1.0
        return r
    return K.ExplicitKernel(rows, scaling=lambda n: float(n), name="bad-row")


@pytest.mark.parametrize("row3, message", [
    ([1.5, -0.5, 0.0, 0.0], r"bad-row: row 3 has negative entry p\[3,1\] = -0.5"),
    ([0.5, 0.4, 0.0, 0.0], r"bad-row: row 3 sums to 0.9"),
], ids=["negative", "sum"])
def test_dp_refuses_invalid_finite_rows(row3, message):
    for run in (lambda k: DP.absorption_moments(k, 5, 1),
                lambda k: DP.marginal_distribution(k, 5, [3]),
                lambda k: DP.absorption_distribution(k, 5, k_max=8)):
        with pytest.raises(K.KernelConstructionError, match=message):
            run(bad_row_kernel(row3))
