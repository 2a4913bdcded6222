"""The acceptance matrix and the configurable experiment suites.

Every criterion is implemented at its pinned tolerance and returns a
CriterionResult with one human-readable line per check; nothing here is
calibrated at run time.  Monte Carlo comparisons use 4-standard-error
bands; exact (DP) trends use the slack-monotone verdict with a noise
floor of one tenth of the acceptance threshold, which keeps the verdict
meaningful when the finite-size error changes sign on its way down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import chain_engine as ce
from . import exact_dp as dp
from . import kernels as kz
from . import limit_process as lp
from . import measures as ms
from .stats import chi2_quantile, empirical_moment, ks_distance, trend_verdict
from .streams import STREAM_BLOCK, philox_rng

ACCEPTANCE_SEED = 20260809


@dataclass
class CriterionResult:
    name: str
    passed: bool
    lines: tuple[str, ...]
    estimates: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    # per-replicate JSONL records, written after the estimates line; a plain
    # attribute, not a field, so the fields stay the result's value
    records = ()

    def report(self) -> str:
        head = f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"
        return "\n".join([head] + [f"    {l}" for l in self.lines])


def _check(lines, ok, text):
    ok = bool(ok)
    lines.append(f"{'ok  ' if ok else 'FAIL'} {text}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: absorption-moment limit of the heavy-tailed barrier walk
# ---------------------------------------------------------------------------

def criterion_1(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    kernel = kz.barrier_kernel(kz.power_tail(0.5))
    grid = [2 ** k for k in range(7, 14)]
    table = dp.absorption_moments(kernel, grid[-1], 2)
    targets = {1: 1.0 / (math.pi / 2 - 1), 2: 2.0 / (math.pi / 2 - 1)}
    lines: list[str] = []
    ok = True
    est = {}
    for p, target in targets.items():
        vals = [table.moment(n, p) / kernel.scaling(n) ** p for n in grid]
        errs = [abs(v - target) / target for v in vals]
        verdict = trend_verdict(errs, threshold=0.10, floor=0.01)
        ok &= _check(lines, verdict.passed,
                     f"E[A^{p}]/a^{p}: final {vals[-1]:.5f} vs {target:.5f} | {verdict}")
        est[f"moment_{p}"] = vals
        est[f"target_{p}"] = target
    return CriterionResult("1 moment limit, barrier walk", ok, tuple(lines), est,
                           tables={"barrier_moments.csv": table.to_csv(kernel)})


# ---------------------------------------------------------------------------
# criterion 2: finite-mean regime (drift-only limit)
# ---------------------------------------------------------------------------

def criterion_2(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    kernel = kz.barrier_kernel(kz.finite_step([1 / 3, 1 / 3, 1 / 3]))
    n = 10_000
    lines: list[str] = []
    table = dp.absorption_moments(kernel, n, 1)
    ratio = table.moment(n, 1) / n
    ok = _check(lines, 0.95 <= ratio <= 1.05,
                f"E[A_n]/n = {ratio:.6f} in [0.95, 1.05]")
    est = {"ratio": ratio, "marginals": {}}
    t_grid = (0.25, 0.5, 0.75)
    pmfs = dp.marginal_distribution(
        kernel, n, [int(math.floor(kernel.scaling(n) * t)) for t in t_grid])
    for t, pmf in zip(t_grid, pmfs):
        v = math.fsum(memoryview(pmf * (np.arange(n + 1) / n)))
        ok &= _check(lines, abs(v - (1 - t)) <= 0.05,
                     f"E[Y_n({t})] = {v:.5f} within 0.05 of {1 - t}")
        est["marginals"][str(t)] = v
    return CriterionResult("2 finite-mean regime", ok, tuple(lines), est)


# ---------------------------------------------------------------------------
# criterion 3: coalescent scaling (rate asymptotics + collision count)
# ---------------------------------------------------------------------------

def criterion_3(seed: int = ACCEPTANCE_SEED, *,
                kernel: kz.CoalescentKernel | None = None,
                n_grid=(100, 1000, 10_000), n_mc: int = 5000,
                replicates: int = 20_000) -> CriterionResult:
    """Rate ratios over n_grid and E[A/h] at n_mc; kernel needs a tail index beta."""
    if kernel is None:
        kernel = kz.beta_coalescent_kernel(1.5, 1.0)
    lines: list[str] = []
    est = {}
    ratios = []
    for n in n_grid:
        r = kernel.total_rate(n) / (math.gamma(2.0 - kernel.beta) * kernel.h(1.0 / n))
        ratios.append(r)
    errs = [abs(r - 1.0) for r in ratios]
    verdict = trend_verdict(errs, threshold=0.02, floor=0.002)
    ok = _check(lines, verdict.passed,
                f"total-rate ratio -> 1: {['%.5f' % r for r in ratios]} | {verdict}")
    est["rate_ratios"] = ratios

    h = kernel.h(1.0 / n_mc)
    times = ce.sample_absorption_times(kernel, n_mc, replicates, seed)
    moment = empirical_moment(np.asarray(times, dtype=float) / h, 1.0)
    target = 1.0 / kernel.psi(kernel.beta)
    beta = Fraction(kernel.beta).limit_denominator(1000)
    ok &= _check(lines, moment.within(target, 4.0),
                 f"MC E[A/h] = {moment} vs 1/psi({beta}) = {target:.6f} "
                 f"(|diff| = {abs(moment.value - target):.5f}, 4se = {4 * moment.se:.5f})")
    est["mc_mean"] = moment.value
    est["mc_se"] = moment.se
    est["target"] = target
    return CriterionResult("3 coalescent scaling", ok, tuple(lines), est)


# ---------------------------------------------------------------------------
# criterion 4: marginal law of the limit subordinator
# ---------------------------------------------------------------------------

def criterion_4(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    cases = {
        "barrier": ms.levy_triple(ms.barrier_measure(0.5)),
        "killing": ms.levy_triple(ms.atom(1.0, 0.0)),
    }
    reps = 100_000
    t_grid = (0.5, 1.0)
    lines: list[str] = []
    est = {}
    ok = True
    for idx, (name, triple) in enumerate(cases.items()):
        z = lp.sample_z_marginals(triple, t_grid, reps, seed, stream0=idx * STREAM_BLOCK)
        for j, t in enumerate(t_grid):
            for lam in (0.5, 1.0, 2.0):
                m = empirical_moment(z[:, j], lam)
                target = math.exp(-triple.laplace_exponent(lam) * t)
                ok &= _check(lines, m.within(target, 4.0),
                             f"{name}: E[Z({t})^{lam:g}] = {m} vs exp(-psi*t) = {target:.6f}")
                est[f"{name}_t{t}_lam{lam}"] = (m.value, m.se, target)
    return CriterionResult("4 subordinator marginal law", ok, tuple(lines), est)


# ---------------------------------------------------------------------------
# criterion 5: exponential functional vs analytic moments vs absorption DP
# ---------------------------------------------------------------------------

def criterion_5(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    mu = ms.barrier_measure(0.5)
    triple = ms.levy_triple(mu)
    reps = 20_000
    samples = lp.sample_exponential_functional(triple, 0.5, reps, seed)
    analytic = lp.analytic_moments(mu, 0.5, 2)
    lines: list[str] = []
    m1 = empirical_moment(samples, 1.0)
    m2 = empirical_moment(samples, 2.0)
    ok = _check(lines, m1.within(analytic[1], 4.0),
                f"MC E[I] = {m1} vs analytic {analytic[1]:.6f}")
    ok &= _check(lines, m2.within(analytic[2], 4.0),
                 f"MC E[I^2] = {m2} vs analytic {analytic[2]:.6f}")
    kernel = kz.barrier_kernel(kz.power_tail(0.5))
    table = dp.absorption_moments(kernel, 8192, 1)
    dp_val = table.moment(8192, 1) / kernel.scaling(8192)
    ok &= _check(lines, abs(dp_val - analytic[1]) / analytic[1] < 0.10,
                 f"DP E[A/a] at n=8192 = {dp_val:.6f} within 10% of analytic")
    ok &= _check(lines, abs(m1.value - dp_val) <= 4 * m1.se + 0.10 * analytic[1],
                 "MC and DP values of E[I] agree within combined tolerance")
    est = {"mc": (m1.value, m1.se, m2.value, m2.se),
           "analytic": analytic, "dp": dp_val}
    return CriterionResult("5 exponential functional vs chain", ok, tuple(lines), est)


# ---------------------------------------------------------------------------
# criterion 6: the three martingales have unit mean
# ---------------------------------------------------------------------------

def criterion_6(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    kernel = kz.barrier_kernel(kz.power_tail(0.5))
    n, lam, eps, reps = 1000, 1.0, 0.1, 10_000
    a_n = kernel.scaling(n)
    t_grid = (0.5, 1.0)

    data = np.empty((reps, 3 * len(t_grid)))
    for i in range(reps):
        path = ce.sample_path(kernel, n, seed, stream=i)
        resc = ce.rescale(path)
        vals = []
        for t in t_grid:
            k = int(math.floor(a_n * t))
            vals.append(ce.martingale_additive(path, lam, k))
            vals.append(ce.martingale_upsilon(path, lam, k))
            vals.append(ce.martingale_M(resc, lam, t, eps))
        data[i] = vals
    names = [f"{kind}(t={t})" for t in t_grid
             for kind in ("additive", "upsilon", "stopped M")]
    cols = [data[:, 3 * j + i] for j, t in enumerate(t_grid) for i in range(3)]
    lines: list[str] = []
    est = {}
    ok = True
    for name, col in zip(names, cols):
        m = empirical_moment(col, 1.0)
        ok &= _check(lines, m.within(1.0, 4.0), f"{name}: mean = {m} vs 1")
        est[name] = (m.value, m.se)
    return CriterionResult("6 martingale suite", ok, tuple(lines), est)


# ---------------------------------------------------------------------------
# criterion 7: pathwise coupling of the three barrier-family walks
# ---------------------------------------------------------------------------

def criterion_7(seed: int = ACCEPTANCE_SEED, *,
                q: kz.StepDistribution | None = None, n: int = 500,
                replicates: int = 10_000) -> CriterionResult:
    if q is None:
        q = kz.power_tail(0.5)
    kernels = (kz.truncated_kernel(q), kz.barrier_kernel(q), kz.ignored_jump_kernel(q))

    viol = np.zeros(3, dtype=np.int64)
    for i in range(replicates):
        trip = ce.coupled_barrier_triple(q, n, seed, stream=i, kernels=kernels)
        tl, x, ht = (p.states for p in trip)
        kk = min(len(tl), len(x), len(ht))
        if np.any(tl[:kk] > x[:kk]) or np.any(x[:kk] > ht[:kk]):
            viol[0] += 1
        a_t = len(tl) - 1
        m = min(a_t, len(x) - 1, len(ht) - 1)
        if not (np.array_equal(tl[:m], x[:m]) and np.array_equal(x[:m], ht[:m])):
            viol[1] += 1
        if not np.array_equal(ht[trip.acceptance_times], x):
            viol[2] += 1
    lines: list[str] = []
    ok = _check(lines, viol[0] == 0, f"sandwich ordering violations: {viol[0]}")
    ok &= _check(lines, viol[1] == 0, f"pre-absorption equality violations: {viol[1]}")
    ok &= _check(lines, viol[2] == 0, f"acceptance-time readout violations: {viol[2]}")
    return CriterionResult("7 coupling suite", ok, tuple(lines),
                           {"violations": [int(v) for v in viol]})


# ---------------------------------------------------------------------------
# criterion 8: balls-in-gaps compositions match the chain kernel
# ---------------------------------------------------------------------------

def criterion_8(seed: int = ACCEPTANCE_SEED, *,
                kernel: kz.CompositionKernel | None = None, n_grid=(2, 3, 4),
                replicates: int = 10_000) -> CriterionResult:
    if kernel is None:
        kernel = kz.composition_kernel(ms.levy_atom(1.0, math.log(2.0)))
    triple = ms.LevyTriple(0.0, 0.0, kernel.omega)
    lines: list[str] = []
    est = {}
    ok = True
    comp_by_n = {}
    for j, n in enumerate(n_grid):
        comps = lp.sample_gap_compositions(triple, n, replicates, seed,
                                           stream0=j * STREAM_BLOCK)
        comp_by_n[n] = comps
        ok &= _check(lines, all(c.total == n for c in comps),
                     f"n={n}: all block sizes sum to n")
        # the composition kernel's only absorbing state is already 0
        pmf, _tail = dp.absorption_distribution(kernel, n, k_max=n)
        k_counts = np.bincount([c.length for c in comps], minlength=n + 1)
        for k in range(1, n + 1):
            p = pmf[k]
            phat = k_counts[k] / replicates
            band = 4.0 * math.sqrt(max(p * (1 - p), 1e-12) / replicates)
            ok &= _check(lines, abs(phat - p) <= band,
                         f"n={n}: P(K={k}) = {phat:.4f} vs exact {p:.4f} (band {band:.4f})")
            est[f"n{n}_K{k}"] = (phat, p)
        row = kernel.row(n)
        c1_counts = np.bincount([c.parts[0] for c in comps], minlength=n + 1)
        for c in range(1, n + 1):
            p = row[n - c]
            phat = c1_counts[c] / replicates
            band = 4.0 * math.sqrt(max(p * (1 - p), 1e-12) / replicates)
            ok &= _check(lines, abs(phat - p) <= band,
                         f"n={n}: P(C1={c}) = {phat:.4f} vs exact {p:.4f} (band {band:.4f})")
    # regenerative two-step law at the largest n, chi-square at the 1% level
    n = n_grid[-1]
    cells = {}
    for c1 in range(1, n):
        row1 = kernel.row(n)
        for c2 in range(1, n - c1 + 1):
            cells[(c1, c2)] = row1[n - c1] * kernel.row(n - c1)[n - c1 - c2]
    cells[(n, 0)] = kernel.row(n)[0]
    counts = {key: 0 for key in cells}
    for comp in comp_by_n[n]:
        key = (comp.parts[0], comp.parts[1] if comp.length > 1 else 0)
        counts[key] += 1
    chi = sum((counts[k] - replicates * p) ** 2 / (replicates * p) for k, p in cells.items())
    dof = len(cells) - 1
    bound = chi2_quantile(0.99, dof)
    ok &= _check(lines, chi <= bound,
                 f"regenerative chi-square at n={n}: {chi:.2f} <= {bound:.2f} (df={dof})")
    est["chi2"] = (chi, bound)
    return CriterionResult("8 composition cross-check", ok, tuple(lines), est)


# ---------------------------------------------------------------------------
# criterion 9: the convergence diagnostic across the whole zoo
# ---------------------------------------------------------------------------

def criterion_9(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    pt = kz.power_tail(0.5)
    zoo = {
        "barrier": (kz.barrier_kernel(pt), 0.05),
        "truncated": (kz.truncated_kernel(pt), 0.05),
        "ignored": (kz.ignored_jump_kernel(pt), 0.05),
        "canonical": (kz.canonical_kernel(ms.lebesgue(), gamma=0.5), 0.05),
        "coalescent": (kz.beta_coalescent_kernel(1.5, 1.0), 0.10),
        "composition": (kz.composition_kernel(ms.barrier_levy_measure(0.5)), 0.10),
    }
    grid = [2 ** k for k in range(7, 14)]
    lams = (0.5, 1.0, 2.0)
    lines: list[str] = []
    tables = {}
    ok = True
    for name, (kernel, threshold) in zoo.items():
        diag = kz.hypothesis_h_diagnostic(kernel, lams, grid, threshold=threshold)
        for lam, verdict in sorted(diag.verdicts.items()):
            ok &= _check(lines, verdict.passed,
                         f"{name} lam={lam:g} (threshold {threshold}): {verdict}")
        tables[f"diagnostic_{name}.csv"] = diag.to_csv()
    return CriterionResult("9 convergence diagnostic", ok, tuple(lines), tables=tables)


# ---------------------------------------------------------------------------
# criterion 10: distributional convergence of the rescaled marginals
# ---------------------------------------------------------------------------

def criterion_10(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    kernel = kz.barrier_kernel(kz.power_tail(0.5))
    triple = ms.levy_triple(kernel.mu)
    t_grid = (0.5, 1.0)
    reps = 10_000
    n_grid = (250, 1000, 4000)
    # the limit leg sits inside block 7, clear of the chain legs' blocks
    limit = lp.sample_y_marginals(triple, 0.5, t_grid, reps, seed,
                                  stream0=77 * STREAM_BLOCK // 10)
    lines: list[str] = []
    est = {}
    ok = True
    dists = {t: [] for t in t_grid}
    for j, n in enumerate(n_grid):
        a_n = kernel.scaling(n)
        steps = [int(math.floor(a_n * t)) for t in t_grid]
        states = ce.sample_marginal_states(kernel, n, steps, reps, seed,
                                           stream0=j * STREAM_BLOCK)
        for col, t in enumerate(t_grid):
            dists[t].append(ks_distance(states[:, col] / n, limit[:, col]))
    for t in t_grid:
        verdict = trend_verdict(dists[t], threshold=0.05)
        ok &= _check(lines, verdict.passed,
                     f"KS(Y_n({t}), Y({t})) over n={n_grid}: {verdict}")
        est[f"ks_t{t}"] = dists[t]
    return CriterionResult("10 marginal-distribution convergence", ok, tuple(lines), est)


# ---------------------------------------------------------------------------
# criterion 11: exact clock-change calculus on random staircases
# ---------------------------------------------------------------------------

RIEMANN_CHUNK = 1 << 20  # grid points summed at a time by criterion 11


def _running_sums_at(h, delta: float, n: int, idx: np.ndarray,
                     chunk: int = RIEMANN_CHUNK) -> np.ndarray:
    """``np.cumsum(h(i * delta for i < n))[idx]``, without the whole grid.

    The grid is summed ``chunk`` points at a time; each chunk's running sum
    starts from the one carried over, so every partial sum is the same
    sequential addition one ``np.cumsum`` makes.
    """
    out = np.empty(idx.size)
    carry = 0.0
    for lo in range(0, n, chunk):
        part = h(np.arange(lo, min(lo + chunk, n)) * delta)
        part[0] += carry
        np.cumsum(part, out=part)
        mine = (lo <= idx) & (idx < lo + part.size)
        out[mine] = part[idx[mine] - lo]
        carry = float(part[-1])
    return out


def criterion_11(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    """Certify ``chain_engine.time_change``, the clock change criterion 6's paths run on."""
    rng = philox_rng(seed, 11)
    lines: list[str] = []
    ok = True
    worst_round = 0.0
    worst_sigma = 0.0
    worst_brute = 0.0
    for trial in range(25):
        m = int(rng.integers(3, 9))
        vals = np.sort(rng.random(m - 1))[::-1]
        vals = tuple(vals) + ((0.0,) if trial % 2 == 0 else ())
        knots = (0.0,) + tuple(np.cumsum(rng.random(len(vals) - 1) * 2.0 + 0.05))
        gamma = float(rng.random() * 1.5 + 0.25)
        f = ce.StepFunction(vals, knots)
        tc = ce.time_change(f, gamma)
        horizon = knots[-1] if f.sigma == math.inf else f.sigma
        ts = rng.random(40) * horizon * 0.999
        ts = ts[ts < f.sigma]
        rt = np.max(np.abs(tc.tau_inv(tc.tau(ts)) - ts)) if ts.size else 0.0
        worst_round = max(worst_round, rt)
        if f.sigma < math.inf:
            sig = float(np.sum(tc.g.values[:-1] ** gamma * np.diff(tc.g.knots)))
            worst_sigma = max(worst_sigma, abs(sig - f.sigma))
        # brute-force Riemann inversion of the forward clock on the grid
        # np.arange(0, end, delta) would make: ceil(end / delta) points
        delta = 1e-4
        end = float(tc.g.knots[-1])
        n_grid = math.ceil(end / delta)
        probe = rng.random(25) * end * 0.98
        exact = tc.tau_inv(probe)
        idx = np.minimum((probe / delta).astype(int), n_grid - 1)
        brute = _running_sums_at(lambda x: np.asarray(tc.g(x)) ** gamma,
                                 delta, n_grid, idx) * delta
        worst_brute = max(worst_brute, float(np.max(np.abs(exact - brute))))
    ok &= _check(lines, worst_round <= 1e-12,
                 f"round-trip tau_inv(tau(t)) = t: worst |diff| = {worst_round:.2e}")
    ok &= _check(lines, worst_sigma <= 1e-12,
                 f"sigma equals the gamma-integral of g: worst |diff| = {worst_sigma:.2e}")
    ok &= _check(lines, worst_brute <= 2e-4,
                 f"agreement with the 1e-4 Riemann inversion: worst |diff| = {worst_brute:.2e}")
    return CriterionResult("11 time-change calculus", ok, tuple(lines),
                           {"round": worst_round, "sigma": worst_sigma,
                            "brute": worst_brute})


ACCEPTANCE = {
    "1": criterion_1, "2": criterion_2, "3": criterion_3, "4": criterion_4,
    "5": criterion_5, "6": criterion_6, "7": criterion_7, "8": criterion_8,
    "9": criterion_9, "10": criterion_10, "11": criterion_11,
}
