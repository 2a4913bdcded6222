"""The three benchmark workloads: task lists, replicate counts and checks.

A workload is a list of operations.  ``run`` makes one library call (or
one loop of per-path calls) from the generated inputs and returns what
the library returned; ``check`` validates that output after timing has
stopped and returns (ok, message) pairs.  Every operation builds fresh
kernels, measures and triples, so each pass pays for cold rows and
per-object caches exactly as a command-line run does.

Library calls go through module attributes (``ce.sample_path``, never a
name imported into this module), so the tracer in ``spans.py`` sees them.
Reference values are exact: closed forms and Laplace exponents computed
inside ``check``, or DP oracle values pinned in ``pinned.json`` (see
``oracle_values``, which recomputes them).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sschain import chain_engine as ce
from sschain import exact_dp as dp
from sschain import kernels as kz
from sschain import limit_process as lp
from sschain import measures as ms
from sschain import stats
from sschain import suites

STREAM_BLOCK = 10_000_000
N_SE = 4.0
PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())["values"]

# chain-mc sizes
BARRIER_ABS_N = 4000
COALESCENT_N = 5000
MARTINGALE_N = 1000
MARGINAL_N = 1000
TRIPLE_N = 500
T_GRID = (0.5, 1.0)
# exact-dp sizes
BARRIER_DIST_N = 2000
DENSE_N = 3000
DENSE_K_MAX = 200
COALESCENT_DP_N = 2000


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _reps(full: int, scale: float) -> int:
    return max(20, int(round(full * scale)))


def _within(lines, est: stats.EstimateWithError, target: float, what: str):
    lines.append((est.within(target, N_SE), f"{what}: {est} vs {target:.6g}"))


def _close(lines, value: float, target: float, what: str, rel: float = 1e-9):
    ok = abs(value - target) <= rel * abs(target) + 1e-12
    lines.append((ok, f"{what}: {value!r} vs pinned {target!r} (rel tol {rel:g})"))


def _power_tail():
    return kz.power_tail(0.5)


def _barrier_triple():
    return ms.levy_triple(ms.barrier_measure(0.5))


def _gap_triple():
    return ms.LevyTriple(0.0, 0.0, ms.levy_atom(1.0, math.log(2.0)))


# ---------------------------------------------------------------------------
# chain-mc: batch chain Monte Carlo
# ---------------------------------------------------------------------------

def chain_mc(seed: int, scale: float = 1.0) -> list[Op]:
    r_barrier = _reps(10_000, scale)
    r_coal = _reps(1000, scale)
    r_marg = _reps(10_000, scale)
    r_mart = _reps(1000, scale)
    r_triple = _reps(2000, scale)

    def barrier_abs():
        kernel = kz.barrier_kernel(_power_tail())
        return ce.sample_absorption_times(kernel, BARRIER_ABS_N, r_barrier, seed,
                                          stream0=0)

    def check_barrier_abs(times):
        a_n = kz.barrier_kernel(_power_tail()).scaling(BARRIER_ABS_N)
        lines = []
        _within(lines, stats.empirical_moment(times / a_n, 1.0),
                PINNED["barrier_mean_A_4000"] / a_n, "barrier E[A_n/a_n], n=4000")
        return lines

    def coalescent_abs():
        kernel = kz.beta_coalescent_kernel(1.5, 1.0)
        return ce.sample_absorption_times(kernel, COALESCENT_N, r_coal, seed,
                                          stream0=STREAM_BLOCK)

    def check_coalescent_abs(times):
        a_n = kz.beta_coalescent_kernel(1.5, 1.0).scaling(COALESCENT_N)
        # the collapsed chain takes one extra step, from the absorbing state 1 to 0
        target = (PINNED["coalescent_collapsed_mean_A_5000"] - 1.0) / a_n
        lines = []
        _within(lines, stats.empirical_moment(times / a_n, 1.0), target,
                "coalescent E[A_n/a_n], n=5000")
        return lines

    def marginal_states():
        kernel = kz.barrier_kernel(_power_tail())
        a_n = kernel.scaling(MARGINAL_N)
        steps = [int(math.floor(a_n * t)) for t in T_GRID]
        return ce.sample_marginal_states(kernel, MARGINAL_N, steps, r_marg, seed,
                                         stream0=2 * STREAM_BLOCK)

    def check_marginal_states(states):
        lines = []
        for col, t in enumerate(T_GRID):
            _within(lines, stats.empirical_moment(states[:, col] / MARGINAL_N, 1.0),
                    PINNED[f"barrier_marginal_1000_t{t}"],
                    f"barrier E[X_n(a_n t)/n], n=1000, t={t}")
        return lines

    def martingales():
        kernel = kz.barrier_kernel(_power_tail())
        a_n = kernel.scaling(MARTINGALE_N)
        rows = np.empty((r_mart, 3 * len(T_GRID)))
        for i in range(r_mart):
            path = ce.sample_path(kernel, MARTINGALE_N, seed, stream=3 * STREAM_BLOCK + i)
            resc = ce.rescale(path)
            vals = []
            for t in T_GRID:
                k = int(math.floor(a_n * t))
                vals.append(ce.martingale_additive(path, 1.0, k))
                vals.append(ce.martingale_upsilon(path, 1.0, k))
                vals.append(ce.martingale_M(resc, 1.0, t, 0.1))
            rows[i] = vals
        return rows

    def check_martingales(rows):
        lines = []
        names = [f"{kind}(t={t})" for t in T_GRID for kind in ("additive", "upsilon", "M")]
        for j, name in enumerate(names):
            _within(lines, stats.empirical_moment(rows[:, j], 1.0), 1.0,
                    f"martingale {name} mean")
        return lines

    def coupled_triples():
        q = _power_tail()
        kernels = (kz.truncated_kernel(q), kz.barrier_kernel(q), kz.ignored_jump_kernel(q))
        return [ce.coupled_barrier_triple(q, TRIPLE_N, seed, stream=4 * STREAM_BLOCK + i,
                                          kernels=kernels)
                for i in range(r_triple)]

    def check_coupled_triples(triples):
        viol = np.zeros(3, dtype=np.int64)
        for trip in triples:
            tl, x, ht = (p.states for p in trip)
            kk = min(len(tl), len(x), len(ht))
            viol[0] += bool(np.any(tl[:kk] > x[:kk]) or np.any(x[:kk] > ht[:kk]))
            m = min(len(tl) - 1, len(x) - 1, len(ht) - 1)
            viol[1] += not (np.array_equal(tl[:m], x[:m]) and np.array_equal(x[:m], ht[:m]))
            viol[2] += not np.array_equal(ht[trip.acceptance_times], x)
        kinds = ("sandwich ordering", "pre-absorption equality", "acceptance-time readout")
        return [(v == 0, f"coupling {k} violations: {v}") for k, v in zip(kinds, viol)]

    return [
        Op("barrier-absorption", barrier_abs, check_barrier_abs),
        Op("coalescent-absorption", coalescent_abs, check_coalescent_abs),
        Op("marginal-states", marginal_states, check_marginal_states),
        Op("martingales", martingales, check_martingales),
        Op("coupled-triples", coupled_triples, check_coupled_triples),
    ]


# ---------------------------------------------------------------------------
# limit-mc: limit-process Monte Carlo
# ---------------------------------------------------------------------------

def limit_mc(seed: int, scale: float = 1.0) -> list[Op]:
    reps = _reps(500, scale)

    def z_marginals(make_triple, stream0):
        return lambda: lp.sample_z_marginals(make_triple(), T_GRID, reps, seed,
                                             stream0=stream0)

    def check_z(make_triple, label):
        def check(z):
            triple = make_triple()
            lines = []
            for j, t in enumerate(T_GRID):
                for lam in (0.5, 1.0, 2.0):
                    _within(lines, stats.empirical_moment(z[:, j], lam),
                            math.exp(-triple.laplace_exponent(lam) * t),
                            f"{label}: E[Z({t})^{lam:g}] vs exp(-psi t)")
            return lines
        return check

    def killing_triple():
        return ms.levy_triple(ms.atom(1.0, 0.0))

    def exp_functional():
        return lp.sample_exponential_functional(_barrier_triple(), 0.5, reps, seed,
                                                stream0=2 * STREAM_BLOCK)

    def check_exp_functional(samples):
        analytic = lp.analytic_moments(ms.barrier_measure(0.5), 0.5, 2)
        lines = []
        for p in (1, 2):
            _within(lines, stats.empirical_moment(samples, float(p)), analytic[p],
                    f"E[I^{p}] vs analytic")
        return lines

    def y_marginals():
        return lp.sample_y_marginals(_barrier_triple(), 0.5, T_GRID, reps, seed,
                                     stream0=3 * STREAM_BLOCK)

    def check_y_marginals(y):
        in_range = bool(np.all((y >= 0.0) & (y <= 1.0)))
        monotone = bool(np.all(np.diff(y, axis=1) <= 0.0))
        return [(in_range, "Y(t) lies in [0, 1]"),
                (monotone, "Y(t) is non-increasing in t")]

    def gaps(n, stream0):
        return lambda: lp.sample_gap_compositions(_gap_triple(), n, reps, seed,
                                                  stream0=stream0)

    def check_gaps(n):
        def check(comps):
            lines = [(all(c.total == n for c in comps), f"n={n}: block sizes sum to n")]
            pmf, _tail = dp.absorption_distribution(
                kz.composition_kernel(_gap_triple().levy), n, k_max=n)
            counts = np.bincount([c.length for c in comps], minlength=n + 1)
            for k in range(1, n + 1):
                p, phat = pmf[k], counts[k] / len(comps)
                band = N_SE * math.sqrt(max(p * (1 - p), 1e-12) / len(comps))
                lines.append((abs(phat - p) <= band,
                              f"n={n}: P(K={k}) = {phat:.4f} vs exact {p:.4f} (band {band:.4f})"))
            return lines
        return check

    ops = [
        Op("z-barrier", z_marginals(_barrier_triple, 0), check_z(_barrier_triple, "barrier")),
        Op("z-killing", z_marginals(killing_triple, STREAM_BLOCK),
           check_z(killing_triple, "killing")),
        Op("exp-functional", exp_functional, check_exp_functional),
        Op("y-marginals", y_marginals, check_y_marginals),
    ]
    for j, n in enumerate((2, 3, 4)):
        ops.append(Op(f"gaps-n{n}", gaps(n, (4 + j) * STREAM_BLOCK), check_gaps(n)))
    return ops


# ---------------------------------------------------------------------------
# exact-dp: the DP oracle, no sampling
# ---------------------------------------------------------------------------

def exact_dp(seed: int, scale: float = 1.0) -> list[Op]:
    def criterion(fn):
        return lambda: fn(seed)

    def check_criterion(result):
        return [(result.passed, f"criterion {result.name}")]

    def barrier_dist():
        return dp.absorption_distribution(kz.barrier_kernel(_power_tail()), BARRIER_DIST_N)

    def check_dist(out, what="barrier n=2000"):
        pmf, tail = out
        total = math.fsum(pmf) + tail
        return [(bool(np.all(pmf >= 0.0)), f"{what}: pmf is non-negative"),
                (abs(total - 1.0) <= 1e-12, f"{what}: pmf + tail = {total!r}")]

    def dense(make_kernel):
        def run():
            kernel = make_kernel(_power_tail())
            return (dp.marginal_moment(kernel, DENSE_N, 1.0, 1.0),
                    dp.absorption_distribution(kernel, DENSE_N, k_max=DENSE_K_MAX))
        return run

    def check_dense(label):
        def check(out):
            marginal, (pmf, tail) = out
            lines = check_dist((pmf, tail), f"{label} n=3000")
            _close(lines, marginal, PINNED[f"{label}_marginal_3000"],
                   f"{label} E[X_n(a_n)/n], n=3000")
            _close(lines, float(np.dot(np.arange(pmf.size), pmf)),
                   PINNED[f"{label}_partial_mean_3000"],
                   f"{label} sum of k P(A_n = k) up to k={DENSE_K_MAX}")
            _close(lines, tail, PINNED[f"{label}_tail_3000"],
                   f"{label} P(A_n > {DENSE_K_MAX})")
            return lines
        return check

    def coalescent_moments():
        kernel = kz.collapse_absorbing(kz.beta_coalescent_kernel(1.5, 1.0))
        return dp.absorption_moments(kernel, COALESCENT_DP_N, 2)

    def check_coalescent_moments(table):
        lines = []
        for p in (1, 2):
            _close(lines, table.moment(COALESCENT_DP_N, p),
                   PINNED[f"coalescent_collapsed_moment{p}_2000"],
                   f"collapsed coalescent E[A^{p}], n=2000")
        return lines

    return [
        Op("criterion-1", criterion(suites.criterion_1), check_criterion),
        Op("criterion-2", criterion(suites.criterion_2), check_criterion),
        Op("criterion-9", criterion(suites.criterion_9), check_criterion),
        Op("barrier-distribution", barrier_dist, check_dist),
        Op("truncated-dense", dense(kz.truncated_kernel), check_dense("truncated")),
        Op("ignored-dense", dense(kz.ignored_jump_kernel), check_dense("ignored")),
        Op("coalescent-moments", coalescent_moments, check_coalescent_moments),
    ]


WORKLOADS = {"chain-mc": chain_mc, "limit-mc": limit_mc, "exact-dp": exact_dp}


def oracle_values() -> dict[str, float]:
    """Recompute every value pinned in pinned.json from the DP oracle."""
    out = {}
    barrier = kz.barrier_kernel(_power_tail())
    out["barrier_mean_A_4000"] = dp.absorption_moments(barrier, BARRIER_ABS_N, 1) \
        .moment(BARRIER_ABS_N, 1)
    coal = kz.collapse_absorbing(kz.beta_coalescent_kernel(1.5, 1.0))
    out["coalescent_collapsed_mean_A_5000"] = dp.absorption_moments(coal, COALESCENT_N, 1) \
        .moment(COALESCENT_N, 1)
    for t in T_GRID:
        out[f"barrier_marginal_1000_t{t}"] = dp.marginal_moment(barrier, MARGINAL_N, t, 1.0)
    for label, make in (("truncated", kz.truncated_kernel),
                        ("ignored", kz.ignored_jump_kernel)):
        kernel = make(_power_tail())
        out[f"{label}_marginal_3000"] = dp.marginal_moment(kernel, DENSE_N, 1.0, 1.0)
        pmf, tail = dp.absorption_distribution(kernel, DENSE_N, k_max=DENSE_K_MAX)
        out[f"{label}_partial_mean_3000"] = float(np.dot(np.arange(pmf.size), pmf))
        out[f"{label}_tail_3000"] = tail
    table = dp.absorption_moments(kz.collapse_absorbing(kz.beta_coalescent_kernel(1.5, 1.0)),
                                  COALESCENT_DP_N, 2)
    for p in (1, 2):
        out[f"coalescent_collapsed_moment{p}_2000"] = table.moment(COALESCENT_DP_N, p)
    return out
