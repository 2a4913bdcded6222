"""The acceptance gate: every criterion at its pinned tolerance.

One test per criterion; each prints its pass/fail report.  Criterion 3 is
marked as an expected failure: its Monte Carlo leg compares the mean
collision count at n = 5000 against the asymptotic value inside a 4-SE
band, but the exact finite-size bias at that n (computed with the DP
oracle, no sampling involved) is +2.5%, about nine standard errors at the
mandated replicate count, so the band cannot contain the target at any
seed.  The check is implemented exactly as stated rather than loosened;
see the repository README for the numbers.
"""

import math

import numpy as np
import pytest

from sschain import suites

SEED = suites.ACCEPTANCE_SEED


def _run(name):
    result = suites.ACCEPTANCE[name](SEED)
    print()
    print(result.report())
    return result


def test_criterion_01_moment_limit_barrier_walk():
    assert _run("1").passed


def test_criterion_02_finite_mean_regime():
    assert _run("2").passed


@pytest.mark.xfail(strict=True, reason=(
    "exact finite-size bias of E[A_n]/h(1/n) at n=5000 is +2.5% (9 SE at "
    "2e4 replicates); the 4-SE band around the asymptotic value cannot hold"))
def test_criterion_03_coalescent_scaling():
    assert _run("3").passed


def test_criterion_04_subordinator_marginal_law():
    assert _run("4").passed


def test_criterion_05_exponential_functional_vs_chain():
    assert _run("5").passed


def test_criterion_06_martingale_suite():
    assert _run("6").passed


def test_criterion_07_coupling_suite():
    assert _run("7").passed


def test_criterion_08_composition_cross_check():
    assert _run("8").passed


def test_criterion_09_hypothesis_diagnostic():
    assert _run("9").passed


def test_criterion_10_marginal_distribution_convergence():
    assert _run("10").passed


def test_criterion_11_time_change_calculus():
    assert _run("11").passed


def test_criterion_11_chunked_running_sums_equal_one_cumsum():
    # a grid small enough to hold whole, summed in chunks shorter than it
    delta, end = 1e-4, 1.23456789
    grid = np.arange(0.0, end, delta)
    n = math.ceil(end / delta)
    assert grid.size == n
    gamma = 0.6180339887
    h = lambda x: (2.0 + np.sin(7.0 * x)) ** gamma
    whole = np.cumsum(h(grid))
    idx = np.array([0, 1, 776, 777, 778, 5000, n - 2, n - 1, 3, 3])
    for chunk in (777, 1000, 4096, n - 1, n, 2 * n):
        got = suites._running_sums_at(h, delta, n, idx, chunk)
        assert got.tobytes() == whole[idx].tobytes(), chunk
