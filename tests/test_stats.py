"""Estimator and verdict primitives."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, ks_2samp

from sschain import stats as S


def test_moment_constant_samples_are_exact():
    m = S.empirical_moment([3.0, 3.0, 3.0], 1.0)
    assert (m.value, m.se) == (3.0, 0.0)
    m7 = S.empirical_moment([1.0, 1.0, 1.0, 1.0], 7.0)
    assert (m7.value, m7.se) == (1.0, 0.0)


def test_moment_two_point_jackknife_arithmetic():
    m = S.empirical_moment([0.0, 2.0], 1.0)
    assert m.value == 1.0
    assert m.se == pytest.approx(1.0)


def test_moment_se_scales_with_replicates():
    rng = np.random.default_rng(7)
    x = rng.random(4096)
    half = S.empirical_moment(x[:2048], 1.0)
    full = S.empirical_moment(x, 1.0)
    assert full.se == pytest.approx(half.se / np.sqrt(2), rel=0.15)


def test_moment_validation():
    with pytest.raises(ValueError):
        S.empirical_moment([1.0], 1.0)
    with pytest.raises(ValueError):
        S.empirical_moment([1.0, 2.0], -1.0)


def test_within_band():
    m = S.EstimateWithError(1.0, 0.1, 100)
    assert m.within(1.39, 4.0)
    assert not m.within(1.41, 4.0)
    exact = S.EstimateWithError(2.0, 0.0, 3)
    assert exact.within(2.0) and not exact.within(2.0000001)


# ---------------------------------------------------------------------------
# ks_distance
# ---------------------------------------------------------------------------

def test_ks_identical_and_disjoint():
    a = np.arange(10.0)
    assert S.ks_distance(a, a) == 0.0
    assert S.ks_distance(np.zeros(5), np.ones(7)) == 1.0
    assert S.ks_distance([0.0, 1.0], [0.0, 1.0]) == 0.0


def test_ks_matches_scipy_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=rng.integers(5, 60))
        b = rng.normal(loc=rng.normal(), size=rng.integers(5, 60))
        want = ks_2samp(a, b, method="asymp").statistic
        assert S.ks_distance(a, b) == pytest.approx(want, abs=1e-12)


def test_ks_with_heavy_ties_matches_scipy():
    rng = np.random.default_rng(12)
    a = rng.integers(0, 4, size=50).astype(float)
    b = rng.integers(0, 4, size=70).astype(float)
    want = ks_2samp(a, b, method="asymp").statistic
    assert S.ks_distance(a, b) == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=30),
       st.lists(st.floats(-5, 5), min_size=1, max_size=30))
def test_ks_symmetric_and_bounded(a, b):
    d = S.ks_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert d == S.ks_distance(b, a)


# ---------------------------------------------------------------------------
# trend_verdict
# ---------------------------------------------------------------------------

def test_trend_examples():
    assert S.trend_verdict([0.4, 0.2, 0.1, 0.05], 0.1).passed
    assert not S.trend_verdict([0.1, 0.2, 0.4, 0.8], 0.1).passed
    assert S.trend_verdict([0.4, 0.2, 0.105, 0.1], 0.2).passed


def test_trend_final_threshold():
    assert not S.trend_verdict([0.4, 0.3, 0.2, 0.15], 0.1).passed
    assert S.trend_verdict([0.4, 0.3, 0.2, 0.15], 0.15).passed


def test_trend_floor_exempts_noise():
    errs = [1e-3, 1e-4, 1e-15, 5e-15]
    assert not S.trend_verdict(errs, 0.1).passed
    assert S.trend_verdict(errs, 0.1, floor=1e-9).passed


def test_trend_validation():
    with pytest.raises(ValueError):
        S.trend_verdict([0.1], 0.5)
    with pytest.raises(ValueError):
        S.trend_verdict([0.1, -0.2, 0.1, 0.1], 0.5)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0, 10), min_size=4, max_size=10),
       st.floats(0.01, 5.0), st.floats(0.0, 2.0))
def test_trend_monotone_in_threshold(errors, threshold, bump):
    if S.trend_verdict(errors, threshold).passed:
        assert S.trend_verdict(errors, threshold + bump).passed


def test_chi2_quantile_is_scipy_ppf_bit_for_bit():
    for dof in range(1, 31):
        assert S.chi2_quantile(0.99, dof) == chi2.ppf(0.99, dof), dof


def test_suites_import_leaves_scipy_stats_out():
    src = str(Path(S.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # scipy.interpolate and scipy.integrate too: only the spline tail inverse
    # and measures.quad need them, and each imports its own
    code = ("import sys, sschain.suites, sschain.cli; "
            "print([m in sys.modules for m in "
            "('scipy.stats', 'scipy.interpolate', 'scipy.integrate')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[False, False, False]"
