"""The kept log-Gamma table reproduces scipy's gammaln bit for bit; the kept
Gamma-ratio tables match mpmath."""

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from sschain import special as S


def test_log_binom_after_the_table_has_grown():
    big = 3 * max((t.size for t in S._LGAMMA_TABLES.values()), default=64)
    log_binom_big = S.log_binom(big, np.arange(big + 1))
    assert S._LGAMMA_TABLES[1.0].size >= big + 1
    for n in (0, 1, 37, 171, 172, 999, big):
        k = np.arange(n + 1)
        nf, kf = float(n), k.astype(float)
        expect = gammaln(nf + 1.0) - gammaln(kf + 1.0) - gammaln(nf - kf + 1.0)
        assert np.array_equal(S.log_binom(n, k), expect), n
    assert np.array_equal(log_binom_big, S.log_binom(big, np.arange(big + 1)))


# the shifts the Beta-term kernels read: b and a - 2 of the Beta(3/2, 1) and
# Beta(1.3, 0.7) coalescents, a and b of the composition term (1, -0.5), and
# the sums alpha + beta of each; the measured worst relative errors against
# 30-digit mpmath out to j = 5000 are 0 (shift 1), 5.9e-15 (-0.5), 7.0e-15
# (0.5), 5.2e-15 (0), 1.1e-13 (0.7) and 1.2e-13 (-0.7)
RATIO_SHIFTS = [1.0, -0.5, 0.5, 0.0, 0.7, -0.7]


@pytest.mark.parametrize("shift", RATIO_SHIFTS)
def test_gamma_ratio_table_matches_mpmath(shift):
    t = S.gamma_ratio_table(shift, 5001)
    j0 = 1 if shift <= 0.0 else 0  # the first j with j + shift > 0
    assert np.isnan(t[:j0]).all() and np.isfinite(t[j0:]).all()
    js = np.unique(np.concatenate([np.arange(j0, 40), np.geomspace(40, 5000, 60).round()]))
    with mpmath.workdps(30):
        worst = max(float(abs(t[j] - mpmath.gamma(j + mpmath.mpf(shift)) / mpmath.factorial(j))
                          / (mpmath.gamma(j + mpmath.mpf(shift)) / mpmath.factorial(j)))
                    for j in js.astype(int).tolist())
    assert worst <= 2.5e-13, worst  # twice the worst measured, 1.2e-13


def test_gamma_ratio_table_grows_bit_for_bit():
    # a running product: the longer table repeats the shorter one exactly
    shift = 0.3125
    S._RATIO_TABLES.pop(shift, None)
    short = S.gamma_ratio_table(shift, 10).copy()
    assert short.size == 64
    long = S.gamma_ratio_table(shift, 1000)
    assert long.size >= 1000 and np.array_equal(long[:64], short)
    assert S.gamma_ratio_table(shift, 100) is long
