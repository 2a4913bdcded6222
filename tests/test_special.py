"""The kept log-Gamma tables reproduce scipy's gammaln and betaln bit for bit;
the kept Gamma-ratio tables match mpmath."""

import mpmath
import numpy as np
import pytest
from scipy.special import betaln, gammaln

from sschain import special as S

# (a, b) shifts of the Beta terms in the zoo: Beta(3/2, 1) and Beta(1.3, 0.7)
# coalescents, a non-dyadic pair whose sums x + y can differ in the last bit,
# the composition term with b = -0.5, and a = b for ties x = y
SHIFTS = [(1.5, 1.0), (1.3, 0.7), (0.25, 3.3), (1.0, -0.5), (2.0, 2.0), (1.5, 0.5)]
# rows below, across and well above scipy's MAXGAM = 171.62...
NS = [2, 3, 50, 168, 169, 170, 171, 172, 173, 174, 300, 2000, 2001, 10_000]


def _index_orders(n):
    """(p, q) of the coalescent (p = n-k-1, q = k-1), canonical and composition rows."""
    k = np.arange(1, n)
    yield n - k - 1, k - 1
    k = np.arange(n)
    yield k, n - k - 1
    yield k, n - k


@pytest.mark.parametrize("a, b", SHIFTS)
def test_betaln_shifted_is_betaln_bit_for_bit(a, b):
    for n in NS:
        for p, q in _index_orders(n):
            assert np.array_equal(S.betaln_shifted(p, q, a, b), betaln(p + a, q + b)), (a, b, n)


def test_betaln_shifted_reads_the_tables_on_a_tie():
    n = 2000  # x = y at k = n/2 in the coalescent order with a = b
    k = np.arange(1, n)
    p, q = n - k - 1, k - 1
    assert np.any(p == q) and (p + q + 4.0)[0] > S.MAXGAM
    got = S.betaln_shifted(p, q, 2.0, 2.0)
    assert np.array_equal(got, betaln(p + 2.0, q + 2.0))
    assert S._LGAMMA_TABLES[2.0].size >= n - 1


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
