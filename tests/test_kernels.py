"""The transition-law zoo: rows, scalings, targets, diagnostics."""

import ast
import hashlib
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sciint
from scipy.special import gammaln, zeta

from sschain import kernels as K
from sschain import measures as M
from sschain.special import log_binom


def quad(fn, lo, hi):
    val, err = sciint.quad(fn, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=400)
    assert err < 1e-7
    return val


@pytest.fixture(scope="module")
def pt():
    return K.power_tail(0.5)


# ---------------------------------------------------------------------------
# log-space binomials
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 10_000), k=st.integers(0, 10_000))
def test_log_binom_is_the_gammaln_formula_bit_for_bit(n, k):
    k = min(k, n)
    ks = np.arange(n + 1)
    nf, kf = float(n), ks.astype(float)
    expect = gammaln(nf + 1.0) - gammaln(kf + 1.0) - gammaln(nf - kf + 1.0)
    assert np.array_equal(log_binom(n, ks), expect)
    assert log_binom(n, k) == expect[k]
    assert np.array_equal(log_binom(np.array([n, n + 7]), np.array([k, 0])),
                          [expect[k], 0.0])


@settings(max_examples=60, deadline=None)
@given(bad=st.one_of(st.integers(max_value=-1),
                     st.floats(-1e4, 1e4).filter(lambda x: x != math.floor(x)),
                     st.just(math.nan), st.just(3.0)),
       as_n=st.booleans())
def test_log_binom_refuses_non_integer_or_negative_input(bad, as_n):
    n, k = (bad, 0) if as_n else (10, bad)
    with pytest.raises(ValueError, match="log_binom needs integers"):
        log_binom(n, k)


# ---------------------------------------------------------------------------
# step distributions
# ---------------------------------------------------------------------------

def test_power_tail_values(pt):
    # telescoping-tail oracle: q_k = k^-1/2 - (k+1)^-1/2
    k = np.arange(1, 8)
    expect = k ** -0.5 - (k + 1.0) ** -0.5
    assert np.allclose(pt.pmf_upto(7)[1:], expect, rtol=1e-14)
    assert pt.pmf_upto(7)[0] == 0.0
    assert pt.tail_at(3) == pytest.approx(0.5)
    assert pt.gamma == 0.5
    assert pt.mean == math.inf


@pytest.mark.parametrize("gamma", [1.1, 1.5, 2.0])
def test_power_tail_mean_is_zeta(gamma):
    # E[step] = sum of qbar_n = (n+1)^-gamma over n >= 0
    assert K.power_tail(gamma).mean == pytest.approx(float(zeta(gamma)), rel=1e-12)


@pytest.mark.parametrize("gamma", [0.05, 0.1, 0.2])
def test_slow_power_tails_build(gamma):
    # tail(2^40) = 2^(-40 gamma) is above 1e-3 here: the declared decay is tested instead
    q = K.power_tail(gamma)
    assert q.tail_at(4095) == pytest.approx(4096.0 ** -gamma, rel=1e-14)
    assert K.barrier_kernel(q).row(300).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("gamma", [None, 0.5, 0.0831])
def test_a_constant_tail_is_refused(gamma):
    # with a declared gamma the rule reads tail(x) (x + 1)^gamma <= 10 tail(0) at the
    # probes: a constant tail breaks it for every gamma > ln 10 / ln(2^40 + 1) = 0.08305
    with pytest.raises(ValueError, match="^tail does not appear to vanish at infinity$"):
        K.StepDistribution(tail=lambda k: np.full(np.shape(k), 0.5), gamma=gamma)


def test_finite_step_validation():
    with pytest.raises(ValueError):
        K.finite_step([0.5, 0.4])           # does not sum to 1
    with pytest.raises(ValueError):
        K.finite_step([1.0])                # q_0 = 1
    with pytest.raises(ValueError):
        K.finite_step([0.5, -0.1, 0.6])     # negative mass
    with pytest.raises(ValueError, match="NaN"):
        K.finite_step([np.nan, 0.5, 0.5])   # NaN fails neither q < 0 nor "sum - 1 > tol"
    q = K.finite_step([0.25, 0.5, 0.25])
    assert q.mean == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# barrier family rows
# ---------------------------------------------------------------------------

# step laws with gaps: small integer weights, zeros allowed, q_0 < 1
gapped_weights = st.lists(st.integers(0, 3), min_size=2, max_size=7).filter(
    lambda w: any(w[1:]))


@settings(max_examples=60, deadline=None)
@given(gapped_weights)
def test_absorbing_mask_matches_absorbing(weights):
    q = K.finite_step(np.asarray(weights, dtype=float) / sum(weights))
    states = np.arange(2 * len(weights) + 3)
    for make in (K.barrier_kernel, K.truncated_kernel, K.ignored_jump_kernel):
        expect = [make(q).absorbing(int(s)) for s in states]
        assert list(make(q).absorbing_mask(states)) == expect, make.__name__
        assert list(K.Kernel.absorbing_mask(make(q), states)) == expect, make.__name__


def test_absorbing_does_not_depend_on_call_order():
    # p_11 = 1 - 1e-12 sits on the threshold; the cumulative row's c[1] - c[0] falls below it
    def make():
        return K.ExplicitKernel(lambda n: [1.2e-12, 1.0 - 1e-12] if n == 1 else np.eye(n + 1)[0])
    fresh = make()
    after_row = make()
    after_row.row(1)
    after_cumsum = make()
    after_cumsum.row_cumsum(1)
    assert fresh.absorbing(1) and after_row.absorbing(1) and after_cumsum.absorbing(1)


def test_barrier_rows_finite_q():
    bk = K.barrier_kernel(K.finite_step([0.0, 0.5, 0.5]))
    assert np.allclose(bk.row(1), [1.0, 0.0])
    assert np.allclose(bk.row(2), [0.5, 0.5, 0.0])
    assert np.allclose(bk.row(0), [1.0])
    assert bk.absorbing(0) and not bk.absorbing(2)


@pytest.mark.parametrize("gamma, state", [(0.5, 739), (0.3, 20)])
def test_barrier_step_never_overshoots_the_barrier(gamma, state):
    # the running sums of q round below 1 - qbar at these states, so u just
    # under 1 used to pick a jump past the state and land at -1; q_state > 0,
    # so the largest allowed jump lands at 0
    bk = K.barrier_kernel(K.power_tail(gamma))
    u = np.array([1.0 - 2.0 ** -53, 0.0])
    assert list(bk.step(np.array([state, state]), u)) == [0, state - 1]


@pytest.mark.parametrize("make", [K.barrier_kernel, K.truncated_kernel,
                                  K.ignored_jump_kernel])
def test_finite_step_law_never_overflows_past_its_support(make):
    # the running sum of ten 0.1s rounds to 1 - 2^-53, so u = 1 - 2^-53 used
    # to pick a jump of 10, which the law never makes, and overflow from 100
    q = K.finite_step([0.1] * 10)
    assert q.max_step == 9 and K.power_tail(0.5).max_step is None
    assert q.quantile(np.array([0.0, 0.95, 1.0 - 2.0 ** -53]), 100).tolist() == [0, 9, 9]
    states = np.array([100, 100, 12, 5])
    u = np.array([1.0 - 2.0 ** -53, 0.0, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53])
    landed = make(q).step(states, u)
    assert list(landed[:3]) == [91, 100, 3]
    # a genuine overflow from 5 keeps each walk's rule
    assert landed[3] == {K.barrier_kernel: 0, K.truncated_kernel: 0,
                         K.ignored_jump_kernel: 5}[make]


def test_barrier_scaling_and_target(pt):
    bk = K.barrier_kernel(pt)
    assert bk.scaling(3) == pytest.approx(2.0)       # 1/qbar_3 = 4^1/2
    assert bk.scaling(0) == 1.0
    assert bk.gamma == 0.5
    assert bk.psi(1.0) == pytest.approx(1.0, rel=1e-12)
    assert bk.psi(0.5) == pytest.approx(math.pi / 2 - 1, rel=1e-12)


def test_truncated_and_ignored_rows():
    q = K.finite_step([0.0, 0.5, 0.5])
    tk = K.truncated_kernel(q)
    ik = K.ignored_jump_kernel(q)
    assert np.allclose(tk.row(1), [1.0, 0.0])        # q_1 + qbar_1 = 1
    assert np.allclose(ik.row(1), [0.5, 0.5])        # waits with prob qbar_1
    assert np.allclose(tk.row(2), [0.5, 0.5, 0.0])
    assert np.allclose(ik.row(2), [0.5, 0.5, 0.0])


def test_variant_rows_within_tail_tv_distance(pt):
    bk, tk, ik = (K.barrier_kernel(pt), K.truncated_kernel(pt),
                  K.ignored_jump_kernel(pt))
    for n in (1, 2, 5, 17, 64):
        qb = pt.tail_at(n)
        for other in (tk, ik):
            tv = 0.5 * np.abs(bk.row(n) - other.row(n)).sum()
            assert tv <= 2 * qb + 1e-12


def test_truncated_target_includes_killing(pt):
    tk = K.truncated_kernel(pt)
    bk = K.barrier_kernel(pt)
    for lam in (0.5, 1.0, 2.0):
        assert tk.psi(lam) == pytest.approx(1.0 + bk.psi(lam), rel=1e-12)


def test_row_validation_rejects_bad_rows():
    bad = K.ExplicitKernel(lambda n: np.full(n + 1, 0.5), name="bad")
    with pytest.raises(K.KernelConstructionError):
        bad.row(3)
    neg = K.ExplicitKernel(lambda n: [1.5, -0.5] + [0.0] * (n - 1), name="neg")
    with pytest.raises(K.KernelConstructionError):
        neg.row(2)
    # NaN compares False both ways, so each check must fail on it explicitly
    for row in ([math.nan] + [0.0] * 3, [1.0, 0.0, 0.0, math.nan]):
        nan = K.ExplicitKernel(lambda n: row, name="nan")
        with pytest.raises(K.KernelConstructionError, match=r"nan: row 3"):
            nan.row(3)
        with pytest.raises(K.KernelConstructionError):
            nan.absorbing(3)


def test_explicit_rows_are_copied():
    # validated_row returns fresh rows as they are; an explicit row is the caller's
    shared = np.array([0.25, 0.75])
    k = K.ExplicitKernel(lambda n: shared if n == 1 else np.eye(n + 1)[0])
    row = k.row(1)
    assert np.array_equal(row, shared) and not np.shares_memory(row, shared)


# ---------------------------------------------------------------------------
# canonical kernel
# ---------------------------------------------------------------------------

def _canonical_row_oracle_atom0(n, a_n):
    # direct evaluation of the mixture construction for a unit atom at 0:
    # only k = 0 picks up density mass, and the diagonal takes the rest
    row = np.zeros(n + 1)
    if 1.0 - 1.0 / a_n > 0:
        row[0] = 1.0 / a_n
    row[n] = 1.0 - row[0]
    return row


def test_canonical_atom0_rows_match_direct_summation():
    ck = K.canonical_kernel(M.atom(1.0, 0.0), gamma=0.5)
    for n in (1, 2, 4, 9):
        assert np.allclose(ck.row(n), _canonical_row_oracle_atom0(n, math.sqrt(n)),
                           atol=1e-15)


def test_canonical_no_atom1_has_no_corrective_entry():
    # with no mass at 1 the row is integral part + diagonal only
    ck = K.canonical_kernel(M.lebesgue(), gamma=0.5)
    n = 64
    row = ck.row(n)
    a_n = math.sqrt(n)
    upper = 1 - 1 / a_n
    k = 5
    oracle = quad(lambda x: math.comb(n, k) * x ** k * (1 - x) ** (n - k - 1),
                  0.0, upper) / a_n
    assert row[k] == pytest.approx(oracle, rel=1e-9)


def test_canonical_atom1_corrective_entry():
    mu = M.atom(0.5, 1.0) + M.lebesgue(0.5)
    ck = K.canonical_kernel(mu, gamma=0.5)
    n = 64
    row = ck.row(n)
    gp = ck.gamma_prime
    k_star = n - math.floor(n ** gp / math.sqrt(n))
    assert row[k_star] > n ** (1 - gp) * 0.5 - 1e-12
    assert abs(row.sum() - 1.0) < 1e-12


def test_canonical_rows_are_probability_vectors_across_zoo():
    for mu in (M.lebesgue(), M.barrier_measure(0.5),
               M.atom(0.3, 0.0) + M.lebesgue(0.7)):
        ck = K.canonical_kernel(mu, gamma=0.5)
        for n in (1, 2, 3, 8, 100, 512):
            row = ck.row(n)
            assert np.all(row >= 0)
            assert abs(row.sum() - 1.0) < 1e-11


@pytest.mark.parametrize("mu, gamma", [(M.lebesgue(), 0.5), (M.beta_density(0.7, 1.9), 0.8)],
                         ids=["lebesgue", "beta(0.7,1.9)"])
def test_canonical_rows_match_mpmath(mu, gamma):
    """Every entry of rows 5, 64 and 512 against 40-digit incomplete Beta functions.

    Entry k < n is C(n, k) times the sum over Beta terms of
    c B(k + a, n - k - 1 + b; 0, upper) / a_eff, with a_eff = a_n / mass and
    upper = 1 - 1/a_eff; the diagonal is one minus the rest.  The worst
    measured relative error is 1.8e-12 (row 512 of the Beta(0.7, 1.9)
    kernel, from scipy's betainc); the tolerance is about twice that.
    """
    ck = K.canonical_kernel(mu, gamma)
    for n in (5, 64, 512):
        row = ck.row(n)
        with mpmath.workdps(40):
            mass = mpmath.mpf(mu.total_mass)
            a_eff = mpmath.mpf(ck.scaling(n)) / mass
            upper = 1 - 1 / a_eff
            ref = [mpmath.binomial(n, k) / a_eff * mpmath.fsum(
                mpmath.mpf(t.coef) / mass
                * mpmath.betainc(k + mpmath.mpf(t.a), n - k - 1 + mpmath.mpf(t.b), 0, upper)
                for t in mu.beta_terms) for k in range(n)]
            ref.append(1 - mpmath.fsum(ref))
            worst = max(float(abs(x - r) / r) for x, r in zip(row.tolist(), ref))
        assert worst <= 4e-12, (n, worst)


def test_canonical_diagnostic_trends_to_target():
    ck = K.canonical_kernel(M.lebesgue(), gamma=0.5)
    diag = K.hypothesis_h_diagnostic(ck, [1.0], [64, 128, 256, 512], threshold=0.2)
    assert diag.passed


# ---------------------------------------------------------------------------
# coalescent kernel
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def beta_co():
    return K.beta_coalescent_kernel(1.5, 1.0)


def test_coalescent_row3_closed_form(beta_co):
    # rate oracle: g_{n,k} = C(n,k-1) B(n-k-1/2, k) * 3/2 for the (3/2, 1) family
    g = beta_co.collision_rates(3)
    assert g[1] == pytest.approx(3 / 5, rel=1e-12)
    assert g[2] == pytest.approx(6 / 5, rel=1e-12)
    assert np.allclose(beta_co.row(3), [0, 1 / 3, 2 / 3, 0], rtol=1e-12)


def test_coalescent_row2_single_merge(beta_co):
    assert np.allclose(beta_co.row(2), [0.0, 1.0, 0.0])


def test_coalescent_rates_quadrature_vs_loggamma(beta_co):
    # quadrature oracle for the collision-rate integrals, 1e-9 relative
    n = 40
    g = beta_co.collision_rates(n)
    for k in (1, 7, 20, 39):
        val, err = sciint.quad(
            lambda x: x ** (n - k - 1) * (1 - x) ** (k - 1) * 1.5 * math.sqrt(x),
            0.0, 1.0, epsabs=1e-300, epsrel=1e-12, limit=400)
        assert err < 1e-10 * abs(val)
        assert g[k] == pytest.approx(math.comb(n, k - 1) * val, rel=1e-9)


@pytest.mark.parametrize("a, b", [(1.5, 1.0), (1.3, 0.7)])
def test_coalescent_rates_match_mpmath(a, b):
    """collision_rates(n) against 40-digit C(n, k-1) B(n-k-1+a, k-1+b) / B(a, b).

    The rates are products of Gamma-ratio tables, running products whose
    rounding grows with the index, so the measured worst relative errors
    at these indices are 2.6e-15 and 1.9e-14 at n = 1000 and 3.6e-15 and
    2.5e-13 at n = 10^4, for (1.5, 1) and (1.3, 0.7); the tolerances are
    about twice the worse of the two.
    """
    co = K.coalescent_kernel(M.beta_density(a, b))
    for n, tol in ((1000, 5e-14), (10_000, 5e-13)):
        g = co.collision_rates(n)
        ends = np.geomspace(1, n - 1, 30).round().astype(int)
        ks = np.unique(np.concatenate([ends, n - ends])).tolist()
        with mpmath.workdps(40):
            A, B = mpmath.mpf(a), mpmath.mpf(b)
            ref = [mpmath.binomial(n, k - 1) * mpmath.beta(n - k - 1 + A, k - 1 + B)
                   / mpmath.beta(A, B) for k in ks]
            worst = max(float(abs(g[k] - r) / r) for k, r in zip(ks, ref))
        assert worst <= tol, (n, worst)


def test_coalescent_h_and_beta(beta_co):
    # incomplete-integral oracle: h(u) = 3 (u^-1/2 - 1)
    for u in (0.5, 0.01, 1e-4):
        assert beta_co.h(u) == pytest.approx(3 * (u ** -0.5 - 1), rel=1e-12)
    assert beta_co.beta == 0.5
    assert beta_co.scaling(100) == pytest.approx(27.0)


def test_coalescent_h_generic_beta_b_not_one():
    co = K.beta_coalescent_kernel(1.5, 2.0)
    coef = math.gamma(3.5) / (math.gamma(1.5) * math.gamma(2.0))
    for u in (0.3, 0.02):
        oracle = quad(lambda x: coef * x ** -1.5 * (1 - x), u, 1.0)
        assert co.h(u) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("a, b", [(1.5, 1.0), (1.3, 0.7), (1.7, 2.5), (1.2, 1.0 + 2e-6)])
def test_coalescent_h_matches_mpmath(a, b):
    """h(u) against coef * B(a - 2, b; u, 1), the incomplete Beta integral, in mpmath.

    At u = 1/n, n = 2 ... 10^6, the worst measured relative error was 3.7e-16
    (b != 1, the jump-tail series of the unit term (coef, b, a - 2) at
    y = -log(1 - u)); b = 1 is a closed form (1.8e-16).  Above u = 1/2, which
    no ``scaling(n)`` reads, the worst was 6.5e-16 (b = 2.5 at u = 0.999);
    there b = 1 takes expm1, 1.3e-16, where u^(a-2) - 1 was off by 1.8e-14
    at u = 0.999.  Each tolerance is twice its worst.
    """
    co = K.beta_coalescent_kernel(a, b)
    points = [(1.0 / n, 7.5e-16) for n in (2, 3, 5, 10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6)]
    points += [(u, 1.3e-15) for u in (0.6, 0.9, 0.999)]
    for u, rel in points:
        with mpmath.workdps(30):
            A, B = mpmath.mpf(a), mpmath.mpf(b)
            ref = mpmath.betainc(A - 2, B, mpmath.mpf(u), 1) / mpmath.beta(A, B)
        assert abs(co.h(u) - float(ref)) <= rel * float(ref), (u, co.h(u), ref)


def test_coalescent_psi_quadrature_oracle(beta_co):
    # substitute x = u^2 so the integrand stays bounded at the left endpoint:
    # (1 - (1-x)^lam) x^-2 dLambda = 3 (1 - (1-u^2)^lam) u^-2 du
    for lam in (0.5, 1.0, 2.0):
        oracle = quad(lambda u: 3.0 * (1 - (1 - u * u) ** lam) * u ** -2.0,
                      1e-300, 1.0) / math.gamma(1.5)
        assert beta_co.psi(lam) == pytest.approx(oracle, rel=1e-9)


def test_coalescent_rate_ratio_trend(beta_co):
    # the normalized total rate must drift toward 1 with shrinking error
    grid = [64, 128, 256, 512, 1024]
    errs = [abs(beta_co.total_rate(n) / (math.gamma(1.5) * beta_co.h(1 / n)) - 1)
            for n in grid]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_coalescent_preconditions():
    with pytest.raises(ValueError):
        K.coalescent_kernel(M.atom(1.0, 0.0))            # mass at 0
    # beta = 2 - min a < 1 is the finite dust integral: x^-1 against x^(a-1)
    for lam in (M.beta_density(0.8, 1.0), M.beta_density(1.5, 1.0) + M.beta_density(1.0, 2.0)):
        with pytest.raises(ValueError, match="diverge"):
            K.coalescent_kernel(lam)
    ck = K.coalescent_kernel(M.FiniteMeasure(beta_terms=(M.BetaTerm(3.0, 1.6, 1.0),)))
    assert ck.beta == pytest.approx(0.4)
    # h(u) = 3 * integral of x^-1.4 over [u, 1]
    assert ck.h(0.1) == pytest.approx(7.5 * (0.1 ** -0.4 - 1.0), rel=1e-9)


# ---------------------------------------------------------------------------
# composition kernel
# ---------------------------------------------------------------------------

def test_composition_atom_rows_exact():
    comp = K.composition_kernel(M.levy_atom(1.0, math.log(2.0)))
    assert np.allclose(comp.row(2), [1 / 3, 2 / 3, 0.0], rtol=1e-12)
    assert comp.scaling(2) == pytest.approx(0.75, rel=1e-12)
    assert np.allclose(comp.row(1), [1.0, 0.0])
    for n in (1, 2, 3, 10):
        assert comp.row(n)[n] == 0.0


def test_composition_barrier_tail_matches_heavy_walk_target():
    omega = M.barrier_levy_measure(0.5)
    comp = K.composition_kernel(omega)
    bk = K.barrier_kernel(K.power_tail(0.5))
    for lam in (0.5, 1.0, 2.0):
        assert comp.psi(lam) == pytest.approx(bk.psi(lam), rel=1e-12)
    # scaling: Z_n equals the exponent evaluated at integer arguments
    for n in (1, 2, 17):
        assert comp.scaling(n) == pytest.approx(bk.psi(float(n)), rel=1e-10)


@pytest.mark.parametrize("mu", [M.lebesgue(), M.beta_density(0.7, 1.9)],
                         ids=["lebesgue", "beta(0.7,1.9)"])
def test_composition_of_a_levy_triple_matches_mpmath(mu):
    # the jump measure of mu's density comes with its unit image, each term
    # c x^(a-1) (1-x)^(b-1) becoming BetaTerm(c, a, b - 1); rows against a
    # 40-digit C(n, k) B(k + a, n - k + b - 1) / Z_n, worst measured 3.3e-15
    # (row 64 of the Beta kernel)
    comp = K.composition_kernel(M.levy_triple(mu).levy)
    (t,) = mu.beta_terms
    assert comp.omega.unit_beta_terms == (M.BetaTerm(t.coef, t.a, t.b - 1.0),)
    for n in (5, 64):
        with mpmath.workdps(40):
            un = [mpmath.binomial(n, k) * mpmath.beta(k + t.a, n - k + t.b - 1)
                  for k in range(n)]
            z = mpmath.fsum(un)
            ref = np.array([float(u / z) for u in un] + [0.0])
        assert np.allclose(comp.row(n), ref, rtol=1e-14, atol=0.0), n


# ---------------------------------------------------------------------------
# generating function, diagnostic, collapse
# ---------------------------------------------------------------------------

def test_generating_function_values():
    bk = K.barrier_kernel(K.finite_step([0.0, 0.5, 0.5]))
    assert bk.generating(2, 1.0) == pytest.approx(0.25)
    assert bk.generating(0, 1.0) == 0.0
    ident = K.ExplicitKernel(
        lambda n: np.eye(n + 1)[n], scaling=lambda n: float(n), name="ident")
    assert ident.generating(5, 2.0) == pytest.approx(1.0)


def test_generating_function_bounded_and_monotone(pt):
    bk = K.barrier_kernel(pt)
    co = K.beta_coalescent_kernel(1.5, 1.0)
    lams = np.linspace(0.2, 6.0, 12)
    for kernel, n in ((bk, 37), (co, 12)):
        g = [kernel.generating(n, lam) for lam in lams]
        assert all(0.0 <= v <= 1.0 for v in g)
        assert all(b <= a + 1e-12 for a, b in zip(g, g[1:]))


def test_generating_function_tilt_identity(pt):
    # 1 - G_n(lam) equals the bracket integral against the rescaled row
    bk = K.barrier_kernel(pt)
    for n in (2, 5, 9):
        row = bk.row(n)
        lam = 1.7
        lhs = 1.0 - bk.generating(n, lam)
        x = np.arange(n + 1) / n
        rhs = float(np.sum(M.bracket(lam, x) * (1 - x) * row))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_diagnostic_identity_kernel_reports_failure():
    ident = K.ExplicitKernel(lambda n: np.eye(n + 1)[n],
                             scaling=lambda n: float(n), gamma=1.0,
                             mu=M.atom(1.0, 1.0), name="ident")
    diag = K.hypothesis_h_diagnostic(ident, [1.0], [4, 8, 16, 32], threshold=0.5)
    assert not diag.passed
    vals = [e.value for e in diag.entries]
    assert np.allclose(vals, 0.0)


def test_diagnostic_barrier_trend(pt):
    bk = K.barrier_kernel(pt)
    diag = K.hypothesis_h_diagnostic(bk, [1.0], [128, 256, 512, 1024],
                                     threshold=0.05)
    assert diag.passed
    csv = diag.to_csv()
    assert csv.splitlines()[0] == "n,lambda,value,target,rel_error"
    assert len(csv.splitlines()) == 5


def test_diagnostic_builds_each_composition_row_once(monkeypatch):
    # a_n of a composition is its row normalizer Z_n, which building row n keeps
    kernel = K.composition_kernel(M.barrier_levy_measure(0.5))
    unnormalized, calls = K.CompositionKernel._unnormalized, []

    def counting(self, n):
        calls.append(n)
        return unnormalized(self, n)
    monkeypatch.setattr(K.CompositionKernel, "_unnormalized", counting)
    K.hypothesis_h_diagnostic(kernel, [0.5, 1.0], [128, 256, 512])
    assert calls == [128, 256, 512]


def test_collapse_absorbing(beta_co):
    cc = K.collapse_absorbing(beta_co)
    assert np.allclose(cc.row(1), [1.0, 0.0])
    assert np.allclose(cc.row(5), beta_co.row(5))
    assert list(cc.absorbing_mask(np.arange(6))) == [True] + [False] * 5
    # collapsing an already-collapsed kernel changes nothing
    bk = K.barrier_kernel(K.finite_step([0.2, 0.8]))
    cb = K.collapse_absorbing(bk)
    for n in (0, 1, 2, 7):
        assert np.allclose(cb.row(n), bk.row(n))


def test_absorbing_state_detection(pt):
    bk = K.barrier_kernel(pt)
    assert list(bk.absorbing_mask(np.arange(5))) == [True] + [False] * 4
    lazy = K.barrier_kernel(K.finite_step([0.0, 0.0, 1.0]))
    assert list(lazy.absorbing_mask(np.arange(4))) == [True, True, False, False]


# ---------------------------------------------------------------------------
# Beta-term rows against mpmath, and the vectorized absorbing masks
# ---------------------------------------------------------------------------

BETA_TERM_KERNELS = {
    # (kernel, first destination, a, b) with entries C(n, i) B(i + alpha, n - i + beta)
    "beta_coalescent(1.5,1)": (lambda: K.beta_coalescent_kernel(1.5, 1.0), 1, 1.5, 1.0),
    "coalescent(beta_density(1.3,0.7))":
        (lambda: K.coalescent_kernel(M.beta_density(1.3, 0.7)), 1, 1.3, 0.7),
    "composition(barrier_levy_measure(0.5))":
        (lambda: K.composition_kernel(M.barrier_levy_measure(0.5)), 0, 1.0, -0.5),
}


def _mpmath_row(first, a, b, n):
    """Row n in 30-digit arithmetic, as {destination: probability}."""
    with mpmath.workdps(30):
        A, B = mpmath.mpf(a), mpmath.mpf(b)
        if first == 1:  # coalescent: k - 1 blocks stay, alpha = b, beta = a - 2
            ent = {k: mpmath.binomial(n, k - 1) * mpmath.beta(k - 1 + B, n - k - 1 + A)
                   for k in range(1, n)}
        else:  # composition: alpha = a, beta = b
            ent = {k: mpmath.binomial(n, k) * mpmath.beta(k + A, n - k + B) for k in range(n)}
        z = mpmath.fsum(ent.values())
        return {k: v / z for k, v in ent.items()}


@pytest.mark.parametrize("name", list(BETA_TERM_KERNELS))
def test_beta_term_rows_match_mpmath(name):
    """Every entry of rows 3, 50, 700 and 3000 against 30-digit mpmath.

    The worst relative errors measured are 1.1e-16, 4.0e-16, 3.3e-15,
    6.0e-15 for beta_coalescent(1.5,1), 1.6e-16, 7.7e-16, 1.2e-14,
    5.1e-14 for the (1.3, 0.7) coalescent and 2.8e-17, 5.5e-16, 3.2e-15,
    5.6e-15 for the composition; the tolerance is twice the worst of them.
    """
    make, first, a, b = BETA_TERM_KERNELS[name]
    kernel = make()
    for n in (3, 50, 700, 3000):
        row = kernel.validated_row(n)
        ref = _mpmath_row(first, a, b, n)
        assert set(np.flatnonzero(row).tolist()) == set(ref), n
        worst = max(float(abs(row[k] - p) / p) for k, p in ref.items())
        assert worst <= 1e-13, (n, worst)


@pytest.mark.parametrize("make", [
    lambda: K.beta_coalescent_kernel(1.5, 1.0),
    lambda: K.coalescent_kernel(M.beta_density(1.3, 0.7) + M.atom(0.2, 0.5)),
    lambda: K.composition_kernel(M.barrier_levy_measure(0.5)),
    lambda: K.composition_kernel(M.levy_atom(1.0, math.log(2.0))),
], ids=["beta-coalescent", "coalescent-with-atom", "composition", "atomic-composition"])
def test_absorbing_mask_overrides_match_recorded_flags(make):
    kernel = make()
    states = np.arange(201)
    mask = kernel.absorbing_mask(states).tolist()
    assert not kernel._absorbing_cache  # the override builds no row
    for n in states.tolist():
        kernel.validated_row(n)
    assert mask == [kernel._absorbing_cache[n] for n in states.tolist()]
    assert mask == [kernel.absorbing(n) for n in states.tolist()]


# ---------------------------------------------------------------------------
# pinned row bytes
# ---------------------------------------------------------------------------

# SHA-256 of validated_row(n).tobytes() for n = 50, 300, 2000 in turn.  A
# last-bit change in any entry moves the digest; the sampled-integer pins in
# test_chain_engine.py cannot see one.  The three Beta-term rows are products
# of two Gamma-ratio table slices; their worst relative errors against
# 30-digit mpmath at n = 50, 300, 2000 are 4.0e-16, 7.1e-16, 5.3e-15 for
# beta_coalescent(1.5,1), 7.7e-16, 1.4e-14, 9.8e-14 for the (1.3, 0.7)
# coalescent and 5.5e-16, 6.2e-16, 5.3e-15 for the composition.
PINNED_ROW_DIGESTS = {
    "beta_coalescent(1.5,1)": "2fe2981200230be4932b31c308776e98698413d223e6b2b52be22c72cc2c2eb6",
    "coalescent(beta_density(1.3,0.7))":
        "f6f99770721acf608201a7c59ebd890f0d430882d846e1aefaf912b84b022c24",
    "canonical(lebesgue,0.5)": "334eb8d16996f015ca654fe9d53c1d7b6449eafb8109c2d1cfe2e0b3404237b7",
    "canonical(beta_density(0.7,1.9),0.8)":
        "3401f83c23fa1adcab619c74d29f8613d1bbd5f8718131ecac6da0accf1e6d0b",
    "composition(barrier_levy_measure(0.5))":
        "f24c8d0f4c109cc84964e58ea779e6257ed1efc1f14bd9156b5b09f40f149572",
    "barrier(power_tail(0.5))": "9eb506730bcc0498ddf559feed4733e84b03bcdd4f9543572863e5d4693566c4",
    "truncated(power_tail(0.5))":
        "5085a2a61bc45dfd210673c3e9007737e939fa9752beab1174de1a9c5e299925",
    "ignored(power_tail(0.5))": "f73fe5750fe4c6ce46e020a00d24ef1123b9108b25f6f569b0999477f8d81d04",
    # past n = 2 no step of the three-point law overflows, so the three walks agree
    "barrier(finite([1/3]*3))": "81621ad4582980fdff0f7df993f48473ecbf7c6d616e97503e183e59448df84a",
    "truncated(finite([1/3]*3))":
        "81621ad4582980fdff0f7df993f48473ecbf7c6d616e97503e183e59448df84a",
    "ignored(finite([1/3]*3))": "81621ad4582980fdff0f7df993f48473ecbf7c6d616e97503e183e59448df84a",
}


def test_row_bytes_are_pinned():
    kernels = {
        "beta_coalescent(1.5,1)": K.beta_coalescent_kernel(1.5, 1.0),
        "coalescent(beta_density(1.3,0.7))": K.coalescent_kernel(M.beta_density(1.3, 0.7)),
        "canonical(lebesgue,0.5)": K.canonical_kernel(M.lebesgue(), 0.5),
        "canonical(beta_density(0.7,1.9),0.8)":
            K.canonical_kernel(M.beta_density(0.7, 1.9), 0.8),  # the betainc branch
        "composition(barrier_levy_measure(0.5))":
            K.composition_kernel(M.barrier_levy_measure(0.5)),  # Beta term with b = -0.5
    }
    for walk, make in (("barrier", K.barrier_kernel), ("truncated", K.truncated_kernel),
                       ("ignored", K.ignored_jump_kernel)):
        kernels[f"{walk}(power_tail(0.5))"] = make(K.power_tail(0.5))
        kernels[f"{walk}(finite([1/3]*3))"] = make(K.finite_step([1 / 3] * 3))
    got = {}
    for name, k in kernels.items():
        h = hashlib.sha256()
        for n in (50, 300, 2000):
            h.update(k.validated_row(n).tobytes())
        got[name] = h.hexdigest()
    assert got == PINNED_ROW_DIGESTS


def test_pushforwards_read_their_rows_through_toeplitz():
    # a pmf stepper takes q and the boundary triple from toeplitz, where they are checked
    tree = ast.parse(Path(K.__file__).read_text(encoding="utf-8"))
    calls = {(cls.name, getattr(node.func, "attr", None))
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             for fn in cls.body if getattr(fn, "name", None) == "pushforward"
             for node in ast.walk(fn) if isinstance(node, ast.Call)}
    assert not {attr for _, attr in calls} & {"_boundary", "_boundary_table", "pmf_upto"}
    assert {cls for cls, attr in calls if attr == "toeplitz"} == {"_BarrierFamily",
                                                                  "BarrierKernel"}
