"""The transition-law zoo: rows, scalings, targets, diagnostics."""

import hashlib
import math

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


def _density_twin(mu, sing0=0.0):
    """mu given by its density callable only, so rows take the quadrature route."""
    return M.FiniteMeasure(density=mu.density, sing0=sing0, sing1=mu.sing1)


def test_canonical_generic_density_matches_closed_form():
    ck = K.canonical_kernel(M.lebesgue(), gamma=0.5)
    twin = K.canonical_kernel(_density_twin(M.lebesgue()), gamma=0.5)
    for n in (5, 20, 64):
        np.testing.assert_allclose(twin.row(n), ck.row(n), rtol=1e-9, atol=0.0)


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

    The log-space floor is |log Gamma| times machine epsilon: log C and log B
    reach about 8e4 at n = 10^4 and cancel down to the log of the rate, so
    the measured worst relative errors at these indices are 1.5e-12 and
    2.7e-12 at n = 1000 and 3.4e-11 and 4.1e-11 at n = 10^4, for (1.5, 1)
    and (1.3, 0.7).
    """
    co = K.coalescent_kernel(M.beta_density(a, b))
    for n, tol in ((1000, 1e-11), (10_000, 1e-10)):
        g = co.collision_rates(n)
        ends = np.geomspace(1, n - 1, 30).round().astype(int)
        ks = np.unique(np.concatenate([ends, n - ends])).tolist()
        with mpmath.workdps(40):
            A, B = mpmath.mpf(a), mpmath.mpf(b)
            ref = [mpmath.binomial(n, k - 1) * mpmath.beta(n - k - 1 + A, k - 1 + B)
                   / mpmath.beta(A, B) for k in ks]
            worst = max(float(abs(g[k] - r) / r) for k, r in zip(ks, ref))
        assert worst <= tol, (n, worst)


def test_coalescent_generic_density_matches_closed_form(beta_co):
    # Beta(3/2, 1) density ~ x^(1/2) at 0: declared so the dust integral is finite
    twin = K.CoalescentKernel(_density_twin(M.beta_density(1.5, 1.0), sing0=-0.5), beta=0.5)
    for n in (40, 400):
        np.testing.assert_allclose(twin.row(n), beta_co.row(n), rtol=1e-9, atol=0.0)


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
    with pytest.raises(ValueError):
        K.coalescent_kernel(M.beta_density(0.8, 1.0))    # dust integral diverges
    # generic density ~ x^-sing0 at 0: x^-1 against it is finite iff sing0 < 0
    dens = lambda x: 3 * np.asarray(x, dtype=float) ** 0.6
    with pytest.raises(ValueError, match="diverges"):
        K.CoalescentKernel(M.FiniteMeasure(density=dens), beta=0.4)
    ck = K.CoalescentKernel(M.FiniteMeasure(density=dens, sing0=-0.6), beta=0.4)
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
    # the same jump measure by its density alone: rows by quadrature
    twin = K.composition_kernel(M.LevyMeasure(density=omega.density,
                                              small_order=omega.small_order,
                                              tail_index=omega.tail_index))
    bk = K.barrier_kernel(K.power_tail(0.5))
    for lam in (0.5, 1.0, 2.0):
        assert comp.psi(lam) == pytest.approx(bk.psi(lam), rel=1e-12)
    # scaling: Z_n equals the exponent evaluated at integer arguments
    for kernel in (comp, twin):
        for n in (1, 2, 17):
            assert kernel.scaling(n) == pytest.approx(bk.psi(float(n)), rel=1e-10)
    for n in (2, 3, 6, 17):
        np.testing.assert_allclose(twin.row(n), comp.row(n), rtol=1e-9, atol=0.0)


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
# pinned row bytes
# ---------------------------------------------------------------------------

# SHA-256 of validated_row(n).tobytes() for n = 50, 300, 2000 in turn.  A
# last-bit change in any entry moves the digest; the sampled-integer pins in
# test_chain_engine.py cannot see one.
PINNED_ROW_DIGESTS = {
    "beta_coalescent(1.5,1)": "920908953ae00462a643c4ecd61452078b703c89e6d49a60f79b2e3dbc6ef1bf",
    "coalescent(beta_density(1.3,0.7))":
        "73d1cb5f55a65f16e3b25440e7e97f9bbfae9b9edfe278463c5501b030b63aea",
    "canonical(lebesgue,0.5)": "334eb8d16996f015ca654fe9d53c1d7b6449eafb8109c2d1cfe2e0b3404237b7",
    "canonical(beta_density(0.7,1.9),0.8)":
        "3401f83c23fa1adcab619c74d29f8613d1bbd5f8718131ecac6da0accf1e6d0b",
    "composition(barrier_levy_measure(0.5))":
        "29061a4e7c066496ef8881d6c67e6624d9eb1b38926307a71fff07104a624ca4",
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
