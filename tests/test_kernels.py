"""The transition-law zoo: rows, scalings, targets, diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sciint
from scipy.special import zeta

from sschain import kernels as K
from sschain import measures as M


def quad(fn, lo, hi):
    val, err = sciint.quad(fn, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=400)
    assert err < 1e-7
    return val


@pytest.fixture(scope="module")
def pt():
    return K.power_tail(0.5)


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


def test_barrier_rows_finite_q():
    bk = K.barrier_kernel(K.finite_step([0.0, 0.5, 0.5]))
    assert np.allclose(bk.row(1), [1.0, 0.0])
    assert np.allclose(bk.row(2), [0.5, 0.5, 0.0])
    assert np.allclose(bk.row(0), [1.0])
    assert bk.absorbing(0) and not bk.absorbing(2)


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
    comp = K.composition_kernel(M.barrier_levy_measure(0.5))
    bk = K.barrier_kernel(K.power_tail(0.5))
    for lam in (0.5, 1.0, 2.0):
        assert comp.psi(lam) == pytest.approx(bk.psi(lam), rel=1e-12)
    # scaling: Z_n equals the exponent evaluated at integer arguments
    for n in (1, 2, 17):
        assert comp.scaling(n) == pytest.approx(bk.psi(float(n)), rel=1e-10)


# ---------------------------------------------------------------------------
# generating function, diagnostic, collapse
# ---------------------------------------------------------------------------

def test_generating_function_values():
    bk = K.barrier_kernel(K.finite_step([0.0, 0.5, 0.5]))
    assert K.generating_function(bk, 2, 1.0) == pytest.approx(0.25)
    assert K.generating_function(bk, 0, 1.0) == 0.0
    ident = K.ExplicitKernel(
        lambda n: np.eye(n + 1)[n], scaling=lambda n: float(n), name="ident")
    assert K.generating_function(ident, 5, 2.0) == pytest.approx(1.0)


def test_generating_function_bounded_and_monotone(pt):
    bk = K.barrier_kernel(pt)
    co = K.beta_coalescent_kernel(1.5, 1.0)
    lams = np.linspace(0.2, 6.0, 12)
    for kernel, n in ((bk, 37), (co, 12)):
        g = [K.generating_function(kernel, n, lam) for lam in lams]
        assert all(0.0 <= v <= 1.0 for v in g)
        assert all(b <= a + 1e-12 for a, b in zip(g, g[1:]))


def test_generating_function_tilt_identity(pt):
    # 1 - G_n(lam) equals the bracket integral against the rescaled row
    bk = K.barrier_kernel(pt)
    for n in (2, 5, 9):
        row = bk.row(n)
        lam = 1.7
        lhs = 1.0 - K.generating_function(bk, n, lam)
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
    assert cc.absorbing_states(5) == [0]
    # collapsing an already-collapsed kernel changes nothing
    bk = K.barrier_kernel(K.finite_step([0.2, 0.8]))
    cb = K.collapse_absorbing(bk)
    for n in (0, 1, 2, 7):
        assert np.allclose(cb.row(n), bk.row(n))


def test_absorbing_state_detection(pt):
    bk = K.barrier_kernel(pt)
    assert bk.absorbing_states(4) == [0]
    lazy = K.barrier_kernel(K.finite_step([0.0, 0.0, 1.0]))
    assert lazy.absorbing_states(3) == [0, 1]
