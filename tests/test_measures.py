"""Measures on [0,1], the bracket transform, Laplace exponents, Levy triples."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sciint
from scipy.special import digamma

from sschain import measures as M

GAMMA = 0.5


def barrier_psi_closed(lam, gamma=GAMMA):
    # log-gamma closed form of the heavy-tail exponent
    return math.exp(math.lgamma(1 - gamma) + math.lgamma(lam + 1)
                    - math.lgamma(lam + 1 - gamma)) - 1.0


def quad_oracle(fn, lo=0.0, hi=1.0):
    val, err = sciint.quad(fn, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=400)
    assert err < 1e-8
    return val


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def test_bracket_values():
    assert M.bracket(1.0, 0.37) == pytest.approx(1.0, abs=0)
    assert M.bracket(2.0, 0.5) == pytest.approx(1.5, abs=0)
    assert M.bracket(3.7, 1.0) == 3.7


def test_bracket_continuous_at_one():
    for lam in (0.3, 1.0, 2.5, 7.0):
        assert M.bracket(lam, 1.0 - 1e-12) == pytest.approx(lam, rel=1e-9)


def test_bracket_domain_errors():
    with pytest.raises(ValueError):
        M.bracket(0.0, 0.5)
    with pytest.raises(ValueError):
        M.bracket(-1.0, 0.5)
    with pytest.raises(ValueError):
        M.bracket(1.0, 1.5)
    with pytest.raises(ValueError):
        M.bracket(1.0, -0.1)


@settings(max_examples=200, deadline=None)
@given(lam1=st.floats(0.05, 20.0), lam2=st.floats(0.05, 20.0),
       x=st.floats(0.0, 1.0))
def test_bracket_monotone_and_bounded(lam1, lam2, x):
    lo, hi = sorted([lam1, lam2])
    b_lo, b_hi = M.bracket(lo, x), M.bracket(hi, x)
    assert b_lo <= b_hi + 1e-12
    for lam, b in ((lo, b_lo), (hi, b_hi)):
        assert min(1.0, lam) - 1e-12 <= b <= max(1.0, lam) + 1e-12


# ---------------------------------------------------------------------------
# laplace_exponent
# ---------------------------------------------------------------------------

def test_exponent_pure_atoms():
    assert M.laplace_exponent(M.atom(1.0, 0.0), 5.0) == 1.0
    assert M.laplace_exponent(M.atom(1.0, 1.0), 5.0) == 5.0


def test_exponent_barrier_density_vs_quadrature_oracle():
    # oracle: adaptive quadrature of gamma * (1-x)^-gamma, which integrates
    # to gamma/(1-gamma) = 1 at lam = 1 for gamma = 1/2
    mu = M.barrier_measure(GAMMA)
    oracle = quad_oracle(lambda x: GAMMA * (1 - x) ** -GAMMA * M.bracket(1.0, x))
    assert oracle == pytest.approx(1.0, abs=1e-9)
    assert M.laplace_exponent(mu, 1.0) == pytest.approx(1.0, abs=1e-10)
    for lam in (0.3, 0.5, 1.0, 2.0, 5.5):
        assert M.laplace_exponent(mu, lam) == pytest.approx(
            barrier_psi_closed(lam), rel=1e-10)


def test_exponent_generic_callable_density_matches_structured():
    dens = lambda x: GAMMA * (1.0 - np.asarray(x, dtype=float)) ** -GAMMA
    mu = M.FiniteMeasure(density=dens, sing1=GAMMA)
    for lam in (0.5, 1.0, 2.0):
        assert M.laplace_exponent(mu, lam) == pytest.approx(
            barrier_psi_closed(lam), rel=1e-8)


def test_exponent_lebesgue_digamma():
    mu = M.lebesgue()
    for lam in (0.5, 1.0, 2.0, 3.7):
        assert M.laplace_exponent(mu, lam) == pytest.approx(
            digamma(lam + 1) - digamma(1.0), rel=1e-12)


def test_exponent_at_zero_is_mass_at_zero():
    mu = M.atom(0.7, 0.0) + M.lebesgue()
    assert M.laplace_exponent(mu, 0.0) == 0.7


def test_exponent_monotone_concave_nonnegative():
    mu = M.atom(0.25, 0.0) + M.barrier_measure(GAMMA) + M.atom(0.5, 1.0)
    grid = np.linspace(0.25, 8.0, 32)
    vals = np.array([M.laplace_exponent(mu, lam) for lam in grid])
    assert np.all(vals >= 0)
    d1 = np.diff(vals)
    assert np.all(d1 > -1e-12)
    assert np.all(np.diff(d1) < 1e-9)


def test_exponent_scaling_linearity():
    mu = M.atom(0.5, 0.0) + M.atom(1.5, 1.0)
    for c in (0.5, 3.0):
        assert M.laplace_exponent(mu.scaled(c), 2.0) == pytest.approx(
            c * M.laplace_exponent(mu, 2.0), rel=0, abs=1e-15)
    mub = M.barrier_measure(GAMMA)
    assert M.laplace_exponent(mub.scaled(2.0), 1.5) == pytest.approx(
        2 * M.laplace_exponent(mub, 1.5), rel=1e-10)


# ---------------------------------------------------------------------------
# quad
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(order=st.floats(-0.9, 0.9), hi=st.floats(1e-6, 1.0), at_zero=st.booleans())
def test_quad_power_closed_form(order, hi, at_zero):
    lo = 0.0 if at_zero else hi / 10
    val, _ = M.quad(lambda y: y ** -order, lo, hi, order)
    exact = (hi ** (1 - order) - lo ** (1 - order)) / (1 - order)
    # y^-order with order <= 0 is not smooth at 0 and meets the absolute target
    assert val == pytest.approx(exact, rel=1e-9, abs=M.QUAD_ABS_TOL)


def test_quad_rejects_non_integrable_order():
    for order in (1.0, 1.5):
        with pytest.raises(M.MeasureError):
            M.quad(lambda y: y ** -order, 0.0, 1.0, order)


def test_quad_unit_raises_on_poor_error_estimate():
    with pytest.raises(M.QuadratureError):
        with pytest.warns(sciint.IntegrationWarning):
            M.quad_unit(lambda x: math.sin(1e4 * x))


def test_only_measures_calls_scipy_integrate():
    src = Path(M.__file__).parent
    pattern = re.compile(r"_sciint|scipy\.integrate|scipy import integrate")
    callers = sorted(f.name for f in src.glob("*.py") if pattern.search(f.read_text()))
    assert callers == ["measures.py"]
    assert (src / "measures.py").read_text().count("_sciint.quad(") == 1


def test_measure_validation():
    with pytest.raises(M.MeasureError):
        M.FiniteMeasure()  # zero measure
    with pytest.raises(M.MeasureError):
        M.atom(-1.0, 0.0)
    with pytest.raises(M.MeasureError):
        M.FiniteMeasure(density=lambda x: -np.ones_like(np.asarray(x)), sing1=0.0)
    with pytest.raises(M.MeasureError):
        M.FiniteMeasure(density=lambda x: np.ones_like(np.asarray(x)), sing1=1.5)


# ---------------------------------------------------------------------------
# levy_triple
# ---------------------------------------------------------------------------

def test_triple_pure_atoms():
    t0 = M.levy_triple(M.atom(1.0, 0.0))
    assert (t0.killing, t0.drift, t0.levy.is_zero) == (1.0, 0.0, True)
    t1 = M.levy_triple(M.atom(1.0, 1.0))
    assert (t1.killing, t1.drift, t1.levy.is_zero) == (0.0, 1.0, True)


def test_triple_barrier_jump_density_closed_form():
    # pushing (1-x)^-1 mu(dx) through y = -log x gives
    # gamma e^-y (1 - e^-y)^-(gamma+1) for the heavy-tail measure
    tr = M.levy_triple(M.barrier_measure(GAMMA))
    y = np.array([0.05, 0.3, 1.0, 2.7, 6.0])
    expect = GAMMA * np.exp(-y) * (1 - np.exp(-y)) ** -(GAMMA + 1)
    assert np.allclose(tr.levy.density(y), expect, rtol=1e-12)
    assert tr.levy.tail(1.0) == pytest.approx((1 - math.exp(-1)) ** -GAMMA - 1,
                                              rel=1e-12)


def test_triple_interior_atom_maps_to_log_coordinates():
    mu = M.atom(0.3, 0.25)
    tr = M.levy_triple(mu)
    (y, mass), = tr.levy.atoms
    assert y == pytest.approx(-math.log(0.25))
    assert mass == pytest.approx(0.3 / 0.75)


def test_triple_roundtrip_laplace_exponent():
    # the y-side exponent must reproduce the x-side one for mixed measures
    cases = [
        M.barrier_measure(GAMMA),
        M.atom(0.4, 0.0) + M.lebesgue(0.7) + M.atom(0.2, 1.0),
        M.beta_density(2.0, 0.6, 1.3) + M.atom(0.1, 0.5),
    ]
    for mu in cases:
        tr = M.levy_triple(mu)
        assert tr.killing == mu.atom0
        assert tr.drift == mu.atom1
        for lam in (0.5, 1.0, 2.0, 4.0):
            assert tr.laplace_exponent(lam) == pytest.approx(
                M.laplace_exponent(mu, lam), rel=1e-7)


def test_triple_roundtrip_density_singular_at_zero():
    # e^-y underflows to 0 at large y, where x^-0.3 is inf: the jump
    # density must take its limit 0 there, not inf * 0 = NaN
    mu = M.FiniteMeasure(density=lambda x: np.asarray(x) ** -0.3 * (1.0 - np.asarray(x)) ** -0.2,
                         sing0=0.3, sing1=0.2)
    tr = M.levy_triple(mu)
    assert float(tr.levy.density(800.0)) == 0.0
    for lam in (0.5, 2.0):
        assert tr.laplace_exponent(lam) == pytest.approx(M.laplace_exponent(mu, lam), rel=1e-8)


def test_levy_measure_moments_below_cutoff():
    lm = M.barrier_levy_measure(GAMMA)
    eps = 1e-3
    # near 0 the density is ~ gamma y^-(1+gamma); integrate the exact density
    mean_oracle = quad_oracle(
        lambda u: (u ** 2) * float(lm.density(u * u)) * 2 * u, 0.0, math.sqrt(eps))
    var_oracle = quad_oracle(
        lambda u: (u ** 2) ** 2 * float(lm.density(u * u)) * 2 * u, 0.0, math.sqrt(eps))
    assert lm.mean_below(eps) == pytest.approx(mean_oracle, rel=1e-8)
    assert lm.variance_below(eps) == pytest.approx(var_oracle, rel=1e-8)


def test_tail_inverse_consistency():
    lm = M.barrier_levy_measure(GAMMA)
    for y in (0.01, 0.3, 2.0):
        assert lm.tail_inverse(lm.tail(y)) == pytest.approx(y, rel=1e-12)


def test_bracket_beta_integral_against_quadrature():
    # oracle: write the integrand as bracket(lam, x) * x^(a-1) (1-x)^(b-1)
    # and hand the algebraic weight to the dedicated QAWS rule
    for a, b, lam in [(1.0, 0.5, 1.0), (1.5, 1.0, 0.5), (0.7, 1.8, 2.0),
                      (2.0, 1.0, 3.0), (1.0, 0.25, 0.75)]:
        val, err = sciint.quad(
            lambda x: M.bracket(lam, x), 0.0, 1.0,
            weight="alg", wvar=(a - 1.0, b - 1.0),
            epsabs=1e-12, epsrel=1e-12, limit=400)
        assert err < 1e-8
        assert M.bracket_beta_integral(lam, a, b) == pytest.approx(val, rel=1e-8)
