"""Measures on [0,1], the bracket transform, Laplace exponents, Levy triples."""

import functools
import hashlib
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sciint
from scipy.special import digamma

from sschain import kernels as K
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


def _bracket_integral_mpmath(lam, a, b):
    """The bracket against x^(a-1) (1-x)^(b-1) on (0, 1), by mpmath.quad.

    x = u^(1/a) on (0, 1/2) and 1 - x = u^(1/b) on (1/2, 1) make both
    integrands bounded, and the right half keeps its nodes near 1 - x = 0
    at full relative precision.
    """
    L, A, B = mpmath.mpf(lam), mpmath.mpf(a), mpmath.mpf(b)
    left = mpmath.quad(lambda u: -mpmath.expm1(L * mpmath.log(u) / A)
                       * (1 - u ** (1 / A)) ** (B - 2) / A, [0, mpmath.mpf(0.5) ** A])
    right = mpmath.quad(lambda u: -mpmath.expm1(L * mpmath.log1p(-u ** (1 / B)))
                        * (1 - u ** (1 / B)) ** (A - 1) * u ** (-1 / B) / B,
                        [0, mpmath.mpf(0.5) ** B])
    return left + right


@pytest.mark.parametrize("mu, tol", [
    (M.barrier_measure(0.5), 5e-14),
    (M.barrier_measure(0.2), 5e-14),
    (M.beta_density(0.7, 1.9), 5e-14),
    (M.beta_density(0.7, 0.3) + M.beta_density(3.0, 0.1, 0.5), 5e-14),
    (M.beta_density(2.0, 1.0 + 3e-6), 1e-10),
], ids=["barrier(0.5)", "barrier(0.2)", "beta(0.7,1.9)", "two-terms-b<1", "b=1+3e-6"])
def test_exponent_beta_terms_match_mpmath_at_large_lambda(mu, tol):
    """psi(lam) from the closed forms against 40-digit quadrature, lam = 0.25 ... 40.

    Away from b = 1 the worst measured relative error over these cases is
    9.0e-15 (barrier(0.5) at lam = 40), and 2.6e-14 for Beta(3, 0.1)
    alone; for b = 1 + 3e-6, inside the switch to the digamma series, it
    is 4.4e-11.  Each tolerance is about twice the worst of its kind.
    """
    for lam in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0):
        with mpmath.workdps(40):
            ref = mpmath.fsum(mpmath.mpf(t.coef) * _bracket_integral_mpmath(lam, t.a, t.b)
                              for t in mu.beta_terms)
            err = float(abs(M.laplace_exponent(mu, lam) - ref) / ref)
        assert err <= tol, (lam, err)


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
# no quadrature in the package
# ---------------------------------------------------------------------------

def test_no_src_module_imports_scipy_integrate_or_interpolate():
    # every tail, moment and exponent is a closed form; only the tests integrate
    src = Path(M.__file__).parent
    pattern = re.compile(r"scipy\.(integrate|interpolate)|scipy import (integrate|interpolate)")
    assert sorted(f.name for f in src.glob("*.py") if pattern.search(f.read_text())) == []


NO_QUADRATURE_SCRIPT = """
import sys
from sschain import chain_engine as CE, exact_dp as DP, kernels as K, limit_process as LP
from sschain import measures as M

barrier = K.barrier_kernel(K.power_tail(0.5))
DP.absorption_moments(barrier, 500, 2)
DP.marginal_moment(barrier, 500, 0.5, 1.0)
CE.sample_absorption_times(K.beta_coalescent_kernel(1.5, 1.0), 200, 50, 7)
CE.sample_path(barrier, 500, 7)
K.beta_coalescent_kernel(1.3, 0.7).scaling(1000)
LP.sample_exponential_functional(M.levy_triple(M.beta_density(1.5, 0.5)), 0.5, 5, 7)
LP.sample_z_marginals(M.levy_triple(M.lebesgue() + M.atom(0.2, 0.5)), [0.5, 1.0], 5, 7)
loaded = [m for m in ("scipy.integrate", "scipy.interpolate") if m in sys.modules]
assert not loaded, loaded
print("ok")
"""


def test_non_barrier_sampling_loads_no_quadrature_or_interpolation():
    # the chain samplers, the DP oracles, a coalescent h with b != 1 and the
    # limit samplers on non-barrier Beta terms (b = -0.5, and b = 0 beside
    # an atom) run on closed forms: scipy.integrate (about 25 MB) and
    # scipy.interpolate stay out of the process
    src = str(Path(M.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", NO_QUADRATURE_SCRIPT], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_measure_validation():
    with pytest.raises(M.MeasureError):
        M.FiniteMeasure()  # zero measure
    with pytest.raises(M.MeasureError):
        M.atom(-1.0, 0.0)
    with pytest.raises(M.MeasureError, match="negative"):
        M.FiniteMeasure(beta_terms=(M.BetaTerm(-1.0, 1.0, 1.0),))
    with pytest.raises(M.MeasureError, match="orders"):
        M.FiniteMeasure(beta_terms=(M.BetaTerm(1.0, 1.0, -0.5),))  # sing1 = 1.5


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


def quad_triple_exponent(tr, lam):
    # the triple's exponent from its jump density by quadrature, independent
    # of the Beta-term closed forms; y = u^2 on (0, 1) tames the y^(b-1) blow-up
    lm = tr.levy
    val = tr.killing + tr.drift * lam + sum(m * -math.expm1(-lam * y) for y, m in lm.atoms)
    if lm.density is None:
        return val

    def f(y):
        return -math.expm1(-lam * y) * float(lm.density(y))

    return val + quad_oracle(lambda u: f(u * u) * 2 * u, 0.0, 1.0) + \
        quad_oracle(f, 1.0, math.inf)


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
            oracle = quad_triple_exponent(tr, lam)
            assert tr.laplace_exponent(lam) == pytest.approx(oracle, rel=1e-7)
            assert M.laplace_exponent(mu, lam) == pytest.approx(oracle, rel=1e-7)


def test_triple_roundtrip_density_singular_at_zero():
    # e^-y underflows to 0 at large y, where x^-0.3 is inf: the jump
    # density c e^(-a y) (1 - e^-y)^(b-1) must take its limit 0 there,
    # not inf * 0 = NaN, and keep full precision where it is representable
    mu = M.FiniteMeasure(beta_terms=(M.BetaTerm(1.0, 0.7, 0.8),))
    assert (mu.sing0, mu.sing1) == pytest.approx((0.3, 0.2))
    tr = M.levy_triple(mu)
    assert float(tr.levy.density(800.0)) == pytest.approx(math.exp(-0.7 * 800.0), rel=1e-14,
                                                          abs=0.0)
    assert float(tr.levy.density(2000.0)) == 0.0
    for lam in (0.5, 2.0):
        oracle = quad_triple_exponent(tr, lam)
        assert tr.laplace_exponent(lam) == pytest.approx(oracle, rel=1e-8)
        assert M.laplace_exponent(mu, lam) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("mu", [M.beta_density(1.5, 0.5), M.beta_density(0.7, 0.8),
                                M.barrier_measure(GAMMA).scaled(3.0)],
                         ids=["beta(1.5,0.5)", "beta(0.7,0.8)", "scaled-barrier"])
def test_levy_density_near_zero_matches_mpmath(mu):
    # rho(e^-y) e^-y / (1 - e^-y) lost 1e-5 relative at y = 1e-12 and read
    # inf below y ~ 1.1e-16, where e^-y rounds to 1; the unit terms do not
    (t,) = mu.beta_terms
    lm = M.levy_triple(mu).levy
    with mpmath.workdps(30):
        for y in (1e-20, 1e-12, 1e-3, 1.0, 30.0):
            y_mp = mpmath.mpf(y)
            ref = t.coef * mpmath.exp(-t.a * y_mp) * (-mpmath.expm1(-y_mp)) ** (t.b - 2)
            assert float(lm.density(y)) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


def test_levy_measure_sum_keeps_the_density_part_closed_forms():
    bar = M.barrier_levy_measure(GAMMA)
    total = M.levy_atom(0.3, 2.0) + bar + M.levy_atom(0.1, 0.5)
    assert total.atoms == ((2.0, 0.3), (0.5, 0.1))
    assert (total.unit_beta_terms, total.tail_index) == (bar.unit_beta_terms, bar.tail_index)
    # the sum derives the same closed forms from the same terms, byte for byte
    y, v = np.geomspace(1e-9, 40.0, 101), np.geomspace(1e-9, 1e9, 101)
    assert np.array_equal(total.density(y), bar.density(y))
    assert np.array_equal(total._density_tail(y), bar._density_tail(y))
    assert np.array_equal(total.tail_inverse(v), bar.tail_inverse(v))
    # the closed-form tail covers the density part; atoms above the level add to it
    assert total.tail(1.0) == bar.tail(1.0) + 0.3
    assert (M.levy_atom(1.0, 1.0) + M.levy_atom(2.0, 3.0)).atoms == ((1.0, 1.0), (3.0, 2.0))


@pytest.mark.parametrize("mu", [
    M.atom(0.3, 0.5) + M.barrier_measure(GAMMA),
    M.barrier_measure(GAMMA).scaled(2.0) + M.atom(0.1, 0.25) + M.atom(0.2, 0.0),
    K.coalescent_kernel(M.beta_density(1.5, 1.0) + M.atom(0.1, 0.5)).mu,
], ids=["atom+barrier", "scaled-barrier+atoms", "coalescent-beta+atom"])
def test_triple_keeps_barrier_closed_forms_beside_interior_atoms(mu):
    tr = M.levy_triple(mu)
    assert tr.levy.tail_inverse is not None and tr.levy.tail_index == GAMMA
    assert len(tr.levy.atoms) == len(mu.interior_atoms)
    for v in (0.05, 1.0, 7.0):
        y = float(tr.levy.tail_inverse(v))
        above = sum(m for loc, m in tr.levy.atoms if loc > y)
        assert tr.levy.tail(y) - above == pytest.approx(v, rel=1e-12)
    for lam in (0.5, 1.0, 2.0):
        assert tr.laplace_exponent(lam) == pytest.approx(M.laplace_exponent(mu, lam), rel=1e-12)


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


GATE_MEASURES = {
    "barrier": M.barrier_measure(GAMMA),
    "scaled-barrier": M.barrier_measure(GAMMA).scaled(2.0),
    "beta(1.5,0.5)": M.beta_density(1.5, 0.5),
    "beta(0.7,0.8)": M.beta_density(0.7, 0.8),
    "two-terms+atom": M.beta_density(2.0, 1.6) + M.beta_density(0.7, 0.8, 0.3) + M.atom(0.2, 0.4),
}
GATE_CUTOFFS = (1e-14, 1e-5, 0.1, 1.9, 2.0, 2.1, 10.0, math.inf)


@functools.cache
def _unit_term_moment(a, b, eps, p):
    # integral of (-log(1-v))^p (1-v)^(a-1) v^(b-1) over (0, 1 - e^-eps) at
    # 40 digits; 30-digit tanh-sinh misses by 1.9e-14 at a v^-0.6 endpoint
    with mpmath.workdps(40):
        a_mp, b_mp = mpmath.mpf(a), mpmath.mpf(b)
        top = mpmath.mpf(1) if math.isinf(eps) else -mpmath.expm1(-mpmath.mpf(eps))
        pts = [0, top] if top < 0.5 else [0, 0.5, 0.9, 0.99, top] if top > 0.99 else [0, 0.5, top]
        return mpmath.quad(
            lambda v: (-mpmath.log1p(-v)) ** p * (1 - v) ** (a_mp - 1) * v ** (b_mp - 1), pts)


@pytest.mark.parametrize("name", list(GATE_MEASURES))
def test_small_jump_moments_and_exponent_match_mpmath(name):
    # closed forms on both sides of the y = 2 split of the moment series;
    # worst measured relative error 4.5e-16 for the moments (beta(0.7,0.8),
    # eps = 2.1, p = 2) and 3.6e-15 for the exponent (beta(0.7,0.8), lam = 7.5)
    tr = M.levy_triple(GATE_MEASURES[name])
    lm = tr.levy
    for eps in GATE_CUTOFFS:
        for p, got in ((1, lm.mean_below(eps)), (2, lm.variance_below(eps))):
            with mpmath.workdps(40):
                ref = sum(t.coef * _unit_term_moment(t.a, t.b, eps, p) for t in lm.unit_beta_terms)
                ref += sum(mpmath.mpf(y) ** p * m for y, m in lm.atoms if y <= eps)
                assert abs(got - ref) <= 1e-15 * ref, (eps, p, got, ref)
    for lam in (0.25, 0.5, 1.0, 2.0, 7.5):
        with mpmath.workdps(40):
            # c (B(a, b) - B(a + lam, b)), continued to b in (-1, 0)
            ref = sum(t.coef * (mpmath.beta(t.a, t.b) - mpmath.beta(t.a + lam, t.b))
                      for t in lm.unit_beta_terms)
            ref += sum(m * -mpmath.expm1(-lam * mpmath.mpf(y)) for y, m in lm.atoms)
            assert abs(lm.exponent_integral(lam) - ref) <= 1e-14 * ref, (lam, ref)


TAIL_B = (-0.9, -0.5, -0.2, -1e-7, 0.0, 3e-6, 0.6, 0.8)
TAIL_Y = np.concatenate([np.geomspace(1e-14, 50.0, 40), [0.69, math.log(2.0), 0.7, 2.0]])


@pytest.mark.parametrize("a", [0.3, 1.0, 1.5, 3.0])
def test_jump_tail_matches_mpmath(a):
    """The jump tail of the unit term (1, a, b), B_{e^-y}(a, b), against 40-digit mpmath.

    Over b in TAIL_B (b <= 0 is an infinite measure), y from 1e-14 to 50 and
    both sides of the series split at e^-y = 1/2, the worst measured
    relative error was 7.1e-16 (a = 3, b = -0.2, y = 0.49); the tolerance
    is twice that.  mpmath's betainc is the reference: x^a hyp2f1(a, 1-b;
    a+1; x) / a missed by a fixed 2.4e-15 near x = 1 whatever the precision.
    """
    for b in TAIL_B:
        got = M._beta_image_tail(M.BetaTerm(1.0, a, b), TAIL_Y)
        with mpmath.workdps(40):
            for y, g in zip(TAIL_Y, got):
                ref = mpmath.betainc(a, b, 0, mpmath.exp(-mpmath.mpf(float(y))))
                assert abs(g - ref) <= 1.5e-15 * ref, (b, y, g, ref)


def test_levy_tail_of_a_beta_density_is_the_unit_term_tail():
    # beta(1.5, 0.5) maps to the unit term (c, 1.5, -0.5), whose tail is
    # c (2 sqrt(x / (1-x)) - 2 asin(sqrt(x))) at x = e^-y; the atom maps to
    # mass 0.4 at y = log 2.  Worst measured relative error 2.4e-16 (y = 5)
    mu = M.beta_density(1.5, 0.5) + M.atom(0.2, 0.5)
    lm = M.levy_triple(mu).levy
    (t,) = lm.unit_beta_terms
    with mpmath.workdps(40):
        for y in (1e-9, 0.3, 0.7, 5.0):
            x = mpmath.exp(-mpmath.mpf(y))
            ref = t.coef * (2 * mpmath.sqrt(x / (1 - x)) - 2 * mpmath.asin(mpmath.sqrt(x)))
            ref += 0.4 if y < math.log(2.0) else 0
            assert abs(lm.tail(y) - ref) <= 5e-16 * ref, (y, lm.tail(y), ref)


def test_small_jump_closed_forms_of_atoms_alone_and_the_b_bound():
    # atoms alone need no terms
    assert M.levy_atom(0.5, 1.0).mean_below(2.0) == 0.5
    with pytest.raises(M.MeasureError, match="b > -1"):
        M.LevyMeasure(atoms=((1.0, 0.5),), unit_beta_terms=(M.BetaTerm(1.0, 1.0, -1.0),))


def test_levy_measure_derives_everything_from_atoms_and_unit_terms():
    assert list(inspect.signature(M.LevyMeasure).parameters) == ["atoms", "unit_beta_terms"]
    assert M.LevyMeasure().is_zero and M.LevyMeasure().tail_index is None
    # b = 0 is a log tail, regularly varying with index 0; two terms, no closed inverse
    lm = M.levy_triple(M.lebesgue() + M.beta_density(1.5, 0.5)).levy
    assert (lm.tail_index, lm.tail_inverse) == (0.5, None)
    assert M.levy_triple(M.lebesgue()).levy.tail_index is None
    # a = 1.5: not a barrier, so no closed inverse, but its b = -0.5 fixes the index
    lm = M.levy_triple(M.beta_density(1.5, 0.5)).levy
    assert (lm.tail_index, lm.tail_inverse) == (0.5, None)


# SHA-256 of tail, tail_inverse and density on PIN_Y and PIN_V: the closed
# forms of the barrier, a scaled barrier and a barrier beside an atom, byte for byte
PIN_Y = np.geomspace(1e-9, 40.0, 301)
PIN_V = np.geomspace(1e-9, 1e9, 301)
CLOSED_FORM_DIGESTS = {
    "barrier(0.5)": ("1f351868ec34f048003e5943f2cca44835097049659ae4674817da26dfa52524",
                     lambda: M.barrier_levy_measure(0.5)),
    "beta(1,0.5,3)": ("e5bcde8ef4471f311b5071c36f020086aee3bc7b4ef0c107e2d26ffda5a6a5e9",
                      lambda: M.levy_triple(M.beta_density(1.0, 0.5, 3.0)).levy),
    "barrier(0.3)+atom": ("acd7176223f06c41cd28c20c7f72fd23bb1360b6342c2b9888d4d62482f5a583",
                          lambda: M.levy_triple(M.barrier_measure(0.3) + M.atom(0.2, 0.5)).levy),
}


@pytest.mark.parametrize("name", list(CLOSED_FORM_DIGESTS))
def test_barrier_closed_forms_keep_their_bytes(name):
    digest, make = CLOSED_FORM_DIGESTS[name]
    lm = make()
    h = hashlib.sha256()
    h.update(np.array([lm.tail(float(y)) for y in PIN_Y]).tobytes())
    h.update(np.asarray(lm.tail_inverse(PIN_V), dtype=float).tobytes())
    h.update(np.asarray(lm.density(PIN_Y), dtype=float).tobytes())
    assert h.hexdigest() == digest


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


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_bracket_beta_integral_near_b_one_matches_mpmath(a, lam):
    # B(a, b-1) - B(a+lam, b-1) cancels near b = 1; a 40-digit reference
    # keeps about 30 digits after that cancellation
    mpmath.mp.dps = 40
    for d in (0.0, 3e-8, -3e-8, 9.9e-8, -9.9e-8, 1.01e-7, -1.01e-7, 1e-6,
              1e-5, -1e-5, 1e-4, -0.3, 0.7):
        b = 1.0 + d
        eps = mpmath.mpf(b) - 1
        if eps == 0:
            ref = mpmath.digamma(a + lam) - mpmath.digamma(a)
        else:
            ref = mpmath.beta(a, eps) - mpmath.beta(a + lam, eps)
        assert M.bracket_beta_integral(lam, a, b) == pytest.approx(float(ref), rel=1e-9), d
    # b = 1 exactly stays the plain digamma difference
    assert M.bracket_beta_integral(lam, a, 1.0) == float(digamma(a + lam) - digamma(a))
