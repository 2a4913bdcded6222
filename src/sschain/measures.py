"""Finite measures on [0, 1] and their subordinator-side descriptions.

A measure is stored as two exact atoms (at 0 and at 1), an optional list
of interior atoms, and a density on (0, 1) given as Beta terms,
``sum_i c_i x^(a_i-1) (1-x)^(b_i-1)``.  The atoms at the endpoints map to
the killing rate and drift of a subordinator, the rest maps to its jump
measure; keeping them separate means those two numbers are never
quadrature artifacts.  The Beta terms give the mass, the Laplace exponent
and the kernel rows in closed form through Gamma functions, and their
images under y = -log x give a ``LevyMeasure``'s small-jump moments and
exponent in closed form too.  Only the jump side still integrates: the
tail that ``levy_triple`` gives a density other than a scaled barrier.

Every integral in the package goes through ``quad``, the one call into
scipy's adaptive routine: it owns the tolerances, the subdivision limit
and the substitution y = u**p at a declared endpoint order.  Only
``quad_unit`` raises on a poor error estimate.  ``quad`` imports
``scipy.integrate`` on its first call, not this module: that import brings
scipy.optimize and scipy.linalg along (about 25 MB and 0.3 s), and the
chain samplers and DP oracles, which never integrate, should not pay it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import betaln, digamma, polygamma

from .special import gamma_ratio

#: absolute / relative targets of ``quad``
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-9

_CHECK_GRID = np.linspace(1e-4, 1.0 - 1e-4, 41)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""

    def __init__(self, message: str, value: float = math.nan, error: float = math.nan):
        super().__init__(f"{message} (value={value!r}, error estimate={error!r})")
        self.value = value
        self.error = error


class MeasureError(ValueError):
    """Invalid measure specification."""


# ---------------------------------------------------------------------------
# quadrature: the one call into scipy.integrate, imported on first use
# ---------------------------------------------------------------------------

def quad(fn, lo: float, hi: float, order: float = 0.0, limit: int = 200):
    """Integrate ``fn`` over (lo, hi); returns (value, error_estimate).

    ``order`` declares an integrable blow-up fn(y) ~ y**-order at y = 0
    (``lo`` >= 0 then).  For order > 0 the substitution y = u**p with
    p = 1/(1-order) makes the integrand bounded; the bounds become
    lo**(1/p) and hi**(1/p).  No error policy here: callers decide what
    to do with the estimate.
    """
    if order >= 1.0:
        raise MeasureError(f"non-integrable endpoint order {order}")
    if order > 0.0:
        p = 1.0 / (1.0 - order)
        g = fn
        fn = lambda u: g(u ** p) * p * u ** (p - 1.0)
        lo, hi = lo ** (1.0 / p), hi ** (1.0 / p)
    from scipy import integrate as _sciint  # on first use; see the module docstring
    return _sciint.quad(fn, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=limit)


def quad_unit(fn, sing0: float = 0.0, sing1: float = 0.0, upper: float = 1.0):
    """Integrate ``fn`` over (0, upper) <= (0, 1).

    ``sing0`` and ``sing1`` declare integrable algebraic blow-ups:
    fn(x) ~ x**-sing0 near 0 and fn(x) ~ (1-x)**-sing1 near 1, both < 1.
    The pieces (0, 1/2) and (1/2, upper) go to ``quad`` with those orders,
    the right one in the variable 1 - x.  Returns (value, error_estimate)
    and raises QuadratureError past 10x the tolerance.
    """
    if not (sing0 < 1.0 and sing1 < 1.0):
        raise MeasureError(f"non-integrable endpoint orders ({sing0}, {sing1})")
    if upper <= 0.0:
        return 0.0, 0.0
    upper = min(upper, 1.0)
    split = min(0.5, upper)
    total, err = quad(fn, 0.0, split, sing0)
    if upper > split:
        v, e = quad(lambda w: fn(1.0 - w), 1.0 - upper, split, sing1)
        total += v
        err += e
    if err > 10.0 * max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(total)):
        raise QuadratureError("quadrature did not converge", total, err)
    return total, err


# ---------------------------------------------------------------------------
# the bracket function and its closed-form beta integrals
# ---------------------------------------------------------------------------

def bracket(lam: float, x):
    """(1 - x**lam) / (1 - x) on [0, 1), continued by the value lam at x = 1.

    Non-decreasing in lam for fixed x and squeezed between min(1, lam)
    and max(1, lam).  Vectorized in ``x``.
    """
    if not lam > 0.0:
        raise ValueError(f"bracket requires lam > 0, got {lam}")
    xa = np.asarray(x, dtype=float)
    if np.any((xa < 0.0) | (xa > 1.0)):
        raise ValueError("bracket requires x in [0, 1]")
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    out = np.empty_like(xa)
    at_one = xa == 1.0
    at_zero = xa == 0.0
    mid = ~(at_one | at_zero)
    out[at_one] = lam
    out[at_zero] = 1.0
    xm = xa[mid]
    # -expm1(lam*log(x)) keeps full precision when x is close to 1
    out[mid] = -np.expm1(lam * np.log(xm)) / (1.0 - xm)
    return float(out[0]) if scalar else out


def bracket_beta_integral(lam: float, a: float, b: float) -> float:
    """Exact value of the integral of (1 - x**lam) x**(a-1) (1-x)**(b-2) dx on (0, 1).

    This is the bracket function integrated against the beta-type density
    x**(a-1) (1-x)**(b-1); it is finite for every a > 0, b > 0, lam > 0.
    Evaluated by analytic continuation of B(a, b-1) - B(a+lam, b-1) across
    b = 1, where it degenerates to a digamma difference.  Within
    |b - 1| < 1e-5 the direct form cancels, so the digamma difference plus
    its first-order term in b - 1 is used instead (worst error about 6e-10,
    at the switch, below QUAD_REL_TOL; exactly the digamma difference at b = 1).
    """
    if not (a > 0.0 and b > 0.0 and lam > 0.0):
        raise ValueError("bracket_beta_integral needs a, b, lam > 0")
    if abs(b - 1.0) < 1e-5:
        d0, d1 = digamma(a), digamma(a + lam)
        slope = 0.0 if b == 1.0 else (d0 * d0 - d1 * d1 - polygamma(1, a) + polygamma(1, a + lam)
                                      + 2.0 * np.euler_gamma * (d0 - d1)) / 2.0
        return float(d1 - d0 + (b - 1.0) * slope)
    if b > 1.0:
        return float(math.exp(betaln(a, b - 1.0)) - math.exp(betaln(a + lam, b - 1.0)))
    # 0 < b < 1: Gamma(b-1) is finite here (argument in (-1, 0))
    gb1 = gamma_ratio(b + 1.0, 1.0) / ((b - 1.0) * b)
    return float(gb1 * (gamma_ratio(a, a + b - 1.0) - gamma_ratio(a + lam, a + lam + b - 1.0)))


# ---------------------------------------------------------------------------
# FiniteMeasure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaTerm:
    """One term c * x**(a-1) * (1-x)**(b-1) of a structured density."""
    coef: float
    a: float
    b: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.coef * x ** (self.a - 1.0) * (1.0 - x) ** (self.b - 1.0)

    @property
    def mass(self) -> float:
        return self.coef * math.exp(betaln(self.a, self.b))


class FiniteMeasure:
    """A finite non-negative measure on [0, 1]: atoms plus Beta terms.

    Parameters
    ----------
    atom0, atom1 : float
        Point masses at x = 0 and x = 1.
    interior_atoms : sequence of (location, mass)
        Extra atoms strictly inside (0, 1).
    beta_terms : sequence of BetaTerm
        The density on (0, 1), their sum.

    ``density`` (None without terms) is the sum as a callable on numpy
    arrays, and ``sing0 = max(0, 1 - a)``, ``sing1 = max(0, 1 - b)`` over
    the terms are its algebraic orders at the endpoints (density ~
    x**-sing0 near 0 and ~ (1-x)**-sing1 near 1), both < 1.
    """

    def __init__(self, atom0: float = 0.0, atom1: float = 0.0,
                 interior_atoms: Sequence[tuple[float, float]] = (),
                 beta_terms: Sequence[BetaTerm] = ()):
        if atom0 < 0.0 or atom1 < 0.0:
            raise MeasureError("atom masses must be non-negative")
        beta_terms = tuple(beta_terms)
        self.sing0 = max([0.0, *(1.0 - t.a for t in beta_terms)])
        self.sing1 = max([0.0, *(1.0 - t.b for t in beta_terms)])
        if not (self.sing0 < 1.0 and self.sing1 < 1.0):
            raise MeasureError("endpoint singularity orders must be < 1")
        for loc, mass in interior_atoms:
            if not (0.0 < loc < 1.0):
                raise MeasureError(f"interior atom at {loc} not inside (0, 1)")
            if mass <= 0.0:
                raise MeasureError("interior atom masses must be positive")
        self.density = (lambda x: sum(t(x) for t in beta_terms)) if beta_terms else None
        if beta_terms and np.any(self.density(_CHECK_GRID) < 0.0):
            raise MeasureError("density takes negative values")
        self.atom0 = float(atom0)
        self.atom1 = float(atom1)
        self.interior_atoms = tuple((float(l), float(m)) for l, m in interior_atoms)
        self.beta_terms = beta_terms
        self.total_mass = (self.atom0 + self.atom1 + sum(m for _, m in self.interior_atoms)
                           + sum(t.mass for t in beta_terms))
        if not (self.total_mass > 0.0 and math.isfinite(self.total_mass)):
            raise MeasureError("measure must be non-zero and finite")

    def scaled(self, c: float) -> "FiniteMeasure":
        """The measure c * mu."""
        if c <= 0.0:
            raise MeasureError("scale factor must be positive")
        return FiniteMeasure(
            atom0=c * self.atom0, atom1=c * self.atom1,
            interior_atoms=tuple((l, c * m) for l, m in self.interior_atoms),
            beta_terms=tuple(BetaTerm(c * t.coef, t.a, t.b) for t in self.beta_terms),
        )

    def __add__(self, other: "FiniteMeasure") -> "FiniteMeasure":
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return FiniteMeasure(
            atom0=self.atom0 + other.atom0, atom1=self.atom1 + other.atom1,
            interior_atoms=self.interior_atoms + other.interior_atoms,
            beta_terms=self.beta_terms + other.beta_terms,
        )

    def __repr__(self):
        parts = []
        if self.atom0:
            parts.append(f"atom0={self.atom0:g}")
        if self.atom1:
            parts.append(f"atom1={self.atom1:g}")
        for loc, m in self.interior_atoms:
            parts.append(f"atom({m:g}@{loc:g})")
        if self.beta_terms:
            parts.append("beta_terms=" + ",".join(
                f"({t.coef:g},{t.a:g},{t.b:g})" for t in self.beta_terms))
        return f"FiniteMeasure({', '.join(parts)})"


# named constructors used by the experiment configs -------------------------

def atom(mass: float, x: float) -> FiniteMeasure:
    """Point mass at x in [0, 1]."""
    if mass <= 0.0:
        raise MeasureError("atom mass must be positive")
    if x == 0.0:
        return FiniteMeasure(atom0=mass)
    if x == 1.0:
        return FiniteMeasure(atom1=mass)
    return FiniteMeasure(interior_atoms=((x, mass),))


def barrier_measure(gamma: float) -> FiniteMeasure:
    """The density gamma * (1-x)**-gamma on (0, 1); total mass gamma/(1-gamma)."""
    if not 0.0 < gamma < 1.0:
        raise MeasureError("barrier_measure requires gamma in (0, 1)")
    return FiniteMeasure(beta_terms=(BetaTerm(gamma, 1.0, 1.0 - gamma),))


def lebesgue(scale: float = 1.0) -> FiniteMeasure:
    """scale * Lebesgue measure on (0, 1)."""
    return FiniteMeasure(beta_terms=(BetaTerm(scale, 1.0, 1.0),))


def beta_density(a: float, b: float, scale: float = 1.0) -> FiniteMeasure:
    """scale * Beta(a, b) probability density on (0, 1)."""
    if a <= 0.0 or b <= 0.0:
        raise MeasureError("beta_density requires a, b > 0")
    coef = scale * math.exp(-betaln(a, b))
    return FiniteMeasure(beta_terms=(BetaTerm(coef, a, b),))


# ---------------------------------------------------------------------------
# Laplace exponent
# ---------------------------------------------------------------------------

def laplace_exponent(mu: FiniteMeasure, lam: float) -> float:
    """Integral of the bracket function against mu: the subordinator exponent.

    Non-negative, non-decreasing and concave in lam.  At lam = 0 the
    continuity extension returns the mass at 0 directly; no quadrature of
    a 0/0 integrand happens there.
    """
    if lam < 0.0:
        raise ValueError("laplace_exponent requires lam >= 0")
    if lam == 0.0:
        return mu.atom0
    val = mu.atom0 + mu.atom1 * lam
    for loc, mass in mu.interior_atoms:
        val += mass * bracket(lam, loc)
    for t in mu.beta_terms:
        val += t.coef * bracket_beta_integral(lam, t.a, t.b)
    return val


# ---------------------------------------------------------------------------
# Levy measures on (0, infinity) and the triple (killing, drift, jumps)
# ---------------------------------------------------------------------------

def _image_density(terms: Sequence[BetaTerm]) -> Callable:
    """The jump density sum c e**(-a y) (1 - e**-y)**(b-1) whose image under
    x = e**-y is the unit terms c x**(a-1) (1-x)**(b-1).

    -expm1(-y) keeps 1 - e**-y exact as y -> 0, where e**-y rounds to 1.
    """
    def dens(y):
        y = np.asarray(y, dtype=float)
        em = -np.expm1(-y)  # 1 - e^-y
        return sum(t.coef * np.exp(-t.a * y) * em ** (t.b - 1.0) for t in terms)
    return dens


#: below this y the moments sum a power series in v = 1 - e**-y, above it
#: a series in e**-y; at the split v = 0.865 and e**-y = 0.135
MOMENT_SPLIT = 2.0
_TAIL_TERMS = 40  # 0.135**40 ~ 1e-35


def _beta_image_moment(t: BetaTerm, eps: float, p: int) -> float:
    """Integral of y**p c e**(-a y) (1 - e**-y)**(b-1) over (0, eps], eps <= inf.

    With v = 1 - e**-y it is c times the integral of
    (-log(1-v))**p (1-v)**(a-1) v**(b-1) over (0, V).  Up to MOMENT_SPLIT
    the first two factors are v**p sum_k g_k v**k, which integrates term by
    term to V**(p+b) sum_k g_k V**k / (k+p+b).  Above it (1 - e**-y)**(b-1)
    is sum_j w_j e**(-j y), and y**p e**(-s y) has a closed antiderivative.
    """
    lo = min(eps, MOMENT_SPLIT)
    v = -math.expm1(-lo)
    n = p + 1 + math.ceil(45.0 / -math.log(v))  # v**n < e**-45
    k = np.arange(1, n)
    g = np.concatenate([[1.0], np.cumprod((k - t.a) / k)])  # (1-v)**(a-1)
    log_series = 1.0 / np.arange(1.0, n + 1.0)  # -log(1-v) / v = sum_j v**j / (j+1)
    for _ in range(p):
        g = np.convolve(g, log_series)[:n]
    k = np.arange(n)
    val = t.coef * v ** (p + t.b) * math.fsum(g * v ** k / (k + p + t.b))
    if eps <= MOMENT_SPLIT:
        return val
    j = np.arange(_TAIL_TERMS)
    w = t.coef * np.concatenate([[1.0], np.cumprod((j[1:] - t.b) / j[1:])])
    s = t.a + j

    def beyond(y):  # integral of u**p e**(-s u) over (y, inf), one entry per s
        if math.isinf(y):
            return np.zeros_like(s)
        return np.exp(-s * y) * sum(math.perm(p, i) * y ** (p - i) / s ** (i + 1)
                                    for i in range(p + 1))

    return val + math.fsum(w * (beyond(lo) - beyond(eps)))


class LevyMeasure:
    """Measure on (0, inf) integrating y ^ 1, as (density, atoms).

    ``unit_beta_terms`` are the image of the density part under x = e**-y,
    as Beta terms c x**(a-1) (1-x)**(b-1) with b > -1 (b <= 0 is allowed:
    the image need not be finite).  The small-jump moments and the
    exponent are closed forms in them, so a density part without them is
    refused there.  ``tail`` and ``tail_inverse``, when supplied, are the
    exact upper tail of the density part and its inverse, used by the path
    sampler; otherwise the tail is integrated numerically and inverted
    through a monotone log-grid interpolant.
    """

    def __init__(self, density: Callable | None = None,
                 atoms: Sequence[tuple[float, float]] = (),
                 tail: Callable | None = None,
                 tail_inverse: Callable | None = None,
                 unit_beta_terms: Sequence[BetaTerm] = (),
                 tail_index: float | None = None):
        for y, m in atoms:
            if y <= 0.0 or m <= 0.0:
                raise MeasureError("levy atoms need positive location and mass")
        for t in unit_beta_terms:
            if not t.b > -1.0:  # density ~ y**(b-1) at 0 must integrate y ^ 1
                raise MeasureError(f"unit Beta term {t} needs b > -1")
        self.density = density
        self.atoms = tuple((float(y), float(m)) for y, m in atoms)
        self._tail = tail
        self.tail_inverse = tail_inverse
        self.unit_beta_terms = tuple(unit_beta_terms)
        # regular-variation index -tail_index of the tail at 0, when known
        self.tail_index = tail_index

    @property
    def is_zero(self) -> bool:
        return self.density is None and not self.atoms

    def __repr__(self):
        dens = "none" if self.density is None else (
            f"unit_beta_terms={self.unit_beta_terms}" if self.unit_beta_terms
            else "a callable without unit_beta_terms")
        return f"LevyMeasure(density part: {dens}, atoms={self.atoms})"

    def __add__(self, other: "LevyMeasure") -> "LevyMeasure":
        """Sum of two jump measures, at most one of them with a density part.

        The closed forms describe the density part only, so the sum keeps
        them from that part; atoms concatenate in order.
        """
        if not isinstance(other, LevyMeasure):
            return NotImplemented
        if self.density is not None and other.density is not None:
            raise MeasureError("a sum of jump measures takes at most one density part")
        part = self if self.density is not None else other
        return LevyMeasure(density=part.density, atoms=self.atoms + other.atoms,
                           tail=part._tail, tail_inverse=part.tail_inverse,
                           unit_beta_terms=part.unit_beta_terms, tail_index=part.tail_index)

    def _density_terms(self, what: str) -> tuple[BetaTerm, ...]:
        if self.density is not None and not self.unit_beta_terms:
            raise MeasureError(f"the {what} of {self!r} need its density part as "
                               "unit_beta_terms, its image under x = e^-y")
        return self.unit_beta_terms if self.density is not None else ()

    def tail(self, y: float) -> float:
        """Mass above level y > 0."""
        if y <= 0.0:
            raise ValueError("tail is defined for y > 0")
        val = sum(m for loc, m in self.atoms if loc > y)
        if self.density is None:
            return val
        if self._tail is not None:
            return val + self._tail(y)
        if y < 1.0:
            val += quad(self.density, y, 1.0)[0]
            y = 1.0
        return val + quad(self.density, y, np.inf)[0]

    def _moment_below(self, eps: float, power: int) -> float:
        """Integral of y**power over (0, eps]; power >= 1, eps <= inf."""
        val = sum(loc ** power * m for loc, m in self.atoms if loc <= eps)
        if eps <= 0.0:
            return val
        for t in self._density_terms("small-jump moments"):
            val += _beta_image_moment(t, eps, power)
        return val

    def mean_below(self, eps: float) -> float:
        return self._moment_below(eps, 1)

    def variance_below(self, eps: float) -> float:
        return self._moment_below(eps, 2)

    def exponent_integral(self, lam: float) -> float:
        """Integral of (1 - exp(-lam*y)) against the measure.

        Each unit term contributes c times the integral of
        (1 - x**lam) x**(a-1) (1-x)**(b-1), a bracket Beta integral.
        """
        val = sum(m * -math.expm1(-lam * y) for y, m in self.atoms)
        for t in self._density_terms("exponent"):
            val += t.coef * bracket_beta_integral(lam, t.a, t.b + 1.0)
        return val


def levy_atom(mass: float, y0: float) -> LevyMeasure:
    """Compound-Poisson jump measure: one atom of the given mass at y0 > 0."""
    return LevyMeasure(atoms=((y0, mass),))


def barrier_levy_measure(gamma: float) -> LevyMeasure:
    """Jump density gamma * e**-y * (1 - e**-y)**-(gamma+1) with closed-form tail."""
    if not 0.0 < gamma < 1.0:
        raise MeasureError("requires gamma in (0, 1)")
    terms = (BetaTerm(gamma, 1.0, -gamma),)

    def tail(y):
        return (-np.expm1(-y)) ** -gamma - 1.0

    def tail_inverse(v):
        # solves tail(y) = v
        return -np.log1p(-(1.0 + np.asarray(v, dtype=float)) ** (-1.0 / gamma))

    return LevyMeasure(density=_image_density(terms), tail=tail, tail_inverse=tail_inverse,
                       unit_beta_terms=terms, tail_index=gamma)


@dataclass(frozen=True)
class LevyTriple:
    """Killing rate, drift, and jump measure of a subordinator."""
    killing: float
    drift: float
    levy: LevyMeasure

    def laplace_exponent(self, lam: float) -> float:
        """killing + drift*lam + integral of (1 - e**(-lam*y)) against the jumps.

        The jump part comes from the jump measure's own atoms and unit Beta
        terms (``LevyMeasure.exponent_integral``), not from a [0,1]-side
        measure, so it checks ``levy_triple``'s bookkeeping of atoms and terms.
        """
        if lam < 0.0:
            raise ValueError("needs lam >= 0")
        if lam == 0.0:
            return self.killing
        val = self.killing + self.drift * lam
        if not self.levy.is_zero:
            val += self.levy.exponent_integral(lam)
        return val


def levy_triple(mu: FiniteMeasure) -> LevyTriple:
    """Decompose mu into (killing, drift, jump measure).

    killing = mu({0}), drift = mu({1}); the jump measure is the image of
    (1-x)**-1 mu(dx) restricted to (0,1) under y = -log x, built as its
    density part plus one atom per interior atom of mu.  The density
    part's ``unit_beta_terms`` are the image of (1-x)**-1 times each term
    c x**(a-1) (1-x)**(b-1), that is BetaTerm(c, a, b - 1), and its density
    is evaluated from them.  A density that is a single beta term with
    a = 1 is a scaled barrier and keeps the barrier's closed-form tail, its
    inverse and its tail index, interior atoms or not; any other density
    gets a quadrature tail.
    """
    terms = tuple(BetaTerm(t.coef, t.a, t.b - 1.0) for t in mu.beta_terms)
    t = mu.beta_terms[0] if len(mu.beta_terms) == 1 else None
    if mu.density is None:
        part = LevyMeasure()
    elif t is not None and t.a == 1.0 and t.b < 1.0:
        g = 1.0 - t.b
        part = base = barrier_levy_measure(g)
        if t.coef != g:  # the unscaled barrier keeps its closures: no wrapper per tail call
            c = t.coef / g
            part = LevyMeasure(density=_image_density(terms),
                               tail=lambda y: c * base._tail(y),
                               tail_inverse=lambda v: base.tail_inverse(np.asarray(v) / c),
                               unit_beta_terms=terms, tail_index=g)
    else:
        rho = mu.density

        def tail(y0):
            # mass above y0 equals the (1-x)^-1-weighted mass of rho below e^-y0
            upper = math.exp(-y0)
            val, _ = quad_unit(lambda x: rho(x) / (1.0 - x), mu.sing0,
                               min(0.999, mu.sing1 + 1.0), upper=upper)
            return val

        part = LevyMeasure(density=_image_density(terms), tail=tail, unit_beta_terms=terms)
    jumps = LevyMeasure(atoms=tuple((-math.log(loc), mass / (1.0 - loc))
                                    for loc, mass in mu.interior_atoms))
    return LevyTriple(mu.atom0, mu.atom1, part + jumps)
