"""Finite measures on [0, 1] and their subordinator-side descriptions.

A measure is stored as two exact atoms (at 0 and at 1), an optional list
of interior atoms, and a density on (0, 1) given as Beta terms,
``sum_i c_i x^(a_i-1) (1-x)^(b_i-1)``.  The atoms at the endpoints map to
the killing rate and drift of a subordinator, the rest maps to its jump
measure; keeping them separate means those two numbers are exact.  The
Beta terms give the mass, the Laplace exponent and the kernel rows in
closed form through Gamma functions, and their images under y = -log x
give a ``LevyMeasure``'s jump tail, small-jump moments and exponent in
closed form too: the tail and the moments each sum a power series in
1 - e**-y for small jumps and one in e**-y for large ones.  Nothing in the
package integrates numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import betaln, digamma, exprel, polygamma

from .special import gamma_ratio

_CHECK_GRID = np.linspace(1e-4, 1.0 - 1e-4, 41)


class MeasureError(ValueError):
    """Invalid measure specification."""


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
    at the switch; exactly the digamma difference at b = 1).
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

    ``sing0 = max(0, 1 - a)`` and ``sing1 = max(0, 1 - b)`` over the terms
    are the density's algebraic orders at the endpoints (density ~
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
        if np.any(sum(t(_CHECK_GRID) for t in beta_terms) < 0.0):
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
    continuity extension returns the mass at 0 directly.
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
#: the jump tail splits its two series at e**-y = 1 - e**-y = 1/2 instead,
#: where (1-v)**(a-1) and (1-x)**(b-1) cancel least in their power series;
#: 0.5**64 ~ 5e-20
_HALF_TERMS = 64


def _power_series(s: float, n: int) -> np.ndarray:
    """g_0 ... g_{n-1} of (1-x)**(s-1) = sum_k g_k x**k."""
    k = np.arange(1, n)
    return np.concatenate([[1.0], np.cumprod((k - s) / k)])


@functools.lru_cache(maxsize=None)
def _tail_series(t: BetaTerm):
    """The series of ``_beta_image_tail`` for c = 1: the x-side coefficients
    w_j / (a+j), highest first; the exponents k+b and weights g_k 2**-(k+b)
    for k >= 1; and the tail at x = 1/2."""
    k = np.arange(_HALF_TERMS)
    far = (_power_series(t.b, _HALF_TERMS) / (k + t.a))[::-1]
    m = k[1:] + t.b
    near = _power_series(t.a, _HALF_TERMS)[1:] * 0.5 ** m
    return far, m, near, 0.5 ** t.a * np.polyval(far, 0.5)


def _beta_image_tail(t: BetaTerm, y) -> np.ndarray:
    """Mass of c e**(-a y) (1 - e**-y)**(b-1) above each y > 0, c B_{e**-y}(a, b).

    Vectorized in ``y``.  With x = e**-y it is c times the integral of
    u**(a-1) (1-u)**(b-1) over (0, x): for x <= 1/2, sum_j w_j x**(a+j) / (a+j)
    from (1-u)**(b-1) = sum_j w_j u**j.  For x > 1/2 it is that sum at 1/2
    plus the mass between v = 1 - x and 1/2, sum_k g_k (2**-(k+b) - v**(k+b))
    / (k+b) from (1-v)**(a-1) = sum_k g_k v**k.  Each difference is written
    max(2**-(k+b), v**(k+b)) L exprel(-|k+b| L) with L = log(1 / (2 v)), so
    no term cancels, exprel's argument is never positive, and b = 0, a log
    tail, takes the same path.
    """
    shape = np.shape(y)
    y = np.asarray(y, dtype=float).ravel()
    far, m, near, at_half = _tail_series(t)
    v = -np.expm1(-y)
    small = v < 0.5
    out = np.empty_like(y)
    if not small.all():
        x = np.exp(-y[~small])
        out[~small] = x ** t.a * np.polyval(far, x)
    if small.any():
        v = v[small]
        log_ratio = -math.log(2.0) - np.log(v)
        span = log_ratio * (np.maximum(0.5 ** t.b, v ** t.b) * exprel(-abs(t.b) * log_ratio)
                            + exprel(-np.multiply.outer(log_ratio, m)) @ near)
        out[small] = at_half + span
    return t.coef * out.reshape(shape)


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
    g = _power_series(t.a, n)  # (1-v)**(a-1)
    log_series = 1.0 / np.arange(1.0, n + 1.0)  # -log(1-v) / v = sum_j v**j / (j+1)
    for _ in range(p):
        g = np.convolve(g, log_series)[:n]
    k = np.arange(n)
    val = t.coef * v ** (p + t.b) * math.fsum(g * v ** k / (k + p + t.b))
    if eps <= MOMENT_SPLIT:
        return val
    w = t.coef * _power_series(t.b, _TAIL_TERMS)  # (1 - e**-y)**(b-1)
    s = t.a + np.arange(_TAIL_TERMS)

    def beyond(y):  # integral of u**p e**(-s u) over (y, inf), one entry per s
        if math.isinf(y):
            return np.zeros_like(s)
        return np.exp(-s * y) * sum(math.perm(p, i) * y ** (p - i) / s ** (i + 1)
                                    for i in range(p + 1))

    return val + math.fsum(w * (beyond(lo) - beyond(eps)))


def _barrier_tail_closures(t: BetaTerm):
    """Closed tail k((1 - e**-y)**b - 1), k = c / -b, of the unit term (c, 1, b < 0)
    and its inverse -log1p(-(1 + v/k)**(1/b)); k = 1 takes no scaling op."""
    k, b = t.coef / -t.b, t.b

    def tail(y):
        return (-np.expm1(-y)) ** b - 1.0

    def tail_inverse(v):
        # solves tail(y) = v
        return -np.log1p(-(1.0 + np.asarray(v, dtype=float)) ** (1.0 / b))

    if k == 1.0:
        return tail, tail_inverse
    return (lambda y: k * tail(y)), (lambda v: tail_inverse(np.asarray(v) / k))


class LevyMeasure:
    """Measure on (0, inf) integrating y ^ 1: unit Beta terms plus atoms.

    ``unit_beta_terms`` are the image of the density part under x = e**-y,
    as Beta terms c x**(a-1) (1-x)**(b-1) with b > -1 (b <= 0 is allowed:
    the image need not be finite).  The rest is derived from them: the
    ``density`` callable (Newton steps read it; None without terms), the
    closed-form tail, small-jump moments and exponent, and ``tail_index``,
    -min b when positive.  One term with a = 1 and b < 0 is a scaled
    barrier, whose closed tail has the exact inverse ``tail_inverse`` that
    the path sampler uses; any other density part has None there.
    """

    def __init__(self, atoms: Sequence[tuple[float, float]] = (),
                 unit_beta_terms: Sequence[BetaTerm] = ()):
        for y, m in atoms:
            if y <= 0.0 or m <= 0.0:
                raise MeasureError("levy atoms need positive location and mass")
        terms = tuple(unit_beta_terms)
        for t in terms:
            if not t.b > -1.0:  # density ~ y**(b-1) at 0 must integrate y ^ 1
                raise MeasureError(f"unit Beta term {t} needs b > -1")
        self.atoms = tuple((float(y), float(m)) for y, m in atoms)
        self.unit_beta_terms = terms
        self.density = _image_density(terms) if terms else None
        index = -min((t.b for t in terms), default=0.0)
        self.tail_index = index if index > 0.0 else None
        self._tail = self.tail_inverse = None
        if len(terms) == 1 and terms[0].a == 1.0 and terms[0].b < 0.0:
            self._tail, self.tail_inverse = _barrier_tail_closures(terms[0])

    @property
    def is_zero(self) -> bool:
        return self.density is None and not self.atoms

    def __repr__(self):
        return f"LevyMeasure(unit_beta_terms={self.unit_beta_terms}, atoms={self.atoms})"

    def __add__(self, other: "LevyMeasure") -> "LevyMeasure":
        """Sum of two jump measures: atoms and terms concatenate in order."""
        if not isinstance(other, LevyMeasure):
            return NotImplemented
        return LevyMeasure(atoms=self.atoms + other.atoms,
                           unit_beta_terms=self.unit_beta_terms + other.unit_beta_terms)

    def _density_tail(self, y):
        """Mass of the density part above each level y > 0; vectorized in ``y``."""
        if self._tail is not None:
            return self._tail(y)
        return sum(_beta_image_tail(t, y) for t in self.unit_beta_terms)

    def tail(self, y: float) -> float:
        """Mass above level y > 0."""
        if y <= 0.0:
            raise ValueError("tail is defined for y > 0")
        val = sum(m for loc, m in self.atoms if loc > y)
        if self.density is None:
            return val
        return val + float(self._density_tail(y))

    def _moment_below(self, eps: float, power: int) -> float:
        """Integral of y**power over (0, eps]; power >= 1, eps <= inf."""
        val = sum(loc ** power * m for loc, m in self.atoms if loc <= eps)
        if eps <= 0.0:
            return val
        for t in self.unit_beta_terms:
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
        for t in self.unit_beta_terms:
            val += t.coef * bracket_beta_integral(lam, t.a, t.b + 1.0)
        return val


def levy_atom(mass: float, y0: float) -> LevyMeasure:
    """Compound-Poisson jump measure: one atom of the given mass at y0 > 0."""
    return LevyMeasure(atoms=((y0, mass),))


def barrier_levy_measure(gamma: float) -> LevyMeasure:
    """Jump density gamma * e**-y * (1 - e**-y)**-(gamma+1) with closed-form tail."""
    if not 0.0 < gamma < 1.0:
        raise MeasureError("requires gamma in (0, 1)")
    return LevyMeasure(unit_beta_terms=(BetaTerm(gamma, 1.0, -gamma),))


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
    (1-x)**-1 mu(dx) restricted to (0,1) under y = -log x.  Its
    ``unit_beta_terms`` are the image of (1-x)**-1 times each term
    c x**(a-1) (1-x)**(b-1), that is BetaTerm(c, a, b - 1), and it has one
    atom per interior atom of mu; ``LevyMeasure`` derives the density,
    the tail (closed with its inverse for a scaled barrier) and the tail
    index from them.
    """
    terms = tuple(BetaTerm(t.coef, t.a, t.b - 1.0) for t in mu.beta_terms)
    atoms = tuple((-math.log(loc), mass / (1.0 - loc)) for loc, mass in mu.interior_atoms)
    return LevyTriple(mu.atom0, mu.atom1, LevyMeasure(atoms=atoms, unit_beta_terms=terms))
