"""The model zoo: every non-increasing transition law in the laboratory.

Each kernel packages its transition rows (p_{n,k}) together with the
scaling sequence a_n (completed with a_0 = 1) and the limiting measure mu
on [0, 1] whose Laplace exponent the rescaled chain targets.  Rows are
built lazily, validated (non-negative, summing to 1 within 1e-12) and
memoized.

The canonical, coalescent and composition rows are binomial mixtures,
C(n, k) times integrals of x^p (1-x)^q against a measure.  A Beta term
of a coalescent or composition row is C(n, i) B(i + alpha, n - i + beta),
which ``_beta_term_entries`` builds as the product of two slices of the
kept Gamma-ratio tables Gamma(j + s) / j! (``special``), with no log
space.  Everything else goes through ``_binomial_mixture`` in log space,
with log C(n, k) from the kept log-Gamma table: the canonical kernel's
Beta terms (scipy's ``betaln`` times a regularized incomplete Beta) and
interior atoms.  Every row entry, and the coalescent's scaling h(1/n), is
a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import betainc, betaln, zeta

from . import measures
from .measures import (BetaTerm, FiniteMeasure, LevyMeasure, atom,
                       barrier_measure, laplace_exponent)
from .special import gamma_ratio_table, log_binom
from .stats import TrendReport, trend_verdict

ROW_SUM_TOL = 1e-12
ABSORB_TOL = 1e-12
_NEG_CLIP = -1e-13
# a correlation with a step law whose last support point is at most this runs
# term by term over the support; a longer one runs by FFT
DIRECT_SUPPORT = 256
# the pushforward steps the lower triangle in panels of this many columns: a
# multiple of 64, so each panel starts on a 64-aligned column
PANEL_COLUMNS = 128
# relative errors below this count as noise in the convergence diagnostic
DIAGNOSTIC_FLOOR = 1e-9


class KernelConstructionError(ValueError):
    """A constructed row is not a probability vector."""


class DPError(RuntimeError):
    """An exact (no-sampling) computation cannot proceed on this kernel."""


class CostGuardError(DPError):
    """Requested computation exceeds the configured operation budget."""


# ---------------------------------------------------------------------------
# step distributions (for the barrier-walk family)
# ---------------------------------------------------------------------------

class StepDistribution:
    """A probability distribution q on the non-negative integers.

    Given either as a finite vector or through an upper-tail callback
    qbar(n) = sum of q_k over k > n, from which q_k = qbar(k-1) - qbar(k).
    ``gamma`` declares the regular-variation index of the tail when the
    mean is infinite.  ``max_step`` is the last k with q_k > 0 of a finite
    vector (None for a tail): its running sums can round below 1, so
    ``quantile``, the one inverse CDF of the law, clamps its draws there.
    A tail is checked where it is tabulated: ``quantile`` refuses to reach
    the first k where qbar is not finite, leaves [0, 1] or rises.
    """

    def __init__(self, pmf=None, tail=None, gamma: float | None = None,
                 mean: float | None = None, name: str = "q"):
        if (pmf is None) == (tail is None):
            raise ValueError("specify exactly one of pmf, tail")
        self.name = name
        self.gamma = gamma
        self._tail_fn = tail
        if pmf is not None:
            q = np.asarray(pmf, dtype=float)
            if q.ndim != 1 or q.size == 0:
                raise ValueError("pmf must be a non-empty vector")
            # both checks are written so that NaN fails them
            if not np.all(q >= 0.0):
                raise ValueError("pmf entries must be non-negative and not NaN")
            if not abs(q.sum() - 1.0) <= ROW_SUM_TOL:
                raise ValueError("pmf must sum to 1")
            if q[0] >= 1.0:
                raise ValueError("q_0 < 1 is required")
            self._q = q.copy()
            self._cdf = np.cumsum(q)
            self._qbar = 1.0 - self._cdf
            self._qbar[-1] = 0.0
            np.clip(self._qbar, 0.0, None, out=self._qbar)
            self.mean = float(np.dot(np.arange(q.size), q))
            self.max_step = int(np.flatnonzero(q)[-1])
        else:
            qb0 = float(tail(np.asarray([0]))[0])
            if not 0.0 < qb0 <= 1.0:
                raise ValueError("tail(0) = 1 - q_0 must lie in (0, 1]")
            x = np.asarray([1, 10, 100, 10_000, 2 ** 40], dtype=float)
            probe = tail(x)
            if np.any(np.diff(np.concatenate([[qb0], probe])) > 1e-15):
                raise ValueError("tail must be non-increasing")
            # a declared index gamma promises tail(x) (x + 1)^gamma bounded: by 10 qbar_0
            if probe[-1] > 1e-3 if gamma is None else (probe * (x + 1) ** gamma).max() > 10 * qb0:
                raise ValueError("tail does not appear to vanish at infinity")
            self.mean = math.inf if mean is None else float(mean)
            self.max_step = None
            self._q = None
            self._qbar = None
        self._cache_n = -1
        self._bad_k = None  # first tabulated k whose qbar is not a law's tail

    def _ensure(self, n: int):
        if self.max_step is not None:
            if self._q.size <= n:
                pad = n + 1 - self._q.size
                self._q = np.concatenate([self._q, np.zeros(pad)])
                self._qbar = np.concatenate([self._qbar, np.zeros(pad)])
                self._cdf = np.cumsum(self._q)
            return
        if n <= self._cache_n:
            return
        m = max(2 * n, 64)
        qbar = np.asarray(self._tail_fn(np.arange(m + 1, dtype=float)), dtype=float)
        q = np.empty(m + 1)
        q[0] = 1.0 - qbar[0]
        q[1:] = qbar[:-1] - qbar[1:]
        np.clip(q, 0.0, None, out=q)
        self._q, self._qbar, self._cache_n = q, qbar, m
        self._cdf = np.cumsum(q)
        # written so that NaN is bad; rises within the constructor's slack pass
        bad = ~((qbar >= 0.0) & (qbar <= 1.0))
        bad[1:] |= qbar[1:] - qbar[:-1] > 1e-15
        first = np.flatnonzero(bad)
        self._bad_k = int(first[0]) if first.size else None

    def pmf_upto(self, n: int) -> np.ndarray:
        """q_0, ..., q_n."""
        self._ensure(n)
        return self._q[:n + 1]

    def tail_at(self, n: int) -> float:
        """qbar_n."""
        self._ensure(n)
        return float(self._qbar[n])

    def tail_upto(self, n: int) -> np.ndarray:
        """qbar_0, ..., qbar_n."""
        self._ensure(n)
        return self._qbar[:n + 1]

    def cdf_upto(self, n: int) -> np.ndarray:
        """q_0, q_0 + q_1, ..., q_0 + ... + q_n (running sums, cached)."""
        self._ensure(n)
        return self._cdf[:n + 1]

    def quantile(self, u: np.ndarray, n: int) -> np.ndarray:
        """For each u, the least k <= n with q_0 + ... + q_k > u, else n + 1.

        A finite vector's running sums can round below 1, so a u past the
        last of them is clamped to ``max_step``, a step the law makes.
        """
        cdf = self.cdf_upto(n)
        if self._bad_k is not None and self._bad_k <= n:
            k = self._bad_k
            raise ValueError(f"step law {self.name}: qbar({k}) = {self._qbar[k]!r} after "
                             f"qbar({k - 1}) = {self._qbar[k - 1]!r} is not the tail of "
                             "a probability law")
        k = np.searchsorted(cdf, u, side="right")
        if self.max_step is not None:
            np.minimum(k, self.max_step, out=k)
        return k


def power_tail(gamma: float) -> StepDistribution:
    """Step law with qbar_n = (n+1)**-gamma (so q_0 = 0)."""
    if gamma <= 0.0:
        raise ValueError("power_tail needs gamma > 0")

    def tail(n):
        return (np.asarray(n, dtype=float) + 1.0) ** -gamma

    g = gamma if gamma < 1.0 else None
    # the mean is the sum of qbar_n = (n+1)**-gamma, i.e. zeta(gamma)
    mean = float(zeta(gamma)) if gamma > 1.0 else None
    return StepDistribution(tail=tail, gamma=g, mean=mean,
                            name=f"power_tail({gamma:g})")


def finite_step(probs: Sequence[float]) -> StepDistribution:
    probs = tuple(probs)
    return StepDistribution(pmf=probs, name=f"finite{list(probs)}")


# ---------------------------------------------------------------------------
# kernel base
# ---------------------------------------------------------------------------

class Kernel:
    """A non-increasing transition law with scaling sequence and limit measure.

    Subclasses implement ``build_row`` and ``scaling``; everything else is
    shared.  Validating row n records whether n is absorbing, and
    ``absorbing(n)`` reads that record: it builds no row of its own.
    The batch samplers sweep the rows from the highest state down, one
    uncached ``cumulative_row`` at a time, unless the kernel samples a
    step law of its own (``step``); ``sample_path`` reads the memoized
    ``row_cumsum``.  ``absorbing_mask``, ``pushforward`` and ``toeplitz``
    are generic here and overridable by faster equivalents; ``pushforward``
    returns a block stepper, which fills a trajectory array a block of
    steps at a time.  Kernels are immutable once built; the caches are
    deterministic.
    """

    name = "kernel"
    gamma: float | None = None
    mu: FiniteMeasure | None = None
    # a kernel that samples a step law of its own sets step(states, u), one
    # transition per state and uniform; the batch samplers then run it in
    # lockstep.  Without one they sweep the rows, highest state first.
    step = None

    def __init__(self):
        self._row_cache: dict[int, np.ndarray] = {}
        self._cumsum_cache: dict[int, np.ndarray] = {}
        self._g_cache: dict[tuple[int, float], float] = {}
        self._absorbing_cache: dict[int, bool] = {}

    # -- rows ---------------------------------------------------------------
    def build_row(self, n: int) -> np.ndarray:
        """Row n as a fresh array, which ``validated_row`` may return as it is."""
        raise NotImplementedError

    def validated_row(self, n: int) -> np.ndarray:
        """Row n built and validated, not cached; records ``absorbing(n)``."""
        row = np.asarray(self.build_row(n), dtype=float)
        if row.shape != (n + 1,):
            raise KernelConstructionError(
                f"{self.name}: row {n} has shape {row.shape}, expected ({n + 1},)")
        # every check is written so that NaN fails it
        if not row.min() >= 0.0:  # build_row's array is fresh: copy only to clip
            bad = ~(row >= _NEG_CLIP)
            if bad.any():
                k = int(np.argmax(bad))
                raise KernelConstructionError(
                    f"{self.name}: row {n} has negative or NaN entry p[{n},{k}] = {row[k]!r}")
            row = np.where(row < 0.0, 0.0, row)
        s = float(np.sum(row))
        if not abs(s - 1.0) <= ROW_SUM_TOL * max(1, n):
            raise KernelConstructionError(
                f"{self.name}: row {n} sums to {s!r}, not 1")
        self._absorbing_cache[n] = bool(row[n] >= 1.0 - ABSORB_TOL)
        return row

    def _checked_row(self, n: int, row: np.ndarray | None = None) -> np.ndarray:
        """``build_row(n)``, or the given row n, under validated_row's entry and sum tests.

        For the DP oracle, which reads every row once: the row is neither
        copied nor clipped.  Both comparisons let NaN through, so the
        oracle's own finiteness checks name it.  Like ``validated_row`` it
        records ``absorbing(n)`` (False on a NaN diagonal), so a generic
        ``absorbing_mask`` after ``pushforward`` builds no row again.
        """
        if row is None:
            row = self.build_row(n)
        if row.min() < _NEG_CLIP:
            k = int(np.argmin(row))
            raise KernelConstructionError(
                f"{self.name}: row {n} has negative entry p[{n},{k}] = {float(row[k])!r}")
        s = float(np.sum(row))
        if abs(s - 1.0) > ROW_SUM_TOL * max(1, n):
            raise KernelConstructionError(f"{self.name}: row {n} sums to {s!r}, not 1")
        self._absorbing_cache[n] = bool(row[n] >= 1.0 - ABSORB_TOL)
        return row

    def row(self, n: int) -> np.ndarray:
        """Validated probability vector (p_{n,k})_{0<=k<=n}, memoized."""
        r = self._row_cache.get(n)
        if r is None:
            r = self.validated_row(n)
            self._row_cache[n] = r
        return r

    def cumulative_row(self, n: int) -> np.ndarray:
        """Running sums of row n, not cached; validating the row records ``absorbing(n)``.

        The last sum is set to 1, so inverting a uniform u < 1 with
        ``searchsorted(u, side="right")`` never passes state n.  A row that
        ``row(n)`` keeps is read, not built again.
        """
        row = self._row_cache.get(n)
        c = np.cumsum(self.validated_row(n) if row is None else row)
        c[-1] = 1.0  # guards searchsorted against accumulated roundoff
        return c

    def row_cumsum(self, n: int) -> np.ndarray:
        """``cumulative_row`` of the kept ``row(n)``, memoized: ``sample_path`` revisits states.

        ``absorbing(n)``, ``row_cumsum(n)`` and ``generating`` share one build of row n.
        """
        c = self._cumsum_cache.get(n)
        if c is None:
            self.row(n)
            c = self._cumsum_cache[n] = self.cumulative_row(n)
        return c

    def absorbing(self, n: int) -> bool:
        """Whether p_{n,n} = 1 (up to 1e-12), as recorded when row n was validated."""
        if n == 0:
            return True
        if n not in self._absorbing_cache:
            self.row_cumsum(n)
        return self._absorbing_cache[n]

    # -- the sampler and DP protocol -------------------------------------------
    def absorbing_mask(self, states: np.ndarray) -> np.ndarray:
        """``absorbing`` of every entry of an integer state array."""
        distinct, inverse = np.unique(states, return_inverse=True)
        return np.array([self.absorbing(m) for m in distinct.tolist()], dtype=bool)[inverse]

    def pushforward(self, n: int, budget_ops: float = math.inf):
        """``advance(traj)``: rows 1.. of traj become pi P, pi P^2, ... of its row 0.

        traj is a C-order (steps + 1, n + 1) float array of pmfs on 0..n.
        The map pi -> pi P reads the lower triangle in column panels: the
        panel at c0 holds columns c0 .. c0 + PANEL_COLUMNS - 1 of rows
        c0..n as one C-contiguous block, about (n+1)^2 / 2 entries in all,
        and a step sets out[c0:c0 + width] = pi[c0:] @ panel.  The rows
        above c0 are zero there, so each output is the dense ``pi @ m``
        without its leading exact-zero terms; with every panel starting on
        a 64-aligned column, single-threaded OpenBLAS gives the same bits.
        Those outputs read only the states >= c0, so ``advance`` takes the
        panels from the highest c0 down and runs every step on one panel
        before the next (time skewing): a panel streams from memory once
        per call, not once per step, and each product is the same call.
        ``_panels`` fills them, every row checked as ``_checked_row`` checks
        it, and refuses a row that is not finite.  The truncated and ignored
        walks, whose panels are windows of one step law, override it with
        the same products on one shared buffer.
        """
        if (n + 1) ** 2 > budget_ops:
            raise CostGuardError(
                f"dense pushforward at n={n} exceeds the operation budget")
        panels = self._panels(n)[::-1]
        return lambda traj: _wavefront(traj, panels)

    def _panels(self, n: int) -> list[tuple[int, np.ndarray]]:
        """``pushforward``'s column panels of rows 0..n, each row built once and checked."""
        panels = [(c0, np.zeros((n + 1 - c0, min(PANEL_COLUMNS, n + 1 - c0))))
                  for c0 in range(0, n + 1, PANEL_COLUMNS)]
        for j in range(n + 1):
            row = self._checked_row(j)
            if not np.isfinite(row).all():
                raise DPError(f"{self.name}: row {j} is not finite")
            for c0, panel in panels[:j // PANEL_COLUMNS + 1]:
                part = row[c0:c0 + PANEL_COLUMNS]
                panel[j - c0, :part.size] = part
        return panels

    def toeplitz(self, n: int):
        """Rows 1..n as one step law plus boundary terms, or None (the generic rows).

        A kernel whose row m is p_{m,k} = q_{m-k} weight_k / norm_m for
        0 <= k < m, plus zero_m more on k = 0, with p_{m,m} = diag_m, may
        return the arrays (q, weight, norm, zero, diag) over 0..n; the DP
        engine ``exact_dp._first_step`` then runs its rows as one
        correlation with q and builds none of them.  ``norm`` None is each
        row's own Toeplitz mass, the sum over k < m of q_{m-k} weight_k; a
        row whose Toeplitz part is empty is then its boundary terms alone.
        The parts may be views of kept tables: callers never write them.
        The barrier family checks its rows here, and its pmf steppers read them.
        """
        return None

    # -- scaling and targets --------------------------------------------------
    def scaling(self, n: int) -> float:
        """a_n > 0, with a_0 = 1."""
        raise NotImplementedError

    def psi(self, lam: float) -> float:
        """Laplace exponent of the limiting measure mu."""
        if self.mu is None:
            raise ValueError(f"{self.name}: no limit measure attached")
        return laplace_exponent(self.mu, lam)

    def generating(self, n: int, lam: float) -> float:
        """Row transform G_n(lam) = sum_k (k/n)**lam p_{n,k}, memoized; G_0 = 0."""
        key = (n, lam)
        v = self._g_cache.get(key)
        if v is None:
            if lam <= 0.0:
                raise ValueError("the generating function needs lam > 0")
            if n == 0:
                v = 0.0
            else:
                v = float(np.dot((np.arange(n + 1) / n) ** lam, self.row(n)))
            self._g_cache[key] = v
        return v

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def _wavefront(traj: np.ndarray, panels) -> None:
    """Rows 1.. of traj from its row 0, every step on one (c0, panel) before the next."""
    for c0, panel in panels:
        for s in range(1, traj.shape[0]):
            np.dot(traj[s - 1, c0:], panel, out=traj[s, c0:c0 + panel.shape[1]])


# ---------------------------------------------------------------------------
# barrier walk and its truncated / ignored-jump variants
# ---------------------------------------------------------------------------

class _BarrierFamily(Kernel):
    """Walks of i.i.d. steps drawn from q, kept above the barrier at 0.

    The walks differ only in what a step that would cross 0 does.  Each
    subclass states that rule in ``_boundary(qbar)``, the arrays
    (norm, zero, diag) over the states of qbar: row n is q reversed over
    norm_n, plus zero_n on k = 0, with p_{n,n} = diag_n.  The barrier
    divides by 1 - qbar_n, the truncated walk sends qbar_n to 0 and the
    ignored walk adds qbar_n to its diagonal.  ``build_row`` and
    ``absorbing_mask`` read a kept table of that triple, grown by doubling;
    ``toeplitz`` checks its rows 0..n once, and the DP and both pmf
    steppers read them there.  A ``killed`` walk's sampled overflow lands
    on 0 and its limit measure has the killing atom; any other overflow
    waits in place (the barrier's ``step`` makes none).  The truncated and
    ignored walks step the generic panels' wavefront, bit for bit, but
    every panel is a view of one (n + 1) x PANEL_COLUMNS buffer of q
    reversed: a correlation moves their tails at n = 3000 by 4e-14, past
    the oracle values pinned in ``bench/pinned.json``.  The barrier
    overrides ``pushforward`` with a correlation.
    """

    walk = "walk"
    killed = False

    def __init__(self, q: StepDistribution):
        super().__init__()
        self.q = q
        self.name = f"{self.walk}({q.name})"
        if q.gamma is not None and 0.0 < q.gamma < 1.0:
            self.gamma = q.gamma
            self._heavy = True
            self.mu = barrier_measure(self.gamma)
            if self.killed:
                self.mu = atom(1.0, 0.0) + self.mu
        elif math.isfinite(q.mean):
            # finite-mean regime: time scale n, limit is a pure drift
            self.gamma = 1.0
            self._heavy = False
            self.mu = atom(q.mean, 1.0)
        else:
            raise ValueError(
                f"{type(self).__name__} needs a regularly varying tail with "
                "index in (-1, 0), or a step law with finite mean")
        self._table = (np.empty(0),)

    def _boundary_table(self, n: int):
        """``_boundary`` over states 0..m for some m >= n, kept between calls."""
        if self._table[0].size <= n:
            self._table = self._boundary(self.q.tail_upto(max(2 * n, 64)))
        return self._table

    def build_row(self, n: int) -> np.ndarray:
        return self._row_of(n, self.q.pmf_upto(n), *self._boundary_table(n))

    @staticmethod
    def _row_of(n: int, q: np.ndarray, norm, zero, diag) -> np.ndarray:
        """Row n from q_0..q_n and the boundary triple: ``build_row``'s operations."""
        if n == 0:
            return np.ones(1)
        row = q[n::-1].copy()
        if norm[n] != 1.0:  # x / 1.0 is x, and the division costs more than the copy
            row /= norm[n]
        row[0] += zero[n]
        row[n] = diag[n]
        return row

    def pushforward(self, n: int, budget_ops: float = math.inf):
        """``Kernel.pushforward``'s products, every panel a view of one buffer.

        With norm 1, the panel at c0 is the first n + 1 - c0 rows and width
        columns of the windows of q reversed, but on its diagonal (diag from
        c0 on) and, at c0 = 0, in column 0 (q + zero, with row 0's 1).  One
        C-order (n + 1) x PANEL_COLUMNS buffer holds the windows, and each
        panel's diagonal and column are assigned before its steps.  q and
        the triple are ``toeplitz(n)``'s checked parts, only read.
        """
        if (n + 1) ** 2 > budget_ops:
            raise CostGuardError(
                f"dense pushforward at n={n} exceeds the operation budget")
        q, _, _, zero, diag = self.toeplitz(n)
        # row m >= 1 is column_m, q_{m-1}, ..., q_1 and diag_m; row 0 is (1),
        # the one entry that its windows row (q_0, 0, ..., 0) does not hold
        column = q + zero
        column[0] = 1.0
        padded = np.zeros(n + PANEL_COLUMNS)
        padded[PANEL_COLUMNS - 1:] = q
        shared = sliding_window_view(padded, PANEL_COLUMNS)[:, ::-1].copy()  # C order

        def panels():
            shared[:, 0] = q  # the panel at 0 leaves its column there
            for c0 in reversed(range(0, n + 1, PANEL_COLUMNS)):
                width = min(PANEL_COLUMNS, n + 1 - c0)
                panel = shared[:n + 1 - c0, :width]
                np.fill_diagonal(panel, diag[c0:c0 + width])
                if c0 == 0:
                    panel[:, 0] = column
                yield c0, panel
        return lambda traj: _wavefront(traj, panels())

    def scaling(self, n: int) -> float:
        if n == 0:
            return 1.0
        if self._heavy:
            return 1.0 / self.q.tail_at(n)
        return float(n)

    def absorbing_mask(self, states: np.ndarray) -> np.ndarray:
        diag = self._boundary_table(int(states.max(initial=0)))[2]
        return (states == 0) | (diag[states] >= 1.0 - ABSORB_TOL)

    def step(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The step law's quantile of each u, then the overflow rule."""
        landing = states - self.q.quantile(u, int(states.max()))
        return np.where(landing < 0, 0 if self.killed else states, landing)

    def toeplitz(self, n: int):
        """q and views of the kept triple over 0..n, rows checked; records ``absorbing``.

        Row m >= 1 is q_m / norm_m + zero_m, (q_{m-1}, ..., q_1) / norm_m and
        diag_m: running minima and sums of q over norm_m bound it in O(n).  A
        row in doubt is rebuilt by ``_row_of`` and checked by ``_checked_row``.
        """
        q = self.q.pmf_upto(n)
        norm, zero, diag = (part[:n + 1] for part in self._boundary_table(n))
        column = q / norm + zero
        column[0] = 1.0  # row 0 is (1)
        inner = np.concatenate([[np.inf, np.inf], np.minimum.accumulate(q[1:n])])
        low = np.minimum(np.minimum(column, diag), inner[:n + 1] / norm)
        inner = np.concatenate([[0.0, 0.0], np.cumsum(q[1:n])])
        total = column + inner[:n + 1] / norm + diag
        # a summation order moves a sum near 1 by about m * 1e-16, far inside
        # half the tolerance; NaN lands in doubt
        tol = ROW_SUM_TOL * np.maximum(1, np.arange(n + 1))
        doubt = ~(low >= _NEG_CLIP) | ~(np.abs(total - 1.0) <= 0.5 * tol)
        doubt[0] = False
        flags = (diag >= 1.0 - ABSORB_TOL).tolist()
        flags[0] = True
        done = 0
        for j in np.flatnonzero(doubt).tolist():
            self._absorbing_cache.update(zip(range(done, j), flags[done:j]))
            row = self._checked_row(j, self._row_of(j, q, norm, zero, diag))
            if not np.isfinite(row).all():
                raise DPError(f"{self.name}: row {j} is not finite")
            done = j + 1
        self._absorbing_cache.update(zip(range(done, n + 1), flags[done:]))
        return q, np.ones(n + 1), norm, zero, diag


class BarrierKernel(_BarrierFamily):
    """Walk reflected by rejection: steps are conditioned to stay above 0."""

    walk = "barrier"

    def _boundary(self, qbar):
        norm = np.where(qbar < 1.0, 1.0 - qbar, 1.0)
        diag = np.where(qbar < 1.0, self.q.pmf_upto(0)[0] / norm, 1.0)
        return norm, np.zeros_like(qbar), diag

    def step(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        # conditioning on no overflow: invert the step CDF below P(step <= state);
        # the running sums round below 1 - qbar, so cap the level under cdf[state]
        top = int(states.max())
        qbar = self.q.tail_upto(top)[states]
        cap = np.nextafter(self.q.cdf_upto(top)[states], -np.inf)
        return super().step(states, np.minimum(u * (1.0 - qbar), cap))

    def pushforward(self, n: int, budget_ops: float = math.inf):
        """``Kernel.pushforward``'s ``advance`` as a correlation with q.

        Each step weighs rho = pi / norm (zero at a dead state, qbar_m = 1,
        which keeps its mass and sends none) against q: term by term up to
        DIRECT_SUPPORT, else by FFT.  Both divide only up to the last state
        whose norm is not 1.0, since x / 1.0 is x.  The direct path starts
        each step at the lowest state that can hold mass, minus the largest
        step: below it every sum is of exact zeros, so those entries are set
        to 0.0.  The FFT path is scipy's ``fftconvolve(rho[::-1], q)``, with
        q transformed once and rho[::-1] written into one kept zero-padded
        buffer whose spectrum is multiplied in place: the same numbers.
        q and norm are ``toeplitz(n)``'s checked parts, only read.
        """
        q, _, norm, _, _ = self.toeplitz(n)
        dead = np.flatnonzero(self.q.tail_upto(n) >= 1.0)
        scaled = np.flatnonzero(norm != 1.0)
        top = int(scaled[-1]) + 1 if scaled.size else 0
        nz = np.flatnonzero(q).tolist()
        reach = nz[-1] if nz else 0
        rho = np.empty(n + 1)

        def weigh(pi: np.ndarray, lo: int) -> np.ndarray:
            """rho[lo:] from pi[lo:]; returns the dead states from lo on."""
            mid = max(lo, top)
            np.divide(pi[lo:mid], norm[lo:mid], out=rho[lo:mid])
            rho[mid:] = pi[mid:]
            low = dead[dead >= lo]
            rho[low] = 0.0
            return low

        def direct(traj: np.ndarray) -> None:
            mass = np.flatnonzero(traj[0])
            lo = int(mass[0]) if mass.size else n + 1
            for s in range(1, traj.shape[0]):
                pi, out = traj[s - 1], traj[s]
                # lo bounds pi's lowest state with mass from below: no output under lo - reach
                lo = max(lo - reach, 0)
                low = weigh(pi, lo)
                out[:lo] = 0.0
                if q[0] != 0.0:
                    np.multiply(rho[lo:], q[0], out=out[lo:])
                else:
                    out[lo:] = 0.0
                for z in nz:
                    if 0 < z <= n - lo:
                        out[lo:n + 1 - z] += q[z] * rho[lo + z:]
                out[low] += pi[low]

        if reach <= DIRECT_SUPPORT:
            return direct
        size = next_fast_len(2 * n + 1, real=True)
        q_hat = rfft(q, size)
        padded = np.zeros(size)

        def by_fft(traj: np.ndarray) -> None:
            for s in range(1, traj.shape[0]):
                pi, out = traj[s - 1], traj[s]
                low = weigh(pi, 0)
                padded[:n + 1] = rho[::-1]
                spectrum = rfft(padded)
                spectrum *= q_hat
                np.clip(irfft(spectrum, size)[n::-1], 0.0, None, out=out)
                out[low] += pi[low]
        return by_fft


class TruncatedKernel(_BarrierFamily):
    """Overflowing jumps send the walk straight to 0 (killing in the limit).

    In the finite-mean regime the overflow probability dies out faster than
    the 1/n time scale, so no killing survives in the limit there.
    """

    walk = "truncated"
    killed = True

    def _boundary(self, qbar):
        return np.ones_like(qbar), qbar, np.full(qbar.shape, self.q.pmf_upto(0)[0])


class IgnoredJumpKernel(_BarrierFamily):
    """Overflowing jumps are simply ignored (the walk waits in place)."""

    walk = "ignored"

    def _boundary(self, qbar):
        return np.ones_like(qbar), np.zeros_like(qbar), self.q.pmf_upto(0)[0] + qbar


def barrier_kernel(q: StepDistribution) -> BarrierKernel:
    return BarrierKernel(q)


def truncated_kernel(q: StepDistribution) -> TruncatedKernel:
    return TruncatedKernel(q)


def ignored_jump_kernel(q: StepDistribution) -> IgnoredJumpKernel:
    return IgnoredJumpKernel(q)


# ---------------------------------------------------------------------------
# canonical kernel realizing a prescribed (mu, a_n)
# ---------------------------------------------------------------------------

def _binomial_mixture(log_c, p, q, terms, atoms, upper=1.0) -> np.ndarray:
    """exp(log_c) times the integrals of x^p (1-x)^q over (0, upper), entrywise.

    The measure comes in parts: Beta terms (the canonical kernel's, with
    upper < 1; the other kernels use ``_beta_term_entries``) and interior
    atoms (location, mass).  Endpoint atoms are the caller's.
    """
    out = np.zeros(len(log_c))
    for t in terms:
        val = t.coef * np.exp(log_c + betaln(p + t.a, q + t.b))
        out += val * betainc(p + t.a, q + t.b, upper)
    for loc, mass in atoms:
        if loc < upper:
            out += mass * np.exp(log_c + p * math.log(loc) + q * math.log1p(-loc))
    return out


def _beta_term_entries(terms, n: int, count: int) -> np.ndarray:
    """Sum over (coef, alpha, beta) of coef C(n, i) B(i + alpha, n - i + beta), i < count.

    Each term is coef P(n) R_alpha(i) R_beta(n - i), with R_s(j) =
    Gamma(j + s) / j! and P(n) = n! / Gamma(n + alpha + beta) = 1 /
    R_{alpha+beta}(n), all read from ``gamma_ratio_table``.
    """
    out = np.zeros(count)
    for coef, alpha, beta in terms:
        scale = coef / gamma_ratio_table(alpha + beta, n + 1)[n]
        out += scale * gamma_ratio_table(alpha, count)[:count] \
            * gamma_ratio_table(beta, n + 1)[n:n - count:-1]
    return out


class CanonicalKernel(Kernel):
    """Mixture-of-binomials rows realizing any prescribed limit pair.

    Rows mix binomial laws over [0, 1 - 1/a_n), add a single corrective
    entry carrying the mass of mu at 1, and park the residual on the
    diagonal.  Fails loudly (negative entry / bad sum) when n is too
    small for the construction.
    """

    def __init__(self, mu: FiniteMeasure, gamma: float, scale: float = 1.0):
        super().__init__()
        if gamma <= 0.0:
            raise ValueError("canonical kernel needs gamma > 0")
        self.mu = mu
        self.gamma = gamma
        self._scale = float(scale)
        self._mass = mu.total_mass
        self._mu_p = mu if abs(self._mass - 1.0) < 1e-14 else mu.scaled(1.0 / self._mass)
        self.gamma_prime = (max(1.0, gamma) + gamma + 1.0) / 2.0
        self.name = f"canonical(gamma={gamma:g})"

    def scaling(self, n: int) -> float:
        if n == 0:
            return 1.0
        return self._scale * n ** self.gamma

    def build_row(self, n: int) -> np.ndarray:
        if n == 0:
            return np.ones(1)
        a_eff = self.scaling(n) / self._mass
        upper = 1.0 - 1.0 / a_eff
        mu_p = self._mu_p
        entries = np.zeros(n + 1)
        if upper > 0.0:
            k = np.arange(n)
            entries[:n] = _binomial_mixture(
                log_binom(n, k), k, n - k - 1, mu_p.beta_terms, mu_p.interior_atoms, upper)
            entries[0] += mu_p.atom0
        entries /= a_eff
        if mu_p.atom1 > 0.0:
            k_star = n - math.floor(n ** self.gamma_prime / a_eff)
            if not 0 <= k_star <= n - 1:
                raise KernelConstructionError(
                    f"{self.name}: corrective index {k_star} outside row {n} "
                    "(n too small for the chosen scaling)")
            entries[k_star] += n ** (1.0 - self.gamma_prime) * mu_p.atom1
        entries[n] = 1.0 - math.fsum(memoryview(entries[:n]))
        return entries


def canonical_kernel(mu: FiniteMeasure, gamma: float, scale: float = 1.0) -> CanonicalKernel:
    return CanonicalKernel(mu, gamma, scale)


# ---------------------------------------------------------------------------
# block-counting chain of multiple-merger coalescents
# ---------------------------------------------------------------------------

class CoalescentKernel(Kernel):
    """Embedded jump chain of the block count, driven by a finite measure.

    The (n -> k) collision rate is C(n, k-1) times the Beta-type integral
    of x^(n-k-1) (1-x)^(k-1) against the driving measure; rows are the
    normalized rates.  State 1 is absorbing (the chain counts collisions).
    The scaling sequence is h(1/n) with h(u) the integral of x^-2 over
    [u, 1], and the limiting measure is pinned so its Laplace exponent is
    the h-normalized one (no free constant left).  The tail index is
    beta = 2 - min a over the Beta terms of the driving measure; a purely
    atomic one has none (h is slowly varying).
    """

    def __init__(self, lam_measure: FiniteMeasure, name: str | None = None):
        super().__init__()
        if lam_measure.atom0 != 0.0:
            raise ValueError("coalescent kernel needs Lambda({0}) = 0")
        L = self.Lambda = lam_measure
        beta = None
        if L.beta_terms:
            beta = 2.0 - min(t.a for t in L.beta_terms)
            if not 0.0 < beta < 1.0:  # beta < 1 is also the finite dust integral
                raise ValueError(f"coalescent regime needs beta = 2 - min a in (0, 1), got "
                                 f"{beta} (a <= 1 makes the integral of 1/x against Lambda diverge)")
        self.beta = beta
        self.gamma = beta
        gam = math.gamma(2.0 - beta) if beta is not None else 1.0
        self.mu = FiniteMeasure(
            atom0=L.atom1 / gam,
            interior_atoms=tuple((1.0 - loc, m / (loc * gam)) for loc, m in L.interior_atoms),
            beta_terms=tuple(BetaTerm(t.coef / gam, t.b, t.a - 1.0) for t in L.beta_terms))
        self._h_cache: dict[int, float] = {}
        self.name = name or "coalescent"

    def h(self, u: float) -> float:
        """Integral of x^-2 against the driving measure over [u, 1]."""
        if not 0.0 < u <= 1.0:
            raise ValueError("h is defined on (0, 1]")
        val = self.Lambda.atom1 + sum(m / loc ** 2 for loc, m in
                                      self.Lambda.interior_atoms if loc >= u)
        for t in self.Lambda.beta_terms:
            if t.b == 1.0:
                if t.a == 2.0:
                    val += t.coef * (-math.log(u))
                elif u > 0.5:  # u^(a-2) - 1 cancels as u -> 1
                    val += t.coef * math.expm1((t.a - 2.0) * math.log(u)) / (2.0 - t.a)
                else:
                    val += t.coef * (u ** (t.a - 2.0) - 1.0) / (2.0 - t.a)
            elif u < 1.0:
                # coef B_{1-u}(b, a - 2): the jump tail of the unit term
                # (coef, b, a - 2) at the level y with e^-y = 1 - u
                unit = BetaTerm(t.coef, t.b, t.a - 2.0)
                val += float(measures._beta_image_tail(unit, -math.log1p(-u)))
        return val

    def scaling(self, n: int) -> float:
        if n == 0:
            return 1.0
        v = self._h_cache.get(n)
        if v is None:
            v = self.h(1.0 / n)
            self._h_cache[n] = v
        return v

    def collision_rates(self, n: int) -> np.ndarray:
        """Unnormalized rates g_{n,k}, k = 0..n (zero outside 1..n-1)."""
        g = np.zeros(n + 1)
        if n < 2:
            return g
        L = self.Lambda
        # i = k - 1 merged blocks stay: alpha = b, beta = a - 2
        g[1:n] = _beta_term_entries([(t.coef, t.b, t.a - 2.0) for t in L.beta_terms], n, n - 1)
        if L.interior_atoms:
            k = np.arange(1, n)
            g[1:n] += _binomial_mixture(log_binom(n, k - 1), n - k - 1, k - 1, (),
                                        L.interior_atoms)
        g[1] += L.atom1
        return g

    def total_rate(self, n: int) -> float:
        return math.fsum(memoryview(self.collision_rates(n)))

    def build_row(self, n: int) -> np.ndarray:
        if n == 0:
            return np.ones(1)
        if n == 1:
            return np.array([0.0, 1.0])
        g = self.collision_rates(n)
        return g / g.sum()

    def absorbing_mask(self, states: np.ndarray) -> np.ndarray:
        # p_{n,n} = 0 for n >= 2, so only 0 and the single block absorb
        return states <= 1

    def toeplitz(self, n: int):
        """One Beta term and no atoms: weight_k = R_b(k - 1) and q_m = R_{a-2}(m + 1)."""
        L = self.Lambda
        if len(L.beta_terms) != 1 or L.interior_atoms or L.atom1:
            return None
        t = L.beta_terms[0]
        weight = np.zeros(n + 1)
        weight[1:] = gamma_ratio_table(t.b, n)[:n]
        q = gamma_ratio_table(t.a - 2.0, n + 2)[1:n + 2]
        return q, weight, None, np.zeros(n + 1), (np.arange(n + 1) <= 1).astype(float)


def coalescent_kernel(lam_measure: FiniteMeasure) -> CoalescentKernel:
    return CoalescentKernel(lam_measure)


def beta_coalescent_kernel(a: float, b: float) -> CoalescentKernel:
    """Block-counting kernel of the Beta(a, b) coalescent, 1 < a < 2."""
    return CoalescentKernel(measures.beta_density(a, b), name=f"beta_coalescent({a:g},{b:g})")


# ---------------------------------------------------------------------------
# strictly decreasing chains of regenerative compositions
# ---------------------------------------------------------------------------

class CompositionKernel(Kernel):
    """Chain whose increments spell out a regenerative composition.

    Built from a jump measure omega on (0, inf): rows are binomial
    mixtures against the image of omega under x = e^-y, normalized by
    Z_n (which doubles as the scaling sequence, so normalization errors
    cancel at first order).  The image is omega's atoms at e^-y and its
    ``unit_beta_terms``.  The chain is strictly decreasing: p_{n,n}=0.
    """

    name = "composition"

    def __init__(self, omega: LevyMeasure):
        super().__init__()
        if omega.is_zero:
            raise ValueError("composition kernel needs a non-zero jump measure")
        self.omega = omega
        self.gamma = omega.tail_index
        # unit-interval image of omega: beta terms and/or atoms at e^-y
        self._unit_terms = omega.unit_beta_terms
        self._unit_atoms = tuple((math.exp(-y), m) for y, m in omega.atoms)
        self.mu = FiniteMeasure(
            interior_atoms=tuple((x0, m * (1.0 - x0)) for x0, m in self._unit_atoms),
            beta_terms=tuple(BetaTerm(t.coef, t.a, t.b + 1.0) for t in self._unit_terms))
        self._z_cache: dict[int, float] = {}

    def _unnormalized(self, n: int) -> np.ndarray:
        """C(n, k) times the integrals of x^k (1-x)^(n-k) against the unit image, k < n."""
        un = _beta_term_entries([(t.coef, t.a, t.b) for t in self._unit_terms], n, n)
        if self._unit_atoms:
            k = np.arange(n)
            un += _binomial_mixture(log_binom(n, k), k, n - k, (), self._unit_atoms)
        return un

    def scaling(self, n: int) -> float:
        if n == 0:
            return 1.0
        z = self._z_cache.get(n)
        if z is None:
            z = math.fsum(memoryview(self._unnormalized(n)))
            self._z_cache[n] = z
        return z

    def build_row(self, n: int) -> np.ndarray:
        if n == 0:
            return np.ones(1)
        un = self._unnormalized(n)
        z = math.fsum(memoryview(un))
        self._z_cache.setdefault(n, z)
        row = np.zeros(n + 1)
        row[:n] = un / z
        return row

    def absorbing_mask(self, states: np.ndarray) -> np.ndarray:
        return states == 0  # p_{n,n} = 0 for n >= 1

    def toeplitz(self, n: int):
        """One Beta term and no atoms: weight_k = R_a(k) and q_m = R_b(m)."""
        if len(self._unit_terms) != 1 or self._unit_atoms:
            return None
        t = self._unit_terms[0]
        q = gamma_ratio_table(t.b, n + 1)[:n + 1].copy()
        q[0] = 0.0  # never read, and nan where b <= 0
        zeros = np.zeros(n + 1)
        return q, gamma_ratio_table(t.a, n + 1)[:n + 1], None, zeros, zeros


def composition_kernel(omega: LevyMeasure) -> CompositionKernel:
    return CompositionKernel(omega)


# ---------------------------------------------------------------------------
# explicit kernels (tests, toy models) and the absorbing-set collapse
# ---------------------------------------------------------------------------

class ExplicitKernel(Kernel):
    """Kernel with rows supplied directly; for toy models and tests."""

    def __init__(self, rows: Callable[[int], Sequence[float]],
                 scaling: Callable[[int], float] | None = None,
                 gamma: float | None = None, mu: FiniteMeasure | None = None,
                 name: str = "explicit"):
        super().__init__()
        self._rows = rows
        self._scaling = scaling
        self.gamma = gamma
        self.mu = mu
        self.name = name

    def build_row(self, n: int) -> np.ndarray:
        return np.array(self._rows(n), dtype=float)  # the caller's array stays theirs

    def scaling(self, n: int) -> float:
        if n == 0:
            return 1.0
        if self._scaling is None:
            raise ValueError(f"{self.name}: no scaling sequence attached")
        return float(self._scaling(n))


class CollapsedKernel(Kernel):
    """Rows of the base kernel with every absorbing state rerouted to 0.

    Absorption times shift by at most one step; on coupled randomness the
    collapsed chain follows the base chain exactly until absorption.
    """

    def __init__(self, base: Kernel):
        super().__init__()
        self.base = base
        self.gamma = base.gamma
        self.mu = base.mu
        self.name = f"collapsed({base.name})"

    def build_row(self, n: int) -> np.ndarray:
        if n == 0:
            return np.ones(1)
        row = self.base.validated_row(n)  # base.row(n) would cache every row it visits
        if self.base.absorbing(n):  # recorded by the validation above: no second build
            out = np.zeros(n + 1)
            out[0] = 1.0
            return out
        return row

    def absorbing(self, n: int) -> bool:
        return n == 0

    def toeplitz(self, n: int):
        """The base's parts, with each absorbing state's row sent whole to 0.

        A given norm turns infinite there, which empties the Toeplitz part;
        a base without one has an empty part at its absorbing states already.
        """
        parts = self.base.toeplitz(n)
        if parts is None:
            return None
        q, weight, norm, zero, diag = parts
        stuck = self.base.absorbing_mask(np.arange(n + 1))
        if norm is not None:
            norm = np.where(stuck, np.inf, norm)
        return q, weight, norm, np.where(stuck, 1.0, zero), np.where(stuck, 0.0, diag)

    def scaling(self, n: int) -> float:
        return self.base.scaling(n)

    def psi(self, lam: float) -> float:
        return self.base.psi(lam)


def collapse_absorbing(kernel: Kernel) -> CollapsedKernel:
    """Reroute every absorbing state to 0, leaving other rows untouched."""
    return CollapsedKernel(kernel)


# ---------------------------------------------------------------------------
# the convergence diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticEntry:
    n: int
    lam: float
    value: float
    target: float

    @property
    def rel_error(self) -> float:
        if self.target == 0.0:
            return math.inf if self.value != 0.0 else 0.0
        return abs(self.value - self.target) / abs(self.target)


@dataclass(frozen=True)
class DiagnosticTable:
    entries: tuple[DiagnosticEntry, ...]
    verdicts: dict[float, TrendReport]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def to_csv(self) -> str:
        lines = ["n,lambda,value,target,rel_error"]
        for e in self.entries:
            lines.append(f"{e.n},{float(e.lam)!r},{float(e.value)!r},"
                         f"{float(e.target)!r},{float(e.rel_error)!r}")
        return "\n".join(lines) + "\n"

    def __str__(self):
        out = []
        for lam, v in sorted(self.verdicts.items()):
            out.append(f"lambda={lam:g}: {v}")
        return "\n".join(out)


def hypothesis_h_diagnostic(kernel: Kernel, lambda_grid: Sequence[float],
                            n_grid: Sequence[int],
                            threshold: float = math.inf) -> DiagnosticTable:
    """Tabulate a_n (1 - G_n(lam)) against the target exponent psi(lam).

    For each lambda the relative errors along the (increasing) n grid get
    a slack-monotonicity verdict with noise floor DIAGNOSTIC_FLOOR;
    failures are reported as verdicts, not exceptions.
    """
    n_grid = sorted(int(n) for n in n_grid)
    entries = []
    verdicts = {}
    for lam in lambda_grid:
        target = kernel.psi(lam)
        errs = []
        for n in n_grid:
            g = kernel.generating(n, lam)  # first: a_n may reuse what row n's build kept
            value = kernel.scaling(n) * (1.0 - g)
            e = DiagnosticEntry(n, lam, value, target)
            entries.append(e)
            errs.append(e.rel_error)
        verdicts[lam] = trend_verdict(errs, threshold, floor=DIAGNOSTIC_FLOOR)
    return DiagnosticTable(tuple(entries), verdicts)
