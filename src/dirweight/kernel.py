"""Numeric kernel evaluation on half-planes and Gram positivity checks.

Three kernel routes are exposed for a weight family w:

* ``weight_kernel``: the reproducing kernel of the weighted space,
  sum over j >= max(k, 2) of w_j j^(-s - conj(u));
* ``condition_kernel_ratio``: the normalized kernel obtained by dividing
  the delta-shifted weight kernel (summed from the family start index k,
  so the k = 1 families keep their j = 1 term) by the full zeta kernel
  sum over j >= 1 of j^(-s - conj(u));
* ``condition_kernel_series``: the same object expanded as a Dirichlet
  series whose n-th coefficient is the Mobius-convolution condition value
  S(n); nonnegative condition values over the whole range make this
  kernel positive semidefinite, which is what ``gram_psd`` witnesses on a
  finite grid.

Every evaluation returns a value plus a rigorous truncation tail bound;
a Gram verdict of "indefinite" must clear the accumulated truncation
budget, because the statement being tested concerns the exact kernel.

The three functions, ``default_grid`` and ``gram_psd`` share one
``_Route``: its tail bound (c, tau) and point abscissa, each entry's
truncation (``terms``), the coefficient table (``table``) and the entries
with their tails (``entries``, which alone propagates the quotient's
error).  ``entries`` makes one ``_accel.power_sum`` call for every pair
(a, b, n) of a run: the engine walks j in blocks of B = 2^13, builds one
column j^(-s) per point and block (a real exp when Im s = 0) and sums each
entry as one BLAS dot per block, short enough for BLAS to take on one
thread, so the columns of m points take about m B 32 bytes.  The ratio
route folds j^(-delta) into its table and reads its zeta denominators from
the same columns.  Tables stream: the weights and the exact lane's
factored S column (``condition.series_column``, the int64 window of
``condition._factored`` cast to float64) are ``_accel.Column``s, filled
one window of 2^16 entries at a time from one ``_accel.PrimePowers``; only
divisor-sum S columns are built whole.  An eval-kernel value thus equals
the Gram entry at the same point and per-entry target bit for bit: block
partials do not depend on the entries that share the pass, a window is the
same slice of the table at any length, and a float S(n) column up to
TRUNCATION_CAP is a prefix of a longer one (see ``_accel._convolve``),
equal to the exact lane's factored column where that is taken.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _accel, arith, condition
from .series import EvaluatedValue, power_tail_bound, terms_for_tail
from .weights import WeightFamily

TRUNCATION_CAP = 1_000_000
UNCERTIFIED_TERMS = 100_000
MAX_POINTS = 64

PSD_TOL = "psd_within_tol"
INDEFINITE = "indefinite_certified"
INCONCLUSIVE = "inconclusive"

ROUTES = ("weight", "ratio", "series")

# the quotient route's propagated error is roughly (1 + |ratio|) times the
# raw tails, so its truncations are solved against a fraction of the target
_RATIO_MARGIN = 8.0


@dataclass(frozen=True)
class HalfPlanePoint:
    """A finite point s with Re(s) > min_re, validated at construction."""

    s: complex
    min_re: float

    def __post_init__(self):
        if not cmath.isfinite(self.s):
            raise ValueError(f"point {self.s} is not finite")
        if not self.s.real > self.min_re:
            raise ValueError(f"point {self.s} outside the half-plane Re > {self.min_re}")


def beta_abscissa(w: WeightFamily, delta: float | None = None) -> float:
    """Half-plane parameter for the normalized kernel routes:
    0.5 * max(sigma - delta, 1)."""
    delta = condition._mode(w, delta)[0]
    return 0.5 * max(w.sigma - delta, 1.0)


@dataclass(frozen=True)
class _Route:
    """One kernel route for a family at a resolved delta: the tail bound
    |coefficient_j| <= c j^tau, the abscissa every point must clear, and
    the start index of the power sums."""

    kernel: str
    family: WeightFamily
    delta: float
    c: float
    tau: float
    abscissa: float
    start: int

    def tail_target(self, target: float) -> float:
        return target / _RATIO_MARGIN if self.kernel == "ratio" else target

    def terms(self, sigma_t: float, target: float) -> int:
        """Truncation length N for an entry at Re(s + conj(u)) = sigma_t;
        the quotient's numerator and denominator share one N."""
        target = self.tail_target(target)
        n = _pick_terms(self.c, self.tau, sigma_t, target)
        if self.kernel == "ratio":
            n = max(n, _pick_terms(1.0, 0.0, sigma_t, target))
        return n

    def table(self, n: int):
        """Coefficients 0..n of the power sums: the weights as an
        _accel.Column of their windows, folded with j^(-delta) on the ratio
        route; for the series route S(n), condition.series_column."""
        w = self.family
        if self.kernel == "series":
            return condition.series_column(w, self.delta, n)
        window = weights = w.windows(_accel.PrimePowers(n))
        if self.kernel == "ratio" and self.delta != 0.0:

            def window(lo, hi):  # power_sum reads from j = 1
                return weights(lo, hi) * np.arange(lo, hi, dtype=np.float64) ** -self.delta

        return _accel.Column(n, window)

    def entries(self, table, points, pairs) -> list[tuple[complex, float]]:
        """(value, tail bound) of each pair (a, b, n): the entry at
        z = s_a + conj(s_b) from table[:n + 1], all from one power_sum
        pass.  A value that is not finite, and a quotient whose denominator
        does not clear its own tail bound, get an infinite tail:
        inconclusive."""
        ratio = self.kernel == "ratio"
        sums = _accel.power_sum(table, self.start, points, pairs, zeta=ratio)
        values, dens = (x.tolist() for x in sums) if ratio else (sums.tolist(), None)
        out = []
        for k, (a, b, n) in enumerate(pairs):
            value, sigma_t = values[k], points[a].real + points[b].real
            tail = power_tail_bound(self.c, self.tau, sigma_t, n)
            if ratio:
                den, tail_den = dens[k], power_tail_bound(1.0, 0.0, sigma_t, n)
                if not abs(den) > tail_den:
                    out.append((complex(math.nan), math.inf))
                    continue
                value /= den
                if not math.isinf(tail):
                    tail = (tail + abs(value) * tail_den) / (abs(den) - tail_den)
            out.append((value, tail if cmath.isfinite(value) else math.inf))
        return out


def _route(w: WeightFamily, delta: float | None, kernel: str) -> _Route:
    delta = condition._mode(w, delta)[0]
    c, tau = w.growth_bound
    if kernel == "weight":
        return _Route(kernel, w, delta, c, tau, w.sigma / 2.0, max(w.start_index, 2))
    beta = beta_abscissa(w, delta)
    if kernel == "ratio":
        return _Route(kernel, w, delta, c, tau - delta, beta, w.start_index)
    if kernel == "series":
        # |S(n)| <= d(n) max_j j^(-delta) w_j and d(n) <= 2 sqrt(n); an additive S at
        # delta = 0 lives on the prime powers, |S(p^r)| <= |w_(p^r)| + |w_(p^(r-1))| <= 2c p^(r tau)
        on_prime_powers = w.kind == "additive" and w.start_index == 2 and delta == 0.0 and tau >= 0
        tau = tau if on_prime_powers else max(tau - delta, 0.0) + 0.5
        return _Route(kernel, w, delta, 2.0 * c, tau, beta, 1)
    raise ValueError(f"unknown kernel route {kernel!r}; pick from {ROUTES}")


def _pick_terms(c: float, tau: float, sigma_t: float, target: float) -> int:
    """N solved from the tail formula, clamped to [64, TRUNCATION_CAP]."""
    n = terms_for_tail(c, tau, sigma_t, target)
    return UNCERTIFIED_TERMS if n is None else min(max(n, 64), TRUNCATION_CAP)


def _evaluate(route: _Route, s: complex, u: complex, tol: float) -> EvaluatedValue:
    arith._check_tol(tol)
    s, u = complex(s), complex(u)
    z = s + u.conjugate()
    w = route.family
    for p in (s, u):  # the weight route bounds only Re(s) + Re(u)
        HalfPlanePoint(p, -math.inf if route.kernel == "weight" else route.abscissa)
    if route.kernel == "weight" and not z.real > w.sigma:
        raise ValueError(f"Re(s)+Re(u) = {z.real} is not past the abscissa {w.sigma} of {w.name}")
    n = route.terms(z.real, tol)
    [(value, tail)] = route.entries(route.table(n), [s, u], [(0, 1, n)])
    return EvaluatedValue(value, tail, n)


def weight_kernel(w: WeightFamily, s: complex, u: complex, tol: float = 1e-6) -> EvaluatedValue:
    """Partial sum of the weighted kernel at (s, u) with a certified tail.

    Requires Re(s) + Re(u) > sigma_w (absolute convergence); the tail is
    finite only when the sum of real parts also clears the growth
    threshold tau + 1.
    """
    return _evaluate(_route(w, None, "weight"), s, u, tol)


def condition_kernel_ratio(
    w: WeightFamily, s: complex, u: complex, delta: float | None = None,
    tol: float = 1e-8,
) -> EvaluatedValue:
    """Normalized kernel via the quotient route.

    Numerator and denominator share the same truncation length so their
    error budgets compose; if the denominator partial sum is smaller than
    its own tail bound the result carries an infinite bound (inconclusive).
    """
    return _evaluate(_route(w, delta, "ratio"), s, u, tol)


def condition_kernel_series(
    w: WeightFamily, delta: float | None, s: complex, u: complex,
    tol: float = 1e-8,
) -> EvaluatedValue:
    """Normalized kernel via its coefficient expansion: partial sum of
    S(n) n^(-s - conj(u)) with S computed by the condition sieve.  The
    tail bound dominates |S(n)| by the divisor-count bound, or, for an
    additive family at delta = 0, by its prime-power bound (see _route)."""
    return _evaluate(_route(w, delta, "series"), s, u, tol)


# ---------------------------------------------------------------------------
# Gram checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GramCheck:
    """A finite positivity witness: sample points, the Hermitian Gram
    matrix of kernel evaluations, its smallest eigenvalue, and the
    truncation error budget the verdict had to clear."""

    family: str
    kernel: str
    delta: float
    points: tuple
    matrix: np.ndarray
    min_eigenvalue: float
    truncation_bound: float
    tol: float
    verdict: str
    n_terms_max: int

    @property
    def budget(self) -> float:
        return len(self.points) * self.truncation_bound

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "kernel": self.kernel,
            "delta": self.delta,
            "points": [[p.real, p.imag] for p in self.points],
            "matrix": [
                [[v.real, v.imag] for v in row] for row in self.matrix.tolist()
            ],
            "min_eigenvalue": self.min_eigenvalue,
            "truncation_bound": self.truncation_bound,
            "error_budget": self.budget,
            "tol": self.tol,
            "verdict": self.verdict,
            "n_terms_max": self.n_terms_max,
        }


def default_grid(
    w: WeightFamily,
    kernel: str = "series",
    tol: float = 1e-10,
    n_points: int = 8,
    delta: float | None = None,
) -> list[complex]:
    """Deterministic sample grid: geometrically spaced real parts on a
    unit interval, plus one conjugate pair to exercise complex arithmetic.

    The interval is pushed far enough right that every pairwise sum of
    real parts admits a certified tail below tol / (10 n_points) within
    the truncation cap; the spacing base is therefore family- and
    route-dependent (documented, overridable by passing explicit points).
    n_points must lie in [1, MAX_POINTS].
    """
    if not 1 <= n_points <= MAX_POINTS:
        raise ValueError(f"need between 1 and {MAX_POINTS} points, got n_points = {n_points}")
    route = _route(w, delta, kernel)
    x = _solve_cap_exponent(route.c, route.tail_target(tol / (10.0 * n_points)))
    g = max(route.abscissa, (route.tau + 1.0 + x) / 2.0) + 0.05
    n_real = n_points if n_points < 3 else n_points - 2
    offsets = np.logspace(-2, 0, n_real)
    points = [complex(g + off, 0.0) for off in offsets]
    if n_points >= 3:
        mid = g + 0.5
        points.append(complex(mid, 0.35))
        points.append(complex(mid, -0.35))
    return points


def _solve_cap_exponent(c_eff: float, target: float) -> float:
    """Smallest x with c_eff * CAP^(-x) / x <= target (bisection)."""
    if c_eff <= 0:
        return 1e-6
    ln_cap = math.log(TRUNCATION_CAP)

    def f(x):
        return c_eff * math.exp(-x * ln_cap) / x

    lo, hi = 1e-9, 1.0
    while f(hi) > target and hi < 256:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def gram_psd(
    w: WeightFamily,
    delta: float | None = None,
    points=None,
    kernel: str = "series",
    tol: float = 1e-10,
    n_points: int = 8,
) -> GramCheck:
    """Hermitian Gram matrix of kernel evaluations and its verdict.

    Every entry (i, j) with i < j is computed once and mirrored by
    conjugation; a diagonal entry is written once, as its real part.  An
    "indefinite" verdict requires the most negative eigenvalue to clear
    tol plus the accumulated truncation budget n_points * max_entry_tail;
    entries that cannot reach their tail target within the truncation cap
    make the verdict "inconclusive", never a silent answer.
    """
    arith._check_tol(tol)
    route = _route(w, delta, kernel)
    if points is None:
        points = default_grid(w, kernel, tol, n_points, delta)
    points = [complex(p) for p in points]
    if not 1 <= len(points) <= MAX_POINTS:
        raise ValueError(f"need between 1 and {MAX_POINTS} points, got {len(points)}")
    for p in points:
        HalfPlanePoint(p, route.abscissa)

    m = len(points)
    target = tol / (10.0 * m)
    pairs = [(i, j, route.terms((points[i] + points[j].conjugate()).real, target))
             for i in range(m) for j in range(i, m)]
    # one shared coefficient table at the largest truncation any entry needs
    n_max = max(64, *(n for *_, n in pairs))
    table = route.table(n_max)

    matrix = np.zeros((m, m), dtype=np.complex128)
    worst_tail = 0.0
    certified = True
    for (i, j, _), (value, tail) in zip(pairs, route.entries(table, points, pairs)):
        if i == j:  # z = s + conj(s) is real: the imaginary part is a signed zero
            matrix[i, i] = value.real
        else:
            matrix[i, j], matrix[j, i] = value, value.conjugate()
        if not (math.isfinite(tail) and tail <= target * (1 + 1e-9)):
            certified = False
        worst_tail = max(worst_tail, tail)

    # a matrix that is not finite has no eigenvalues to speak of
    finite = bool(np.isfinite(matrix).all())
    min_eig = float(np.linalg.eigvalsh(matrix)[0]) if finite else math.nan
    budget = m * worst_tail
    if not (certified and finite):
        verdict = INCONCLUSIVE
    elif min_eig < -(tol + budget):
        verdict = INDEFINITE
    else:
        verdict = PSD_TOL

    return GramCheck(
        family=w.name,
        kernel=kernel,
        delta=route.delta,
        points=tuple(points),
        matrix=matrix,
        min_eigenvalue=min_eig,
        truncation_bound=worst_tail,
        tol=tol,
        verdict=verdict,
        n_terms_max=n_max,
    )
