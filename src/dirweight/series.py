"""Truncated formal Dirichlet series: coefficient vectors (a_1..a_N)
standing for sum a_j j^(-s), with exact (int/Fraction) and float modes.

Convolution never reads past the truncation, so every coefficient of a
length-N product is exact for indices <= N.  Numeric evaluation returns a
value together with a rigorous truncation tail bound obtained by integral
comparison from a caller-supplied dominating bound |a_j| <= C j^tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .arith import ResourceLimitError, _check_positive, mobius_sieve
from .weights import _is_exact, _parse_scalar

EXACT = "exact"
FLOAT = "float"

#: Reference values of zeta at small integers, 15+ digits.  External
#: constants (standard tables), used by tests and documented as such.
ZETA_TABLE = {
    2: 1.6449340668482264,
    3: 1.2020569031595943,
    4: 1.0823232337111382,
}

MAX_SERIES_LEN = 2_000_000


@dataclass(frozen=True)
class EvaluatedValue:
    """A numeric evaluation plus a rigorous bound on |truncation error|.

    ``tail_bound`` is finite only when the evaluation abscissa exceeds the
    growth threshold tau + 1; ``math.inf`` means "no certificate".
    """

    value: complex
    tail_bound: float
    n_terms: int = 0

    @property
    def certified(self) -> bool:
        return math.isfinite(self.tail_bound)


def power_tail_bound(c: float, tau: float, sigma: float, n: int) -> float:
    """Bound on sum_{j>n} C j^(tau-sigma) by integral comparison:
    C n^(tau+1-sigma) / (sigma-tau-1), finite iff sigma > tau + 1."""
    if c < 0:
        raise ValueError("growth constant C must be >= 0")
    if c == 0:
        return 0.0
    gap = sigma - tau - 1.0
    if gap <= 0 or c == math.inf:  # inf * an underflowed n^(-gap) would be NaN
        return math.inf
    return c * n ** (-gap) / gap


def terms_for_tail(c: float, tau: float, sigma: float, target: float) -> int | None:
    """Smallest n with power_tail_bound(...) <= target, or None if sigma
    is not past the threshold."""
    if c < 0:
        raise ValueError("growth constant C must be >= 0")
    if c == 0:
        return 1
    gap = sigma - tau - 1.0
    if gap <= 0 or target <= 0:
        return None
    try:
        n = (c / (target * gap)) ** (1.0 / gap)
    except OverflowError:
        n = math.inf
    if not math.isfinite(n) or n > 1e18:
        return 10**18  # far past any cap; callers clamp
    return max(1, math.ceil(n))


@dataclass(frozen=True)
class FormalDirichletSeries:
    """Coefficients a_1..a_N of a truncated Dirichlet series."""

    coeffs: tuple
    mode: str

    def __post_init__(self):
        if self.mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown arithmetic mode {self.mode!r}")
        if len(self.coeffs) < 1:
            raise ValueError("series needs at least one coefficient")
        if self.mode == EXACT:
            bad = next((c for c in self.coeffs if not _is_exact(c)), None)
            if bad is not None:
                raise ValueError(f"non-exact coefficient {bad!r} in exact mode")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def a(self, j: int) -> complex:
        """Coefficient a_j (1-indexed)."""
        if not 1 <= j <= self.n:
            raise IndexError(f"coefficient index {j} outside 1..{self.n}")
        return self.coeffs[j - 1]

    def as_float_array(self) -> np.ndarray:
        """1-indexed float table (slot 0 zero), for the numeric kernels."""
        out = np.zeros(self.n + 1, dtype=np.float64)
        out[1:] = [float(c) for c in self.coeffs]
        return out

    def to_json_dict(self) -> dict:
        cast = str if self.mode == EXACT else float
        return {"mode": self.mode, "coeffs": [cast(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FormalDirichletSeries":
        parse = _parse_scalar if d["mode"] == EXACT else float
        return cls(tuple(map(parse, d["coeffs"])), d["mode"])


def from_coeffs(coeffs, mode: str = EXACT) -> FormalDirichletSeries:
    return FormalDirichletSeries(tuple(coeffs), mode)


def zeta_coeffs(n: int, mode: str = EXACT) -> FormalDirichletSeries:
    """All-ones coefficients: the truncated zeta series."""
    n = _check_positive(n, "N")
    if n > MAX_SERIES_LEN:
        raise ResourceLimitError(f"series length {n} exceeds {MAX_SERIES_LEN}")
    one = 1 if mode == EXACT else 1.0
    return FormalDirichletSeries((one,) * n, mode)


def inverse_zeta_coeffs(n: int, mode: str = EXACT) -> FormalDirichletSeries:
    """Mobius coefficients: the convolution inverse of the all-ones series."""
    n = _check_positive(n, "N")
    if n > MAX_SERIES_LEN:
        raise ResourceLimitError(f"series length {n} exceeds {MAX_SERIES_LEN}")
    mu = mobius_sieve(n)[1:].tolist()
    return FormalDirichletSeries(tuple(mu if mode == EXACT else map(float, mu)), mode)


def convolve(
    f: FormalDirichletSeries, g: FormalDirichletSeries
) -> FormalDirichletSeries:
    """Dirichlet product: c_j = sum over m | j of a_m b_{j/m}, truncated to
    min(N_f, N_g)."""
    if f.mode != g.mode:
        raise ValueError(f"mode mismatch: {f.mode} vs {g.mode}")
    n = min(f.n, g.n)
    if f.mode == FLOAT:
        c = _accel.dirichlet_convolve(f.as_float_array()[: n + 1], g.as_float_array()[: n + 1])
        return FormalDirichletSeries(tuple(c[1:]), FLOAT)
    out = _accel.exact_convolve((0, *f.coeffs[:n]), (0, *g.coeffs[:n]))
    return FormalDirichletSeries(tuple(out[1:]), EXACT)


def power(f: FormalDirichletSeries, k: int) -> FormalDirichletSeries:
    """k-fold Dirichlet self-convolution (k >= 1)."""
    k = _check_positive(k, "k")
    out = f
    for _ in range(k - 1):
        out = convolve(out, f)
    return out


def evaluate(
    f: FormalDirichletSeries, s: complex, growth: tuple[float, float]
) -> EvaluatedValue:
    """Partial sum of the series at s, with a tail bound valid under the
    dominating bound |a_j| <= C j^tau for all j > N."""
    c, tau = growth
    if c < 0:
        raise ValueError("growth constant C must be >= 0")
    s = complex(s)
    # j^(-s) conj(j^0) = j^(-s): the engine's pair (s, 0)
    value = complex(_accel.power_sum(f.as_float_array(), 1, [s, 0.0], [(0, 1, f.n)])[0])
    tail = power_tail_bound(c, tau, s.real, f.n)
    return EvaluatedValue(value, tail, f.n)
