"""Weight-sequence families for weighted Dirichlet series spaces.

A family carries a positive weight w_n for every n at or past its start
index, a structural tag (multiplicative / additive / explicit /
measure_induced), DECLARED convergence abscissas sigma and delta, and a
dominating growth bound w_j <= C j^tau used for rigorous truncation tails.
Multiplicative and additive families also carry their values at prime
powers, ``prime_power(p, r)`` = w_(p^r), which the factored condition
routes and the growth audits read without factorizing p^r.

The abscissas are declared, never inferred: the smooth-restricted infimum
defining delta is not numerically decidable, so partial-sum diagnostics
here only corroborate a declaration (see ``smooth_partial_sum``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from . import _accel, arith

#: Default ceiling for positivity/growth/structure audits.
AUDIT_CEILING = 10_000

#: The alphas the gamma quadrature serves.  Below 1e-4 its t = u^alpha
#: branch misses the 1e-12 target (5e-5 relative error at alpha = 1e-5).
#: Past 44 the cutoff 8 alpha reaches u where e^(-2u) is a subnormal float;
#: the lost bits keep panels from meeting the relative test, and the
#: refinement runs to depth 40.
GAMMA_QUADRATURE_ALPHAS = (1e-4, 44.0)

#: Most panels one adaptive quadrature may examine (depth 40 allows 2^40);
#: the gamma integrals over GAMMA_QUADRATURE_ALPHAS examine at most ~24,000.
QUADRATURE_PANELS = 1 << 17


def _parse_scalar(v):
    """Config scalars: strings and ints stay exact (Fraction/int), floats stay float."""
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    if isinstance(v, str):
        try:
            f = Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"expected a number, got {v!r}") from e
        return int(f) if f.denominator == 1 else f
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, float):
        return v
    raise ValueError(f"expected a number, got {v!r}")


def _float(v) -> float:
    """A config scalar (see _parse_scalar) as a float."""
    try:
        return float(_parse_scalar(v))
    except OverflowError as e:
        raise ValueError(f"number too large for a float: {v!r}") from e


def _int(v) -> int:
    """A config scalar (see _parse_scalar) that is an integer: integral
    floats such as 1e5 count, 1.5 does not."""
    x = _parse_scalar(v)
    if not (isinstance(x, int) or isinstance(x, float) and x.is_integer()):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(x)


def _optional_float(v):
    """A config scalar as a float (see _float); None stays None."""
    return None if v is None else _float(v)


def _is_exact(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


class WeightFamily:
    """A weight sequence with declared analytic metadata.

    kind is one of ``multiplicative``, ``additive``, ``explicit``,
    ``measure_induced``.  Values below the start index are undefined,
    except the standard extensions w_1 = 1 (multiplicative) and w_1 = 0
    (additive).  ``batch_fn(n, ft)`` builds ``values_table(n, ft)``.
    ``integer_valued`` marks exact families of integers whose
    ``values_table`` is exact below 2^53 and never rounds a larger value
    below it; the exact lane of ``condition.check_range`` relies on it.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        start_index: int,
        sigma: float,
        delta: float,
        growth_bound: tuple[float, float],
        value_fn,
        batch_fn=None,
        exact: bool = False,
        params: dict | None = None,
        integer_valued: bool = False,
    ):
        if kind not in ("multiplicative", "additive", "explicit", "measure_induced"):
            raise ValueError(f"unknown family kind {kind!r}")
        if start_index < 1:
            raise ValueError("start_index must be >= 1")
        c, tau = growth_bound
        if c < 0:
            raise ValueError("growth bound constant must be >= 0")
        if delta > sigma:
            raise ValueError(f"declared delta {delta} exceeds sigma {sigma}")
        self.name = name
        self.kind = kind
        self.start_index = int(start_index)
        self.sigma = float(sigma)
        self.delta = float(delta)
        self.growth_bound = (float(c), float(tau))
        self.exact = bool(exact)
        self.integer_valued = self.exact and bool(integer_valued)
        self.params = dict(params or {})
        self._value_fn = value_fn
        self._batch_fn = batch_fn
        self._cache: dict[int, object] = {}
        self._table_cache: dict[int, np.ndarray] = {}

    def __repr__(self):
        return f"WeightFamily({self.name!r}, kind={self.kind}, k={self.start_index})"

    @property
    def defined_from(self) -> int:
        """First n with a defined value, counting the w_1 extensions."""
        if self.kind in ("multiplicative", "additive"):
            return 1
        return self.start_index

    @property
    def last_index(self) -> int | None:
        """Last n with a value for families given by a finite list, else None."""
        if isinstance(self.params.get("base"), WeightFamily):
            return self.params["base"].last_index
        count = self.params.get("n_values")
        return None if count is None else self.start_index + count - 1

    def value(self, n: int):
        """w_n; exact families return int/Fraction, the rest float."""
        n = arith._check_positive(n)
        if n < self.defined_from:
            raise ValueError(
                f"weight {self.name} undefined at n={n} (starts at {self.defined_from})"
            )
        hit = self._cache.get(n)
        if hit is None:
            hit = self._value_fn(n)
            self._cache[n] = hit
        return hit

    def values_table(self, n: int, ft: _accel.FactorTables | None = None) -> np.ndarray:
        """Float table of w_1..w_n (1-indexed, slot 0 zero); entries below
        the defined range are zero.  Feeds the numeric kernels.  A table
        that reads arithmetic columns takes them from ``ft``, the caller's
        ``_accel.factor_tables(n)``, or builds them when it is None.  The
        table is read-only because it may be the cached one: copy it to edit."""
        cached = self._table_cache.get(n)
        if cached is not None:
            return cached
        if self._batch_fn is not None:
            table = np.asarray(self._batch_fn(n, ft), dtype=np.float64)
        else:
            table = np.zeros(n + 1, dtype=np.float64)
            for m in range(self.defined_from, n + 1):
                table[m] = float(self.value(m))
        table[: self.defined_from] = 0.0
        table.setflags(write=False)
        if len(self._table_cache) < 4:  # keep the few hot sizes only
            self._table_cache[n] = table
        return table

    def prime_power(self, p: int, r: int):
        """w_(p^r), equal to value(p**r); r = 0 gives w_1.  Families built
        from prime-power values (``_prime_power_family``) replace this with
        their f(p, r), which factorizes nothing."""
        return self.value(p**r)

    def audit(self, limit: int = AUDIT_CEILING) -> None:
        """Raise if positivity or the growth bound fails at any n <= limit."""
        c, tau = self.growth_bound
        lo = max(self.start_index, 1)
        table = self.values_table(limit)
        for n in range(lo, limit + 1):
            v = table[n]
            if not v > 0:
                raise ValueError(f"{self.name}: w_{n} = {v} is not positive")
            if v > c * n**tau * (1 + 1e-12):
                raise ValueError(
                    f"{self.name}: growth bound {c} * n^{tau} fails at n={n} (w={v})"
                )


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _prime_power_family(kind, f, sigma, delta, growth_bound, name, batch_fn, exact, params,
                        integer_valued) -> WeightFamily:
    """w_n = the product (multiplicative, every f(p, r) > 0) or the sum
    (additive) of f(p_i, r_i) over the factorization, in ascending prime
    order.  The family's ``prime_power(p, r)`` is w_(p^r) from f alone.
    Without a batch_fn the table calls f once per prime power <= n and is
    one ``_accel.prime_power_fill``: in float64, or in Python ints and
    Fractions converted with float() at the end, as value() would be."""
    op, py_op = (np.multiply, operator.mul) if kind == "multiplicative" else (np.add, operator.add)
    identity = op.identity if exact else float(op.identity)

    def prime_power(p, r):
        if r == 0:
            return identity
        try:
            v = f(p, r)
        except OverflowError as e:
            raise ValueError(f"prime-power value f({p},{r}) of {name} is past the float range") from e
        if op is np.multiply and not v > 0:
            raise ValueError(f"prime-power value f({p},{r}) = {v} not positive")
        return py_op(identity, v)

    def value_fn(n):
        out = identity
        for p, r in arith.factorize(n):
            out = py_op(out, prime_power(p, r))
        return out

    dtype = np.float64 if integer_valued or not exact else object

    def batch(n, ft):
        ft = _accel.factor_tables(n) if ft is None else ft
        return _accel.prime_power_fill(ft, _accel.prime_power_values(ft, prime_power, dtype), op)

    fam = WeightFamily(
        name, kind, 1 if op is np.multiply else 2, sigma, delta, growth_bound,
        value_fn, batch_fn=batch_fn or batch, exact=exact, params=params,
        integer_valued=integer_valued,
    )
    fam.prime_power = prime_power
    return fam


def multiplicative_from_prime_powers(
    f, sigma: float, delta: float, growth_bound: tuple[float, float],
    name: str = "multiplicative", batch_fn=None, exact: bool = False,
    params: dict | None = None, integer_valued: bool = False,
) -> WeightFamily:
    """Multiplicative family from prime-power values: w_n = prod f(p_i, r_i)
    over the factorization, w_1 = 1 (see _prime_power_family)."""
    return _prime_power_family("multiplicative", f, sigma, delta, growth_bound, name,
                               batch_fn, exact, params, integer_valued)


def additive_from_prime_powers(
    f, sigma: float, delta: float, growth_bound: tuple[float, float],
    name: str = "additive", batch_fn=None, exact: bool = False,
    params: dict | None = None, integer_valued: bool = False,
) -> WeightFamily:
    """Additive family from prime-power values: w_n = sum f(p_i, r_i),
    extended by w_1 = 0.  Start index is 2; positivity for n >= 2 is
    checked by audit()."""
    return _prime_power_family("additive", f, sigma, delta, growth_bound, name,
                               batch_fn, exact, params, integer_valued)


# ---------------------------------------------------------------------------
# measure-induced weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureSpec:
    """A positive measure on [0, oo): finitely many atoms, or the
    gamma-type density 2^alpha/Gamma(alpha) * sigma^(alpha-1) dsigma."""

    kind: str
    atoms: tuple[tuple[float, float], ...] = ()
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind == "discrete":
            if not self.atoms:
                raise ValueError("discrete measure needs at least one atom")
            for sig, mass in self.atoms:
                if not 0 <= sig < math.inf:
                    raise ValueError(f"atom position {sig} must be finite and >= 0")
                if not 0 < mass < math.inf:
                    raise ValueError(f"atom mass {mass} must be finite and positive")
        elif self.kind == "gamma_density":
            if not 0 < self.alpha < math.inf:
                raise ValueError(f"gamma density needs a finite alpha > 0, got {self.alpha}")
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")

    @property
    def has_zero_support(self) -> bool:
        """Whether 0 lies in the support (recorded, not exploited)."""
        if self.kind == "gamma_density":
            return True
        return any(sig == 0 for sig, _ in self.atoms)


@functools.lru_cache(maxsize=None)
def _gl_nodes(order: int = 24):
    return np.polynomial.legendre.leggauss(order)


def _gl_panel(fvec, a: float, b: float) -> float:
    x, w = _gl_nodes()
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(w, fvec(mid + half * x)))


def _adaptive_gl(fvec, a: float, b: float, rel_tol: float, depth: int = 0) -> float:
    """Adaptive Gauss-Legendre: split a panel until the two-half refinement
    agrees with the single-panel value to rel_tol, or its depth (``depth`` for
    [a, b]) reaches 40; each half is passed down as its child's single-panel
    value.  Raises ValueError past QUADRATURE_PANELS panels."""
    panels = iter(range(QUADRATURE_PANELS))

    def refine(a, b, whole, depth):
        if next(panels, None) is None:
            raise ValueError(f"adaptive quadrature needs over {QUADRATURE_PANELS} panels")
        mid = 0.5 * (a + b)
        left, right = _gl_panel(fvec, a, mid), _gl_panel(fvec, mid, b)
        refined = left + right
        if abs(refined - whole) <= rel_tol * max(abs(refined), 1e-300) or depth >= 40:
            return refined
        return refine(a, mid, left, depth + 1) + refine(mid, b, right, depth + 1)

    return refine(a, b, _gl_panel(fvec, a, b), depth)


def _gamma_cutoff(alpha: float) -> float:
    # truncated mass below 1e-14 of the full integral Gamma(alpha)/2^alpha
    total = math.gamma(alpha) / 2.0**alpha
    a = max(40.0, 8.0 * alpha)
    while math.exp(-a) > 1e-14 * total:
        a += 10.0
    return a


@functools.lru_cache(maxsize=None)
def _gamma_core(alpha: float) -> float:
    """The n-independent integral of e^(-2u) u^(alpha-1) over [0, cutoff],
    by adaptive Gauss-Legendre (relative target 1e-12); Gamma(alpha)/2^alpha
    in closed form."""
    lo, hi = GAMMA_QUADRATURE_ALPHAS
    if not lo <= alpha <= hi:
        raise ValueError(f"the gamma-density quadrature needs {lo:g} <= alpha <= {hi:g}, "
                         f"got {alpha}")
    cutoff = _gamma_cutoff(alpha)
    if alpha >= 1.0:
        integrand = lambda u: np.exp(-2.0 * u) * u ** (alpha - 1.0)
        return _adaptive_gl(integrand, 0.0, cutoff, 1e-12)
    # t = u^alpha removes the endpoint singularity
    integrand = lambda t: np.exp(-2.0 * t ** (1.0 / alpha)) / alpha
    return _adaptive_gl(integrand, 0.0, cutoff**alpha, 1e-12)


def measure_induced(spec: MeasureSpec, n0: int, n: int) -> float:
    """Weight induced by a measure: w_n = 1 / integral of n^(-2 sigma).

    Discrete specs sum exactly.  For the gamma density the substitution
    u = sigma * log n leaves 2^alpha / (Gamma(alpha) (log n)^alpha) times an
    integral that does not depend on n; ``_gamma_core`` computes it once
    per alpha.
    """
    n = arith._check_positive(n)
    if n < max(n0, 2):
        raise ValueError(f"measure-induced weight needs n >= max(n0, 2), got {n}")
    if spec.kind == "discrete":
        inv = sum(mass * n ** (-2.0 * sig) for sig, mass in spec.atoms)
        if not (inv > 0 and math.isfinite(inv)):
            raise ValueError(f"measure integral at n={n} is {inv}; no weight defined")
        return 1.0 / inv
    alpha = spec.alpha
    core = _gamma_core(alpha)
    ln = math.log(n)
    pref = 2.0**alpha / (math.gamma(alpha) * ln**alpha)
    inv = pref * core
    if not (inv > 0 and math.isfinite(inv)):
        raise ValueError(f"measure integral at n={n} is {inv}; no weight defined")
    return 1.0 / inv


def measure_family(
    spec: MeasureSpec, n0: int = 2, name: str = "measure", sigma=None, delta=None
) -> WeightFamily:
    """Wrap a measure spec as a WeightFamily (float values)."""
    start = max(n0, 2)
    if spec.kind == "discrete":
        # mass near 0 dominates the growth: w_n <= n^(2 s_min) / m(s_min)
        s_min = min(sig for sig, _ in spec.atoms)
        m_min = sum(mass for sig, mass in spec.atoms if sig == s_min)
        bound = (1.0 / m_min, 2.0 * s_min)
    else:
        a = spec.alpha
        _gamma_core(a)  # fails at build time if the quadrature cannot serve alpha
        # w_n tracks (log n)^alpha and log n <= (2/e) sqrt(n)
        bound = (1.05 * (2.0 / math.e) ** a, a / 2.0)

    def batch(n, ft):
        # per-n scalar calls: numpy's log and power differ from math.log and
        # pow in the last bit for some n, and values_table must equal value()
        table = np.zeros(n + 1)
        table[start:] = [measure_induced(spec, n0, m) for m in range(start, n + 1)]
        return table

    return WeightFamily(
        name,
        "measure_induced",
        start,
        1.0 if sigma is None else sigma,
        0.0 if delta is None else delta,
        bound,
        lambda n: measure_induced(spec, n0, n),
        batch_fn=batch,
        exact=False,
        params={"measure": spec, "n0": n0},
    )


# ---------------------------------------------------------------------------
# growth condition checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of the prime-power ratio audit w_{p^(j-1)} / w_{p^j} <= p^(-delta)."""

    family: str
    rule: str
    delta: float
    checks: int
    passed: bool
    first_violation: tuple | None
    violations: tuple = ()
    delta_nonpositive: bool | None = None

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "rule": self.rule,
            "delta": self.delta,
            "checks": self.checks,
            "passed": self.passed,
            "first_violation": list(self.first_violation) if self.first_violation else None,
            "violations": [list(v) for v in self.violations],
            "delta_nonpositive": self.delta_nonpositive,
        }


def _growth_scan(w: WeightFamily, primes, max_exp: int, j_start: int) -> list:
    rows = []
    delta = w.delta
    for p in primes:
        p = int(p)
        bound = 1.0 if delta == 0.0 else p ** (-delta)
        for j in range(j_start, max_exp + 1):
            lo, hi = w.prime_power(p, j - 1), w.prime_power(p, j)
            if w.exact and delta == 0.0:
                ratio = Fraction(lo) / Fraction(hi)
                ok = ratio <= 1
                margin = float(1 - ratio)
                rows.append((p, j, float(ratio), 1.0, margin, ok))
            else:
                ratio = float(lo) / float(hi)
                margin = bound - ratio
                rows.append((p, j, ratio, bound, margin, margin >= 0.0))
    return rows


def check_multiplicative_growth(
    w: WeightFamily, primes=None, max_exp: int = 6
) -> GrowthReport:
    """Ratio condition for multiplicative families, all exponents j >= 1."""
    if w.kind != "multiplicative":
        raise ValueError(f"{w.name} is not multiplicative")
    if primes is None:
        primes = arith.first_primes(25)
    rows = _growth_scan(w, primes, max_exp, j_start=1)
    bad = [r[:5] for r in rows if not r[5]]
    return GrowthReport(
        w.name, "multiplicative j>=1", w.delta, len(rows),
        not bad, bad[0] if bad else None, tuple(bad),
    )


def check_additive_growth(
    w: WeightFamily, primes=None, max_exp: int = 6
) -> GrowthReport:
    """Ratio condition for additive families.  Exponents start at j = 2
    (the j = 1 ratio would involve the w_1 = 0 extension); also records
    whether the declared delta is <= 0, the other hypothesis of the
    additive route."""
    if w.kind != "additive":
        raise ValueError(f"{w.name} is not additive")
    if primes is None:
        primes = arith.first_primes(25)
    rows = _growth_scan(w, primes, max_exp, j_start=2)
    bad = [r[:5] for r in rows if not r[5]]
    return GrowthReport(
        w.name, "additive j>=2", w.delta, len(rows),
        not bad, bad[0] if bad else None, tuple(bad),
        delta_nonpositive=(w.delta <= 0.0),
    )


def audit_structure(
    w: WeightFamily, pairs: int = 200, limit: int = AUDIT_CEILING, seed: int = 0
) -> bool:
    """Sample coprime pairs m, n in [2, limit] (limit >= 3) and verify the
    multiplicative/additive law."""
    if limit < 3:
        raise ValueError(f"the structural audit needs limit >= 3, got {limit}")
    rng = Random(seed)
    checked = 0
    while checked < pairs:
        m = rng.randint(2, limit)
        n = rng.randint(2, limit)
        if math.gcd(m, n) != 1:
            continue
        checked += 1
        lhs = w.value(m * n)
        if w.kind == "multiplicative":
            rhs = w.value(m) * w.value(n)
        elif w.kind == "additive":
            rhs = w.value(m) + w.value(n)
        else:
            raise ValueError(f"{w.name} has no structural law to audit")
        if w.exact:
            if lhs != rhs:
                return False
        elif abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            return False
    return True


# ---------------------------------------------------------------------------
# smooth-restricted partial sums (divergence diagnostics)
# ---------------------------------------------------------------------------


def smooth_partial_sum(w: WeightFamily, s: float, n: int, cutoff: int) -> float:
    """Sum of w_j j^(-s) over 2 <= j <= cutoff with gpf(j) <= p_n.

    A diagnostic for the declared smooth-restricted abscissa delta: the
    doubling-cutoff behaviour is reported by callers, never asserted.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    n = arith._check_positive(n)
    ft = _accel.factor_tables(cutoff)
    primes = np.flatnonzero(ft.big_omega == 1)
    # p_n, or the cutoff when p_n lies past it: both admit every j <= cutoff
    p_n = primes[n - 1] if n <= len(primes) else cutoff
    vals = w.values_table(cutoff, ft)
    idx = np.arange(cutoff + 1)
    mask = (idx >= 2) & (ft.gpf <= p_n)
    j = idx[mask].astype(np.float64)
    return float(np.dot(vals[mask], j ** (-float(s))))


def smooth_growth_diagnostic(
    w: WeightFamily, s: float, n: int, base_cutoff: int = 256, doublings: int = 5
) -> dict:
    """Partial sums at doubling cutoffs plus successive ratios."""
    cutoffs = [base_cutoff * 2**i for i in range(doublings + 1)]
    sums = [smooth_partial_sum(w, s, n, c) for c in cutoffs]
    ratios = [b / a if a > 0 else math.inf for a, b in zip(sums, sums[1:])]
    return {"s": s, "p_n": arith.first_primes(n)[-1], "cutoffs": cutoffs,
            "sums": sums, "ratios": ratios}


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def _ones_family() -> WeightFamily:
    return multiplicative_from_prime_powers(
        lambda p, r: 1, sigma=1.0, delta=0.0, growth_bound=(1.0, 0.0),
        name="ones", exact=True, integer_valued=True,
    )


def _omega_family() -> WeightFamily:
    # omega(n) <= log2(n) and log2(n)/sqrt(n) peaks at 2/(e ln 2) ~ 1.062
    return additive_from_prime_powers(
        lambda p, r: 1, sigma=1.0, delta=0.0, growth_bound=(1.1, 0.5),
        name="omega", exact=True, integer_valued=True,
    )


def _big_omega_family() -> WeightFamily:
    return additive_from_prime_powers(
        lambda p, r: r, sigma=1.0, delta=0.0, growth_bound=(1.1, 0.5),
        name="big_omega", exact=True, integer_valued=True,
    )


def _divisor_pow_family(alpha) -> WeightFamily:
    alpha = _parse_scalar(alpha)
    exact = isinstance(alpha, int) and alpha >= 0
    af = float(alpha)

    def f(p, r):
        return (r + 1) ** alpha if exact else float(r + 1) ** af

    def batch(n, ft):
        # kept as d(n)**af: the product of the per-prime powers rounds differently
        return _accel.divisor_count_table(n).astype(np.float64) ** af

    # d(n) <= 2 sqrt(n)
    return multiplicative_from_prime_powers(
        f, sigma=1.0, delta=0.0, growth_bound=(2.0**af, af / 2.0),
        name=f"divisor_pow(alpha={alpha})", batch_fn=None if exact else batch, exact=exact,
        params={"alpha": alpha}, integer_valued=exact,
    )


def _d_beta_family(beta) -> WeightFamily:
    """Coefficients of the beta-th power of the zeta series, via the
    prime-power values binomial(beta + r - 1, r).  For non-integer beta the
    generalized binomial is used; equivalence with the series power then
    rests on the standard Euler-product expansion (float values)."""
    beta = _parse_scalar(beta)
    exact = isinstance(beta, int) and beta >= 1
    bf = float(beta)

    if exact:
        f = lambda p, r: math.comb(beta + r - 1, r)
    else:

        def f(p, r):
            out = 1.0
            for i in range(r):
                out *= (bf + i) / (i + 1)
            return out

    m = max(1, math.ceil(bf))
    # d_beta(n) <= d(n)^(ceil(beta)-1) <= (2 sqrt n)^(ceil(beta)-1)
    return multiplicative_from_prime_powers(
        f, sigma=1.0, delta=0.0,
        growth_bound=(2.0 ** (m - 1), (m - 1) / 2.0),
        name=f"d_beta(beta={beta})", exact=exact,
        params={"beta": beta}, integer_valued=exact,
    )


def _log_pow_family(alpha) -> WeightFamily:
    alpha = _parse_scalar(alpha)
    af = float(alpha)
    if af <= 0:
        raise ValueError("log_pow needs alpha > 0")

    def batch(n, ft):
        out = np.zeros(n + 1)
        if n >= 2:
            out[2:] = np.log(np.arange(2, n + 1, dtype=np.float64)) ** af
        return out

    fam = WeightFamily(
        f"log_pow(alpha={alpha})",
        "measure_induced",
        2,
        1.0,
        0.0,
        # log(n) <= (2/e) sqrt(n)
        (1.0 * (2.0 / math.e) ** af if af >= 1 else 1.0, af / 2.0),
        lambda n: math.log(n) ** af,
        batch_fn=batch,
        exact=False,
        params={"alpha": alpha,
                "measure": MeasureSpec("gamma_density", alpha=af)},
    )
    return fam


def _one_plus_family(base: WeightFamily) -> WeightFamily:
    start = base.defined_from
    c, tau = base.growth_bound

    def batch(n, ft):
        table = 1.0 + base.values_table(n, ft)
        table[:start] = 0.0
        return table

    return WeightFamily(
        f"one_plus({base.name})",
        "explicit",
        start,
        1.0,
        0.0,
        (1.0 + c, max(tau, 0.0)),
        lambda n: 1 + base.value(n) if base.exact else 1.0 + float(base.value(n)),
        batch_fn=batch,
        exact=base.exact,
        params={"base": base},
        integer_valued=base.integer_valued,
    )


def _geometric_family(ratio) -> WeightFamily:
    """Multiplicative family w_n = ratio^Omega(n) (prime-power value
    ratio^j).  With ratio < 1 this violates the multiplicative ratio
    condition at j = 1, making it the stock negative control."""
    ratio = _parse_scalar(ratio)
    if not ratio > 0:
        raise ValueError("geometric ratio must be positive")
    exact = _is_exact(ratio)
    rf = float(ratio)
    # ratio * 2^(-s) < 1 drives the smooth-restricted sums
    delta = math.log2(rf)

    def batch(n, ft):
        ft = _accel.factor_tables(n) if ft is None else ft
        return rf ** ft.big_omega.astype(np.float64)

    return multiplicative_from_prime_powers(
        lambda p, r: ratio**r,
        sigma=max(1.0, delta),
        delta=delta,
        growth_bound=(1.0, max(0.0, delta)),
        name=f"geometric(ratio={ratio})",
        batch_fn=batch,
        exact=exact,
        params={"ratio": ratio},
    )


_NAMED_BUILDERS = {
    "ones": (lambda params: _ones_family(), set()),
    "omega": (lambda params: _omega_family(), set()),
    "big_omega": (lambda params: _big_omega_family(), set()),
    "divisor_pow": (lambda params: _divisor_pow_family(params.get("alpha", 1)), {"alpha"}),
    "log_pow": (lambda params: _log_pow_family(params.get("alpha", 1)), {"alpha"}),
    "d_beta": (lambda params: _d_beta_family(params.get("beta", 2)), {"beta"}),
    "geometric": (lambda params: _geometric_family(params.get("ratio", "1/2")), {"ratio"}),
}


def named_family(name: str, **params) -> WeightFamily:
    if name == "one_plus":
        unknown = set(params) - {"base"}
        if unknown:
            raise ValueError(f"unknown one_plus parameters: {sorted(unknown)}")
        base = params.get("base")
        if isinstance(base, dict):
            base = family_from_config(base)
        if not isinstance(base, WeightFamily):
            raise ValueError("one_plus needs a 'base' family or family config")
        return _one_plus_family(base)
    if name not in _NAMED_BUILDERS:
        known = sorted([*_NAMED_BUILDERS, "one_plus"])
        raise ValueError(f"unknown named family {name!r}; known: {known}")
    builder, allowed = _NAMED_BUILDERS[name]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown {name} parameters: {sorted(unknown)}")
    return builder(params)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_FAMILY_KEYS = {
    "named": {"kind", "name", "parameters", "sigma", "delta", "start_index"},
    "explicit": {"kind", "values", "start_index", "sigma", "delta", "growth_bound"},
    "measure": {"kind", "spec", "n0", "sigma", "delta"},
}

_SPEC_KEYS = {
    "discrete": {"type", "atoms"},
    "gamma_density": {"type", "alpha"},
}


def family_from_config(cfg: dict) -> WeightFamily:
    """Build a family from its JSON description; unknown keys are rejected."""
    if not isinstance(cfg, dict):
        raise ValueError("family config must be an object")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise ValueError(
            f"family kind must be one of {sorted(_FAMILY_KEYS)}, got {kind!r}"
        )
    unknown = set(cfg) - _FAMILY_KEYS[kind]
    if unknown:
        raise ValueError(f"unknown family config keys: {sorted(unknown)}")

    if kind == "named":
        if "name" not in cfg:
            raise ValueError("named family config needs 'name'")
        fam = named_family(cfg["name"], **cfg.get("parameters", {}))
        if "sigma" in cfg:
            fam.sigma = _float(cfg["sigma"])
        if "delta" in cfg:
            fam.delta = _float(cfg["delta"])
        if "start_index" in cfg:
            fam.start_index = _int(cfg["start_index"])
        if fam.delta > fam.sigma:
            raise ValueError("declared delta exceeds sigma")
        return fam

    if kind == "explicit":
        for key in ("values", "start_index", "sigma", "delta", "growth_bound"):
            if key not in cfg:
                raise ValueError(f"explicit family config needs {key!r}")
        values = [_parse_scalar(v) for v in cfg["values"]]
        start = _int(cfg["start_index"])
        exact = all(_is_exact(v) for v in values)
        table = {start + i: v for i, v in enumerate(values)}

        def value_fn(n):
            if n not in table:
                raise ValueError(f"explicit family has no value at n={n}")
            return table[n]

        c, tau = cfg["growth_bound"]
        return WeightFamily(
            "explicit", "explicit", start, _float(cfg["sigma"]),
            _float(cfg["delta"]), (float(c), float(tau)), value_fn,
            exact=exact, params={"n_values": len(values)},
            integer_valued=all(isinstance(v, int) for v in values),
        )

    spec_cfg = cfg.get("spec")
    if not isinstance(spec_cfg, dict):
        raise ValueError("measure family config needs a 'spec' object")
    stype = spec_cfg.get("type")
    if not isinstance(stype, str) or stype not in _SPEC_KEYS:
        raise ValueError(f"unknown measure spec type {stype!r}")
    unknown = set(spec_cfg) - _SPEC_KEYS[stype]
    if unknown:
        raise ValueError(f"unknown {stype} spec keys: {sorted(unknown)}")
    if stype == "discrete":
        atoms = spec_cfg.get("atoms", [])
        if not (isinstance(atoms, (list, tuple))
                and all(isinstance(a, (list, tuple)) and len(a) == 2 for a in atoms)):
            raise ValueError("discrete spec 'atoms' must be a list of [position, mass] pairs")
        atoms = tuple((_float(a), _float(m)) for a, m in atoms)
        spec = MeasureSpec("discrete", atoms=atoms)
    else:
        spec = MeasureSpec("gamma_density", alpha=_float(spec_cfg.get("alpha", 1)))
    return measure_family(
        spec,
        n0=_int(cfg.get("n0", 2)),
        name=f"measure({stype})",
        sigma=_optional_float(cfg.get("sigma")),
        delta=_optional_float(cfg.get("delta")),
    )
