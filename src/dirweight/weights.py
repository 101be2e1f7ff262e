"""Weight-sequence families for weighted Dirichlet series spaces.

A family carries a positive weight w_n for every n at or past its start
index, a structural tag (multiplicative / additive / explicit /
measure_induced), convergence abscissas sigma and delta, and a
dominating growth bound w_j <= C j^tau used for rigorous truncation tails.
Multiplicative and additive families also carry their values at prime
powers, ``prime_power(p, r)`` = w_(p^r), which the factored condition
routes and ``condition.prime_power_check`` read without factorizing p^r.

Each family has one definition of w_n, evaluated per n by ``value(n)``
(int/Fraction for exact families, else float) and as a column by
``windows(pp, exact)``, any window [lo, hi) of it: value(m) itself, which the
exact divisor sums read, or float64, entry m ``_to_float(value(m))`` bit for
bit (the exceptions are in ``values_table``, the whole column), which the
kernels stream.  Nothing is cached: each call evaluates afresh.

A family's delta is the default of every run.  Named and measure families take
sigma and delta from their definition, delta = delta_w: the infimum of the Re s
at which every p_n-smooth sum of w_j j^(-s) converges (iff s > 0 for j^(-s)).
Explicit lists and the public ``*_from_prime_powers`` constructors declare theirs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _accel, arith

#: Default ceiling of WeightFamily.audit (positivity and the growth bound).
AUDIT_CEILING = 10_000


def _parse_scalar(v):
    """Config scalars: strings, Fractions and ints stay exact (Fraction/int), floats stay float."""
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    if isinstance(v, (str, Fraction)):
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


def _keyed(key: str, parse, v, error=ValueError):
    """parse(v); its ValueError is raised again as error, naming key.  An error
    of a subclass of ValueError passes as it is: parse has named its own key."""
    try:
        return parse(v)
    except ValueError as e:
        if isinstance(e, error) and error is not ValueError:
            raise
        raise error(f"{key}: {e}") from e


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


def _finite_float(v) -> float:
    """A config scalar as a float (see _float), which must be finite."""
    x = _float(v)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def _position(v) -> float:
    """A discrete atom's position sigma (a config scalar) as a float: sigma >= 0
    with 2 sigma finite, the exponent of w_n ~ n^(2 sigma) and delta_w."""
    x = _float(v)
    if not 0 <= 2.0 * x < math.inf:
        raise ValueError(f"atom position {v!r} must be finite and >= 0, with 2 * position finite")
    return x


def _mass(v) -> float:
    """A discrete atom's mass (a config scalar) as a float, finite and > 0."""
    x = _float(v)
    if not 0 < x < math.inf:
        raise ValueError(f"atom mass {v!r} must be finite and positive")
    return x


def _finite(params: dict, key: str, default):
    """A named family's parameter params[key] (default when absent), as
    parsed (see _parse_scalar) and as a finite float (see _finite_float)."""
    v = params.get(key, default)
    return _keyed(key, _parse_scalar, v), _keyed(key, _finite_float, v)


def _known(what: str, given, allowed) -> None:
    """ValueError naming the keys of given that are not in allowed, if any."""
    unknown = set(given) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")


def _to_float(v) -> float:
    """float(v), or +-inf for an exact value past the float64 range: the
    one conversion of an exact weight or condition value to a float."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _is_exact(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _declared(v, exact: bool, integer_valued: bool, where: str, *args):
    """v if it is of its family's declared type: a Python int if integer-valued, an int or
    a Fraction if exact (a numpy integer wraps), else any; or ValueError at where.format(*args)."""
    if exact and not (type(v) is int or not integer_valued and isinstance(v, Fraction)):
        kind = "an int" if integer_valued else "an int or a Fraction"
        raise ValueError(f"{where.format(*args)} = {v!r} is not {kind}, as declared")
    return v


class WeightFamily:
    """A weight sequence with declared analytic metadata.

    kind is one of ``multiplicative``, ``additive``, ``explicit``,
    ``measure_induced``.  Values below the start index are undefined,
    except the standard extensions w_1 = 1 (multiplicative) and w_1 = 0
    (additive).  ``declare`` alone sets and checks the start index, sigma,
    delta and growth bound.  ``windows(pp, exact)`` builds ``window(lo, hi)``,
    the weights w_lo..w_(hi-1) in float64 or exactly, from the definition of
    ``value_fn`` and a run's ``_accel.PrimePowers`` pp (else value() per n).
    ``prime_power`` is f(p, r) = w_(p^r) of a family built from prime-power
    values (see the method), and ``r_only`` marks an f of r alone.
    ``exact`` declares int or Fraction values, ``integer_valued`` Python
    ints, whose ``values_table`` is exact below 2^53 and never rounds a
    larger value below it; the exact lane of ``condition.check_range``
    relies on both, and ``value`` and ``prime_power`` reject another type.
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
        windows=None,
        exact: bool = False,
        params: dict | None = None,
        integer_valued: bool = False,
        prime_power=None,
        r_only: bool = False,
    ):
        if kind not in ("multiplicative", "additive", "explicit", "measure_induced"):
            raise ValueError(f"unknown family kind {kind!r}")
        self.declare(start_index, sigma, delta, growth_bound)
        self.name = name
        self.kind = kind
        self.exact = bool(exact)
        self.integer_valued = self.exact and bool(integer_valued)
        self.params = dict(params or {})
        self._value_fn = value_fn
        self._windows = windows
        self.r_only = bool(r_only)
        if prime_power is not None:
            self.prime_power = prime_power

    def declare(self, start_index=None, sigma=None, delta=None, growth_bound=None) -> None:
        """Set the declaration (None keeps a value) under one rule: start index
        >= 1, sigma and delta finite with delta <= sigma, and growth bound (c, tau)
        with c >= 0 (c = inf: no certified tail) and tau finite.  A broken rule
        raises ValueError naming its key and sets nothing."""
        k = self.start_index if start_index is None else int(start_index)
        sigma = self.sigma if sigma is None else _keyed("sigma", _finite_float, float(sigma))
        delta = self.delta if delta is None else _keyed("delta", _finite_float, float(delta))
        c, tau = self.growth_bound if growth_bound is None else map(float, growth_bound)
        if k < 1:
            raise ValueError(f"start_index: expected an integer >= 1, got {k}")
        if delta > sigma:
            raise ValueError(f"delta: expected at most sigma = {sigma}, got {delta}")
        if not (c >= 0 and math.isfinite(tau)):
            raise ValueError(f"growth_bound: expected c >= 0 and a finite tau, got {[c, tau]}")
        self.start_index, self.sigma, self.delta, self.growth_bound = k, sigma, delta, (c, tau)

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
        return _declared(self._value_fn(n), self.exact, self.integer_valued, "{}: w_{}",
                         self.name, n)

    def values_table(self, n: int, pp: _accel.PrimePowers | None = None) -> np.ndarray:
        """Float table of w_1..w_n (1-indexed, slot 0 zero); entries below
        the defined range are zero: the window [0, n] of ``windows``, from
        the run's pp if given.  Entry m is ``_to_float(value(m))`` bit for
        bit: the table and value() evaluate one definition (the prime-power
        fill, the measure expression, or value() per n).  Two exceptions:
        an integer-valued table multiplies floats, so it is exact only below
        2^53 (see integer_valued), and one_plus over a Fraction-valued base
        is 1.0 + the base's float, rounded twice."""
        return self.windows(pp or _accel.PrimePowers(n))(0, n + 1)

    def windows(self, pp: _accel.PrimePowers, exact: bool = False):
        """window(lo, hi), hi <= pp.n + 1: w_lo..w_(hi-1) as a new array, zero below the
        defined range, the same slice of the window [0, pp.n] bit for bit: float64, or
        with exact (the exact divisor sums) value(m) itself in an object array."""
        if self._windows is not None:
            return self._windows(pp, exact)
        cast = (lambda v: v) if exact else _to_float
        return lambda lo, hi: np.array([cast(self.value(m) if m >= self.defined_from else 0)
                                        for m in range(lo, hi)], dtype=object if exact else float)

    def prime_power(self, p: int, r: int):
        """w_(p^r), equal to value(p**r); r = 0 gives w_1.  A family built
        with a ``prime_power`` argument (``_prime_power_family``) answers
        with that f(p, r) instead, which factorizes nothing."""
        return self.value(p**r)

    def audit(self, limit: int = AUDIT_CEILING) -> None:
        """Raise if positivity or the growth bound fails at any n <= limit."""
        c, tau = self.growth_bound
        table = self.values_table(limit)
        for n in range(self.start_index, limit + 1):
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


def _prime_power_family(kind, f, sigma, delta, growth_bound, name, exact=False, params=None,
                        integer_valued=False, r_only=False, windows=None) -> WeightFamily:
    """w_n = the product (multiplicative, every f(p, r) > 0) or the sum
    (additive) of f(p_i, r_i) over the factorization, in ascending prime
    order.  The family's ``prime_power(p, r)`` is w_(p^r) from f alone.
    Without windows of its own, a window is one ``_accel.prime_power_fill``, in
    Python ints and Fractions for the exact lane or a Fraction-valued family (its
    float window maps _to_float over them), else in float64 of _to_float(f(p, r)).
    f is called once per prime power <= n, or, when it depends on r alone
    (``r_only``: the named families), once per exponent."""
    op, py_op = (np.multiply, operator.mul) if kind == "multiplicative" else (np.add, operator.add)
    identity = op.identity if exact else float(op.identity)

    def prime_power(p, r):
        if r == 0:
            return identity
        try:
            v = f(p, r)
        except OverflowError as e:
            raise ValueError(f"prime-power value f({p},{r}) of {name} is past the float range") from e
        _declared(v, exact, integer_valued, "prime-power value f({},{}) of {}", p, r, name)
        if op is np.multiply and not v > 0:
            raise ValueError(f"prime-power value f({p},{r}) = {v} not positive")
        return py_op(identity, v)

    def value_fn(n):
        out = identity
        for p, r in arith.factorize(n):
            out = py_op(out, prime_power(p, r))
        return out

    fractions = exact and not integer_valued

    def fill(pp, exact=False):
        dtype = object if exact or fractions else np.float64
        fp = prime_power if dtype is object else lambda p, r: _to_float(prime_power(p, r))
        _, _, vals, at = pp.values(fp, dtype, r_only)

        def window(lo, hi):
            w = _accel.prime_power_fill(lo, hi, pp.base, lambda p, r: vals[at(p, r)], op)
            return w if exact or dtype is np.float64 else np.array(list(map(_to_float, w.tolist())))

        return window

    return WeightFamily(
        name, kind, 1 if op is np.multiply else 2, sigma, delta, growth_bound,
        value_fn, windows=windows or fill, exact=exact, params=params,
        integer_valued=integer_valued, prime_power=prime_power, r_only=r_only,
    )


def multiplicative_from_prime_powers(
    f, sigma: float, delta: float, growth_bound: tuple[float, float],
    name: str = "multiplicative", exact: bool = False,
    params: dict | None = None, integer_valued: bool = False,
) -> WeightFamily:
    """Multiplicative family from prime-power values: w_n = prod f(p_i, r_i)
    over the factorization, w_1 = 1 (see _prime_power_family)."""
    return _prime_power_family("multiplicative", f, sigma, delta, growth_bound, name,
                               exact, params, integer_valued)


def additive_from_prime_powers(
    f, sigma: float, delta: float, growth_bound: tuple[float, float],
    name: str = "additive", exact: bool = False,
    params: dict | None = None, integer_valued: bool = False,
) -> WeightFamily:
    """Additive family from prime-power values: w_n = sum f(p_i, r_i),
    extended by w_1 = 0.  Start index is 2; positivity for n >= 2 is
    checked by audit()."""
    return _prime_power_family("additive", f, sigma, delta, growth_bound, name,
                               exact, params, integer_valued)


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
                _position(sig)
                _mass(mass)
        elif self.kind == "gamma_density":
            if not 0 < self.alpha < math.inf:
                raise ValueError(f"gamma density needs a finite alpha > 0, got {self.alpha}")
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")


def _measure_weights(spec: MeasureSpec, m: np.ndarray) -> np.ndarray:
    """w_n = 1 / integral of n^(-2 sigma) dmu(sigma) at every n of the
    float64 array m, by one numpy expression: the atoms summed, or for the
    gamma density (log n)^alpha.  Each entry of numpy's log and power
    depends on that entry alone, so a table and a one-element array get
    the same bits.  A weight that is not a finite positive float raises
    ValueError."""
    with np.errstate(all="ignore"):  # overflow and 1/0 give inf, rejected below
        if spec.kind == "discrete":
            w = 1.0 / sum(mass * m ** (-2.0 * sig) for sig, mass in spec.atoms)
        else:
            w = np.log(m) ** spec.alpha
    bad = ~((w > 0) & (w < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"measure-induced weight at n={int(m[i])} is {float(w[i])}; "
                         "no weight defined")
    return w


def measure_induced(spec: MeasureSpec, n0: int, n: int) -> float:
    """Weight induced by a measure: w_n = 1 / integral of n^(-2 sigma).

    Discrete specs sum over the atoms.  For the gamma density Euler's
    integral gives 2^alpha/Gamma(alpha) int sigma^(alpha-1) e^(-2 sigma log n)
    dsigma = (log n)^(-alpha), so w_n = (log n)^alpha in closed form.  The
    value is _measure_weights at the one-element array [n], the entry of
    the family's table at n bit for bit.  A weight that is not a finite
    positive float raises ValueError.
    """
    n = arith._check_positive(n)
    if n < max(n0, 2):
        raise ValueError(f"measure-induced weight needs n >= max(n0, 2), got {n}")
    return float(_measure_weights(spec, np.array([n], dtype=np.float64))[0])


def measure_family(spec: MeasureSpec, n0: int = 2, name: str = "measure") -> WeightFamily:
    """Wrap a measure spec as a WeightFamily (float values).  A weight at the
    start index that is not a finite positive float raises ValueError here."""
    start = max(n0, 2)
    measure_induced(spec, n0, start)
    # w_n = n^(delta + o(1)) gives (sigma, delta) = (1 + delta, delta)
    if spec.kind == "discrete":
        # mass near 0 dominates the growth: w_n <= n^(2 s_min) / m(s_min) = w_n (1 + o(1))
        s_min = min(sig for sig, _ in spec.atoms)
        m_min = sum(mass for sig, mass in spec.atoms if sig == s_min)
        delta = 2.0 * s_min
        bound = (1.0 / m_min, delta)
    else:
        a = spec.alpha
        # w_n = (log n)^alpha = n^o(1) and log n <= (2/e) sqrt(n)
        delta = 0.0
        bound = (1.05 * (2.0 / math.e) ** a, a / 2.0)

    def window(lo, hi):
        w = np.zeros(hi - lo)
        w[max(start - lo, 0) :] = _measure_weights(
            spec, np.arange(max(start, lo), hi, dtype=np.float64))
        return w

    return WeightFamily(
        name,
        "measure_induced",
        start,
        1.0 + delta,
        delta,
        bound,
        lambda n: measure_induced(spec, n0, n),
        params={"measure": spec, "n0": n0},
        windows=lambda pp, exact=False: window,  # never exact
    )


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------
# The prime-power families but geometric have f(r) = r^O(1), so a p_n-smooth
# w_j is (log j)^O(n) = j^o(1): (sigma, delta) = (1, 0).


def _ones_family() -> WeightFamily:
    return _prime_power_family(
        "multiplicative", lambda p, r: 1, sigma=1.0, delta=0.0, growth_bound=(1.0, 0.0),
        name="ones", exact=True, integer_valued=True, r_only=True,
    )


def _omega_family() -> WeightFamily:
    # omega(n) <= log2(n) and log2(n)/sqrt(n) peaks at 2/(e ln 2) ~ 1.062
    return _prime_power_family(
        "additive", lambda p, r: 1, sigma=1.0, delta=0.0, growth_bound=(1.1, 0.5),
        name="omega", exact=True, integer_valued=True, r_only=True,
    )


def _big_omega_family() -> WeightFamily:
    return _prime_power_family(
        "additive", lambda p, r: r, sigma=1.0, delta=0.0, growth_bound=(1.1, 0.5),
        name="big_omega", exact=True, integer_valued=True, r_only=True,
    )


def _pow2(x: float) -> float:
    """2^x, +inf past the float range (an uncertified growth bound)."""
    return 2.0**x if x < 1024 else math.inf


def _divisor_pow_family(alpha, af: float) -> WeightFamily:
    exact = isinstance(alpha, int) and alpha >= 0

    def f(p, r):
        return (r + 1) ** alpha if exact else float(r + 1) ** af

    # d(n) <= 2 sqrt(n)
    return _prime_power_family(
        "multiplicative", f, sigma=1.0, delta=0.0, growth_bound=(_pow2(af), af / 2.0),
        name=f"divisor_pow(alpha={alpha})", exact=exact,
        params={"alpha": alpha}, integer_valued=exact, r_only=True,
    )


def _d_beta_family(beta, bf: float) -> WeightFamily:
    """Coefficients of the beta-th power of the zeta series, via the
    prime-power values binomial(beta + r - 1, r).  For non-integer beta the
    generalized binomial is used; equivalence with the series power then
    rests on the standard Euler-product expansion (float values)."""
    if not bf > 0:
        raise ValueError(f"beta: d_beta needs beta > 0, got {bf!r}")
    exact = isinstance(beta, int) and beta >= 1

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
    return _prime_power_family(
        "multiplicative", f, sigma=1.0, delta=0.0,
        growth_bound=(_pow2(m - 1), (m - 1) / 2.0),
        name=f"d_beta(beta={beta})", exact=exact,
        params={"beta": beta}, integer_valued=exact, r_only=True,
    )


def _log_pow_family(alpha, af: float) -> WeightFamily:
    """w_n = (log n)^alpha: the gamma-density measure family at alpha."""
    return _keyed("alpha", lambda a: measure_family(MeasureSpec("gamma_density", alpha=a),
                                                    name=f"log_pow(alpha={alpha})"), af)


def _one_plus_family(base: WeightFamily) -> WeightFamily:
    start = base.defined_from
    c, tau = base.growth_bound

    def windows(pp, exact=False):
        base_window = base.windows(pp, exact)

        def window(lo, hi):
            w = 1 + base_window(lo, hi)
            w[: max(start - lo, 0)] = 0
            return w

        return window

    # 1 + v_j adds the sum of j^(-s), of abscissas (1, 0), to v's
    return WeightFamily(
        f"one_plus({base.name})",
        "explicit",
        start,
        max(1.0, base.sigma),
        max(0.0, base.delta),
        (1.0 + c, max(tau, 0.0)),
        lambda n: 1 + base.value(n) if base.exact else 1.0 + _to_float(base.value(n)),
        exact=base.exact,
        params={"base": base},
        integer_valued=base.integer_valued,
        windows=windows,
    )


def _geometric_family(ratio, rf: float) -> WeightFamily:
    """Multiplicative family w_n = ratio^Omega(n) (prime-power value
    ratio^j).  With ratio < 1 this violates the multiplicative ratio
    condition at j = 1, making it the stock negative control.  An exact
    ratio's window reads ratio^j (w_1 the int 1, as value(1)), or _to_float
    of it, at j = Omega(n); a float ratio's is the prime-power fill."""
    if not rf > 0:
        raise ValueError(f"ratio: geometric ratio must be a positive float, got {rf!r}")
    exact = _is_exact(ratio)
    # sum_r (ratio p^(-s))^r needs s > log ratio / log p at each p: p = 2 binds if ratio > 1
    delta = max(0.0, math.log2(rf))

    def windows(pp, exact=False):
        powers = [1, *(ratio**j for j in range(1, pp.n.bit_length() + 1))]
        powers = np.array(powers, dtype=object) if exact else np.array(list(map(_to_float, powers)))

        def window(lo, hi):
            w = powers[_accel.prime_power_fill(lo, hi, pp.base, lambda p, r: r.astype(np.int8),
                                               np.add)]
            w[: max(1 - lo, 0)] = 0
            return w

        return window

    return _prime_power_family(
        "multiplicative", lambda p, r: ratio**r, sigma=max(1.0, delta), delta=delta,
        growth_bound=(1.0, delta), name=f"geometric(ratio={ratio})", exact=exact,
        params={"ratio": ratio}, r_only=True, windows=windows if exact else None,
    )


_NAMED_BUILDERS = {
    "ones": (lambda params: _ones_family(), set()),
    "omega": (lambda params: _omega_family(), set()),
    "big_omega": (lambda params: _big_omega_family(), set()),
    "divisor_pow": (lambda params: _divisor_pow_family(*_finite(params, "alpha", 1)), {"alpha"}),
    "log_pow": (lambda params: _log_pow_family(*_finite(params, "alpha", 1)), {"alpha"}),
    "d_beta": (lambda params: _d_beta_family(*_finite(params, "beta", 2)), {"beta"}),
    "geometric": (lambda params: _geometric_family(*_finite(params, "ratio", "1/2")), {"ratio"}),
}


def named_family(name: str, **params) -> WeightFamily:
    if name == "one_plus":
        _known("one_plus parameters", params, {"base"})
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
    _known(f"{name} parameters", params, allowed)
    return builder(params)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_FAMILY_KEYS = {
    "named": {"kind", "name", "parameters", "start_index"},
    "explicit": {"kind", "values", "start_index", "sigma", "delta", "growth_bound"},
    "measure": {"kind", "spec", "n0"},
}

_SPEC_KEYS = {
    "discrete": {"type", "atoms"},
    "gamma_density": {"type", "alpha"},
}


def family_from_config(cfg: dict) -> WeightFamily:
    """Build a family from its JSON description; unknown keys are rejected.
    Declaration keys go through ``WeightFamily.declare``, over the family's own."""
    if not isinstance(cfg, dict):
        raise ValueError(f"family: expected an object, got {cfg!r}")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise ValueError(
            f"family kind must be one of {sorted(_FAMILY_KEYS)}, got {kind!r}"
        )
    _known("family config keys", cfg, _FAMILY_KEYS[kind])
    decl = {key: _keyed(key, read, cfg[key]) for key, read in
            (("start_index", _int), ("sigma", _finite_float), ("delta", _finite_float))
            if key in cfg}

    if kind == "named":
        if not isinstance(cfg.get("name"), str):
            raise ValueError(f"name: expected a family name, got {cfg.get('name')!r}")
        if not isinstance(params := cfg.get("parameters", {}), dict):
            raise ValueError(f"parameters: expected an object, got {params!r}")
        fam = named_family(cfg["name"], **params)
    elif kind == "explicit":
        for key in ("values", "start_index", "sigma", "delta", "growth_bound"):
            if key not in cfg:
                raise ValueError(f"explicit family config needs {key!r}")
        if not isinstance(cfg["values"], list):
            raise ValueError(f"values: expected a list of numbers, got {cfg['values']!r}")
        if not (isinstance(bound := cfg["growth_bound"], list) and len(bound) == 2):
            raise ValueError(f"growth_bound: expected a pair [c, tau], got {bound!r}")
        values = [_keyed(f"values[{i}]", _parse_scalar, v) for i, v in enumerate(cfg["values"])]
        bound = tuple(_keyed(f"growth_bound[{i}]", _float, c) for i, c in enumerate(bound))
        exact = all(_is_exact(v) for v in values)
        table = {decl["start_index"] + i: v for i, v in enumerate(values)}

        def value_fn(n):
            if n not in table:
                raise ValueError(f"explicit family has no value at n={n}")
            return table[n]

        return WeightFamily(
            "explicit", "explicit", growth_bound=bound, value_fn=value_fn,
            exact=exact, params={"n_values": len(values)},
            integer_valued=all(isinstance(v, int) for v in values), **decl,
        )
    else:
        spec_cfg = cfg.get("spec")
        if not isinstance(spec_cfg, dict):
            raise ValueError("measure family config needs a 'spec' object")
        stype = spec_cfg.get("type")
        if not isinstance(stype, str) or stype not in _SPEC_KEYS:
            raise ValueError(f"unknown measure spec type {stype!r}")
        _known(f"{stype} spec keys", spec_cfg, _SPEC_KEYS[stype])
        if stype == "discrete":
            atoms = spec_cfg.get("atoms", [])
            if not (isinstance(atoms, (list, tuple))
                    and all(isinstance(a, (list, tuple)) and len(a) == 2 for a in atoms)):
                raise ValueError("discrete spec 'atoms' must be a list of [position, mass] pairs")
            atoms = tuple(tuple(_keyed(f"spec.atoms[{i}][{j}]", (_position, _mass)[j], x)
                                for j, x in enumerate(a)) for i, a in enumerate(atoms))
            spec = MeasureSpec("discrete", atoms=atoms)
        else:
            spec = _keyed("spec.alpha", lambda a: MeasureSpec("gamma_density", alpha=_float(a)),
                          spec_cfg.get("alpha", 1))
        n0 = _keyed("n0", _int, cfg.get("n0", 2))
        fam = _keyed("spec", lambda sp: measure_family(sp, n0, f"measure({stype})"), spec)
    fam.declare(**decl)
    return fam
