"""The Mobius-convolution nonnegativity condition, computed three ways.

For a weight family w with declared smooth abscissa delta and start index
k, the quantity of interest is

    S(n) = sum over divisors j of n with j >= k of j^(-delta) w_j mu(n/j).

``divisor_sum`` evaluates it literally; ``mult_product`` uses the factored
closed form available for multiplicative families; ``additive_Tt`` uses
the per-prime decomposition available for additive families, whose
individual terms are the sharper per-term certificates.  ``s_columns``
computes S(0..n) by any of the three and alone picks the arithmetic lane:
``check_range`` cross-checks its columns.  ``series_column`` is the
series kernel's: the exact factored column wherever the divisor sums
equal it bit for bit.  ``prime_power_check`` reads the signs of S at the
prime powers alone, which decide the condition for multiplicative and
additive families.

Sign policy: with delta = 0 and exact (rational) weights everything is
computed in exact arithmetic (int64 columns where overflow is ruled out in
advance, Python ints and Fractions otherwise) and verdicts are exact;
otherwise floats are used and a value in (-tol, 0) is reported as
nonnegative-within-tolerance, never as a certified violation, and a value
that is not finite as inconclusive.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations

import numpy as np

from . import _accel, arith
from .weights import WeightFamily, _int, _to_float

NONNEG_EXACT = "nonneg_exact"
NONNEG_TOL = "nonneg_within_tol"
NEGATIVE = "negative_certified"
INCONCLUSIVE = "inconclusive"

DEFAULT_TOL = 1e-10
#: Terms von_mangoldt_alpha sums at most: 0.2-0.3 s at 4.5-6.5 us each (2-vCPU Xeon VM).
MAX_COMPOSITIONS = 5 * 10**4
#: Terms von_mangoldt_range sums at most over its whole range: 4.5-6.5 s.
MAX_RUN_COMPOSITIONS = 10**6


def _mode(w: WeightFamily, delta) -> tuple[float, bool]:
    """(delta or the family's delta, whether S is exact: rational w at delta 0)."""
    delta = w.delta if delta is None else float(delta)
    return delta, w.exact and delta == 0.0


def _resolve(w: WeightFamily, delta, k):
    delta, exact = _mode(w, delta)
    if k is None:
        # never inferred from context: the family's declared start governs
        # (1 for multiplicative, 2 for additive, as declared otherwise)
        k = w.start_index
    k = _int(k)
    if k < 1:
        raise ValueError("start index k must be >= 1")
    if k < w.defined_from:
        raise ValueError(
            f"{w.name} is undefined on divisors below {w.defined_from}; k={k} too small"
        )
    return delta, exact, k


def divisor_sum(w: WeightFamily, delta: float, k: int, n: int):
    """S(n) by direct summation over the divisors of n."""
    delta, exact, k = _resolve(w, delta, k)
    n = arith._check_positive(n)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    total = 0 if exact else 0.0
    for j in arith.divisors(n):
        if j < k:
            continue
        m = arith.mobius(n // j)
        if m == 0:
            continue
        if exact:
            total += w.value(j) * m
        else:
            coef = 1.0 if delta == 0.0 else j ** (-delta)
            total += _to_float(w.value(j)) * m * coef
    return total


def _prime_power_factor(w, delta, exact, p, r):
    """p^(-delta (r-1)) (p^(-delta) w_{p^r} - w_{p^(r-1)}): the factor of
    p^r in mult_product, and at delta = 0 the whole of S(p^r)."""
    hi, lo = w.prime_power(p, r), w.prime_power(p, r - 1)
    if exact:
        return hi - lo
    try:
        pd = 1.0 if delta == 0.0 else p ** (-delta)
        return pd ** (r - 1) * (pd * _to_float(hi) - _to_float(lo))
    except OverflowError:  # a power past the float range: inf, which decides nothing
        return math.inf


def mult_factors(w: WeightFamily, delta: float, n: int) -> list:
    """Per-prime factors p^(-delta (r-1)) (p^(-delta) w_{p^r} - w_{p^(r-1)})
    whose product is S(n) for a multiplicative family with k = 1."""
    if w.kind != "multiplicative":
        raise ValueError(f"{w.name} is not multiplicative")
    delta, exact = _mode(w, delta)
    n = arith._check_positive(n)
    return [_prime_power_factor(w, delta, exact, p, r) for p, r in arith.factorize(n)]


def mult_product(w: WeightFamily, delta: float, n: int):
    """Factored form of S(n) over the prime factorization; equals
    divisor_sum with k = 1 for multiplicative families."""
    delta, exact = _mode(w, delta)
    return math.prod(mult_factors(w, delta, n), start=1 if exact else 1.0)


def _companion(delta, p, r):
    """p^(-delta (r-1)) (p^(-delta) - 1): the factor of p^r in the term T_t
    of every other prime of n; inf past the float range."""
    try:
        pd = 1.0 if delta == 0.0 else p ** (-delta)
        return pd ** (r - 1) * (pd - 1.0)
    except OverflowError:
        return math.inf


def additive_Tt(w: WeightFamily, delta: float, n: int):
    """Per-prime decomposition S(n) = sum_t T_t for an additive family
    (k = 2, with the w_1 = 0 extension).  Returns (total, terms)."""
    if w.kind != "additive":
        raise ValueError(f"{w.name} is not additive")
    delta, exact = _mode(w, delta)
    n = arith._check_positive(n)
    if n < 2:
        raise ValueError("additive decomposition needs n >= 2")
    factors = arith.factorize(n).factors
    terms = [_prime_power_factor(w, delta, exact, p, r) for p, r in factors]
    if exact:  # at delta = 0 every companion p^(-delta) - 1 vanishes
        terms = terms if len(terms) == 1 else [0] * len(terms)
    else:  # T_t: its factor times the companion of every other prime, in ascending order
        comp = [_companion(delta, p, r) for p, r in factors]
        terms = [math.prod((c for j, c in enumerate(comp) if j != t), start=f)
                 for t, f in enumerate(terms)]
    return sum(terms), tuple(terms)


def von_mangoldt_alpha(n: int, alpha: int) -> float:
    """Generalized von Mangoldt value: the Mobius convolution of (log)^alpha,
    sum over divisors j >= 2 of n of (log j)^alpha mu(n/j).

    Expanded over the prime factorization, the sum collapses to monomials
    in the log p_i with positive integer coefficients, so the returned
    value is nonnegative by construction and exactly zero whenever n has
    more than alpha distinct prime factors.  alpha = 1 is the classical
    von Mangoldt function.  A value past the float range raises ValueError,
    a sum of more than MAX_COMPOSITIONS terms ResourceLimitError.
    """
    n = arith._check_sieve(n, "n")  # trial division: 2^61 - 1 alone takes minutes
    if n < 2:
        raise ValueError("generalized von Mangoldt values start at n = 2")
    if not isinstance(alpha, int) or alpha < 1:
        raise ValueError("alpha must be a positive integer")
    factors = arith.factorize(n).factors
    if len(factors) > alpha:
        return 0.0
    logs = [math.log(p) for p, _ in factors]
    total = 0.0
    try:  # lg**a and int * float raise OverflowError past the float range
        # compositions of alpha into one part per prime, lexicographic like their cuts
        for count, cuts in enumerate(combinations(range(1, alpha), len(factors) - 1)):
            if count == MAX_COMPOSITIONS:
                raise arith.ResourceLimitError(f"von Mangoldt value at n={n}, alpha={alpha} sums "
                                               f"{math.comb(alpha - 1, len(factors) - 1)} "
                                               f"compositions, past the ceiling {MAX_COMPOSITIONS}")
            comp = [b - a for a, b in zip((0, *cuts), (*cuts, alpha))]
            coef = math.factorial(alpha) // math.prod(map(math.factorial, comp))
            coef *= math.prod(r**a - (r - 1) ** a for (_, r), a in zip(factors, comp))
            total += coef * math.prod(lg**a for lg, a in zip(logs, comp))
            if math.isinf(total):
                raise OverflowError
    except OverflowError:
        raise ValueError(f"von Mangoldt value at n={n}, alpha={alpha} overflows float64") from None
    return total


def von_mangoldt_range(n_max: int, alpha: int) -> list[float]:
    """von_mangoldt_alpha(n, alpha) for n = 2..n_max.  The value at n sums
    C(alpha - 1, omega(n) - 1) compositions (none past alpha distinct
    primes); a range whose total is past MAX_RUN_COMPOSITIONS raises
    ResourceLimitError before any value is computed.  Each prime counts
    C(alpha - 1, 0) = 1 and pi(x) > x / ln x for x >= 17 (Rosser and
    Schoenfeld 1962), so a range past the ceiling on that count alone is
    refused before omega is counted."""
    n_max = arith._check_sieve(n_max, "n_max")
    if not isinstance(alpha, int) or alpha < 1:
        raise ValueError("alpha must be a positive integer")

    def refused(total):
        return arith.ResourceLimitError(
            f"von Mangoldt values for n <= {n_max}, alpha={alpha} sum {total} compositions, "
            f"past the run ceiling {MAX_RUN_COMPOSITIONS}")

    if n_max >= 17 and (least := math.floor(n_max / math.log(n_max))) > MAX_RUN_COMPOSITIONS:
        raise refused(f"more than {least}")
    # omega: 1 per prime power p^r || n, in int8
    omega = _accel.PrimePowers(n_max).column(lambda p, r: np.ones(len(r), np.int8), np.add)[2:]
    total = sum(np.count_nonzero(omega == w) * math.comb(alpha - 1, w - 1)
                for w in range(1, min(alpha, int(omega.max(initial=0))) + 1))
    if total > MAX_RUN_COMPOSITIONS:
        raise refused(total)
    return [von_mangoldt_alpha(n, alpha) for n in range(2, n_max + 1)]


# ---------------------------------------------------------------------------
# range evaluation
# ---------------------------------------------------------------------------

#: Verdicts by rising severity.
VERDICTS = (NONNEG_EXACT, NONNEG_TOL, INCONCLUSIVE, NEGATIVE)
METHODS = ("divisor_sum", "mult_product", "additive_Tt")

#: Integers below 2^53 are exact in float64.  int64 products are exact modulo
#: 2^64, so a float bound below 2^62 on |product| rules out overflow.
_FLOAT_EXACT = 2**53
_INT64_SAFE = 2.0**62


class MethodDisagreement(RuntimeError):
    """Exact routes gave different values: a defect, never a verdict."""


@dataclass(frozen=True)
class ConditionRecord:
    n: int
    value: object
    method: str
    verdict: str
    margin: float


FIELDS = ("n", "value", "method", "verdict", "margin")


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Per-n outcomes of the condition over [n_lo, n_hi], with method
    provenance, sign margins, and an aggregate verdict.

    The rows are stored as columns: ``columns`` maps each of FIELDS to an
    array with one entry per (n, method) row; ``value`` is int64, float64,
    or object for Python ints and Fractions, and ``method`` and ``verdict``
    are int8 codes into METHODS and VERDICTS.  ``records`` builds the rows
    as ConditionRecords on first access.
    """

    family: str
    delta: float
    k: int
    n_lo: int
    n_hi: int
    mode: str
    tol: float
    methods: tuple[str, ...]
    columns: dict
    verdict: str
    agreement_failures: int

    @cached_property
    def records(self) -> tuple[ConditionRecord, ...]:
        n, value, method, verdict, margin = (c.tolist() for c in self.columns.values())
        return tuple(map(ConditionRecord, n, value, map(METHODS.__getitem__, method),
                         map(VERDICTS.__getitem__, verdict), margin))

    def counts(self) -> dict:
        """Rows per verdict, in the order the verdicts first occur."""
        codes, first, count = np.unique(self.columns["verdict"], return_index=True,
                                        return_counts=True)
        return {VERDICTS[codes[i]]: int(count[i]) for i in np.argsort(first)}

    def to_json_dict(self, with_records: bool = True) -> dict:
        return {
            "family": self.family,
            "delta": self.delta,
            "k": self.k,
            "range": [self.n_lo, self.n_hi],
            "mode": self.mode,
            "tol": self.tol,
            "methods": list(self.methods),
            "verdict": self.verdict,
            "agreement_failures": self.agreement_failures,
            "counts": self.counts(),
            "records": [{"n": r.n, "value": _strict_json(r.value), "method": r.method,
                         "verdict": r.verdict, "margin": _strict_json(r.margin)}
                        for r in (self.records if with_records else ())],
        }

    def render(self, pad: str = "", chunk: int = 1 << 14):
        """Yield (JSON text, CSV text) pairs, one per chunk of rows between a
        head and a tail.  The JSON parts join to the records array as
        json.dumps(..., sort_keys=True, indent=2) writes it at indent ``pad``,
        the CSV parts to the header and one excel-dialect (CRLF) row per
        record: each one join of the same column tokens (see _column_tokens)."""
        head, value_key = f',\n{pad}  {{\n{pad}    "margin": ', f',\n{pad}    "value": '
        method_json, verdict_json, pair_csv = (np.array(pieces, dtype=object) for pieces in (
            [f',\n{pad}    "method": "{m}",\n{pad}    "n": ' for m in METHODS],
            [f',\n{pad}    "verdict": "{v}"\n{pad}  }}' for v in VERDICTS],
            [f",{m},{v}," for m in METHODS for v in VERDICTS]))  # by method * 4 + verdict
        yield "[", ",".join(FIELDS) + "\r\n"
        for lo in range(0, size := len(self.columns["n"]), chunk):
            n, value, method, verdict, margin = (c[lo : lo + chunk] for c in self.columns.values())
            n, (value, value_csv), (margin, margin_csv) = (
                _column_tokens(n)[0], _column_tokens(value), _column_tokens(margin))
            text = _join(head, margin, method_json[method], n, value_key, value,
                         verdict_json[verdict])[lo == 0 :]  # row 0 opens without ","
            yield text, _join(n, ",", value_csv, pair_csv[method * len(VERDICTS) + verdict],
                              margin_csv, "\r\n")
        yield ("]" if size == 0 else f"\n{pad}]"), ""

    def write_csv(self, fh) -> None:
        """The CSV projection: a header, then one row per record."""
        fh.writelines(rows for _, rows in self.render())


def _strict_json(v):
    """v as a report writes it, through dicts, lists and tuples: a Fraction
    as "p/q", a numpy integer as an int, and a float that is not finite as
    the string "inf", "-inf" or "nan" (strict JSON has no token for those)."""
    if isinstance(v, dict):
        return {k: _strict_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return list(map(_strict_json, v))
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return v if math.isfinite(v) else str(v)
    return int(v) if isinstance(v, np.integer) else v


def _tokens(col: np.ndarray) -> tuple[list[str], list[str]]:
    """The JSON and the CSV token of each entry of a column chunk: str() of
    ints and repr() of floats in both, except "nan"/"inf" (JSON strings)
    against nan/inf (CSV), and "p/q" (JSON) against p/q (CSV) for a
    Fraction."""
    finite = col.dtype.kind != "f" or np.isfinite(col).all()
    scalars = col.tolist()
    if col.dtype == object or not finite:
        scalars = list(map(_strict_json, scalars))
    if col.dtype.kind == "i":
        return (tokens := list(map(str, scalars))), tokens
    tokens = json.dumps(scalars, separators=("\n", ":"))[1:-1].split("\n")  # C encoder
    return tokens, tokens if col.dtype.kind == "f" and finite else list(map(str, scalars))


def _column_tokens(col: np.ndarray) -> tuple:
    """_tokens of each distinct int64 or float64 entry (floats keyed on their bits, so
    -0.0 is not 0.0), gathered back per row; row by row for objects, which mix types."""
    if col.dtype == object:
        return _tokens(col)
    key = col.view(np.int64) if col.dtype.kind == "f" else col
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return tuple(np.array(tokens, dtype=object)[inverse] for tokens in _tokens(col[first]))


def _join(*pieces) -> str:
    """One "".join over rows of pieces, each a column or a string for every row."""
    columns = np.broadcast_arrays(*(np.asarray(piece, dtype=object) for piece in pieces))
    return "".join(np.stack(columns, axis=1).ravel().tolist())


def _exact_values(w: WeightFamily, k: int, pp: _accel.PrimePowers) -> list:
    """w_j for j <= pp.n as Python ints and Fractions, zero below k: one
    prime-power fill of w.prime_power (multiplicative and additive
    families), 1 + the base's values (one_plus), else value().  value(j)
    of a prime-power family would factorize every j."""
    base = w.params.get("base")
    if isinstance(base, WeightFamily):
        return [0] * k + [1 + v for v in _exact_values(base, k, pp)[k:]]
    if w.kind in ("multiplicative", "additive"):
        op = np.multiply if w.kind == "multiplicative" else np.add
        return [0] * k + pp.column(pp.values(w.prime_power, object, w.r_only), op)[k:].tolist()
    return [0] * k + [w.value(j) for j in range(k, pp.n + 1)]


def _prime_power_factors(w: WeightFamily, delta: float, exact: bool, pp: _accel.PrimePowers,
                         r_only: bool):
    """(p, r, at, fq, size) at pp.pairs(r_only): _prime_power_factor, one
    call per pair, in float64; or, when exact, the differences of one
    prime_power call per pair, int64 for an integer-valued family while
    they fit, and the sizes |w_(p^r)| + |w_(p^(r-1))| as floats."""
    p, r, at = pp.pairs(r_only)
    if not exact:
        f = partial(_prime_power_factor, w, delta, False)
        return p, r, at, _accel.map_prime_powers(p, r, f, np.float64), None
    hi = _accel.map_prime_powers(p, r, w.prime_power, object)
    lo = np.full(len(p), w.prime_power(2, 0), dtype=object)  # w_1 below every p^1
    lo[r > 1] = hi[at(p[r > 1], r[r > 1] - 1)]
    fq, size = hi - lo, abs(hi) + abs(lo)
    try:
        size = size.astype(np.float64)
    except OverflowError:  # a size past the float range
        size = np.array(list(map(_to_float, size.tolist())))
    with suppress(OverflowError):  # a factor past int64 keeps them all Python ints
        fq = fq.astype(np.int64) if w.integer_valued else fq
    return p, r, at, fq, size


_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)  # product past 2^59


def _exact_factored(w: WeightFamily, method: str, pp: _accel.PrimePowers):
    """(fq, at, bound): the exact factors at delta = 0 (_prime_power_factors)
    and a bound on every |w_j| and every partial sum of every divisor sum
    S(m), j, m <= n.  Additive: |w_j| <= omega(j) max size <= log2(n) max
    size, summed over d(m) <= 2 sqrt(m) terms.  Multiplicative: the largest
    product of the sizes over p^r || m, the sum of |w_j mu(m/j)| over j | m.
    With sizes on r alone that is a product over the exponent patterns
    r_1 >= r_2 >= ... on the first primes, the least m with those exponents
    (237 of them at 4.6*10^5); else the max of a float64 fill.  Either is
    exact below 2^53 and never rounds below it; below 2^62 no int64 product
    of factors overflows."""
    n = pp.n
    _, _, at, fq, size = _prime_power_factors(w, 0.0, True, pp, w.r_only)
    with np.errstate(over="ignore"):  # inf is past every bound
        if method == "additive_Tt":
            return fq, at, 2.0 * math.sqrt(n) * math.log2(n) * size.max(initial=0.0)
        if not w.r_only:  # one WINDOW of the fill at a time
            return fq, at, max(_accel.prime_power_fill(
                lo, min(lo + _accel.WINDOW, n + 1), pp.base, lambda p, r: size[at(p, r)],
                np.multiply).max() for lo in range(0, n + 1, _accel.WINDOW))
        bound, todo = 1.0, [(0, len(size), 1, 1.0)]  # (prime index, top exponent, m, product)
        while todo:
            i, top, m, product = todo.pop()
            bound = max(bound, product)
            for r in range(1, top + 1):
                if (m := m * _FIRST_PRIMES[i]) > n:
                    break
                todo.append((i + 1, r, m, product * size[r - 1]))
    return fq, at, bound


def _fill(pp: _accel.PrimePowers, fq, at, method: str, lo: int, hi: int, dtype) -> np.ndarray:
    """S(lo..hi-1) in dtype from the factors fq[at(p, r)]: at delta = 0 only
    the prime powers carry an additive S, and mult_product is their fill."""
    fq = fq.astype(dtype, copy=False)
    if method == "mult_product":
        return _accel.prime_power_fill(lo, hi, pp.base, lambda p, r: fq[at(p, r)], np.multiply)
    q, p, r = pp.within(lo, hi)
    col = np.zeros(hi - lo, dtype=dtype)
    col[q - lo] = fq[at(p, r)]
    return col


def _dual(x, y, out=None):
    """(P, A) (c, f) = (P c, A c + f P) on the last axis: the product of
    dual numbers c + eps f, eps^2 = 0.  Over the p^r || n in ascending
    order, from (1, 0), A is the sum over t of f_t times every other c."""
    a = x[..., 1] * y[..., 0] + y[..., 1] * x[..., 0]
    out = np.empty_like(x) if out is None else out
    np.multiply(x[..., 0], y[..., 0], out=out[..., 0])
    out[..., 1] = a
    return out


_dual.identity = (1.0, 0.0)


def _factored(w: WeightFamily, delta: float, method: str, pp: _accel.PrimePowers, exact: bool):
    """mult_product or additive_Tt for every n <= pp.n from the factors of
    the prime powers: exact ones (_exact_factored) in int64 or Python
    objects, else float64 ones, per exponent where they depend on r alone.
    The float additive_Tt is one fill of the pairs (companion, factor)
    under _dual: the per-n terms, rounded in another order.  A factor or
    companion past the float range is inf, and its rows are not finite."""
    n = pp.n
    if exact:
        fq, at, bound = _exact_factored(w, method, pp)
        # a product of int64 factors could overflow: multiply Python ints
        dtype = object if method == "mult_product" and not bound < _INT64_SAFE else fq.dtype
        return _fill(pp, fq, at, method, 0, n + 1, dtype)
    p, r, at, fq, _ = _prime_power_factors(w, delta, False, pp, w.r_only and delta == 0.0)
    with np.errstate(all="ignore"):  # inf times 0 is nan: an inconclusive row, not a warning
        if method == "mult_product":
            return _fill(pp, fq, at, method, 0, n + 1, np.float64)
        cq = _accel.map_prime_powers(p, r, partial(_companion, delta), np.float64)
        pairs = np.stack([cq, fq], axis=1)
        # + 0.0: a product 0 * (negative) is -0.0, the per-n sum's 0 is +0.0
        return pp.column(lambda p, r: pairs[at(p, r)], _dual)[:, 1] + 0.0


def s_columns(w: WeightFamily, delta: float, k: int, n: int,
              methods: tuple[str, ...] = ("divisor_sum",), exact: bool = False,
              pp: _accel.PrimePowers | None = None) -> list:
    """S(0..n) by each of ``methods``, in order, from at most one mu table
    and one read of the weight table; zero below k (mult_product is S at
    k = 1 only, additive_Tt at k = 2 only), from the run's pp if given.

    Lanes: float64 unless ``exact`` (rational weights at delta = 0).
    Exact columns of integer-valued families are int64: the factored ones
    (_exact_factored) while their factors fit and a product stays below
    2^62, divisor_sum while n * max|w_j| < 2^53 (every partial sum is then
    exact in float64).  Other exact columns are Python ints and Fractions.
    The weight table and mu are built after the factored routes, for
    divisor_sum alone; a power past the float range makes a row inf or NaN.
    """
    if exact and not _mode(w, delta)[1]:
        raise ValueError(f"exact S of {w.name} needs rational weights and delta = 0")
    pp = pp or _accel.PrimePowers(n)
    cols = {m: _factored(w, delta, m, pp, exact) for m in methods if m != "divisor_sum"}
    if "divisor_sum" in methods:
        table = w.values_table(n, pp) if w.integer_valued or not exact else None
        # Python ints and Fractions unless every exact partial sum is below 2^53
        # (a weight past float64 reads inf)
        objects = exact and (table is None or not (top := np.abs(table).max()) < _FLOAT_EXACT
                             or n * int(top) >= _FLOAT_EXACT)
        mu = _accel.mobius_table(n, pp)
        if objects:
            del table  # the exact sums read Python values
            cols["divisor_sum"] = np.array(
                _accel.exact_convolve(_exact_values(w, k, pp), mu.tolist()), dtype=object)
        else:  # float64 sums; exact ones are integers below 2^53, cast to int64
            with np.errstate(over="ignore", invalid="ignore"):  # inf, and inf * 0 = NaN
                col = _accel.divisor_sum_table(table, mu, delta, k)
            cols["divisor_sum"] = col.astype(np.int64) if exact else col
    return [cols[m] for m in methods]


def series_column(w: WeightFamily, delta: float, n: int):
    """S(0..n) in float64 at the family's start index: the series kernel's
    coefficients.  In the exact lane (integer-valued at delta = 0,
    multiplicative with k = 1 or additive with k = 2) and below 2^53 of
    _exact_factored's bound, the factored column, streamed as an
    _accel.Column, which the float divisor sums then equal bit for bit;
    else s_columns's divisor_sum column.  The bound is at least the size
    |w_(2^r)| + |w_(2^(r-1))| at every 2^r <= n, so a family past 2^53 there
    skips _exact_factored (one past the bound only off the powers of 2
    computes its exact factors, then the sums)."""
    pp, k = _accel.PrimePowers(n), w.start_index
    method = {("multiplicative", 1): "mult_product",
              ("additive", 2): "additive_Tt"}.get((w.kind, k))
    if method and w.integer_valued and _mode(w, delta)[1] and all(
            abs(w.prime_power(2, r)) + abs(w.prime_power(2, r - 1)) < _FLOAT_EXACT
            for r in range(1, n.bit_length())):
        fq, at, bound = _exact_factored(w, method, pp)
        if bound < _FLOAT_EXACT:
            def window(lo, hi):  # + 0.0: a product 0 * (negative) is -0.0, a divisor sum's +0.0
                col = _fill(pp, fq, at, method, lo, hi, np.float64)
                return np.add(col, 0.0, out=col)

            return _accel.Column(n, window)
    return s_columns(w, delta, k, n, pp=pp)[0]


def check_range(
    w: WeightFamily,
    delta: float | None,
    k: int | None,
    n_max: int,
    methods: tuple[str, ...] = ("divisor_sum",),
    tol: float = DEFAULT_TOL,
) -> ConditionReport:
    """Evaluate the condition for every n in [k, n_max] using the requested
    methods, cross-checking their agreement.  Per-n verdicts follow the
    sign policy; the aggregate verdict is the worst per-n outcome
    (negative > inconclusive > within-tol > exact).

    The columns come from s_columns, in the family's mode; the report has
    one row per (n, method), n-major, methods in the order given (see
    ConditionReport).  An exact value past float64 gets the margin +-inf
    of its sign.  Exact routes that disagree raise MethodDisagreement.
    """
    delta, exact, k = _resolve(w, delta, k)
    n_max = arith._check_sieve(n_max, "n_max")
    arith._check_tol(tol)
    if n_max < k:
        raise ValueError(f"n_max={n_max} below the start index k={k}")
    if isinstance(methods, (set, frozenset)):
        methods = sorted(methods)  # keep record order deterministic
    methods = tuple(methods)
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"need one or more distinct methods, got {list(methods)}")
    kinds = {"divisor_sum": w.kind, "mult_product": "multiplicative", "additive_Tt": "additive"}
    for m in methods:
        if kinds.get(m) != w.kind:
            raise ValueError(f"method {m!r} not applicable to family kind {w.kind!r}")
    if "mult_product" in methods and k != 1:
        raise ValueError("mult_product agrees with the condition only for k = 1")
    if "additive_Tt" in methods and k != 2:
        raise ValueError("additive_Tt agrees with the condition only for k = 2")

    cols = [col[k:] for col in s_columns(w, delta, k, n_max, methods, exact)]
    ref = cols[0]
    bad = np.zeros(len(ref), dtype=bool)
    with np.errstate(all="ignore"):  # inf - inf compares as agreeing, as in Python
        for col in cols[1:]:
            bad |= (col != ref) if exact else np.abs(col - ref) > tol * np.maximum(
                np.maximum(1.0, np.abs(col)), np.abs(ref))
    if exact and bad.any():
        i = int(np.argmax(bad))
        vals = {m: c.tolist()[i] for m, c in zip(methods, cols)}
        raise MethodDisagreement(f"exact methods disagree at n={k + i}: {vals} for {w.name}")

    value = np.stack(cols, axis=1).reshape(-1)  # n-major, methods in order
    try:
        margin = value.astype(np.float64)
    except OverflowError:  # an exact value past float64
        margin = np.array(list(map(_to_float, value.tolist())))
    code = np.where(value < 0 if exact else margin < -tol, VERDICTS.index(NEGATIVE),
                    VERDICTS.index(NONNEG_EXACT if exact else NONNEG_TOL)).astype(np.int8)
    if not exact:  # a NaN or inf value decides nothing
        code[~np.isfinite(margin)] = VERDICTS.index(INCONCLUSIVE)
    code[np.repeat(bad, len(methods))] = VERDICTS.index(INCONCLUSIVE)

    return ConditionReport(
        family=w.name,
        delta=delta,
        k=k,
        n_lo=k,
        n_hi=n_max,
        mode="exact" if exact else "float",
        tol=tol,
        methods=methods,
        columns={
            "n": np.repeat(np.arange(k, n_max + 1), len(methods)),
            "value": value,
            "method": np.tile(np.array([METHODS.index(m) for m in methods], dtype=np.int8),
                              len(ref)),
            "verdict": code,
            "margin": margin,
        },
        verdict=VERDICTS[int(code.max())],
        agreement_failures=int(bad.sum()),
    )


def prime_power_check(w: WeightFamily, delta: float | None, n_max: int,
                      tol: float = DEFAULT_TOL) -> dict:
    """The sign of S(p^r) at every prime power p^r <= n_max, from the factor
    p^(-delta (r-1)) (p^(-delta) w_(p^r) - w_(p^(r-1))) (_prime_power_factors),
    under check_range's sign policy: an exact factor fails below 0, a float
    one below -tol or when it is not finite.

    Multiplicative w, k = 1 (Stetler): S is multiplicative and S(p^r) is the
    factor, so S(n) >= 0 on [1, n_max] iff every factor with r >= 1 passes,
    and the first negative n is the first failing p^r.  Additive w, k = 2,
    delta <= 0: S(n) is the sum of T_t, whose factors at r = 1 are
    p^(-delta) w_p > 0 and whose companions are >= 0, and S(p^r) is the
    factor, so S >= 0 on [2, n_max] iff every factor with r >= 2 passes (the
    corollary's w_(p^(j-1)) / w_(p^j) <= p^(-delta), j >= 2).  Other kinds
    raise ValueError.  first_violation is [p, r, margin] of the least
    failing p^r, margin the factor as a float.
    """
    if w.kind not in ("multiplicative", "additive"):
        raise ValueError(f"{w.name} is {w.kind}: no prime-power check")
    delta, exact = _mode(w, delta)
    n_max = arith._check_sieve(n_max, "n_max")
    arith._check_tol(tol)
    mult = w.kind == "multiplicative"
    p, r, _, fq, _ = _prime_power_factors(w, delta, exact, _accel.PrimePowers(n_max), False)
    keep = r >= (1 if mult else 2)
    p, r, fq = p[keep], r[keep], fq[keep]
    margin = np.array(list(map(_to_float, fq.tolist())), dtype=np.float64)
    bad = np.flatnonzero(fq < 0 if exact else ~np.isfinite(margin) | (margin < -tol))
    i = bad[0] if len(bad) else None
    return {
        "rule": "multiplicative r>=1" if mult else "additive r>=2",
        "delta": delta,
        "range": [2, n_max],
        "checks": len(fq),
        "passed": len(bad) == 0,
        "violations": len(bad),
        "first_violation": None if i is None else [int(p[i]), int(r[i]), float(margin[i])],
        "delta_nonpositive": None if mult else delta <= 0.0,
    }
