"""The Mobius-convolution nonnegativity condition, computed three ways.

For a weight family w with declared smooth abscissa delta and start index
k, the quantity of interest is

    S(n) = sum over divisors j of n with j >= k of j^(-delta) w_j mu(n/j).

``divisor_sum`` evaluates it literally; ``mult_product`` uses the factored
closed form available for multiplicative families; ``additive_Tt`` uses
the per-prime decomposition available for additive families, whose
individual terms are the sharper per-term certificates.  ``s_columns``
computes S(0..n) by any of the three and alone picks the arithmetic lane:
``check_range`` cross-checks its columns.  The factor of each prime power
comes from one table, ``_LocalFactors`` (each float one from ``_factor``),
read by the per-n routes, by ``prime_power_check``, whose signs decide the
condition for multiplicative and additive families, and by ``_factored``,
whose windows are the factored columns; ``series_column``, the series
kernel's, is its exact window in float64 wherever the divisor sums equal it
bit for bit.  For w_j = (log j)^alpha, delta = 0 and k = 2, S is Lambda_alpha
= mu * L^alpha, which ``von_mangoldt_alpha`` (one n) and
``von_mangoldt_range`` (a float64 column) compute by its recurrence.

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

import numpy as np

from . import _accel, arith
from .weights import WeightFamily, _int, _to_float

NONNEG_EXACT = "nonneg_exact"
NONNEG_TOL = "nonneg_within_tol"
NEGATIVE = "negative_certified"
INCONCLUSIVE = "inconclusive"

DEFAULT_TOL = 1e-10
#: Work past which von Mangoldt values raise ResourceLimitError: alpha steps, each n_max or
#: the divisor pairs of n, plus 5000 for the fixed cost of a step (_convolve's j <= 1000).
MAX_VON_MANGOLDT_WORK = 2 * 10**7


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


def _factor(delta, p, r, hi=1.0, lo=1.0) -> np.ndarray:
    """p^(-delta (r-1)) (p^(-delta) hi - lo) over float64 arrays (past the float range +-inf,
    or NaN where inf meets 0): with hi = w_(p^r), lo = w_(p^(r-1)) the factor of p^r in
    mult_product (at delta = 0 all of S(p^r)); by default the companion of p^r in T_t of every
    other prime of n.  An entry has the same bits alone in a 1-d array as in a column.  With
    numpy's power within an ulp, pd = p^(-delta) (1 + e), |e| <= 2u, u = 2^-53 (e = 0 at
    delta = 0); pd^(r-1) adds 2r u, pd hi 3u, - and * u each, so the error is at most gamma_k
    = k u / (1 - k u), k = 2r + 5, times p^(-delta (r-1)) (p^(-delta) |hi| + |lo|) (Higham)."""
    with np.errstate(over="ignore", invalid="ignore"):
        pd = np.power(p, -delta, dtype=np.float64)
        return pd ** (r - 1) * (pd * hi - lo)


class _LocalFactors:
    """hi = w_(p^r) and lo = w_(p^(r-1)) (w_1 at r = 1), in one lane, over the pairs (p, r) of
    a PrimePowers's ``values`` (per exponent on r alone, ``at`` then r - 1; else the listing,
    which ``at`` searches) or of the p^r || n.  ``factor`` gives the factor of any p^r; for the
    exact columns, ``size`` is |hi| + |lo| in float64, which bounds |factor| at delta 0."""

    def __init__(self, w: WeightFamily, delta: float, exact: bool, source):
        f = w.prime_power if exact else lambda p, r: _to_float(w.prime_power(p, r))
        dtype = object if exact else np.float64
        if columns := isinstance(source, _accel.PrimePowers):  # one w.prime_power call a pair
            p, r, hi, self.at = source.values(f, dtype, w.r_only)
            lo = np.full(len(p), f(2, 0), dtype=dtype)  # w_1 below every p^1
            lo[r > 1] = hi[self.at(p[r > 1], r[r > 1] - 1)]
        else:
            pairs = arith.factorize(source).factors
            p, r = np.array(pairs, np.int64).reshape(-1, 2).T
            hi, lo = (np.array([f(q, s - e) for q, s in pairs], dtype) for e in (0, 1))
            self.at = lambda q, s: np.searchsorted(p, q)
        self.delta, self.exact, self.p, self.r, self.hi, self.lo = delta, exact, p, r, hi, lo
        self.diff = hi - lo if exact else None
        if exact and columns:  # int64 for an integer-valued family while they fit
            self.size = _accel.evaluate(_to_float, float, abs(hi) + abs(lo))
            with suppress(OverflowError):  # a factor past int64 keeps them all Python ints
                self.diff = self.diff.astype(np.int64) if w.integer_valued else self.diff

    def factor(self, p, r) -> np.ndarray:
        """At arrays p and r: hi - lo if exact, else _factor computed at p from hi and lo."""
        i = self.at(p, r)
        return self.diff[i] if self.exact else _factor(self.delta, p, r, self.hi[i], self.lo[i])


def mult_factors(w: WeightFamily, delta: float, n: int) -> list:
    """Per-prime factors p^(-delta (r-1)) (p^(-delta) w_{p^r} - w_{p^(r-1)})
    whose product is S(n) for a multiplicative family with k = 1."""
    if w.kind != "multiplicative":
        raise ValueError(f"{w.name} is not multiplicative")
    local = _LocalFactors(w, *_mode(w, delta), n)
    return local.factor(local.p, local.r).tolist()


def mult_product(w: WeightFamily, delta: float, n: int):
    """Factored form of S(n) over the prime factorization; equals
    divisor_sum with k = 1 for multiplicative families."""
    return math.prod(mult_factors(w, delta, n), start=1 if _mode(w, delta)[1] else 1.0)


def additive_Tt(w: WeightFamily, delta: float, n: int):
    """Per-prime decomposition S(n) = sum_t T_t for an additive family
    (k = 2, with the w_1 = 0 extension).  Returns (total, terms)."""
    if w.kind != "additive":
        raise ValueError(f"{w.name} is not additive")
    if arith._check_positive(n) < 2:
        raise ValueError("additive decomposition needs n >= 2")
    local = _LocalFactors(w, *_mode(w, delta), n)
    factors = local.factor(local.p, local.r).tolist()  # at delta = 0 every companion vanishes
    comp = [0] * len(factors) if local.exact else _factor(local.delta, local.p, local.r).tolist()
    # T_t: its factor times the companion of every other prime, in ascending order
    terms = [math.prod((c for j, c in enumerate(comp) if j != t), start=f)
             for t, f in enumerate(factors)]
    return sum(terms), tuple(terms)


def _check_von_mangoldt_work(alpha, size: int, what: str) -> None:
    if not isinstance(alpha, int) or alpha < 1:
        raise ValueError("alpha must be a positive integer")
    if (work := alpha * (size + 5000)) > MAX_VON_MANGOLDT_WORK:
        raise arith.ResourceLimitError(f"von Mangoldt {what}, alpha={alpha}: work {work} "
                                       f"past the ceiling {MAX_VON_MANGOLDT_WORK}")


def _von_mangoldt(alpha: int, ns, lam, logs, convolve) -> np.ndarray:
    """Lambda_alpha = mu * L^alpha at ns, the last len(ns) entries, by alpha - 1
    steps Lambda_(k+1) = L Lambda_k + Lambda * Lambda_k from Lambda_1 = lam, with
    L = logs and * = convolve (Iwaniec and Kowalski, *Analytic Number Theory*,
    1.4).  All terms are >= 0: rounding errors stay relative, a value is 0 where
    n has more than alpha distinct primes, and one past float64 stays inf or nan."""
    cur = lam
    with np.errstate(over="ignore", invalid="ignore"):  # inf, and 0 * inf = nan
        for _ in range(alpha - 1):
            cur = convolve(lam, cur) + logs * cur
    if len(bad := np.flatnonzero(~np.isfinite(values := cur[len(cur) - len(ns) :]))):
        raise ValueError(f"von Mangoldt value at n={ns[bad[0]]}, alpha={alpha} overflows float64")
    return values


def von_mangoldt_alpha(n: int, alpha: int) -> float:
    """Lambda_alpha(n) = sum over divisors j >= 2 of n of (log j)^alpha mu(n/j),
    by _von_mangoldt on the divisors of n: (mi, qi, ci) indexes each divisor
    m, prime power q | m and m / q, m then q ascending.  alpha = 1 is the von
    Mangoldt function.  Work counts the pairs jq | n, prod of (r + 1)(r + 2)/2 over p^r || n."""
    n = arith._check_sieve(n, "n")  # trial division: 2^61 - 1 alone takes minutes
    if n < 2:
        raise ValueError("generalized von Mangoldt values start at n = 2")
    factors = arith.factorize(n).factors
    _check_von_mangoldt_work(alpha, math.prod((r + 1) * (r + 2) // 2 for _, r in factors),
                             f"value at n={n}")
    divs = arith.divisors(n)
    at = {d: i for i, d in enumerate(divs)}
    qs = dict(sorted((p**a, p) for p, r in factors for a in range(1, r + 1)))  # p^a: p
    lam = np.bincount([at[q] for q in qs], np.log(list(qs.values())), len(divs))
    mi, qi, ci = np.array([(at[d], at[q], at[d // q]) for d in divs for q in qs if d % q == 0]).T
    return float(_von_mangoldt(alpha, [n], lam, np.log(divs),
                               lambda a, b: np.bincount(mi, a[qi] * b[ci], len(divs)))[0])


def von_mangoldt_range(n_max: int, alpha: int) -> np.ndarray:
    """von_mangoldt_alpha(n, alpha) for n = 2..n_max as a float64 column, by
    _von_mangoldt on columns 0..n_max, each step one _accel._convolve."""
    n_max = arith._check_sieve(n_max, "n_max")
    _check_von_mangoldt_work(alpha, n_max, f"values for n <= {n_max}")  # before any column
    q, p, _ = _accel.PrimePowers(n_max).listing
    logs = np.log(np.arange(n_max + 1, dtype=np.float64).clip(1))
    return _von_mangoldt(alpha, range(2, n_max + 1), np.bincount(q, np.log(p), n_max + 1), logs,
                         partial(_accel._convolve, start=2))


# ---------------------------------------------------------------------------
# range evaluation
# ---------------------------------------------------------------------------

#: Verdicts by rising severity.
VERDICTS = (NONNEG_EXACT, NONNEG_TOL, INCONCLUSIVE, NEGATIVE)
METHODS = ("divisor_sum", "mult_product", "additive_Tt")
#: The factored route of each family kind that has one, and the one start index k it serves.
FACTORED = {"multiplicative": ("mult_product", 1), "additive": ("additive_Tt", 2)}

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

    def to_json_dict(self) -> dict:
        """The summary, with an empty "records" list that cli._spliced fills from render."""
        keys = ("family", "delta", "k", "mode", "tol", "verdict", "agreement_failures")
        return {**{key: getattr(self, key) for key in keys}, "range": [self.n_lo, self.n_hi],
                "methods": list(self.methods), "counts": self.counts(), "records": []}

    def render(self, pad: str = "", chunk: int = 1 << 14):
        """Yield (JSON text, CSV text) pairs, one per chunk of rows between a head and a
        tail.  The JSON parts join to the records array at indent ``pad``, [] if empty, else
        one json.dumps(record, sort_keys=True) a line at ``pad`` plus two spaces; the CSV parts
        to the header and one excel-dialect (CRLF) row per record.  Each row joins 5 pieces
        (4 in CSV): column tokens carrying the key text (_column_tokens) and code fragments."""
        method_json, verdict_json, pair_csv = (np.array(pieces, dtype=object) for pieces in (
            [f', "method": "{m}", "n": ' for m in METHODS],
            [f', "verdict": "{v}"}}' for v in VERDICTS],
            [f",{m},{v}," for m in METHODS for v in VERDICTS]))  # by method * 4 + verdict
        yield "[", ",".join(FIELDS) + "\r\n"
        for lo in range(0, size := len(self.columns["n"]), chunk):
            n, value, method, verdict, margin = (c[lo : lo + chunk] for c in self.columns.values())
            (n, n_csv), (value, value_csv), (margin, margin_csv) = (
                _column_tokens(n, ("", ', "value": '), ("", ",")), _column_tokens(value),
                _column_tokens(margin, (f',\n{pad}  {{"margin": ', ""), ("", "\r\n")))
            text = _join(margin, method_json[method], n, value, verdict_json[verdict])
            pair = pair_csv[method * len(VERDICTS) + verdict]
            yield text[lo == 0 :], _join(n_csv, value_csv, pair, margin_csv)  # row 0: no ","
        yield ("]" if size == 0 else f"\n{pad}]"), ""


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


def _tokens(col: np.ndarray) -> tuple[str, str]:
    """The JSON and the CSV tokens of a column chunk's entries, joined by NUL, which no
    token holds (JSON escapes it), one text where they agree: str() of ints and repr() of
    floats in both, except "nan"/"inf" (JSON strings) against nan/inf (CSV), and "p/q"
    (JSON) against p/q (CSV) for a Fraction."""
    finite = col.dtype.kind != "f" or np.isfinite(col).all()
    scalars = col.tolist()
    if col.dtype == object or not finite:
        scalars = list(map(_strict_json, scalars))
    text = json.dumps(scalars, separators=("\0", ":"))[1:-1]  # C encoder
    return text, text if col.dtype.kind in "if" and finite else "\0".join(map(str, scalars))


def _column_tokens(col: np.ndarray, json_around=("", ""), csv_around=("", "")) -> tuple:
    """The JSON and the CSV token of each row of a column chunk, each between the strings
    of json_around or csv_around: _tokens of each distinct int64 or float64 entry (floats
    keyed on their bits, so -0.0 is not 0.0), wrapped by one replace and one split and
    gathered back per row, once where JSON and CSV agree; row by row for objects."""
    rows = slice(None)
    if col.dtype != object:
        _, first, rows = np.unique(col.view(np.int64) if col.dtype.kind == "f" else col,
                                   return_index=True, return_inverse=True)
        col = col[first]
    json_text, csv_text = _tokens(col)
    wrap = lambda text, a, b: np.array(
        (a + text.replace("\0", b + "\0" + a) + b).split("\0"), dtype=object)[rows]
    json_rows = wrap(json_text, *json_around)
    same = (csv_text, csv_around) == (json_text, json_around)
    return json_rows, json_rows if same else wrap(csv_text, *csv_around)


def _join(*pieces) -> str:
    """One "".join over rows of pieces, each a column or a string for every row."""
    columns = np.broadcast_arrays(*(np.asarray(piece, dtype=object) for piece in pieces))
    return "".join(np.stack(columns, axis=1).ravel().tolist())


_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)  # product past 2^59


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
    """(window, bound): window(lo, hi) is mult_product or additive_Tt on [lo, hi),
    hi <= pp.n + 1, from the factors of the prime powers (_LocalFactors over pp), exact
    ones in int64 or Python objects, else float64 ones (not finite past the float range,
    where rows are not finite).  At delta = 0 only the prime powers carry an additive S;
    the float additive_Tt is one fill of the pairs (companion, factor) under _dual, both
    from _factor, the per-n terms rounded in another order.

    bound, inf outside the exact lane, bounds every |w_j| and every partial sum of
    every divisor sum S(m), j, m <= n.  Additive: |w_j| <= omega(j) max size <= log2(n)
    max size, summed over d(m) <= 2 sqrt(m) terms.  Multiplicative: the largest product
    of the sizes over p^r || m, the sum of |w_j mu(m/j)| over j | m: for sizes on r
    alone, over the exponent patterns r_1 >= r_2 >= ... on the first primes, the least
    m with those exponents (237 of them at 4.6*10^5); else the max of a float64 fill one
    WINDOW at a time, or inf once a size, and so the bound, reaches 2^53.  Either is
    exact below 2^53 and never rounds below it.  Products of factors are int64 below
    2^62, where none overflows, and Python ints past it."""
    n, local = pp.n, _LocalFactors(w, delta, exact, pp)
    size, bound = local.size if exact else None, math.inf
    with np.errstate(over="ignore"):  # inf is past every bound
        if exact and method == "additive_Tt":
            bound = 2.0 * math.sqrt(n) * math.log2(n) * size.max(initial=0.0)
        elif exact and w.r_only:
            bound, todo = 1.0, [(0, len(size), 1, 1.0)]  # (prime index, top exponent, m, product)
            while todo:
                i, top, m, product = todo.pop()
                bound = max(bound, product)
                for e in range(1, top + 1):
                    if (m := m * _FIRST_PRIMES[i]) > n:
                        break
                    todo.append((i + 1, e, m, product * size[e - 1]))
        elif exact and size.max(initial=0.0) < _FLOAT_EXACT:
            bound = max(_accel.prime_power_fill(
                lo, min(lo + _accel.WINDOW, n + 1), pp.base, lambda p, r: size[local.at(p, r)],
                np.multiply).max() for lo in range(0, n + 1, _accel.WINDOW))
    if exact and method == "mult_product" and not bound < _INT64_SAFE:
        local.diff = local.diff.astype(object)
    factor = local.factor if exact or method == "mult_product" else (  # (companion, factor)
        lambda p, r: np.stack([_factor(delta, p, r), local.factor(p, r)], axis=-1))

    def window(lo, hi):
        if exact and method == "additive_Tt":
            q, p, r = _accel._prime_powers(lo, hi, pp.base)
            col = np.zeros(hi - lo, dtype=local.diff.dtype)
            col[q - lo] = factor(p, r)
            return col
        col = _accel.prime_power_fill(lo, hi, pp.base, factor,
                                      np.multiply if method == "mult_product" else _dual)
        # + 0.0: a product 0 * (negative) is -0.0, the per-n sum's 0 is +0.0
        return col if method == "mult_product" else col[:, 1] + 0.0

    return window, bound


def s_columns(w: WeightFamily, delta: float, k: int, n: int,
              methods: tuple[str, ...] = ("divisor_sum",), exact: bool = False,
              pp: _accel.PrimePowers | None = None) -> list:
    """S(0..n) by each of ``methods``, in order, from at most one mu table
    and one read of the weight table; zero below k (mult_product is S at
    k = 1 only, additive_Tt at k = 2 only), from the run's pp if given.

    Lanes: float64 unless ``exact`` (rational weights at delta = 0).
    Exact columns of integer-valued families are int64: the factored ones
    (_factored) while their factors fit and a product stays below
    2^62, divisor_sum while n * max|w_j| < 2^53 (every partial sum is then
    exact in float64).  Other exact columns are Python ints and Fractions.
    The weight table and mu are built after the factored routes, for
    divisor_sum alone; a power past the float range makes a row inf or NaN.
    """
    if exact and not _mode(w, delta)[1]:
        raise ValueError(f"exact S of {w.name} needs rational weights and delta = 0")
    pp = pp or _accel.PrimePowers(n)
    with np.errstate(all="ignore"):  # inf times 0 is nan: an inconclusive row, not a warning
        cols = {m: _factored(w, delta, m, pp, exact)[0](0, n + 1)
                for m in methods if m != "divisor_sum"}
    if "divisor_sum" in methods:
        table = w.values_table(n, pp) if w.integer_valued or not exact else None
        # Python ints and Fractions unless every exact partial sum is below 2^53
        # (a weight past float64 reads inf)
        objects = exact and (table is None or not (top := np.abs(table).max()) < _FLOAT_EXACT
                             or n * int(top) >= _FLOAT_EXACT)
        mu = _accel.mobius_table(n, pp)
        if objects:
            del table  # the exact sums read Python values
            vals = w.windows(pp, True)(0, n + 1)
            vals[:k] = 0
            cols["divisor_sum"] = np.array(
                _accel.exact_convolve(vals.tolist(), mu.tolist()), dtype=object)
        else:  # float64 sums; exact ones are integers below 2^53, cast to int64
            with np.errstate(over="ignore", invalid="ignore"):  # inf, and inf * 0 = NaN
                col = _accel.divisor_sum_table(table, mu, delta, k)
            cols["divisor_sum"] = col.astype(np.int64) if exact else col
    return [cols[m] for m in methods]


def series_column(w: WeightFamily, delta: float, n: int):
    """S(0..n) in float64 at the family's start index: the series kernel's
    coefficients.  In the exact lane (integer-valued at delta = 0,
    multiplicative with k = 1 or additive with k = 2) and below 2^53 of its
    bound, _factored's exact window cast to float64 (int64 values below 2^53
    are exact floats, with no -0.0), streamed as an _accel.Column, which the
    float divisor sums then equal bit for bit; else s_columns's divisor_sum
    column."""
    pp, k = _accel.PrimePowers(n), w.start_index
    method, start = FACTORED.get(w.kind, (None, None))
    if start == k and w.integer_valued and _mode(w, delta)[1]:
        window, bound = _factored(w, delta, method, pp, True)
        if bound < _FLOAT_EXACT:
            return _accel.Column(n, lambda lo, hi: window(lo, hi).astype(np.float64))
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
    method, start = FACTORED.get(w.kind, ("divisor_sum", k))  # none: divisor_sum at any k
    for m in methods:
        if m not in ("divisor_sum", method):
            raise ValueError(f"method {m!r} not applicable to family kind {w.kind!r}"
                             if m in METHODS else f"unknown method {m!r}, not one of {METHODS}")
    if method in methods and k != start:
        raise ValueError(f"{method} agrees with the condition only for k = {start}")

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
    p^(-delta (r-1)) (p^(-delta) w_(p^r) - w_(p^(r-1))) (_LocalFactors, taken at
    every p^r of the listing), under check_range's sign policy: an exact
    factor fails below 0, a float one below -tol or when it is not finite.

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
    if w.kind not in FACTORED:
        raise ValueError(f"{w.name} is {w.kind}: no prime-power check")
    delta, exact = _mode(w, delta)
    n_max = arith._check_sieve(n_max, "n_max")
    arith._check_tol(tol)
    mult, pp = w.kind == "multiplicative", _accel.PrimePowers(n_max)
    _, p, r = pp.listing
    p, r = (p, r) if mult else (p[r > 1], r[r > 1])  # every p^r checked: no copy of the listing
    fq = _LocalFactors(w, delta, exact, pp).factor(p, r)
    bad = np.flatnonzero(fq < 0 if exact else ~np.isfinite(fq) | (fq < -tol))
    i = bad[0] if len(bad) else None
    return {
        "rule": "multiplicative r>=1" if mult else "additive r>=2",
        "delta": delta,
        "range": [2, n_max],
        "checks": len(p),
        "passed": len(bad) == 0,
        "violations": len(bad),
        "first_violation": None if i is None else [int(p[i]), int(r[i]), _to_float(fq[i])],
        "delta_nonpositive": None if mult else delta <= 0.0,
    }
