"""The Mobius-convolution nonnegativity condition, computed three ways.

For a weight family w with declared smooth abscissa delta and start index
k, the quantity of interest is

    S(n) = sum over divisors j of n with j >= k of j^(-delta) w_j mu(n/j).

``divisor_sum`` evaluates it literally; ``mult_product`` uses the factored
closed form available for multiplicative families; ``additive_Tt`` uses
the per-prime decomposition available for additive families, whose
individual terms are the sharper per-term certificates.  ``check_range``
runs any subset of the three over a range and cross-checks agreement.

Sign policy: with delta = 0 and exact (rational) weights everything is
computed in exact arithmetic (int64 columns where overflow is ruled out in
advance, Python ints and Fractions otherwise) and verdicts are exact;
otherwise floats are
used and a value in (-tol, 0) is reported as nonnegative-within-tolerance,
never as a certified violation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, repeat

import numpy as np

from . import _accel, arith
from .weights import WeightFamily, _int

NONNEG_EXACT = "nonneg_exact"
NONNEG_TOL = "nonneg_within_tol"
NEGATIVE = "negative_certified"
INCONCLUSIVE = "inconclusive"

DEFAULT_TOL = 1e-10


def _use_exact(w: WeightFamily, delta: float) -> bool:
    return w.exact and delta == 0.0


def _resolve(w: WeightFamily, delta, k):
    delta = w.delta if delta is None else float(delta)
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
    return delta, k


def divisor_sum(w: WeightFamily, delta: float, k: int, n: int):
    """S(n) by direct summation over the divisors of n."""
    delta, k = _resolve(w, delta, k)
    n = arith._check_positive(n)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    exact = _use_exact(w, delta)
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
            total += float(w.value(j)) * m * coef
    return total


def _mult_factors_from(w, delta, factors, exact):
    out = []
    for p, r in factors:
        hi = w.value(p**r)
        lo = w.value(p ** (r - 1))
        if exact:
            out.append(hi - lo)
        else:
            pd = 1.0 if delta == 0.0 else p ** (-delta)
            out.append(pd ** (r - 1) * (pd * float(hi) - float(lo)))
    return out


def mult_factors(w: WeightFamily, delta: float, n: int) -> list:
    """Per-prime factors p^(-delta (r-1)) (p^(-delta) w_{p^r} - w_{p^(r-1)})
    whose product is S(n) for a multiplicative family with k = 1."""
    if w.kind != "multiplicative":
        raise ValueError(f"{w.name} is not multiplicative")
    delta = w.delta if delta is None else float(delta)
    n = arith._check_positive(n)
    return _mult_factors_from(w, delta, arith.factorize(n).factors, _use_exact(w, delta))


def mult_product(w: WeightFamily, delta: float, n: int):
    """Factored form of S(n) over the prime factorization; equals
    divisor_sum with k = 1 for multiplicative families."""
    exact = _use_exact(w, w.delta if delta is None else float(delta))
    return math.prod(mult_factors(w, delta, n), start=1 if exact else 1.0)


def _additive_terms_from(w, delta, factors, exact):
    terms = []
    m = len(factors)
    for t in range(m):
        p_t, r_t = factors[t]
        hi = w.value(p_t**r_t)
        lo = w.value(p_t ** (r_t - 1))
        if exact:
            # at delta = 0 every companion factor p^(-delta) - 1 vanishes
            term = (hi - lo) if m == 1 else 0
        else:
            pd = 1.0 if delta == 0.0 else p_t ** (-delta)
            term = pd ** (r_t - 1) * (pd * float(hi) - float(lo))
            for j in range(m):
                if j == t:
                    continue
                p_j, r_j = factors[j]
                qd = 1.0 if delta == 0.0 else p_j ** (-delta)
                term *= qd ** (r_j - 1) * (qd - 1.0)
        terms.append(term)
    return terms


def additive_Tt(w: WeightFamily, delta: float, n: int):
    """Per-prime decomposition S(n) = sum_t T_t for an additive family
    (k = 2, with the w_1 = 0 extension).  Returns (total, terms)."""
    if w.kind != "additive":
        raise ValueError(f"{w.name} is not additive")
    delta = w.delta if delta is None else float(delta)
    n = arith._check_positive(n)
    if n < 2:
        raise ValueError("additive decomposition needs n >= 2")
    exact = _use_exact(w, delta)
    terms = _additive_terms_from(w, delta, arith.factorize(n).factors, exact)
    total = sum(terms) if terms else (0 if exact else 0.0)
    return total, tuple(terms)


def von_mangoldt_alpha(n: int, alpha: int) -> float:
    """Generalized von Mangoldt value: the Mobius convolution of (log)^alpha,
    sum over divisors j >= 2 of n of (log j)^alpha mu(n/j).

    Expanded over the prime factorization, the sum collapses to monomials
    in the log p_i with positive integer coefficients, so the returned
    value is nonnegative by construction and exactly zero whenever n has
    more than alpha distinct prime factors.  alpha = 1 is the classical
    von Mangoldt function.
    """
    n = arith._check_sieve(n, "n")  # trial division: 2^61 - 1 alone takes minutes
    if n < 2:
        raise ValueError("generalized von Mangoldt values start at n = 2")
    if not isinstance(alpha, int) or alpha < 1:
        raise ValueError("alpha must be a positive integer")
    factors = arith.factorize(n).factors
    m = len(factors)
    if m > alpha:
        return 0.0
    logs = [math.log(p) for p, _ in factors]
    exps = [r for _, r in factors]
    fact = math.factorial
    total = 0.0
    # compositions of alpha into m parts, lexicographic like their m - 1 cuts
    for cuts in combinations(range(1, alpha), m - 1):
        comp = [b - a for a, b in zip((0, *cuts), (*cuts, alpha))]
        coef = fact(alpha)
        for a in comp:
            coef //= fact(a)
        for r, a in zip(exps, comp):
            coef *= r**a - (r - 1) ** a
        mono = 1.0
        for lg, a in zip(logs, comp):
            mono *= lg**a
        total += coef * mono
    return total


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
            "records": [{"n": r.n, "value": _scalar_json(r.value), "method": r.method,
                         "verdict": r.verdict, "margin": r.margin}
                        for r in (self.records if with_records else ())],
        }

    def render(self, pad: str = "", chunk: int = 1 << 14):
        """Yield (JSON text, CSV text) pairs, one per chunk of rows between a
        head and a tail.  The JSON parts join to the records array as
        json.dumps(..., sort_keys=True, indent=2) writes it at indent ``pad``,
        the CSV parts to the header and one excel-dialect (CRLF) row per
        record: both from the same column tokens (see _tokens)."""
        row, value_key = f'{pad}  {{\n{pad}    "margin": ', f',\n{pad}    "value": '
        method_json = [f',\n{pad}    "method": "{m}",\n{pad}    "n": ' for m in METHODS]
        verdict_json = [f',\n{pad}    "verdict": "{v}"\n{pad}  }}' for v in VERDICTS]
        yield "[", ",".join(FIELDS) + "\r\n"
        sep = "\n"
        for lo in range(0, len(self.columns["n"]), chunk):
            n, value, method, verdict, margin = (c[lo : lo + chunk] for c in self.columns.values())
            n, (value, value_csv), (margin, margin_csv) = (
                _tokens(n)[0], _tokens(value), _tokens(margin))
            method, verdict = method.tolist(), verdict.tolist()
            text = ",\n".join(map("".join, zip(
                repeat(row), margin, map(method_json.__getitem__, method), n,
                repeat(value_key), value, map(verdict_json.__getitem__, verdict))))
            rows = map(",".join, zip(n, value_csv, map(METHODS.__getitem__, method),
                                     map(VERDICTS.__getitem__, verdict), margin_csv))
            yield sep + text, "\r\n".join(rows) + "\r\n"
            sep = ",\n"
        yield ("]" if sep == "\n" else f"\n{pad}]"), ""

    def write_csv(self, fh) -> None:
        """The CSV projection: a header, then one row per record."""
        fh.writelines(rows for _, rows in self.render())


def _scalar_json(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _tokens(col: np.ndarray) -> tuple[list[str], list[str]]:
    """The JSON and the CSV token of each entry of a column chunk: str() of
    ints and repr() of floats in both, except NaN/Infinity (JSON) against
    nan/inf (CSV), and "p/q" (JSON) against p/q (CSV) for a Fraction."""
    scalars = [_scalar_json(v) for v in col.tolist()] if col.dtype == object else col.tolist()
    if col.dtype.kind == "i":
        return (tokens := list(map(str, scalars))), tokens
    tokens = json.dumps(scalars, separators=("\n", ":"))[1:-1].split("\n")  # C encoder
    shared = col.dtype.kind == "f" and np.isfinite(col).all()
    return tokens, tokens if shared else list(map(str, scalars))


def _exact_table(w: WeightFamily, n_max: int):
    """The float table of w_0..w_n_max when it holds the exact integer
    values: w is integer-valued and every |w_j| < 2^53.  Else None."""
    if not w.integer_valued:
        return None
    table = w.values_table(n_max)
    return table if np.abs(table).max() < _FLOAT_EXACT else None


def _divisor_sums_range(w: WeightFamily, delta: float, k: int, n_max: int, exact: bool):
    """Values of S(n) for every n <= n_max, via one sieve pass."""
    mu = arith.mobius_sieve(n_max)
    if not exact:
        return _accel.divisor_sum_table(w.values_table(n_max), mu, delta, k)
    table = _exact_table(w, n_max)
    if table is not None and n_max * int(np.abs(table).max()) < _FLOAT_EXACT:
        # every partial sum is an integer below 2^53, hence exact in float64
        return _accel.divisor_sum_table(table, mu, 0.0, k).astype(np.int64)
    mu_int = [int(x) for x in mu]
    out: list = [0] * (n_max + 1)
    for j in range(k, n_max + 1):
        wj = w.value(j)
        if wj == 0:
            continue
        for q in range(1, n_max // j + 1):
            m = mu_int[q]
            if m:
                out[j * q] += wj * m
    return np.array(out, dtype=object)


def _factored_column(table: np.ndarray, n_max: int, method: str):
    """mult_product or additive_Tt at delta = 0 for n <= n_max as int64,
    reading w at p^r and p^(r-1) only; None when a product could overflow."""
    w = table.astype(np.int64)
    ft = _accel.factor_tables(n_max)
    q, p, _ = ft.prime_powers()
    f = np.zeros(n_max + 1, dtype=np.int64)
    f[q] = w[q] - w[q // p]
    if method == "additive_Tt":
        # at delta = 0 every T_t vanishes unless n = p^r: then S(n) = w_n - w_(n/p)
        return f
    size = _accel.prime_power_fill(ft, np.abs(f).astype(np.float64), np.multiply)
    return _accel.prime_power_fill(ft, f, np.multiply) if size.max() < _INT64_SAFE else None


def _factored_range(w: WeightFamily, delta: float, n_max: int, exact: bool, method: str):
    """mult_product or additive_Tt for every 2 <= n <= n_max in Python ints
    and Fractions (exact) or floats: the product as one prime-power fill,
    the additive terms per n."""
    if method == "mult_product":
        ft = _accel.factor_tables(n_max)
        fq = _accel.prime_power_values(
            ft, lambda p, r: _mult_factors_from(w, delta, ((p, r),), exact)[0],
            object if exact else np.float64)
        return _accel.prime_power_fill(ft, fq, np.multiply)
    out: list = [None] * (n_max + 1)
    for n, factors in arith.factorizations_up_to(n_max):
        if n >= 2:
            terms = _additive_terms_from(w, delta, factors, exact)
            out[n] = sum(terms) if terms else (0 if exact else 0.0)
    return np.array(out, dtype=object)


def check_range(
    w: WeightFamily,
    delta: float | None,
    k: int | None,
    n_max: int,
    methods: tuple[str, ...] = ("divisor_sum",),
    tol: float = DEFAULT_TOL,
) -> ConditionReport:
    """Evaluate the condition for every n in [max(k, 2), n_max] using the
    requested methods, cross-checking their agreement.

    With k = 1 the trivially satisfied n = 1 value (= w_1) is recorded as
    well.  Per-n verdicts follow the sign policy; the aggregate verdict is
    the worst per-n outcome (negative > inconclusive > within-tol > exact).

    Every route is computed as a column over n, and the report stores its
    rows as columns (see ConditionReport).  Exact runs of integer-valued
    families take int64 numpy routes while their values stay below 2^53
    (and n_max * max|w_j| < 2^53 for divisor_sum, |S(n)| < 2^62 for
    mult_product); otherwise the routes run per n in Python ints or
    Fractions.  Exact routes that disagree raise MethodDisagreement.
    """
    delta, k = _resolve(w, delta, k)
    n_max = arith._check_sieve(n_max, "n_max")
    arith._check_tol(tol)
    if n_max < k:
        raise ValueError(f"n_max={n_max} below the start index k={k}")
    if isinstance(methods, (set, frozenset)):
        methods = sorted(methods)  # keep record order deterministic
    methods = tuple(methods)
    if not methods:
        raise ValueError("at least one method is required")
    for m in methods:
        if m == "divisor_sum":
            continue
        if m == "mult_product" and w.kind == "multiplicative":
            continue
        if m == "additive_Tt" and w.kind == "additive":
            continue
        raise ValueError(f"method {m!r} not applicable to family kind {w.kind!r}")
    if "mult_product" in methods and k != 1:
        raise ValueError("mult_product agrees with the condition only for k = 1")
    if "additive_Tt" in methods and k != 2:
        raise ValueError("additive_Tt agrees with the condition only for k = 2")

    exact = _use_exact(w, delta)
    n_lo = max(k, 2)
    cols = []  # S(n_lo..n_max) per method
    for m in methods:
        if m == "divisor_sum":
            col = _divisor_sums_range(w, delta, k, n_max, exact)
        else:
            table = _exact_table(w, n_max) if exact else None
            col = None if table is None else _factored_column(table, n_max, m)
            col = _factored_range(w, delta, n_max, exact, m) if col is None else col
        cols.append(np.asarray(col[n_lo:], dtype=None if exact else np.float64))

    ref = cols[0]
    bad = np.zeros(len(ref), dtype=bool)
    with np.errstate(all="ignore"):  # inf - inf compares as agreeing, as in Python
        for col in cols[1:]:
            bad |= (col != ref) if exact else np.abs(col - ref) > tol * np.maximum(
                np.maximum(1.0, np.abs(col)), np.abs(ref))
    if exact and bad.any():
        i = int(np.argmax(bad))
        vals = {m: c.tolist()[i] for m, c in zip(methods, cols)}
        raise MethodDisagreement(f"exact methods disagree at n={n_lo + i}: {vals} for {w.name}")

    head = []  # the n = 1 rows of k = 1
    if k == 1:
        head = [("divisor_sum", w.value(1))]
        if "mult_product" in methods:
            head.append(("mult_product", 1 if exact else 1.0))
    body = np.stack(cols, axis=1).reshape(-1)  # n-major, methods in order
    if any(type(v) is not {"i": int, "f": float}.get(body.dtype.kind) for _, v in head):
        body = body.astype(object)  # keep each value's own type: it sets the JSON token
    value = np.concatenate([np.array([v for _, v in head], dtype=body.dtype), body])
    margin = value.astype(np.float64)
    code = np.where(value < 0 if exact else margin < -tol, VERDICTS.index(NEGATIVE),
                    VERDICTS.index(NONNEG_EXACT if exact else NONNEG_TOL)).astype(np.int8)
    code[len(head):][np.repeat(bad, len(methods))] = VERDICTS.index(INCONCLUSIVE)

    return ConditionReport(
        family=w.name,
        delta=delta,
        k=k,
        n_lo=1 if k == 1 else n_lo,
        n_hi=n_max,
        mode="exact" if exact else "float",
        tol=tol,
        methods=methods,
        columns={
            "n": np.concatenate([np.ones(len(head), dtype=np.int64),
                                 np.repeat(np.arange(n_lo, n_max + 1), len(methods))]),
            "value": value,
            "method": np.concatenate([
                np.array([METHODS.index(m) for m, _ in head], dtype=np.int8),
                np.tile(np.array([METHODS.index(m) for m in methods], dtype=np.int8), len(ref))]),
            "verdict": code,
            "margin": margin,
        },
        verdict=VERDICTS[int(code.max())],
        agreement_failures=int(bad.sum()),
    )
