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
never as a certified violation, and a value that is not finite as
inconclusive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
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


def _prime_power_factor(w, delta, exact, p, r):
    """p^(-delta (r-1)) (p^(-delta) w_{p^r} - w_{p^(r-1)}): the factor of
    p^r in mult_product, and at delta = 0 the whole of S(p^r)."""
    hi, lo = w.prime_power(p, r), w.prime_power(p, r - 1)
    if exact:
        return hi - lo
    pd = 1.0 if delta == 0.0 else p ** (-delta)
    return pd ** (r - 1) * (pd * float(hi) - float(lo))


def mult_factors(w: WeightFamily, delta: float, n: int) -> list:
    """Per-prime factors p^(-delta (r-1)) (p^(-delta) w_{p^r} - w_{p^(r-1)})
    whose product is S(n) for a multiplicative family with k = 1."""
    if w.kind != "multiplicative":
        raise ValueError(f"{w.name} is not multiplicative")
    delta = w.delta if delta is None else float(delta)
    n = arith._check_positive(n)
    exact = _use_exact(w, delta)
    return [_prime_power_factor(w, delta, exact, p, r) for p, r in arith.factorize(n)]


def mult_product(w: WeightFamily, delta: float, n: int):
    """Factored form of S(n) over the prime factorization; equals
    divisor_sum with k = 1 for multiplicative families."""
    exact = _use_exact(w, w.delta if delta is None else float(delta))
    return math.prod(mult_factors(w, delta, n), start=1 if exact else 1.0)


def _companion(delta, p, r):
    """p^(-delta (r-1)) (p^(-delta) - 1): the factor of p^r in the term T_t
    of every other prime of n."""
    pd = 1.0 if delta == 0.0 else p ** (-delta)
    return pd ** (r - 1) * (pd - 1.0)


def _float_terms(factors, companions):
    """T_t = factors[t] times the companion of every other prime, multiplied
    in ascending prime order: the order fixes the bits."""
    terms = []
    for t, term in enumerate(factors):
        for j, c in enumerate(companions):
            if j != t:
                term *= c
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
    factors = arith.factorize(n).factors
    terms = [_prime_power_factor(w, delta, exact, p, r) for p, r in factors]
    if exact:  # at delta = 0 every companion p^(-delta) - 1 vanishes
        terms = terms if len(terms) == 1 else [0] * len(terms)
    else:
        terms = _float_terms(terms, [_companion(delta, p, r) for p, r in factors])
    return sum(terms), tuple(terms)


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
    if len(factors) > alpha:
        return 0.0
    logs = [math.log(p) for p, _ in factors]
    total = 0.0
    # compositions of alpha into one part per prime, lexicographic like their cuts
    for cuts in combinations(range(1, alpha), len(factors) - 1):
        comp = [b - a for a, b in zip((0, *cuts), (*cuts, alpha))]
        coef = math.factorial(alpha) // math.prod(map(math.factorial, comp))
        coef *= math.prod(r**a - (r - 1) ** a for (_, r), a in zip(factors, comp))
        total += coef * math.prod(lg**a for lg, a in zip(logs, comp))
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


def _margin(v) -> float:
    """float(v), or +-inf for an exact value past the float64 range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


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


def _divisor_sums(w: WeightFamily, delta: float, k: int, ft, table, exact: bool):
    """S(n) for every n <= n_max by one Dirichlet convolution of ``table``
    with ft.mu: in float64; exact in int64 when ``table`` holds the exact
    weights and every partial sum stays below 2^53; else in Python ints and
    Fractions, of the weights from one prime-power fill of w.prime_power
    (multiplicative and additive families) or from value()."""
    if not exact:
        return _accel.divisor_sum_table(table, ft.mu, delta, k)
    if table is not None:
        # every partial sum is an integer below 2^53, hence exact in float64
        return _accel.divisor_sum_table(table, ft.mu, 0.0, k).astype(np.int64)
    if w.kind in ("multiplicative", "additive"):  # value(j) would factorize every j
        op = np.multiply if w.kind == "multiplicative" else np.add
        fq = _accel.prime_power_values(ft, w.prime_power, object)
        vals = [0] * k + _accel.prime_power_fill(ft, fq, op)[k:].tolist()
    else:
        vals = [0] * k + [w.value(j) for j in range(k, len(ft.mu))]
    return np.array(_accel.exact_convolve(vals, ft.mu.tolist()), dtype=object)


def _factored(w: WeightFamily, delta: float, method: str, ft, table, exact: bool):
    """mult_product or additive_Tt for every n <= n_max from the factors fq
    of the prime powers: int64 differences of ``table`` (the exact weights),
    else one _prime_power_factor call each, in Python objects or floats."""
    if table is None:
        fq = _accel.prime_power_values(ft, partial(_prime_power_factor, w, delta, exact),
                                       object if exact else np.float64)
    else:
        wi = table.astype(np.int64)
        q, p, _ = ft.prime_powers()
        fq = np.zeros(len(wi), dtype=np.int64)
        fq[q] = wi[q] - wi[q // p]
    if method == "additive_Tt" and exact:
        # at delta = 0 every T_t vanishes unless n = p^r: then S(n) = w_n - w_(n/p)
        return fq
    if method == "additive_Tt":  # per n, from each prime power's factor and companion
        cq = _accel.prime_power_values(ft, partial(_companion, delta), np.float64).tolist()
        fq, col = fq.tolist(), [0.0]
        for _, factors in arith.factorizations_up_to(len(fq) - 1, ft):
            qs = [p**r for p, r in factors]
            col.append(sum(_float_terms([fq[q] for q in qs], [cq[q] for q in qs])))
        return np.array(col)
    if fq.dtype == np.int64 and _accel.prime_power_fill(
            ft, np.abs(fq).astype(np.float64), np.multiply).max() >= _INT64_SAFE:
        fq = fq.astype(object)  # a product could overflow int64: multiply Python ints
    return _accel.prime_power_fill(ft, fq, np.multiply)


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

    Every route is a column over n from one factor-table pass and one read
    of the weight table; the report has one row per (n, method), n-major,
    methods in the order given (see ConditionReport).  Exact runs of
    integer-valued families whose values stay below 2^53 take int64 routes
    (divisor_sum while n_max * max|w_j| < 2^53, mult_product while
    |S(n)| < 2^62); the other exact routes run in Python ints and
    Fractions, and a value past float64 gets the margin +-inf of its sign.
    Exact routes that disagree raise MethodDisagreement.
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
    ft = _accel.factor_tables(n_max)
    table = None
    if w.integer_valued if exact else "divisor_sum" in methods:
        table = w.values_table(n_max, ft)
        # the exact weights when every |w_j| < 2^53 (a weight past float64 reads inf)
        if exact and not (top := np.abs(table).max()) < _FLOAT_EXACT:
            table = None
    cols = []  # S(k..n_max) per method
    for m in methods:
        if m == "divisor_sum":
            # exact int64 sums also need every partial sum below 2^53
            small = not exact or table is not None and n_max * int(top) < _FLOAT_EXACT
            col = _divisor_sums(w, delta, k, ft, table if small else None, exact)
        else:
            col = _factored(w, delta, m, ft, table if exact else None, exact)
        cols.append(col[k:])
    del ft  # freed before the report columns are built

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
        margin = np.array(list(map(_margin, value.tolist())))
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
