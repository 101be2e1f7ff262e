import ast
import csv
import io
import json
import math
import operator
import struct
import timeit
import warnings
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirweight import _accel, arith, condition, kernel, weights


@pytest.fixture(scope="module")
def fam():
    return {
        "ones": weights.named_family("ones"),
        "d": weights.named_family("divisor_pow", alpha=1),
        "d2": weights.named_family("divisor_pow", alpha=2),
        "omega": weights.named_family("omega"),
        "big_omega": weights.named_family("big_omega"),
        "geom_half": weights.family_from_config(
            {"kind": "named", "name": "geometric",
             "parameters": {"ratio": "1/2"}}
        ),
    }


def brute_condition_sum(w, delta, k, n):
    """Literal definition, used as the oracle for every method."""
    total = 0.0
    for j in range(k, n + 1):
        if n % j == 0:
            total += j ** (-delta) * float(w.value(j)) * arith.mobius(n // j)
    return total


# -- divisor_sum --------------------------------------------------------------


def test_divisor_sum_divisor_count_example(fam):
    # explicit sum for n = 12: 2 - 3 - 4 + 6 = 1
    assert condition.divisor_sum(fam["d"], 0.0, 1, 12) == 1
    terms = [fam["d"].value(j) * arith.mobius(12 // j) for j in arith.divisors(12)]
    assert sum(terms) == 1


def test_divisor_sum_omega_prime_indicator(fam):
    assert condition.divisor_sum(fam["omega"], 0.0, 2, 12) == 0
    assert condition.divisor_sum(fam["omega"], 0.0, 2, 7) == 1


def test_divisor_sum_ones_vanishes(fam):
    for n in range(2, 200):
        assert condition.divisor_sum(fam["ones"], 0.0, 1, n) == 0


def test_divisor_sum_exactness_type(fam):
    v = condition.divisor_sum(fam["geom_half"], 0.0, 1, 2)
    assert v == Fraction(-1, 2)
    assert isinstance(v, Fraction)


def test_divisor_sum_against_brute_force(fam):
    for name in ("d", "omega", "d2"):
        w = fam[name]
        k = w.start_index
        for n in range(max(k, 2), 120):
            got = float(condition.divisor_sum(w, 0.0, k, n))
            assert got == pytest.approx(brute_condition_sum(w, 0.0, k, n), abs=1e-9)


def test_divisor_sum_nonzero_delta_float(fam):
    got = condition.divisor_sum(fam["d"], 0.5, 1, 12)
    assert isinstance(got, float)
    assert got == pytest.approx(brute_condition_sum(fam["d"], 0.5, 1, 12), rel=1e-12)


def test_divisor_sum_requires_defined_weights():
    expl = weights.family_from_config({
        "kind": "explicit", "values": ["1", "1", "1"], "start_index": 2,
        "sigma": 1.0, "delta": 0.0, "growth_bound": [1.0, 0.0],
    })
    with pytest.raises(ValueError):
        condition.divisor_sum(expl, 0.0, 1, 4)  # j = 1 undefined


# -- mult_product -------------------------------------------------------------


def test_mult_product_examples(fam):
    assert condition.mult_product(fam["d"], 0.0, 12) == 1
    for n in (2, 6, 30, 360):
        assert condition.mult_product(fam["ones"], 0.0, n) == 0
    for p, r in ((2, 3), (5, 2), (97, 1)):
        assert condition.mult_product(fam["d"], 0.0, p**r) == 1


def test_mult_product_matches_divisor_sum(fam):
    for name in ("ones", "d", "d2"):
        w = fam[name]
        for n in range(2, 500):
            assert condition.mult_product(w, 0.0, n) == condition.divisor_sum(w, 0.0, 1, n)


def test_mult_product_rejects_non_multiplicative(fam):
    with pytest.raises(ValueError):
        condition.mult_product(fam["omega"], 0.0, 6)


def test_mult_factors_positive_when_growth_holds(fam):
    # the per-prime factors are the certificates behind the product route:
    # whenever the ratio condition passes, each factor is nonnegative
    for name in ("ones", "d", "d2"):
        w = fam[name]
        assert condition.prime_power_check(w, 0.0, 5000)["passed"]
        for n in range(2, 5000):
            for f in condition.mult_factors(w, 0.0, n):
                assert f >= 0


# -- additive_Tt --------------------------------------------------------------


def test_additive_terms_examples(fam):
    total, terms = condition.additive_Tt(fam["omega"], 0.0, 12)
    assert (total, terms) == (0, (0, 0))
    total, terms = condition.additive_Tt(fam["omega"], 0.0, 7)
    assert (total, terms) == (1, (1,))
    for p, r in ((2, 2), (3, 3), (5, 2)):
        total, _ = condition.additive_Tt(fam["omega"], 0.0, p**r)
        assert total == 0


def test_additive_total_matches_divisor_sum(fam):
    for name in ("omega", "big_omega"):
        w = fam[name]
        for n in range(2, 500):
            total, _ = condition.additive_Tt(w, 0.0, n)
            assert total == condition.divisor_sum(w, 0.0, 2, n)


def test_additive_rejects_non_additive(fam):
    with pytest.raises(ValueError):
        condition.additive_Tt(fam["d"], 0.0, 6)


# -- generalized von Mangoldt -------------------------------------------------


def test_von_mangoldt_prime_powers():
    assert condition.von_mangoldt_alpha(8, 1) == pytest.approx(math.log(2), abs=1e-15)
    for p in (2, 3, 5, 97):
        assert condition.von_mangoldt_alpha(p, 1) == pytest.approx(math.log(p), abs=1e-15)


def test_von_mangoldt_vanishes_on_two_primes():
    # log 6 - log 3 - log 2 cancels exactly in the factored form
    assert condition.von_mangoldt_alpha(6, 1) == 0.0


def test_von_mangoldt_agrees_with_float_divisor_sum():
    # independent route: the generic float divisor sum over (log j)^alpha
    for alpha in (1, 2, 3):
        log_fam = weights.named_family("log_pow", alpha=alpha)
        for n in range(2, 300):
            direct = condition.divisor_sum(log_fam, 0.0, 2, n)
            factored = condition.von_mangoldt_alpha(n, alpha)
            assert factored == pytest.approx(direct, abs=1e-9)
            assert factored >= 0.0


def test_von_mangoldt_validation():
    with pytest.raises(ValueError):
        condition.von_mangoldt_alpha(1, 1)
    with pytest.raises(ValueError):
        condition.von_mangoldt_alpha(6, 0)


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: a product of k factors
    (1 + d), |d| <= u, lies in [1 - gamma_k, 1 + gamma_k]."""
    return k * 2.0**-53 / (1 - k * 2.0**-53)


def recurrence_bound(n, alpha):
    """Relative error bound of von_mangoldt_alpha and von_mangoldt_range at n.
    Each log (log p, log m) is within 2 ulps, 4u relative.  A step's value at
    m | n sums Omega(m) + 1 terms >= 0, Lambda(q) Lambda_k(m / q) for the
    prime powers q | m and log(m) Lambda_k(m), each product rounded once and
    added at most Omega(m) times (adding an exact 0 is exact).  So
    1 + E_(k+1) <= (1 + 4u)(1 + E_k)(1 + gamma_(Omega(n) + 1)) from
    E_1 <= 4u, and E_alpha <= gamma_(4 alpha + (alpha - 1)(Omega(n) + 1))."""
    return gamma(4 * alpha + (alpha - 1) * (arith.big_omega(n) + 1))


def von_mangoldt_work(alpha, size):
    """The work the ceiling counts: alpha steps, each its size (n_max, or the
    divisor pairs of n) plus 5000 for a step's fixed cost."""
    return alpha * (size + 5000)


def test_von_mangoldt_range_past_the_prime_count_builds_no_factor_tables(monkeypatch):
    # one step of 2e7 + 5000 is past the work ceiling: refused before any sieve
    monkeypatch.setattr(_accel, "primes_up_to", lambda n: pytest.fail("a prime sieve"))
    with pytest.raises(arith.ResourceLimitError, match=r"^von Mangoldt values for n <= 20000000, "
                       r"alpha=1: work 20005000 past the ceiling 20000000$"):
        condition.von_mangoldt_range(20_000_000, 1)


@pytest.mark.parametrize("n_max", [30, 211, 2310, 2 * 10**4])
@pytest.mark.parametrize("alpha", [1500, 3000])
def test_von_mangoldt_range_counts_omega_without_factor_tables(n_max, alpha, monkeypatch):
    # The range counts its work (von_mangoldt_work), not omega or compositions,
    # and no factorization: past the ceiling it is refused before any sieve.  Below it,
    # every n <= n_max has at most 5 < alpha distinct primes, no value vanishes,
    # and the least n past float64 is 5 at alpha 1500 ((log 5)^1500 ~ 10^310,
    # (2^1500 - 1)(log 2)^1500 ~ 10^213) and 4 at alpha 3000 (~ 10^425).
    assert max(arith.omega(n) for n in range(2, n_max + 1)) <= 5
    monkeypatch.setattr(arith, "factorize", lambda n: pytest.fail("a factorization"))
    if (work := von_mangoldt_work(alpha, n_max)) > condition.MAX_VON_MANGOLDT_WORK:
        monkeypatch.setattr(_accel, "primes_up_to", lambda n: pytest.fail("a prime sieve"))
        with pytest.raises(arith.ResourceLimitError, match=f": work {work} past "):
            condition.von_mangoldt_range(n_max, alpha)
    else:
        least = {1500: 5, 3000: 4}[alpha]
        with pytest.raises(ValueError, match=f"^von Mangoldt value at n={least}, alpha={alpha} "):
            condition.von_mangoldt_range(n_max, alpha)


@pytest.mark.parametrize("n,alpha", [
    (30030, 3000),  # (log 13)^2995 alone is past float64
    (4, 3000),  # (2^3000 - 1) (log 2)^3000
    (9, 950),  # (2^950 - 1) (log 3)^950
])
def test_von_mangoldt_past_the_float_range_raises(n, alpha):
    with pytest.raises(ValueError, match=f"at n={n}, alpha={alpha} overflows float64"):
        condition.von_mangoldt_alpha(n, alpha)


def test_von_mangoldt_overflow_raises_no_runtime_warning():
    # inf, and 0 * inf = nan in the range's convolution, stay silent under -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, args, n in [(condition.von_mangoldt_alpha, (30030, 3000), 30030),
                              (condition.von_mangoldt_alpha, (9, 950), 9),
                              (condition.von_mangoldt_range, (10, 3000), 4),
                              (condition.von_mangoldt_range, (9, 950), 9)]:
            with pytest.raises(ValueError, match=f"at n={n}, alpha={args[1]} overflows"):
                call(*args)


def test_von_mangoldt_near_the_float_limit_is_finite():
    # Lambda_950(8) = (3^950 - 2^950) (log 2)^950 = 1.12041774001343e302 (mpmath,
    # 50 digits); 3^950 - 2^950 itself does not convert to a float
    bound = recurrence_bound(8, 950)
    assert condition.von_mangoldt_alpha(8, 950) == pytest.approx(1.12041774001343e302, rel=bound)
    assert condition.von_mangoldt_range(8, 950)[-1] == condition.von_mangoldt_alpha(8, 950)


def test_von_mangoldt_rejects_n_past_the_sieve_ceiling(monkeypatch):
    def no_trial_division(n):
        raise AssertionError(f"factorize({n}) ran")

    monkeypatch.setattr(arith, "factorize", no_trial_division)
    with pytest.raises(arith.ResourceLimitError, match="exceeds ceiling"):
        condition.von_mangoldt_alpha(2**61 - 1, 1)


def von_mangoldt_all_tuples(n, alpha):
    """The factored sum over every composition of alpha, found by filtering
    all alpha^m tuples: the reference enumeration order."""
    factors = arith.factorize(n).factors
    if len(factors) > alpha:
        return 0.0
    total = 0.0
    for comp in product(range(1, alpha + 1), repeat=len(factors)):
        if sum(comp) != alpha:
            continue
        coef = math.factorial(alpha)
        for a in comp:
            coef //= math.factorial(a)
        for (_, r), a in zip(factors, comp):
            coef *= r**a - (r - 1) ** a
        mono = 1.0
        for (p, _), a in zip(factors, comp):
            mono *= math.log(p) ** a
        total += coef * mono
    return total


def all_tuples_bound(n, alpha):
    """Relative error bound of von_mangoldt_all_tuples: per term, log p within
    2 ulps raised to a_i (4u a_i in all, 4u alpha), lg**a within 1 ulp (2u,
    m of them), m - 1 products, the integer coefficient's conversion and
    product (2), and at most C - 1 additions of the C = C(alpha - 1, m - 1)
    terms, all >= 0: gamma_(4 alpha + 3m + C) with m = omega(n)."""
    m = arith.omega(n)
    return gamma(4 * alpha + 3 * m + math.comb(alpha - 1, m - 1))


def test_von_mangoldt_matches_all_tuple_enumeration_within_the_rounding_bound():
    # Both are within their bounds of Lambda_alpha(n) > 0, so
    # |rec - tup| <= (E_rec + E_tup) Lambda <= (E_rec + E_tup) tup / (1 - E_tup);
    # both are exactly 0 where n has more than alpha distinct primes
    for alpha in range(1, 9):
        for n in range(2, 3001):
            rec, tup = condition.von_mangoldt_alpha(n, alpha), von_mangoldt_all_tuples(n, alpha)
            e_rec, e_tup = recurrence_bound(n, alpha), all_tuples_bound(n, alpha)
            if arith.omega(n) > alpha:
                assert rec == tup == 0.0
            else:
                assert abs(rec - tup) <= (e_rec + e_tup) * tup / (1 - e_tup), (n, alpha)


def von_mangoldt_compositions(n, alpha):
    """The factored sum over the compositions of alpha into one part per
    prime of n, each from its cuts: C(alpha - 1, m - 1) terms."""
    factors = arith.factorize(n).factors
    total = 0.0
    for cuts in combinations(range(1, alpha), len(factors) - 1):
        comp = [b - a for a, b in zip((0, *cuts), (*cuts, alpha))]
        coef = math.factorial(alpha) // math.prod(map(math.factorial, comp))
        coef *= math.prod(r**a - (r - 1) ** a for (_, r), a in zip(factors, comp))
        total += coef * math.prod(math.log(p) ** a for (p, _), a in zip(factors, comp))
    return total


def test_von_mangoldt_enumerates_compositions_only():
    # n = 30030 has 6 prime factors: of the 12^6 tuples only C(11, 5) = 462 are
    # compositions of 12, the reference's terms; the recurrence steps over the
    # 64 divisors of 30030 and the 3^6 = 729 pairs (j, q) with jq | 30030
    ref = von_mangoldt_compositions(30030, 12)
    bound = recurrence_bound(30030, 12) + all_tuples_bound(30030, 12)
    assert condition.von_mangoldt_alpha(30030, 12) == pytest.approx(ref, rel=bound)
    best = min(timeit.repeat(lambda: condition.von_mangoldt_alpha(30030, 12), number=1, repeat=3))
    assert best < 0.1


def test_von_mangoldt_caps_the_composition_count():
    # n = 30030 at alpha 40 expands into C(39, 5) = 575757 compositions; the
    # recurrence steps 40 times over its 3^6 = 729 pairs.  The one work
    # ceiling caps alpha there at 3491, and refuses 27 (10 pairs) at alpha
    # 10^7 before any step.
    ceiling = condition.MAX_VON_MANGOLDT_WORK
    assert condition.von_mangoldt_alpha(30030, 40) > 0.0
    assert von_mangoldt_work(3491, 729) <= ceiling < von_mangoldt_work(3492, 729)

    def refuse(n, alpha, pairs):
        start = timeit.default_timer()
        work = von_mangoldt_work(alpha, pairs)
        with pytest.raises(arith.ResourceLimitError, match=f"^von Mangoldt value at n={n}, "
                           f"alpha={alpha}: work {work} past the ceiling {ceiling}$"):
            condition.von_mangoldt_alpha(n, alpha)
        return timeit.default_timer() - start

    assert min(refuse(30030, 3492, 729) for _ in range(2)) < 1.0
    assert min(refuse(27, 10**7, 10) for _ in range(2)) < 1.0


def test_von_mangoldt_range_at_alpha_12_to_a_million_is_finite():
    values = np.array(condition.von_mangoldt_range(10**6, 12))
    assert np.isfinite(values).all()
    assert values.min() == pytest.approx(math.log(2) ** 12, rel=recurrence_bound(2, 12))


ORACLE_NS = [*range(2, 400), 30030, 510510, 2**20, 720720]


@pytest.fixture(scope="module")
def mp_logs():
    """log d in 50-digit mpmath for every divisor of ORACLE_NS."""
    with mpmath.workdps(50):
        return {d: mpmath.log(d) for n in ORACLE_NS for d in arith.divisors(n)}


@pytest.mark.parametrize("alpha", [1, 2, 3, 5, 8, 12])
def test_von_mangoldt_matches_mpmath_oracle(alpha, mp_logs):
    # mu * L^alpha summed over the divisors in 50-digit mpmath; the per-n and
    # the range values lie within recurrence_bound of it, so within twice it of
    # each other, and are exactly 0 where n has more than alpha distinct primes
    values = condition.von_mangoldt_range(max(ORACLE_NS), alpha)
    for n in ORACLE_NS:
        per_n, ranged = condition.von_mangoldt_alpha(n, alpha), values[n - 2]
        if arith.omega(n) > alpha:
            assert per_n == ranged == 0.0
            continue
        with mpmath.workdps(50):
            exact = mpmath.fsum(arith.mobius(n // d) * mp_logs[d] ** alpha
                                for d in arith.divisors(n))
            assert exact > 0
            bound = recurrence_bound(n, alpha)
            for value in (per_n, ranged):
                assert abs(mpmath.mpf(value) - exact) <= bound * exact, (n, alpha, value)
        assert abs(per_n - ranged) <= 2 * bound * max(per_n, ranged)


# -- check_range --------------------------------------------------------------


def test_check_range_divisor_count_all_ones(fam):
    rep = condition.check_range(fam["d"], None, None, 1000)
    assert rep.verdict == condition.NONNEG_EXACT
    assert rep.mode == "exact"
    assert all(r.value == 1 for r in rep.records)
    assert rep.n_lo == 1  # n = 1 recorded as trivially satisfied


def test_check_range_omega_prime_indicator(fam):
    rep = condition.check_range(fam["omega"], None, None, 1000)
    primes = set(int(p) for p in _accel.primes_up_to(1000))
    for r in rep.records:
        assert r.value == (1 if r.n in primes else 0)
    assert rep.verdict == condition.NONNEG_EXACT


def test_check_range_one_plus_matches_base(fam):
    one_plus = weights.named_family("one_plus", base=fam["d"])
    rep_base = condition.check_range(fam["d"], None, 1, 1000)
    rep_plus = condition.check_range(one_plus, None, 1, 1000)
    base_vals = {r.n: r.value for r in rep_base.records}
    for r in rep_plus.records:
        if r.n >= 2:
            assert r.value == base_vals[r.n]  # the constant part contributes 0
        assert r.value >= 0


def test_check_range_negative_control(fam):
    rep = condition.check_range(fam["geom_half"], None, None, 100)
    assert rep.verdict == condition.NEGATIVE
    assert rep.mode == "exact"
    bad = [r for r in rep.records if r.verdict == condition.NEGATIVE]
    assert bad and bad[0].n == 2 and bad[0].value == Fraction(-1, 2)


def test_check_range_cross_method_agreement(fam):
    rep = condition.check_range(
        fam["d2"], None, 1, 1000, methods=("divisor_sum", "mult_product")
    )
    assert rep.agreement_failures == 0
    rep = condition.check_range(
        fam["big_omega"], None, 2, 1000, methods=("divisor_sum", "additive_Tt")
    )
    assert rep.agreement_failures == 0
    assert rep.verdict == condition.NONNEG_EXACT


def test_check_range_float_lane_cross_agreement():
    # non-integer exponent forces the float lane
    fam_f = weights.named_family("divisor_pow", alpha=1.5)
    rep = condition.check_range(
        fam_f, None, 1, 1000, methods=("divisor_sum", "mult_product")
    )
    assert rep.mode == "float"
    assert rep.agreement_failures == 0
    assert rep.verdict == condition.NONNEG_TOL


def test_check_range_delta_override_changes_lane(fam):
    rep = condition.check_range(fam["d"], 0.25, 1, 50)
    assert rep.mode == "float"


def test_check_range_trivial_range(fam):
    # n_max = k = 1: only the trivially satisfied n = 1 record
    rep = condition.check_range(fam["d"], None, 1, 1)
    assert [(r.n, r.value) for r in rep.records] == [(1, 1)]
    assert rep.verdict == condition.NONNEG_EXACT
    with pytest.raises(ValueError):
        condition.check_range(fam["omega"], None, 2, 1)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_check_range_tolerance_must_be_finite_and_positive(fam, tol):
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        condition.check_range(fam["omega"], None, None, 12, tol=tol)


@pytest.mark.parametrize("name,params,method", [
    ("divisor_pow", {"alpha": 1}, "divisor_sum"),
    ("omega", {}, "additive_Tt"),
    ("divisor_pow", {"alpha": 1}, "mult_product"),
    ("d_beta", {"beta": 2}, "mult_product"),
])
def test_check_range_enforces_the_sieve_ceiling(name, params, method, monkeypatch):
    def no_tables(n):
        raise AssertionError("a table was built past the sieve ceiling")

    monkeypatch.setattr(arith, "MAX_SIEVE", 1000)
    monkeypatch.setattr(condition._accel, "primes_up_to", no_tables)
    monkeypatch.setattr(condition._accel, "mobius_table", no_tables)
    w = weights.named_family(name, **params)
    with pytest.raises(arith.ResourceLimitError, match="exceeds ceiling 1000"):
        condition.check_range(w, None, None, 5000, methods=(method,))


def test_check_range_start_index_must_be_an_integer(fam):
    with pytest.raises(ValueError, match="expected an integer, got 2.5"):
        condition.check_range(fam["omega"], None, 2.5, 20)
    for k in (2.0, np.int64(2)):
        assert condition.check_range(fam["omega"], None, k, 20).k == 2


def test_check_range_method_validation(fam):
    with pytest.raises(ValueError):
        condition.check_range(fam["omega"], None, None, 100, methods=("mult_product",))
    with pytest.raises(ValueError):
        condition.check_range(fam["d"], None, 2, 100, methods=("mult_product",))
    with pytest.raises(ValueError):
        condition.check_range(fam["d"], None, None, 100, methods=("nope",))
    # additive_Tt is S(n) only for k = 2, whether k is passed or declared
    with pytest.raises(ValueError, match="k = 2"):
        condition.check_range(fam["omega"], None, 3, 50, methods=("divisor_sum", "additive_Tt"))
    shifted = weights.family_from_config({"kind": "named", "name": "omega", "start_index": 3})
    with pytest.raises(ValueError, match="k = 2"):
        condition.check_range(shifted, None, None, 50, methods=("divisor_sum", "additive_Tt"))


@pytest.mark.parametrize("methods", [(), ("divisor_sum", "divisor_sum"),
                                     ("divisor_sum", "additive_Tt", "additive_Tt")])
def test_check_range_needs_distinct_methods(fam, methods):
    # a repeated method wrote every n twice
    with pytest.raises(ValueError, match="need one or more distinct methods"):
        condition.check_range(fam["omega"], None, None, 5, methods=methods)


@pytest.mark.parametrize("method,message", [("foo", "unknown method 'foo'"),
                                            ("mult_product", "not applicable to family kind")])
def test_check_range_names_an_unknown_method_as_unknown(fam, method, message):
    # "foo" was once "not applicable to family kind 'additive'"
    with pytest.raises(ValueError, match=message):
        condition.check_range(fam["omega"], None, None, 5, methods=("divisor_sum", method))


def test_s_columns_exact_needs_the_exact_mode(fam):
    for w, delta in ((fam["omega"], 0.5), (weights.named_family("log_pow", alpha=1), None)):
        with pytest.raises(ValueError, match="needs rational weights and delta = 0"):
            condition.s_columns(w, delta, 2, 10, exact=True)


def test_per_term_nonnegativity_additive(fam):
    for name in ("omega", "big_omega"):
        w = fam[name]
        for n in range(2, 2000):
            _, terms = condition.additive_Tt(w, 0.0, n)
            assert all(t >= 0 for t in terms)


@pytest.mark.parametrize("delta", [None, 0.0, 0.5, -0.3], ids=["declared", "0", "0.5", "-0.3"])
@pytest.mark.parametrize("name,params", [
    ("ones", {}), ("omega", {}), ("big_omega", {}), ("divisor_pow", {"alpha": 1}),
    ("divisor_pow", {"alpha": "1/2"}), ("d_beta", {"beta": 2}), ("d_beta", {"beta": "3/2"}),
    ("geometric", {"ratio": "1/2"}), ("geometric", {"ratio": 3}), ("geometric", {"ratio": 0.7}),
])
def test_prime_power_check_decides_the_condition(name, params, delta):
    # multiplicative (Stetler): S >= 0 on [1, N] iff S(p^r) >= 0 at every p^r <= N, and the
    # first negative n is a prime power; additive at delta <= 0: iff at every p^r, r >= 2
    w = weights.named_family(name, **params)
    check = condition.prime_power_check(w, delta, 2000)
    if w.kind == "additive" and not check["delta_nonpositive"]:
        return
    rep = condition.check_range(w, delta, None, 2000)
    assert check["passed"] == (rep.verdict in (condition.NONNEG_EXACT, condition.NONNEG_TOL))
    negative = rep.columns["n"][rep.columns["verdict"] == condition.VERDICTS.index(
        condition.NEGATIVE)]
    if w.kind == "multiplicative" and not check["passed"]:
        p, r, margin = check["first_violation"]
        assert p**r == negative[0]
        if rep.mode == "float":  # the factor is S(p^r) by the product route, bit for bit
            at = condition.check_range(w, delta, None, p**r, methods=("mult_product",))
            assert margin.hex() == float(at.columns["value"][-1]).hex()


def test_check_range_measure_family_float_lane():
    # two-atom measure: w_j = 2j/(j+1) exactly, so at n = 6 with k = 2 the
    # condition value is -4/3 - 3/2 + 12/7 = -47/42 (hand-derived closed
    # form); the float lane must certify that sign
    fam_m = weights.family_from_config({
        "kind": "measure",
        "spec": {"type": "discrete", "atoms": [[0.0, 0.5], [0.5, 0.5]]},
    })
    rep = condition.check_range(fam_m, None, 2, 50)
    assert rep.mode == "float"
    by_n = {r.n: r for r in rep.records}
    assert by_n[6].verdict == condition.NEGATIVE
    assert by_n[6].value == pytest.approx(-47 / 42, rel=1e-9)
    assert rep.verdict == condition.NEGATIVE


def test_divisor_sum_linearity():
    # S is linear in the weights: S(1 + d) = S(1) + S(d) at every n
    d = weights.named_family("divisor_pow", alpha=1)
    ones = weights.named_family("ones")
    one_plus = weights.named_family("one_plus", base=d)
    for n in range(1, 300):
        lhs = condition.divisor_sum(one_plus, 0.0, 1, n)
        rhs = condition.divisor_sum(ones, 0.0, 1, n) + condition.divisor_sum(d, 0.0, 1, n)
        assert lhs == rhs


# -- report serialization -----------------------------------------------------


def test_report_json_and_csv(fam):
    rep = condition.check_range(fam["geom_half"], None, None, 20)
    d = rep.to_json_dict()
    json.dumps(d)  # must be serializable
    assert d["verdict"] == condition.NEGATIVE
    assert d["records"] == []  # the rows come from render alone
    pieces = list(rep.render())
    assert json.loads("".join(j for j, _ in pieces))[1]["value"] == "-1/2"
    lines = "".join(c for _, c in pieces).strip().splitlines()
    assert lines[0] == "n,value,method,verdict,margin"
    assert len(lines) == len(rep.records) + 1


def _no_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _hand_report(n, value, method, verdict, margin) -> condition.ConditionReport:
    columns = {"n": np.array(n, dtype=np.int64), "value": value,
               "method": np.array(method, dtype=np.int8),
               "verdict": np.array(verdict, dtype=np.int8),
               "margin": np.array(margin, dtype=np.float64)}
    return condition.ConditionReport(
        family="hand", delta=0.0, k=1, n_lo=1, n_hi=max(n, default=1), mode="float",
        tol=1e-10, methods=condition.METHODS, columns=columns,
        verdict=condition.NEGATIVE, agreement_failures=0)


def _assert_renders_like_the_reference(rep, chunk):
    """report.render against json.dumps(..., sort_keys=True, indent=2) and
    csv.writer over the records, which never read the renderer's tokens."""
    pieces = list(rep.render("  ", chunk))
    records = [{"n": r.n, "value": condition._strict_json(r.value), "method": r.method,
                "verdict": r.verdict, "margin": condition._strict_json(r.margin)}
               for r in rep.records]
    text = "".join(j for j, _ in pieces)
    assert "{\n  \"records\": " + text + "\n}" == json.dumps(
        {"records": records}, sort_keys=True, indent=2)
    json.loads(text, parse_constant=_no_constant)  # strict JSON: no NaN or Infinity tokens
    buf = io.StringIO()
    csv.writer(buf).writerows(
        [condition.FIELDS, *((r.n, r.value, r.method, r.verdict, r.margin) for r in rep.records)])
    assert "".join(c for _, c in pieces) == buf.getvalue()


@pytest.mark.parametrize("chunk", [1, 3, 1 << 14])
def test_render_hand_built_columns(chunk):
    floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1]
    objects = [2**63, -(2**64) - 1, 2**200, 0.5, Fraction(-3, 7), math.nan, 7]
    ints = [-(2**63), 2**63 - 1, 0, -1, 1, 10**18, 5]
    codes = dict(method=[0, 1, 2, 0, 1, 2, 0], verdict=[3, 1, 2, 0, 3, 1, 0])
    margin = [-math.inf, math.nan, 1e16, -0.0, 5e-324, math.inf, -1.5]
    for value in (np.array(floats), np.array(objects, dtype=object), np.array(ints)):
        rep = _hand_report(range(1, 8), value, margin=margin, **codes)
        _assert_renders_like_the_reference(rep, chunk)
        assert list(rep.counts().items()) == [(condition.NEGATIVE, 2), (condition.NONNEG_TOL, 2),
                                              (condition.INCONCLUSIVE, 1),
                                              (condition.NONNEG_EXACT, 2)]
    _assert_renders_like_the_reference(
        _hand_report([], np.array([], dtype=np.int64), [], [], []), chunk)


_float64 = st.floats(allow_nan=True, allow_infinity=True)
_scalars = st.one_of(st.integers(-(2**100), 2**100), st.fractions(), _float64)


@st.composite
def _report_columns(draw):
    size = draw(st.integers(0, 40))
    column = lambda elements: draw(st.lists(elements, min_size=size, max_size=size))
    value = draw(st.sampled_from([
        lambda: np.array(column(st.integers(-(2**63), 2**63 - 1)), dtype=np.int64),
        lambda: np.array(column(_float64), dtype=np.float64),
        lambda: np.array(column(_scalars), dtype=object),
    ]))()
    return _hand_report(column(st.integers(1, 2**62)), value,
                        column(st.integers(0, len(condition.METHODS) - 1)),
                        column(st.integers(0, len(condition.VERDICTS) - 1)), column(_float64))


@settings(max_examples=150, deadline=None)
@given(rep=_report_columns(), chunk=st.integers(1, 50))
def test_render_random_columns_match_json_and_csv(rep, chunk):
    _assert_renders_like_the_reference(rep, chunk)


def _nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


_FLOAT_POOL = [0.0, -0.0, _nan(0), _nan(1), math.inf, -math.inf, 5e-324, 1e16]
_INT_POOL = [0, -1, 2**53, 2**53 + 1, 2**63 - 1]  # 2^53 + 1 rounds to 2^53 as a float
_OBJECT_POOL = [2**53 + 1, 2**64, Fraction(2**64), Fraction(1, 3), Fraction(2, 6), -0.0,
                _nan(1)]


@st.composite
def _repeated_report_columns(draw):
    """_report_columns drawn from small pools, so most chunks repeat entries."""
    size = draw(st.integers(0, 60))
    column = lambda pool: draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    value = draw(st.sampled_from([
        lambda: np.array(column(_INT_POOL), dtype=np.int64),
        lambda: np.array(column(_FLOAT_POOL), dtype=np.float64),
        lambda: np.array(column(_OBJECT_POOL), dtype=object),
    ]))()
    return _hand_report(column([1, 2, 3, 2**53, 2**53 + 1]), value,
                        column(range(len(condition.METHODS))),
                        column(range(len(condition.VERDICTS))), column(_FLOAT_POOL))


@settings(max_examples=100, deadline=None)
@given(rep=_repeated_report_columns(), chunk=st.sampled_from([1, 3, 50]))
def test_render_repeated_columns_match_json_and_csv(rep, chunk):
    _assert_renders_like_the_reference(rep, chunk)


def test_render_tokenizes_each_distinct_entry_once(fam, monkeypatch):
    rep = condition.check_range(fam["omega"], None, None, 2000, ("divisor_sum", "additive_Tt"))
    seen = []
    tokens = condition._tokens
    monkeypatch.setattr(condition, "_tokens", lambda col: seen.append(len(col)) or tokens(col))
    chunk = 1000
    list(rep.render("", chunk))
    distinct = [len(np.unique(c.view(np.int64) if c.dtype.kind == "f" else c))
                for lo in range(0, len(rep.columns["n"]), chunk)
                for c in (rep.columns[f][lo : lo + chunk] for f in ("n", "value", "margin"))]
    assert rep.columns["value"].dtype == np.int64 and len(distinct) == 12
    assert seen == distinct
    # each n once for its two rows, value and margin 0 or 1: not one entry per row
    assert sum(distinct) < 2100 < 3 * len(rep.columns["n"])


# -- exact lane ----------------------------------------------------------------


INTEGER_FAMILIES = [
    ("ones", {}), ("omega", {}), ("big_omega", {}),
    ("divisor_pow", {"alpha": 1}), ("divisor_pow", {"alpha": 2}), ("divisor_pow", {"alpha": 3}),
    ("d_beta", {"beta": 2}), ("d_beta", {"beta": 3}),
]


def test_only_the_per_n_divisor_sum_calls_value():
    # a weight column has one evaluator, WeightFamily.windows, exact or float: a second
    # one for the exact divisor sums would be a twin of it free to drift from value()
    tree = ast.parse(Path(condition.__file__).read_text())
    reference = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "divisor_sum")
    inside = set(map(id, ast.walk(reference)))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "value"]
    assert any(id(node) in inside for node in calls)
    assert [node.lineno for node in calls if id(node) not in inside] == []


def test_one_float_factor_expression():
    # every float factor and companion is _factor's one numpy expression over arrays: a
    # scalar lane of it (one call per prime power) would be a twin free to round apart
    tree = ast.parse(Path(condition.__file__).read_text())
    factor = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_factor")
    inside = set(map(id, ast.walk(factor)))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    mapped = [node.lineno for node in calls if ast.unparse(node.func) in ("_accel.evaluate",
                                                                          "partial")
              and any(isinstance(a, ast.Name) and a.id == "_factor" for a in node.args)]
    power = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.power"]
    assert mapped == []
    assert any(id(node) in inside for node in power)
    assert [node.lineno for node in power if id(node) not in inside] == []


@pytest.mark.parametrize("name,params", INTEGER_FAMILIES)
def test_integer_values_table_is_exact(name, params):
    # the exact lane reads these tables as the exact values
    w = weights.named_family(name, **params)
    assert w.integer_valued
    table = w.values_table(10**4)
    assert table[1:].tolist() == [w.value(j) for j in range(1, 10**4 + 1)]


@pytest.mark.parametrize("name,params,method", [
    ("ones", {}, "mult_product"),
    ("divisor_pow", {"alpha": 1}, "mult_product"),
    ("divisor_pow", {"alpha": 3}, "mult_product"),
    ("d_beta", {"beta": 3}, "mult_product"),
    ("omega", {}, "additive_Tt"),
    ("big_omega", {}, "additive_Tt"),
])
def test_vectorized_factored_routes_match_per_n(name, params, method):
    w = weights.named_family(name, **params)
    window, bound = condition._factored(w, 0.0, method, _accel.PrimePowers(5000), True)
    col = window(0, 5001)
    assert col.dtype == np.int64 and bound < 2.0**62
    if method == "mult_product":
        want = [condition.mult_product(w, 0.0, n) for n in range(2, 5001)]
    else:
        want = [condition.additive_Tt(w, 0.0, n)[0] for n in range(2, 5001)]
    assert col[2:].tolist() == want


def _hex(v):
    return v.hex() if isinstance(v, float) else (type(v), v)


#: Families whose f depends on p: their float factors are a column over the listing at
#: every delta, where the named families' are one per exponent at delta = 0.
ON_P = {
    "mult_on_p": weights.multiplicative_from_prime_powers(
        lambda p, r: (r + 1) / math.log(p + 1), 1.0, 0.0, (1.0, 1.0)),
    "add_on_p": weights.additive_from_prime_powers(
        lambda p, r: r * math.log(p) - 0.7, 1.0, 0.0, (1.0, 1.0)),
}


def _family(name, params):
    return ON_P[name] if name in ON_P else weights.named_family(name, **params)


@pytest.mark.parametrize("name,params,delta", [
    ("d_beta", {"beta": 2}, 0.3),
    ("d_beta", {"beta": "3/2"}, 0.3),
    ("divisor_pow", {"alpha": "1/2"}, 0.0),
    ("geometric", {"ratio": "1/2"}, 0.0),  # exact: Fractions
    ("mult_on_p", {}, 0.3),
])
def test_product_route_is_the_per_n_product_bit_for_bit(name, params, delta):
    w = _family(name, params)
    rep = condition.check_range(w, delta, 1, 3000, methods=("mult_product",))
    assert rep.mode == ("exact" if w.exact and delta == 0.0 else "float")
    got = [r.value for r in rep.records[1:]]  # past the one n = 1 row
    want = [condition.mult_product(w, delta, n) for n in range(2, 3001)]
    assert list(map(_hex, got)) == list(map(_hex, want))


@pytest.mark.parametrize("w,delta", [
    (weights.named_family("omega"), 0.3),
    (weights.named_family("big_omega"), 0.5),
    (ON_P["add_on_p"], 0.0),
    (ON_P["add_on_p"], -0.3),
])
def test_additive_route_is_the_per_n_sum_bit_for_bit(w, delta):
    def reference(n):  # T_t: its own factor, then the other primes' companions in order
        factors = arith.factorize(n).factors
        p, r = (np.array(c, dtype=np.float64) for c in zip(*factors))
        hi, lo = (np.array([float(w.value(q**s)) for q, s in factors]),
                  np.array([float(w.value(q ** (s - 1))) for q, s in factors]))
        pd = np.power(p, -delta)  # numpy's power on 1-d arrays, as the routes round it
        own, comp = ((pd ** (r - 1) * (pd * v - u)).tolist() for v, u in ((hi, lo), (1.0, 1.0)))
        terms = []
        for t, term in enumerate(own):
            for j, c in enumerate(comp):
                if j != t:
                    term *= c
            terms.append(term)
        return sum(terms)

    per_n = [condition.additive_Tt(w, delta, n) for n in range(2, 3001)]
    assert [_hex(total) for total, _ in per_n] == [_hex(reference(n)) for n in range(2, 3001)]
    # the range column rounds the same factors and companions in another order:
    # each path rounds a term at most 2 omega(n) times, so it is within
    # gamma_(2 omega) sum |T_t| of the exact sum, and the paths within twice that
    rep = condition.check_range(w, delta, 2, 3000, methods=("additive_Tt",))
    assert rep.mode == "float"
    for n, record, (total, terms) in zip(range(2, 3001), rep.records, per_n):
        k = 2 * arith.omega(n)
        gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
        assert abs(record.value - total) <= 2 * gamma * sum(map(abs, terms)), n
        assert math.copysign(1.0, record.value) == 1.0 or record.value < 0, n


BOUND_DELTAS = (0.3, 0.5, -0.3, 1 / 3, 2.0)


@pytest.fixture(scope="module")
def mp_powers():
    """The prime powers <= 10^5 and, at each of BOUND_DELTAS, p^(-delta) over their listing
    in 50-digit mpmath."""
    pp = _accel.PrimePowers(10**5)
    with mpmath.workdps(50):
        return pp, {delta: [mpmath.mpf(p) ** -mpmath.mpf(delta) for p in pp.listing[1].tolist()]
                    for delta in BOUND_DELTAS}


@pytest.mark.parametrize("delta", BOUND_DELTAS, ids=["0.3", "0.5", "-0.3", "1/3", "2"])
@pytest.mark.parametrize("name,params", [
    ("divisor_pow", {"alpha": 1}), ("d_beta", {"beta": "3/2"}), ("omega", {}),
    ("big_omega", {}), ("mult_on_p", {}), ("companion", {}),
])
def test_float_factors_within_the_rounding_bound(name, params, delta, mp_powers):
    # _factor's bound gamma_(2r+5) P^(r-1) (P |hi| + |lo|), P = p^(-delta), against 50-digit
    # mpmath at every p^r <= 10^5: the factors of the columns (hi and lo the floats of
    # w_(p^r) and w_(p^(r-1))) and the companions (hi = lo = 1)
    pp, P = mp_powers[0], mp_powers[1][delta]
    _, p, r = pp.listing
    if name == "companion":
        got, hi, lo = condition._factor(delta, p, r), [1.0] * len(p), [1.0] * len(p)
    else:
        w = _family(name, params)
        _, _, at, fq, _ = condition._prime_power_factors(w, delta, False, pp)
        got = fq[at(p, r)]
        hi, lo = ([float(w.prime_power(q, s - e)) for q, s in zip(p.tolist(), r.tolist())]
                  for e in (0, 1))
    u = 2.0**-53
    with mpmath.workdps(50):
        for x, Pq, s, h, l in zip(got.tolist(), P, r.tolist(), hi, lo):
            scale, k = Pq ** (s - 1), 2 * s + 5
            err = abs(mpmath.mpf(x) - scale * (Pq * h - l))
            assert err <= k * u / (1 - k * u) * scale * (Pq * abs(h) + abs(l)), (x, s, h, l)


@pytest.mark.parametrize("name,params,delta,n_max,method", [
    ("omega", {}, -200.0, 100, "additive_Tt"),  # the companion p^200 - 1 from p = 37 on
    ("divisor_pow", {"alpha": 1}, -100.0, 4000, "mult_product"),  # p^100 from p = 1201 on
])
def test_factored_routes_past_the_float_range_are_inconclusive(name, params, delta, n_max,
                                                               method):
    # an overflowing power is inf: the rows are inconclusive where the divisor sums'
    # are, without a RuntimeWarning (an error here) from the factored routes
    w = weights.named_family(name, **params)
    want = condition.check_range(w, delta, None, n_max)
    both = condition.check_range(w, delta, None, n_max, methods=("divisor_sum", method))
    rep = condition.check_range(w, delta, None, n_max, methods=(method,))
    assert rep.verdict == want.verdict == both.verdict == condition.INCONCLUSIVE
    finite = np.isfinite(rep.columns["margin"])
    assert (finite == np.isfinite(want.columns["margin"])).all() and not finite.all()
    assert both.agreement_failures == 0
    check = condition.prime_power_check(w, delta, n_max)
    assert not check["passed"] and check["first_violation"][2] == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divisor_sums_past_the_float_range_warn_nothing():
    # j^200 overflows from j = 35 on, and every n >= 35 is its own divisor: those
    # divisor-sum rows are inf or NaN and inconclusive, as the factored routes' are,
    # with no errstate around the call
    rep = condition.check_range(weights.named_family("omega"), -200, 2, 100)
    n, margin = rep.columns["n"], rep.columns["margin"]
    assert rep.verdict == condition.INCONCLUSIVE
    assert (np.isfinite(margin) == (n < 35)).all()


def test_vectorized_product_overflow_guard():
    # the bound (2^40 + 1)^2 on S(6) = (2^40 - 1)^2 is past 2^62: the same
    # int64 factors, multiplied as Python ints
    f = {(2, 1): 2**40, (2, 2): 1, (3, 1): 2**40, (5, 1): 1}
    w = weights.multiplicative_from_prime_powers(lambda p, r: f[p, r], 1.0, 0.0, (1.0, 1.0),
                                                 exact=True, integer_valued=True)
    window, bound = condition._factored(w, 0.0, "mult_product", _accel.PrimePowers(6), True)
    col = window(0, 7)
    assert bound > 2.0**62 and col.dtype == object
    assert col[1:].tolist() == [1, 2**40 - 1, 2**40 - 1, 1 - 2**40, 0, (2**40 - 1) ** 2]
    assert all(type(v) is int for v in col[1:])


@pytest.mark.parametrize("name,params,methods", [
    ("omega", {}, ("divisor_sum", "additive_Tt")),
    ("big_omega", {}, ("additive_Tt", "divisor_sum")),
    ("divisor_pow", {"alpha": 1}, ("divisor_sum", "mult_product")),
    ("d_beta", {"beta": 3}, ("mult_product",)),
])
def test_exact_lane_matches_python_int_path(name, params, methods, monkeypatch):
    w = weights.named_family(name, **params)
    calls = []
    value = weights.WeightFamily.value
    monkeypatch.setattr(weights.WeightFamily, "value",
                        lambda self, n: calls.append(n) or value(self, n))
    rep = condition.check_range(w, None, None, 3000, methods=methods)
    assert rep.columns["value"].dtype == np.int64
    assert calls in ([], [1])  # at most the n = 1 row of k = 1
    slow = weights.named_family(name, **params)
    slow.integer_valued = False
    ref = condition.check_range(slow, None, None, 3000, methods=methods)
    assert ref.columns["value"].dtype == object
    assert json.dumps(rep.to_json_dict()) == json.dumps(ref.to_json_dict())
    joined = [list(map("".join, zip(*r.render()))) for r in (rep, ref)]
    assert joined[0] == joined[1]  # the rows: [JSON text, CSV text]


def test_exact_run_past_the_float_range_takes_the_python_int_routes():
    # 2^1200 at n = 30 reads inf in the float table: the exact routes must
    # not take it for an int64 table
    w = weights.named_family("divisor_pow", alpha=400)
    assert w.integer_valued
    with pytest.warns(RuntimeWarning):
        rep = condition.check_range(w, None, 1, 30, methods=("divisor_sum", "mult_product"))
    assert rep.mode == "exact"
    assert rep.columns["value"].dtype == object
    assert [r.value for r in rep.records] == [
        f(n) for n in range(1, 31) for f in (lambda n: condition.divisor_sum(w, 0.0, 1, n),
                                             lambda n: condition.mult_product(w, 0.0, n))]
    # a value past float64 gets the margin of its sign
    assert rep.records[-1].value > 2**1024 and rep.records[-1].margin == math.inf
    assert rep.verdict == condition.NONNEG_EXACT


@pytest.mark.parametrize("big", [2**50, 2**60 + 1])
def test_exact_lane_bound_falls_back_to_python_ints(big, monkeypatch):
    # n_max * max|w| >= 2^53: float64 partial sums could round
    w = weights.family_from_config({
        "kind": "explicit", "values": [str(big + 3 * i) for i in range(11)],
        "start_index": 2, "sigma": 1.0, "delta": 0.0, "growth_bound": [2.0**61, 0.0],
    })
    assert w.integer_valued

    def no_float_sums(*args):
        raise AssertionError("float divisor sums past the 2^53 bound")

    monkeypatch.setattr(condition._accel, "divisor_sum_table", no_float_sums)
    rep = condition.check_range(w, None, None, 12)
    assert rep.columns["value"].dtype == object
    assert [r.value for r in rep.records] == [
        condition.divisor_sum(w, 0.0, 2, n) for n in range(2, 13)]


@pytest.mark.parametrize("name, params", [
    ("ones", {}), ("omega", {}), ("big_omega", {}), ("divisor_pow", {"alpha": 1}),
    ("divisor_pow", {"alpha": 8}), ("d_beta", {"beta": 3}), ("d_beta", {"beta": 2000}),
    ("geometric", {"ratio": "1/2"}), ("geometric", {"ratio": 3})])
def test_exact_lane_bound_is_the_max_of_the_size_fill(name, params):
    # the largest product of the sizes over p^r || m, m <= n: from the exponent patterns on
    # the first primes for sizes on r alone, one WINDOW at a time for sizes on p, and the
    # max of the whole fill agree bit for bit, also just below and at a primorial; for
    # sizes on p the bound is inf once a size reaches 2^53, where the fill is skipped
    w = weights.named_family(name, **params)
    assert w.r_only
    for n in (2309, 2310, 30029, 30030, 2 * _accel.WINDOW + 1, 510509, 510510):
        pp = _accel.PrimePowers(n)
        _, _, at, _, size = condition._prime_power_factors(w, 0.0, True, pp)
        whole = pp.column(lambda p, r: size[at(p, r)], np.multiply).max()
        assert condition._factored(w, 0.0, "mult_product", pp, True)[1] == whole, n
        w.r_only = False  # the same sizes, read from the listing
        bound = condition._factored(w, 0.0, "mult_product", pp, True)[1]
        assert bound == (whole if size.max() < 2**53 else math.inf), n
        w.r_only = True


def test_exact_disagreement_raises(fam, monkeypatch):
    factored = condition._factored

    def corrupted(*args):  # S(7) off by one
        window, bound = factored(*args)
        return (lambda lo, hi: window(lo, hi) + (np.arange(lo, hi) == 7)), bound

    monkeypatch.setattr(condition, "_factored", corrupted)
    with pytest.raises(condition.MethodDisagreement, match="n=7"):
        condition.check_range(fam["omega"], None, None, 50,
                              methods=("divisor_sum", "additive_Tt"))


@pytest.mark.parametrize("name,params,methods,delta", [
    ("omega", {}, ("divisor_sum", "additive_Tt"), None),
    ("omega", {}, ("divisor_sum", "additive_Tt"), 0.5),  # the per-n float sums
    ("divisor_pow", {"alpha": 1}, ("divisor_sum", "mult_product"), None),
    ("big_omega", {}, ("additive_Tt",), None),
    ("big_omega", {}, ("additive_Tt", "divisor_sum"), 0.5),
    ("divisor_pow", {"alpha": 1}, ("mult_product",), 0.5),
    ("divisor_pow", {"alpha": 1}, ("divisor_sum", "mult_product"), 0.5),
    ("d_beta", {"beta": "3/2"}, ("mult_product", "divisor_sum"), 0.3),
    ("divisor_pow", {"alpha": 40}, ("divisor_sum", "mult_product"), None),  # Python ints
    ("geometric", {"ratio": "1/2"}, ("divisor_sum", "mult_product"), 0.0),  # Fractions
    ("geometric", {"ratio": "1/2"}, ("divisor_sum",), -1.0),  # the closed-form float table
    ("one_plus", {"base": weights.named_family("omega")}, ("divisor_sum",), None),
    # Fractions: 1 + the base's prime-power fill
    ("one_plus", {"base": weights.named_family("geometric", ratio="1/2")}, ("divisor_sum",), None),
])
def test_check_range_builds_the_factor_tables_at_most_twice(name, params, methods, delta,
                                                            monkeypatch):
    # mu is built once, for divisor_sum alone, and no route factorizes:
    # prime-power values come from the family's prime_power.  The base primes
    # are sieved once, and the prime powers listed once where a value depends
    # on p (the factors and companions at delta != 0), never for r alone
    calls, mobius_table, factorize = [], _accel.mobius_table, arith.factorize
    sieves, listings = [], []
    primes_up_to, listing = _accel.primes_up_to, _accel.PrimePowers.listing.func
    monkeypatch.setattr(_accel, "mobius_table",
                        lambda n, pp=None: calls.append(n) or mobius_table(n, pp))
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(("factorize", n)) or
                        factorize(n))
    monkeypatch.setattr(_accel, "primes_up_to", lambda n: sieves.append(n) or primes_up_to(n))
    monkeypatch.setattr(_accel.PrimePowers.listing, "func",
                        lambda pp: listings.append(pp.n) or listing(pp))
    w = weights.named_family(name, **params)
    rep = condition.check_range(w, delta, None, 1000, methods=methods)
    assert rep.mode == ("float" if delta else "exact")
    assert calls == ([1000] if "divisor_sum" in methods else [])
    assert sieves == [31]
    assert listings == ([1000] if delta and methods != ("divisor_sum",) else [])


@pytest.mark.parametrize("kind,exact,integer_valued", [
    ("multiplicative", True, True), ("multiplicative", True, False),
    ("multiplicative", False, False), ("additive", True, True), ("additive", False, False)])
def test_columns_call_the_prime_power_function_only_inside_values(kind, exact, integer_valued,
                                                                  monkeypatch):
    # every column reads f(p, r) through PrimePowers.values: each check_range route, exact
    # and float, the prime-power check, and the weight, ratio and series tables
    running, values = [], _accel.PrimePowers.values

    def tracked(*args):
        running.append(None)
        try:
            return values(*args)
        finally:
            running.pop()

    def f(p, r):
        assert running, f"f({p},{r}) called outside PrimePowers.values"
        v = r + 1 + (p % 4 == 1)
        return v if integer_valued else Fraction(v, 2) if exact else v / 2.0

    monkeypatch.setattr(_accel.PrimePowers, "values", tracked)
    build = (weights.multiplicative_from_prime_powers if kind == "multiplicative"
             else weights.additive_from_prime_powers)
    w = build(f, 1.0, 0.0, (4.0, 1.0), exact=exact, integer_valued=integer_valued)
    method = "mult_product" if kind == "multiplicative" else "additive_Tt"
    for delta in (0.0, 0.3 if kind == "multiplicative" else -0.3):
        rep = condition.check_range(w, delta, None, 2000, ("divisor_sum", method))
        assert rep.mode == ("exact" if exact and delta == 0.0 else "float")
        assert condition.prime_power_check(w, delta, 2000)["checks"] > 0
        for route in kernel.ROUTES:  # the power sums read from j = 1
            assert len(kernel._route(w, delta, route).table(2000)[1:]) == 2000


@pytest.mark.parametrize("exact", [True, False])
def test_directly_built_multiplicative_family_reads_value_at_prime_powers(exact):
    # WeightFamily's own prime_power: value(p**r), with no prime-power function
    w = weights.WeightFamily("d", "multiplicative", 1, 1.0, 0.0, (2.0, 0.5),
                             arith.divisor_count, exact=exact)
    pairs = [(2, 0), (2, 3), (7, 2)]
    assert [w.prime_power(p, r) for p, r in pairs] == [w.value(p**r) for p, r in pairs] == [1, 4, 3]
    rep = condition.check_range(w, None, 1, 300, methods=("divisor_sum", "mult_product"))
    assert rep.mode == ("exact" if exact else "float")
    assert [r.value for r in rep.records] == [
        v for n in range(1, 301)
        for v in (condition.divisor_sum(w, None, 1, n), condition.mult_product(w, None, n))]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("methods", [
    ("mult_product",), ("mult_product", "divisor_sum"), ("divisor_sum", "mult_product")])
def test_n1_rows_are_the_requested_methods_in_order(exact, methods):
    w = weights.named_family("divisor_pow", alpha=1)
    w.exact = exact  # what --float does
    rep = condition.check_range(w, None, 1, 30, methods=methods)
    assert rep.mode == ("exact" if exact else "float")
    assert [(r.n, r.method) for r in rep.records] == [
        (n, m) for n in range(1, 31) for m in methods]
    assert rep.counts() == {condition.NONNEG_EXACT if exact else condition.NONNEG_TOL:
                            30 * len(methods)}


def test_float_run_keeps_the_n1_value_a_float():
    w = weights.named_family("divisor_pow", alpha=1)
    w.exact = False  # what --float does; value(1) is still the int 1
    rep = condition.check_range(w, None, 1, 30, methods=("divisor_sum", "mult_product"))
    assert rep.columns["value"].dtype == np.float64
    assert [(r.value, type(r.value)) for r in rep.records[:2]] == [(1.0, float)] * 2


def _family_values(mult: bool, lane: str):
    """Prime-power values of random exact families: small ints (the int64
    lane), ints of 2^53 and more, or Fractions (the Python-object lane)."""
    if lane == "fraction":
        return st.builds(Fraction, st.integers(1 if mult else -60, 60), st.integers(2, 9))
    if lane == "big":
        big = st.integers(2**53, 2**60)
        return big if mult else st.one_of(big, big.map(operator.neg))
    return st.integers(1, 2**10) if mult else st.integers(-(2**10), 2**10)


@settings(max_examples=60, deadline=None)
@given(mult=st.booleans(), lane=st.sampled_from(["int64", "big", "fraction"]),
       n_max=st.integers(2, 100), data=st.data())
def test_check_range_is_the_per_n_routes_on_random_families(mult, lane, n_max, data):
    vals = data.draw(st.lists(_family_values(mult, lane), min_size=1, max_size=8))
    build = (weights.multiplicative_from_prime_powers if mult
             else weights.additive_from_prime_powers)
    w = build(lambda p, r: vals[(3 * p + r) % len(vals)], 1.0, 0.0, (1.0, 1.0),
              exact=True, integer_valued=lane != "fraction")
    k, route = (1, "mult_product") if mult else (2, "additive_Tt")
    per_n = {
        "divisor_sum": lambda n: condition.divisor_sum(w, 0.0, k, n),
        "mult_product": lambda n: condition.mult_product(w, 0.0, n),
        "additive_Tt": lambda n: condition.additive_Tt(w, 0.0, n)[0],
    }
    for methods in (("divisor_sum", route), (route, "divisor_sum")):
        rep = condition.check_range(w, None, None, n_max, methods=methods)
        assert rep.mode == "exact"
        assert rep.columns["value"].dtype == (np.int64 if lane == "int64" else object)
        assert [(r.n, r.method, r.value) for r in rep.records] == [
            (n, m, per_n[m](n)) for n in range(k, n_max + 1) for m in methods]


@pytest.mark.parametrize("name,delta,k,methods,tol", [
    ("d", None, 1, ("divisor_sum", "mult_product"), condition.DEFAULT_TOL),
    ("omega", None, 2, ("divisor_sum", "additive_Tt"), condition.DEFAULT_TOL),
    ("geom_half", None, 1, ("divisor_sum", "mult_product"), condition.DEFAULT_TOL),
    ("geom_half", 0.5, 1, ("mult_product",), condition.DEFAULT_TOL),
    ("d", 0.5, 1, ("divisor_sum", "mult_product"), 1e-18),
])
def test_report_columns_match_records(fam, name, delta, k, methods, tol):
    rep = condition.check_range(fam[name], delta, k, 300, methods=methods, tol=tol)
    records = rep.records
    assert len(records) == len(rep.columns["n"])
    by_record = [
        {"n": r.n, "value": condition._strict_json(r.value), "method": r.method,
         "verdict": r.verdict, "margin": r.margin}
        for r in records
    ]
    assert "".join(j for j, _ in rep.render()) == json.dumps(by_record, sort_keys=True, indent=2)
    counts: dict = {}
    for r in records:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    assert list(rep.counts().items()) == list(counts.items())
