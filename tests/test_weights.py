import json
import math
import operator
import re
from fractions import Fraction
from functools import partial
from random import Random

import mpmath
import numpy as np
import pytest

from dirweight import _accel, arith, cli, condition, series, weights


# -- named families -----------------------------------------------------------


def test_divisor_pow_equals_divisor_count():
    d = weights.named_family("divisor_pow", alpha=1)
    rng = Random(2)
    for _ in range(300):
        n = rng.randint(1, 10**4)
        assert d.value(n) == arith.divisor_count(n)
    assert d.exact


def test_divisor_pow_alpha2():
    d2 = weights.named_family("divisor_pow", alpha=2)
    assert d2.value(12) == 36
    assert d2.value(1) == 1


def test_binomial_prime_powers_with_beta_two_equal_divisor_count():
    fam = weights.named_family("d_beta", beta=2)
    for n in range(1, 2001):
        assert fam.value(n) == arith.divisor_count(n)


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_d_beta_matches_zeta_power_coefficients(beta):
    n = 2000
    fam = weights.named_family("d_beta", beta=beta)
    coeffs = series.power(series.zeta_coeffs(n), beta)
    for j in range(1, n + 1):
        assert fam.value(j) == coeffs.a(j)


def test_d_beta_non_integer_is_float_and_positive():
    fam = weights.named_family("d_beta", beta=1.5)
    assert not fam.exact
    for n in (1, 2, 12, 97, 1024):
        assert fam.value(n) > 0


def test_constant_prime_power_value_gives_ones():
    ones = weights.multiplicative_from_prime_powers(
        lambda p, r: 1, 1.0, 0.0, (1.0, 0.0), exact=True
    )
    assert all(ones.value(n) == 1 for n in range(1, 200))


def test_omega_family_values():
    om = weights.named_family("omega")
    assert om.value(1) == 0  # the additive extension
    for p in (2, 3, 5, 7):
        for j in (1, 2, 3):
            assert om.value(p**j) == 1
    assert om.value(12) == 2


def test_big_omega_family_values():
    bo = weights.named_family("big_omega")
    assert bo.value(12) == 3
    assert bo.value(1) == 0
    assert bo.value(2**5) == 5


def test_one_plus_wraps_base():
    d = weights.named_family("divisor_pow", alpha=1)
    op = weights.named_family("one_plus", base=d)
    for n in (1, 2, 12, 100):
        assert op.value(n) == 1 + d.value(n)
    assert op.exact


def test_geometric_family():
    g = weights.named_family("geometric", ratio="1/2")
    assert g.value(2) == Fraction(1, 2)
    assert g.value(12) == Fraction(1, 8)
    assert g.exact
    assert g.delta == 0.0


@pytest.mark.parametrize("ratio,spelling", [(Fraction(1, 2), "1/2"), (Fraction(6, 3), 2),
                                            (Fraction(-3, -4), "3/4")])
def test_geometric_ratio_as_a_fraction_is_exact(ratio, spelling):
    a, b = (weights.named_family("geometric", ratio=r) for r in (ratio, spelling))
    assert a.name == b.name and a.exact and b.exact
    assert [a.value(n) for n in range(1, 65)] == [b.value(n) for n in range(1, 65)]
    assert [type(a.value(n)) for n in range(1, 65)] == [type(b.value(n)) for n in range(1, 65)]
    assert type(weights._parse_scalar(ratio)) is type(weights._parse_scalar(spelling))


def test_log_pow_family():
    f = weights.named_family("log_pow", alpha=2)
    assert f.value(10) == pytest.approx(math.log(10) ** 2)
    with pytest.raises(ValueError):
        f.value(1)


def test_named_family_declared_abscissas():
    for name, params in [("omega", {}), ("divisor_pow", {"alpha": 2}),
                          ("log_pow", {"alpha": 3}), ("ones", {})]:
        fam = weights.named_family(name, **params)
        assert (fam.sigma, fam.delta) == (1.0, 0.0)


def test_unknown_named_family():
    with pytest.raises(ValueError):
        weights.named_family("nope")


def test_unknown_named_parameters_rejected():
    with pytest.raises(ValueError):
        weights.named_family("divisor_pow", alpha=2, junk=1)
    with pytest.raises(ValueError):
        weights.named_family("ones", alpha=1)
    with pytest.raises(ValueError):
        weights.family_from_config({
            "kind": "named", "name": "d_beta", "parameters": {"beta": 2, "x": 0},
        })


# -- structure audits ---------------------------------------------------------


@pytest.mark.parametrize("name,params", [
    ("ones", {}), ("divisor_pow", {"alpha": 1}), ("divisor_pow", {"alpha": 2}),
    ("d_beta", {"beta": 3}), ("geometric", {"ratio": "1/2"}),
    ("omega", {}), ("big_omega", {}),
])
def test_structural_law_on_random_coprime_pairs(name, params):
    fam = weights.named_family(name, **params)
    law = operator.mul if fam.kind == "multiplicative" else operator.add
    rng, checked = Random(0), 0
    while checked < 200:
        m, n = rng.randint(2, 10**4), rng.randint(2, 10**4)
        if math.gcd(m, n) == 1:
            assert fam.value(m * n) == law(fam.value(m), fam.value(n)), (m, n)
            checked += 1


def test_audit_positivity_and_growth_bound():
    for name, params in [("ones", {}), ("omega", {}), ("big_omega", {}),
                          ("divisor_pow", {"alpha": 2}), ("d_beta", {"beta": 3}),
                          ("log_pow", {"alpha": 2})]:
        weights.named_family(name, **params).audit(10**4)


def test_values_table_matches_value():
    for name, params in [("omega", {}), ("divisor_pow", {"alpha": 1}),
                          ("d_beta", {"beta": 3}), ("geometric", {"ratio": "1/2"})]:
        fam = weights.named_family(name, **params)
        table = fam.values_table(500)
        for n in range(fam.defined_from, 501):
            assert table[n] == pytest.approx(float(fam.value(n)), rel=1e-12)


def _explicit_family():
    # Fraction-valued, one value per n <= 10^4: its table is value() per n
    return weights.family_from_config({
        "kind": "explicit", "values": [f"{m}/{m % 7 + 1}" for m in range(1, 10**4 + 1)],
        "start_index": 1, "sigma": 1.0, "delta": 0.0, "growth_bound": [1e4, 0.0]})


def _typed(values):
    """(type, repr) of each entry: an exact window equals value() in type and value."""
    return [(type(v), repr(v)) for v in values]


def _fraction_family(builder=weights.multiplicative_from_prime_powers):
    # exact, not integer-valued: the fill runs on Fractions
    return builder(lambda p, r: Fraction(p + r, p + 2 * r), 1.0, 0.0, (1.0, 0.0), exact=True)


_NAMED = [
    ("ones", {}), ("omega", {}), ("big_omega", {}),
    *(("divisor_pow", {"alpha": a}) for a in (1, 2, "1/2", "3/2")),
    *(("d_beta", {"beta": b}) for b in ("3/2", 3)),
    *(("log_pow", {"alpha": a}) for a in ("1/3", "1/2", 1, 2, 3)),
    *(("geometric", {"ratio": r}) for r in ("1/2", "3/2", "2/3", 3, 0.3)),
]
# one_plus over the integer-valued named families and geometric at 1/2 and 3/2
_EXACT_BASES = ["ones()", "omega()", "big_omega()", "divisor_pow(1)", "divisor_pow(2)",
                "d_beta(3)", "geometric(1/2)", "geometric(3/2)"]
_ONE_DEFINITION = {
    **{f"{name}({','.join(map(str, params.values()))})": partial(weights.named_family, name,
                                                                  **params)
       for name, params in _NAMED},
    "gamma": lambda: weights.measure_family(weights.MeasureSpec("gamma_density", alpha=0.7)),
    "discrete": lambda: weights.measure_family(
        weights.MeasureSpec("discrete", atoms=((0.0, 0.5), (0.5, 0.25), (1.5, 0.25)))),
    "explicit": _explicit_family,
    "multiplicative(Fraction f)": _fraction_family,
    "additive(Fraction f)": partial(_fraction_family, weights.additive_from_prime_powers),
    **{f"one_plus({key.removesuffix('()')})": (lambda key: lambda: weights.named_family(
        "one_plus", base=_ONE_DEFINITION[key]()))(key) for key in _EXACT_BASES},
    "one_plus(divisor_pow(1/2))": lambda: weights.named_family(
        "one_plus", base=weights.named_family("divisor_pow", alpha="1/2")),
}


@pytest.mark.parametrize("key", list(_ONE_DEFINITION))
def test_values_table_is_the_value_column_bit_for_bit(key):
    # the table and value() evaluate one definition: the kernels and the
    # float condition routes read the same weights as the per-n routes
    fam, n = _ONE_DEFINITION[key](), 10**4
    want = np.zeros(n + 1)
    want[fam.defined_from :] = [weights._to_float(fam.value(m))
                                for m in range(fam.defined_from, n + 1)]
    assert fam.values_table(n).tobytes() == want.tobytes()
    if not fam.exact:
        return
    # the exact window, which the exact divisor sums read, is value() in type and value
    # (w_1 of geometric is the int 1, not Fraction(1, 1)) ...
    want = [0] * fam.defined_from + [fam.value(m) for m in range(fam.defined_from, n + 1)]
    assert _typed(fam.windows(_accel.PrimePowers(n), True)(0, n + 1)) == _typed(want)
    # ... and a window across WINDOW edges is the same slice of the whole range
    top = fam.last_index or 2 * _accel.WINDOW + 1
    window = fam.windows(_accel.PrimePowers(top), True)
    whole = _typed(window(0, top + 1))
    for edge in (top // 2, _accel.WINDOW, 2 * _accel.WINDOW):
        if edge + 3 <= top + 1:
            assert _typed(window(edge - 3, edge + 3)) == whole[edge - 3 : edge + 3], edge


def test_one_plus_over_a_fraction_base_rounds_twice():
    # the exception to the test above: the table is 1.0 + the base's float,
    # which differs from float(1 + w_n) at 168 of these n
    base = weights.named_family("geometric", ratio="2/3")
    fam, n = weights.named_family("one_plus", base=base), 1000
    table = fam.values_table(n)
    assert table[1:].tobytes() == (1.0 + base.values_table(n)[1:]).tobytes()
    assert sum(table[m] != float(fam.value(m)) for m in range(1, n + 1)) == 168


@pytest.mark.parametrize("fam", [
    *(weights.named_family(name, **params) for name, params in [
        ("ones", {}), ("omega", {}), ("big_omega", {}), ("divisor_pow", {"alpha": 2}),
        ("d_beta", {"beta": "3/2"}), ("d_beta", {"beta": 3})]),
    _fraction_family(),
], ids=lambda fam: fam.name)
def test_prime_power_table_is_the_per_n_value_bit_for_bit(fam):
    n = 5000
    calls = []
    f = fam._value_fn
    fam._value_fn = lambda m: calls.append(m) or f(m)
    table = fam.values_table(n)
    assert calls == []  # built from f(p, r), not from value()
    want = np.array([0.0] + [float(fam.value(m)) for m in range(1, n + 1)])
    assert table.tobytes() == want.tobytes()


@pytest.mark.parametrize("builder", [weights.multiplicative_from_prime_powers,
                                     weights.additive_from_prime_powers])
def test_prime_power_table_calls_f_once_per_prime_power(builder):
    seen = []
    fam = builder(lambda p, r: seen.append((p, r)) or r, 1.0, 0.0, (1.0, 1.0))
    fam.values_table(1000)
    assert seen == sorted(seen, key=lambda pr: pr[0] ** pr[1])
    assert sorted(p**r for p, r in seen) == [
        m for m in range(2, 1001) if len(arith.factorize(m).factors) == 1]


def test_prime_power_table_rejects_a_non_positive_value():
    fam = weights.multiplicative_from_prime_powers(
        lambda p, r: 0 if p == 7 else 1, 1.0, 0.0, (1.0, 0.0), exact=True)
    with pytest.raises(ValueError, match=r"f\(7,1\) = 0 not positive"):
        fam.values_table(100)
    with pytest.raises(ValueError, match=r"f\(7,1\) = 0 not positive"):
        fam.value(14)


def _mult(f, **declared):
    return weights.multiplicative_from_prime_powers(f, 1.0, 0.0, (1.0, 0.0), **declared)


_INT_DECLARED = {"exact": True, "integer_valued": True}


@pytest.mark.parametrize("w,run", [
    # Fraction values declared int: an all-zero nonneg_exact run and a passing prime-power
    # check at the parent, where S(2) = -1/2
    (_mult(lambda p, r: Fraction(1, 2) ** r, **_INT_DECLARED),
     lambda w: condition.check_range(w, 0.0, 1, 12)),
    (_mult(lambda p, r: Fraction(1, 2) ** r, **_INT_DECLARED),
     lambda w: condition.prime_power_check(w, 0.0, 50)),
    (weights.WeightFamily("x", "explicit", 2, 1.0, 0.0, (1.0, 0.0), lambda n: Fraction(1, n),
                          **_INT_DECLARED), lambda w: condition.check_range(w, 0.0, 2, 12)),
    # floats declared exact: nonneg_exact float sums at the parent, MethodDisagreement with two
    (_mult(lambda p, r: 1.0 + 0.1 * r, exact=True),
     lambda w: condition.check_range(w, 0.0, 1, 12, ("divisor_sum", "mult_product"))),
    # numpy integers wrap: S(4) = 3^40 - 3^20 read -6289078618139407216 at the parent
    (weights.additive_from_prime_powers(lambda p, r: np.int64(3) ** (20 * r), 1.0, 0.0,
                                        (1e30, 1.0), **_INT_DECLARED),
     lambda w: condition.check_range(w, 0.0, 2, 12)),
], ids=["fraction-as-int", "fraction-as-int-prime-powers", "explicit-fraction-as-int",
        "float-as-exact", "numpy-int"])
def test_a_value_of_another_number_type_than_declared_is_a_value_error(w, run):
    with pytest.raises(ValueError, match="as declared$") as err:
        run(w)
    assert "\n" not in str(err.value)


def test_fraction_values_declared_only_exact_keep_their_verdicts():
    w = _mult(lambda p, r: Fraction(1, 2) ** r, exact=True)
    rep = condition.check_range(w, 0.0, 1, 12)
    assert rep.verdict == condition.NEGATIVE and rep.records[1].value == Fraction(-1, 2)
    assert condition.prime_power_check(w, 0.0, 50)["first_violation"] == [2, 1, -0.5]


_PRIME_POWER_FAMILIES = [
    ("ones", {}), ("omega", {}), ("big_omega", {}), ("divisor_pow", {"alpha": 1}),
    ("divisor_pow", {"alpha": 3}), ("divisor_pow", {"alpha": "1/2"}), ("d_beta", {"beta": 2}),
    ("d_beta", {"beta": "3/2"}), ("geometric", {"ratio": "1/2"}), ("geometric", {"ratio": 3}),
    ("geometric", {"ratio": 0.7}),
]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("name,params", _PRIME_POWER_FAMILIES)
def test_prime_power_is_the_value_at_p_to_the_r_bit_for_bit(name, params, exact):
    fam = weights.named_family(name, **params)
    if not exact:
        fam.exact = False  # what --float does
    for p in _accel.primes_up_to(200).tolist():
        for r in range(9):
            got, want = fam.prime_power(p, r), fam.value(p**r)
            assert (type(got), repr(got)) == (type(want), repr(want)), (p, r)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("name,params", [*_PRIME_POWER_FAMILIES, ("d_beta", {"beta": 3}),
                                         ("geometric", {"ratio": "2/3"})])
def test_named_families_evaluate_f_once_per_exponent_bit_for_bit(name, params, exact):
    # f(p, r) of a named family depends on r alone: its value at every prime power is
    # the one at 2^r (type and repr), and the tables from one value per exponent equal
    # those from one value per prime power, as a public family with the same f builds
    fam = weights.named_family(name, **params)
    build = (weights.multiplicative_from_prime_powers if fam.kind == "multiplicative"
             else weights.additive_from_prime_powers)
    twin = build(fam.prime_power, 1.0, 0.0, (1.0, 1.0), exact=fam.exact,
                 integer_valued=fam.integer_valued)
    assert fam.r_only and not twin.r_only
    if not exact:
        fam.exact = twin.exact = False  # what --float does
    n = 5000
    _, p, r = _accel.PrimePowers(n).listing
    got = [(type(v), repr(v)) for v in map(fam.prime_power, p.tolist(), r.tolist())]
    assert got == [(type(v), repr(v)) for v in map(fam.prime_power, [2] * len(r), r.tolist())]
    assert fam.values_table(n).tobytes() == twin.values_table(n).tobytes()
    if fam.exact:
        pp = _accel.PrimePowers(n)
        assert _typed(fam.windows(pp, True)(0, n + 1)) == _typed(twin.windows(pp, True)(0, n + 1))
    method = condition.FACTORED[fam.kind][0]
    # off delta = 0 only the float lane runs, where p^(-delta) makes the factors vary with p
    for delta, lane in [(0.0, fam.exact), *((d, False) for d in (-0.3, 0.5) if not exact)]:
        with np.errstate(all="ignore"):
            want = condition._factored(twin, delta, method, _accel.PrimePowers(n), lane)
            col = condition._factored(fam, delta, method, _accel.PrimePowers(n), lane)
            assert col[1] == want[1]
            want, col = want[0](0, n + 1), col[0](0, n + 1)
        assert [(type(v), repr(v)) for v in col.tolist()] == [
            (type(v), repr(v)) for v in want.tolist()], delta


def _counting_calls(fam):
    """A list to which fam.prime_power, wrapped here, appends each call (p, r)."""
    calls, f = [], fam.prime_power
    fam.prime_power = lambda p, r: calls.append((p, r)) or f(p, r)
    return calls


@pytest.mark.parametrize("delta", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize("name,params", [*_PRIME_POWER_FAMILIES, ("d_beta", {"beta": 3})])
def test_prime_power_check_evaluates_f_once_per_exponent(name, params, delta):
    # at every delta the certificate calls a named family's f once per exponent r with
    # 2^r <= n (and once at r = 0, for w_1), in the exact lane and the float one alike,
    # and returns what it returns when it reads f at every prime power of the listing
    n = 10**5
    for exact in (True, False):
        fam = weights.named_family(name, **params)
        fam.exact = fam.exact and exact  # False is what --float does
        calls = _counting_calls(fam)
        got = condition.prime_power_check(fam, delta, n)
        assert len(calls) <= n.bit_length(), (exact, len(calls))
        fam.r_only = False
        assert condition.prime_power_check(fam, delta, n) == got, exact


@pytest.mark.parametrize("delta", [-0.3, 0.5])
@pytest.mark.parametrize("name,params", [*_PRIME_POWER_FAMILIES, ("d_beta", {"beta": 3})])
def test_float_factored_route_evaluates_f_once_per_exponent(name, params, delta):
    # off delta = 0 the float factored route reads f as the certificate does: once per
    # exponent, the factor p^(-delta (r-1)) (p^(-delta) hi - lo) then taken at every p^r
    n = 10**5
    fam = weights.named_family(name, **params)
    fam.exact = False  # what --float does
    method, k = condition.FACTORED[fam.kind]
    calls = _counting_calls(fam)
    with np.errstate(all="ignore"):
        condition.check_range(fam, delta, k, n, methods=(method,))
    assert len(calls) <= n.bit_length(), len(calls)


def test_prime_power_past_the_float_range_is_a_value_error():
    fam = weights.named_family("divisor_pow", alpha="801/2")
    for read in (lambda: fam.prime_power(2, 5), lambda: fam.value(96)):
        with pytest.raises(ValueError, match=r"f\(2,5\) of divisor_pow\(alpha=801/2\) is past"):
            read()


# -- measure-induced weights --------------------------------------------------


def test_unit_atom_at_zero_gives_constant_one():
    spec = weights.MeasureSpec("discrete", atoms=((0.0, 1.0),))
    for n in (2, 5, 100):
        assert weights.measure_induced(spec, 1, n) == pytest.approx(1.0)


def test_two_atom_closed_form():
    # 1/w = (1/2) + (1/2) n^-1, so w = 2n / (n + 1)
    spec = weights.MeasureSpec("discrete", atoms=((0.0, 0.5), (0.5, 0.5)))
    for n in (2, 7, 50):
        assert weights.measure_induced(spec, 1, n) == pytest.approx(2 * n / (n + 1))


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_gamma_density_reproduces_log_powers(alpha):
    spec = weights.MeasureSpec("gamma_density", alpha=float(alpha))
    for j in range(2, 101):
        got = weights.measure_induced(spec, 2, j)
        want = math.log(j) ** alpha
        assert abs(got - want) <= 1e-6 * want


def test_gamma_density_fractional_alpha():
    spec = weights.MeasureSpec("gamma_density", alpha=0.5)
    got = weights.measure_induced(spec, 2, 10)
    assert got == pytest.approx(math.log(10) ** 0.5, rel=1e-8)


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        weights.MeasureSpec("discrete", atoms=())
    with pytest.raises(ValueError):
        weights.MeasureSpec("discrete", atoms=((-1.0, 1.0),))
    with pytest.raises(ValueError):
        weights.MeasureSpec("discrete", atoms=((0.0, 0.0),))
    for atom in ((math.nan, 1.0), (math.inf, 1.0), (1e308, 1.0), (0.0, math.nan),
                 (0.0, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            weights.MeasureSpec("discrete", atoms=(atom,))
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma density needs"):
            weights.MeasureSpec("gamma_density", alpha=alpha)


@pytest.mark.parametrize("alpha", [1e-320, 1e-5, 44.5, 48.0, 120.0])
def test_gamma_family_is_the_closed_form_across_its_domain(alpha):
    fam = weights.measure_family(weights.MeasureSpec("gamma_density", alpha=alpha))
    table = fam.values_table(1000)
    for n in (2, 3, 10, 364, 1000):
        closed = float((np.log(np.array([n], dtype=np.float64)) ** alpha)[0])
        assert fam.value(n) == table[n] == closed


@pytest.mark.parametrize("spec,n", [
    (weights.MeasureSpec("gamma_density", alpha=400.0), 364),  # (log n)^400 overflows first here
    (weights.MeasureSpec("discrete", atoms=((155.0, 1.0),)), 10),  # 1 / 10^-310 overflows
], ids=["gamma_density-400.0", "discrete-155.0"])
def test_measure_weight_past_the_float_range_is_a_value_error(spec, n):
    fam = weights.measure_family(spec)
    assert 0 < fam.value(n - 1) < math.inf
    with pytest.raises(ValueError, match=f"^measure-induced weight at n={n} is inf; no weight"):
        fam.value(n)
    with pytest.raises(ValueError, match=f"at n={n} is inf"):
        fam.values_table(n)


def _gamma_weight_oracle(alpha, n):
    """1 / (2^alpha/Gamma(alpha) int_0^oo sigma^(alpha-1) n^(-2 sigma) dsigma)
    by mpmath.quad at 30 digits.  On [0, 1] the singular part sigma^(alpha-1)
    integrates to 1/alpha, and the quadrature takes the bounded rest."""
    with mpmath.workdps(30):
        a, c = mpmath.mpf(alpha), 2 * mpmath.log(n)
        head = mpmath.quad(lambda s: s ** (a - 1) * mpmath.expm1(-c * s), [0, 1])
        tail = mpmath.quad(lambda s: s ** (a - 1) * mpmath.exp(-c * s), [1, mpmath.inf])
        return float(mpmath.gamma(a) / (2**a * (1 / a + head + tail)))


@pytest.mark.parametrize("alpha", [1e-5, 0.5, 1.0, 2.0, 3.0, 12.0, 60.0])
def test_gamma_weights_are_the_measure_integral(alpha):
    fam = weights.measure_family(weights.MeasureSpec("gamma_density", alpha=alpha))
    for n in (2, 3, 10, 10**3, 10**6):
        assert fam.value(n) == pytest.approx(_gamma_weight_oracle(alpha, n), rel=1e-13, abs=0)


def test_measure_induced_needs_n_past_start():
    spec = weights.MeasureSpec("discrete", atoms=((0.0, 1.0),))
    with pytest.raises(ValueError):
        weights.measure_induced(spec, 3, 2)


_TABLE_SPECS = [
    *(weights.MeasureSpec("gamma_density", alpha=a) for a in (0.5, 1.0, 2.0, 3.0)),
    weights.MeasureSpec("discrete", atoms=((0.0, 0.5), (0.5, 0.5))),
]


@pytest.mark.parametrize("spec", _TABLE_SPECS, ids=lambda s: f"{s.kind}-{s.alpha}")
def test_measure_table_is_the_scalar_weights_bit_for_bit(spec):
    n = 10**4
    fam = weights.measure_family(spec)
    table = fam.values_table(n)
    want = np.array([0.0, 0.0] + [weights.measure_induced(spec, 2, m) for m in range(2, n + 1)])
    assert table.tobytes() == want.tobytes()
    assert all(table[m] == fam.value(m) for m in range(2, n + 1))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_gamma_table_matches_log_pow_closed_form(alpha):
    # log_pow is the gamma-density family: one definition, one growth bound
    n = 10**4
    gamma = weights.measure_family(weights.MeasureSpec("gamma_density", alpha=alpha))
    closed = weights.named_family("log_pow", alpha=alpha)
    assert gamma.values_table(n).tobytes() == closed.values_table(n).tobytes()
    for attr in ("growth_bound", "sigma", "delta", "kind", "start_index"):
        assert getattr(gamma, attr) == getattr(closed, attr), attr


# -- growth checks ------------------------------------------------------------


def test_multiplicative_growth_divisor_count_passes():
    rep = condition.prime_power_check(weights.named_family("divisor_pow", alpha=1), None, 2000)
    assert rep["passed"] and rep["first_violation"] is None


def test_multiplicative_growth_ones_equality_passes():
    rep = condition.prime_power_check(weights.named_family("ones"), None, 2000)
    assert rep["passed"]


def test_multiplicative_growth_small_prime_weight_fails_at_j1():
    g = weights.named_family("geometric", ratio="1/2")
    g.delta = 0.0  # declare delta 0: S(p) = w_p - w_1 = -1/2
    rep = condition.prime_power_check(g, None, 2000)
    assert not rep["passed"]
    assert rep["first_violation"] == [2, 1, -0.5]


def test_additive_growth_omega_passes():
    rep = condition.prime_power_check(weights.named_family("omega"), None, 2000)
    assert rep["passed"] and rep["delta_nonpositive"]


def test_additive_growth_big_omega_passes():
    rep = condition.prime_power_check(weights.named_family("big_omega"), None, 2000)
    assert rep["passed"]  # S(p^r) = r - (r - 1) = 1


def test_additive_growth_positive_delta_flagged():
    fam = weights.additive_from_prime_powers(
        lambda p, r: 1, sigma=1.0, delta=0.1, growth_bound=(1.1, 0.5), exact=True
    )
    rep = condition.prime_power_check(fam, None, 2000)
    assert rep["delta_nonpositive"] is False


@pytest.mark.parametrize("name,params", _PRIME_POWER_FAMILIES)
def test_growth_checks_read_prime_powers_without_factorizing(name, params, monkeypatch):
    fam = weights.named_family(name, **params)
    # prime powers p^r <= 2000 with r >= 1 (multiplicative) or r >= 2 (additive)
    rmin = 1 if fam.kind == "multiplicative" else 2
    expected = sum(1 for q in range(2, 2001)
                   if len(f := arith.factorize(q).factors) == 1 and f[0][1] >= rmin)
    calls, factorize = [], arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or factorize(n))
    assert condition.prime_power_check(fam, None, 2000)["checks"] == expected and calls == []


def test_growth_check_kind_mismatch():
    for fam in (weights.named_family("log_pow", alpha=1),
                weights.named_family("one_plus", base=weights.named_family("ones")),
                weights.family_from_config({"kind": "explicit", "values": [1, 2], "start_index": 2,
                                            "sigma": 1.0, "delta": 0.0, "growth_bound": [2, 0]})):
        with pytest.raises(ValueError, match="no prime-power check"):
            condition.prime_power_check(fam, None, 100)


# -- abscissas from the definition ----------------------------------------------


def _discrete(*atoms):
    return weights.measure_family(weights.MeasureSpec("discrete", atoms=atoms))


def _geometric(r):
    return weights.named_family("geometric", ratio=r)


@pytest.mark.parametrize("build,want", [
    *(pytest.param(partial(weights.named_family, name, **params), (1.0, 0.0),
                   id="-".join([name, *map(str, params.values())])) for name, params in [
        ("ones", {}), ("omega", {}), ("big_omega", {}),
        *(("divisor_pow", {"alpha": a}) for a in (1, "1/2", -2)),
        *(("d_beta", {"beta": b}) for b in (2, "3/2", "1/2")),
        ("log_pow", {})]),
    pytest.param(lambda: weights.measure_family(weights.MeasureSpec("gamma_density", alpha=0.7)),
                 (1.0, 0.0), id="gamma-0.7"),
    pytest.param(lambda: _discrete((0.0, 1.0), (0.5, 2.0)), (1.0, 0.0), id="discrete-at-0"),
    *(pytest.param(partial(_geometric, r), (1.0, 0.0), id=f"geometric-{r}") for r in ("1/2", 1)),
    *(pytest.param(partial(_geometric, r), (math.log2(float(Fraction(r))),) * 2,
                   id=f"geometric-{r}") for r in (3, "5/2")),
    pytest.param(lambda: _discrete((0.5, 1.0)), (2.0, 1.0), id="discrete-n"),  # w_n = n
    pytest.param(lambda: _discrete((0.5, 1.0), (0.2, 2.0)), (1.0 + 0.4, 0.4), id="discrete-two"),
    pytest.param(lambda: weights.named_family("one_plus", base=_geometric(3)),
                 (math.log2(3),) * 2, id="one_plus-geometric-3"),
    pytest.param(lambda: weights.family_from_config({
        "kind": "explicit", "values": [1, 2, 3], "start_index": 1, "sigma": 2.5, "delta": -1.0,
        "growth_bound": [3, 1]}), (2.5, -1.0), id="explicit-declared"),
    pytest.param(lambda: weights.multiplicative_from_prime_powers(
        lambda p, r: 1, 2.5, -1.0, (1.0, 0.0)), (2.5, -1.0), id="from_prime_powers-declared"),
])
def test_each_family_takes_sigma_and_delta_from_its_definition(build, want):
    # delta is delta_w: the smooth sums of w_j j^(-s) converge exactly for Re s > delta
    fam = build()
    assert (fam.sigma, fam.delta) == want


# -- config -------------------------------------------------------------------


def test_named_config_with_overrides():
    fam = weights.family_from_config({
        "kind": "named", "name": "geometric",
        "parameters": {"ratio": "1/2"},
    })
    assert fam.delta == 0.0
    assert fam.value(2) == Fraction(1, 2)


@pytest.mark.parametrize("cfg", [
    {"kind": "explicit", "values": [1, 2], "start_index": 2, "growth_bound": [2.0, 0.0]},
    {"kind": "explicit", "values": ["1", "2"], "start_index": 2, "growth_bound": [2.0, 0.0]},
    {"kind": "explicit", "values": [1.5, 2.5], "start_index": 1, "growth_bound": [3.0, 0.0]},
])
def test_config_sigma_delta_accept_rational_strings(cfg):
    fam = weights.family_from_config({**cfg, "sigma": "3/2", "delta": "1/2"})
    assert (fam.sigma, fam.delta) == (1.5, 0.5)
    for bad in ("1/0", "half"):
        with pytest.raises(ValueError, match="expected a number"):
            weights.family_from_config({**cfg, "sigma": "3/2", "delta": bad})
    for big in (10**400, "1e400"):
        with pytest.raises(ValueError, match="too large for a float"):
            weights.family_from_config({**cfg, "sigma": big, "delta": "1/2"})


def test_explicit_config():
    fam = weights.family_from_config({
        "kind": "explicit", "values": ["1", "2", "3"], "start_index": 2,
        "sigma": 1.0, "delta": 0.0, "growth_bound": [3.0, 0.0],
    })
    assert fam.value(3) == 2
    assert fam.exact
    with pytest.raises(ValueError):
        fam.value(1)
    with pytest.raises(ValueError):
        fam.value(10)


def test_measure_config():
    fam = weights.family_from_config({
        "kind": "measure",
        "spec": {"type": "discrete", "atoms": [[0.0, 1.0]]},
    })
    assert fam.value(5) == pytest.approx(1.0)
    assert fam.kind == "measure_induced"


@pytest.mark.parametrize("spec", [
    {"type": "gamma_density", "alpah": 3},
    {"type": "gamma_density", "atoms": [[0.0, 1.0]]},
    {"type": "discrete", "atoms": [[0.0, 1.0]], "alpha": 2},
])
def test_measure_config_rejects_unknown_spec_keys(spec):
    with pytest.raises(ValueError, match="unknown .* spec keys"):
        weights.family_from_config({"kind": "measure", "spec": spec})


def test_measure_config_scalars_are_config_scalars():
    fam = weights.family_from_config(
        {"kind": "measure", "spec": {"type": "gamma_density", "alpha": "1/2"}})
    assert fam.params["measure"].alpha == 0.5
    fam = weights.family_from_config(
        {"kind": "measure", "spec": {"type": "discrete", "atoms": [["1/4", "1/2"], [0, 1]]}})
    assert fam.params["measure"].atoms == ((0.25, 0.5), (0.0, 1.0))
    for spec in ({"type": "gamma_density", "alpha": True},
                 {"type": "discrete", "atoms": [[0.0, True]]},
                 {"type": "discrete", "atoms": [[None, 1.0]]},
                 {"type": "gamma_density", "alpha": "half"}):
        with pytest.raises(ValueError, match="expected a number"):
            weights.family_from_config({"kind": "measure", "spec": spec})
    for spec in ({"type": "gamma_density", "alpha": 10**400},
                 {"type": "discrete", "atoms": [[0.0, "1e400"]]}):
        with pytest.raises(ValueError, match="too large for a float"):
            weights.family_from_config({"kind": "measure", "spec": spec})
    for atoms in (5, [0.5], [[0.0, 1.0, 2.0]]):
        with pytest.raises(ValueError, match="position, mass"):
            weights.family_from_config(
                {"kind": "measure", "spec": {"type": "discrete", "atoms": atoms}})


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        weights.family_from_config({"kind": "named", "name": "ones", "bogus": 1})
    with pytest.raises(ValueError):
        weights.family_from_config({"kind": "wat"})
    # a list is no kind or type, and must not end in "unhashable type"
    with pytest.raises(ValueError, match="family kind must be one of"):
        weights.family_from_config({"kind": ["named"]})
    with pytest.raises(ValueError, match="unknown measure spec type"):
        weights.family_from_config({"kind": "measure", "spec": {"type": ["discrete"]}})


def test_one_plus_config_nested():
    fam = weights.family_from_config({
        "kind": "named", "name": "one_plus",
        "parameters": {"base": {"kind": "named", "name": "divisor_pow",
                                  "parameters": {"alpha": 1}}},
    })
    assert fam.value(12) == 7


def test_invalid_delta_exceeds_sigma():
    with pytest.raises(ValueError):
        weights.family_from_config({
            "kind": "named", "name": "ones", "delta": 2.0,
        })


def _builders(decl: dict) -> list:
    """Each public family builder that takes every key of decl, building with decl
    over a valid declaration."""
    full = {"start_index": 1, "sigma": 1.0, "delta": 0.0, "growth_bound": (1.0, 0.0), **decl}
    rest = {key: v for key, v in full.items() if key != "start_index"}
    builders = [lambda: weights.WeightFamily("x", "explicit", value_fn=float, **full)]
    if "start_index" not in decl:
        builders += [lambda: weights.multiplicative_from_prime_powers(lambda p, r: 1, **rest),
                     lambda: weights.additive_from_prime_powers(lambda p, r: 1, **rest)]
    return builders


@pytest.mark.parametrize("decl,message", [
    ({"sigma": math.nan}, "sigma: expected a finite number, got nan"),
    ({"sigma": math.inf}, "sigma: expected a finite number, got inf"),
    ({"delta": math.nan}, "delta: expected a finite number, got nan"),
    ({"delta": -math.inf}, "delta: expected a finite number, got -inf"),
    ({"delta": 2.0}, "delta: expected at most sigma = 1.0, got 2.0"),
    ({"growth_bound": (math.nan, 0.0)}, "growth_bound: expected c >= 0 and a finite tau"),
    ({"growth_bound": (-1.0, 0.0)}, "growth_bound: expected c >= 0 and a finite tau"),
    ({"growth_bound": (1.0, math.inf)}, "growth_bound: expected c >= 0 and a finite tau"),
    ({"growth_bound": (1.0, math.nan)}, "growth_bound: expected c >= 0 and a finite tau"),
    ({"start_index": 0}, "start_index: expected an integer >= 1, got 0"),
    ({"start_index": -3}, "start_index: expected an integer >= 1, got -3"),
])
def test_every_builder_checks_the_declaration(decl, message):
    for build in _builders(decl):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    # an override is checked by the same rule, and sets nothing when it fails
    fam = weights.named_family("omega")
    with pytest.raises(ValueError, match=re.escape(message)):
        fam.declare(**decl)
    assert (fam.start_index, fam.sigma, fam.delta, fam.growth_bound) == (2, 1.0, 0.0, (1.1, 0.5))


def test_an_infinite_growth_constant_declares_an_uncertified_tail(tmp_path, capsys):
    for build in _builders({"growth_bound": (math.inf, 0.0)}):
        assert build().growth_bound == (math.inf, 0.0)
    assert weights.named_family("divisor_pow", alpha=1100).growth_bound == (math.inf, 550.0)
    family = {"kind": "explicit", "values": [1, 2, 3], "start_index": 2, "sigma": 1.0,
              "delta": 0.0, "growth_bound": [math.inf, 0]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"family": family, "n_max": 4}))
    assert cli.main(["classify", "--config", str(path), "--no-timestamp", "--stdout"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["growth_bound"] == ["inf", 0.0]
