import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from dirweight import arith, series, weights


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
    assert g.delta == -1.0


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
    assert weights.audit_structure(fam, pairs=200, limit=10**4)


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


def test_values_table_cache_cannot_be_corrupted():
    fam = weights.named_family("omega")
    table = fam.values_table(10)
    with pytest.raises(ValueError):
        table[5] = 99
    assert fam.values_table(10)[5] == 1.0
    # batch-built families derived from a base still get a fresh array
    plus = weights.named_family("one_plus", base=fam)
    assert list(plus.values_table(10)[1:]) == [1.0 + fam.value(n) for n in range(1, 11)]


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
    # singular-endpoint branch of the quadrature
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
    with pytest.raises(ValueError):
        weights.MeasureSpec("gamma_density", alpha=0.0)
    assert weights.MeasureSpec("discrete", atoms=((0.0, 1.0),)).has_zero_support
    assert not weights.MeasureSpec("discrete", atoms=((0.5, 1.0),)).has_zero_support


def test_measure_induced_needs_n_past_start():
    spec = weights.MeasureSpec("discrete", atoms=((0.0, 1.0),))
    with pytest.raises(ValueError):
        weights.measure_induced(spec, 3, 2)


# -- growth checks ------------------------------------------------------------


def test_multiplicative_growth_divisor_count_passes():
    rep = weights.check_multiplicative_growth(weights.named_family("divisor_pow", alpha=1))
    assert rep.passed and rep.first_violation is None


def test_multiplicative_growth_ones_equality_passes():
    rep = weights.check_multiplicative_growth(weights.named_family("ones"))
    assert rep.passed


def test_multiplicative_growth_small_prime_weight_fails_at_j1():
    g = weights.named_family("geometric", ratio="1/2")
    g.delta = 0.0  # declare delta 0: w_1 / w_p = 2 > 1
    rep = weights.check_multiplicative_growth(g)
    assert not rep.passed
    p, j, ratio, bound, margin = rep.first_violation
    assert j == 1 and ratio == 2.0 and bound == 1.0 and margin < 0


def test_additive_growth_omega_passes():
    rep = weights.check_additive_growth(weights.named_family("omega"))
    assert rep.passed and rep.delta_nonpositive


def test_additive_growth_big_omega_passes():
    rep = weights.check_additive_growth(weights.named_family("big_omega"))
    assert rep.passed  # ratios (j-1)/j <= 1


def test_additive_growth_positive_delta_flagged():
    fam = weights.additive_from_prime_powers(
        lambda p, r: 1, sigma=1.0, delta=0.1, growth_bound=(1.1, 0.5), exact=True
    )
    rep = weights.check_additive_growth(fam)
    assert rep.delta_nonpositive is False


def test_growth_check_kind_mismatch():
    with pytest.raises(ValueError):
        weights.check_additive_growth(weights.named_family("ones"))
    with pytest.raises(ValueError):
        weights.check_multiplicative_growth(weights.named_family("omega"))


# -- smooth partial sums ------------------------------------------------------


def test_smooth_sum_omega_at_half_is_stable():
    om = weights.named_family("omega")
    diag = weights.smooth_growth_diagnostic(om, 0.5, 3, base_cutoff=512, doublings=4)
    # convergent regime: doubling the cutoff barely moves the sum
    assert diag["ratios"][-1] < 1.05


def test_smooth_sum_omega_at_zero_diverges():
    om = weights.named_family("omega")
    diag = weights.smooth_growth_diagnostic(om, 0.0, 3, base_cutoff=512, doublings=4)
    # no plateau: every doubling still adds >10%, unlike the s = 0.5 case
    assert all(r > 1.1 for r in diag["ratios"])
    assert diag["sums"] == sorted(diag["sums"])


def test_smooth_sum_ones_dominated_by_zeta():
    ones = weights.named_family("ones")
    total = weights.smooth_partial_sum(ones, 2.0, 5, 10**4)
    assert 0 < total <= series.ZETA_TABLE[2] - 1.0


def test_smooth_sum_cutoff_validation():
    with pytest.raises(ValueError):
        weights.smooth_partial_sum(weights.named_family("ones"), 2.0, 1, 1)


# -- config -------------------------------------------------------------------


def test_named_config_with_overrides():
    fam = weights.family_from_config({
        "kind": "named", "name": "geometric",
        "parameters": {"ratio": "1/2"}, "delta": 0.0,
    })
    assert fam.delta == 0.0
    assert fam.value(2) == Fraction(1, 2)


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


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        weights.family_from_config({"kind": "named", "name": "ones", "bogus": 1})
    with pytest.raises(ValueError):
        weights.family_from_config({"kind": "wat"})


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
