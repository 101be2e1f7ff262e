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


def _fraction_family():
    # exact, not integer-valued: the fill runs on Fractions
    return weights.multiplicative_from_prime_powers(
        lambda p, r: Fraction(p + r, p + 2 * r), 1.0, 0.0, (1.0, 0.0), exact=True)


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
    assert calls == [] and fam._cache == {}  # built from f(p, r), not from value()
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
    for atom in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            weights.MeasureSpec("discrete", atoms=(atom,))
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma density needs"):
            weights.MeasureSpec("gamma_density", alpha=alpha)
    assert weights.MeasureSpec("discrete", atoms=((0.0, 1.0),)).has_zero_support
    assert not weights.MeasureSpec("discrete", atoms=((0.5, 1.0),)).has_zero_support


@pytest.mark.parametrize("alpha", [1e-320, 1e-5, 44.5, 48.0, 120.0, 400.0])
def test_gamma_family_outside_the_quadrature_range_is_rejected(alpha):
    # 48 and 120 refined without end, 1e-5 missed the target by 5e-5, and
    # Gamma(alpha) overflowed at 1e-320 and 400
    spec = weights.MeasureSpec("gamma_density", alpha=alpha)
    with pytest.raises(ValueError, match="quadrature needs"):
        weights.measure_family(spec)
    with pytest.raises(ValueError, match="quadrature needs"):
        weights.measure_induced(spec, 2, 10)


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
    assert not table.flags.writeable
    assert fam._cache == {}  # the table build skips the per-n value cache
    want = np.array([0.0, 0.0] + [weights.measure_induced(spec, 2, m) for m in range(2, n + 1)])
    assert table.tobytes() == want.tobytes()
    assert all(table[m] == fam.value(m) for m in range(2, n + 1))


def test_gamma_table_runs_the_quadrature_once(monkeypatch):
    adaptive, top_level = weights._adaptive_gl, []

    def counting(fvec, a, b, rel_tol, _depth=0):
        if _depth == 0:
            top_level.append((a, b))
        return adaptive(fvec, a, b, rel_tol, _depth)

    monkeypatch.setattr(weights, "_adaptive_gl", counting)
    weights._gamma_core.cache_clear()
    fam = weights.measure_family(weights.MeasureSpec("gamma_density", alpha=2.0))
    fam.values_table(10**4)
    fam.value(17)
    assert len(top_level) == 1
    assert weights._gamma_core.cache_info().misses == 1


def test_adaptive_quadrature_stops_at_its_panel_budget():
    class Runaway(Exception):
        pass

    calls = 0

    def nan_integrand(u):  # no panel ever converges
        nonlocal calls
        calls += 1
        if calls > 10**6:
            raise Runaway
        return np.full_like(u, np.nan)

    with pytest.raises(ValueError, match="panels"):
        weights._adaptive_gl(nan_integrand, 0.0, 1.0, 1e-12)
    assert calls == 1 + 2 * weights.QUADRATURE_PANELS  # [a, b], then two halves per panel


def _reference_adaptive_gl(fvec, a, b, rel_tol, depth=0):
    """The recursion that evaluated each split panel twice: once as a half
    of its parent, once as its own single-panel value."""
    mid = 0.5 * (a + b)
    whole = weights._gl_panel(fvec, a, b)
    refined = weights._gl_panel(fvec, a, mid) + weights._gl_panel(fvec, mid, b)
    if abs(refined - whole) <= rel_tol * max(abs(refined), 1e-300) or depth >= 40:
        return refined
    return (_reference_adaptive_gl(fvec, a, mid, rel_tol, depth + 1)
            + _reference_adaptive_gl(fvec, mid, b, rel_tol, depth + 1))


def test_adaptive_quadrature_evaluates_each_panel_once(monkeypatch):
    panel, seen = weights._gl_panel, []
    monkeypatch.setattr(weights, "_gl_panel",
                        lambda fvec, a, b: seen.append((a, b)) or panel(fvec, a, b))
    weights._gamma_core.__wrapped__(1e-4)
    assert len(seen) == len(set(seen)) > 10**4


def test_gamma_core_is_the_reference_recursion_bit_for_bit(monkeypatch):
    lo, hi = weights.GAMMA_QUADRATURE_ALPHAS
    alphas = [*np.geomspace(lo, hi, 96).tolist(), 0.5, 1.0, 2.0, 3.0]
    got = [weights._gamma_core.__wrapped__(a).hex() for a in alphas]
    monkeypatch.setattr(weights, "_adaptive_gl", _reference_adaptive_gl)
    assert got == [weights._gamma_core.__wrapped__(a).hex() for a in alphas]


@pytest.mark.parametrize("alpha", [1e-4, 0.5, 1.0, 2.0, 3.0, 7.3, 44.0])
def test_gamma_core_is_the_gamma_function(alpha):
    want = math.gamma(alpha) / 2.0**alpha
    assert weights._gamma_core(alpha) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_gamma_table_matches_log_pow_closed_form(alpha):
    # the quadrature cross-checks log_pow's w_n = (log n)^alpha
    n = 10**4
    gamma = weights.measure_family(weights.MeasureSpec("gamma_density", alpha=alpha))
    closed = weights.named_family("log_pow", alpha=alpha)
    np.testing.assert_allclose(gamma.values_table(n)[2:], closed.values_table(n)[2:],
                               rtol=1e-12, atol=0)


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


@pytest.mark.parametrize("cfg", [
    {"kind": "named", "name": "omega"},
    {"kind": "explicit", "values": ["1", "2"], "start_index": 2, "growth_bound": [2.0, 0.0]},
    {"kind": "measure", "spec": {"type": "discrete", "atoms": [[0.0, 1.0]]}},
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
