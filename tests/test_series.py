import math
from fractions import Fraction
from random import Random

import mpmath
import pytest

from dirweight import _accel, arith, series


def brute_convolve(a, b):
    """Literal double-loop Dirichlet product, the oracle for convolve()."""
    n = min(len(a), len(b))
    out = []
    for j in range(1, n + 1):
        out.append(sum(a[m - 1] * b[j // m - 1] for m in range(1, j + 1) if j % m == 0))
    return out


def random_exact_series(n, rng):
    return series.from_coeffs([rng.randint(-9, 9) for _ in range(n)], series.EXACT)


# -- convolution --------------------------------------------------------------


def test_ones_convolved_with_ones_is_divisor_count():
    n = 200
    z = series.zeta_coeffs(n)
    got = series.convolve(z, z)
    assert list(got.coeffs) == brute_convolve(z.coeffs, z.coeffs)
    assert all(got.a(j) == arith.divisor_count(j) for j in range(1, n + 1))


def test_ones_convolved_with_mobius_is_identity():
    n = 300
    got = series.convolve(series.zeta_coeffs(n), series.inverse_zeta_coeffs(n))
    assert got.coeffs == (1,) + (0,) * (n - 1)


def test_omega_series_expansion():
    # coefficients of zeta * (sum over primes p^-s) are omega(j)
    n = 400
    primes = set(int(p) for p in _accel.primes_up_to(n))
    prime_indicator = series.from_coeffs(
        [1 if j in primes else 0 for j in range(1, n + 1)], series.EXACT
    )
    got = series.convolve(series.zeta_coeffs(n), prime_indicator)
    assert all(got.a(j) == arith.omega(j) for j in range(1, n + 1))


def test_exact_convolve_is_the_literal_product():
    rng = Random(7)
    a = [0, *(rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
              for _ in range(80))]
    b = [0, *(rng.randint(-2, 2) for _ in range(70))]  # the shorter one truncates
    got = _accel.exact_convolve(a, b)
    assert len(got) == len(b)
    assert got[1:] == brute_convolve(a[1:], b[1:])


def test_convolve_mode_mismatch():
    f = series.zeta_coeffs(4, series.EXACT)
    g = series.zeta_coeffs(4, series.FLOAT)
    with pytest.raises(ValueError):
        series.convolve(f, g)


def test_convolve_truncates_to_shorter():
    f = series.zeta_coeffs(10)
    g = series.zeta_coeffs(4)
    assert series.convolve(f, g).n == 4


def test_float_convolve_matches_exact():
    rng = Random(4)
    a = [rng.randint(-5, 5) for _ in range(150)]
    b = [rng.randint(-5, 5) for _ in range(150)]
    exact = series.convolve(series.from_coeffs(a), series.from_coeffs(b))
    fl = series.convolve(
        series.from_coeffs([float(x) for x in a], series.FLOAT),
        series.from_coeffs([float(x) for x in b], series.FLOAT),
    )
    assert [float(c) for c in exact.coeffs] == pytest.approx(list(fl.coeffs))


def test_convolution_commutative_and_associative():
    rng = Random(9)
    n = 200
    f, g, h = (random_exact_series(n, rng) for _ in range(3))
    fg = series.convolve(f, g)
    assert fg.coeffs == series.convolve(g, f).coeffs
    assert (
        series.convolve(fg, h).coeffs == series.convolve(f, series.convolve(g, h)).coeffs
    )


def test_mobius_inversion_roundtrip():
    rng = Random(10)
    n = 500
    f = random_exact_series(n, rng)
    back = series.convolve(
        series.convolve(f, series.zeta_coeffs(n)), series.inverse_zeta_coeffs(n)
    )
    assert back.coeffs == f.coeffs


# -- power --------------------------------------------------------------------


def test_power_examples():
    z = series.zeta_coeffs(100)
    sq = series.power(z, 2)
    assert all(sq.a(j) == arith.divisor_count(j) for j in range(1, 101))
    assert series.power(z, 1).coeffs == z.coeffs
    # ordered triples (a, b, c) with abc = 4: three orderings of (1, 1, 4)
    # and three of (1, 2, 2)
    assert series.power(z, 3).a(4) == 6


# -- evaluation ---------------------------------------------------------------


def test_evaluate_all_ones_against_zeta():
    n = 10**4
    f = series.zeta_coeffs(n, series.FLOAT)
    ev = series.evaluate(f, 2.0, (1.0, 0.0))
    assert ev.certified
    assert abs(ev.value.real - series.ZETA_TABLE[2]) <= ev.tail_bound
    assert abs(ev.value.real - math.pi**2 / 6) <= ev.tail_bound


def test_evaluate_zero_series():
    f = series.from_coeffs([0.0] * 10, series.FLOAT)
    ev = series.evaluate(f, 2.0, (0.0, 0.0))
    assert ev.value == 0
    assert ev.tail_bound == 0.0


def test_evaluate_mobius_series_reciprocal_zeta():
    n = 10**4
    f = series.inverse_zeta_coeffs(n, series.FLOAT)
    ev = series.evaluate(f, 2.0, (1.0, 0.0))
    assert abs(ev.value.real - 6 / math.pi**2) <= ev.tail_bound


@pytest.mark.parametrize("build", [series.zeta_coeffs, series.inverse_zeta_coeffs])
def test_an_unknown_arithmetic_mode_is_rejected(build):
    # inverse_zeta_coeffs once read any mode but "exact" as "float"
    with pytest.raises(ValueError, match="unknown arithmetic mode 'double'"):
        build(10, "double")


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_tail_bound_sound_against_zeta_oracle(sigma):
    n = 2000
    f = series.zeta_coeffs(n, series.FLOAT)
    ev = series.evaluate(f, sigma, (1.0, 0.0))
    true_value = float(mpmath.zeta(sigma))
    true_tail = true_value - ev.value.real
    assert 0 < true_tail <= ev.tail_bound


def test_evaluate_no_certificate_below_threshold():
    f = series.zeta_coeffs(100, series.FLOAT)
    ev = series.evaluate(f, 0.9, (1.0, 0.0))
    assert not ev.certified
    assert math.isinf(ev.tail_bound)


def test_evaluate_rejects_negative_growth_constant():
    with pytest.raises(ValueError):
        series.evaluate(series.zeta_coeffs(10), 2.0, (-1.0, 0.0))


def test_tail_bound_monotone_in_truncation():
    tails = [series.power_tail_bound(2.0, 0.5, 2.5, n) for n in (10, 100, 1000, 10**5)]
    assert tails == sorted(tails, reverse=True)


def test_zeta_table_cross_check():
    for k, v in series.ZETA_TABLE.items():
        assert abs(v - float(mpmath.zeta(k))) < 1e-14


# -- serialization ------------------------------------------------------------


def test_exact_roundtrip_through_json():
    f = series.from_coeffs([1, Fraction(-3, 7), 0, Fraction(22, 5)], series.EXACT)
    back = series.FormalDirichletSeries.from_json_dict(f.to_json_dict())
    assert back.coeffs == f.coeffs
    assert back.mode == series.EXACT


def test_float_roundtrip_through_json():
    f = series.from_coeffs([1.5, -0.25, 3.0], series.FLOAT)
    back = series.FormalDirichletSeries.from_json_dict(f.to_json_dict())
    assert back.coeffs == f.coeffs


@pytest.mark.parametrize("coeffs", [["1/0"], ["x"], [True]])
def test_exact_json_rejects_malformed_coefficients(coeffs):
    with pytest.raises(ValueError):
        series.FormalDirichletSeries.from_json_dict({"mode": series.EXACT, "coeffs": coeffs})


def test_exact_mode_rejects_floats():
    with pytest.raises(ValueError):
        series.from_coeffs([1.5], series.EXACT)
