import json
import math

import mpmath
import numpy as np
import pytest

from dirweight import _accel, arith, kernel, series, weights


@pytest.fixture(scope="module")
def fams():
    return {
        "ones": weights.named_family("ones"),
        "d": weights.named_family("divisor_pow", alpha=1),
        "omega": weights.named_family("omega"),
        "log1": weights.named_family("log_pow", alpha=1),
    }


# -- weight kernel ------------------------------------------------------------


def test_weight_kernel_ones_diagonal_is_zeta2_minus_one(fams):
    ev = kernel.weight_kernel(fams["ones"], 1.0, 1.0, tol=1e-6)
    assert ev.certified and ev.tail_bound <= 1e-6
    assert ev.n_terms <= kernel.TRUNCATION_CAP
    assert abs(ev.value.real - (series.ZETA_TABLE[2] - 1.0)) <= ev.tail_bound
    assert ev.value.imag == 0.0


def test_weight_kernel_outside_domain_raises(fams):
    with pytest.raises(ValueError):
        kernel.weight_kernel(fams["ones"], 0.4, 0.4)


def test_weight_kernel_hermitian_symmetry(fams):
    for fam in fams.values():
        a = kernel.weight_kernel(fam, 1.3 + 0.4j, 1.6 - 0.2j, tol=1e-4)
        b = kernel.weight_kernel(fam, 1.6 - 0.2j, 1.3 + 0.4j, tol=1e-4)
        assert a.value == pytest.approx(b.value.conjugate(), abs=1e-12)


def test_weight_kernel_diagonal_positive(fams):
    for fam in fams.values():
        for re in (1.1, 1.5, 2.5):
            ev = kernel.weight_kernel(fam, re, re, tol=1e-3)
            assert ev.value.real > 0


def test_weight_kernel_tail_certificate_against_oracle(fams):
    # ones: the truncated remainder is exactly zeta(s) - 1 - partial
    ev = kernel.weight_kernel(fams["ones"], 1.25, 1.25, tol=1e-5)
    true = float(mpmath.zeta(2.5)) - 1.0
    assert abs(ev.value.real - true) <= ev.tail_bound


# -- normalized kernel routes -------------------------------------------------


def test_ratio_kernel_constant_one_for_ones(fams):
    # start index 1: numerator and denominator are the same partial sum
    for s, u in [(1.3, 1.1), (1.8 + 0.5j, 1.2 - 0.3j)]:
        ev = kernel.condition_kernel_ratio(fams["ones"], s, u, tol=1e-8)
        assert ev.value == pytest.approx(1.0, abs=1e-12)


def test_ratio_kernel_outside_beta_raises(fams):
    with pytest.raises(ValueError):
        kernel.condition_kernel_ratio(fams["ones"], 0.45, 1.5)


def test_ratio_kernel_hermitian(fams):
    a = kernel.condition_kernel_ratio(fams["d"], 1.9 + 0.3j, 1.7 - 0.1j, tol=1e-6)
    b = kernel.condition_kernel_ratio(fams["d"], 1.7 - 0.1j, 1.9 + 0.3j, tol=1e-6)
    assert a.value == pytest.approx(b.value.conjugate(), abs=1e-12)


def test_series_kernel_coefficients_divisor_count(fams):
    # for w = d (start 1) the condition values are 1 at every n
    coeffs = kernel._route(fams["d"], 0.0, "series").table(200)
    assert np.allclose(coeffs[1:], 1.0)


def test_series_kernel_coefficients_omega_prime_indicator(fams):
    coeffs = kernel._route(fams["omega"], 0.0, "series").table(200)
    primes = set(int(p) for p in arith.primes_up_to(200))
    for n in range(1, 201):
        assert coeffs[n] == pytest.approx(1.0 if n in primes else 0.0, abs=1e-12)


def test_series_kernel_coefficients_ones_from_two_is_minus_mobius():
    # restricting the constant weight to start at 2 flips the sign of mu
    ones_from_two = weights.family_from_config({
        "kind": "explicit", "values": ["1"] * 200, "start_index": 2,
        "sigma": 1.0, "delta": 0.0, "growth_bound": [1.0, 0.0],
    })
    coeffs = kernel._route(ones_from_two, 0.0, "series").table(200)
    mu = arith.mobius_sieve(200)
    assert coeffs[1] == 0.0
    for n in range(2, 201):
        assert coeffs[n] == pytest.approx(-float(mu[n]), abs=1e-12)


@pytest.mark.parametrize("name", ["ones", "d", "omega", "log1"])
def test_route_agreement(fams, name):
    fam = fams[name]
    pts = [1.6, 1.8, 2.2, 1.7 + 0.4j, 2.0 - 0.6j]
    checked = 0
    for s in pts:
        for u in pts:
            r = kernel.condition_kernel_ratio(fam, s, u, tol=1e-8)
            sr = kernel.condition_kernel_series(fam, None, s, u, tol=1e-8)
            assert r.certified and sr.certified
            assert abs(r.value - sr.value) <= r.tail_bound + sr.tail_bound
            checked += 1
    assert checked == 25


@pytest.mark.parametrize("delta", [0.3, -0.5])
def test_route_agreement_with_delta_override(fams, delta):
    # sensitivity-study path: both routes honor a caller-supplied delta
    fam = fams["d"]
    for s, u in [(1.6, 1.7), (1.9 + 0.3j, 1.8 - 0.2j)]:
        r = kernel.condition_kernel_ratio(fam, s, u, delta=delta, tol=1e-7)
        sr = kernel.condition_kernel_series(fam, delta, s, u, tol=1e-7)
        assert r.certified and sr.certified
        assert abs(r.value - sr.value) <= r.tail_bound + sr.tail_bound


def test_terms_for_tail_tiny_gap_does_not_overflow():
    n = series.terms_for_tail(1.0, 0.0, 1.0 + 1e-12, 1e-10)
    assert n == 10**18


def test_series_kernel_is_weight_kernel_of_zeta_for_d(fams):
    # condition coefficients of d are all ones from n = 1, so the series
    # route reproduces the full zeta partial sum
    s, u = 1.8, 1.6
    ev = kernel.condition_kernel_series(fams["d"], None, s, u, tol=1e-8)
    true = float(mpmath.zeta(s + u))
    assert abs(ev.value.real - true) <= ev.tail_bound


# -- gram checks --------------------------------------------------------------


def test_gram_default_grid_d_is_psd(fams):
    check = kernel.gram_psd(fams["d"], kernel="series", tol=1e-10, n_points=8)
    assert check.verdict == kernel.PSD_TOL
    assert check.min_eigenvalue >= -(1e-10 + check.budget)
    assert len(check.points) == 8


def test_gram_hermitian_by_construction(fams):
    check = kernel.gram_psd(fams["omega"], kernel="series", tol=1e-8, n_points=6)
    g = check.matrix
    assert np.max(np.abs(g - g.conj().T)) <= 1e-14


def test_gram_spec_grid_eigenvalue_inequality(fams):
    # fixed grid on Re 1.1..1.6: tails cannot certify there, so the verdict
    # is inconclusive, but the eigenvalue inequality still holds
    pts = [1.1, 1.2, 1.3, 1.4, 1.5, 1.6]
    check = kernel.gram_psd(fams["d"], points=pts, kernel="series", tol=1e-10)
    assert check.min_eigenvalue >= -(1e-10 + check.budget)
    assert check.verdict == kernel.INCONCLUSIVE


@pytest.mark.parametrize("route", kernel.ROUTES)
def test_gram_diagonal_is_written_once_as_a_real_value(fams, route):
    check = kernel.gram_psd(fams["omega"], kernel=route, tol=1e-8, n_points=4)
    diag = [complex(check.matrix[i, i]) for i in range(4)]
    assert all(math.copysign(1.0, v.imag) == 1.0 and v.imag == 0.0 for v in diag)
    assert all(json.dumps(row[i][1]) == "0.0" for i, row in enumerate(
        check.to_json_dict()["matrix"]))
    # eigvalsh reads the lower triangle and the real diagonal: the sign of a
    # zero imaginary part cannot move an eigenvalue
    flipped = check.matrix.copy()
    flipped[np.diag_indices(4)] = [complex(v.real, -0.0) for v in diag]
    assert np.linalg.eigvalsh(flipped).tobytes() == np.linalg.eigvalsh(check.matrix).tobytes()
    assert check.min_eigenvalue == np.linalg.eigvalsh(check.matrix)[0]


def test_gram_ones_ratio_constant_matrix(fams):
    check = kernel.gram_psd(fams["ones"], kernel="ratio", tol=1e-10, n_points=6)
    assert check.verdict == kernel.PSD_TOL
    assert check.min_eigenvalue >= -1e-12
    # rank one: all entries equal to 1
    assert np.allclose(check.matrix, 1.0, atol=1e-10)


def test_gram_single_point(fams):
    check = kernel.gram_psd(fams["d"], points=[2.6], kernel="weight", tol=1e-6)
    assert check.matrix.shape == (1, 1)
    assert check.matrix[0, 0].real > 0
    assert check.verdict == kernel.PSD_TOL


def test_gram_weight_kernel_structurally_psd():
    # any positive weights give a PSD weighted kernel; the explicit list
    # must cover the solved truncation (64-term floor at this tolerance)
    rng = np.random.default_rng(8)
    vals = rng.uniform(0.5, 2.0, 64)
    fam = weights.family_from_config({
        "kind": "explicit", "values": [float(v) for v in vals], "start_index": 2,
        "sigma": 1.0, "delta": 0.0, "growth_bound": [2.0, 0.0],
    })
    check = kernel.gram_psd(fam, points=[2.0, 2.2, 2.6, 3.0], kernel="weight", tol=0.05)
    assert check.verdict == kernel.PSD_TOL
    assert check.min_eigenvalue >= -(0.05 + check.budget)


def test_gram_negative_control_reports(fams):
    # the crafted violating family: condition values go negative; the gram
    # run must still complete and report honestly (indefiniteness on a
    # finite grid is evidence, not a promise)
    geom = weights.family_from_config({
        "kind": "named", "name": "geometric",
        "parameters": {"ratio": "1/2"}, "delta": 0.0,
    })
    check = kernel.gram_psd(geom, kernel="series", tol=1e-10, n_points=6)
    assert check.verdict in (kernel.PSD_TOL, kernel.INDEFINITE, kernel.INCONCLUSIVE)
    assert math.isfinite(check.min_eigenvalue)


def test_gram_point_validation(fams):
    with pytest.raises(ValueError):
        kernel.gram_psd(fams["d"], points=[0.2, 1.5], kernel="series")
    with pytest.raises(ValueError):
        kernel.gram_psd(fams["d"], points=[], kernel="series")
    with pytest.raises(ValueError):
        kernel.gram_psd(fams["d"], kernel="bogus")


def test_gram_json_roundtrip(fams):
    check = kernel.gram_psd(fams["d"], kernel="series", tol=1e-8, n_points=4)
    d = check.to_json_dict()
    json.dumps(d)
    assert d["verdict"] == check.verdict
    assert len(d["matrix"]) == 4 and len(d["matrix"][0]) == 4
    assert d["matrix"][0][0][0] == pytest.approx(check.matrix[0, 0].real)


# -- shared route -------------------------------------------------------------


def _hex(v):
    return (v.real.hex(), v.imag.hex())


EVALUATORS = {
    "weight": lambda fam, s, u, tol: kernel.weight_kernel(fam, s, u, tol=tol),
    "ratio": lambda fam, s, u, tol: kernel.condition_kernel_ratio(fam, s, u, tol=tol),
    "series": lambda fam, s, u, tol: kernel.condition_kernel_series(fam, None, s, u, tol=tol),
}


@pytest.mark.parametrize("route,name", [
    (r, n) for r in ("weight", "ratio", "series") for n in ("ones", "d", "omega", "log1")])
def test_eval_kernel_is_the_gram_entry_bit_for_bit(fams, route, name):
    fam, pts, tol = fams[name], [2.1, 2.4 + 0.3j, 2.8 - 0.5j], 1e-8
    check = kernel.gram_psd(fam, points=pts, kernel=route, tol=tol)
    n_terms = set()
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            ev = EVALUATORS[route](fam, pts[i], pts[j], tol / (10 * len(pts)))
            # the upper triangle holds the values, the diagonal their real parts
            want = ev.value if i < j else complex(ev.value.real, 0.0)
            assert _hex(want) == _hex(complex(check.matrix[i, j]))
            assert ev.tail_bound <= check.truncation_bound
            n_terms.add(ev.n_terms)
    # entries sum different prefixes of the one Gram table
    assert len(n_terms) > 1 and max(n_terms) == check.n_terms_max


@pytest.mark.parametrize("name,params,delta", [
    ("log_pow", {"alpha": 1}, None), ("divisor_pow", {"alpha": 1}, 0.3), ("omega", {}, 0.25)])
def test_float_series_tables_are_prefix_consistent(name, params, delta):
    route = kernel._route(weights.named_family(name, **params), delta, "series")
    full = route.table(2 * 10**5)
    for m in (1, 2, 64, 999, 1000, 1001, 4097, 65537, 10**5, 2 * 10**5 - 1):
        assert route.table(m).tobytes() == full[: m + 1].tobytes(), m


@pytest.mark.parametrize("name,params", [
    ("omega", {}), ("divisor_pow", {"alpha": 1}), ("d_beta", {"beta": "3/2"}),
    ("geometric", {"ratio": "1/2"}), ("log_pow", {"alpha": 1})])
def test_series_table_builds_the_factor_tables_once(name, params, monkeypatch):
    calls, factor_tables = [], _accel.factor_tables
    monkeypatch.setattr(_accel, "factor_tables", lambda n: calls.append(n) or factor_tables(n))
    for fam in (weights.named_family(name, **params),
                weights.named_family("one_plus", base=weights.named_family(name, **params))):
        calls.clear()
        kernel._route(fam, None, "series").table(5000)
        assert calls == [5000]


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_kernel_tolerance_must_be_finite_and_positive(fams, tol):
    for evaluate in EVALUATORS.values():
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            evaluate(fams["d"], 2.0, 2.0, tol)
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        kernel.gram_psd(fams["d"], points=[2.0], kernel="weight", tol=tol)


# -- helpers ------------------------------------------------------------------


def test_half_plane_point_validation():
    kernel.HalfPlanePoint(1.2 + 5j, 1.0)
    with pytest.raises(ValueError):
        kernel.HalfPlanePoint(0.9, 1.0)


def test_beta_abscissa(fams):
    assert kernel.beta_abscissa(fams["ones"]) == 0.5
    assert kernel.beta_abscissa(fams["d"], delta=-1.0) == 1.0


def test_monotone_truncation_tail(fams):
    tails = [
        series.power_tail_bound(*fams["d"].growth_bound, 3.0, n)
        for n in (100, 1000, 10**4, 10**6)
    ]
    assert tails == sorted(tails, reverse=True)
