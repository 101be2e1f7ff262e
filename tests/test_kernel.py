import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dirweight import _accel, arith, condition, kernel, series, weights


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


def test_ratio_kernel_with_a_denominator_inside_its_tail_is_inconclusive():
    # at Re(s + conj(u)) = 1.01 the zeta partial sum to the 10^6-term cap lies
    # within its own tail bound, so the quotient has no value
    omega = weights.named_family("omega")
    ev = kernel.condition_kernel_ratio(omega, 0.505, 0.505)
    assert math.isnan(ev.value.real) and ev.tail_bound == math.inf
    assert ev.n_terms == kernel.TRUNCATION_CAP
    assert kernel.gram_psd(omega, points=[0.505], kernel="ratio").verdict == kernel.INCONCLUSIVE


def test_ratio_kernel_hermitian(fams):
    a = kernel.condition_kernel_ratio(fams["d"], 1.9 + 0.3j, 1.7 - 0.1j, tol=1e-6)
    b = kernel.condition_kernel_ratio(fams["d"], 1.7 - 0.1j, 1.9 + 0.3j, tol=1e-6)
    assert a.value == pytest.approx(b.value.conjugate(), abs=1e-12)


def test_series_kernel_coefficients_divisor_count(fams):
    # for w = d (start 1) the condition values are 1 at every n
    coeffs = kernel._route(fams["d"], 0.0, "series").table(200)
    assert np.allclose(coeffs[1:], 1.0)


def test_series_kernel_coefficients_omega_prime_indicator(fams):
    coeffs = kernel._route(fams["omega"], 0.0, "series").table(200)[:]
    primes = set(int(p) for p in _accel.primes_up_to(200))
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
        "parameters": {"ratio": "1/2"},
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


# omega_wide's entries end in many power_sum blocks: up to 2.9*10^5 terms
# (weight), 9.9*10^5 (ratio) and the 10^6 cap (series)
WIDE_POINTS = [1.6, 1.8 + 0.3j, 2.2 - 0.5j]


@pytest.mark.parametrize("route,name", [
    (r, n) for r in ("weight", "ratio", "series")
    for n in ("ones", "d", "omega", "log1", "omega_wide")])
def test_eval_kernel_is_the_gram_entry_bit_for_bit(fams, route, name):
    fam, pts, tol = fams[name.removesuffix("_wide")], [2.1, 2.4 + 0.3j, 2.8 - 0.5j], 1e-8
    if name.endswith("_wide"):
        pts = WIDE_POINTS
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
    if name.endswith("_wide"):  # and end in at least 3 distinct blocks
        assert len({n // _accel.POWER_BLOCK for n in n_terms}) >= 3


_D3 = {"kind": "named", "name": "d_beta", "parameters": {"beta": 3}}
_FAMILY_FLAGS = [
    ({"kind": "named", "name": "log_pow", "parameters": {"alpha": 2}},
     ["eval-kernel", "--kernel", "weight", "--s", "1.6+0.3j", "--u", "1.6-0.7j"]),
    ({"kind": "named", "name": "omega"},
     ["eval-kernel", "--kernel", "series", "--s", "1.6+0.3j", "--u", "1.6-0.7j"]),
    (_D3, ["eval-kernel", "--kernel", "ratio", "--s", "1.6+0.3j", "--u", "1.6-0.7j"]),
    (_D3, ["gram", "--kernel", "series"]),
    (_D3, ["gram", "--kernel", "ratio"]),
    (_D3, ["gram", "--kernel", "ratio", "--n-points", "64"]),
]


def test_kernel_reports_do_not_depend_on_the_cpu_count(tmp_path):
    # OpenBLAS splits a dot of more than 10^4 entries across threads, and the
    # bits of such a sum follow the thread count.  Every dot power_sum takes
    # spans at most one block, and a block divides a window, so no block
    # straddles two reads of a streamed table.
    assert _accel.WINDOW % _accel.POWER_BLOCK == 0 and _accel.POWER_BLOCK <= 10_000
    src = str(Path(kernel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cpus = os.sched_getaffinity(0)
    for i, (family, argv) in enumerate(_FAMILY_FLAGS):
        cfg = tmp_path / f"{i}.json"
        cfg.write_text(json.dumps({"family": family}))
        args = [sys.executable, "-m", "dirweight", *argv, "--config", str(cfg),
                "--stdout", "--no-timestamp"]
        runs = []
        # one child on one CPU, as perfbench/run.py launches it, and one on every CPU
        for pinned in ({sorted(cpus)[i % len(cpus)]}, cpus):
            os.sched_setaffinity(0, pinned)  # inherited by the child
            try:
                runs.append(subprocess.Popen(args, env=env, stdout=subprocess.PIPE,
                                             stderr=subprocess.DEVNULL, text=True))
            finally:
                os.sched_setaffinity(0, cpus)
        one, every = (proc.communicate(timeout=60)[0] for proc in runs)
        assert [proc.returncode for proc in runs] == [0, 0], argv
        assert json.loads(one)["result"] and one == every, argv


def test_series_route_memory_is_bounded_by_the_block():
    # the 10^6-term table (8 MB) and its build, then one entry: the exact
    # additive column is built from the prime powers alone (no factor tables,
    # weight table or convolution), and the power sums hold a few columns of
    # POWER_BLOCK terms, not arrays of 10^6
    route = kernel._route(weights.named_family("omega"), None, "series")
    tracemalloc.start()
    try:
        table = route.table(kernel.TRUNCATION_CAP)
        [(value, tail)] = route.entries(table, [1.6 + 0.3j, 1.6 - 0.2j],
                                        [(0, 1, kernel.TRUNCATION_CAP)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(tail) and abs(value) > 0
    assert peak < 12e6, peak


@pytest.mark.parametrize("route", kernel.ROUTES)
def test_streamed_gram_memory_is_the_window_not_the_table(route):
    # every entry at Re(s + conj(u)) = 2.6 needs the 10^6-term cap, whose whole table
    # takes 8 MB: a streamed table holds one window of 2^16 entries while it is
    # filled (2.6 MB at the peak here, with the power sums' block columns), and its
    # peak does not grow with n
    w = weights.named_family("d_beta", beta=3)
    tracemalloc.start()
    try:
        check = kernel.gram_psd(w, points=[1.3, 1.3 + 0.2j], kernel=route, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.n_terms_max == kernel.TRUNCATION_CAP
    assert peak < 4e6, peak


def test_streamed_series_memory_for_values_on_p_is_the_listing_not_the_table():
    # an exact family whose values depend on p: the exact lane's bound is the max of its
    # size fill, taken one window at a time, so the run holds the listing of the 78,734
    # prime powers and their Python values (6.6 MB at the peak here), not a whole 8 MB
    # column of sizes besides them (13.9 MB)
    w = weights.multiplicative_from_prime_powers(
        lambda p, r: r + 1 + (p % 4 == 1), 1.0, 0.0, (4.0, 1.0), exact=True,
        integer_valued=True)
    tracemalloc.start()
    try:
        check = kernel.gram_psd(w, points=[1.3, 1.3 + 0.2j], kernel="series", tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.n_terms_max == kernel.TRUNCATION_CAP
    assert peak < 8e6, peak


@pytest.mark.parametrize("route", kernel.ROUTES)
@pytest.mark.parametrize("family", [
    weights.named_family("omega"), weights.named_family("d_beta", beta=3),
    weights.named_family("divisor_pow", alpha="1/2"),
    weights.multiplicative_from_prime_powers(lambda p, r: 1.0 + r / p, 1.0, 0.0, (2.0, 1.0))],
    ids=["omega", "d_beta(3)", "divisor_pow(1/2)", "p-dependent"])
def test_gram_sieves_the_base_primes_once(family, route, monkeypatch):
    # one table per Gram check: its base primes are sieved once, and the prime powers
    # are listed once for a family whose values depend on p, never for the named ones
    sieves, listings = [], []
    primes_up_to, listing = _accel.primes_up_to, _accel.PrimePowers.listing.func
    monkeypatch.setattr(_accel, "primes_up_to", lambda n: sieves.append(n) or primes_up_to(n))
    monkeypatch.setattr(_accel.PrimePowers.listing, "func",
                        lambda pp: listings.append(pp.n) or listing(pp))
    check = kernel.gram_psd(family, kernel=route, n_points=3, tol=1e-6)
    assert sieves == [math.isqrt(check.n_terms_max)]
    assert listings == ([] if family.r_only else [check.n_terms_max])


def test_gram_with_non_finite_entries_is_inconclusive(fams):
    # at the parent, np.linalg.eigvalsh raised "Eigenvalues did not converge"
    big = weights.named_family("divisor_pow", alpha=400)  # d(n)^400 is inf past d(n) = 6
    for route in kernel.ROUTES:
        # the tables overflow and convolve inf with 0, as the CLI lets them
        with np.errstate(over="ignore", invalid="ignore"):
            check = kernel.gram_psd(big, kernel=route, n_points=3)
        assert not np.isfinite(check.matrix).all()
        assert check.verdict == kernel.INCONCLUSIVE and math.isnan(check.min_eigenvalue)


@pytest.mark.parametrize("name,params,delta", [
    ("log_pow", {"alpha": 1}, None), ("divisor_pow", {"alpha": 1}, 0.3), ("omega", {}, 0.25)])
def test_float_series_tables_are_prefix_consistent(name, params, delta):
    route = kernel._route(weights.named_family(name, **params), delta, "series")
    full = route.table(2 * 10**5)
    for m in (1, 2, 64, 999, 1000, 1001, 4097, 65537, 10**5, 2 * 10**5 - 1):
        assert route.table(m).tobytes() == full[: m + 1].tobytes(), m


@pytest.mark.parametrize("name,params,delta", [
    ("log_pow", {"alpha": 1}, 0.3), ("d_beta", {"beta": "3/2"}, 0.5),
    ("omega", {}, None), ("divisor_pow", {"alpha": 1}, None)])
def test_series_table_is_the_check_range_divisor_sum_column(name, params, delta):
    # one S(n) column: float runs bit for bit, the exact int64 lane by value
    w = weights.named_family(name, **params)
    rep = condition.check_range(w, delta, None, 5000)
    got, want = kernel._route(w, delta, "series").table(5000)[rep.k:], rep.columns["value"]
    assert rep.mode == ("float" if delta else "exact")
    if rep.mode == "float":
        assert got.tobytes() == want.tobytes()
    else:
        assert want.dtype == np.int64 and got.tolist() == want.tolist()


_SEGMENT_EDGE = next(n for n in range(_accel.SEGMENT, 2 * _accel.SEGMENT)
                     if n - math.isqrt(n) == _accel.SEGMENT)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 10**4, _SEGMENT_EDGE - 1, _SEGMENT_EDGE + 1])
def test_exact_series_table_is_the_divisor_sum_column_bit_for_bit(n, monkeypatch):
    # integer-valued families at delta = 0 take the factored column, built with no
    # weight table and no convolution; the float divisor sums are exact there
    families = [weights.named_family(name, **params) for name, params in [
        ("ones", {}), ("omega", {}), ("big_omega", {}), ("divisor_pow", {"alpha": 1}),
        ("divisor_pow", {"alpha": 3}), ("d_beta", {"beta": 2}), ("d_beta", {"beta": 3})]]
    want = [condition.s_columns(w, 0.0, w.start_index, n)[0] for w in families]

    def no_divisor_sums(*args):
        raise AssertionError("the exact lane read the weight table or convolved")

    monkeypatch.setattr(_accel, "divisor_sum_table", no_divisor_sums)
    monkeypatch.setattr(weights.WeightFamily, "values_table", no_divisor_sums)
    for w, col in zip(families, want):
        got = kernel._route(w, 0.0, "series").table(n)[:]
        assert got.dtype == np.float64 and got.tobytes() == col.tobytes(), w.name


@pytest.mark.parametrize("w", [
    weights.named_family("divisor_pow", alpha=40),  # d(j)^40 from 2^40 on
    weights.additive_from_prime_powers(lambda p, r: 2**60 + r, 1.0, 0.0, (2.0**62, 0.0),
                                       exact=True, integer_valued=True)], ids=["mult", "add"])
def test_series_table_past_the_exact_bound_keeps_the_divisor_sums(w, monkeypatch):
    # the float divisor sums round here: the factored column is not taken
    want = condition.s_columns(w, 0.0, w.start_index, 3000)[0]
    # both are past 2^53 at a power of 2, so past the exact factors' bound: one mu table
    calls, mobius_table = [], _accel.mobius_table
    monkeypatch.setattr(_accel, "mobius_table",
                        lambda n, pp=None: calls.append(n) or mobius_table(n, pp))
    assert kernel._route(w, 0.0, "series").table(3000).tobytes() == want.tobytes()
    assert calls == [3000]


def test_exact_series_table_keeps_the_divisor_sums_positive_zero():
    # S(2) = 0 and S(9) = f(3, 2) - f(3, 1) = -2: the float product S(18) is -0.0, the
    # divisor sum +0.0
    w = weights.multiplicative_from_prime_powers(
        lambda p, r: 1 if p == 2 or r > 1 else 3, 1.0, 0.0, (3.0, 1.0), exact=True,
        integer_valued=True)
    got = kernel._route(w, 0.0, "series").table(100)[:]
    assert got[18] == 0.0 and math.copysign(1.0, got[18]) == 1.0
    assert got.tobytes() == condition.s_columns(w, 0.0, 1, 100)[0].tobytes()


@pytest.mark.parametrize("name,params", [
    ("omega", {}), ("divisor_pow", {"alpha": 1}), ("d_beta", {"beta": "3/2"}),
    ("geometric", {"ratio": "1/2"}), ("log_pow", {"alpha": 1})])
def test_series_table_builds_the_factor_tables_once(name, params, monkeypatch):
    # the exact prime-power columns (omega, divisor_pow(1)) read the prime powers only;
    # the divisor sums build mu once
    calls, mobius_table = [], _accel.mobius_table
    monkeypatch.setattr(_accel, "mobius_table",
                        lambda n, pp=None: calls.append(n) or mobius_table(n, pp))
    for fam in (weights.named_family(name, **params),
                weights.named_family("one_plus", base=weights.named_family(name, **params))):
        calls.clear()
        kernel._route(fam, None, "series").table(5000)
        assert calls == ([] if fam.integer_valued and fam.kind != "explicit" else [5000])


def test_series_table_past_the_exact_bound_off_the_powers_of_2_builds_the_factor_tables_once(
        monkeypatch):
    # (r + 1)^8 + r^8 < 2^53 at every 2^r, but the bound's product of sizes 257^7 at
    # 2 3 5 7 11 13 17 = 510510 is past it: the exact factors, then the divisor sums
    # with one mu table
    calls, mobius_table = [], _accel.mobius_table
    monkeypatch.setattr(_accel, "mobius_table",
                        lambda n, pp=None: calls.append(n) or mobius_table(n, pp))
    w = weights.named_family("divisor_pow", alpha=8)
    kernel._route(w, None, "series").table(600_000)
    assert calls == [600_000]


@pytest.mark.parametrize("name", ["omega", "big_omega"])
def test_additive_series_coefficients_meet_the_prime_power_tail(name):
    # S(p^r) = w_(p^r) - w_(p^(r-1)) and S = 0 elsewhere: |S(n)| <= 2c n^tau
    w = weights.named_family(name)
    route = kernel._route(w, None, "series")
    assert (route.c, route.tau) == (2.0 * w.growth_bound[0], w.growth_bound[1])
    table = route.table(10**5)
    n = np.arange(1, 10**5 + 1, dtype=np.float64)
    assert (np.abs(table[1:]) <= route.c * n**route.tau).all()


def test_omega_series_meets_its_tolerance_below_the_cap():
    # the benchmark's abscissa: the prime-power tail needs 59,123 terms, not the cap
    w = weights.named_family("omega")
    s, u, tol = 1.6 + 0.3j, 1.6 - 0.2j, 1e-8
    ev = kernel.condition_kernel_series(w, None, s, u, tol)
    assert ev.n_terms < kernel.TRUNCATION_CAP and ev.tail_bound <= tol
    z = s + u.conjugate()
    with mpmath.workdps(30):
        want = complex(mpmath.primezeta(mpmath.mpc(z.real, z.imag)))
    assert abs(ev.value - want) <= ev.tail_bound


def test_additive_series_off_delta_zero_keeps_the_divisor_count_tail():
    # delta != 0, and every other kind at delta = 0: d(n) <= 2 sqrt(n)
    for name, params, delta in (("omega", {}, -0.3), ("divisor_pow", {"alpha": 1}, 0.0)):
        w = weights.named_family(name, **params)
        c, tau = w.growth_bound
        route = kernel._route(w, delta, "series")
        assert (route.c, route.tau) == (2.0 * c, tau - delta + 0.5)


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
