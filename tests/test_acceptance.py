"""Acceptance suite.

Each test pins one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them inline).  These are the exit
criteria of the build; tolerances are fixed here, not calibrated.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dirweight import _accel, arith, cli, condition, kernel, series, weights


def _report(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def fams():
    return {
        "ones": weights.named_family("ones"),
        "d": weights.named_family("divisor_pow", alpha=1),
        "d2": weights.named_family("divisor_pow", alpha=2),
        "db2": weights.named_family("d_beta", beta=2),
        "db3": weights.named_family("d_beta", beta=3),
        "omega": weights.named_family("omega"),
        "big_omega": weights.named_family("big_omega"),
    }


def test_criterion_01_mobius_inversion_identity():
    start = time.perf_counter()
    n_max = 10**5
    mu = arith.mobius_sieve(n_max).astype(np.int64)
    sums = np.zeros(n_max + 1, dtype=np.int64)
    for j in range(1, n_max + 1):
        sums[j::j] += mu[j]
    elapsed = time.perf_counter() - start
    ok = (
        sums[1] == 1
        and not np.any(sums[2:])
        and elapsed < 5.0
    )
    _report(1, ok, f"sum of mu over divisors is [n=1] for n <= 1e5 ({elapsed:.2f} s)")


def test_criterion_02_divisor_count_convolution_is_one(fams):
    rep = condition.check_range(fams["d"], 0.0, 1, 10**4)
    ok = (
        rep.mode == "exact"
        and all(r.value == 1 for r in rep.records)
        and rep.verdict == condition.NONNEG_EXACT
    )
    _report(2, ok, "divisor-count convolution equals 1 exactly for all n <= 1e4")


def test_criterion_03_omega_condition_is_prime_indicator(fams):
    rep = condition.check_range(fams["omega"], 0.0, 2, 10**4)
    primes = set(int(p) for p in _accel.primes_up_to(10**4))
    ok = rep.mode == "exact" and all(
        r.value == (1 if r.n in primes else 0) for r in rep.records
    )
    _report(3, ok, "omega condition values equal the prime indicator for n <= 1e4")


def test_criterion_04_method_cross_agreement(fams):
    ok = True
    for name in ("ones", "d", "d2", "db2", "db3"):
        rep = condition.check_range(
            fams[name], 0.0, 1, 10**4, methods=("divisor_sum", "mult_product")
        )
        ok = ok and rep.mode == "exact" and rep.agreement_failures == 0
    for name in ("omega", "big_omega"):
        rep = condition.check_range(
            fams[name], 0.0, 2, 10**4, methods=("divisor_sum", "additive_Tt")
        )
        ok = ok and rep.mode == "exact" and rep.agreement_failures == 0
    _report(4, ok, "factored and per-term routes equal the divisor sum exactly, "
                   "5 multiplicative + 2 additive families, n <= 1e4")


def test_criterion_05_per_term_nonnegativity(fams):
    ok = True
    for name in ("omega", "big_omega"):
        fam = fams[name]
        growth = condition.prime_power_check(fam, None, 10**4)
        ok = ok and growth["passed"] and growth["delta_nonpositive"]
        for n in range(2, 10**4 + 1):
            _, terms = condition.additive_Tt(fam, 0.0, n)
            if not all(t >= 0 for t in terms):
                ok = False
                break
    _report(5, ok, "every per-prime term is >= 0 for omega and big_omega, n <= 1e4")


def test_criterion_06_von_mangoldt_nonnegativity():
    ok = True
    for alpha in (1, 2, 3):
        for n in range(2, 10**4 + 1):
            if condition.von_mangoldt_alpha(n, alpha) < -1e-12:
                ok = False
                break
    for n, factors in arith.factorizations_up_to(10**4):
        if len(factors) == 1:
            p, _ = factors[0]
            if abs(condition.von_mangoldt_alpha(n, 1) - math.log(p)) > 1e-12:
                ok = False
                break
    _report(6, ok, "generalized von Mangoldt >= -1e-12 (alpha in 1..3) and "
                   "log p on prime powers within 1e-12, n <= 1e4")


def test_criterion_07_quadrature_identity():
    start = time.perf_counter()
    ok = True
    for alpha in (1, 2, 3):
        spec = weights.MeasureSpec("gamma_density", alpha=float(alpha))
        for j in range(2, 101):
            got = weights.measure_induced(spec, 2, j)
            want = math.log(j) ** alpha
            if abs(got - want) > 1e-6 * want:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(7, ok, f"gamma-density measure weights reproduce log powers to 1e-6 "
                   f"({elapsed:.2f} s)")


def test_criterion_08_kernel_value_at_one(fams):
    ev = kernel.weight_kernel(fams["ones"], 1.0, 1.0, tol=1e-6)
    want = series.ZETA_TABLE[2] - 1.0
    ok = (
        ev.certified
        and ev.tail_bound <= 1e-6
        and ev.n_terms <= 10**6
        and abs(ev.value.real - want) <= ev.tail_bound
    )
    _report(8, ok, f"weight kernel at Re(s)=1 matches zeta(2)-1 within tail "
                   f"{ev.tail_bound:.1e} at N={ev.n_terms}")


def test_criterion_09_route_agreement(fams):
    ss = [1.4, 1.55, 1.7, 1.9, 2.1]
    us = [1.35, 1.6 + 0.4j, 1.8 - 0.25j, 2.0 + 0.1j]
    ok = True
    for name in ("ones", "d", "omega"):
        fam = fams[name]
        count = 0
        for s in ss:
            for u in us:
                r = kernel.condition_kernel_ratio(fam, s, u, tol=1e-8)
                sr = kernel.condition_kernel_series(fam, 0.0, s, u, tol=1e-8)
                if not (r.certified and sr.certified
                        and abs(r.value - sr.value) <= r.tail_bound + sr.tail_bound):
                    ok = False
                count += 1
        ok = ok and count == 20
    _report(9, ok, "quotient and series kernel routes agree within combined "
                   "certified bounds at 20 points for ones, d, omega")


def test_criterion_10_gram_psd_witness(fams):
    check = kernel.gram_psd(fams["d"], delta=0.0, kernel="series",
                            tol=1e-10, n_points=8)
    ok = (
        check.verdict == kernel.PSD_TOL
        and check.min_eigenvalue >= -(1e-10 + check.budget)
        and len(check.points) == 8
    )
    _report(10, ok, f"8-point Gram for the divisor-count family is PSD "
                    f"(min eig {check.min_eigenvalue:+.1e}, budget {check.budget:.1e})")


def test_criterion_11_negative_control(tmp_path):
    geom = weights.family_from_config({
        "kind": "named", "name": "geometric",
        "parameters": {"ratio": "1/2"},
    })
    growth = condition.prime_power_check(geom, None, 100)
    rep = condition.check_range(geom, None, 1, 100)
    bad = [r for r in rep.records if r.verdict == condition.NEGATIVE]

    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "named", "name": "geometric",
                    "parameters": {"ratio": "1/2"}},
        "n_max": 100,
    }))
    code = cli.main(["check-condition", "--config", str(cfg),
                     "--out", str(tmp_path / "neg_report")])
    ok = (
        not growth["passed"]
        and growth["first_violation"][:2] == [2, 1]  # S(2) = w_2 - w_1 < 0
        and rep.mode == "exact"
        and bad
        and min(r.n for r in bad) <= 100
        and code == 2
    )
    _report(11, ok, f"halved prime weights certify a violation at n = "
                    f"{min((r.n for r in bad), default=-1)} and the CLI exits 2")


def test_criterion_12_one_plus_composition(fams):
    one_plus = weights.named_family("one_plus", base=fams["d"])
    rep_plus = condition.check_range(one_plus, 0.0, 1, 10**4)
    rep_base = condition.check_range(fams["d"], 0.0, 1, 10**4)
    base_vals = {r.n: r.value for r in rep_base.records}
    ok = rep_plus.mode == "exact"
    for r in rep_plus.records:
        if r.value < 0:
            ok = False
        if r.n >= 2 and r.value != base_vals[r.n]:
            ok = False
    _report(12, ok, "adding a constant to the divisor-count weights leaves the "
                    "condition values unchanged for n >= 2 and nonnegative, n <= 1e4")
