"""The numpy kernels against literal sums written out term by term."""

import math

import numpy as np
import pytest

from dirweight import _accel, arith

EPS = np.finfo(np.float64).eps
SIZES = range(0, 61)  # every split r = isqrt(n), squares and r(r+1) alike


def _terms(a, b, m, start=1, delta=0.0):
    """The terms j^(-delta) a[j] b[m/j] of the literal divisor sum at m."""
    return [float(a[j]) * j ** (-delta) * float(b[m // j])
            for j in range(max(start, 1), m + 1) if m % j == 0]


def _tol(terms):
    # fixed before looking at any result, with u = eps / 2: the kernel's
    # recursive summation of t terms loses at most (t - 1) u sum|x|, forming
    # a term (pow, multiply) at most 2u |x| on either side, and fsum rounds
    # once, so (t + 4) u sum|x| in all; 4 (t + 1) u sum|x| leaves room for
    # the second-order terms
    return 2 * (len(terms) + 1) * EPS * sum(abs(x) for x in terms)


def _assert_matches_literal(out, a, b, n, start=1, delta=0.0, exact=True):
    assert out.dtype == np.float64 and out.shape == (n + 1,)
    assert out[0] == 0.0
    for m in range(1, n + 1):
        terms = _terms(a, b, m, start, delta)
        if exact:
            assert out[m] == sum(terms), (n, m)
        else:
            assert abs(out[m] - math.fsum(terms)) <= _tol(terms), (n, m)


def _unchanged(*arrays):
    """Snapshot the inputs; calling the result asserts nothing moved."""
    saved = [(x, x.copy()) for x in arrays]

    def check():
        for x, before in saved:
            assert x.dtype == before.dtype
            np.testing.assert_array_equal(x, before)

    return check


@pytest.mark.parametrize("n", SIZES)
def test_convolve_integer_valued_is_exact(n):
    rng = np.random.default_rng(n)
    a = rng.integers(-5, 6, n + 1).astype(np.float64)
    b = rng.integers(-5, 6, n + 1).astype(np.float64)
    check = _unchanged(a, b)
    _assert_matches_literal(_accel.dirichlet_convolve(a, b), a, b, n)
    check()


@pytest.mark.parametrize("n", SIZES)
def test_convolve_random_floats(n):
    rng = np.random.default_rng(100 + n)
    a = rng.uniform(-3.0, 3.0, n + 1)
    b = rng.uniform(-3.0, 3.0, n + 1)
    check = _unchanged(a, b)
    _assert_matches_literal(_accel.dirichlet_convolve(a, b), a, b, n, exact=False)
    check()


def test_convolve_truncates_to_shorter_input():
    a = np.arange(11, dtype=np.float64)
    b = np.ones(31)
    _assert_matches_literal(_accel.dirichlet_convolve(a, b), a, b, 10)
    _assert_matches_literal(_accel.dirichlet_convolve(b, a), b, a, 10)


# k = 0 is clamped to 1; 2 and 5 sit below sqrt(n) for most n, 9 and 30
# above it, and 61 past every n
@pytest.mark.parametrize("k", [0, 1, 2, 5, 9, 30, 61])
@pytest.mark.parametrize("delta", [0.0, 0.5, -1.0])
def test_divisor_sum_table_integer_valued(delta, k):
    for n in SIZES:
        rng = np.random.default_rng(n)
        vals = rng.integers(0, 7, n + 1).astype(np.float64)
        mu = _accel.mobius_table(n)
        assert mu.dtype == np.int8
        check = _unchanged(vals, mu)
        out = _accel.divisor_sum_table(vals, mu, delta, k)
        # j^(-delta) is an integer for delta in {0, -1}, so those sums are exact
        _assert_matches_literal(out, vals, mu, n, k, delta, exact=delta != 0.5)
        check()


@pytest.mark.parametrize("k", [1, 3, 9, 30])
@pytest.mark.parametrize("delta", [0.0, 0.5, -1.0])
def test_divisor_sum_table_random_floats(delta, k):
    for n in SIZES:
        rng = np.random.default_rng(200 + n)
        vals = rng.uniform(0.1, 3.0, n + 1)
        mu = _accel.mobius_table(n)
        check = _unchanged(vals, mu)
        out = _accel.divisor_sum_table(vals, mu, delta, k)
        _assert_matches_literal(out, vals, mu, n, k, delta, exact=False)
        check()


def test_divisor_sum_table_accepts_read_only_inputs():
    vals = np.arange(50, dtype=np.float64)
    mu = _accel.mobius_table(49)
    vals.setflags(write=False)
    mu.setflags(write=False)
    for delta in (0.0, 0.5):
        out = _accel.divisor_sum_table(vals, mu, delta, 2)
        _assert_matches_literal(out, vals, mu, 49, 2, delta, exact=delta == 0.0)


def test_divisor_count_table_matches_factorization():
    n = 2000
    d = _accel.divisor_count_table(n)
    assert d.dtype == np.int64 and d.shape == (n + 1,)
    assert d[0] == 0
    assert all(d[m] == arith.divisor_count(m) for m in range(1, n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 30, 97, 1000])
def test_sieve_tables_match_factorization(n):
    tables = {
        "mobius": _accel.mobius_table(n),
        "gpf": _accel.factor_tables(n).gpf,
        "spf": _accel.spf_table(n),
        "omega": _accel.omega_table(n),
        "big_omega": _accel.big_omega_table(n),
    }
    for m in range(2, n + 1):
        f = arith.factorize(m)
        primes = [p for p, _ in f]
        assert tables["mobius"][m] == arith.mobius(m)
        assert tables["gpf"][m] == max(primes)
        assert tables["spf"][m] == min(primes)
        assert tables["omega"][m] == len(f)
        assert tables["big_omega"][m] == sum(r for _, r in f)


def test_divisor_sum_table_brute_force():
    # independent of both lanes: literal divisor sums
    vals = np.arange(0, 101, dtype=np.float64)
    mu = _accel.mobius_table(100)
    out = _accel.divisor_sum_table(vals, mu, 0.0, 1)
    for n in range(1, 101):
        want = sum(vals[j] * int(mu[n // j]) for j in range(1, n + 1) if n % j == 0)
        assert out[n] == pytest.approx(want, abs=1e-12)


def test_power_sum_brute_force():
    vals = np.array([0.0, 1.0, 2.0, 0.5, 0.0, 3.0])
    z = 1.25 + 0.5j
    want = sum(vals[j] * j ** (-z) for j in range(2, 6))
    assert abs(_accel.power_sum(vals, 2, z) - want) < 1e-14


def test_factor_tables_match_trial_division():
    # every m <= 3000, and m within 50 of the block edges 2^16 and 2^17
    n = 2**17 + 50
    ft = _accel.factor_tables(n)
    assert [c.dtype for c in ft] == [np.int32, np.int8, np.int8, np.int8, np.int32, np.int32]
    assert all(len(c) == n + 1 for c in ft)
    assert [int(c[1]) for c in ft] == [0, 1, 0, 0, 0, 1]
    for m in [*range(2, 3001), *range(2**16 - 50, 2**16 + 51), *range(2**17 - 50, n + 1)]:
        f = arith.factorize(m).factors
        p_max, r_max = f[-1]
        assert (ft.spf[m], ft.mu[m], ft.omega[m], ft.big_omega[m], ft.gpf[m], ft.ppart[m]) == (
            f[0][0], arith.mobius(m), len(f), sum(r for _, r in f), p_max, p_max**r_max), m


def test_sieve_tables_keep_their_dtypes():
    dtypes = {_accel.mobius_table: np.int8, _accel.spf_table: np.int64,
              _accel.omega_table: np.int64, _accel.big_omega_table: np.int64}
    for table, dtype in dtypes.items():
        assert table(100).dtype == dtype and table(100).shape == (101,)


def test_prime_power_fill_applies_prime_powers_in_ascending_order():
    ft = _accel.factor_tables(1000)
    q, p, r = ft.prime_powers()
    assert q.tolist() == [m for m in range(2, 1001) if len(arith.factorize(m).factors) == 1]

    class Word(str):
        """Concatenation, which does not commute, with 0 as the empty word."""

        def __radd__(self, other):
            return Word(f"{'' if other == 0 else other}{self}")

    fq = _accel.prime_power_values(ft, lambda p, r: Word(f"{p}^{r};"), object)
    w = _accel.prime_power_fill(ft, fq, np.add)
    assert w[1] == 0 and w[2 * 9 * 7] == "2^1;3^2;7^1;"
    for m in range(2, 1001):
        assert w[m] == "".join(f"{p}^{r};" for p, r in arith.factorize(m).factors)
