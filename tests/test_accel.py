"""The numpy kernels against literal sums written out term by term."""

import functools
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dirweight import _accel, arith, condition

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
        "spf": _accel.spf_table(n),
        "omega": _accel.omega_table(n),
        "big_omega": _accel.big_omega_table(n),
    }
    for m in range(2, n + 1):
        f = arith.factorize(m)
        primes = [p for p, _ in f]
        assert tables["mobius"][m] == arith.mobius(m)
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
    # j^(-z) is the engine's pair (z, 0): j^(-z) conj(j^0)
    assert abs(_accel.power_sum(vals, 2, [z, 0.0], [(0, 1, 5)])[0] - want) < 1e-14


B = _accel.POWER_BLOCK
ENGINE_POINTS = [1.3, 1.1 + 0.7j, 2.0 - 1.5j]


def _literal_sum(vals, start, sa, sb, n):
    """math.fsum of vals[j] j^(-s_a) conj(j^(-s_b)) over start <= j <= n,
    each power from numpy's complex power, and the sum of |terms|."""
    j = np.arange(start, n + 1, dtype=np.complex128)
    terms = vals[start : n + 1] * np.power(j, -sa) * np.conj(np.power(j, -sb))
    return complex(math.fsum(terms.real), math.fsum(terms.imag)), math.fsum(np.abs(terms))


@pytest.mark.parametrize("start", [1, 2, 5])
def test_power_sum_matches_literal_sums_across_block_edges(start):
    vals = np.random.default_rng(start).uniform(-1.0, 2.0, 3 * B + 6)
    vals[0] = 1e300  # slot 0 is never read
    pairs = [(a, b, n) for a in range(3) for b in range(3) for n in (B - 1, B, B + 1, 3 * B + 5)]
    sums, zetas = _accel.power_sum(vals, start, ENGINE_POINTS, pairs, zeta=True)
    ones = np.ones_like(vals)
    for (a, b, n), got, zeta in zip(pairs, sums, zetas):
        sa, sb = ENGINE_POINTS[a], ENGINE_POINTS[b]
        want, scale = _literal_sum(vals, start, sa, sb, n)
        assert abs(got - want) <= 1e-12 * scale, (a, b, n)
        want, scale = _literal_sum(ones, 1, sa, sb, n)
        assert abs(zeta - want) <= 1e-12 * scale, (a, b, n)
        if a == b:  # s == u: a real sum up to rounding
            assert abs(got.imag) <= 1e-12 * scale
        # an entry does not depend on the pairs that share its pass
        alone = _accel.power_sum(vals, start, ENGINE_POINTS, [(a, b, n)])
        assert alone[0].tobytes() == got.tobytes(), (a, b, n)


def test_power_sum_passes_non_finite_values_without_warnings():
    # 800: j^(-800) underflows to 0 at j >= 3, and inf * 0 is NaN
    vals = np.array([0.0, 1.0, np.inf, np.nan, 2.0])
    points, pairs = [800.0, 1.0 + 1.0j], [(0, 0, 4), (1, 1, 4), (0, 1, 4), (1, 0, 1)]
    sums, zetas = _accel.power_sum(vals, 1, points, pairs, zeta=True)
    assert not np.isfinite(sums[:3]).any() and sums[3] == 1.0
    assert np.isfinite(zetas).all()


def test_prime_power_fill_is_the_divisor_count():
    pp = _accel.PrimePowers(5000)
    w = pp.column(lambda p, r: (r + 1).astype(np.float64), np.multiply)
    assert w.dtype == np.float64  # d(n) = the product of r + 1 over p^r || n
    assert w.tolist() == [0.0, *map(float, _accel.divisor_count_table(5000)[1:])]
    # a trailing axis: each column fills as a fill of its own
    pairs = pp.column(lambda p, r: np.stack([r + 1.0, r + 0.0], axis=1), np.multiply)
    assert pairs.shape == (5001, 2)
    assert pairs[:, 0].tobytes() == w.tobytes()
    assert pairs[:, 1].tobytes() == pp.column(lambda p, r: r + 0.0, np.multiply).tobytes()


def _lookup(pp, f, dtype, r_only=False):
    """f for prime_power_fill: PrimePowers.values of f, looked up at each p^r."""
    _, _, vals, at = pp.values(f, dtype, r_only)
    return lambda p, r: vals[at(p, r)]


@pytest.mark.parametrize("n", [53**2 - 1, 53**2, 53**2 + 1])  # 53 past, at, below sqrt(n)
@pytest.mark.parametrize("f,one", [
    (lambda p, r: float(r + 1) ** 0.5, 1.0),  # divisor_pow(1/2)
    (lambda p, r: Fraction(r + 2, p + r), 1),
], ids=["float", "fraction"])
def test_prime_power_fill_is_the_literal_per_n_product_and_sum(n, f, one):
    pp = _accel.PrimePowers(n)
    dtype = np.float64 if isinstance(one, float) else object
    fq = _lookup(pp, f, dtype)
    for op, identity in ((operator.mul, one), (operator.add, one - one)):
        want = [one - one] + [functools.reduce(op, [f(*pr) for pr in arith.factorize(m)],
                                                identity) for m in range(1, n + 1)]
        got = pp.column(fq, np.multiply if op is operator.mul else np.add)
        assert got.dtype == dtype and len(got) == n + 1
        assert [(type(v), v) for v in got.tolist()] == [(type(v), v) for v in want]


def test_prime_power_fill_memory_is_the_output_and_prime_count_columns():
    # the values looked up from the listing of 78,498 primes (0.6 MiB a column), and
    # the cofactors divided out one WINDOW at a time: a few columns of 2^16 entries
    n = 10**6
    pp = _accel.PrimePowers(n)
    fq = _lookup(pp, lambda p, r: float(r + 1), np.float64)
    tracemalloc.start()
    try:
        w = pp.column(fq, np.multiply)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w.nbytes + 3.5 * 2**20, peak - w.nbytes


def test_convolve_memory_is_the_output_and_half_of_it():
    # no temporary the length of the output at j = 1 or q = 1: 7.6 MiB + 3.8 MiB (j = 2)
    n = 10**6
    a, mu = np.linspace(-1.0, 1.0, n + 1), _accel.mobius_table(n)
    tracemalloc.start()
    try:
        _accel._convolve(a, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak


def test_convolve_first_terms_keep_the_bits_of_a_sum_from_zero():
    # a[1] b[m] = -0.0 where b[m] = +0.0, and the sum from 0.0 makes it +0.0; past the
    # split, q = 1 adds a[m] b[1] = -a[m]
    n = 3000
    a = np.array([0.0, -1.0, -0.0, *np.linspace(-1.0, 1.0, n - 2)])
    b = np.array([0.0, -1.0, *([0.0, 1.0, -1.0, -0.0] * n)[: n - 1]])
    want = []
    for m in range(n + 1):  # j <= 1000 ascending, then q ascending: the kernel's order
        divisors = [j for j in range(1, m + 1) if m % j == 0]
        order = [j for j in divisors if j <= 1000] + [j for j in reversed(divisors) if j > 1000]
        total = 0.0
        for j in order:
            total += a[j] * b[m // j]
        want.append(total)
    # m = 2: the j = 1 term is -1.0 * 0.0 = -0.0, the j = 2 term -0.0 * -1.0 = +0.0
    assert [math.copysign(1.0, t) for t in (a[1] * b[2], a[2] * b[1], want[2])] == [-1, 1, 1]
    assert _accel._convolve(a, b).tobytes() == np.array(want).tobytes()


def test_sieve_readers_match_trial_division():
    # every m <= 3000, and every m within 50 of the prime sieve's segment edge
    n = _accel.SEGMENT + 50
    cols = (_accel.mobius_table(n), _accel.spf_table(n), _accel.omega_table(n),
            _accel.big_omega_table(n))
    assert [c.dtype for c in cols] == [np.int8, np.int64, np.int64, np.int64]
    assert all(len(c) == n + 1 for c in cols)
    assert [(int(c[0]), int(c[1])) for c in cols] == [(0, 1), (0, 0), (0, 0), (0, 0)]
    mu, spf, omega, big_omega = cols
    for m in [*range(2, 3001), *range(_accel.SEGMENT - 50, n + 1)]:
        f = arith.factorize(m).factors
        assert (mu[m], spf[m], omega[m], big_omega[m]) == (
            arith.mobius(m), f[0][0], len(f), sum(r for _, r in f)), m


def test_sieve_tables_keep_their_dtypes():
    dtypes = {_accel.mobius_table: np.int8, _accel.spf_table: np.int64,
              _accel.omega_table: np.int64, _accel.big_omega_table: np.int64}
    for table, dtype in dtypes.items():
        assert table(100).dtype == dtype and table(100).shape == (101,)


def test_prime_power_fill_applies_prime_powers_in_ascending_order():
    q, p, r = _accel.PrimePowers(1000).listing
    assert q.tolist() == [m for m in range(2, 1001) if len(arith.factorize(m).factors) == 1]

    class Word(str):
        """Concatenation, which does not commute, with 0 as the empty word."""

        def __radd__(self, other):
            return Word(f"{'' if other == 0 else other}{self}")

    pp = _accel.PrimePowers(1000)
    w = pp.column(_lookup(pp, lambda p, r: Word(f"{p}^{r};"), object), np.add)
    assert w[1] == 0 and w[2 * 9 * 7] == "2^1;3^2;7^1;"
    for m in range(2, 1001):
        assert w[m] == "".join(f"{p}^{r};" for p, r in arith.factorize(m).factors)


def _plain_primes(n):
    """The primes <= n from an unsegmented sieve of Eratosthenes."""
    flags = bytearray([1]) * (n + 1)
    flags[: min(2, n + 1)] = bytes(min(2, n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [m for m in range(n + 1) if flags[m]]


S = _accel.SEGMENT
# the first n whose segments past the base primes up to isqrt(n) fill exactly one
EDGE = next(n for n in range(S, 2 * S) if n - math.isqrt(n) == S)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 10, 49, 97**2, 97**2 + 1, S - 1, S, S + 1,
                               EDGE - 1, EDGE, EDGE + 1, EDGE + S, EDGE + S + 1])
def test_primes_and_prime_powers_match_a_plain_sieve(n):
    primes = _plain_primes(n)
    got = _accel.primes_up_to(n)
    assert got.dtype == np.int64 and got.tolist() == primes
    q, p, r = _accel.PrimePowers(n).listing
    assert [c.dtype for c in (q, p, r)] == [np.int64] * 3
    want = sorted((x**e, x, e) for x in primes for e in range(1, n.bit_length()) if x**e <= n)
    assert list(zip(q.tolist(), p.tolist(), r.tolist())) == want


W = _accel.WINDOW
N = _accel.SEGMENT + 100  # sqrt(N) = 512
# windows across the WINDOW and SEGMENT edges, the squares 97^2 = 9409 and
# 509^2 = 259081 of primes below sqrt(N), sqrt(N) itself, both ends, and empty ones
WINDOWS = [(0, N + 1), (0, 1), (0, 2), (1, 3), (2, 3), (9400, 9420), (W - 5, W + 5),
           (W, 2 * W), (5, W + 7), (2 * W - 1, 3 * W + 1), (505, 520), (259070, 259090),
           (_accel.SEGMENT - 7, _accel.SEGMENT + 9), (N - 10, N + 1), (77, 77), (N + 1, N + 1)]


def _fills(pp):
    """(f, op) of each kind of fill: float64 on r alone and on p (a listing
    lookup), int8 mu, Python ints on p, and the float additive route's dual
    pairs on p."""
    _, _, c, at = pp.values(lambda p, r: p**-0.5 - r, np.float64, False)
    pairs = np.stack([c, pp.values(lambda p, r: r / p, np.float64, False)[2]], axis=1)
    return {
        "float64 r-only": (_lookup(pp, lambda p, r: float(r + 1) ** 0.5, np.float64, True),
                           np.multiply),
        "float64 p": (_lookup(pp, lambda p, r: 1.0 + 1.0 / p**r, np.float64), np.multiply),
        "int8 mu": (lambda p, r: -(r == 1).astype(np.int8), np.multiply),
        "object p": (_lookup(pp, lambda p, r: p**r + r, object), np.multiply),
        "dual p": (lambda p, r: pairs[at(p, r)], condition._dual),
    }


@pytest.mark.parametrize("kind", ["float64 r-only", "float64 p", "int8 mu", "object p",
                                  "dual p"])
def test_window_fills_are_the_whole_range_slice_bit_for_bit(kind):
    pp = _accel.PrimePowers(N)
    f, op = _fills(pp)[kind]
    whole = pp.column(f, op)
    assert len(whole) == N + 1
    for lo, hi in WINDOWS:
        # from the run's base primes up to sqrt(N), and from those up to sqrt(hi - 1) alone
        for base in (pp.base, _accel.primes_up_to(math.isqrt(max(hi - 1, 0)))):
            got = _accel.prime_power_fill(lo, hi, base, f, op)
            assert got.dtype == whole.dtype and got.shape == whole[lo:hi].shape, (lo, hi)
            if got.dtype == object:
                assert [(type(v), v) for v in got.tolist()] == [
                    (type(v), v) for v in whole[lo:hi].tolist()], (lo, hi)
            else:
                assert got.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


def test_window_fill_matches_the_per_n_product_across_window_edges():
    pp = _accel.PrimePowers(N)
    w = pp.column(_lookup(pp, lambda p, r: p + r, object), np.multiply)
    for m in [*range(2, 500), *range(W - 300, W + 300), *range(N - 300, N + 1)]:
        assert w[m] == math.prod(p + r for p, r in arith.factorize(m).factors), m


def test_prime_powers_within_a_window_are_a_slice_of_the_listing():
    pp = _accel.PrimePowers(N)
    q, p, r = pp.listing
    for lo, hi in WINDOWS:
        keep = (q >= lo) & (q < hi)
        got = _accel._prime_powers(lo, hi, pp.base)
        assert [c.tolist() for c in got] == [q[keep].tolist(), p[keep].tolist(),
                                             r[keep].tolist()], (lo, hi)


def test_prime_power_pairs_index_every_prime_power():
    pp = _accel.PrimePowers(5000)
    q, p, r = pp.listing
    for r_only in (True, False):
        pairs_p, pairs_r, vals, at = pp.values(lambda p, r: r, np.int64, r_only)
        i = at(p, r)
        assert (pairs_r[i] == r).all() and (vals[i] == r).all()
        if not r_only:
            assert (pairs_p[i] == p).all()
    # 2^12 <= 5000 < 2^13
    assert pp.values(lambda p, r: r, np.int64, True)[1].tolist() == list(range(1, 13))


def test_power_sum_reads_a_column_as_the_array_bit_for_bit():
    vals = np.random.default_rng(7).uniform(-1.0, 2.0, 2 * W + 9)
    reads = []

    def window(lo, hi):
        reads.append((lo, hi))
        return vals[lo:hi].copy()

    column = _accel.Column(len(vals) - 1, window)
    assert len(column) == len(vals)
    pairs = [(a, b, n) for a in range(3) for b in range(3) for n in (B, W - 1, W, 2 * W + 8)]
    want = _accel.power_sum(vals, 2, ENGINE_POINTS, pairs, zeta=True)
    got = _accel.power_sum(column, 2, ENGINE_POINTS, pairs, zeta=True)
    assert [g.tobytes() for g in got] == [x.tobytes() for x in want]
    # one read per window, each at most WINDOW entries at a multiple of it
    assert reads == [(1, W), (W, 2 * W), (2 * W, 2 * W + 9)]
