"""Sieve and summation kernels, vectorized with numpy.

All tables are 1-indexed: an array of length ``n + 1`` whose slot 0 is
unused.  Every Dirichlet convolution (d(n), d_beta, the divisor sums
S(n)) goes through one kernel, ``_convolve``, which splits the pairs
(j, q) with jq <= n at max(sqrt(n), 1000) (the Dirichlet hyperbola
method): the O(n log n) multiply-adds run inside numpy in O(sqrt n + 1000)
Python iterations.  Its exact counterpart in Python ints and Fractions,
``exact_convolve``, serves exact series products and exact divisor sums
past the int64 lane.
Every arithmetic table comes from one engine, ``prime_power_fill``, over
the prime powers of ``prime_powers``, whose primes come from a segmented
sieve, ``primes_up_to``: the multiplicative and additive weight tables,
the S columns of the factored routes, mu, omega and Omega.  Only the
smallest prime factor is a short sieve of its own.  Every kernel
partial sum goes through one blocked engine, ``power_sum``.
"""

from __future__ import annotations

import math

import numpy as np

#: primes_up_to sieves 2..n in segments of this many integers
SEGMENT = 1 << 18


def primes_up_to(n: int) -> np.ndarray:
    """The primes <= n, ascending (int64): a segmented sieve of Eratosthenes
    (Crandall and Pomerance, *Prime Numbers*, 3.2).  Each segment past the
    base primes up to sqrt(n), which come from the same sieve, crosses off
    their multiples from max(p^2, lo): O(sqrt n + SEGMENT) memory."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    root = math.isqrt(n)
    base = primes_up_to(root)
    parts, seg = [base], np.empty(SEGMENT, dtype=bool)
    for lo in range(root + 1, n + 1, SEGMENT):
        hi = min(lo + SEGMENT, n + 1)
        block = seg[: hi - lo]
        block[:] = True
        for p in base.tolist():
            if p * p >= hi:
                break
            block[max(p * p, -(-lo // p) * p) - lo :: p] = False
        parts.append(np.flatnonzero(block) + lo)
    return np.concatenate(parts)


def prime_powers(n: int):
    """(q, p, r): every prime power q = p^r <= n with its prime and
    exponent, ascending in q (int64), from primes_up_to(n)."""
    primes = primes_up_to(n)
    qs, ps, rs = [primes], [primes], [np.ones(len(primes), dtype=np.int64)]
    p = q = primes[: np.searchsorted(primes, math.isqrt(n), side="right")]
    while len(q):
        q = q * p
        keep = q <= n
        p, q = p[keep], q[keep]
        qs.append(q)
        ps.append(p)
        rs.append(np.full(len(q), len(rs) + 1, dtype=np.int64))
    q = np.concatenate(qs)
    order = np.argsort(q)
    return q[order], np.concatenate(ps)[order], np.concatenate(rs)[order]


def map_prime_powers(p: np.ndarray, r: np.ndarray, f, dtype):
    """f(p, r) at each pair (p[i], r[i]) as a dtype array, called on Python
    ints once per pair, in order and in chunks that keep the Python objects
    few."""
    out = np.empty(len(p), dtype=dtype)
    for i in range(0, len(p), 1 << 12):
        part = slice(i, i + (1 << 12))
        out[part] = np.fromiter(map(f, p[part].tolist(), r[part].tolist()), dtype,
                                len(out[part]))
    return out


def prime_power_fill(n: int, q: np.ndarray, p: np.ndarray, fq: np.ndarray, op) -> np.ndarray:
    """w[0] = 0, w[1] = the identity of op and
    w[m] = op(...op(op(identity, f(p_1^r_1)), f(p_2^r_2))..., f(p_k^r_k))
    for m = p_1^r_1 ... p_k^r_k, p_1 < ... < p_k, in fq's dtype, from
    fq[i] = f(q[i]) at the prime powers q = p^r <= n, ascending as
    prime_powers(n) lists them.  op is a ufunc with an identity (np.multiply,
    np.add, np.logical_and) or a function op(x, y, out=None) with an
    ``identity`` attribute; trailing axes of fq are trailing axes of w, and
    op acts on them whole.

    A prime p <= sqrt(n) applies f(p^r), r ascending, to the multiples of
    p^r that p^(r+1) does not divide (two strided views); only these
    O(sqrt n) prime powers are reordered, by p.  The primes P > sqrt(n),
    already ascending in the list, come last, applied to P k for each
    k < P at once.  So the prime powers of m apply in ascending prime
    order, as a per-m loop over its factorization does, and float and
    Python-object results equal that loop's bit for bit."""
    w = np.full((n + 1, *fq.shape[1:]), op.identity, dtype=fq.dtype)
    w[:1] = 0
    root = math.isqrt(n)
    small = np.flatnonzero(p <= root)
    small = small[np.argsort(p[small], kind="stable")]  # (p, r) ascending
    fsmall = fq[small]
    for i, (pq, pp) in enumerate(zip(q[small].tolist(), p[small].tolist())):
        f = fsmall[i : i + 1]  # a slice: numpy would convert a lone value to a scalar of its own
        rows = n // pq // pp  # rows of pp consecutive multiples of pq; pq pp divides the last
        for view in (w[: rows * pp * pq].reshape(rows, pp * pq, *w.shape[1:])[:, pq::pq],
                     w[(rows * pp + 1) * pq :: pq]):
            op(view, f, out=view)
    big = p > root
    big, fbig = p[big], fq[big]
    for k in range(1, n // (root + 1) + 1):
        idx = big[: np.searchsorted(big, n // k, side="right")] * k
        w[idx] = op(w[idx], fbig[: len(idx)])
    return w


def prime_power_column(n: int, f, op) -> np.ndarray:
    """prime_power_fill(n, ...) of f(p, r), a numpy expression evaluated
    once on the arrays p and r of prime_powers(n)."""
    q, p, r = prime_powers(n)
    return prime_power_fill(n, q, p, f(p, r), op)


# The single-column readers: each is one prime-power column or, for spf, a
# short sieve.  Only mu has a caller in the package; the benchmark traces
# all of them as sieve layers.


def mobius_table(n: int) -> np.ndarray:
    """Mobius function values mu(1..n) as int8, 1-indexed: -1 at each prime,
    0 at each higher prime power, multiplied."""
    return prime_power_column(n, lambda p, r: -(r == 1).astype(np.int8), np.multiply)


def spf_table(n: int) -> np.ndarray:
    """Smallest prime factor of 2..n (0 at indices 0 and 1) as int64: each
    prime p <= sqrt(n), descending, writes p from p^2 on, so the least
    prime factor of a composite writes last and a prime keeps itself."""
    spf = np.arange(n + 1, dtype=np.int64)
    spf[1:2] = 0
    for p in primes_up_to(math.isqrt(n))[::-1].tolist():
        spf[p * p :: p] = p
    return spf


def omega_table(n: int) -> np.ndarray:
    """Number of distinct prime factors of 0..n as int64: 1 per prime power, added."""
    return prime_power_column(n, lambda p, r: np.ones(len(r), np.int8), np.add).astype(np.int64)


def big_omega_table(n: int) -> np.ndarray:
    """Number of prime factors with multiplicity of 0..n as int64: r per p^r, added."""
    return prime_power_column(n, lambda p, r: r.astype(np.int8), np.add).astype(np.int64)


def _convolve(a: np.ndarray, b: np.ndarray, start: int = 1) -> np.ndarray:
    """c[m] = sum over j * q = m with j >= start of a[j] * b[q], as float64.

    Dirichlet hyperbola split at r = min(n, max(isqrt(n), 1000)): pairs
    with j <= r are added one j at a time, the rest one q at a time, so
    every pair is visited once in O(sqrt n + 1000) slice updates.  Up to
    n = 10^6 (the kernels' truncation cap) each c[m] sums its terms in one
    order, j <= 1000 ascending and then q ascending, so a shorter table is
    a prefix of a longer one bit for bit.  Neither input is copied or cast.
    """
    n = min(len(a), len(b)) - 1
    c = np.zeros(n + 1, dtype=np.float64)
    if n < 1:
        return c
    r = min(n, max(math.isqrt(n), 1000))
    if start <= 1:  # c[m] = 0.0 + a[1] b[m] in place: no temporary the length of c
        np.add(0.0, np.multiply(a[1], b[1 : n + 1], out=c[1:]), out=c[1:])
    for j in range(max(start, 2), r + 1):
        c[j::j] += a[j] * b[1 : n // j + 1]
    lo = max(r + 1, start)
    for m in range(lo, n + 1, 1 << 16):  # q = 1 in chunks, for the same reason
        c[m : m + (1 << 16)] += a[m : m + (1 << 16)] * b[1]
    for q in range(2, n // lo + 1):
        hi = n // q
        c[lo * q : hi * q + 1 : q] += a[lo : hi + 1] * b[q]
    return c


def exact_convolve(a, b) -> list:
    """_convolve in Python ints and Fractions, on 1-indexed sequences: terms
    in ascending j, those with a zero factor skipped (an empty sum is 0)."""
    n = min(len(a), len(b)) - 1
    c = [0] * (n + 1)
    for j in range(1, n + 1):
        aj = a[j]
        if aj:
            for q in range(1, n // j + 1):
                bq = b[q]
                if bq:
                    c[j * q] += aj * bq
    return c


def divisor_count_table(n: int) -> np.ndarray:
    """Number of divisors d(0..n) as int64 (d(0) = 0)."""
    ones = np.ones(n + 1)
    return _convolve(ones, ones).astype(np.int64)


def dirichlet_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float Dirichlet convolution of two 1-indexed coefficient tables."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return _convolve(a, b)


def divisor_sum_table(
    vals: np.ndarray, mu: np.ndarray, delta: float = 0.0, k: int = 1
) -> np.ndarray:
    """out[n] = sum over divisors j of n with j >= k of j^(-delta) vals[j] mu[n/j]."""
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    if delta != 0.0:
        scaled = np.zeros_like(vals)
        scaled[1:] = vals[1:] * np.arange(1, len(vals), dtype=np.float64) ** (-float(delta))
        vals = scaled
    return _convolve(vals, mu, int(k))


#: power_sum walks j in blocks [kB, (k + 1) B) at absolute multiples of B
POWER_BLOCK = 1 << 14


def power_sum(vals: np.ndarray, start: int, points, pairs, zeta: bool = False):
    """For each pair (a, b, n): the sum over start <= j <= n of
    vals[j] j^(-s_a) conj(j^(-s_b)), that is vals[j] j^(-z) at
    z = s_a + conj(s_b), with s = points, as a complex128 array.  With
    ``zeta`` it returns (sums, zetas), zetas[i] the same sum over
    1 <= j <= n without vals.

    j runs in blocks at absolute multiples of POWER_BLOCK.  A block makes
    one log column and one column j^(-s) per point that a live pair uses
    (a real exp when Im s = 0), and one BLAS dot (np.vdot) per live pair
    over its slice; block partials add in ascending order.  So an entry's
    value depends on (vals, start, s_a, s_b, n) alone, not on the pairs
    that share the pass, and the columns take about m B 32 bytes for m
    points.  Non-finite values propagate without a RuntimeWarning."""
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    start = max(int(start), 1)
    points = [complex(p) for p in points]
    pairs = [(int(a), int(b), min(int(n), len(vals) - 1)) for a, b, n in pairs]
    sums = np.zeros(len(pairs), dtype=np.complex128)
    zetas = np.zeros(len(pairs), dtype=np.complex128)
    top = max((n for *_, n in pairs), default=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, top + 1, POWER_BLOCK):
            first, hi = max(lo, 1), min(lo + POWER_BLOCK, top + 1)
            begin = max(start, first) - first  # the slice of vals[first:hi] a sum reads
            live = [(i, a, b, n + 1 - first) for i, (a, b, n) in enumerate(pairs)
                    if n >= first and (zeta or n >= begin + first)]
            if not live:
                continue
            logs = np.log(np.arange(first, hi, dtype=np.float64))
            cols, weighted = {}, {}
            for p in {p for _, a, b, _ in live for p in (a, b)}:
                s = points[p]
                cols[p] = np.exp(-s.real * logs) if s.imag == 0 else np.exp(-s * logs)
            for i, a, b, end in live:
                if end > begin:
                    if a not in weighted:
                        weighted[a] = vals[first:hi] * cols[a]
                    sums[i] += np.vdot(cols[b][begin:end], weighted[a][begin:end])
                if zeta:
                    zetas[i] += np.vdot(cols[b][:end], cols[a][:end])
    return (sums, zetas) if zeta else sums
