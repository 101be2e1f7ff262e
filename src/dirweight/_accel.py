"""Sieve and summation kernels, vectorized with numpy.

All tables are 1-indexed: an array of length ``n + 1`` whose slot 0 is
unused.  Every Dirichlet convolution (d(n), d_beta, the divisor sums
S(n)) goes through one kernel, ``_convolve``, which splits the pairs
(j, q) with jq <= n at max(sqrt(n), 1000) (the Dirichlet hyperbola
method): the O(n log n) multiply-adds run inside numpy in O(sqrt n + 1000)
Python iterations.  Its exact counterpart in Python ints and Fractions,
``exact_convolve``, serves exact series products and exact divisor sums
past the int64 lane.
Every arithmetic table is a window [lo, hi) of one engine,
``prime_power_fill``, equal to the same slice of the whole-range fill bit
for bit.  A run shares one ``PrimePowers``: the base primes up to sqrt(n)
from one segmented sieve, and ``values``, the one evaluator of a column's
prime-power function.  The kernels stream their tables as ``Column``s,
and every kernel partial sum goes through one blocked engine,
``power_sum``.  Only the smallest prime factor is a short sieve of its own.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

#: sieve segments, power_sum blocks (a window's divisors below OpenBLAS's 10^4-entry
#: threading threshold), and windows of streamed tables and of the fill's
#: cofactors, each at absolute multiples of its length
SEGMENT, POWER_BLOCK, WINDOW = 1 << 18, 1 << 13, 1 << 16


def _primes(lo: int, hi: int, base: np.ndarray | None = None) -> np.ndarray:
    """The primes in [lo, hi), ascending (int64), by a segmented sieve of
    Eratosthenes (Crandall and Pomerance, *Prime Numbers*, 3.2): the base
    primes up to sqrt(hi - 1), by default from the same sieve, cross off
    their multiples from max(p^2, lo), one SEGMENT at a time."""
    if base is None:
        base = _primes(0, math.isqrt(hi - 1) + 1) if hi > 4 else np.zeros(0, np.int64)
    parts = [np.zeros(0, np.int64)]
    for s in range(lo, hi, SEGMENT):
        flags = np.ones(min(SEGMENT, hi - s), dtype=bool)
        flags[: max(2 - s, 0)] = False
        for p in base.tolist():
            if p * p >= s + len(flags):
                break
            flags[max(p * p, -(-s // p) * p) - s :: p] = False
        parts.append(np.flatnonzero(flags) + s)
    return np.concatenate(parts)


def primes_up_to(n: int) -> np.ndarray:
    """The primes <= n (_primes), in O(sqrt n + SEGMENT) memory besides them."""
    return _primes(0, n + 1)


def _prime_powers(lo: int, hi: int, base: np.ndarray):
    """(q, p, r): every prime power lo <= q = p^r < hi with its prime and
    exponent, ascending in q (int64): the primes of [lo, hi) and the higher
    powers of the base primes up to sqrt(hi - 1)."""
    primes = _primes(lo, hi, base)
    qs, ps, rs = [primes], [primes], [np.ones(len(primes), dtype=np.int64)]
    p = q = base[base * base < hi]
    while len(q):
        q = q * p
        p, q = p[q < hi], q[q < hi]  # p^r < hi holds for a prefix of the primes
        qs.append(q[q >= lo])
        ps.append(p[q >= lo])
        rs.append(np.full(len(qs[-1]), len(rs) + 1, dtype=np.int64))
    q = np.concatenate(qs)
    order = np.argsort(q)
    return q[order], np.concatenate(ps)[order], np.concatenate(rs)[order]


def prime_power_fill(lo: int, hi: int, base: np.ndarray, f, op) -> np.ndarray:
    """w[m - lo] for lo <= m < hi: 0 at m = 0 and, at m = p_1^r_1 ... p_k^r_k
    with p_1 < ... < p_k, op(...op(identity, f(p_1, r_1))..., f(p_k, r_k)).
    f maps arrays of primes and exponents, which broadcast, to values of one
    dtype whose trailing axes are trailing axes of w; op is a ufunc with an
    identity or a function op(x, y, out=None) with an ``identity``.

    Each p^r < hi of a base prime p <= sqrt(hi - 1), p ascending, applies
    f(p, r) at the multiples of p^r that p^(r+1) does not divide.  Dividing
    those p out of a float64 cofactor column (exact below 2^53), one WINDOW
    at a time, leaves 1 or m's one prime P > sqrt(hi - 1), whose f(P, 1)
    applies last.  So the factors apply in ascending prime order, as a per-m
    loop does, and a window is the slice of the whole-range fill bit for
    bit, floats and Python objects alike, in O(hi - lo + WINDOW) memory."""
    pairs = []  # (p, r, p^r): p ascending, then r
    for p in base[base * base < hi].tolist():
        r, q = 1, p
        while q < hi:
            pairs.append((p, r, q))
            r, q = r + 1, q * p
    pr = np.array(pairs, dtype=np.int64).reshape(-1, 3)
    fb = np.asarray(f(pr[:, 0], pr[:, 1]))
    w = np.full((hi - lo, *fb.shape[1:]), op.identity, dtype=fb.dtype)
    for i, (p, _, q) in enumerate(pairs):
        # the multiples of q before the first multiple of pq, at columns q, 2q, ... of the
        # rows of pq integers from it, and past the last whole row
        first = -(-lo // (p * q)) * p * q
        end = first + max(hi - first, 0) // (p * q) * p * q
        for view in (w[-(-lo // q) * q - lo : first - lo : q],
                     w[first - lo : end - lo].reshape(-1, p * q, *w.shape[1:])[:, q::q],
                     w[end + q - lo :: q]):
            if view.size:
                op(view, fb[i : i + 1], out=view)  # a slice: a lone value would become a scalar
    for s in range(lo, hi, WINDOW):
        cofactor = np.arange(s, min(s + WINDOW, hi), dtype=np.float64)
        for p, _, q in pairs:
            if -(-s // q) * q < s + len(cofactor):
                cofactor[-(-s // q) * q - s :: q] /= p
        big = cofactor > 1
        if big.any():  # one op over the window, f(2, 1) where no prime is left, kept where
            seg = w[s - lo : s - lo + len(big)]  # one is: faster than gathering those entries
            rest = f(np.maximum(cofactor, 2).astype(np.int64), np.ones(1, np.int64))
            with np.errstate(all="ignore"):  # an overflow in an entry not kept is dropped
                np.copyto(seg, op(seg, rest), where=big.reshape(-1, *(1,) * (seg.ndim - 1)))
    if lo == 0:
        w[:1] = 0
    return w


def evaluate(f, dtype, *args) -> np.ndarray:
    """f at the entries of the equal-length arrays args, on Python scalars, as a dtype
    array, in chunks of 4096 entries that keep the Python lists short."""
    out = np.empty(len(args[0]), dtype=dtype)
    for i in range(0, len(out), 1 << 12):
        part = [a[i : i + (1 << 12)].tolist() for a in args]
        out[i : i + (1 << 12)] = np.fromiter(map(f, *part), dtype, len(part[0]))
    return out


class PrimePowers:
    """What a run shares of the prime powers <= n, each made on first use: the base primes up
    to sqrt(n) and the listing, only for values on p (``at`` searches it) or a check of each
    p^r.  Every column reads its prime-power function through ``values``."""

    def __init__(self, n: int):
        self.n = n

    @cached_property
    def base(self) -> np.ndarray:
        return primes_up_to(math.isqrt(self.n))

    @cached_property
    def listing(self):
        return _prime_powers(0, self.n + 1, self.base)

    def values(self, f, dtype, r_only: bool):
        """(p, r, vals, at): the pairs (p, r) that a prime-power function f
        is called at, in order; f there as a dtype array (evaluate); and
        at(p, r), the index of f(p, r) in vals for any p^r <= n.  The pairs
        are the exponents 1..log2(n) at p = 2 if f depends on r alone, else
        the listing of the p^r <= n."""
        if r_only:
            r = np.arange(1, self.n.bit_length(), dtype=np.int64)  # 2^r <= n
            p, at = np.full(len(r), 2), lambda p, r: r - 1
        else:
            _, p, r = self.listing
            at = self.at
        return p, r, evaluate(f, dtype, p, r), at

    def at(self, p, r):
        """The index of p^r <= n in the listing."""
        return np.searchsorted(self.listing[0], p**r)

    def column(self, f, op) -> np.ndarray:
        """prime_power_fill over [0, n]."""
        return prime_power_fill(0, self.n + 1, self.base, f, op)


class Column:
    """A streamed float64 column 0..n: column[lo:hi] is window(lo, hi),
    made on demand; len() is n + 1, as for an array."""

    def __init__(self, n: int, window):
        self.n, self.window = n, window

    def __len__(self) -> int:
        return self.n + 1

    def __getitem__(self, part: slice) -> np.ndarray:
        lo, hi, _ = part.indices(self.n + 1)
        return self.window(lo, max(lo, hi))


# The single-column readers: each is one whole-range fill or, for spf, a
# short sieve.  Only mu has a caller in the package; the benchmark traces
# all of them as sieve layers.


def mobius_table(n: int, pp: PrimePowers | None = None) -> np.ndarray:
    """Mobius function values mu(1..n) as int8, 1-indexed: -1 at each prime,
    0 at each higher prime power, multiplied; from the run's pp if given."""
    return (pp or PrimePowers(n)).column(lambda p, r: -(r == 1).astype(np.int8), np.multiply)


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
    return PrimePowers(n).column(lambda p, r: np.ones(len(r), np.int8), np.add).astype(np.int64)


def big_omega_table(n: int) -> np.ndarray:
    """Number of prime factors with multiplicity of 0..n as int64: r per p^r, added."""
    return PrimePowers(n).column(lambda p, r: r.astype(np.int8), np.add).astype(np.int64)


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


def power_sum(vals, start: int, points, pairs, zeta: bool = False):
    """For each pair (a, b, n): the sum over start <= j <= n of
    vals[j] j^(-s_a) conj(j^(-s_b)), that is vals[j] j^(-z) at
    z = s_a + conj(s_b), with s = points, as a complex128 array.  With
    ``zeta`` it returns (sums, zetas), zetas[i] the same sum over
    1 <= j <= n without vals, an array or a Column read one WINDOW at a time.

    j runs in blocks at absolute multiples of POWER_BLOCK.  A block makes
    one log column and one column j^(-s) per point that a live pair uses
    (a real exp when Im s = 0), and one BLAS dot (np.vdot) per live pair
    over its slice, shorter than the 10^4 entries past which OpenBLAS
    splits a dot across threads; block partials add in ascending order.  So
    an entry's value depends on (vals, start, s_a, s_b, n) alone, not on the
    pairs that share the pass, how vals is made or the number of CPUs, and
    the columns take about m B 32 bytes for m points.  Non-finite values
    propagate without a RuntimeWarning."""
    if not isinstance(vals, Column):
        vals = np.ascontiguousarray(vals, dtype=np.float64)
    start = max(int(start), 1)
    points = [complex(p) for p in points]
    pairs = [(int(a), int(b), min(int(n), len(vals) - 1)) for a, b, n in pairs]
    sums = np.zeros(len(pairs), dtype=np.complex128)
    zetas = np.zeros(len(pairs), dtype=np.complex128)
    top = max((n for *_, n in pairs), default=0)
    window, at = None, -1  # the window read last, and where it starts
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, top + 1, POWER_BLOCK):
            first, hi = max(lo, 1), min(lo + POWER_BLOCK, top + 1)
            begin = max(start, first) - first  # the slice of vals[first:hi] a sum reads
            live = [(i, a, b, n + 1 - first) for i, (a, b, n) in enumerate(pairs)
                    if n >= first and (zeta or n >= begin + first)]
            if not live:
                continue
            cols, weighted = {}, {}  # the last block's columns go before a window is made
            if at != max(lo - lo % WINDOW, 1):
                at, window = max(lo - lo % WINDOW, 1), None
                window = vals[at : min(lo - lo % WINDOW + WINDOW, top + 1)]
            block = window[first - at : hi - at]
            logs = np.log(np.arange(first, hi, dtype=np.float64))
            for p in {p for _, a, b, _ in live for p in (a, b)}:
                s = points[p]
                cols[p] = np.exp(-s.real * logs) if s.imag == 0 else np.exp(-s * logs)
            for i, a, b, end in live:
                if end > begin:
                    if a not in weighted:
                        weighted[a] = block * cols[a]
                    sums[i] += np.vdot(cols[b][begin:end], weighted[a][begin:end])
                if zeta:
                    zetas[i] += np.vdot(cols[b][:end], cols[a][:end])
    return (sums, zetas) if zeta else sums
