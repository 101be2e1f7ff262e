"""Sieve and summation kernels, vectorized with numpy.

All tables are 1-indexed: an array of length ``n + 1`` whose slot 0 is
unused.  Every Dirichlet convolution (d(n), d_beta, the divisor sums
S(n)) goes through one kernel, ``_convolve``, which splits the pairs
(j, q) with jq <= n at max(sqrt(n), 1000) (the Dirichlet hyperbola
method): the O(n log n) multiply-adds run inside numpy in O(sqrt n + 1000)
Python iterations.  Its exact counterpart in Python ints and Fractions,
``exact_convolve``, serves exact series products and exact divisor sums
past the int64 lane.
Every arithmetic table comes from one engine, ``factor_tables`` (spf, mu,
omega, Omega, gpf and prime-power parts, one numpy pass per block), and
every multiplicative or additive one from ``prime_power_fill``.  A run
makes one ``factor_tables`` pass and hands it to every table it builds
(``WeightFamily.values_table(n, ft)``); the single-column readers below
serve callers that need one column.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class FactorTables(NamedTuple):
    """Arithmetic columns of 0..n (slot 0 zero); ``ppart[m]`` is P^r, the
    largest power of P = gpf(m) dividing m (ppart[1] = 1).  mu, omega and
    big_omega are int8, the rest int32."""

    spf: np.ndarray
    mu: np.ndarray
    omega: np.ndarray
    big_omega: np.ndarray
    gpf: np.ndarray
    ppart: np.ndarray

    def prime_powers(self):
        """(q, p, r) for every prime power q = p^r <= n, ascending in q."""
        q = np.flatnonzero(self.gpf == self.spf)[2:]  # slots 0 and 1 hold 0 == 0
        return q, self.spf[q], self.big_omega[q]


def _blocks(n: int):
    """[lo, hi) covering 2..n with hi <= 2 lo: every m // spf(m) of a
    block lies in an earlier one."""
    lo = 2
    while lo <= n:
        hi = min(2 * lo, lo + (1 << 16), n + 1)
        yield lo, hi
        lo = hi


def factor_tables(n: int) -> FactorTables:
    """spf from the sieve of Eratosthenes up to sqrt(n), every other column
    at m from its value at m / spf(m), block by block: a linear sieve in the
    manner of Gries and Misra, one numpy pass per block."""
    # columns before any temporary is freed: malloc maps each and returns it whole
    spf, gpf, ppart = (np.zeros(n + 1, dtype=np.int32) for _ in range(3))
    mu, omega, big_omega = (np.zeros(n + 1, dtype=np.int8) for _ in range(3))
    mu[1:2] = ppart[1:2] = 1
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == 0:  # p is prime: a smaller prime would have marked it
            view = spf[p * p :: p]
            view[view == 0] = p
    for lo, hi in _blocks(n):
        idx = np.arange(lo, hi, dtype=np.int32)
        p = spf[lo:hi]
        np.copyto(p, idx, where=p == 0)  # primes: no smaller prime marked them
        m = idx // p
        new = spf[m] != p  # p does not divide m
        mu[lo:hi] = np.where(new, -mu[m], 0)
        omega[lo:hi] = omega[m] + new
        big_omega[lo:hi] = big_omega[m] + 1
        g = gpf[lo:hi] = np.maximum(gpf[m], p)
        ppart[lo:hi] = np.where(g == p, ppart[m] * p, ppart[m])
    return FactorTables(spf, mu, omega, big_omega, gpf, ppart)


def prime_power_values(ft: FactorTables, f, dtype) -> np.ndarray:
    """fq[p^r] = f(p, r) at every prime power p^r <= n, zero elsewhere.
    f is called once per prime power, on Python ints, in chunks that keep
    the Python objects few."""
    fq = np.zeros(len(ft.ppart), dtype=dtype)
    q, p, r = ft.prime_powers()
    for i in range(0, len(q), 1 << 12):
        part = slice(i, i + (1 << 12))
        fq[q[part]] = np.fromiter(map(f, p[part].tolist(), r[part].tolist()), dtype, len(q[part]))
    return fq


def prime_power_fill(ft: FactorTables, fq: np.ndarray, op) -> np.ndarray:
    """w[1] = the identity of op (np.multiply or np.add), and
    w[m] = op(w[m / P^r], fq[P^r]) with P^r = ppart[m], in fq's dtype.

    Peeling the largest prime applies the prime powers of m in ascending
    prime order, as a per-m loop over its factorization does, so float
    and Python-object results equal that loop's bit for bit."""
    w = np.zeros(len(ft.ppart), dtype=fq.dtype)
    w[1:2] = op.identity
    for lo, hi in _blocks(len(w) - 1):
        q = ft.ppart[lo:hi]
        w[lo:hi] = op(w[np.arange(lo, hi, dtype=np.int32) // q], fq[q])
    return w


def primes_up_to(n: int) -> np.ndarray:
    """The primes <= n, ascending (int64): the m with Omega(m) = 1."""
    return np.flatnonzero(factor_tables(n).big_omega == 1)


def mobius_table(n: int) -> np.ndarray:
    """Mobius function values mu(1..n) as int8, 1-indexed."""
    return factor_tables(n).mu


def spf_table(n: int) -> np.ndarray:
    """Smallest prime factor of 2..n (0 at indices 0 and 1)."""
    return factor_tables(n).spf.astype(np.int64)


def omega_table(n: int) -> np.ndarray:
    """Number of distinct prime factors of 0..n."""
    return factor_tables(n).omega.astype(np.int64)


def big_omega_table(n: int) -> np.ndarray:
    """Number of prime factors with multiplicity of 0..n."""
    return factor_tables(n).big_omega.astype(np.int64)


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
    for j in range(max(start, 1), r + 1):
        c[j::j] += a[j] * b[1 : n // j + 1]
    lo = max(r + 1, start)
    for q in range(1, n // lo + 1):
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


def power_sum(vals: np.ndarray, start: int, z: complex) -> complex:
    """Partial sum over j >= start of vals[j] * j^(-z)."""
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    start = max(int(start), 1)
    n = len(vals) - 1
    if start > n:
        return 0j
    zre, zim = float(z.real), float(z.imag)
    logs = np.log(np.arange(start, n + 1, dtype=np.float64))
    terms = vals[start:] * np.exp(-(zre + 1j * zim) * logs)
    return complex(terms.sum())
