"""Sieve and summation kernels, vectorized with numpy.

All tables are 1-indexed: an array of length ``n + 1`` whose slot 0 is
unused.  Every Dirichlet convolution (d(n), d_beta, the divisor sums
S(n)) goes through one kernel, ``_convolve``, which splits the pairs
(j, q) with jq <= n at sqrt(n) (the Dirichlet hyperbola method): the
O(n log n) multiply-adds run inside numpy in O(sqrt n) Python iterations.
The sieves loop once per prime in Python.
"""

from __future__ import annotations

import math

import numpy as np


def prime_mask(n: int) -> np.ndarray:
    """Boolean array of length n+1, True at prime indices."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def primes_up_to(n: int) -> np.ndarray:
    return np.nonzero(prime_mask(n))[0].astype(np.int64)


def mobius_table(n: int) -> np.ndarray:
    """Mobius function values mu(1..n) as int8, 1-indexed."""
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_up_to(n):
        mu[p::p] *= -1
        sq = p * p
        if sq <= n:
            mu[sq::sq] = 0
    return mu


def gpf_table(n: int) -> np.ndarray:
    """Greatest prime factor of 2..n (0 at indices 0 and 1)."""
    # ascending prime order: the last assignment wins, i.e. the largest factor
    gpf = np.zeros(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        gpf[p::p] = p
    return gpf


def spf_table(n: int) -> np.ndarray:
    """Smallest prime factor of 2..n (0 at indices 0 and 1)."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in primes_up_to(math.isqrt(n)):
        view = spf[p::p]
        view[view == 0] = p
    idx = np.arange(n + 1, dtype=np.int64)
    rest = (spf == 0) & (idx >= 2)
    spf[rest] = idx[rest]
    return spf


def omega_table(n: int) -> np.ndarray:
    """Number of distinct prime factors of 0..n."""
    cnt = np.zeros(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        cnt[p::p] += 1
    return cnt


def big_omega_table(n: int) -> np.ndarray:
    """Number of prime factors with multiplicity of 0..n."""
    cnt = np.zeros(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        q = p
        while q <= n:
            cnt[q::q] += 1
            q *= p
    return cnt


def _convolve(a: np.ndarray, b: np.ndarray, start: int = 1) -> np.ndarray:
    """c[m] = sum over j * q = m with j >= start of a[j] * b[q], as float64.

    Dirichlet hyperbola split at r = isqrt(n): pairs with j <= r are added
    one j at a time, the rest one q at a time, so every pair is visited
    once in O(sqrt n) slice updates.  Neither input is copied or cast.
    """
    n = min(len(a), len(b)) - 1
    c = np.zeros(n + 1, dtype=np.float64)
    if n < 1:
        return c
    r = math.isqrt(n)
    for j in range(max(start, 1), r + 1):
        c[j::j] += a[j] * b[1 : n // j + 1]
    lo = max(r + 1, start)
    for q in range(1, n // lo + 1):
        hi = n // q
        c[lo * q : hi * q + 1 : q] += a[lo : hi + 1] * b[q]
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
