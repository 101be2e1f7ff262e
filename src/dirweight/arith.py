"""Exact integer arithmetic: factorization, divisor enumeration, and the
classical arithmetic functions (Mobius mu, omega, divisor count, greatest
prime factor).

All functions are pure and deterministic; factorization is plain trial
division, bounded by MAX_TRIAL_DIVISOR.  Python integers never wrap, so
results are exact; the 64-bit input bound below is a resource guard, not
an overflow guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, isqrt, prod

import numpy as np

from . import _accel

MAX_INPUT = 2**64 - 1

#: Largest table a sieve call may allocate.
MAX_SIEVE = 50_000_000

#: Largest trial divisor factorize tries: every n <= MAX_TRIAL_DIVISOR^2 factors.
MAX_TRIAL_DIVISOR = 10**6


class ResourceLimitError(ValueError):
    """Raised when a request exceeds the configured desk-scale ceilings."""


def _check_positive(n, name: str = "n") -> int:
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(n).__name__}")
    n = int(n)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    if n > MAX_INPUT:
        raise ResourceLimitError(f"{name} exceeds the 64-bit input bound")
    return n


def _check_sieve(n, name: str = "N") -> int:
    """n >= 1 that fits the sieve ceiling MAX_SIEVE."""
    n = _check_positive(n, name)
    if n > MAX_SIEVE:
        raise ResourceLimitError(f"sieve length {n} exceeds ceiling {MAX_SIEVE}")
    return n


def _check_tol(tol) -> None:
    """Reject a tolerance that is not a finite number > 0: nan switches the
    comparisons off, tol < 0 calls values in [0, -tol) negative, and tol = 0
    asks a truncated sum for a zero tail."""
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition n = prod p_i^r_i with p_1 < p_2 < ...

    The factor list is empty exactly when n = 1.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)


def factorize(n: int) -> Factorization:
    """Deterministic trial-division factorization of n >= 1; raises
    ResourceLimitError when a cofactor above MAX_TRIAL_DIVISOR^2 is left."""
    n = _check_positive(n)
    m, q, factors = n, 2, []
    while q * q <= m:
        if q > MAX_TRIAL_DIVISOR:
            raise ResourceLimitError(
                f"factorizing {n} leaves a cofactor {m} above {MAX_TRIAL_DIVISOR}^2")
        if m % q == 0:
            r = 0
            while m % q == 0:
                m //= q
                r += 1
            factors.append((q, r))
        q += 1 if q == 2 else 2 if q == 3 or q % 6 == 5 else 4  # 2, 3, then 6k +- 1
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def mobius(n: int) -> int:
    """Mobius function: 1 at n=1, (-1)^j on a product of j distinct primes,
    0 when a squared prime divides n."""
    n = _check_positive(n)
    j = 0
    for _, r in factorize(n):
        if r >= 2:
            return 0
        j += 1
    return -1 if j % 2 else 1


def mobius_sieve(n: int) -> np.ndarray:
    """Table of mu(1..n), returned 1-indexed (length n+1, slot 0 unused)."""
    return _accel.mobius_table(_check_sieve(n))


def divisors(n: int) -> list[int]:
    """All divisors of n in ascending order."""
    divs = [1]
    for p, r in factorize(n):
        divs = [d * p**a for a in range(r + 1) for d in divs]
    return sorted(divs)


def gpf(n: int) -> int:
    """Greatest prime factor; defined for n >= 2 only."""
    n = _check_positive(n)
    if n < 2:
        raise ValueError("gpf is undefined for n = 1")
    return factorize(n).factors[-1][0]


def omega(n: int) -> int:
    """Number of distinct prime factors; omega(1) = 0."""
    return len(factorize(n).factors)


def big_omega(n: int) -> int:
    """Number of prime factors counted with multiplicity."""
    return sum(r for _, r in factorize(n))


def divisor_count(n: int) -> int:
    """Number of divisors, prod (r_i + 1) over the factorization."""
    return prod(r + 1 for _, r in factorize(n))


def factorizations_up_to(n_max: int):
    """Yield (n, factorize(n).factors) for n = 1..n_max."""
    n_max = _check_sieve(n_max, "n_max")
    for n in range(1, n_max + 1):
        yield n, factorize(n).factors
