import math
from random import Random

import pytest

from dirweight import arith, condition, weights


# -- independent oracles ------------------------------------------------------


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_factorize(n):
    out = []
    p = 2
    while p <= n:
        if n % p == 0:
            r = 0
            while n % p == 0:
                n //= p
                r += 1
            out.append((p, r))
        p += 1
    return out


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# -- factorize ----------------------------------------------------------------


def test_factorize_one_is_empty():
    assert arith.factorize(1).factors == ()


def test_factorize_examples():
    assert arith.factorize(12).factors == ((2, 2), (3, 1))
    assert arith.factorize(97).factors == ((97, 1),)


@pytest.mark.parametrize("n", [2, 36, 97, 360, 1024, 9973, 2 * 3 * 5 * 7 * 11])
def test_factorize_against_brute_force(n):
    assert list(arith.factorize(n).factors) == brute_factorize(n)


def test_factorize_random_reconstructs(seed=7):
    rng = Random(seed)
    for _ in range(200):
        n = rng.randint(1, 10**6)
        fac = arith.factorize(n)
        prod = 1
        for p, r in fac:
            assert r >= 1
            assert brute_is_prime(p)
            prod *= p**r
        assert prod == n
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


@pytest.mark.parametrize("n", [2**61 - 1, 1999993 * 2000003])  # a prime; two primes near 2e6
def test_trial_division_stops_at_its_bound(n):
    ones = weights.named_family("ones")
    for fn in (arith.factorize, arith.mobius, arith.divisors,
               lambda n: condition.divisor_sum(ones, None, 1, n)):
        with pytest.raises(arith.ResourceLimitError, match="cofactor"):
            fn(n)


@pytest.mark.parametrize("n,factors", [
    (10**12, ((2, 12), (5, 12))),
    (999983 * 1000003, ((999983, 1), (1000003, 1))),  # a factor past the trial bound
    (999983**2, ((999983, 2),)),
    (999999999989, ((999999999989, 1),)),  # the largest prime below 10^12
    (2**40 * 1999993, ((2, 40), (1999993, 1))),  # past 10^12, prime cofactor below the bound^2
])
def test_factorize_up_to_the_square_of_its_trial_bound(n, factors):
    assert arith.MAX_TRIAL_DIVISOR**2 == 10**12
    assert arith.factorize(n).factors == factors


def test_rejects_zero_and_negatives():
    for fn in (arith.factorize, arith.mobius, arith.divisors, arith.omega,
               arith.divisor_count, arith.mobius_sieve):
        with pytest.raises(ValueError):
            fn(0)
        with pytest.raises(ValueError):
            fn(-3)


# -- mobius -------------------------------------------------------------------


def test_mobius_definition_cases():
    assert arith.mobius(1) == 1
    assert arith.mobius(6) == 1  # two distinct primes
    assert arith.mobius(4) == 0  # square factor
    assert arith.mobius(30) == -1  # three distinct primes


def test_mobius_multiplicative_on_coprime_pairs():
    rng = Random(1)
    checked = 0
    while checked < 200:
        m, n = rng.randint(1, 10**4), rng.randint(1, 10**4)
        if math.gcd(m, n) != 1:
            continue
        checked += 1
        assert arith.mobius(m * n) == arith.mobius(m) * arith.mobius(n)


def test_mobius_fundamental_identity_sample():
    # sum over divisors of mu(d) is the indicator of n = 1
    for n in range(1, 2001):
        total = sum(arith.mobius(d) for d in arith.divisors(n))
        assert total == (1 if n == 1 else 0)


# -- sieve --------------------------------------------------------------------


def test_mobius_sieve_examples():
    assert list(arith.mobius_sieve(6)[1:]) == [1, -1, -1, 0, -1, 1]
    assert list(arith.mobius_sieve(1)[1:]) == [1]
    assert arith.mobius_sieve(30)[30] == -1


def test_mobius_sieve_matches_pointwise():
    table = arith.mobius_sieve(10**4)
    for n in range(1, 10**4 + 1):
        assert table[n] == arith.mobius(n)


def test_sieve_ceiling():
    with pytest.raises(arith.ResourceLimitError):
        arith.mobius_sieve(arith.MAX_SIEVE + 1)


# -- divisors and friends -----------------------------------------------------


def test_divisors_examples():
    assert arith.divisors(1) == [1]
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert arith.divisors(97) == [1, 97]


def test_divisors_against_brute_force():
    rng = Random(3)
    for _ in range(100):
        n = rng.randint(1, 5000)
        assert arith.divisors(n) == brute_divisors(n)


def test_divisor_count_matches_enumeration():
    rng = Random(5)
    for _ in range(300):
        n = rng.randint(1, 10**4)
        assert arith.divisor_count(n) == len(arith.divisors(n))
    assert arith.divisor_count(1) == 1
    assert arith.divisor_count(12) == 6
    assert arith.divisor_count(3**5) == 6


def test_gpf():
    assert arith.gpf(12) == 3
    assert arith.gpf(97) == 97
    assert arith.gpf(2**10) == 2
    with pytest.raises(ValueError):
        arith.gpf(1)
    rng = Random(11)
    for _ in range(100):
        n = rng.randint(2, 10**5)
        assert arith.gpf(n) == max(p for p, _ in arith.factorize(n))


def test_omega():
    assert arith.omega(1) == 0
    assert arith.omega(12) == 2
    for p in (2, 3, 5, 97):
        for j in (1, 2, 5):
            assert arith.omega(p**j) == 1


def test_big_omega():
    assert arith.big_omega(12) == 3
    assert arith.big_omega(1) == 0
    assert arith.big_omega(2**10) == 10


def test_factorizations_up_to_matches_factorize():
    got = list(arith.factorizations_up_to(500))
    assert [n for n, _ in got] == list(range(1, 501))
    for n, factors in got:
        assert factors == arith.factorize(n).factors
