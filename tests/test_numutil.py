import pytest

from coverspec.errors import DegreeLimitError, NonCoprimeModuliError
from coverspec.numutil import (
    PRIME_CAP, crt, iroot, is_prime, prime_factors, primes_from)

from oracles import is_prime_trial, seeded


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_examples():
    assert is_prime(1297)
    assert not is_prime(1296)
    assert is_prime(2 ** 31 - 1)


def test_is_prime_cap():
    with pytest.raises(DegreeLimitError):
        is_prime(PRIME_CAP)
    with pytest.raises(DegreeLimitError):
        is_prime(2 ** 61 + 1)


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == is_prime_trial(n) for n in range(10 ** 5))
    rng = seeded(61)
    for _ in range(300):
        n = rng.randrange(10 ** 10)
        assert is_prime(n) == is_prime_trial(n), n


def test_is_prime_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the first 4 and first 7 prime bases, with a
    # factor each, and Carmichael numbers
    for n, factor in ((3215031751, 151), (341550071728321, 10670053),
                      (2047, 23), (561, 3), (41041, 7)):
        assert n % factor == 0 and not is_prime(n)
    assert is_prime(2 ** 61 - 1)  # Mersenne; trial division took minutes
    assert is_prime(10 ** 9 + 7) and is_prime(998244353)
    assert not is_prime((10 ** 9 + 7) * 998244353)


def test_primes_from():
    it = primes_from(90)
    assert [next(it) for _ in range(4)] == [97, 101, 103, 107]


# crt examples; expected values frozen from exhaustive scans (see oracle below)

def brute_crt(pairs):
    big = 1
    for _, m in pairs:
        big *= m
    hits = [x for x in range(big) if all(x % m == r % m for r, m in pairs)]
    return hits


def test_crt_two_congruences():
    assert brute_crt([(1, 2), (2, 3)]) == [5]
    assert crt([(1, 2), (2, 3)]) == (5, 6)


def test_crt_single():
    assert crt([(0, 7)]) == (0, 7)


def test_crt_three_congruences():
    assert brute_crt([(3, 5), (4, 7), (1, 11)]) == [298]
    assert crt([(3, 5), (4, 7), (1, 11)]) == (298, 385)


def test_crt_non_coprime_names_pair():
    with pytest.raises(NonCoprimeModuliError) as err:
        crt([(1, 4), (0, 5), (1, 6)])
    assert err.value.pair == (4, 6)


def test_crt_uniqueness_brute_force():
    # solution is the unique one in [0, M) whenever M <= 10**6
    cases = [
        [(1, 2), (2, 3), (3, 5), (4, 7)],
        [(10, 11), (12, 13), (6, 17)],
        [(0, 8), (5, 9), (2, 25)],
        [(7, 16), (3, 27), (1, 35)],
    ]
    for pairs in cases:
        b, m = crt(pairs)
        assert m <= 10 ** 6
        assert brute_crt(pairs) == [b]


def test_prime_factors():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(-49) == [7]
    assert prime_factors(1) == []
    assert prime_factors(97) == [97]


def test_prime_factors_is_bounded():
    # trial division stops at FACTOR_BOUND = 2**20: a cofactor below its
    # square is prime, a larger one must be certified by is_prime
    assert prime_factors(1048583 * 1000003) == [1000003, 1048583]
    assert prime_factors(6 * (2 ** 61 - 1)) == [2, 3, 2 ** 61 - 1]
    for n in (1048583 * 1048589, (2 ** 61 - 1) * 1048583):
        with pytest.raises(DegreeLimitError, match="cannot factor"):
            prime_factors(7 * n)


def test_iroot():
    for n in range(200):
        for k in range(1, 6):
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k
    assert iroot(3 ** 700, 700) == 3
    assert iroot(3 ** 700 - 1, 700) == 2
    big = 10 ** 40 + 12345
    assert iroot(big ** 3, 3) == big
    assert iroot(big ** 3 - 1, 3) == big - 1
