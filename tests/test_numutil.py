import pytest

from coverspec.errors import NonCoprimeModuliError
from coverspec.numutil import (
    crt, inverse_mod, iroot, is_prime, prime_factors, primes_from, radical,
    xgcd)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_examples():
    assert is_prime(1297)
    assert not is_prime(1296)
    assert is_prime(2 ** 31 - 1)


def test_is_prime_cap():
    with pytest.raises(ValueError):
        is_prime(2 ** 61)


def test_primes_from():
    it = primes_from(90)
    assert [next(it) for _ in range(4)] == [97, 101, 103, 107]


def test_xgcd():
    for a, b in [(12, 18), (0, 5), (5, 0), (-12, 18), (17, 31), (0, 0)]:
        g, u, v = xgcd(a, b)
        assert g == u * a + v * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_inverse_mod():
    assert inverse_mod(3, 7) * 3 % 7 == 1
    with pytest.raises(ZeroDivisionError):
        inverse_mod(6, 9)


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


def test_prime_factors_and_radical():
    assert prime_factors(360) == [2, 3, 5]
    assert radical(360) == 30
    assert radical(-49) == 7
    assert radical(1) == 1
    assert prime_factors(97) == [97]


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
