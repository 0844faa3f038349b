from fractions import Fraction

import pytest

from coverspec import gfp
from coverspec.errors import DegreeLimitError, NonCoprimeModuliError
from coverspec.fields import QQ, ExtField, PrimeField, finite_field
from coverspec.numutil import (
    PRIME_CAP, crt, digits, iroot, is_prime, power, prime_factors,
    primes_from)
from coverspec.poly import Polynomial

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


def test_digits_are_least_significant_first():
    assert digits(0, 7, 3) == [0, 0, 0]
    assert digits(1 + 2 * 7 + 6 * 49, 7, 3) == [1, 2, 6]
    assert digits(5, 2, 4) == [1, 0, 1, 0]
    for i in range(125):
        assert sum(d * 5 ** k for k, d in enumerate(digits(i, 5, 3))) == i


# ------------------------------------------------------------------ power

def binary_count(e):
    """Products of the right-to-left binary method: squarings below the
    top bit, plus one product per set bit."""
    return e.bit_length() - 1 + bin(e).count("1")


EXPONENTS = (1, 2, 3, 64, 65, 127)


@pytest.mark.parametrize("e", EXPONENTS)
def test_power_counts_products(e):
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    assert power(3, e, mul, 1) == 3 ** e
    assert len(calls) == binary_count(e)
    assert power(3, 0, mul, 1) == 1


def counting_polynomial_products(monkeypatch):
    calls = []
    multiply = Polynomial.__mul__

    def counting(self, other):
        calls.append(self)
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    return calls


@pytest.mark.parametrize("e", EXPONENTS)
def test_polynomial_pow_squares_no_further_than_the_top_bit(monkeypatch, e):
    F = PrimeField(7)
    x = Polynomial.of(F, [1, 2, 3])
    expected = Polynomial.constant(F, 1)
    for _ in range(e):
        expected = Polynomial(F, gfp.mul(expected.coeffs, x.coeffs, 7))
    calls = counting_polynomial_products(monkeypatch)
    assert x ** e == expected
    assert len(calls) == binary_count(e)


@pytest.mark.parametrize("e", EXPONENTS)
def test_ext_field_pow_squares_no_further_than_the_top_bit(monkeypatch, e):
    F = finite_field(7 ** 3)
    a = F.from_index(100)
    calls = []
    multiply = ExtField.mul

    def counting(self, x, y):
        calls.append(x)
        return multiply(self, x, y)

    monkeypatch.setattr(ExtField, "mul", counting)
    F.pow(a, e)
    assert len(calls) == binary_count(e)


@pytest.mark.parametrize("e", EXPONENTS)
def test_powmod_squares_no_further_than_the_top_bit(e):
    # the packed powmod over GF(5): one reduce per product
    mod = [1, 1, 0, 1]
    pack, reduce, _, _ = gfp.mulmod(mod, 5)
    base = pack(gfp.divmod([2, 0, 1, 3, 1], mod, 5)[1])
    calls = []

    def counting(a):
        calls.append(a)
        return reduce(a)

    gfp.powmod(base, e, counting)
    assert len(calls) == binary_count(e)


def test_polynomial_pow_matches_repeated_products():
    # QQ[T] and GF(p)[T], e = 0..70, against one running product
    for x in (Polynomial.of(QQ, [Fraction(1, 2), -3, Fraction(2, 3)]),
              Polynomial.of(PrimeField(101), [5, 0, 17, 1])):
        acc = Polynomial.constant(x.domain, 1)
        for e in range(71):
            assert x ** e == acc
            acc = acc * x


def test_ext_field_pow_matches_repeated_products():
    F = finite_field(7 ** 3)
    for a in (F.from_index(2), F.from_index(200), F.from_index(342)):
        inv = F.inv(a)
        up = down = F.one
        for k in range(71):
            assert F.pow(a, k) == up
            assert F.pow(a, -k) == down
            up, down = F.mul(up, a), F.mul(down, inv)


def packed_powmod(base, e, mod):
    """base**e % mod by gfp.powmod on mulmod(mod), as a Polynomial."""
    F = base.domain
    pack, reduce, unpack, _ = gfp.mulmod(list(mod.coeffs), F.char, F)
    return Polynomial(F, unpack(gfp.powmod(pack(list((base % mod).coeffs)),
                                           e, reduce)))


def test_powmod_matches_repeated_products():
    F = PrimeField(5)
    L = finite_field(9)
    cases = [
        (Polynomial.of(F, [2, 0, 1, 3, 1]), Polynomial.of(F, [1, 1, 0, 1])),
        (Polynomial.of(L, [L.from_index(4), L.from_index(7), 0, 1]),
         Polynomial.of(L, [L.from_index(5), 0, 1])),
    ]
    for base, mod in cases:
        acc = Polynomial.constant(base.domain, 1)
        for e in range(71):
            assert packed_powmod(base, e, mod) == acc
            acc = acc * base % mod


def test_powmod_with_a_monic_modulus_inverts_nothing(monkeypatch):
    # mulmod divides only by its monic modulus and the packed products
    # take no inverse, so no ExtField.inv (an xgcd) at all
    L = finite_field(7 ** 3)
    base = Polynomial(L, [L.from_index(i) for i in (5, 100, 0, 342, 1)])
    mod = Polynomial(L, [L.from_index(i) for i in (9, 0, 200, 1)] + [L.one])
    expected = Polynomial.constant(L, L.one)
    for _ in range(L.order):
        expected = expected * base % mod
    calls = []
    inv = ExtField.inv

    def counting(self, a):
        calls.append(a)
        return inv(self, a)

    monkeypatch.setattr(ExtField, "inv", counting)
    assert packed_powmod(base, L.order, mod) == expected
    assert not calls
    base % mod.scale(L.from_index(2))
    assert calls


def test_zpow_matches_repeated_products():
    # an element of Z[T] is an int list in T
    a = [3, -1, 0, 2]
    acc = [1]
    for e in range(71):
        assert gfp.zpow(a, e) == acc
        acc = gfp.zmul(acc, a)
