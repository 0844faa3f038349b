from fractions import Fraction

import pytest

from coverspec.errors import (
    CoverSpecError, DomainMismatchError, InseparabilityError)
from coverspec.fields import QQ, PrimeField, finite_field
from coverspec.poly import Polynomial, PolyRing, discriminant, poly_gcd, \
    resultant

from oracles import random_poly, seeded, sylvester_resultant


def P(domain, *coeffs):
    return Polynomial.of(domain, coeffs)


def test_construction_normalizes_trailing_zeros():
    f = P(QQ, 1, 2, 0, 0)
    assert f.degree == 1
    assert P(QQ, 0, 0).is_zero
    assert P(QQ, 0, 0).degree == -1


def test_arithmetic_ring_identities():
    rng = seeded(7)
    F = PrimeField(11)
    for _ in range(200):
        a = random_poly(rng, F, rng.randrange(5))
        b = random_poly(rng, F, rng.randrange(5))
        c = random_poly(rng, F, rng.randrange(5))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == Polynomial(F, ())
        assert (a * b) * c == a * (b * c)


def test_divmod_over_field():
    rng = seeded(11)
    for dom in (PrimeField(7), QQ):
        for _ in range(200):
            if dom is QQ:
                a = Polynomial.of(QQ, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                                       for _ in range(rng.randrange(1, 7))])
                b = Polynomial.of(QQ, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                                       for _ in range(rng.randrange(1, 5))])
            else:
                a = random_poly(rng, dom, rng.randrange(6))
                b = random_poly(rng, dom, rng.randrange(4))
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree


def test_domain_mismatch_raises():
    with pytest.raises(DomainMismatchError):
        P(QQ, 1, 1) + P(PrimeField(5), 1, 1)
    with pytest.raises(DomainMismatchError):
        poly_gcd(P(QQ, 1, 1), P(PrimeField(5), 1, 1))


def test_eval_and_derivative():
    f = P(QQ, -1, 0, 3)  # 3Y^2 - 1
    assert f.eval(Fraction(2)) == 11
    assert f.derivative() == P(QQ, 0, 6)
    g = P(PrimeField(5), 0, 0, 0, 0, 0, 1)  # Y^5 over GF(5)
    assert g.derivative().is_zero


# ---------------------------------------------------------------- gcd

def test_gcd_shared_root():
    # gcd(Y^2 - 1, Y - 1) = Y - 1
    assert poly_gcd(P(QQ, -1, 0, 1), P(QQ, -1, 1)) == P(QQ, -1, 1)


def test_gcd_with_zero_is_monic_input():
    f = P(QQ, 2, 4)
    zero = Polynomial(QQ, ())
    assert poly_gcd(f, zero) == P(QQ, 1, 2).monic()
    assert poly_gcd(zero, f) == f.monic()
    assert poly_gcd(zero, zero).is_zero


def test_gcd_of_constructed_coprime_products_is_one():
    # split polynomials with disjoint root sets are coprime by construction
    rng = seeded(23)
    F = PrimeField(101)
    one = P(F, 1)
    for _ in range(100):
        roots = rng.sample(range(101), 8)
        f = one
        for r in roots[:4]:
            f = f * P(F, -r, 1)
        g = one
        for r in roots[4:]:
            g = g * P(F, -r, 1)
        assert poly_gcd(f, g) == one


def test_gcd_divides_both_random():
    # divisibility property on random pairs, 10^4 strong
    rng = seeded(5)
    F = PrimeField(101)
    for _ in range(10 ** 4):
        a = random_poly(rng, F, rng.randrange(1, 7))
        b = random_poly(rng, F, rng.randrange(1, 7))
        g = poly_gcd(a, b)
        assert (a % g).is_zero and (b % g).is_zero


def test_gcd_is_greatest_common_divisor():
    rng = seeded(31)
    F = PrimeField(13)
    for _ in range(300):
        d = random_poly(rng, F, rng.randrange(3), monic=True)
        a = d * random_poly(rng, F, rng.randrange(3))
        b = d * random_poly(rng, F, rng.randrange(3))
        if a.is_zero or b.is_zero:
            continue
        g = poly_gcd(a, b)
        assert (g % d).is_zero  # any common divisor divides the gcd


def test_gcd_requires_field():
    ring = PolyRing(QQ)
    f = Polynomial.of(ring, [1, 2])
    with pytest.raises(CoverSpecError):
        poly_gcd(f, f)


# ---------------------------------------------------------------- resultant

def test_resultant_sylvester_sign_convention():
    # Res_Y(Y^2 - T, 2Y) with first-argument rows on top is exactly -4T
    ring = PolyRing(QQ, "T")
    T = Polynomial.variable(QQ)
    f = Polynomial(ring, [-T, ring.zero, ring.one])
    g = Polynomial(ring, [ring.zero, ring.coerce(2)])
    res = resultant(f, g)
    assert res == Polynomial.of(QQ, [0, -4])
    assert res == sylvester_resultant(f, g)
    # |value| = 4T
    assert res == -Polynomial.of(QQ, [0, 4])


def test_resultant_linear_case():
    # Res(Y - a, Y - b) = a - b
    for a, b in [(5, 3), (2, 2), (-1, 4)]:
        f = P(QQ, -a, 1)
        g = P(QQ, -b, 1)
        assert resultant(f, g) == Fraction(a - b)


def test_resultant_discriminant_relation_cubic():
    # Res(f, f') on Y^3 - Y - T against the brute-force expansion 27T^2 - 4
    ring = PolyRing(QQ, "T")
    T = Polynomial.variable(QQ)
    f = Polynomial(ring, [-T, ring.coerce(-1), ring.zero, ring.one])
    res = resultant(f, f.derivative())
    expected = sylvester_resultant(f, f.derivative())
    assert res == expected
    assert res == Polynomial.of(QQ, [-4, 0, 27])


def test_resultant_matches_sylvester_oracle_random():
    rng = seeded(41)
    for dom in (PrimeField(7), PrimeField(2), PrimeField(101)):
        for _ in range(120):
            a = random_poly(rng, dom, rng.randrange(0, 5))
            b = random_poly(rng, dom, rng.randrange(0, 5))
            if a.is_zero or b.is_zero:
                continue
            assert resultant(a, b) == sylvester_resultant(a, b)


def test_resultant_matches_sylvester_oracle_rational():
    rng = seeded(43)
    for _ in range(60):
        a = Polynomial.of(QQ, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                               for _ in range(rng.randrange(1, 6))])
        b = Polynomial.of(QQ, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                               for _ in range(rng.randrange(1, 6))])
        if a.is_zero or b.is_zero:
            continue
        assert resultant(a, b) == sylvester_resultant(a, b)


def test_resultant_shared_factor_is_zero():
    f = P(QQ, -1, 0, 1)   # (Y-1)(Y+1)
    g = P(QQ, 1, 1)       # Y + 1
    assert resultant(f, g) == 0


def test_resultant_swapped_arguments_sign():
    rng = seeded(47)
    F = PrimeField(13)
    for _ in range(200):
        a = random_poly(rng, F, rng.randrange(1, 5))
        b = random_poly(rng, F, rng.randrange(1, 5))
        lhs = resultant(a, b)
        rhs = resultant(b, a)
        sign = -1 if (a.degree * b.degree) % 2 else 1
        assert lhs == F.coerce(sign * rhs)


def test_resultant_rejects_zero():
    with pytest.raises(CoverSpecError):
        resultant(P(QQ, 1, 1), Polynomial(QQ, ()))


# ---------------------------------------------------------------- discriminant

def test_discriminant_quadratic():
    # disc(Y^2 + bY + c) = b^2 - 4c
    for b, c in [(3, 5), (0, -2), (7, 0), (-4, 4)]:
        f = P(QQ, c, b, 1)
        assert discriminant(f) == Fraction(b * b - 4 * c)


def test_discriminant_cubic_family():
    # disc(Y^3 - Y - T) = 4 - 27T^2, the cubic formula -4p^3 - 27q^2
    ring = PolyRing(QQ, "T")
    T = Polynomial.variable(QQ)
    f = Polynomial(ring, [-T, ring.coerce(-1), ring.zero, ring.one])
    assert discriminant(f) == Polynomial.of(QQ, [4, 0, -27])


def test_discriminant_inseparable_error():
    F = PrimeField(5)
    with pytest.raises(InseparabilityError):
        discriminant(P(F, 0, 0, 0, 0, 0, 1))  # Y^5, derivative vanishes


def test_discriminant_scaling():
    # disc(c*f) = c^(2n-2) * disc(f)
    f = P(QQ, 1, 2, 0, 1)
    c = Fraction(3)
    lhs = discriminant(f.scale(c))
    assert lhs == c ** (2 * f.degree - 2) * discriminant(f)


def test_ext_field_polynomials():
    F = finite_field(4)
    a = F.from_index(2)  # x
    f = Polynomial(F, [a, F.one])  # Y + x
    g = f * f
    assert g.coeffs == (F.mul(a, a), F.zero, F.one)  # char 2: (Y+x)^2 = Y^2 + x^2
    assert poly_gcd(g, f) == f.monic()
