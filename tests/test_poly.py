from fractions import Fraction

import pytest

from coverspec.errors import (
    CoverSpecError, DomainMismatchError, InseparabilityError)
from coverspec.fields import QQ, PrimeField, finite_field
from coverspec.poly import Polynomial, PolyRing, discriminant, poly_gcd, \
    resultant

from oracles import (
    euclid_gcd, random_poly, resultant_by_roots, seeded, sylvester_resultant)


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


def test_rational_gcd_matches_euclid():
    # the integer remainder sequence against Euclid over QQ, with a planted
    # common factor of non-integral coefficients about half the time
    rng = seeded(37)

    def rational_poly(degree):
        return Polynomial.of(QQ, [Fraction(rng.randrange(-9, 10),
                                           rng.randrange(1, 6))
                                  for _ in range(degree + 1)])

    for _ in range(300):
        d = rational_poly(rng.randrange(3)) if rng.random() < 0.5 \
            else P(QQ, 1)
        a = d * rational_poly(rng.randrange(5))
        b = d * rational_poly(rng.randrange(5))
        if a.is_zero and b.is_zero:
            continue
        g = poly_gcd(a, b)
        assert g == euclid_gcd(a, b)
        assert (g % d).is_zero


def test_gcd_requires_field():
    ring = PolyRing(QQ)
    f = Polynomial.of(ring, [1, 2])
    with pytest.raises(CoverSpecError):
        poly_gcd(f, f)


def test_integral_model():
    # f = c*F with F primitive over Z and a positive leading coefficient
    f = P(QQ, Fraction(1, 2), 0, Fraction(-3, 4))
    assert f.integral_model() == (Fraction(-1, 4), [-2, 0, 3])
    assert P(QQ, 6, 4).integral_model() == (Fraction(2), [3, 2])
    assert Polynomial(QQ, ()).integral_model() == (Fraction(0), [])


# ---------------------------------------------------------------- resultant

def test_resultant_sylvester_sign_convention():
    # Res_Y(Y^2 - T, 2Y) with first-argument rows on top is exactly -4T
    ring = PolyRing(QQ)
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
    ring = PolyRing(QQ)
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


def sparse_poly(rng, dom, degree, coefficient):
    """A polynomial of exactly `degree` over dom whose coefficients below
    the top are zero about half the time, so remainder degrees can drop by
    two or more."""
    coeffs = [coefficient(rng) if rng.random() < 0.5 else dom.zero
              for _ in range(degree)]
    top = dom.zero
    while dom.is_zero(top):
        top = coefficient(rng)
    return Polynomial(dom, coeffs + [top])


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
    # over QQ and QQ[T], on the integral models: negative and non-integral
    # coefficients, sparse operands and degree gaps of 2 or more, so the
    # delta > 1 steps of the remainder sequence run
    ring = PolyRing(QQ)

    def rational(rng):
        return Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 2, 3, 4, 9)))

    def in_t(rng):
        return Polynomial(QQ, [rational(rng) for _ in range(rng.randrange(4))])

    for dom, coefficient, count in ((QQ, rational, 150), (ring, in_t, 60)):
        deltas = set()
        for k in range(count):
            m, n = rng.choice(((5, 2), (2, 5), (4, 1), (1, 4), (3, 3), (1, 3),
                               (4, 2), (3, 1), (0, 3), (3, 0), (4, 3), (1, 5)))
            a = sparse_poly(rng, dom, m, coefficient)
            b = sparse_poly(rng, dom, n, coefficient)
            if k % 3 == 0:
                # a = q*b + r with deg r <= deg b - 2: a gap of 2 or more
                # after the first step, where h is no longer 1
                m, n = 4, 3
                b = sparse_poly(rng, dom, n, coefficient)
                r = sparse_poly(rng, dom, rng.randrange(2), coefficient)
                a = sparse_poly(rng, dom, 1, coefficient) * b + r
            assert resultant(a, b) == sylvester_resultant(a, b)
            deltas.add(abs(m - n))
            if m >= 1 and dom == ring:
                fp = a.derivative()
                sign = -1 if (m * (m - 1) // 2) % 2 else 1
                disc = sylvester_resultant(a, fp).scale(
                    Fraction(sign)).exact_div(a.lc)
                assert discriminant(a) == disc
        assert max(deltas) >= 3


def test_resultant_matches_the_root_product_with_late_gaps():
    # a = c * prod (Y - r_i) with r_i in QQ[T] and b = q*a + r with
    # deg q = 1 and deg r <= deg a - 2: Res(b, a) has a gap of 2 or more
    # after its first step, and more steps after that gap
    rng = seeded(71)
    ring = PolyRing(QQ)

    def in_t(degree):
        return Polynomial(QQ, [Fraction(rng.randrange(-9, 10),
                                        rng.randrange(1, 5))
                               for _ in range(degree + 1)])

    for _ in range(25):
        lc = ring.coerce(Fraction(rng.randrange(1, 9), rng.randrange(1, 9)))
        roots = [in_t(rng.randrange(3)) for _ in range(rng.randrange(4, 7))]
        a = Polynomial(ring, [lc])
        for root in roots:
            a = a * Polynomial(ring, [-root, ring.one])
        r = Polynomial(ring, [in_t(rng.randrange(3))
                              for _ in range(a.degree - rng.randrange(2, 4))])
        b = Polynomial(ring, [in_t(1), in_t(0)]) * a + r
        sign = -1 if (a.degree * b.degree) % 2 else 1
        expected = resultant_by_roots(lc, roots, b)
        assert resultant(a, b) == expected
        assert resultant(b, a) == expected.scale(Fraction(sign))


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
    ring = PolyRing(QQ)
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
