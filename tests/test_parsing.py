from fractions import Fraction

import pytest

from coverspec.errors import DegreeLimitError
from coverspec.fields import QQ, PrimeField
from coverspec.parsing import (
    ParseError, parse_bivariate, parse_poly, pretty, to_bivariate,
    univariate_in_y)
from coverspec.poly import Polynomial, PolyRing

from oracles import seeded


def test_parse_simple_cubic():
    P = parse_bivariate("Y^3 - Y - T")
    assert P.degree == 3
    ring = P.domain
    T = Polynomial.variable(QQ)
    assert P.coeff(0) == -T
    assert P.coeff(1) == ring.coerce(-1)
    assert P.coeff(3) == ring.one


def test_parse_trinomial_shape():
    P = parse_bivariate("Y^3 - T*Y + T^2")
    T = Polynomial.variable(QQ)
    assert P.coeff(1) == -T
    assert P.coeff(0) == T * T
    assert P.degree == 3


def test_parse_rationals_and_parens():
    P = parse_bivariate("(Y - 1/2) * (Y + 2/3)")
    assert P.coeff(0) == Polynomial.constant(QQ, Fraction(-1, 3))
    Q = parse_bivariate("-4/27 + T")
    assert Q.coeff(0).coeff(0) == Fraction(-4, 27)


def test_parse_binding_and_subtraction_chain():
    # subtraction is left-associative: 1 - 2 - 3 = -4, and 1 - 2 stays 1-2
    P = parse_bivariate("1 - 2")
    assert P.coeff(0).coeff(0) == Fraction(-1)
    Q = parse_bivariate("1 - 2 - 3")
    assert Q.coeff(0).coeff(0) == Fraction(-4)
    R = parse_bivariate("2 * -3")
    assert R.coeff(0).coeff(0) == Fraction(-6)
    S = parse_bivariate("Y - 2*Y")
    assert S.coeff(1).coeff(0) == Fraction(-1)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("Y^^2")
    assert err.value.line == 1
    assert err.value.column == 3
    with pytest.raises(ParseError):
        parse_poly("2T")  # implicit multiplication
    with pytest.raises(ParseError):
        parse_poly("Y +")
    with pytest.raises(ParseError):
        parse_poly("(Y + 1")
    with pytest.raises(ParseError):
        parse_poly("X + 1")
    with pytest.raises(ParseError):
        parse_poly("-T")  # bare minus binds to literals only


def test_parse_error_line_tracking():
    with pytest.raises(ParseError) as err:
        parse_poly("Y +\n  %")
    assert err.value.line == 2


def test_exponent_cap():
    parse_poly("Y^64")
    with pytest.raises(ParseError):
        parse_poly("Y^65")


def test_nested_power_degree_cap():
    # each exponent is within the cap, but (Y^64)^64 has degree 4096
    assert parse_bivariate("(Y^8 - T)^8").degree == 64
    assert parse_bivariate("(Y - T^2)^32").coeff(0).degree == 64
    assert parse_bivariate("2^64*Y").coeff(1).coeffs == (Fraction(2 ** 64),)
    for text in ("(Y^64)^64 - T", "(Y - T^2)^33", "((Y^2)^8)^5"):
        with pytest.raises(DegreeLimitError):
            parse_bivariate(text)


def test_parse_over_prime_field():
    F = PrimeField(5)
    P = parse_bivariate("Y^3 + 4*Y - T", F)
    assert P.coeff(1) == PolyRing(F, "T").coerce(4)


def test_univariate_in_y():
    M = univariate_in_y(parse_bivariate("Y^3 - Y"))
    assert M == Polynomial.of(QQ, [0, -1, 0, 1])
    with pytest.raises(Exception):
        univariate_in_y(parse_bivariate("Y - T"))


def test_pretty_examples():
    P = parse_bivariate("Y^3 - Y - T")
    assert pretty(P) == "Y^3 - Y - T"
    Q = parse_bivariate("Y^2 - 1/4")
    assert pretty(Q) == "Y^2 - 1/4"
    assert pretty(parse_bivariate("0")) == "0"
    assert pretty(parse_bivariate("3/4*T^2*Y - 2*Y + 5")) == "3/4*T^2*Y - 2*Y + 5"


def random_bivariate(rng, max_deg_y=3, max_deg_t=3):
    ring = PolyRing(QQ, "T")
    coeffs = []
    for _ in range(rng.randrange(1, max_deg_y + 2)):
        t_coeffs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                    for _ in range(rng.randrange(0, max_deg_t + 2))]
        coeffs.append(Polynomial.of(QQ, t_coeffs))
    return Polynomial(ring, coeffs)


def test_pretty_parse_round_trip_random():
    rng = seeded(53)
    for _ in range(300):
        P = random_bivariate(rng)
        assert parse_bivariate(pretty(P)) == P


def test_pretty_parse_round_trip_prime_field():
    rng = seeded(59)
    F = PrimeField(13)
    ring = PolyRing(F, "T")
    for _ in range(200):
        coeffs = []
        for _ in range(rng.randrange(1, 4)):
            t_coeffs = [rng.randrange(13) for _ in range(rng.randrange(0, 4))]
            coeffs.append(Polynomial(F, t_coeffs))
        P = Polynomial(ring, coeffs)
        assert parse_bivariate(pretty(P), F) == P
