from fractions import Fraction
from math import factorial

import pytest

from coverspec.errors import CoverSpecError, DegreeLimitError
from coverspec.fields import QQ, PrimeField, finite_field
from coverspec.parsing import (
    MAX_DEPTH, ParseError, parse_bivariate, pretty, univariate_in_y)
from coverspec.poly import Polynomial, PolyRing

from oracles import parse_bivariate_by_polynomials, seeded


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
        parse_bivariate("Y^^2")
    assert err.value.line == 1
    assert err.value.column == 3
    with pytest.raises(ParseError):
        parse_bivariate("2T")  # implicit multiplication
    with pytest.raises(ParseError) as err:
        parse_bivariate("Y +")
    assert (err.value.line, err.value.column) == (1, 4)
    with pytest.raises(ParseError):
        parse_bivariate("(Y + 1")
    with pytest.raises(ParseError):
        parse_bivariate("X + 1")
    with pytest.raises(ParseError):
        parse_bivariate("-T")  # bare minus binds to literals only


def test_parse_signed_and_zero_denominators():
    P = parse_bivariate("1/-2*Y + -3/-6")
    assert P.coeff(1).coeff(0) == Fraction(-1, 2)
    assert P.coeff(0).coeff(0) == Fraction(1, 2)
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_bivariate("Y + 1/0")
    assert err.value.column == 7
    with pytest.raises(ParseError, match="zero denominator"):
        parse_bivariate("1/-0")
    with pytest.raises(ParseError, match="digits in denominator"):
        parse_bivariate("1/-T")


def test_parse_error_line_tracking():
    with pytest.raises(ParseError) as err:
        parse_bivariate("Y +\n  %")
    assert (err.value.line, err.value.column) == (2, 3)


def test_exponent_cap():
    parse_bivariate("Y^64")
    with pytest.raises(ParseError):
        parse_bivariate("Y^65")


def test_nested_power_degree_cap():
    # each exponent is within the cap, but (Y^64)^64 has degree 4096; a
    # product is refused before it is expanded, so the square of a
    # 66-term polynomial of degree 64 fails at once, and a degree error
    # comes before a later syntax error
    assert parse_bivariate("(Y^8 - T)^8").degree == 64
    assert parse_bivariate("(Y - T^2)^32").coeff(0).degree == 64
    assert parse_bivariate("2^64*Y").coeff(1).coeffs == (Fraction(2 ** 64),)
    assert parse_bivariate("Y^63*Y - T^32*T^32").degree == 64
    A = " + ".join(f"Y^{i}" for i in range(64, 0, -1)) + " + 1 + T"
    for text in ("(Y^64)^64 - T", "(Y - T^2)^33", "((Y^2)^8)^5",
                 "Y^3 - Y - T^64*T^64*T^64", "Y^64*Y - T",
                 f"({A})*({A} - 2)", "(Y^64)^64 +",
                 "(2*T^40*Y + Y)*T^30"):
        with pytest.raises(DegreeLimitError):
            parse_bivariate(text)
    # degrees are read after reduction: 2*T^40*Y vanishes over GF(2)
    P = parse_bivariate("(2*T^40*Y + Y)*T^30", PrimeField(2))
    assert P.degree == 1 and P.coeff(1).degree == 30 and P.coeff(0).is_zero


def test_parse_depth_and_digits():
    # parentheses nest at most MAX_DEPTH deep; digits are the decimal
    # digits int reads, and a literal past its digit limit is refused
    nested = "(" * MAX_DEPTH + "Y" + ")" * MAX_DEPTH
    assert parse_bivariate(nested).degree == 1
    for text, column in (("(" + nested + ")", MAX_DEPTH + 1),
                         ("Y^\u00b2", 3), ("Y - " + "7" * 5001, 5)):
        with pytest.raises(ParseError) as err:
            parse_bivariate(text)
        assert (err.value.line, err.value.column) == (1, column)
    assert parse_bivariate("Y^\u0663").degree == 3  # ARABIC-INDIC THREE


def test_parse_over_prime_field():
    F = PrimeField(5)
    P = parse_bivariate("Y^3 + 4*Y - T", F)
    assert P.coeff(1) == PolyRing(F).coerce(4)
    # a denominator that vanishes mod p is reported before a later syntax
    # error, over GF(p) and GF(p^f) alike
    for F in (PrimeField(5), finite_field(25)):
        with pytest.raises(CoverSpecError) as err:
            parse_bivariate("1/5*Y + (", F)
        assert not isinstance(err.value, ParseError)
        assert str(err.value) == "denominator of 1/5 vanishes modulo 5"


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
    ring = PolyRing(QQ)
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
    ring = PolyRing(F)
    for _ in range(200):
        coeffs = []
        for _ in range(rng.randrange(1, 4)):
            t_coeffs = [rng.randrange(13) for _ in range(rng.randrange(0, 4))]
            coeffs.append(Polynomial(F, t_coeffs))
        P = Polynomial(ring, coeffs)
        assert parse_bivariate(pretty(P), F) == P


def test_pretty_parse_round_trip_1024_terms():
    # a sum folds left in a loop, so no term count recurses
    ring = PolyRing(QQ)
    P = Polynomial(ring, [
        Polynomial.of(QQ, [Fraction((-1) ** (i + j) * (32 * i + j + 1), j + 1)
                           for j in range(32)])
        for i in range(32)])
    assert sum(c.degree + 1 for c in P.coeffs) == 1024
    assert parse_bivariate(pretty(P)) == P


def test_monomials_parse_without_bivariate_products(monkeypatch):
    # the parser folds on integer term maps and builds the polynomial in
    # Y over QQ[T] once, at the end: neither the 1024-term form nor a
    # product of two sums multiplies polynomials over QQ[T]
    ring = PolyRing(QQ)
    P = Polynomial(ring, [
        Polynomial.of(QQ, [Fraction((-1) ** (i + j) * (32 * i + j + 1), j + 1)
                           for j in range(32)])
        for i in range(32)])
    text = pretty(P)
    products = []
    multiply = Polynomial.__mul__

    def counting(self, other):
        if isinstance(self.domain, PolyRing):
            products.append(self)
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert parse_bivariate(text) == P
    assert products == []
    assert parse_bivariate("(Y + T)*(Y - T)") == parse_bivariate("Y^2 - T^2")
    assert products == []


def test_power_of_a_sum_has_multinomial_coefficients():
    # the coefficient of Y^i T^j in (Y + T + 1)^64 is 64!/(i! j! (64-i-j)!)
    P = parse_bivariate("(Y + T + 1)^64")
    assert P.degree == 64
    for i in range(65):
        assert P.coeff(i).coeffs == tuple(
            Fraction(factorial(64),
                     factorial(i) * factorial(j) * factorial(64 - i - j))
            for j in range(65 - i))


def draw_expression(rng, depth=0):
    """A seeded expression text of the grammar: sums, products, powers
    with ^0 and degree-64 edges, nested parentheses, signed and zero
    denominators and constants to a power."""
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        leaf = rng.choice(("T", "Y", "num", "num", "frac"))
        if leaf in "TY":
            if rng.random() < 0.3:
                return f"{leaf}^{rng.choice((0, 1, 2, 31, 32, 33, 63, 64))}"
            return leaf
        num = f"{rng.choice(('', '-'))}{rng.randrange(0, 30)}"
        if leaf == "num":
            return num
        return (f"{num}/{rng.choice(('', '-'))}"
                f"{rng.choice((0, 1, 2, 3, 5, 7, 13, 25))}")
    if roll < 0.55:
        op = rng.choice((" + ", " - "))
        return op.join(draw_expression(rng, depth + 1)
                       for _ in range(rng.randrange(2, 5)))
    if roll < 0.8:
        return "*".join(draw_expression(rng, depth + 1)
                        for _ in range(rng.randrange(2, 4)))
    inner = draw_expression(rng, depth + 1)
    exponent = rng.choice((0, 1, 2, 3, 4, 8, 16, 32, 64, 65))
    if rng.random() < 0.3:  # a constant to a power
        inner = f"{rng.randrange(-9, 10)}/{rng.randrange(1, 9)}"
    return f"({inner})^{exponent}"


def parse_outcome(parse, text, base):
    """The parsed polynomial, or the error's type, message and position."""
    try:
        return parse(text, base)
    except CoverSpecError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


@pytest.mark.parametrize("q", [None, 2, 5, 13, 25, 343])
def test_parser_matches_the_polynomial_parser(q):
    # the term-map parser against the parser that evaluates on Polynomial
    # objects: an equal P or the same error, on drawn texts and on texts
    # with one character cut or one stray character put in
    base = QQ if q is None else finite_field(q)
    rng = seeded(67 + (q or 0))
    outcomes = set()
    for _ in range(150):
        text = draw_expression(rng)
        if rng.random() < 0.15:
            cut = rng.randrange(len(text))
            text = text[:cut] + rng.choice(("", "", ")", "^", "%")) + text[
                cut + 1:]
        got = parse_outcome(parse_bivariate, text, base)
        assert got == parse_outcome(parse_bivariate_by_polynomials, text,
                                    base), text
        outcomes.add(got[0] if isinstance(got, tuple) else Polynomial)
    assert Polynomial in outcomes and ParseError in outcomes
    assert DegreeLimitError in outcomes


def test_coefficients_past_the_digit_limit_are_refused():
    # a product or power whose coefficient bound passes the int-string
    # digit limit (4300) is refused before it is computed, after the
    # degree checks; the largest power below the limit parses
    assert parse_bivariate("((10^64)^64)*Y").coeff(1).coeffs == (
        Fraction(10 ** 4096),)
    assert parse_bivariate("((1/10^64)^64)*Y").coeff(1).coeffs == (
        Fraction(1, 10 ** 4096),)
    n = "7" * 3000
    for text in ("Y^2 - (((10^64)^64)^64)*T",
                 "Y^2 - ((((10^64)^64)^64)^64)*T",
                 "Y - ((1/10^64)^64)^2", f"Y^2 - {n}*{n}*T",
                 f"({n}*Y + 1)*({n}*Y - 1)"):
        with pytest.raises(CoverSpecError, match="more than 4300 digits") as err:
            parse_bivariate(text)
        assert type(err.value) is CoverSpecError
    with pytest.raises(DegreeLimitError):
        parse_bivariate("((10*Y)^64)^64")
    # over a finite field every coefficient is reduced, so nothing grows
    P = parse_bivariate("Y^2 - (((10^64)^64)^64)*T", PrimeField(13))
    assert P.coeff(0).coeff(1) == (-pow(10, 64 ** 3, 13)) % 13
