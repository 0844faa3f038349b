from fractions import Fraction

import pytest

from coverspec.errors import CoverSpecError, DegreeLimitError, DomainMismatchError
from coverspec.fields import QQ, PrimeField
from coverspec.factor import (
    factor_ff, factor_z, squarefree_decomposition, squarefree_part)
from coverspec.poly import Polynomial

from oracles import seeded


def P(*coeffs):
    return Polynomial.of(QQ, coeffs)


def multiply_back(f, factors):
    acc = Polynomial.constant(QQ, f.lc)
    for g, m in factors:
        acc = acc * g ** m
    return acc


def test_cyclotomic_split():
    # Y^4 - 1 = (Y-1)(Y+1)(Y^2+1)
    f = P(-1, 0, 0, 0, 1)
    assert factor_z(f) == [
        (P(-1, 1), 1),
        (P(1, 1), 1),
        (P(1, 0, 1), 1),
    ]


def test_cubic_irreducible():
    # Y^3 - Y - 1: no rational root (+-1 fail), so the cubic is irreducible
    f = P(-1, -1, 0, 1)
    assert f.eval(Fraction(1)) != 0 and f.eval(Fraction(-1)) != 0
    assert factor_z(f) == [(f, 1)]


def test_two_quadratics():
    # (Y^2 - 2)(Y^2 - 3) expanded recovers the quadratics
    f = P(-2, 0, 1) * P(-3, 0, 1)
    assert factor_z(f) == [(P(-3, 0, 1), 1), (P(-2, 0, 1), 1)]


def test_content_and_unit_handling():
    # 6Y^2 - 6: unit 6 carried by lc, factors monic
    f = P(-6, 0, 6)
    facs = factor_z(f)
    assert facs == [(P(-1, 1), 1), (P(1, 1), 1)]
    assert multiply_back(f, facs) == f


def test_rational_coefficients():
    # (Y - 1/2)(Y + 2/3), non-integral input
    f = P(Fraction(-1, 3), Fraction(1, 6), 1)
    facs = factor_z(f)
    assert facs == [(P(Fraction(-1, 2), 1), 1), (P(Fraction(2, 3), 1), 1)]


def test_multiplicity():
    f = P(-1, 1) ** 3 * P(1, 0, 1)
    assert factor_z(f) == [(P(-1, 1), 3), (P(1, 0, 1), 1)]


def test_whole_swinnerton_dyer_style_case():
    # (Y^2-2)(Y^2-3)(Y^2-6): modular factorizations are finer at every
    # prime, which forces genuine subset recombination
    f = P(-2, 0, 1) * P(-3, 0, 1) * P(-6, 0, 1)
    facs = factor_z(f)
    assert [g.degree for g, _ in facs] == [2, 2, 2]
    assert multiply_back(f, facs) == f


def test_roundtrip_random_products():
    rng = seeded(13)
    pool = [
        P(-1, 1), P(1, 1), P(2, 1), P(-3, 1),
        P(1, 0, 1), P(-2, 0, 1), P(1, 1, 1), P(-1, -1, 0, 1),
        P(3, 0, 0, 1),
    ]
    for _ in range(100):
        f = Polynomial.constant(QQ, Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                             rng.choice([1, 2])))
        for _ in range(rng.randrange(1, 4)):
            f = f * rng.choice(pool)
        facs = factor_z(f)
        assert multiply_back(f, facs) == f
        for g, _ in facs:
            assert g.lc == 1


def test_irreducibles_stay_irreducible_mod_good_primes():
    # degrees of mod-p factors refine the rational factorization
    rng = seeded(19)
    f = P(-2, 0, 1) * P(1, 1, 1) * P(-1, -1, 0, 1)
    facs = factor_z(f)
    for p in (5, 7, 11, 13):
        F = PrimeField(p)
        fp = f.map_coeffs(F.coerce, F).monic()
        if fp.degree != f.degree:
            continue
        mod_degrees = []
        for g, m in factor_ff(fp):
            mod_degrees += [g.degree] * m
        rational_degrees = []
        for g, m in facs:
            gp = g.map_coeffs(F.coerce, F)
            sub = [h.degree for h, k in factor_ff(gp) for _ in range(k)]
            assert sum(sub) == g.degree  # each factor's reduction splits further
            rational_degrees += sub * m
        assert sorted(rational_degrees) == sorted(mod_degrees)


def test_degree_cap():
    f = Polynomial.of(QQ, [1] + [0] * 24 + [1])  # degree 25
    with pytest.raises(DegreeLimitError):
        factor_z(f)


def test_errors():
    with pytest.raises(DomainMismatchError):
        factor_z(Polynomial.of(PrimeField(5), [1, 1]))
    with pytest.raises(CoverSpecError):
        factor_z(Polynomial.of(QQ, [3]))


def test_eisenstein_irreducible_quartic():
    # Y^4 + 2Y + 2 is Eisenstein at 2, hence irreducible
    f = P(2, 2, 0, 0, 1)
    assert factor_z(f) == [(f, 1)]


def test_big_coefficient_linear_factors():
    f = P(-1000003, 1) * P(999983, 1)
    assert factor_z(f) == [(P(-1000003, 1), 1), (P(999983, 1), 1)]


def test_squarefree_part_matches_the_decomposition():
    # f = c * prod g**m over distinct monic irreducible g: linear factors
    # with rational roots, Y^2 - 2, Y^2 + Y + 1 and Y^3 + 1/3, each to a
    # power up to 7; the squarefree part is prod g, found without a gcd
    rng = seeded(67)
    roots = {Fraction(rng.randrange(-20, 21), rng.randrange(1, 7))
             for _ in range(12)}
    pool = [P(-r, 1) for r in sorted(roots)] + [
        P(-2, 0, 1), P(1, 1, 1), P(Fraction(1, 3), 0, 0, 1)]
    for trial in range(150):
        chosen = rng.sample(pool, rng.randrange(1, 5))
        mults = [rng.choice((1, 1, 2, 3, 7)) for _ in chosen]
        if trial % 10 == 0:
            mults[0] = rng.randrange(8, 13)  # one factor of high multiplicity
        c = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 50),
                     rng.randrange(1, 12))
        f = P(c)
        expected = P(1)
        by_multiplicity = {}
        for g, m in zip(chosen, mults):
            f = f * g ** m
            expected = expected * g
            by_multiplicity[m] = by_multiplicity.get(m, P(1)) * g
        assert squarefree_part(f) == expected
        parts = squarefree_decomposition(f)
        product = P(1)
        for g, m in parts:
            product = product * g
        assert product == expected
        assert dict((m, g) for g, m in parts) == by_multiplicity
    assert squarefree_part(P(Fraction(-3, 7))) == P(1)
    with pytest.raises(CoverSpecError):
        squarefree_part(Polynomial(QQ, ()))
