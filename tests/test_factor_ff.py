from fractions import Fraction

import pytest

from coverspec import gfp
from coverspec.errors import CoverSpecError, DomainMismatchError
from coverspec.fields import QQ, PrimeField, finite_field
from coverspec.factor import (
    factor_ff, is_irreducible_ff, squarefree_decomposition, squarefree_part)
from coverspec.gfp import ddf
from coverspec.poly import Polynomial, poly_gcd

from oracles import (
    all_monic_polys, factor_ff_by_polynomials, factors_by_trial, random_poly,
    seeded, squarefree_decomposition_by_yun)


def P(domain, *coeffs):
    return Polynomial.of(domain, coeffs)


def multiply_back(dom, unit, factors):
    acc = Polynomial.constant(dom, unit)
    for g, m in factors:
        acc = acc * g ** m
    return acc


def test_irreducible_cubic_over_gf2():
    # Y^3 + Y + 1 over GF(2): no roots, hence irreducible; cross-checked
    # against exhaustive trial division
    F = PrimeField(2)
    f = P(F, 1, 1, 0, 1)
    assert all(f.eval(a) != 0 for a in range(2))
    _, trial = factors_by_trial(f)
    assert trial == [(f, 1)]
    assert factor_ff(f) == [(f, 1)]
    assert is_irreducible_ff(f)


def test_split_cubic_over_gf5():
    F = PrimeField(5)
    f = P(F, 0, -1, 0, 1)  # Y^3 - Y
    facs = factor_ff(f)
    assert facs == [
        (P(F, 0, 1), 1),      # Y
        (P(F, 1, 1), 1),      # Y + 1
        (P(F, 4, 1), 1),      # Y - 1
    ]


def test_refactor_known_product_gf101():
    # random product of 4 known irreducibles refactors exactly
    rng = seeded(3)
    F = PrimeField(101)
    irreducibles = []
    while len(irreducibles) < 4:
        cand = random_poly(rng, F, rng.randrange(1, 4), monic=True)
        if cand.degree >= 1 and is_irreducible_ff(cand) and cand not in irreducibles:
            irreducibles.append(cand)
    f = Polynomial.constant(F, 7)
    for g in irreducibles:
        f = f * g
    facs = factor_ff(f)
    assert sorted(g.coeffs for g, _ in facs) == sorted(g.coeffs for g in irreducibles)
    assert multiply_back(F, f.lc, facs) == f


def test_multiplicities():
    F = PrimeField(7)
    f = P(F, 0, 1) ** 3 * P(F, 1, 1) ** 2
    assert factor_ff(f) == [(P(F, 0, 1), 3), (P(F, 1, 1), 2)]


def test_pth_power_multiplicity():
    # g^p has identically zero derivative, and so has g^p * h^(2p), whose
    # p-th root g * h^2 is not squarefree
    for q in (5, 4, 9):
        F = finite_field(q)
        p = F.char
        g = P(F, F.from_index(q - 1), 1)
        h = P(F, F.from_index(1), 1)
        assert factor_ff(g ** p) == [(g, p)]
        expected = sorted([(g, p), (h, 2 * p)], key=lambda gm: gm[0].coeffs)
        assert factor_ff(g ** p * h ** (2 * p)) == expected


def test_roundtrip_random_all_small_fields():
    rng = seeded(17)
    for p in (2, 3, 7):
        F = PrimeField(p)
        for _ in range(300):
            f = random_poly(rng, F, rng.randrange(1, 9))
            facs = factor_ff(f, seed=rng.randrange(100))
            assert multiply_back(F, f.lc, facs) == f
            for g, _ in facs:
                assert g.lc == 1
                assert is_irreducible_ff(g)


def test_matches_exhaustive_oracle_small():
    # full agreement with trial-division factorization over GF(2) and GF(3)
    rng = seeded(29)
    for p in (2, 3):
        F = PrimeField(p)
        for _ in range(60):
            f = random_poly(rng, F, rng.randrange(1, 7))
            _, expected = factors_by_trial(f)
            assert factor_ff(f) == expected


def test_deterministic_given_seed():
    F = PrimeField(101)
    rng = seeded(5)
    f = random_poly(rng, F, 9)
    assert factor_ff(f, seed=42) == factor_ff(f, seed=42)
    # factor sets are unique, so any two seeds agree after sorting
    assert factor_ff(f, seed=1) == factor_ff(f, seed=2)


def test_factor_over_extension_field():
    F = finite_field(4)
    x = F.from_index(2)
    # Y^2 + Y + x is irreducible over GF(4) iff it has no root
    f = Polynomial(F, [x, F.one, F.one])
    has_root = any(F.is_zero(f.eval(a)) for a in F.elements())
    assert is_irreducible_ff(f) == (not has_root)
    facs = factor_ff(f)
    assert multiply_back(F, f.lc, facs) == f
    # splitting behaviour of Y^4 - Y: product of all elements of GF(4)
    g = Polynomial(F, [F.zero, F.neg(F.one), F.zero, F.zero, F.one])
    facs = factor_ff(g)
    assert [(fac.degree, m) for fac, m in facs] == [(1, 1)] * 4


def test_factor_over_gf8_and_gf9():
    rng = seeded(31)
    for q in (8, 9):
        F = finite_field(q)
        for _ in range(40):
            coeffs = [F.from_index(rng.randrange(q)) for _ in range(rng.randrange(2, 7))]
            f = Polynomial(F, coeffs)
            if f.degree < 1:
                continue
            facs = factor_ff(f)
            assert multiply_back(F, f.lc, facs) == f
            for fac, _ in facs:
                assert is_irreducible_ff(fac)


def test_irreducibility_agrees_with_factor_ff_on_1000_random():
    rng = seeded(101)
    F = PrimeField(11)
    checked = 0
    while checked < 1000:
        f = random_poly(rng, F, rng.randrange(1, 8))
        if f.degree < 1:
            continue
        facs = factor_ff(f)
        single = len(facs) == 1 and facs[0][1] == 1
        assert is_irreducible_ff(f) == single
        assert gfp.is_irreducible(list(f.monic().coeffs), 11) == single
        checked += 1


def mobius(n):
    out, d = 1, 2
    while n > 1:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return out


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5, 7)
                                 for n in (1, 2, 3, 4)]
                         + [(q, n) for q in (8, 9) for n in (1, 2, 3)])
def test_irreducible_count_matches_gauss(q, n):
    # Gauss: (1/n) sum_{d | n} mu(d) q^(n/d) monic irreducibles of degree n;
    # e.g. exactly 3 quartics over GF(2)
    expected = sum(mobius(d) * q ** (n // d)
                   for d in range(1, n + 1) if n % d == 0) // n
    F = finite_field(q)
    monics = [Polynomial(F, [F.from_index(i // q ** k % q) for k in range(n)]
                         + [F.one]) for i in range(q ** n)]
    assert sum(is_irreducible_ff(f) for f in monics) == expected
    if isinstance(F, PrimeField):
        assert sum(gfp.is_irreducible(list(f.coeffs), q)
                   for f in monics) == expected


@pytest.mark.parametrize("q,top", [(4, 4), (8, 3), (9, 3)])
def test_ddf_and_irreducibility_match_trial_division(q, top):
    # every monic f of degree <= top over GF(q): on a squarefree f each
    # block of ddf is the product of the trial factors of its degree, and
    # on every f, squares included, is_irreducible_ff is trial division's
    F = finite_field(q)
    one = Polynomial.constant(F, F.one)
    for n in range(1, top + 1):
        for f in all_monic_polys(F, n):
            _, trial = factors_by_trial(f)
            assert is_irreducible_ff(f) == (trial == [(f, 1)]), f
            if any(m > 1 for _, m in trial):
                continue
            by_degree = {}
            for g, _ in trial:
                by_degree[g.degree] = by_degree.get(g.degree, one) * g
            for d, block in ddf(list(f.coeffs), F.p, F):
                assert Polynomial(F, block) == by_degree.pop(d, one), (f, d)
            assert not by_degree, f


def test_errors():
    with pytest.raises(CoverSpecError):
        factor_ff(Polynomial(PrimeField(5), ()))
    with pytest.raises(DomainMismatchError):
        factor_ff(P(QQ, 1, 1))
    with pytest.raises(DomainMismatchError):
        is_irreducible_ff(P(QQ, 1, 1))


def test_squarefree_decomposition_properties():
    rng = seeded(61)
    F = PrimeField(3)
    for _ in range(200):
        f = random_poly(rng, F, rng.randrange(1, 8))
        parts = squarefree_decomposition(f)
        acc = Polynomial.constant(F, f.lc)
        for g, m in parts:
            acc = acc * g ** m
            assert g.lc == 1
            assert poly_gcd(g, g.derivative()).degree == 0 or g.derivative().is_zero
        assert acc == f
        for (g1, _), (g2, _) in zip(parts, parts[1:]):
            assert poly_gcd(g1, g2).degree == 0


def test_squarefree_decomposition_matches_yun():
    # a squarefree f returns at once; every f gives what Yun's loop gives,
    # on products of drawn factors to drawn powers, p-th powers included
    rng = seeded(71)

    def draw(dom, degree):
        if dom == QQ:
            values = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                      for _ in range(degree + 1)]
        else:
            values = [dom.from_index(rng.randrange(dom.order))
                      for _ in range(degree + 1)]
        return Polynomial(dom, values[:-1] + [dom.one])

    for dom in (QQ, PrimeField(5), finite_field(9), finite_field(25)):
        kinds = set()
        for _ in range(60):
            f = Polynomial.constant(dom, dom.one)
            for _ in range(rng.randrange(1, 4)):
                m = rng.choice((1, 1, 2, 3, dom.char or 4, 2 * (dom.char or 2)))
                f = f * draw(dom, rng.randrange(1, 4)) ** m
            f = f.scale(Fraction(rng.choice((-3, 2, 5)), 7) if dom == QQ
                        else dom.from_index(rng.randrange(1, dom.order)))
            kinds.add(poly_gcd(f, f.derivative()).degree == 0)
            assert squarefree_decomposition(f) == \
                squarefree_decomposition_by_yun(f)
        assert kinds == {True, False}


def test_squarefree_part():
    F = PrimeField(5)
    f = P(F, 0, 1) ** 2 * P(F, 1, 1)
    assert squarefree_part(f) == P(F, 0, 1) * P(F, 1, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 101, 343, 9409])
def test_factor_ff_matches_the_polynomial_factorizer(q):
    # the int-list factorizer against the earlier one on Polynomial objects
    # (oracles), at drawn seeds, on products of drawn monic factors to
    # drawn powers, p-th powers and repeated factors included; the factors
    # multiply back to the input
    F, rng = finite_field(q), seeded(q + 500)
    powers = set()
    for _ in range(20):
        f = Polynomial.constant(F, F.from_index(rng.randrange(1, q)))
        for _ in range(rng.randrange(1, 4)):
            m = rng.choice((1, 1, 2, 3, F.char, 2 * F.char))
            top = max(1, min(4, 24 // m))  # p-th powers of large p stay small
            g = [F.from_index(rng.randrange(q))
                 for _ in range(rng.randrange(1, top + 1))]
            f = f * Polynomial(F, g + [F.one]) ** m
            powers.add(m % F.char == 0)
        seed = rng.randrange(1000)
        facs = factor_ff(f, seed=seed)
        assert facs == factor_ff_by_polynomials(f, seed), (f, seed)
        assert multiply_back(F, f.lc, facs) == f
    assert powers == {True, False}


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_int_list_squarefree_matches_yun(p):
    # gfp.squarefree over GF(p) on int lists, and over Z on primitive ones,
    # against Yun's loop on Polynomial objects
    F, rng = PrimeField(p), seeded(p + 600)
    for _ in range(60):
        f, z = [1], [rng.choice((-2, 1, 3))]
        for _ in range(rng.randrange(1, 4)):
            g = [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]
            h = [rng.randrange(-4, 5) for _ in range(len(g) - 1)] + [
                rng.choice((1, 2, 3))]
            for _ in range(rng.choice((1, 2, 3, p, 2 * p) if p < 10
                                      else (1, 2, 3))):
                f, z = gfp.mul(f, g, p), gfp.zmul(z, h)
        assert [(Polynomial(F, g), m) for g, m in gfp.squarefree(f, F)] \
            == squarefree_decomposition_by_yun(Polynomial(F, f))
        parts = gfp.squarefree(gfp.zprimitive(z))
        assert all(g == gfp.zprimitive(g) for g, _ in parts)
        assert [(Polynomial.of(QQ, g).monic(), m) for g, m in parts] \
            == squarefree_decomposition_by_yun(Polynomial.of(QQ, z))
