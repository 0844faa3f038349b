import pytest

from coverspec import gfp
from coverspec.errors import CoverSpecError, DomainMismatchError
from coverspec.fields import QQ, PrimeField, finite_field
from coverspec.factor import (
    factor_ff, is_irreducible_ff, squarefree_decomposition, squarefree_part)
from coverspec.poly import Polynomial, poly_gcd

from oracles import factors_by_trial, random_poly, seeded


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
    # (Y + 1)^5 over GF(5) has identically zero derivative
    F = PrimeField(5)
    f = P(F, 1, 1) ** 5
    assert factor_ff(f) == [(P(F, 1, 1), 5)]


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
                                 for n in (1, 2, 3, 4)])
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


def test_squarefree_part():
    F = PrimeField(5)
    f = P(F, 0, 1) ** 2 * P(F, 1, 1)
    assert squarefree_part(f) == P(F, 0, 1) * P(F, 1, 1)
