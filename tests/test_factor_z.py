from fractions import Fraction

import pytest

from coverspec import factor, gfp
from coverspec.errors import CoverSpecError, DegreeLimitError, DomainMismatchError
from coverspec.fields import QQ, PrimeField
from coverspec.factor import (
    factor_ff, factor_monic_z, factor_z, squarefree_decomposition,
    squarefree_part)
from coverspec.poly import Polynomial

from oracles import factor_squarefree_z_by_restarts, seeded


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


# x^4 - 10x^2 + 1, the minimal polynomial of sqrt(2) + sqrt(3), and x^4 + 1
# split into factors of degree at most 2 mod every prime, so products with
# them leave recombination several hits to find among many lifted factors
SPLIT_EVERYWHERE = [P(1, 0, -10, 0, 1), P(1, 0, 0, 0, 1)]
IRREDUCIBLES = SPLIT_EVERYWHERE + [
    P(-1, 1), P(2, 1), P(Fraction(-1, 3), 1), P(Fraction(5, 7), 1),
    P(1, 0, 1), P(-2, 0, 1), P(-3, 0, 1), P(-6, 0, 1), P(1, 1, 1),
    P(Fraction(-1, 2), 0, 1), P(-1, -1, 0, 1), P(-2, 0, 0, 1),
    P(1, 0, -4, 0, 1), P(Fraction(1, 81), 0, Fraction(-10, 9), 0, 1)]


def squarefree_draws(seed, count):
    """Products of distinct irreducibles from IRREDUCIBLES, each shifted
    by X -> X + c for a seeded c, times a seeded constant: squarefree,
    and half of them with a factor that splits mod every prime."""
    rng = seeded(seed)
    x = P(0, 1)
    for k in range(count):
        picks = rng.sample(IRREDUCIBLES, rng.randrange(1, 5))
        if k % 2:
            picks[0] = rng.choice(SPLIT_EVERYWHERE)
            picks = list({g.coeffs: g for g in picks}.values())
        shift = x + P(Fraction(rng.randrange(-3, 4), rng.choice([1, 2])))
        f = P(Fraction(rng.choice([-5, -1, 1, 3]), rng.choice([1, 4])))
        for g in picks:
            f = f * _compose(g, shift)
        yield f


def _compose(g, h):
    """g(h) by Horner."""
    acc = P(0)
    for c in reversed(g.coeffs):
        acc = acc * h + P(c)
    return acc


def test_factor_z_matches_the_restarting_recombination():
    # factor_z against the earlier Zassenhaus loop, which lifted linearly
    # and went back to subsets of size 1 after each hit, on squarefree
    # products including x^4 - 10x^2 + 1 and x^4 + 1 and their products
    for f in squarefree_draws(97, 60):
        expected = sorted(factor_squarefree_z_by_restarts(f.monic()),
                          key=lambda g: (g.degree, g.coeffs))
        assert factor_z(f) == [(g, 1) for g in expected]
    swinnerton_dyer = P(1, 0, -10, 0, 1) * P(-5, 0, 1) * P(-7, 0, 1)
    assert [g for g, _ in factor_z(swinnerton_dyer)] == sorted(
        factor_squarefree_z_by_restarts(swinnerton_dyer),
        key=lambda g: (g.degree, g.coeffs))


def test_recombination_tries_each_subset_once(monkeypatch):
    # every candidate product the recombination divides by is new: after a
    # hit it keeps its subset size, and a product that failed to divide G
    # divides no later quotient of G.  The restarting loop retries some.
    tried = []
    divide = gfp.zexact_div

    def recording(a, b):
        tried.append(tuple(b))
        return divide(a, b)

    monkeypatch.setattr(gfp, "zexact_div", recording)
    retried = 0
    for f in squarefree_draws(101, 40):
        tried.clear()
        factor_z(f)
        assert len(tried) == len(set(tried))
        tried.clear()
        factor_squarefree_z_by_restarts(f.monic())
        retried += len(tried) - len(set(tried))
    assert retried > 0


def test_factor_monic_z_scales_back_once():
    # g = G(L X) / L^n for the monic int list G of gfp.zmonic: the factors
    # of g, sorted, each once, and the cap with factor_z's message
    g = P(Fraction(-1, 3), Fraction(1, 6), 1) * P(Fraction(1, 4), 0, 1)
    G, L = gfp.zmonic(g.integral_model()[1])
    assert G[-1] == 1 and L == 24
    assert factor_monic_z(G, L) == factor_z(g) == [
        (P(Fraction(-1, 2), 1), 1), (P(Fraction(2, 3), 1), 1),
        (P(Fraction(1, 4), 0, 1), 1)]
    assert factor_monic_z([5, 1], 7) == [(P(Fraction(5, 7), 1), 1)]
    with pytest.raises(DegreeLimitError) as error:
        factor_monic_z([1] + [0] * 24 + [1], 1)
    assert str(error.value) == "degree 25 exceeds the recombination cap 24"
    assert factor.FACTOR_Z_DEGREE_CAP == 24
