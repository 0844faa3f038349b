from fractions import Fraction
from math import lcm

import pytest

from coverspec.covers import (
    BivariateCover, FamilyTag, bad_primes_radical, bad_primes_up_to,
    bivariate_ring, branch_locus, constant_c, good_prime_reasons,
    infinity_branched_raw, is_morse, make_morse_cover, make_trinomial_alt,
    make_trinomial_general, make_trinomial_simple, reduce_mod)
from coverspec.errors import (
    BadPrimeError, CoverSpecError, FamilyConstraintError,
    InseparableCoverError, NotMorseError)
from coverspec.factor import factor_z
from coverspec.fields import QQ, ExtField, PrimeField, default_modulus
from coverspec.numutil import prime_factors, primes_from
from coverspec.poly import Polynomial, PolyRing

from oracles import factors_by_trial, seeded


def bivar(base, *t_polys):
    """Build sum of t_polys[i] * Y^i from low-first lists of T-coefficients."""
    ring = bivariate_ring(base)
    coeffs = [Polynomial.of(base, c) if not isinstance(c, Polynomial) else c
              for c in t_polys]
    return Polynomial(ring, coeffs)


def simple_cubic():
    return make_trinomial_simple(3, QQ)


def content_cubic():
    # Y^3 - 15T + 5: disc_Y = -675 (3T - 1)^2, content 675 = 3^3 5^2
    return BivariateCover(bivar(QQ, [5, -15], [], [], [1]))


def rational_roots(D):
    roots = []
    for g, _ in factor_z(D):
        if g.degree == 1:
            roots.append(-g.coeffs[0])
    return sorted(roots)


# ------------------------------------------------------------- construction

def test_cover_normalizes_monic():
    # 2Y^2 - T becomes Y^2 - T/2
    c = BivariateCover(bivar(QQ, [0, -1], [], [2]))
    assert c.P.lc == Polynomial.of(QQ, [1])
    assert c.n == 2


def test_cover_rejects_nonconstant_leading_coefficient():
    ring = bivariate_ring(QQ)
    T = Polynomial.variable(QQ)
    P = Polynomial(ring, [ring.coerce(-1), ring.zero, T])  # T*Y^2 - 1
    with pytest.raises(CoverSpecError):
        BivariateCover(P)


def test_cover_rejects_no_t_dependence():
    with pytest.raises(CoverSpecError):
        BivariateCover(bivar(QQ, [1], [0], [1]))  # Y^2 + 1


def test_cover_rejects_inseparable():
    # (Y - T)^2 has identically vanishing discriminant
    with pytest.raises(InseparableCoverError):
        BivariateCover(bivar(QQ, [0, 0, 1], [0, -2], [1]))


# ------------------------------------------------------------- families

def test_trinomial_general_312_accepted():
    c = make_trinomial_general(3, 1, 1, 2)
    assert c.tag is FamilyTag.TRINOMIAL_GENERAL
    # finite branch points 0 and 4/27 = m^m n^-n (n-m)^(n-m)
    assert c.finite_branch_points == (Fraction(0), Fraction(4, 27))
    assert rational_roots(c.D) == [Fraction(0), Fraction(4, 27)]
    assert c.D.degree == 2
    assert c.infinity_branched


def test_trinomial_general_parameter_identity_rejected():
    # s(n-m) - rn = 1*(3-1) - 1*3 = -1
    with pytest.raises(FamilyConstraintError) as err:
        make_trinomial_general(3, 1, 1, 1)
    assert err.value.constraint == "parameter-identity"


def test_trinomial_general_gcd_rejected():
    with pytest.raises(FamilyConstraintError) as err:
        make_trinomial_general(4, 2, 1, 1)
    assert err.value.constraint == "coprimality"


def test_trinomial_general_characteristic_rejected():
    with pytest.raises(FamilyConstraintError) as err:
        make_trinomial_general(3, 1, 1, 2, PrimeField(3))
    assert err.value.constraint == "characteristic"


def test_trinomial_general_52_branch_points():
    c = make_trinomial_general(5, 2, 1, 2)
    t0 = Fraction(2 ** 2 * 3 ** 3, 5 ** 5)
    assert c.finite_branch_points == (Fraction(0), t0)
    assert rational_roots(c.D) == [Fraction(0), t0]
    assert c.D.degree == 2


def test_trinomial_simple_cubic_branch_locus():
    c = simple_cubic()
    # squarefree part of 4 - 27T^2, integral with positive leading coefficient
    assert c.D == Polynomial.of(QQ, [-4, 0, 27])
    assert c.infinity_branched
    assert c.branch_point_count == 3


def test_trinomial_simple_characteristic():
    with pytest.raises(FamilyConstraintError):
        make_trinomial_simple(3, PrimeField(3))
    c = make_trinomial_simple(2, PrimeField(67))
    assert c.n == 2


def test_trinomial_alt_branch_points():
    c3 = make_trinomial_alt(3)
    assert c3.finite_branch_points == (Fraction(0), Fraction(-4, 27))
    assert rational_roots(c3.D) == [Fraction(-4, 27), Fraction(0)]
    c2 = make_trinomial_alt(2)
    assert c2.finite_branch_points == (Fraction(-1, 4),)
    assert rational_roots(c2.D) == [Fraction(-1, 4)]
    with pytest.raises(FamilyConstraintError):
        make_trinomial_alt(4, PrimeField(2))


def test_tagged_families_match_closed_form_lists_up_to_6():
    for n in range(3, 7):
        c = make_trinomial_alt(n)
        assert c.D.degree == len(c.finite_branch_points)
        for t in c.finite_branch_points:
            assert c.D.eval(t) == 0
    for (n, m, r, s) in [(3, 1, 1, 2), (5, 2, 1, 2), (5, 4, 1, 6), (2, 1, 1, 3)]:
        c = make_trinomial_general(n, m, r, s)
        assert c.D.degree == len(c.finite_branch_points)
        for t in c.finite_branch_points:
            assert c.D.eval(t) == 0


# ------------------------------------------------------------- morse

def test_morse_cubic_true():
    assert is_morse(Polynomial.of(QQ, [0, -1, 0, 1]))  # Y^3 - Y


def test_morse_pure_cube_false():
    # R(T) = 27T^2 up to the sign convention (double root either way)
    ok, witness = is_morse(Polynomial.of(QQ, [0, 0, 0, 1]), with_witness=True)
    assert not ok
    R = witness["critical_resultant"]
    assert R.degree == 2
    assert R in (Polynomial.of(QQ, [0, 0, 27]), Polynomial.of(QQ, [0, 0, -27]))


def test_morse_equal_critical_values_false():
    # Y^4 - 2Y^2 takes the value -1 at both critical points 1 and -1
    assert not is_morse(Polynomial.of(QQ, [0, 0, -2, 0, 1]))


def test_morse_characteristic_error():
    with pytest.raises(FamilyConstraintError):
        is_morse(Polynomial.of(PrimeField(3), [0, 1, 0, 1]))


def test_make_morse_cover():
    c = make_morse_cover(Polynomial.of(QQ, [0, -1, 0, 1]))
    assert c.tag is FamilyTag.MORSE
    assert c.infinity_branched
    assert c.D == Polynomial.of(QQ, [-4, 0, 27])
    with pytest.raises(NotMorseError) as err:
        make_morse_cover(Polynomial.of(QQ, [0, 0, 0, 1]))
    assert "critical_resultant" in err.value.witness


def morse_oracle_ff(M):
    """Enumerate the critical points in a splitting extension and test
    simplicity plus distinct critical values directly."""
    dom = M.domain
    Mp = M.derivative()
    _, facs = factors_by_trial(Mp)
    degs = [g.degree for g, _ in facs for _ in range(1)]
    if any(mult > 1 for _, mult in facs):
        return False  # repeated critical point
    ell = lcm(*degs) if degs else 1
    if ell == 1:
        L = dom
        lift = L.coerce
    else:
        L = ExtField(dom, default_modulus(dom.p, ell))
        lift = L.coerce
    Mp_L = Mp.map_coeffs(lambda c: lift(int(c)), L)
    M_L = M.map_coeffs(lambda c: lift(int(c)), L)
    roots = [x for x in L.elements() if L.is_zero(Mp_L.eval(x))]
    if len(roots) != Mp.degree:
        return False
    values = [M_L.eval(x) for x in roots]
    return len(set(values)) == len(values)


def test_morse_agrees_with_splitting_field_oracle():
    rng = seeded(77)
    cases = []
    for p in (5, 7, 11, 13):
        F = PrimeField(p)
        cases.append(Polynomial.of(F, [0, -1, 0, 1]))      # Y^3 - Y
        cases.append(Polynomial.of(F, [0, 0, 0, 1]))       # Y^3
        cases.append(Polynomial.of(F, [0, 1, 1]))          # Y^2 + Y
        for _ in range(6):
            deg = rng.choice([2, 3, 4])
            if F.char and deg % F.char == 0:
                continue
            coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
            cases.append(Polynomial(F, coeffs))
    for M in cases:
        if M.domain.char and M.degree % M.domain.char == 0:
            continue
        assert is_morse(M) == morse_oracle_ff(M), M


# ------------------------------------------------------------- branch locus

def test_branch_locus_examples():
    D, inf = branch_locus(simple_cubic().P)
    assert D == Polynomial.of(QQ, [-4, 0, 27])
    assert inf
    c = BivariateCover(bivar(QQ, [0, -1], [], [1]))  # Y^2 - T
    assert c.D == Polynomial.of(QQ, [0, 1])
    assert c.infinity_branched


def test_infinity_test_unbranched_case():
    # Y^2 - (T^2 + 1) has two points above infinity, both rational in 1/T
    P = bivar(QQ, [-1, 0, -1], [], [1])
    assert not infinity_branched_raw(P)
    c = BivariateCover(P)
    assert c.branch_point_count == 2  # roots of T^2 + 1 only


# ------------------------------------------------------------- good primes

def test_good_prime_examples():
    c = simple_cubic()
    assert good_prime_reasons(c, 5) == []
    reasons3 = good_prime_reasons(c, 3)
    assert any("3" in r or "coalesce" in r for r in reasons3)
    assert good_prime_reasons(c, 2)
    with pytest.raises(CoverSpecError):
        good_prime_reasons(c, 0)  # not prime, and never a division by zero


def test_good_prime_denominator_check():
    # Y^2 - Y/3 - T has a coefficient that is not 3-integral, and n = 2
    c = BivariateCover(bivar(QQ, [0, -1], [Fraction(-1, 3)], [1]))
    reasons = good_prime_reasons(c, 3)
    assert any("integral" in r for r in reasons)


def test_degree2_disc_content_check():
    # Y^2 - 9T: content of disc 36T is 36; p = 3 must be bad although
    # the branch locus T stays squarefree mod 3
    c = BivariateCover(bivar(QQ, [0, -9], [], [1]))
    reasons = good_prime_reasons(c, 3)
    assert any("content" in r for r in reasons)
    assert 3 in prime_factors(bad_primes_radical(c))


def test_disc_content_checked_for_every_degree():
    # mod 5 the cubic Y^3 - 15T + 5 is Y^3, which does not involve T,
    # although its branch locus 3T - 1 stays squarefree mod 5
    c = content_cubic()
    assert c.D == Polynomial.of(QQ, [-1, 3])
    assert any("content" in r for r in good_prime_reasons(c, 5))
    assert {3, 5} <= set(prime_factors(bad_primes_radical(c)))
    with pytest.raises(BadPrimeError):
        reduce_mod(c, 5)
    assert reduce_mod(c, 7).n == 3


def test_bad_primes_radical_matches_scan():
    for c in (simple_cubic(),
              make_trinomial_general(3, 1, 1, 2),
              make_trinomial_alt(3),
              BivariateCover(bivar(QQ, [0, -9], [], [1])),
              content_cubic(),
              make_morse_cover(Polynomial.of(QQ, [0, -1, 0, 1]))):
        rad = bad_primes_radical(c)
        assert sorted(prime_factors(rad)) == bad_primes_up_to(c, 1000)


def test_simple_cubic_good_for_all_primes_to_10000():
    c = simple_cubic()
    assert c.D.degree == 2
    for p in primes_from(5):
        if p > 10 ** 4:
            break
        assert not good_prime_reasons(c, p)


# ------------------------------------------------------------- reduction

def test_reduce_mod():
    c = simple_cubic()
    c5 = reduce_mod(c, 5)
    assert c5.base == PrimeField(5)
    assert c5.n == 3
    assert c5.D.monic() == c.D.map_coeffs(PrimeField(5).coerce, PrimeField(5)).monic()
    # built once per (cover, p); the stored reasons of a bad p raise again
    assert reduce_mod(c, 5) is c5
    assert reduce_mod(simple_cubic(), 5) is not c5
    for _ in range(2):
        with pytest.raises(BadPrimeError, match="p = 3 is bad"):
            reduce_mod(c, 3)


def gate_covers():
    """Every family constructor, plus the raw cover with disc content 675."""
    covers = []
    for n in range(2, 8):
        covers += [make_trinomial_simple(n), make_trinomial_alt(n)]
    for params in ((3, 1, 1, 2), (4, 1, 2, 3), (5, 2, 1, 2)):
        covers.append(make_trinomial_general(*params))
    for coeffs in ([0, -1, 0, 1], [0, 1, 0, 0, 1, 1]):
        covers.append(make_morse_cover(Polynomial.of(QQ, coeffs)))
    return covers + [content_cubic()]


def test_reduced_branch_locus_is_rational_locus_mod_p():
    # the GF(p) model recomputes D from disc_Y(P mod p); at a good prime
    # it must equal the rational D read mod p and made monic
    checks = 0
    for c in gate_covers():
        for p in primes_from(2):
            if p >= 1000:
                break
            if good_prime_reasons(c, p):
                continue
            F = PrimeField(p)
            assert reduce_mod(c, p).D == c.D.map_coeffs(F.coerce, F).monic(), \
                (c, p)
            checks += 1
    assert checks == 2977  # 2812 on the families, 165 on the raw cover


def test_specialized_fiber():
    c = simple_cubic()
    f = c.specialized(1)
    assert f == Polynomial.of(QQ, [-1, -1, 0, 1])  # Y^3 - Y - 1
    assert c.is_branch_point(Fraction(2, 27)) is False


# ------------------------------------------------------------- constants

def test_constant_c_examples():
    assert constant_c(simple_cubic()) == 1296  # r = 3, n = 3
    c = BivariateCover(bivar(QQ, [0, -1], [], [1]))  # Y^2 - T
    assert constant_c(c) == 64  # r = 2, n = 2


def test_constant_c_generic_degree2():
    # any degree-2 cover with two branch points gives 64
    c = BivariateCover(bivar(QQ, [1, -1], [], [1]))  # Y^2 - T + 1
    assert c.n == 2 and c.branch_point_count == 2
    assert constant_c(c) == 64
