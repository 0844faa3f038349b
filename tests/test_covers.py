import time
from fractions import Fraction
from itertools import takewhile
from math import lcm

import pytest

from coverspec import covers, gfp
from coverspec.covers import (
    BivariateCover, FamilyTag, bad_primes,
    constant_c, good_prime_reasons,
    infinity_branched_raw, is_morse, make_morse_cover, make_trinomial_alt,
    make_trinomial_general, make_trinomial_simple, reduce_mod)
from coverspec.errors import (
    BadPrimeError, CoverSpecError, DomainMismatchError, FamilyConstraintError,
    InseparableCoverError, NotMorseError, RamifiedPointError)
from coverspec.factor import factor_z, squarefree_part
from coverspec.fields import (
    QQ, ExtField, PrimeField, default_modulus, finite_field)
from coverspec.numutil import primes_from
from coverspec.parsing import parse_bivariate, univariate_in_y
from coverspec.poly import Polynomial, PolyRing, poly_gcd, resultant
from coverspec.specialize import fibers_with_pattern, specialize_pattern

from oracles import (
    eager_branch_data, factors_by_trial, good_prime_reasons_by_reduction,
    infinity_branched_chart, raw_rows, reduce_by_rebuilding, seeded)


def bivar(base, *t_polys):
    """Build sum of t_polys[i] * Y^i from low-first lists of T-coefficients."""
    ring = PolyRing(base)
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
    ring = PolyRing(QQ)
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


FAMILY_TEXTS = [
    (lambda base: make_trinomial_simple(2, base), "Y^2 - Y - T"),
    (lambda base: make_trinomial_simple(5, base), "Y^5 - Y - T"),
    (lambda base: make_trinomial_alt(2, base), "Y^2 - Y - T"),
    (lambda base: make_trinomial_alt(4, base), "Y^4 - Y^3 - T"),
    (lambda base: make_trinomial_general(3, 1, 1, 2, base), "Y^3 - T*Y + T^2"),
    (lambda base: make_trinomial_general(5, 2, 1, 2, base),
     "Y^5 - T*Y^2 + T^2"),
    (lambda base: make_morse_cover(
        univariate_in_y(parse_bivariate("Y^3 - Y", base))), "Y^3 - Y - T"),
    (lambda base: make_morse_cover(
        univariate_in_y(parse_bivariate("Y^4 + 2*Y^3 + 3*Y + 5", base))),
     "Y^4 + 2*Y^3 + 3*Y + 5 - T"),
]


@pytest.mark.parametrize("q", [0, 101, 49])
def test_family_polynomials_match_their_text(q):
    # every family constructor builds the P that its text parses to
    base = QQ if q == 0 else finite_field(q)
    for make, text in FAMILY_TEXTS:
        assert make(base).P == parse_bivariate(text, base), (text, base)


# ------------------------------------------------------------- morse

@pytest.mark.parametrize("q", [0, 101, 49])
def test_morse_matches_the_resultant_of_its_text(q):
    # is_morse against Res_Y(M(Y) - T, M'(Y)) from the parsed texts of
    # M - T and M', on Morse M and on M with a double critical point or
    # two equal critical values
    base = QQ if q == 0 else finite_field(q)
    verdicts = []
    for M, dM in (("Y^3 - Y", "3*Y^2 - 1"), ("Y^3", "3*Y^2"),
                  ("Y^4 - 2*Y^2", "4*Y^3 - 4*Y"),
                  ("Y^4 + 2*Y^3 + 3*Y + 5", "4*Y^3 + 6*Y^2 + 3")):
        R = resultant(parse_bivariate(M + " - T", base),
                      parse_bivariate(dM, base))
        dR = R.derivative()
        g = R.monic() if dR.is_zero else poly_gcd(R, dR)
        verdict = R.degree == univariate_in_y(
            parse_bivariate(M, base)).degree - 1 and g.degree == 0
        assert is_morse(univariate_in_y(parse_bivariate(M, base))) == (
            verdict, {"critical_resultant": R, "repeated_part": g}), M
        verdicts.append(verdict)
    assert verdicts == [True, False, False, True]


def test_morse_over_qq_matches_the_generic_resultant():
    # over QQ is_morse reads Res_Y(M - T, M') off the cover's integer
    # model; on drawn cubics and quartics, Morse or not, monic or not, the
    # witness is that of the generic resultant over PolyRing(QQ)
    rng, ring, verdicts = seeded(83), PolyRing(QQ), set()
    for _ in range(80):
        n = rng.choice((3, 4))
        M = Polynomial(QQ, [Fraction(rng.randrange(-6, 7) * rng.randrange(2),
                                     rng.randrange(1, 5)) for _ in range(n)]
                       + [Fraction(rng.choice((1, -2, 3)), rng.randrange(1, 4))])
        if n == 3 and rng.random() < 0.3:  # a^2 = 3b: a double critical point
            a = Fraction(rng.randrange(-6, 7) * 3)
            M = Polynomial(QQ, [M.coeffs[0], a * a / 3, a, Fraction(1)])
        R = resultant(covers._minus_t(M),
                      M.derivative().map_coeffs(ring.coerce, ring))
        dR = R.derivative()
        g = R.monic() if dR.is_zero else poly_gcd(R, dR)
        verdict = R.degree == n - 1 and g.degree == 0
        assert is_morse(M) == (
            verdict, {"critical_resultant": R, "repeated_part": g}), M
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q", [0, 1009, 343, 32])
def test_morse_resultant_is_read_off_the_cover_disc(monkeypatch, q):
    # Res_Y(M(Y) - T, M'(Y)) = (-1)^(n(n-1)/2) lc(M)^(2n-1) disc_Y(P) for
    # P = (M(Y) - T)/lc(M): the witness is the generic resultant for
    # non-monic M of degree 2..6, and make_morse_cover's cover, whose disc
    # and D are the eager ones, reads D with no second subresultant
    base, rng = QQ if q == 0 else finite_field(q), seeded(q + 5)
    ring, verdicts = PolyRing(base), set()

    def draw():
        if q == 0:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        return base.from_index(rng.randrange(q))
    calls, subresultant = [], gfp.subresultant

    def counting(a, b, R):
        calls.append(R)
        return subresultant(a, b, R)
    monkeypatch.setattr(gfp, "subresultant", counting)
    for n in range(2, 7):
        if base.char and n % base.char == 0:
            continue
        for _ in range(4):
            lc = draw()
            while base.is_zero(lc) or lc == base.one:
                lc = draw()
            M = Polynomial(base, [draw() for _ in range(n)] + [lc])
            R = resultant(covers._minus_t(M),
                          M.derivative().map_coeffs(ring.coerce, ring))
            verdict, witness = is_morse(M)
            assert witness["critical_resultant"] == R, M
            verdicts.add(verdict)
            if verdict:
                calls.clear()
                cover = make_morse_cover(M)
                cover.D
                assert len(calls) == 1, M
                assert (cover.disc, cover.D) == eager_branch_data(cover.P)[:2]
    assert (True in verdicts) == (base.char != 2)  # M' is a square in char 2


@pytest.mark.parametrize("q", [5, 7, 25, 49])
def test_d_over_gf_q_divides_out_the_power_of_t(q):
    # D = T * sqfree(disc / T^k) when T^k divides disc_Y, here with
    # k >= p, against the squarefree part of the whole discriminant
    F, deep = finite_field(q), 0
    for text in ("Y^3 - T^3*Y + T^5", "Y^3 - T^4*Y + T^7", "Y^2 - T^11",
                 "Y^4 - T^3*Y + T^9", "Y^3 - Y - T", "Y^5 - T^2*Y^2 + T^3"):
        cover = BivariateCover(parse_bivariate(text, F))
        disc = cover.disc
        k = len(list(takewhile(F.is_zero, disc.coeffs)))
        deep += k >= F.p
        assert cover.D == squarefree_part(disc), (text, q)
        assert cover.D.eval(F.zero) == F.zero or k == 0
    assert deep >= 3


@pytest.mark.parametrize("q", [7, 9, 49, 101, 125])
def test_squarefree_fiber_over_gf_q_matches_poly_gcd(q):
    # squarefree_fiber over GF(q) takes one gfp.qgcd of the raw fiber and
    # its derivative; at every point it says what poly_gcd says, a true
    # answer is the raw fiber itself, and a point where it is false is
    # refused as ramified
    F, seen = finite_field(q), set()
    for text in ("Y^5 - Y - T", "Y^3 + T*Y^2 - T^2*Y + T + 1"):
        cover = BivariateCover(parse_bivariate(text, F))
        for t in F.elements():
            f = cover.specialized(t)
            expected = poly_gcd(f, f.derivative()).degree == 0
            fiber = cover.squarefree_fiber(t)
            assert bool(fiber) == expected, (text, t)
            assert fiber == cover.fiber(t) if expected else fiber is False
            seen.add(expected)
            if not expected:
                with pytest.raises(RamifiedPointError):
                    specialize_pattern(cover, t)
    assert seen == {True, False}


def test_morse_cubic_true():
    assert is_morse(Polynomial.of(QQ, [0, -1, 0, 1]))[0]  # Y^3 - Y


def test_morse_pure_cube_false():
    # R(T) = 27T^2 up to the sign convention (double root either way)
    ok, witness = is_morse(Polynomial.of(QQ, [0, 0, 0, 1]))
    assert not ok
    R = witness["critical_resultant"]
    assert R.degree == 2
    assert R in (Polynomial.of(QQ, [0, 0, 27]), Polynomial.of(QQ, [0, 0, -27]))


def test_morse_equal_critical_values_false():
    # Y^4 - 2Y^2 takes the value -1 at both critical points 1 and -1
    assert not is_morse(Polynomial.of(QQ, [0, 0, -2, 0, 1]))[0]


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
        assert is_morse(M)[0] == morse_oracle_ff(M), M


# ------------------------------------------------------------- branch locus

def test_branch_locus_examples():
    c = BivariateCover(simple_cubic().P)
    assert c.D == Polynomial.of(QQ, [-4, 0, 27])
    assert c.infinity_branched
    c = BivariateCover(bivar(QQ, [0, -1], [], [1]))  # Y^2 - T
    assert c.D == Polynomial.of(QQ, [0, 1])
    assert c.infinity_branched


def test_infinity_test_unbranched_case():
    # Y^2 - (T^2 + 1) has two points above infinity, both rational in 1/T
    P = bivar(QQ, [-1, 0, -1], [], [1])
    assert not infinity_branched_raw(raw_rows(P), QQ)
    c = BivariateCover(P)
    assert c.branch_point_count == 2  # roots of T^2 + 1 only


@pytest.mark.parametrize("q", [0, 2, 3, 5, 9])
def test_infinity_test_matches_the_chart(q):
    # the chart fiber's gcd with its derivative against the bivariate
    # discriminant at S = 0, with a chart fiber whose derivative vanishes
    base = QQ if q == 0 else finite_field(q)
    ring = PolyRing(base)
    rng = seeded(f"infinity:{q}")

    def value():
        if q:
            return base.from_index(rng.randrange(q))
        return Fraction(rng.randint(-3, 3))

    outcomes = []
    for _ in range(40):
        rows = [Polynomial(base, [value() for _ in range(rng.randint(1, 4))])
                for _ in range(rng.randint(1, 5))]
        try:
            cover = BivariateCover(Polynomial(ring, rows + [ring.one]))
        except CoverSpecError:
            continue  # constant in T, or inseparable
        outcomes.append(cover.infinity_branched)
        assert outcomes[-1] == infinity_branched_chart(cover.P), cover
    assert len(outcomes) >= 20 and any(outcomes) and not all(outcomes)
    if q in (3, 9):  # the chart fiber is Z^3 + 1, with derivative 0
        cover = BivariateCover(parse_bivariate("Y^3 + T*Y + T^3", base))
        assert cover.infinity_branched and infinity_branched_chart(cover.P)


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
    assert 3 in bad_primes(c)


def test_disc_content_checked_for_every_degree():
    # mod 5 the cubic Y^3 - 15T + 5 is Y^3, which does not involve T,
    # although its branch locus 3T - 1 stays squarefree mod 5
    c = content_cubic()
    assert c.D == Polynomial.of(QQ, [-1, 3])
    assert any("content" in r for r in good_prime_reasons(c, 5))
    assert {3, 5} <= set(bad_primes(c))
    with pytest.raises(BadPrimeError):
        reduce_mod(c, 5)
    assert reduce_mod(c, 7).n == 3


def test_bad_primes_match_scan():
    for c in (simple_cubic(),
              make_trinomial_general(3, 1, 1, 2),
              make_trinomial_alt(3),
              BivariateCover(bivar(QQ, [0, -9], [], [1])),
              content_cubic(),
              make_morse_cover(Polynomial.of(QQ, [0, -1, 0, 1]))):
        assert bad_primes(c) == [
            p for p in primes_below(1000)
            if good_prime_reasons_by_reduction(c, p)]


def primes_below(bound):
    return list(takewhile(lambda p: p < bound, primes_from(2)))


def random_rational_covers(count, seed):
    """Seeded covers Y^n + ... for n <= 4 with Y-coefficients of T-degree
    <= 2, numerators |a| <= 30 and now and then a denominator 2, 3 or 5."""
    rng = seeded(seed)
    covers = []
    while len(covers) < count:
        rows = [[Fraction(rng.randint(-30, 30), rng.choice((1, 1, 1, 2, 3, 5)))
                 for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(2, 4))]
        try:
            covers.append(BivariateCover(bivar(QQ, *rows, [1])))
        except CoverSpecError:
            continue  # constant in T, or inseparable
    return covers


def test_good_prime_reasons_match_reduction_oracle():
    # the cover's integer invariants against the reasons read off P mod p
    seen = set()
    for c in gate_covers() + random_rational_covers(63, seed=5):
        assert c.D.degree >= 1  # the oracle calls every p bad for constant D
        for p in primes_below(1000):
            reasons = good_prime_reasons(c, p)
            assert reasons == good_prime_reasons_by_reduction(c, p), (c, p)
            seen.update(" ".join(w for w in r.split() if not w.isdigit())
                        for r in reasons)
    assert len(seen) == 5  # every reason occurs


def test_cover_without_finite_branch_points():
    # (Y + T/2)^2 + 1 has disc_Y = -4, so D = 1: no finite branch point
    # can coalesce, and only p = 2 is bad
    c = BivariateCover(bivar(QQ, [1, 0, Fraction(1, 4)], [0, 1], [1]))
    assert c.D.degree == 0
    assert good_prime_reasons(c, 7) == []
    assert bad_primes(c) == [2]
    assert reduce_mod(c, 7).D.degree == 0


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
    # built once per good (cover, p); a bad p raises on every call
    assert reduce_mod(c, 5) is c5
    assert reduce_mod(simple_cubic(), 5) is not c5
    for _ in range(2):
        with pytest.raises(BadPrimeError, match="p = 3 is bad"):
            reduce_mod(c, 3)
    assert c._reductions == {5: c5}


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


def good_reductions():
    """(cover, p) for every good p < 1000 on the gate covers."""
    for c in gate_covers():
        for p in primes_below(1000):
            if not good_prime_reasons(c, p):
                yield c, p


def test_reduced_branch_locus_is_rational_locus_mod_p():
    # at a good prime the squarefree part over GF(p) of the reduced
    # disc_Y(P) must equal the rational D read mod p and made monic, which
    # is how reduce_mod builds it
    checks = 0
    for c, p in good_reductions():
        F = PrimeField(p)
        assert squarefree_part(reduce_mod(c, p).disc) == \
            c.D.map_coeffs(F.coerce, F).monic(), (c, p)
        checks += 1
    assert checks == 2977  # 2812 on the families, 165 on the raw cover


def test_reduce_mod_matches_rebuilding():
    # reduce_mod maps the rational cover's data mod p; a BivariateCover
    # built from P mod p derives disc and D over GF(p) itself
    checks = 0
    for c, p in good_reductions():
        fast, slow = reduce_mod(c, p), reduce_by_rebuilding(c, p)
        for name in ("P", "disc", "D", "n", "base", "infinity_branched",
                     "finite_branch_points", "tag", "params"):
            assert getattr(fast, name) == getattr(slow, name), (c, p, name)
        assert fast._reductions == {}
        checks += 1
    assert checks == 2977


def integral_model_covers():
    """Seeded covers over QQ, three for each n = 2..7, with Y-rows of
    T-degree <= 4 and denominators 2..7 among 1s, then the gate covers."""
    rng = seeded("integral-model")
    covers = []
    for n in range(2, 8):
        drawn = 0
        while drawn < 3:
            rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4,
                                                              5, 6, 7)))
                     for _ in range(rng.randint(0, 5))] for _ in range(n)]
            try:
                covers.append(BivariateCover(bivar(QQ, *rows, [1])))
            except CoverSpecError:
                continue  # constant in T, or inseparable
            drawn += 1
    return covers + gate_covers()


def test_integral_model_matches_the_generic_path():
    # disc_Y and D from F = L*P against the generic subresultant over QQ[T]
    # and the generic squarefree decomposition; the bad-prime invariants,
    # reduce_mod and integral_fiber against P read coefficient by
    # coefficient
    seen, reductions = set(), 0
    for c in integral_model_covers():
        disc, D, _ = eager_branch_data(c.P)
        assert (c.disc, c.D) == (disc, D), c
        assert c._disc_model == disc.integral_model(), c
        for p in primes_below(200):
            reasons = good_prime_reasons(c, p)
            if D.degree >= 1:  # the oracle calls every p bad for constant D
                assert reasons == good_prime_reasons_by_reduction(c, p)
            seen.update(" ".join(w for w in r.split() if not w.isdigit())
                        for r in reasons)
            if not reasons:
                reductions += 1
                fast, slow = reduce_mod(c, p), reduce_by_rebuilding(c, p)
                for name in ("P", "disc", "D"):
                    assert getattr(fast, name) == getattr(slow, name), (c, p)
        L = lcm(*(x.denominator for row in c.P.coeffs for x in row.coeffs))
        e = max(row.degree for row in c.P.coeffs)
        for t in (Fraction(0), Fraction(-3), Fraction(5, 2), Fraction(-7, 9)):
            f, w, b = c.integral_fiber(t)
            E = L * b ** e
            assert f == [x * E ** (c.n - i)
                         for i, x in enumerate(c.specialized(t).coeffs)]
            scale = lcm(*(x.denominator for x in disc.coeffs)) * b ** (
                disc.degree)
            assert (b, w) == (t.denominator, scale ** 2 * disc.eval(t))
    assert len(seen) == 5 and reductions > 500


def test_reduce_mod_before_branch_data_is_read(monkeypatch):
    # a reduction taken from a fresh rational cover equals one taken after
    # every branch datum was read, and neither runs the infinity test over
    # GF(p): the reduction carries the rational cover's own
    tested = []
    infinity = covers.infinity_branched_raw
    monkeypatch.setattr(covers, "infinity_branched_raw",
                        lambda rows, base: tested.append(base) or infinity(
                            rows, base))

    def fresh(c):
        return BivariateCover(c.P, c.tag, c.finite_branch_points, c.params)

    checks = 0
    for c in gate_covers() + random_rational_covers(20, seed=34):
        for p in primes_below(60):
            if good_prime_reasons(c, p):
                continue
            early, read = reduce_mod(fresh(c), p), fresh(c)
            bound = constant_c(read)  # reads disc, D and the infinity test
            late = reduce_mod(read, p)
            for name in ("P", "disc", "D", "infinity_branched",
                         "branch_point_count"):
                assert getattr(early, name) == getattr(late, name), (c, p)
            assert constant_c(early) == constant_c(late) == bound
            checks += 1
    assert checks > 300
    assert set(tested) == {QQ}


def test_reduce_mod_and_fiber_build_no_polynomial(monkeypatch):
    # a reduction is rows and raw branch lists read mod p off the rational
    # cover's integer model, and a fiber is a raw list on every finite
    # base: neither builds a Polynomial until P, disc or D is read
    rational = gate_covers()
    for c in rational:
        bad_primes(c), c.infinity_branched  # the rational data, read first
    finite = [BivariateCover(parse_bivariate(text, finite_field(q)))
              for text, q in (("Y^3 + T*Y^2 - T^2*Y + T + 1", 49),
                              ("Y^4 - T^3*Y + T^9", 9))]
    built, init = [], Polynomial.__init__
    monkeypatch.setattr(Polynomial, "__init__",
                        lambda self, *args: built.append(args) or init(
                            self, *args))
    reductions = [reduce_mod(c, p) for c in rational for p in primes_below(40)
                  if not good_prime_reasons(c, p)]
    for cover in reductions + finite:
        for t in cover.base.elements():
            cover.fiber(t)
    assert built == [] and len(reductions) > 60
    assert not any({"P", "disc", "D"} & set(vars(r)) for r in reductions)


def test_monic_fiber_refuses_a_cover_over_a_finite_field():
    # a reduction keeps none of the rational cover's integer model, and
    # neither it nor a cover built over GF(7) builds a rational fiber
    reduced = reduce_mod(simple_cubic(), 7)
    assert not {"_integral_rows", "_disc_model"} & set(vars(reduced))
    for cover in (reduced, make_trinomial_simple(3, PrimeField(7))):
        for read in (cover.monic_fiber, cover.integral_fiber):
            with pytest.raises(DomainMismatchError):
                read(2)


BRANCH_DATA = {"disc", "D", "disc_coeffs", "D_coeffs", "_disc_model"}


def test_a_point_test_builds_no_branch_data():
    # is_branch_point and the scan of fibers_with_pattern, off the sweep
    # shape, read one fiber per point: disc_Y(P) and D of this cover over
    # QQ took 1.84 s to build, its fiber's gcd at t0 = 3 about 0.2 ms
    text = ("Y^20 + (T^2+1)*Y^17 + (3*T - 2)*Y^9 + (T^3 + T)*Y^5 - T*Y^2"
            " - T^2 + 5")
    cover = BivariateCover(parse_bivariate(text))
    start = time.perf_counter()
    assert cover.is_branch_point(3) is False
    assert time.perf_counter() - start < 0.5
    assert not BRANCH_DATA & set(vars(cover))
    cover = BivariateCover(parse_bivariate(text, PrimeField(101)))
    assert cover.sweep_shape() is None
    t = next(t for t in cover.base.elements() if not cover.is_branch_point(t))
    target = specialize_pattern(cover, t)
    assert next(fibers_with_pattern(cover, target)) == t
    assert not BRANCH_DATA & set(vars(cover))


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
