import sys
from fractions import Fraction
from itertools import islice
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from coverspec import cli, factor, gfp, specialize
from coverspec.census import census
from coverspec.covers import (
    BivariateCover, is_morse, make_morse_cover,
    make_trinomial_alt, make_trinomial_general, make_trinomial_simple,
    reduce_mod)
from coverspec.errors import (
    BadPrimeError, CoverSpecError, DegreeLimitError, DomainMismatchError,
    FamilyConstraintError, InseparabilityError, InseparableCoverError,
    RamifiedPointError)
from coverspec.factor import factor_ff, factor_z, is_irreducible_ff
from coverspec.fields import QQ, PrimeField, finite_field
from coverspec.numutil import is_prime, primes_from
from coverspec.parsing import parse_bivariate
from coverspec.poly import Polynomial, PolyRing, poly_gcd
from coverspec.search import certify_sn
from coverspec.specialize import (
    EtaleAlgebraDescriptor, Partition, all_partitions, etale_algebra,
    fiber_patterns, residue_degrees_at, specialize_pattern)

from oracles import (
    count_table_builds, eager_branch_data, pattern_by_powering,
    quadratic_tally_pointwise, ramified_by_locus, reader_covers,
    residue_degrees_by_reduction, seeded)


def cubic():
    return make_trinomial_simple(3, QQ)


def quadratic():
    return make_trinomial_simple(2, QQ)


# ------------------------------------------------------------- Partition

def test_partition_canonical_order():
    assert Partition([1, 3, 2]).parts == (3, 2, 1)
    assert Partition((2, 1)).n == 3
    assert repr(Partition([2, 1])) == "{2,1}"


def test_partition_validation():
    with pytest.raises(CoverSpecError):
        Partition([])
    with pytest.raises(CoverSpecError):
        Partition([0, 2])


def test_partition_parse():
    assert Partition.parse("{2,1}") == Partition([2, 1])
    assert Partition.parse("3") == Partition([3])
    with pytest.raises(CoverSpecError):
        Partition.parse("{a}")


def test_partition_immutable_and_hashable():
    lam = Partition([2, 1])
    with pytest.raises(AttributeError):
        lam.parts = (3,)
    assert len({lam, Partition([1, 2]), Partition([3])}) == 2


def test_partition_is_its_tuple_of_parts():
    lam = Partition([1, 2])
    assert lam == (2, 1) and isinstance(lam, tuple)
    assert hash(lam) == hash((2, 1))
    assert sorted([Partition([3]), lam, Partition([1, 1, 1])]) == [
        (1, 1, 1), (2, 1), (3,)]
    assert str(lam) == "{2,1}"
    with pytest.raises(AttributeError):
        lam.n = 4
    with pytest.raises(CoverSpecError) as err:
        Partition([2, 0])
    assert str(err.value) == "partition parts must be positive: (2, 0)"


def test_all_partitions_counts():
    # partition numbers 1, 2, 3, 5, 7, 11
    for n, count in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)]:
        parts = all_partitions(n)
        assert len(parts) == count
        assert len(set(parts)) == count
        assert all(lam.n == n for lam in parts)


# ------------------------------------------------------------- patterns

def test_pattern_gf5_values():
    # exhaustive root scan of Y^3 - Y - t over GF(5): t=1 has the single
    # root 2, t=2 has none (and a rootless cubic is irreducible)
    c5 = reduce_mod(cubic(), 5)
    assert specialize_pattern(c5, 1) == Partition([2, 1])
    assert specialize_pattern(c5, 2) == Partition([3])


def test_pattern_gf5_split():
    c5 = reduce_mod(cubic(), 5)
    assert specialize_pattern(c5, 0) == Partition([1, 1, 1])


def test_pattern_rational_cubic():
    assert specialize_pattern(cubic(), 1) == Partition([3])


def test_pattern_sum_is_n():
    c = cubic()
    for t0 in range(-10, 11):
        lam = specialize_pattern(c, t0)
        assert lam.n == 3


def test_ramified_point_is_an_error():
    # Y^2 - T is ramified exactly over 0
    ring = PolyRing(QQ)
    T = Polynomial.variable(QQ)
    c = BivariateCover(Polynomial(ring, [-T, ring.zero, ring.one]))
    with pytest.raises(RamifiedPointError):
        specialize_pattern(c, 0)
    assert specialize_pattern(c, 4) == Partition([1, 1])
    assert specialize_pattern(c, 3) == Partition([2])


# ------------------------------------------------------------- etale algebra

def test_etale_quadratic_split():
    desc = etale_algebra(quadratic(), 2)
    assert [(g.degree, m) for g, m in desc.factors] == [(1, 1), (1, 1)]
    assert desc.pattern() == Partition([1, 1])
    assert desc.n == 2


def test_etale_quadratic_inert():
    # disc(Y^2 - Y - 1) = 5, not a square
    desc = etale_algebra(quadratic(), 1)
    assert [(g.degree, m) for g, m in desc.factors] == [(2, 1)]


def test_etale_cubic_field():
    desc = etale_algebra(cubic(), 1)
    assert [g.degree for g, _ in desc.factors] == [3]
    assert desc.base == QQ


def test_etale_requires_rational_cover():
    with pytest.raises(DomainMismatchError):
        etale_algebra(reduce_mod(cubic(), 5), 1)


# ------------------------------------------------------------- residue degrees

def test_residue_degrees_examples():
    c = cubic()
    assert residue_degrees_at(c, 2, 5) == Partition([3])
    assert residue_degrees_at(c, 1, 5) == Partition([2, 1])
    assert residue_degrees_at(c, 0, 5) == Partition([1, 1, 1])
    # reduction only sees t0 mod p
    assert residue_degrees_at(c, 5, 5) == Partition([1, 1, 1])


def test_residue_degrees_bad_prime_error():
    with pytest.raises(BadPrimeError):
        residue_degrees_at(cubic(), 1, 3)


def test_residue_degrees_ramified_mod_p():
    # 27T^2 - 4 mod 11 vanishes at T = 5 and 6
    c = cubic()
    F = PrimeField(11)
    assert F.is_zero(reduce_mod(c, 11).D.eval(F.coerce(5)))
    with pytest.raises(RamifiedPointError):
        residue_degrees_at(c, 5, 11)


def outcome(read, *args):
    """read(*args), or the type of the CoverSpecError it raised."""
    try:
        return read(*args)
    except CoverSpecError as exc:
        return type(exc)


@pytest.mark.parametrize("cover", reader_covers(), ids=repr)
def test_integral_fiber_reader_matches_reduction(cover):
    # the integer fiber read mod p against the cover reduced mod p: same
    # pattern, or the same error at a bad prime, at a prime of t0's
    # denominator and on the branch locus mod p
    rng = seeded(repr(cover))
    points = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(3)] + [
        rng.randrange(-20, 20), Fraction(1, 5), Fraction(2, 7),
        Fraction(3, 35), Fraction(rng.randrange(1, 11), rng.choice(
            [11, 13, 17, 19, 23]))]
    seen = set()
    for t0 in points:
        for p in islice(primes_from(2), 60):
            expected = outcome(residue_degrees_by_reduction, cover, t0, p)
            assert outcome(residue_degrees_at, cover, t0, p) == expected, (
                t0, p)
            seen.add(expected if type(expected) is type else Partition)
    assert seen == {BadPrimeError, CoverSpecError, RamifiedPointError,
                    Partition}


def test_stability_depends_only_on_residue():
    # exhaustive for p <= 13
    c = cubic()
    for p in (5, 7, 11, 13):
        cp = reduce_mod(c, p)
        F = PrimeField(p)
        for t0 in range(p):
            if F.is_zero(cp.D.eval(t0)):
                continue
            base = residue_degrees_at(c, t0, p)
            assert residue_degrees_at(c, t0 + p, p) == base
            assert residue_degrees_at(c, t0 - 3 * p, p) == base


def test_reduction_compatibility_random():
    # mod-p degrees refine the rational factor degrees; strong sample
    rng = seeded(97)
    c = cubic()
    good_primes = [5, 7, 11, 13, 17, 19, 23]
    checked = 0
    while checked < 1000:
        t0 = rng.randrange(-200, 201)
        p = rng.choice(good_primes)
        F = PrimeField(p)
        cp = reduce_mod(c, p)
        if F.is_zero(cp.D.eval(F.coerce(t0))):
            continue
        fiber = c.specialized(t0)
        rational = factor_z(fiber)
        mod_degrees = []
        for g, m in factor_ff(cp.specialized(F.coerce(t0))):
            mod_degrees += [g.degree] * m
        refined = []
        for g, m in rational:
            gp = g.map_coeffs(F.coerce, F)
            sub = [h.degree for h, k in factor_ff(gp) for _ in range(k)]
            assert sum(sub) == g.degree
            refined += sub * m
        assert sorted(refined) == sorted(mod_degrees)
        checked += 1


def test_unramified_specialization_squarefree():
    # gcd(P(t0, Y), dP/dY(t0, Y)) = 1 mod p at good unramified pairs
    c = cubic()
    for p in (5, 7, 13):
        cp = reduce_mod(c, p)
        F = PrimeField(p)
        for t0 in range(p):
            if F.is_zero(cp.D.eval(t0)):
                continue
            fiber = cp.specialized(t0)
            assert poly_gcd(fiber, fiber.derivative()).degree == 0


# ------------------------------------------------------------- ramification


def verdict(read, *args):
    """read(*args), or the type and message of the CoverSpecError it raised."""
    try:
        return read(*args)
    except CoverSpecError as exc:
        return type(exc), str(exc)


def drawn_polys(base, rng, count):
    """Seeded P(T, Y) over base that involve T: count with random rows of
    T-degree <= 3 below Y^n, n = 2..5, every third of shape A(Y) + c*T,
    then fixed ones for each way construction decides separability:
    (Y - T)^2, (Y^2 - T)^2 and (Y - T)^2 (Y + 1) (disc_Y vanishes; only
    the last has a nonzero Y-derivative in characteristic 2), Y^p - T in characteristic
    p (Y-derivative vanishes), a cover ramified at t = 0, 1 and 2 and one
    ramified at every point of GF(2) (disc_Y computed, and nonzero)."""
    ring = PolyRing(base)

    def value():
        if base == QQ:
            return Fraction(rng.randint(-3, 3))
        return base.from_index(rng.randrange(base.order))

    polys = []
    while len(polys) < count:
        n = rng.randint(2, 5)
        if len(polys) % 3 == 0:
            c = value()
            if base.is_zero(c):
                continue
            rows = [[value(), c]] + [[value()] for _ in range(1, n)]
        else:
            rows = [[value() for _ in range(rng.randint(0, 4))]
                    for _ in range(n)]
        rows = [Polynomial(base, row) for row in rows] + [ring.one]
        if any(row.degree > 0 for row in rows):
            polys.append(Polynomial(ring, rows))
    texts = ["Y^2 - 2*T*Y + T^2", "Y^4 - 2*T*Y^2 + T^2", "(Y - T)^2*(Y + 1)",
             "Y^2 - T*(T - 1)*(T - 2)", "Y^2 + (T^2 + T)*Y + 1"]
    if 0 < base.char <= 5:
        texts.append(f"Y^{base.char} - T")
    return polys + [parse_bivariate(text, base) for text in texts]


@pytest.mark.parametrize("q", [0, 2, 3, 5, 7, 4, 9, 25])
def test_lazy_cover_matches_the_eager_constructor(q):
    # branch data computed on first read, and ramification read off the
    # fiber, against the constructor that built disc, D and the infinity
    # test at once and the old test D(t0) = 0: the same construction
    # error, the same branch data, and at every point the same
    # RamifiedPointError or the same pattern and factors
    base = QQ if q == 0 else finite_field(q)
    rng = seeded(f"lazy-branch-data:{q}")
    points = (list(base.elements()) if q else
              [Fraction(a, b) for a in range(-4, 5) for b in (1, 2)])
    factor = factor_z if q == 0 else factor_ff
    seen = set()
    for P in drawn_polys(base, rng, 24):
        expected = verdict(eager_branch_data, P)
        cover = verdict(BivariateCover, P)
        if type(expected) is tuple and type(expected[0]) is type:
            assert cover == expected, P
            seen.add(expected[0])
            continue
        disc, D, infinity = expected
        for t in points:
            ramified = ramified_by_locus(D, t)
            seen.add("ramified" if ramified else "unramified")
            fiber = cover.specialized(t)
            factors = (RamifiedPointError, f"t0 = {base.format(t)} lies on "
                       "the branch locus") if ramified else tuple(factor(fiber))
            pattern = factors if ramified else Partition(
                g.degree for g, _ in factors)
            assert verdict(lambda c, t: specialize._unramified(c, t)[0],
                           cover, t) == (factors if ramified else t), (P, t)
            assert verdict(specialize_pattern, cover, t) == pattern, (P, t)
            assert verdict(specialize.fiber_factors, cover, t) == factors
            if q == 0:
                assert verdict(etale_algebra, cover, t) == (
                    factors if ramified else
                    EtaleAlgebraDescriptor(factors, QQ)), (P, t)
        assert (cover.disc, cover.D, cover.infinity_branched) == expected
        assert cover.branch_point_count == D.degree + infinity
    assert {"ramified", "unramified", InseparableCoverError} <= seen
    if 0 < q <= 5 or q in (9, 25):
        assert InseparabilityError in seen


def drawn_rational_covers(rng):
    """Seeded covers over QQ: for n = 1..8, one with random rows of
    T-degree <= 2 and coefficients a/b, |a| <= 5, b <= 4, below Y^n, and
    for n >= 2 one product of two such covers (every fiber reducible);
    then fixed covers with ramified, reducible and split-everywhere
    fibers at small t."""
    def rows(n):
        while True:
            out = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(rng.randint(0, 3))] for _ in range(n)]
            if any(len(row) > 1 for row in out):
                return [Polynomial.of(QQ, row) for row in out]

    ring = PolyRing(QQ)

    def poly(n):
        return Polynomial(ring, rows(n) + [ring.one])

    polys = []
    for n in range(1, 9):
        polys.append(poly(n))
        if n >= 2:
            k = rng.randint(1, n - 1)
            polys.append(poly(k) * poly(n - k))
    texts = ["Y^2 - T", "Y^3 - T^2", "(Y^2 - 2)*(Y - T)",
             "Y^4 - 10*Y^2 + 1 + T*(T - 1)", "Y^2 - T^2*(T + 1)"]
    return [BivariateCover(P) for P in polys] + [
        BivariateCover(parse_bivariate(text)) for text in texts]


def test_qq_fiber_readers_match_factor_z_of_the_specialized_fiber():
    # fiber_factors, etale_algebra, fiber_pattern and specialize_pattern
    # read cover.monic_fiber(t0); factor_z of the Fraction fiber
    # cover.specialized(t0) is the reference, with its squarefree
    # decomposition: a repeated factor means a RamifiedPointError
    rng = seeded("qq-monic-fiber")
    points = [Fraction(a, b) for a in (-1, 0, 1, 4, 8, 9) for b in (1, 4)]
    seen = set()
    for cover in drawn_rational_covers(rng):
        big = [Fraction(rng.randrange(-10 ** 120, 10 ** 120),
                        10 ** 100 + rng.randrange(10 ** 100))
               for _ in range(2)]
        for t in points + big:
            expected = tuple(factor_z(cover.specialized(t)))
            if any(m > 1 for _, m in expected):
                seen.add("ramified")
                with pytest.raises(RamifiedPointError):
                    specialize.fiber_factors(cover, t)
                continue
            seen.add((cover.n, len(expected) > 1, t in big))
            pattern = Partition(g.degree for g, _ in expected)
            assert specialize.fiber_factors(cover, t) == expected, (cover, t)
            assert etale_algebra(cover, t).factors == expected
            assert specialize.fiber_pattern(cover, t) == pattern
            assert specialize_pattern(cover, t) == pattern
    assert "ramified" in seen
    for n in range(1, 9):
        assert (n, False, True) in seen or (n, True, True) in seen
        if n >= 2:
            assert (n, True, True) in seen and (n, True, False) in seen


def test_qq_specialize_builds_no_fraction_fiber(capsys, monkeypatch):
    # over QQ the one int fiber of cover.monic_fiber is factored as it
    # stands: no Fraction fiber and no second squarefree decomposition
    calls = []
    for owner, name in ((BivariateCover, "specialized"),
                        (factor, "squarefree_decomposition")):
        def counting(*args, _original=getattr(owner, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(owner, name, counting)
    text = "Y^4 - 3/2*T^2*Y^2 + (T^3 - 1/3)*Y - 5*T + 7/4"
    cover = BivariateCover(parse_bivariate(text))
    for t in (Fraction(2, 3), Fraction(-7), Fraction(1, 10 ** 30)):
        specialize.fiber_factors(cover, t)
        etale_algebra(cover, t)
        specialize.fiber_pattern(cover, t)
        specialize_pattern(cover, t)
    assert cli.main(["specialize", "--cover", text, "--t0", "2/3"]) == 0
    assert cli.main(["specialize", "--cover", "Y^3 - T", "--t0", "8"]) == 0
    capsys.readouterr()
    certify_sn(cubic(), 0, prime_budget=7)  # names the reducible Y^3 - Y
    assert calls == []


def test_qq_one_fiber_readers_build_one_monic_fiber(monkeypatch):
    # the squarefree test, the digit-limit refusal and the factorization
    # read one (f, E); a ramified t0 builds one too, then stops
    builds = []
    monic_fiber = BivariateCover.monic_fiber

    def counting(cover, t0):
        builds.append(t0)
        return monic_fiber(cover, t0)

    monkeypatch.setattr(BivariateCover, "monic_fiber", counting)
    text = "Y^4 - 3/2*T^2*Y^2 + (T^3 - 1/3)*Y - 5*T + 7/4"
    for reader in (specialize.fiber_factors, specialize_pattern):
        for cover, t in ((BivariateCover(parse_bivariate(text)),
                          Fraction(2, 3)), (cubic(), Fraction(-7, 10 ** 30)),
                         (cubic(), 0)):
            builds.clear()
            reader(cover, t)
            assert builds == [t], (reader, cover, t)
        builds.clear()
        with pytest.raises(RamifiedPointError):
            reader(quadratic(), Fraction(-1, 4))
        assert builds == [Fraction(-1, 4)]


def test_fiber_factors_refuse_only_unprintable_fibers():
    # at the digit limit k = 640, n = 2: factors within k digits keep every
    # coefficient of the fiber below 2^n 10^(nk), so t0^2 of 1280 digits
    # (from Y^2 - T^2 at a 640-digit t0) is factored, while a fiber with a
    # coefficient of 1300 digits, or a denominator of 1300, is refused;
    # fiber_pattern and specialize_pattern, which print no factor, factor
    # it.  Past the degree cap the DegreeLimitError comes first.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        t0 = Fraction(10 ** 639 + 7)
        cover = BivariateCover(parse_bivariate("Y^2 - T^2"))
        assert specialize.fiber_factors(cover, t0) == (
            (Polynomial.of(QQ, [-t0, 1]), 1), (Polynomial.of(QQ, [t0, 1]), 1))
        cover = BivariateCover(parse_bivariate("Y^2 - T"))
        for t in (Fraction(3 * 10 ** 1299), Fraction(1, 3 * 10 ** 1299)):
            with pytest.raises(CoverSpecError) as error:
                specialize.fiber_factors(cover, t)
            assert str(error.value) == ("fiber coefficient past 1280 digits"
                                        " at t0: a factor has one past 640"
                                        " digits")
            assert specialize_pattern(cover, t) == Partition([2])
        cover = BivariateCover(parse_bivariate("Y^25 - Y - T^64"))
        with pytest.raises(DegreeLimitError):  # a coefficient of 19201 digits
            specialize.fiber_factors(cover, Fraction(10 ** 300))
    finally:
        sys.set_int_max_str_digits(limit)


# ------------------------------------------------------------- fiber_patterns

def fiber_by_fiber(cover):
    """The slow path: pattern_by_powering of every unramified fiber."""
    return [None if cover.is_branch_point(t) else
            Partition(pattern_by_powering(cover.specialized(t)))
            for t in cover.base.elements()]


def random_morse_cover(base, n, rng):
    """M(Y) - T for a seeded random monic Morse M, or None after 20 misses."""
    for _ in range(20):
        coeffs = [base.zero] + [base.from_index(rng.randrange(base.order))
                                for _ in range(n - 1)] + [base.one]
        M = Polynomial(base, coeffs)
        if is_morse(M)[0]:
            return make_morse_cover(M)
    return None


def family_covers(base, n, rng):
    out = []
    for make in (make_trinomial_simple, make_trinomial_alt):
        try:
            out.append(make(n, base))
        except FamilyConstraintError:
            pass  # the characteristic divides n(n-1)
    if base.char != 0 and n % base.char:
        morse = random_morse_cover(base, n, rng)
        if morse is not None:
            out.append(morse)
    return out


SMALL_PRIMES = [p for p in range(2, 60) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("q", SMALL_PRIMES + [9, 25, 27, 49, 125, 343])
def test_fiber_patterns_match_specialize_pattern(q):
    # every trinomial and Morse family, n = 2..7 over prime fields; a
    # fiber factored over GF(p^f) costs several milliseconds, so the
    # extension fields stop at n = 5, and GF(125), GF(343) run n = 3
    base = finite_field(q)
    if base.degree == 1:
        degrees = range(2, 8)
    else:
        degrees = range(2, 6) if q < 100 else (3,)
    checked = 0
    for n in degrees:
        for cover in family_covers(base, n, seeded(f"{q}:{n}")):
            assert list(fiber_patterns(cover)) == fiber_by_fiber(cover), cover
            checked += 1
    assert checked or q in (2, 3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(p=st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]),
       tail=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6),
       lead=st.integers(1, 10 ** 6), a0=st.integers(0, 10 ** 6),
       c=st.integers(1, 10 ** 6))
def test_fiber_patterns_match_on_drawn_covers(p, tail, lead, a0, c):
    # P = A(Y) + a0 + c*T with A drawn coefficient by coefficient
    assume(lead % p and c % p)
    F = PrimeField(p)
    ring = PolyRing(F)
    coeffs = [Polynomial.of(F, [a0, c])]
    coeffs += [ring.coerce(F.coerce(a)) for a in tail]
    coeffs += [ring.coerce(F.coerce(lead))]
    try:
        cover = BivariateCover(Polynomial(ring, coeffs))
    except InseparableCoverError:
        assume(False)
    assert list(fiber_patterns(cover)) == fiber_by_fiber(cover)


@pytest.mark.parametrize("p", [53, 101, 401])
def test_fiber_patterns_match_powering_per_fiber(p):
    # n = 6 names every shared key by its quadratic tally; n = 7 to 9
    # settle theirs on the first blocks of factor.ddf
    base = PrimeField(p)
    for n in (6, 7, 8, 9):
        for cover in family_covers(base, n, seeded(f"gfp:{p}:{n}")):
            assert list(fiber_patterns(cover)) == fiber_by_fiber(cover), cover


def test_fiber_pattern_lists_no_partitions(monkeypatch):
    # n = 64, the degree cap, has 1,741,630 partitions: fiber_pattern
    # reads the ddf to its end and never lists them
    def refuse(n):
        raise AssertionError(f"all partitions of {n} listed")

    monkeypatch.setattr(specialize, "all_partitions", refuse)
    cover = make_trinomial_simple(64, PrimeField(101))
    for t in range(3, 6):
        assert specialize_pattern(cover, t) == Partition(
            pattern_by_powering(cover.specialized(t))), t


@pytest.mark.parametrize("q", [101, 121])
def test_every_fiber_reader_reads_the_one_fiber(q):
    # fiber_pattern and _settle read cover.fiber(t) on covers of the sweep
    # shape A(Y) + c*T and on covers where a coefficient above Y^0
    # involves T, and sweep_shape() gives A and c exactly on the former;
    # a fiber of degree 7 over GF(121) costs milliseconds, so the families
    # there stop at n = 4
    base = finite_field(q)
    shaped = family_covers(base, 5 if q == 101 else 4, seeded(f"fiber:{q}"))
    if q == 101:
        shaped.append(make_trinomial_simple(7, base))
    off = [BivariateCover(parse_bivariate(text, base))
           for text in ("Y^7 - T^2*Y - T", "Y^4 - T*Y^2 - T")]
    assert len(shaped) == (4 if q == 101 else 3)
    for cover in shaped + off:
        shape = cover.sweep_shape()
        assert (shape is None) == (cover in off), cover
        candidates = all_partitions(cover.n)
        for t, lam in zip(base.elements(), fiber_by_fiber(cover)):
            if shape is not None:
                a, c = shape
                assert cover.fiber(t) == [base.add(a[0], base.mul(c, t))] \
                    + a[1:]
            if lam is not None:
                assert specialize.fiber_pattern(cover, t) == lam, (cover, t)
                assert specialize._settle(cover, t, candidates) == lam, (
                    cover, t)


def count_factor_ff(monkeypatch):
    """The list of every later factor_ff call, by the name in factor and
    the name specialize imported."""
    calls = []

    def counting(f, seed=0):
        calls.append(f)
        return factor_ff(f, seed)

    monkeypatch.setattr(factor, "factor_ff", counting)
    monkeypatch.setattr(specialize, "factor_ff", counting)
    return calls


@pytest.mark.parametrize("q,n", [(49, 6), (121, 6), (121, 7)])
def test_fiber_patterns_over_gf_pf_factor_no_fiber(monkeypatch, q, n):
    # shared keys over GF(p^f) are settled on the blocks of factor.ddf
    cover = make_trinomial_simple(n, finite_field(q))
    calls = count_factor_ff(monkeypatch)
    patterns, factored, settled = count_settled(monkeypatch, cover)
    assert settled and not calls
    assert patterns == fiber_by_fiber(cover)


def test_fibers_with_pattern_matches_fiber_patterns_on_shared_keys():
    base = PrimeField(1009)
    shared = {6: ([6], [2, 2, 2], [4, 2], [3, 3]),
              7: ([7], [3, 2, 2], [6, 1], [2, 2, 2, 1], [5, 2], [4, 3])}
    for n, groups in shared.items():
        cover = make_trinomial_simple(n, base)
        patterns = list(fiber_patterns(cover))
        for parts in groups:
            target = Partition(parts)
            hits = list(specialize.fibers_with_pattern(cover, target))
            assert hits == [t for t, lam in zip(base.elements(), patterns)
                            if lam == target]
            assert hits


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9, 25, 27, 49, 125, 343, 1009]
                         + [4, 8, 16, 256, 2187, 9409] + [
                             pytest.param(spec, id=f"{spec[0]}-x^2+1")
                             for spec in [(9, (1, 0, 1)), (49, (1, 0, 1))]])
def test_sweep_helpers_match_eval_and_euler(q):
    # _values (finite differences over GF(p), the Zech-log Horner over
    # GF(p^f)) against Polynomial.eval, the table of squares against
    # Euler's criterion (every element is a square for even q, and zero
    # has the byte 2 of the branch locus); a nonzero constant, degrees
    # above p at p = 2 and 3, so the differences start from points
    # x >= p, and degree 40; x^2 + 1 is a modulus whose x has order 4,
    # and the two largest fields are checked on seeded sample points
    base = finite_field(*q) if isinstance(q, tuple) else finite_field(q)
    q = base.order
    rng = seeded(f"sweep:{q}")

    def element(low=0):
        return base.from_index(rng.randrange(low, q))

    polys = [[element() for _ in range(k)] + [element(1)]
             for k in (*range(7), 40)]
    polys.append([element(1)] + [base.zero] * 4 + [element(1)])  # sparse
    points = range(q) if q < 2000 else sorted(rng.sample(range(q), 300))
    for coeffs in polys:
        values = list(specialize._values(base, coeffs))
        poly = Polynomial(base, coeffs)
        assert len(values) == q
        assert [values[i] for i in points] == [
            base.index(poly.eval(base.from_index(i))) for i in points], coeffs
    squares = specialize._squares(base)
    assert len(squares) == q
    half = (q - 1) // 2
    assert [squares[i] for i in points] == [
        2 if base.is_zero(x) else
        int(q % 2 == 0 or base.pow(x, half) == base.one)
        for x in map(base.from_index, points)]


def test_only_whole_field_sweeps_build_log_tables(monkeypatch, capsys):
    builds = count_table_builds(monkeypatch)
    F = finite_field(97 ** 2)
    cover = make_trinomial_simple(3, F)
    t0 = F.coerce(5)
    assert specialize_pattern(cover, t0) == specialize.fiber_pattern(
        cover, t0)
    assert cli.main(["specialize", "--field", "9409", "--family",
                     "trinomial-simple:3", "--t0", "5"]) == 0
    capsys.readouterr()
    # above SWEEP_Q_CAP the scan goes point by point, up to its first hit
    big = finite_field(3 ** 11)
    assert big.order > specialize.SWEEP_Q_CAP
    cover = make_trinomial_simple(5, big)
    t = big.from_index(1)
    target = specialize.fiber_pattern(cover, t)
    assert next(specialize.fibers_with_pattern(cover, target)) == t
    assert not builds
    # a census builds one set per field object, and none is shared
    F = finite_field(343)
    census(make_trinomial_simple(5, F))
    assert builds == [F]
    census(make_trinomial_alt(5, F))
    assert builds == [F]
    G = finite_field(343)
    census(make_trinomial_simple(5, G))
    assert len(builds) == 2 and builds[1] is G


def drawn_sextic(base, rng):
    """Y^6 + a5 Y^5 + ... + a1 Y + a0 + c*T over GF(p) with seeded
    coefficients, or None when it is inseparable."""
    p, ring = base.p, PolyRing(base)
    coeffs = [Polynomial.of(base, [rng.randrange(p), rng.randrange(1, p)])]
    coeffs += [ring.coerce(base.coerce(rng.randrange(p))) for _ in range(5)]
    try:
        return BivariateCover(Polynomial(ring, coeffs + [ring.one]))
    except InseparableCoverError:
        return None


def check_sextic(monkeypatch, cover):
    """_quadratic_tally against pattern_by_powering at every unramified t,
    and fiber_patterns against it with no fiber settled or factored."""
    tally = specialize._quadratic_tally(cover, specialize._squares(cover.base))
    by_fiber = fiber_by_fiber(cover)
    for t, lam in enumerate(by_fiber):
        if lam is not None:
            assert tally[t] == lam.count(2), (cover, t)
    patterns, factored, settled = count_settled(monkeypatch, cover)
    assert factored == 0 and not settled
    assert patterns == by_fiber, cover


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 409])
def test_quadratic_tally_matches_the_pattern_kernel(monkeypatch, p):
    # trinomial, alt, Morse and drawn sextics; p = 17, 41, 97 are 1 mod 8,
    # where square roots mod p are hardest to compute but are read from
    # the tally's root table like any other, and at p = 3 the e2^2
    # coefficient 3 e1 + a5 of the quadratic is the constant a5
    base = PrimeField(p)
    rng = seeded(f"quadratics:{p}")
    covers = family_covers(base, 6, rng)
    covers += [c for c in (drawn_sextic(base, rng) for _ in range(4)) if c]
    assert len(covers) >= 4
    for cover in covers:
        check_sextic(monkeypatch, cover)


@pytest.mark.parametrize("p", [7, 11, 13] + sorted(seeded("tally").sample(
    [p for p in range(1000, 1400) if is_prime(p)], 5)))
def test_quadratic_tally_matches_the_pointwise_solve(p):
    # the sweep takes an inverse only for a root it tallies, and counts
    # what a solve with an inverse per e1 counts, on Y^6 - Y - T and on
    # seeded Morse sextics
    base = PrimeField(p)
    rng = seeded(f"tally:{p}")
    covers = [make_trinomial_simple(6, base)] + [
        random_morse_cover(base, 6, rng) for _ in range(2)]
    assert all(covers)
    for cover in covers:
        tally = specialize._quadratic_tally(cover, specialize._squares(base))
        assert list(tally) == quadratic_tally_pointwise(cover), cover


def vanishing_row(cover):
    """The e1 in GF(p) at which C(e1, e2) = sum_{i>=1} a_i h_{i-1}(e1, e2)
    is 0 for every e2 (h_0 = 1, h_1 = e1, h_k = e1 h_{k-1} - e2 h_{k-2}),
    pointwise; None when there is none."""
    p = cover.base.p
    a = [cover.P.coeff(i).coeff(0) for i in range(1, 7)]
    for e1 in range(p):
        for e2 in range(p):
            h = [1, e1]
            while len(h) < 6:
                h.append((e1 * h[-1] - e2 * h[-2]) % p)
            if sum(x * y for x, y in zip(a, h)) % p:
                break
        else:
            return e1
    return None


def test_quadratic_tally_counts_every_e2_of_a_vanishing_row(monkeypatch):
    # a row C(e1, .) that vanishes identically puts g = X^2 - e1 X + e2
    # over some fiber for every e2 with e1^2 - 4 e2 a non-square
    base = PrimeField(7)
    rng = seeded("vanishing row")
    for _ in range(500):
        cover = drawn_sextic(base, rng)
        if cover is not None and vanishing_row(cover) is not None:
            break
    assert vanishing_row(cover) is not None
    check_sextic(monkeypatch, cover)


def count_factored(monkeypatch, cover):
    """fiber_patterns(cover) and the number of fibers it sent to _settle
    with every partition of n (None) as a candidate, as fiber_pattern
    does."""
    calls = []
    settle = specialize._settle

    def counting(cover, t, candidates):
        if candidates is None:
            calls.append(t)
        return settle(cover, t, candidates)

    monkeypatch.setattr(specialize, "_settle", counting)
    patterns = list(specialize.fiber_patterns(cover))
    monkeypatch.undo()
    return patterns, len(calls)


def count_settled(monkeypatch, cover):
    """count_factored's pair, and the candidate groups of every fiber
    that went to _settle."""
    groups = []
    settle = specialize._settle

    def counting(cover, t, candidates):
        groups.append(frozenset(candidates))
        return settle(cover, t, candidates)

    monkeypatch.setattr(specialize, "_settle", counting)
    return count_factored(monkeypatch, cover) + (groups,)


def test_fiber_patterns_factor_only_colliding_keys(monkeypatch):
    base = PrimeField(101)
    for n in (3, 4, 5):
        patterns, factored, settled = count_settled(
            monkeypatch, make_trinomial_simple(n, base))
        assert factored == 0 and not settled
        assert patterns == fiber_by_fiber(make_trinomial_simple(n, base))
    # n = 6: only root-free fibers collide ({6}/{2,2,2} and {4,2}/{3,3}),
    # and the tally of irreducible quadratic factors names every one
    cover = make_trinomial_simple(6, base)
    patterns, factored, settled = count_settled(monkeypatch, cover)
    assert factored == 0 and not settled
    assert patterns == fiber_by_fiber(cover)
    # n = 7: the first blocks of factor.ddf settle every shared key,
    # {5,2}/{4,3} too, so no fiber is factored
    cover = make_trinomial_simple(7, base)
    patterns, factored, settled = count_settled(monkeypatch, cover)
    late = frozenset(Partition(p) for p in ([5, 2], [4, 3]))
    assert factored == 0 and late in settled
    assert patterns == fiber_by_fiber(cover)


def guard_gcds(monkeypatch):
    """The list of every later gcd(f, f') call, the squarefree guard, by
    gfp.gcd or by factor's poly_gcd; the gcd(x^(q^d) - x, f) steps of a
    distinct-degree factorization are not in it."""
    calls = []
    gcd, poly_gcd = gfp.gcd, factor.poly_gcd

    def derivative(f, p):
        return gfp.trim([i * c % p for i, c in enumerate(f)][1:])

    def counting(a, b, p):
        if b == derivative(a, p) or a == derivative(b, p):
            calls.append(p)
        return gcd(a, b, p)

    def counting_poly(a, b):
        if b == a.derivative() or a == b.derivative():
            calls.append(a.domain)
        return poly_gcd(a, b)

    monkeypatch.setattr(gfp, "gcd", counting)
    monkeypatch.setattr(factor, "poly_gcd", counting_poly)
    return calls


def test_settled_fibers_skip_the_squarefree_guard(monkeypatch):
    # disc(t) != 0 has proved every settled fiber squarefree, so no
    # gcd(f, f') is taken again
    cover = make_trinomial_simple(7, PrimeField(101))
    calls = guard_gcds(monkeypatch)
    patterns, factored, settled = count_settled(monkeypatch, cover)
    assert settled
    assert not calls


def test_residue_degrees_skip_the_squarefree_guard(monkeypatch):
    # the branch-locus test has proved the fiber squarefree, so
    # residue_pattern reads gfp.ddf with no guard
    cover, F = make_trinomial_simple(6, QQ), finite_field(25)
    calls = guard_gcds(monkeypatch)
    degrees = [residue_degrees_at(cover, t, p)
               for p in (11, 13, 17) for t in range(3)]
    assert len(degrees) == 9 and not calls
    # no entry point takes gcd(f, f'): the irreducibility tests read the
    # first nonempty block of the ddf, over GF(p) and GF(p^f) alike
    assert gfp.is_irreducible([1, 0, 1], 7) and not calls
    assert is_irreducible_ff(Polynomial.of(PrimeField(7), [1, 0, 1]))
    assert is_irreducible_ff(Polynomial(F, [F.from_index(5), F.one, F.one]))
    assert not is_irreducible_ff(Polynomial(F, [F.one, F.one]) ** 2)
    assert not calls


def test_fiber_patterns_fall_back_in_char_2(monkeypatch):
    # Stickelberger's parity needs odd q: every unramified fiber goes to
    # _settle with every partition as a candidate
    for q in (2, 4, 8, 16):
        base = finite_field(q)
        ring = PolyRing(base)
        T = Polynomial.variable(base)
        cover = BivariateCover(Polynomial(
            ring, [T, ring.one, ring.zero, ring.one]))  # Y^3 + Y + T
        patterns, factored = count_factored(monkeypatch, cover)
        assert patterns == fiber_by_fiber(cover)
        assert factored == sum(1 for lam in patterns if lam is not None)


def test_fiber_patterns_fall_back_off_the_fast_shape(monkeypatch):
    # Y^3 - T Y + T^2: the Y^1 coefficient involves T
    cover = make_trinomial_general(3, 1, 1, 2, PrimeField(31))
    patterns, factored = count_factored(monkeypatch, cover)
    assert patterns == fiber_by_fiber(cover)
    assert factored == sum(1 for lam in patterns if lam is not None)


def test_pattern_keys_collide_only_from_n_6():
    def unsettled(group, n):
        # two candidates answer alike for every d <= n: x^(p^d) = x
        # exactly when the lcm of the parts divides d
        answers = [tuple(d % lcm(*lam) == 0 for d in range(1, n + 1))
                   for lam in group]
        return len(set(answers)) < len(answers)

    def groups(n):
        # the partitions of each key (N_1, character byte) off the branch
        # locus: one Partition, or the tuple of a shared key's candidates
        return [lams if type(lams) is tuple else (lams,) for lams in
                specialize._key_table(n, False)[0].values() if lams]

    for n in range(1, 6):
        keys = groups(n)
        assert len(keys) == len(all_partitions(n))
        assert all(len(lams) == 1 for lams in keys)
    shared = {frozenset(lams) for lams in groups(6) if len(lams) > 1}
    assert shared == {frozenset(Partition(p) for p in pair) for pair in
                      (([6], [2, 2, 2]), ([4, 2], [3, 3]))}
    assert not any(unsettled(group, 6) for group in shared)
    late = [lams for lams in groups(7) if unsettled(lams, 7)]
    assert late == [(Partition([5, 2]), Partition([4, 3]))]
