import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from coverspec import specialize
from coverspec.census import (
    CENSUS_N_CAP, CENSUS_Q_CAP, CensusReport, census, cycle_type_density,
    density_check, realization_bound, realize_by_morse, realize_by_trinomial,
    sn_class_size)
from coverspec.covers import (
    BivariateCover, FamilyTag, constant_c,
    make_trinomial_simple, reduce_mod)
from coverspec.errors import (
    BudgetExhaustedError, CoverSpecError, FamilyConstraintError,
    NotMorseError)
from coverspec.factor import is_irreducible_ff
from coverspec.fields import QQ, PrimeField, finite_field
from coverspec.numutil import primes_from
from coverspec.poly import Polynomial, PolyRing
from coverspec.specialize import Partition, all_partitions


def y2_minus_t(base):
    ring = PolyRing(base)
    T = Polynomial.variable(base)
    return BivariateCover(Polynomial(ring, [-T, ring.zero, ring.one]))


# ------------------------------------------------------------- densities

def test_density_values_s3():
    assert cycle_type_density(Partition([3])) == Fraction(1, 3)
    assert cycle_type_density(Partition([2, 1])) == Fraction(1, 2)
    assert cycle_type_density(Partition([1, 1, 1])) == Fraction(1, 6)


def test_density_from_exhaustive_enumeration_up_to_6():
    # class sizes counted by enumerating S_n beat against the formula
    for n in range(1, 7):
        observed = Counter()
        for images in permutations(range(n)):
            seen = [False] * n
            lengths = []
            for start in range(n):
                if seen[start]:
                    continue
                ln, i = 0, start
                while not seen[i]:
                    seen[i] = True
                    i = images[i]
                    ln += 1
                lengths.append(ln)
            observed[Partition(lengths)] += 1
        for lam in all_partitions(n):
            assert observed[lam] == sn_class_size(lam)
            assert cycle_type_density(lam) == Fraction(observed[lam],
                                                       factorial(n))
        assert sum(cycle_type_density(lam) for lam in all_partitions(n)) == 1


# ------------------------------------------------------------- census

def test_census_y2_minus_t_gf7():
    # squares mod 7: pattern {1,1} at 3 points, {2} at 3, t=0 excluded
    report = census(y2_minus_t(PrimeField(7)))
    assert report.q == 7
    assert report.excluded == 1
    assert report.count(Partition([1, 1])) == 3
    assert report.count(Partition([2])) == 3
    assert report.all_realized


def test_census_counts_sum_to_q():
    for q in (5, 7, 9, 11, 13):
        base = finite_field(q)
        if q % 3 == 0:
            continue  # char 3 divides n(n-1) for the cubic family
        cover = make_trinomial_simple(3, base)
        report = census(cover)
        assert sum(report.counts.values()) + report.excluded == q


def test_census_cubic_gf5():
    cover = make_trinomial_simple(3, PrimeField(5))
    report = census(cover)
    # exhaustive scan: t=0 splits, 1 and 4 are {2,1}, 2 and 3 inert
    assert report.count(Partition([1, 1, 1])) == 1
    assert report.count(Partition([2, 1])) == 2
    assert report.count(Partition([3])) == 2
    assert report.excluded == 0
    assert not report.bound_met  # 5 < 1296


def test_census_nonresidue_count_exact():
    # count({2}) = (q-1)/2 for Y^2 - T over GF(q), all odd primes q < 200
    for q in primes_from(3):
        if q >= 200:
            break
        report = census(y2_minus_t(PrimeField(q)))
        assert report.count(Partition([2])) == (q - 1) // 2
        assert report.excluded == 1


def test_census_extension_field():
    cover = make_trinomial_simple(2, finite_field(9))
    report = census(cover)
    assert sum(report.counts.values()) + report.excluded == 9
    assert report.all_realized


def test_census_quartic_at_constant_c():
    # GF(36871) is the first prime field past constant_c = 4 * 4^2 * (4!)^2
    q = 36871
    cover = make_trinomial_simple(4, PrimeField(q))
    assert constant_c(cover) == 36864
    report = census(cover)
    assert report.bound_met and report.all_realized
    assert len(report.counts) == 5
    # brute force: y is a root of the fiber at t = y^4 - y, and Y^4 - Y - t
    # is ramified exactly when disc = -27 - 256 t^3 vanishes
    ones = 0
    for y in range(q):
        t = (y ** 4 - y) % q
        ones += (27 + 256 * t ** 3) % q != 0
    excluded = sum(1 for t in range(q) if (27 + 256 * t ** 3) % q == 0)
    assert report.excluded == excluded
    assert sum(lam.parts.count(1) * c
               for lam, c in report.counts.items()) == ones


def test_census_streams_its_sweeps(monkeypatch):
    # beside the root tally and the table of squares, q bytes each, the
    # sextic quadratic tally (q bytes) and its root table (4q bytes), no
    # sweep keeps state that grows with q: a list of the q discriminant
    # values would trace at about 1.3 MiB here.  At n = 7 about half the
    # fibers share their key; _settle reads one fiber and keeps nothing,
    # and traced it would take about a minute, so it names the first
    # candidate there
    settled = Counter()

    def first(cover, t, candidates):
        settled[len(candidates)] += 1
        return candidates[0]

    for n in (3, 6, 7):
        if n == 7:
            monkeypatch.setattr(specialize, "_settle", first)
        cover = make_trinomial_simple(n, PrimeField(32749))
        tracemalloc.start()
        try:
            report = census(cover)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(report.counts.values()) + report.excluded == 32749
        assert peak < 2 ** 19, n
    assert settled.total() > 32749 // 3


def test_census_size_cap_fails_fast():
    q = 4194319  # the first prime above CENSUS_Q_CAP = 2**22
    assert q > CENSUS_Q_CAP
    with pytest.raises(BudgetExhaustedError):
        census(make_trinomial_simple(3, PrimeField(q)))


def test_census_degree_cap_fails_before_any_sweep(monkeypatch):
    # n = 33 > CENSUS_N_CAP = 32 over GF(37), which divides no n(n-1):
    # refused before fiber_patterns runs or disc_Y is built
    def no_sweep(cover):
        raise AssertionError("swept a census above the degree cap")

    monkeypatch.setattr(sys.modules[census.__module__], "fiber_patterns",
                        no_sweep)
    cover = make_trinomial_simple(CENSUS_N_CAP + 1, PrimeField(37))
    with pytest.raises(BudgetExhaustedError) as error:
        census(cover)
    assert str(error.value) == (
        "census of degree 33 exceeds the cap of degree 32")
    assert "disc" not in vars(cover)


def test_census_requires_finite_field():
    with pytest.raises(CoverSpecError):
        census(make_trinomial_simple(3, QQ))


# ------------------------------------------------------------- density check

def test_density_check_gf1297():
    base = PrimeField(1297)
    cover = make_trinomial_simple(3, base)
    report = census(cover)
    assert report.bound_met  # 1297 >= 1296 = 4 r^2 (n!)^2
    assert report.all_realized
    checks = density_check(report)  # C defaults to n! = 6
    for lam, line in checks.items():
        assert line["passed"], (lam, line)
        assert line["extrapolated"] == (lam != Partition([3]))
    # the {n} count statement: |count - q/3| <= 6 sqrt(q)
    dev = abs(report.count(Partition([3])) - Fraction(1297, 3))
    assert dev * dev <= 36 * 1297


def test_density_check_custom_constant():
    report = census(y2_minus_t(PrimeField(103)))
    # deviation of {2} is |51 - 103/2| = 1/2 exactly
    assert report.deviations[Partition([2])] == Fraction(1, 2)
    tight = density_check(report, C=Fraction(1, 25))  # allows ~0.406
    loose = density_check(report, C=2)
    assert loose[Partition([2])]["passed"]
    assert not tight[Partition([2])]["passed"]


# ------------------------------------------------------------- realizations

def test_realize_trinomial_gf67():
    res = realize_by_trinomial(2, PrimeField(67))
    base = PrimeField(67)
    f = Polynomial.of(base, [res.b, -1, 1])
    assert is_irreducible_ff(f)
    # 1 - 4b must be a quadratic nonresidue mod 67
    disc = (1 - 4 * res.b) % 67
    assert pow(disc, 33, 67) == 66
    assert res.bound == 64 and res.bound_met


def test_realize_trinomial_gf1297():
    base = PrimeField(1297)
    res = realize_by_trinomial(3, base)
    f = Polynomial(base, [res.b, base.p - 1, 0, 1])  # Y^3 - Y + b
    assert is_irreducible_ff(f)
    assert res.bound == 1296 and res.bound_met


def test_realize_trinomial_characteristic_error():
    with pytest.raises(FamilyConstraintError):
        realize_by_trinomial(3, finite_field(4))  # gcd(4, 6) != 1


def test_realize_trinomial_extension_field():
    res = realize_by_trinomial(2, finite_field(49))
    F = finite_field(49)
    f = Polynomial(F, [res.b, F.neg(F.one), F.one])
    assert is_irreducible_ff(f)


def test_realize_morse():
    F = PrimeField(1297)
    M = Polynomial.of(F, [0, -1, 0, 1])  # Y^3 - Y is Morse
    res = realize_by_morse(M)
    f = M + Polynomial.constant(F, res.b)
    assert is_irreducible_ff(f)
    assert res.bound == 1296 and res.bound_met


def test_realize_morse_quadratic():
    F = PrimeField(7)
    M = Polynomial.of(F, [0, 0, 1])  # Y^2
    res = realize_by_morse(M)
    f = M + Polynomial.constant(F, res.b)
    assert is_irreducible_ff(f)
    # -b must be a nonresidue
    assert pow((-res.b) % 7, 3, 7) == 6


def test_realize_morse_rejects_non_morse():
    with pytest.raises(NotMorseError):
        realize_by_morse(Polynomial.of(PrimeField(7), [0, 0, 0, 1]))  # Y^3


def test_realization_bounds_per_family():
    assert realization_bound(FamilyTag.TRINOMIAL_SIMPLE, 3) == (2 * 3 * 6) ** 2
    assert realization_bound(FamilyTag.MORSE, 3) == 1296
    assert realization_bound(FamilyTag.TRINOMIAL_GENERAL, 3) == (6 * 6) ** 2


def test_realized_b_reverifies_small_fields():
    from math import gcd
    for q in (5, 7, 11, 13, 67):
        base = PrimeField(q)
        for n in (2, 3):
            if gcd(q, n * (n - 1)) != 1:
                continue
            res = realize_by_trinomial(n, base)
            coeffs = [base.zero] * (n + 1)
            coeffs[n] = base.one
            coeffs[1] = base.neg(base.one)
            coeffs[0] = res.b
            assert is_irreducible_ff(Polynomial(base, coeffs))
