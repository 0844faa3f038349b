"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances and runtime limits are fixed here, not
configurable.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement

from coverspec.census import census, realize_by_trinomial
from coverspec.covers import is_morse, make_trinomial_general, \
    make_trinomial_simple, reduce_mod
from coverspec.errors import FamilyConstraintError
from coverspec.factor import factor_ff, factor_z, is_irreducible_ff
from coverspec.fields import QQ, PrimeField
from coverspec.numutil import crt
from coverspec.poly import Polynomial
from coverspec.search import SearchSpec, grunwald_search
from coverspec.specialize import Partition, all_partitions
from coverspec.twist import (
    FiniteGroup, all_perm_reps, galois_rep_of_algebra, semidirect_extension,
    verify_twisting_lemma)

import pytest

from oracles import random_poly, seeded


@contextmanager
def criterion(num, title, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{title}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"ACCEPTANCE {num} [{title}]: FAIL"
              f" (runtime {elapsed:.2f}s over the {limit_seconds}s limit)")
        raise AssertionError(f"runtime limit exceeded: {elapsed:.2f}s")
    print(f"ACCEPTANCE {num} [{title}]: PASS ({elapsed:.2f}s)")


_census_cache = {}


def census_1297():
    if "report" not in _census_cache:
        cover = make_trinomial_simple(3, PrimeField(1297))
        _census_cache["report"] = census(cover)
    return _census_cache["report"]


def test_criterion_1_finite_field_realization_at_scale():
    # GF(1297), 1297 prime to 6 and >= constant_c = 4 * 3^2 * 36 = 1296:
    # every partition of 3 must occur as a specialization pattern
    with criterion(1, "all patterns realized over GF(1297)", 5.0):
        report = census_1297()
        assert report.q == 1297
        assert report.constant_bound == 1296
        assert report.bound_met
        for lam in all_partitions(3):
            assert report.count(lam) > 0, f"pattern {lam} missing"
        assert sum(report.counts.values()) + report.excluded == 1297


def test_criterion_2_full_cycle_count():
    # |count({3}) - q/3| <= 6 sqrt(q), exact arithmetic on both sides
    with criterion(2, "q/n count within n! sqrt(q)", 5.0):
        report = census_1297()
        dev = abs(Fraction(report.count(Partition([3]))) - Fraction(1297, 3))
        assert dev * dev <= 36 * 1297


def test_criterion_3_hilbert_grunwald_search():
    with criterion(3, "Hilbert-Grunwald progression", 30.0):
        cover = make_trinomial_simple(3, QQ)
        spec = SearchSpec(
            cover,
            ((5, Partition([1, 1, 1])), (7, Partition([2, 1]))),
            max_candidates=3)
        res = grunwald_search(spec)
        assert res.M == res.beta * 35
        assert len(res.certified) >= 3
        for point in res.certified:
            t0 = point.t0
            # independent re-verification mod 5: three distinct roots
            roots5 = [y for y in range(5) if (y ** 3 - y - t0) % 5 == 0]
            assert len(roots5) == 3
            # independent re-verification mod 7: exactly one root and an
            # irreducible quadratic cofactor (no further roots)
            roots7 = [y for y in range(7) if (y ** 3 - y - t0) % 7 == 0]
            assert len(roots7) == 1
            # irreducibility over Q: certificate prime, cross-checked by
            # the full rational factorization
            fiber = cover.specialized(t0)
            assert len(factor_z(fiber)) == 1
            assert factor_z(fiber)[0][1] == 1
            cp = reduce_mod(cover, point.irreducibility_prime)
            F = cp.base
            assert is_irreducible_ff(cp.specialized(F.coerce(t0)))
            # symmetric-group certificate present
            assert point.sn_certificate.certified
            assert point.sn_certificate.witnesses


def test_criterion_4_twisting_lemma_exhaustive():
    # Gamma = S_n x| H over all inner actions, n in {2,3}, |H| in 1..4,
    # mu over all subgroup multisets with index sum n: zero failures
    with criterion(4, "twisting criterion, exhaustive family", 60.0):
        groups = [FiniteGroup.cyclic(1), FiniteGroup.cyclic(2),
                  FiniteGroup.cyclic(3), FiniteGroup.cyclic(4),
                  FiniteGroup.klein_four()]
        data_checked = 0
        sections_checked = 0
        for n in (2, 3):
            for H in groups:
                actions = all_perm_reps(H, n)
                subgroup_list = H.subgroups()
                mus = []
                for count in range(1, n + 1):
                    for tup in combinations_with_replacement(
                            range(len(subgroup_list)), count):
                        if sum(H.order // len(subgroup_list[i])
                               for i in tup) == n:
                            mus.append(galois_rep_of_algebra(
                                H, [subgroup_list[i] for i in tup], n=n))
                assert mus, (n, H.name)
                for a_hom in actions:
                    datum = semidirect_extension(n, H, a_hom)
                    for mu in mus:
                        report = verify_twisting_lemma(datum, mu)
                        assert report["failures"] == 0, (n, H.name)
                        data_checked += 1
                        sections_checked += report["sections"]
        # hom counts: n=2 gives 1+4+1+4+16 = 26 pairs (datum, mu); n=3
        # gives 1+8+6+8+40 = 63; the enumeration must hit all 89
        assert data_checked == 89
        assert sections_checked > 0


def test_criterion_5_trinomial_realizations():
    with criterion(5, "trinomial realizations over GF(67), GF(1297)", 2.0):
        r2 = realize_by_trinomial(2, PrimeField(67))
        assert r2.bound == 64 and r2.bound_met  # (2*2*2!)^2
        F67 = PrimeField(67)
        f2 = Polynomial(F67, [r2.b, 66, 1])
        assert is_irreducible_ff(f2)

        r3 = realize_by_trinomial(3, PrimeField(1297))
        assert r3.bound == 1296 and r3.bound_met  # (2*3*3!)^2
        F = PrimeField(1297)
        f3 = Polynomial(F, [r3.b, 1296, 0, 1])
        assert is_irreducible_ff(f3)


def test_criterion_6_family_validation_and_morse_verdicts():
    with criterion(6, "family constraints and Morse verdicts", 1.0):
        accepted = make_trinomial_general(3, 1, 1, 2)
        assert accepted.finite_branch_points == (Fraction(0), Fraction(4, 27))
        for t in accepted.finite_branch_points:
            assert accepted.D.eval(t) == 0
        with pytest.raises(FamilyConstraintError):
            make_trinomial_general(3, 1, 1, 1)
        assert is_morse(Polynomial.of(QQ, [0, -1, 0, 1]))[0]        # Y^3 - Y
        assert not is_morse(Polynomial.of(QQ, [0, 0, 0, 1]))[0]     # Y^3
        assert not is_morse(Polynomial.of(QQ, [0, 0, -2, 0, 1]))[0]  # Y^4 - 2Y^2


def test_criterion_7_algebra_oracles():
    with criterion(7, "factorization round-trips and CRT brute force", 60.0):
        rng = seeded(2026)
        # 10^4 finite-field refactorization round-trips, exact equality
        for p, rounds in ((2, 3400), (3, 3300), (101, 3300)):
            F = PrimeField(p)
            for _ in range(rounds):
                f = random_poly(rng, F, rng.randrange(1, 9))
                acc = Polynomial.constant(F, f.lc)
                for g, m in factor_ff(f, seed=rng.randrange(1000)):
                    acc = acc * g ** m
                assert acc == f
        # 10^2 rational round-trips
        for _ in range(100):
            coeffs = [rng.randrange(-20, 21) for _ in range(rng.randrange(1, 7))]
            coeffs.append(rng.randrange(1, 21))
            f = Polynomial.of(QQ, coeffs)
            acc = Polynomial.constant(QQ, f.lc)
            for g, m in factor_z(f):
                acc = acc * g ** m
            assert acc == f
        # CRT against exhaustive enumeration, all products <= 10^6
        systems = [
            [(1, 2), (2, 3)],
            [(0, 7)],
            [(3, 5), (4, 7), (1, 11)],
            [(10, 11), (12, 13), (6, 17), (2, 19)],
            [(0, 8), (5, 9), (2, 25), (3, 49)],
            [(7, 16), (3, 27), (1, 35)],
            [(999, 1000), (500, 999)],
        ]
        for pairs in systems:
            b, m = crt(pairs)
            assert m <= 10 ** 6
            expected = [x for x in range(m)
                        if all(x % mod == r % mod for r, mod in pairs)]
            assert expected == [b]
