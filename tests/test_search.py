import pytest

from coverspec.covers import (
    BivariateCover, bivariate_ring, good_prime_reasons, make_trinomial_alt,
    make_trinomial_simple)
from coverspec.errors import (
    BadPrimeError, CoverSpecError, InfeasibleConstraintError)
from coverspec.factor import factor_ff, factor_z
from coverspec.fields import QQ, PrimeField
from coverspec.numutil import inverse_mod, primes_from
from coverspec.poly import Polynomial
from coverspec.search import (
    SearchSpec, certify_sn, grunwald_search, local_solutions,
    standard_trick_primes, trick_patterns)
from coverspec.specialize import Partition, residue_degrees_at


def cubic():
    return make_trinomial_simple(3, QQ)


def quadratic():
    return make_trinomial_simple(2, QQ)


# --------------------------------------------------------- local solutions

def test_local_solutions_split_contains_zero():
    sols = local_solutions(cubic(), 5, Partition([1, 1, 1]))
    assert 0 in sols


def test_local_solutions_full_cycle_nonempty():
    sols = local_solutions(cubic(), 5, Partition([3]))
    assert sols == [2, 3]  # exhaustive root scan of Y^3 - Y - t mod 5


def test_local_solutions_mixed_at_7():
    sols = local_solutions(cubic(), 7, Partition([2, 1]))
    assert sols  # nonemptiness asserted; computed by exhaustive scan
    for t in sols:
        assert residue_degrees_at(cubic(), t, 7) == Partition([2, 1])


def test_local_solutions_cover_every_residue():
    c = cubic()
    from coverspec.covers import reduce_mod
    cp = reduce_mod(c, 7)
    classified = set()
    for lam in (Partition([3]), Partition([2, 1]), Partition([1, 1, 1])):
        classified.update(local_solutions(c, 7, lam))
    F = PrimeField(7)
    unramified = {t for t in range(7) if not F.is_zero(cp.D.eval(t))}
    assert classified == unramified


def test_local_solutions_bad_prime():
    with pytest.raises(BadPrimeError):
        local_solutions(cubic(), 3, Partition([3]))


def test_local_solutions_existence_at_desk_scale():
    # stronger than the a-priori bound: every pattern of 3 is hit for all
    # good primes 5 <= p <= 97
    from coverspec.numutil import primes_from
    c = cubic()
    for p in primes_from(5):
        if p > 97:
            break
        for lam in (Partition([3]), Partition([2, 1]), Partition([1, 1, 1])):
            assert local_solutions(c, p, lam), (p, lam)


# --------------------------------------------------------- trick primes

def test_trick_patterns():
    assert trick_patterns(2) == [Partition([2]), Partition([1, 1])]
    assert trick_patterns(3) == [
        Partition([3]), Partition([2, 1]), Partition([2, 1])]
    assert trick_patterns(4) == [
        Partition([4]), Partition([3, 1]), Partition([2, 1, 1])]


def test_standard_trick_primes_cubic():
    trick = standard_trick_primes(cubic())
    assert len(trick) == 3
    primes = [p for p, _ in trick]
    assert len(set(primes)) == 3
    assert [lam for _, lam in trick] == trick_patterns(3)
    for p, lam in trick:
        assert local_solutions(cubic(), p, lam)


def test_standard_trick_primes_exclusion():
    trick = standard_trick_primes(cubic(), exclude={5, 7, 11, 13})
    assert all(p not in {5, 7, 11, 13} for p, _ in trick)
    big = standard_trick_primes(cubic(), exclude=set(range(100)))
    assert all(p >= 101 for p, _ in big)


def test_standard_trick_primes_quadratic_degenerate():
    trick = standard_trick_primes(quadratic())
    assert len(trick) == 2  # n = 2 collapse, documented
    assert [lam for _, lam in trick] == [Partition([2]), Partition([1, 1])]


# --------------------------------------------------------- certify_sn

def test_certify_sn_cubic():
    cert = certify_sn(cubic(), 1, prime_budget=50)
    assert cert.certified
    assert set(cert.witnesses) == {Partition([3]), Partition([2, 1])}
    for lam, p in cert.witnesses.items():
        assert residue_degrees_at(cubic(), 1, p) == lam
    # 27 * 5^2 - 4 = 11 * 61: the scan skips 11, where t0 = 5 is ramified
    cert = certify_sn(cubic(), 5, prime_budget=50)
    assert cert.witnesses == {Partition([3]): 7, Partition([2, 1]): 13}


def test_certify_sn_quadratic_single_pattern():
    cert = certify_sn(quadratic(), 1, prime_budget=50)
    assert cert.certified
    assert set(cert.witnesses) == {Partition([2])}


def test_certify_sn_reducible_flagged():
    # t0 = 0: Y^3 - Y splits over Q; degenerate before any scanning
    cert = certify_sn(cubic(), 0, prime_budget=50)
    assert cert.inconclusive
    assert "reducible" in cert.reason
    assert cert.scanned == 0


def test_certify_sn_skips_disc_content_primes():
    # Y^3 - 15T + 5 reduces to Y^3 mod 5 (disc content 675 = 3^3 5^2); the
    # scan must skip 5 as bad instead of failing to reduce the cover there
    ring = bivariate_ring(QQ)
    T = Polynomial.variable(QQ)
    cover = BivariateCover(Polynomial(
        ring, [ring.sub(ring.coerce(5), T.scale(15)), ring.zero, ring.zero,
               ring.one]))
    cert = certify_sn(cover, 1, prime_budget=50)
    assert cert.certified
    assert not {3, 5} & set(cert.witnesses.values())


def test_certify_sn_budget_inconclusive():
    cert = certify_sn(cubic(), 1, prime_budget=1)
    assert cert.inconclusive
    assert "budget" in cert.reason


# --------------------------------------------------------- the search

def test_search_spec_validation():
    with pytest.raises(CoverSpecError):
        SearchSpec(cubic(), ((5, Partition([3])), (5, Partition([2, 1]))))
    with pytest.raises(CoverSpecError):
        SearchSpec(cubic(), ((5, (3,)),))


def test_grunwald_search_single_constraint():
    spec = SearchSpec(cubic(), ((5, Partition([3])),), max_candidates=3)
    res = grunwald_search(spec)
    assert res.M == res.beta * 5
    assert len(res.certified) >= 3
    for point in res.certified:
        # irreducible mod 5 with the prescribed pattern
        assert residue_degrees_at(cubic(), point.t0, 5) == Partition([3])
        # independent re-check of the CRT assembly
        assert point.t0 % res.M == res.b % res.M
        for p, r in res.residues.items():
            assert point.t0 % p == r
        # irreducibility over Q cross-checked by full factorization
        fiber = cubic().specialized(point.t0)
        assert len(factor_z(fiber)) == 1
        assert point.sn_certificate.certified


def test_grunwald_search_two_constraints():
    spec = SearchSpec(
        cubic(),
        ((5, Partition([1, 1, 1])), (7, Partition([2, 1]))),
        max_candidates=3)
    res = grunwald_search(spec)
    assert res.M == res.beta * 35
    assert len(res.certified) >= 3
    for point in res.certified:
        assert residue_degrees_at(cubic(), point.t0, 5) == Partition([1, 1, 1])
        assert residue_degrees_at(cubic(), point.t0, 7) == Partition([2, 1])
        fiber = cubic().specialized(point.t0)
        assert len(factor_z(fiber)) == 1


def test_grunwald_search_quadratic():
    spec = SearchSpec(quadratic(), ((67, Partition([2])),), max_candidates=2)
    res = grunwald_search(spec)
    for point in res.certified:
        # quadratic-residue check: 1 + 4 t0 must be a nonresidue mod 67
        disc = (1 + 4 * point.t0) % 67
        assert pow(disc, 33, 67) == 66  # Euler criterion: nonresidue
        fiber = quadratic().specialized(point.t0)
        assert len(factor_z(fiber)) == 1


@pytest.mark.parametrize("cover, constraints", [
    (cubic(), ((5, Partition([3])),)),
    (cubic(), ((5, Partition([1, 1, 1])), (7, Partition([2, 1])))),
    (make_trinomial_alt(4), ((11, Partition([2, 2])),
                             (13, Partition([3, 1])))),
], ids=["cubic-5", "cubic-5-7", "alt4-11-13"])
def test_search_takes_smallest_residues_and_primes(cover, constraints):
    # the first-hit scans against the exhaustive local_solutions: every
    # residue is the smallest one, and no smaller good prime outside the
    # constraints carries a trick pattern
    res = grunwald_search(SearchSpec(cover, constraints, max_candidates=1))
    for p, lam in constraints + res.trick_primes:
        assert res.residues[p] == local_solutions(cover, p, lam)[0]
    taken = {p for p, _ in constraints}
    for p, lam in res.trick_primes:
        for q in primes_from(cover.n + 1):
            if q == p:
                break
            if q in taken or good_prime_reasons(cover, q):
                continue
            assert not local_solutions(cover, q, lam), (q, lam)
        taken.add(p)


def test_grunwald_search_deterministic():
    spec = SearchSpec(cubic(), ((5, Partition([3])),), max_candidates=2)
    r1 = grunwald_search(spec)
    r2 = grunwald_search(spec)
    assert r1.b == r2.b and r1.M == r2.M
    assert [p.t0 for p in r1.certified] == [p.t0 for p in r2.certified]


def test_grunwald_search_infeasible_constraint():
    # Y^3 - T has cyclic geometric monodromy: mod 7 every fiber is either
    # irreducible or split, never {2,1}; the error must name p and pattern
    from coverspec.covers import BivariateCover, bivariate_ring
    from coverspec.poly import Polynomial
    ring = bivariate_ring(QQ)
    T = Polynomial.variable(QQ)
    pure_cubic = BivariateCover(
        Polynomial(ring, [-T, ring.zero, ring.zero, ring.one]))
    assert local_solutions(pure_cubic, 7, Partition([2, 1])) == []
    with pytest.raises(InfeasibleConstraintError) as err:
        grunwald_search(SearchSpec(pure_cubic, ((7, Partition([2, 1])),)))
    assert err.value.p == 7
    assert err.value.partition == Partition([2, 1])


def test_search_partition_sum_mismatch():
    with pytest.raises(CoverSpecError):
        grunwald_search(SearchSpec(cubic(), ((5, Partition([2, 2])),)))


def test_grunwald_search_annotations():
    spec = SearchSpec(cubic(), ((5, Partition([3])),), max_candidates=1)
    res = grunwald_search(spec)
    assert res.annotations["constant_c"] == 1296
    assert res.annotations["bad_primes"] == [2, 3]
    # the interval [1296, m0] must contain br + 3 = 5 primes
    lo, hi = res.annotations["addendum_interval"]
    from coverspec.numutil import primes_from
    count = 0
    for p in primes_from(lo):
        if p > hi:
            break
        count += 1
    assert count == 5
