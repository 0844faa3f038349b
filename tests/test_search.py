import inspect
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import islice, takewhile

import pytest
from hypothesis import assume, given, settings, strategies as st

from coverspec import cli, covers, search, specialize
from coverspec.covers import (
    BivariateCover, good_prime_reasons, make_morse_cover,
    make_trinomial_alt, make_trinomial_general, make_trinomial_simple,
    reduce_mod)
from coverspec.errors import (
    BadPrimeError, BudgetExhaustedError, CoverSpecError, DegreeLimitError,
    InfeasibleConstraintError, InseparableCoverError, RamifiedPointError)
from coverspec.factor import factor_ff, factor_z
from coverspec.fields import QQ, PrimeField, finite_field
from coverspec.numutil import is_prime, primes_from
from coverspec.poly import Polynomial, PolyRing, discriminant
from coverspec.search import (
    SearchSpec, certify_sn, grunwald_search, local_solutions,
    standard_trick_primes, trick_patterns)
from coverspec.parsing import parse_bivariate
from coverspec.specialize import (
    Partition, all_partitions, residue_degrees_at, residue_pattern)

from oracles import (
    certify_sn_by_reduction, count_table_builds, fiber_degrees_by_powering,
    grunwald_search_by_reverification, pattern_by_powering, random_poly,
    reader_covers, residue_degrees_by_reduction, seeded)


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


def assert_scan_matches_factoring(cover, bound):
    """local_solutions against one pattern_by_powering per fiber, for
    every partition of n at every good p below the bound; returns the
    primes checked."""
    checked = 0
    for p in primes_from(cover.n + 1):
        if p >= bound:
            return checked
        if good_prime_reasons(cover, p):
            continue
        degrees = fiber_degrees_by_powering(reduce_mod(cover, p))
        for lam in all_partitions(cover.n):
            expected = [t for t, degs in degrees.items() if degs == lam.parts]
            assert local_solutions(cover, p, lam) == expected, (cover, p, lam)
        checked += 1


def scan_covers():
    """Both trinomial shapes for n = 2..8, a Morse cover, the cover with
    disc content 675, and Y^3 - T*Y + T^2, off the root-sweep shape."""
    ring = PolyRing(QQ)
    T = Polynomial.variable(QQ)
    params = [pytest.param(make(n), id=f"{name}{n}") for n in range(2, 9)
              for name, make in (("simple", make_trinomial_simple),
                                 ("alt", make_trinomial_alt))]
    return params + [
        pytest.param(make_morse_cover(Polynomial.of(QQ, [0, 1, 0, 0, 1, 1])),
                     id="morse5"),
        pytest.param(BivariateCover(Polynomial(
            ring, [ring.sub(ring.coerce(5), T.scale(15)), ring.zero,
                   ring.zero, ring.one])), id="content-cubic"),
        pytest.param(make_trinomial_general(3, 1, 1, 2), id="general3"),
    ]


@pytest.mark.parametrize("cover", scan_covers())
def test_local_solutions_match_factoring_every_fiber(cover):
    assert assert_scan_matches_factoring(cover, 60) > 0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(2, 6),
       tail=st.lists(st.integers(-50, 50), min_size=5, max_size=5),
       a0=st.integers(-50, 50), c=st.integers(-50, 50).filter(bool),
       den=st.integers(1, 6))
def test_local_solutions_match_factoring_on_drawn_covers(n, tail, a0, c, den):
    # P = A(Y) + a0 + (c/den)*T over QQ, A monic of degree n
    ring = PolyRing(QQ)
    coeffs = [Polynomial.of(QQ, [a0, QQ.coerce(c) / den])]
    coeffs += [ring.coerce(a) for a in tail[:n - 1]] + [ring.one]
    try:
        cover = BivariateCover(Polynomial(ring, coeffs))
    except InseparableCoverError:
        assume(False)
    assert_scan_matches_factoring(cover, 30)


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
    primes = [p for p, _, _ in trick]
    assert len(set(primes)) == 3
    assert [lam for _, lam, _ in trick] == trick_patterns(3)
    for p, lam, residue in trick:
        assert residue == local_solutions(cubic(), p, lam)[0]


def test_standard_trick_primes_exclusion():
    trick = standard_trick_primes(cubic(), exclude={5, 7, 11, 13})
    assert all(p not in {5, 7, 11, 13} for p, _, _ in trick)
    big = standard_trick_primes(cubic(), exclude=set(range(100)))
    assert all(p >= 101 for p, _, _ in big)
    for p, lam, residue in trick + big:
        assert residue == local_solutions(cubic(), p, lam)[0]


def make_morse(n, base=QQ):
    """M(Y) - T for M = Y^n + Y^2 + 2Y, Morse over QQ, GF(49) and GF(121)
    for n = 3..5."""
    Y = Polynomial.variable(base)
    return make_morse_cover(Y ** n + Y ** 2 + Y.scale(base.coerce(2)))


@pytest.mark.parametrize("make", [
    make_trinomial_simple, make_trinomial_alt,
    pytest.param(make_morse, id="make_morse")])
def test_scan_above_sweep_cap_skips_the_sweep(monkeypatch, make):
    # with the cap below q the scan must neither tally roots nor build log
    # tables, nor change a single residue list or hit over GF(p^f)
    def hits(q, cap):
        F = finite_field(q)  # a new field object, with no tables yet
        monkeypatch.setattr(specialize, "SWEEP_Q_CAP", cap)
        return {lam: [F.index(t) for t in
                      specialize.fibers_with_pattern(make(n, F), lam)]
                for n in range(3, 6) for lam in all_partitions(n)}

    for q in (49, 121):
        swept = hits(q, 2 ** 16)
        builds = count_table_builds(monkeypatch)
        assert hits(q, 6) == swept and not builds, q
        monkeypatch.undo()
    cover = make(5)
    primes = [p for p in range(7, 60)
              if is_prime(p) and not good_prime_reasons(cover, p)]
    swept = {(p, lam): local_solutions(cover, p, lam) for p in primes
             for lam in all_partitions(5)}
    tallies = Counter()
    tally = specialize._root_tally

    def counting(cover_p):
        tallies[cover_p.base.order] += 1
        return tally(cover_p)

    monkeypatch.setattr(specialize, "_root_tally", counting)
    monkeypatch.setattr(specialize, "SWEEP_Q_CAP", 6)
    for (p, lam), expected in swept.items():
        assert local_solutions(cover, p, lam) == expected, (p, lam)
    assert not tallies
    monkeypatch.setattr(specialize, "SWEEP_Q_CAP", 60)
    local_solutions(cover, primes[0], all_partitions(5)[0])
    assert tallies == {primes[0]: 1}


def test_transposition_scan_factors_no_fiber(monkeypatch):
    # {2,1^5} is the only partition of 7 with five 1-parts, so its root
    # count alone accepts a fiber; the other two trick patterns share their
    # keys ({7} with {3,2,2}, {6,1} with {2,2,2,1}), and the first blocks
    # of gfp.ddf settle those fibers without factoring them
    factored = Counter()
    settled = Counter()
    scanned = Counter()
    current = []
    sweep, kernel = search.fibers_with_pattern, specialize.fiber_pattern
    settle = specialize._settle

    def tracking(cover, target):
        current[:] = [target]
        scanned[target] += 1
        yield from sweep(cover, target)

    def counting(cover, t0):
        factored[current[0]] += 1
        return kernel(cover, t0)

    def settling(cover, t0, candidates):
        settled[current[0]] += 1
        return settle(cover, t0, candidates)

    monkeypatch.setattr(search, "fibers_with_pattern", tracking)
    monkeypatch.setattr(specialize, "fiber_pattern", counting)
    monkeypatch.setattr(specialize, "_settle", settling)
    trick = standard_trick_primes(make_trinomial_simple(7))
    monkeypatch.undo()
    transposition = Partition([2, 1, 1, 1, 1, 1])
    assert [(p, lam) for p, lam, _ in trick] == [
        (11, Partition([7])), (13, Partition([6, 1])), (113, transposition)]
    # every prime from 11 to 113 but the two taken before
    assert scanned[transposition] == 24
    assert not factored
    assert settled[transposition] == 0
    assert settled[Partition([7])] > 0 and settled[Partition([6, 1])] > 0


def test_standard_trick_primes_quadratic_degenerate():
    trick = standard_trick_primes(quadratic())
    assert len(trick) == 2  # n = 2 collapse, documented
    assert [lam for _, lam, _ in trick] == [Partition([2]), Partition([1, 1])]
    for p, lam, residue in trick:
        assert residue == local_solutions(quadratic(), p, lam)[0]


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
    ring = PolyRing(QQ)
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


def test_certify_sn_rejects_inseparable_fiber():
    # Y^3 - Y^2 - 0 = Y^2 (Y - 1): t0 = 0 lies on the branch locus
    with pytest.raises(CoverSpecError, match="not separable"):
        certify_sn(make_trinomial_alt(3), 0)


@pytest.mark.parametrize("t0", [Fraction(1, 5), Fraction(2, 7),
                                Fraction(3, 35)], ids=str)
def test_certify_sn_at_rational_points(t0):
    # t0 has no residue at a prime of its denominator: the scan skips that
    # prime, as it skips a bad one, and counts it in scanned
    cert = certify_sn(cubic(), t0)
    assert cert.certified
    for lam, p in cert.witnesses.items():
        assert t0.denominator % p
        assert residue_degrees_at(cubic(), t0, p) == lam
    last = max(cert.witnesses.values())
    assert cert.scanned == len(list(takewhile(lambda p: p <= last,
                                              primes_from(2))))


def reader_candidates():
    """(cover, t0) pairs off the branch locus: two drawn integers per
    reader cover, the rational points 1/5, 2/7 and 3/35, and the
    reducible fiber Y^3 - Y."""
    rng = seeded("certify")
    pairs = [(cubic(), 0)]
    for cover in reader_covers():
        points = [rng.randrange(-10 ** 4, 10 ** 4) for _ in range(2)] + [
            Fraction(1, 5), Fraction(2, 7), Fraction(3, 35)]
        pairs += [(cover, t0) for t0 in points
                  if not cover.is_branch_point(t0)]
    return pairs


def known_patterns(cover, t0, budget):
    """{p: pattern of P(t0, Y) mod p} at every other one of the first
    budget primes where the reduction scan reads one."""
    known = {}
    for p in list(islice(primes_from(2), budget))[::2]:
        if Fraction(t0).denominator % p:
            try:
                known[p] = residue_degrees_by_reduction(cover, t0, p)
            except (BadPrimeError, RamifiedPointError):
                pass
    return known


@pytest.mark.parametrize("budget", [5, 7, 12])
def test_certify_sn_matches_the_reduction_scan(monkeypatch, budget):
    # the per-candidate integral fiber, its character filter and its
    # early-stopping DDF give the certificate of a scan that reduces the
    # cover and reads the whole pattern at every prime; so does a scan
    # that takes the patterns of known as they stand and reads no fiber
    # at their primes
    outcomes, taken = set(), 0
    reads = counting_calls(monkeypatch, search, "residue_pattern")
    for cover, t0 in reader_candidates():
        expected = certify_sn_by_reduction(cover, t0, budget)
        known = known_patterns(cover, t0, budget)
        for given in (None, known):
            reads.clear()
            cert = certify_sn(cover, t0, budget, given)
            assert cert == expected, (cover, t0, given)
            assert list(cert.witnesses.items()) == list(
                expected.witnesses.items())
        assert not {p for p, _ in reads} & set(known)
        outcomes.add(cert.reason.split(" ")[0])
        taken += len(known)
    assert outcomes == {"", "budget", "specialization"} and taken


@pytest.mark.parametrize("n", range(2, 12))
def test_trick_types_carry_their_discriminant_character(n):
    # the byte the certificate's filter reads is specialize._key's,
    # 1 - (n - s) % 2 for s parts, and by Stickelberger the Legendre
    # symbol of the discriminant of a fiber of that type: a product over
    # GF(101) of distinct linear factors and drawn irreducibles
    F, rng = PrimeField(101), seeded(n)
    for lam in trick_patterns(n):
        assert specialize._key(lam)[1] == 1 - (n - len(lam)) % 2
        fiber = Polynomial.constant(F, 1)
        for i, d in enumerate(lam):
            g = Polynomial.of(F, [i, 1])
            while d > 1 and pattern_by_powering(g) != (d,):
                g = random_poly(rng, F, d, monic=True)
            fiber = fiber * g
        assert pattern_by_powering(fiber) == lam.parts
        square = pow(discriminant(fiber), 50, 101) == 1
        assert specialize._key(lam)[1] == square, lam


def test_search_budgets_have_one_default():
    # SearchSpec, certify_sn and the CLI read the two named defaults
    spec = SearchSpec(cubic(), ())
    assert (spec.max_candidates, spec.prime_budget) == (
        search.MAX_CANDIDATES, search.PRIME_BUDGET) == (3, 200)
    default = inspect.signature(certify_sn).parameters["prime_budget"].default
    assert default == search.PRIME_BUDGET
    args = cli.PARSER.parse_args(["search"])
    assert (args.max_candidates, args.prime_budget) == (3, 200)


def counting_calls(monkeypatch, module, name):
    """Patch module.name to log its positional arguments; returns the log."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_certify_sn_reducible_scan_stays_in_budget(monkeypatch):
    # the reducible fiber Y^3 - Y is named only after the scan, which draws
    # at most prime_budget primes
    drawn = []
    primes = search.primes_from

    def counting(start):
        for p in primes(start):
            drawn.append(p)
            yield p

    monkeypatch.setattr(search, "primes_from", counting)
    factorizations = counting_calls(monkeypatch, search, "fiber_pattern")
    cert = certify_sn(cubic(), 0, prime_budget=7)
    assert "reducible" in cert.reason and cert.scanned == 0
    assert len(drawn) == 7 and len(factorizations) == 1


def test_certified_search_factors_nothing_over_q(monkeypatch):
    # every certificate carries an {n} witness, which proves irreducibility
    factorizations = counting_calls(monkeypatch, search, "fiber_pattern")
    res = grunwald_search(SearchSpec(make_trinomial_simple(5),
                                     ((7, Partition([3, 2])),)))
    assert len(res.certified) == 3 and not res.skipped
    assert factorizations == []


@pytest.mark.parametrize("cover, constraints", [
    (make_trinomial_simple(5), ((7, Partition([3, 2])),)),
    (make_trinomial_alt(4), ((11, Partition([2, 2])),
                             (13, Partition([3, 1])))),
], ids=["simple5-7", "alt4-11-13"])
def test_search_scans_each_residue_once(monkeypatch, cover, constraints):
    # one scan per constraint prime and one per prime tried for a trick
    # pattern; the trick residues are not scanned for a second time
    calls = counting_calls(monkeypatch, search, "_residues")
    res = grunwald_search(SearchSpec(cover, constraints))
    expected = list(constraints)
    taken = {p for p, _ in constraints}
    for p, lam in res.trick_primes:
        for q in primes_from(cover.n + 1):
            if q not in taken:
                expected.append((q, lam))
            if q == p:
                break
        taken.add(p)
    assert calls == expected


def test_search_reads_each_candidate_once(monkeypatch):
    # one integral fiber per candidate, built by certify_sn, which reads no
    # fiber at a wanted prime: the congruences give its pattern
    fibers = counting_calls(monkeypatch, BivariateCover, "integral_fiber")
    reads = counting_calls(monkeypatch, search, "residue_pattern")
    spec = SearchSpec(make_trinomial_simple(5), ((7, Partition([3, 2])),),
                      max_candidates=4)
    res = grunwald_search(spec)
    assert fibers == [(point.t0,) for point in res.certified]
    wanted = {7} | {p for p, _ in res.trick_primes}
    assert reads and not {p for p, _ in reads} & wanted


def test_candidates_above_the_budget_fail_before_the_first(monkeypatch):
    # refused before any certificate, after the errors that come first
    certificates = counting_calls(monkeypatch, search, "certify_sn")
    many = search.CANDIDATE_BUDGET + 1
    with pytest.raises(BudgetExhaustedError, match="501 .* 500 "):
        grunwald_search(SearchSpec(cubic(), ((5, Partition([3])),), many))
    assert certificates == []
    for cover, constraint, error in [
            (cubic(), (3, Partition([3])), BadPrimeError),
            (BivariateCover(parse_bivariate("Y^3 - T", QQ)),
             (7, Partition([2, 1])), InfeasibleConstraintError),
            (make_trinomial_simple(12), (101, Partition([12])),
             DegreeLimitError)]:
        with pytest.raises(error):
            grunwald_search(SearchSpec(cover, (constraint,), many))


@cache
def seeded_searches(n):
    """(spec, result) of two seeded searches per trinomial family at
    degree n: 1 to 3 good constraint primes below 110, each with a pattern
    drawn from those it has a residue for, 1 to 4 candidates, and a prime
    budget of 5, 30 or 200, so that some certificates take witnesses from
    the trick primes."""
    rng, out = seeded(f"search{n}"), []
    for make in (make_trinomial_simple, make_trinomial_alt):
        cover = make(n)
        good = [p for p in takewhile(lambda p: p < 110, primes_from(n + 1))
                if not good_prime_reasons(cover, p)]
        for _ in range(2):
            constraints = tuple(
                (p, rng.choice([lam for lam in all_partitions(n)
                                if local_solutions(cover, p, lam)]))
                for p in sorted(rng.sample(good, rng.randint(1, 3))))
            spec = SearchSpec(cover, constraints, rng.randint(1, 4),
                              rng.choice((5, 30, 200)))
            out.append((spec, grunwald_search(spec)))
    return out


@pytest.mark.parametrize("n", range(3, 8))
def test_search_matches_the_reverification_loop(n):
    # the old candidate loop, kept as an oracle, never skips a candidate,
    # so deleting its re-verification changes no result
    for spec, res in seeded_searches(n):
        expected = grunwald_search_by_reverification(spec)
        assert expected.skipped == [] == res.skipped
        assert res == expected, spec
        for point, old in zip(res.certified, expected.certified):
            assert list(point.sn_certificate.witnesses.items()) == list(
                old.sn_certificate.witnesses.items())


@pytest.mark.parametrize("n", range(3, 8))
def test_wanted_patterns_follow_from_the_congruences(n):
    # each certified t0 is congruent to a residue off the branch locus at
    # every wanted prime: its fiber there has the wanted pattern and w is
    # a unit
    for spec, res in seeded_searches(n):
        wanted = dict(spec.constraints) | dict(res.trick_primes)
        for point in res.certified:
            fiber = spec.cover.integral_fiber(point.t0)
            for p, lam in wanted.items():
                assert fiber[1] % p and residue_pattern(fiber, p) == lam


# --------------------------------------------------------- the search

def test_search_spec_validation():
    with pytest.raises(CoverSpecError):
        SearchSpec(cubic(), ((5, Partition([3])), (5, Partition([2, 1]))))
    with pytest.raises(CoverSpecError):
        SearchSpec(cubic(), ((5, (3,)),))


@pytest.mark.parametrize("budget", ["max_candidates", "prime_budget"])
@pytest.mark.parametrize("value", [0, -2])
def test_search_spec_rejects_nonpositive_budgets(budget, value):
    with pytest.raises(CoverSpecError, match=budget):
        SearchSpec(cubic(), ((5, Partition([3])),), **{budget: value})
    SearchSpec(cubic(), ((5, Partition([3])),), **{budget: 1})


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
    from coverspec.covers import BivariateCover
    from coverspec.poly import Polynomial
    ring = PolyRing(QQ)
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


def test_bad_primes_are_factored_once_per_search(monkeypatch):
    calls = Counter()
    factor = covers.prime_factors

    def counted(n):
        calls[n] += 1
        return factor(n)

    monkeypatch.setattr(covers, "prime_factors", counted)
    spec = SearchSpec(cubic(), ((5, Partition([3])),), max_candidates=1)
    assert grunwald_search(spec).annotations["bad_primes"] == [2, 3]
    assert sum(calls.values()) == 1


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
