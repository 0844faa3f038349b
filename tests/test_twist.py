import hashlib
from itertools import combinations_with_replacement

import pytest

from coverspec.errors import CoverSpecError
from coverspec.specialize import Partition
from coverspec.twist import (
    GROUP_ORDER_CAP, ExtensionDatum, FiniteGroup, GroupHom, Perm,
    all_perm_reps, coset_action, enumerate_homs, enumerate_sections,
    etale_from_action, galois_rep_of_algebra, semidirect_extension,
    symmetric_group_elements, twisted_action, verify_twisting_lemma)
from oracles import homs_oracle


# ------------------------------------------------------------- Perm

def test_perm_basics():
    a = Perm((1, 0, 2))
    b = Perm((0, 2, 1))
    assert (a * b).images == (1, 2, 0)  # a(b(i))
    assert a.inverse() == a
    assert Perm.identity(3).is_identity
    assert a.cycle_type() == Partition([2, 1])
    assert Perm((1, 2, 0)).cycle_type() == Partition([3])
    with pytest.raises(CoverSpecError):
        Perm((0, 0, 1))


def test_symmetric_group_enumeration_is_lexicographic():
    sn = symmetric_group_elements(3)
    assert len(sn) == 6
    assert sn[0].is_identity
    assert [p.images for p in sn] == sorted(p.images for p in sn)


# ------------------------------------------------------------- FiniteGroup

def test_cyclic_group():
    C = FiniteGroup.cyclic(6)
    assert C.order == 6
    assert C.inv(2) == 4
    assert C.element_order(1) == 6
    assert C.element_order(2) == 3


def test_symmetric_group_structure():
    S3 = FiniteGroup.symmetric(3)
    assert S3.order == 6
    transpositions = [g for g in S3.elements if g.cycle_type() == Partition([2, 1])]
    assert len(transpositions) == 3
    assert S3.is_subgroup([Perm.identity(3), transpositions[0]])
    assert not S3.is_subgroup(transpositions)
    # built once: semidirect_extension, twisted_action and
    # verify_twisting_lemma all ask for the same S_n table
    assert FiniteGroup.symmetric(3) is S3


def test_subgroup_enumeration():
    S3 = FiniteGroup.symmetric(3)
    subs = S3.subgroups()
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]
    V4 = FiniteGroup.klein_four()
    assert sorted(len(s) for s in V4.subgroups()) == [1, 2, 2, 2, 4]
    C4 = FiniteGroup.cyclic(4)
    assert sorted(len(s) for s in C4.subgroups()) == [1, 2, 4]


def test_from_table_and_from_perms():
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    C3 = FiniteGroup.from_table(table)
    assert C3.order == 3 and C3.identity == 0
    G = FiniteGroup.from_perms([Perm((1, 2, 0))])
    assert G.order == 3
    with pytest.raises(CoverSpecError):
        FiniteGroup.from_table([[1, 0], [1, 0]])


def test_group_validation_rejects_non_closure():
    with pytest.raises(CoverSpecError):
        FiniteGroup([0, 1], lambda a, b: a + b, 0)  # 1+1=2 escapes


def test_group_order_cap_fails_fast():
    with pytest.raises(CoverSpecError, match="exceeds cap"):
        FiniteGroup.cyclic(GROUP_ORDER_CAP + 1)
    # S_7 has order 5040: the closure stops once it passes the cap
    with pytest.raises(CoverSpecError, match="order cap"):
        FiniteGroup.from_perms([Perm((1, 2, 3, 4, 5, 6, 0)),
                                Perm((1, 0, 2, 3, 4, 5, 6))])


# ------------------------------------------------------------- homs

def test_group_hom_validation():
    C2 = FiniteGroup.cyclic(2)
    GroupHom(C2, None, [Perm.identity(2), Perm((1, 0))])
    with pytest.raises(CoverSpecError):
        GroupHom(C2, None, [Perm((1, 0)), Perm.identity(2)])  # e -> swap
    with pytest.raises(CoverSpecError):
        # images do not multiply: 1+1=0 but swap*swap=id != swap
        GroupHom(C2, None, [Perm.identity(2), Perm((1, 0, 2))])


def test_enumerate_homs_counts():
    # |Hom(C2, S3)| = 1 + 3 transpositions = 4
    C2 = FiniteGroup.cyclic(2)
    S3 = FiniteGroup.symmetric(3)
    assert len(enumerate_homs(C2, S3)) == 4
    # |Hom(V4, S3)| = 1 + 3*3 = 10
    V4 = FiniteGroup.klein_four()
    assert len(enumerate_homs(V4, S3)) == 10
    # |Hom(C3, S2)| = 1
    C3 = FiniteGroup.cyclic(3)
    assert len(enumerate_homs(C3, FiniteGroup.symmetric(2))) == 1
    # allowed restricts every image, not only the generators' images:
    # with 2 -> 0 forced, C4 -> C4 leaves 1 -> 0 and 1 -> 2
    C4 = FiniteGroup.cyclic(4)
    allowed = {h: [0] if h == 2 else C4.elements for h in C4.elements}
    assert enumerate_homs(C4, C4, allowed) == [[0, 0, 0, 0], [0, 2, 0, 2]]


@pytest.mark.parametrize("n", [2, 3])
def test_enumerate_homs_matches_brute_force(n):
    target = FiniteGroup.symmetric(n)
    # S_3 is the non-abelian source: there the order of a product matters
    for source in [FiniteGroup.cyclic(k) for k in range(1, 5)] + [
            FiniteGroup.klein_four(), FiniteGroup.symmetric(3)]:
        homs = [tuple(images) for images in enumerate_homs(source, target)]
        assert len(homs) == len(set(homs))
        assert set(homs) == homs_oracle(source, target), source.name


# ------------------------------------------------------------- coset actions

def test_coset_action_s3_on_transposition_subgroup():
    S3 = FiniteGroup.symmetric(3)
    U = [Perm.identity(3), Perm((1, 0, 2))]
    act = coset_action(S3, U)
    assert act.degree == 3
    # transitive with point-0 stabilizer exactly U
    orbits = etale_from_action(act)
    assert len(orbits) == 1 and len(orbits[0][0]) == 3
    stab = [g for g in S3.elements if act(g)(0) == 0]
    assert stab == U
    # image is all of S_3: the action is faithful of degree 3
    assert len(act.image_set()) == 6


def test_coset_action_trivial_on_whole_group():
    S3 = FiniteGroup.symmetric(3)
    act = coset_action(S3, list(S3.elements))
    assert act.degree == 1
    assert all(p.is_identity for p in act.images)


def test_coset_action_regular_c3():
    C3 = FiniteGroup.cyclic(3)
    act = coset_action(C3, [0])
    assert act.degree == 3
    assert act(1).cycle_type() == Partition([3])


def test_coset_action_requires_subgroup():
    S3 = FiniteGroup.symmetric(3)
    with pytest.raises(CoverSpecError):
        coset_action(S3, [g for g in S3.elements
                          if g.cycle_type() == Partition([2, 1])])


# ------------------------------------------------------------- etale data

def test_etale_from_trivial_action():
    C2 = FiniteGroup.cyclic(2)
    mu = GroupHom(C2, None, [Perm.identity(3)] * 2)
    orbits = etale_from_action(mu)
    assert [o for o, _ in orbits] == [(0,), (1,), (2,)]
    assert all(stab == (0, 1) for _, stab in orbits)


def test_etale_from_natural_s3():
    S3 = FiniteGroup.symmetric(3)
    mu = GroupHom(S3, None, list(S3.elements))
    orbits = etale_from_action(mu)
    assert len(orbits) == 1
    orbit, stab = orbits[0]
    assert orbit == (0, 1, 2)
    assert len(stab) == 2  # orbit-stabilizer: 6 / 3


def test_etale_c2_with_fixed_points():
    C2 = FiniteGroup.cyclic(2)
    mu = GroupHom(C2, None, [Perm.identity(4), Perm((1, 0, 2, 3))])
    orbits = etale_from_action(mu)
    assert [o for o, _ in orbits] == [(0, 1), (2,), (3,)]


# ------------------------------------------------------------- galois reps

def test_galois_rep_regular_c2():
    C2 = FiniteGroup.cyclic(2)
    rep = galois_rep_of_algebra(C2, [[0]], n=2)
    assert rep.degree == 2
    assert rep(1) == Perm((1, 0))


def test_galois_rep_block_structure():
    S3 = FiniteGroup.symmetric(3)
    U = [Perm.identity(3), Perm((1, 0, 2))]
    rep = galois_rep_of_algebra(S3, [U, list(S3.elements), list(S3.elements)])
    assert rep.degree == 5
    sizes = sorted(len(o) for o, _ in etale_from_action(rep))
    assert sizes == [1, 1, 3]


def test_galois_rep_regular_representation():
    C4 = FiniteGroup.cyclic(4)
    rep = galois_rep_of_algebra(C4, [[0]], n=4)
    assert rep(1).cycle_type() == Partition([4])


def test_galois_rep_degree_mismatch():
    C2 = FiniteGroup.cyclic(2)
    with pytest.raises(CoverSpecError):
        galois_rep_of_algebra(C2, [[0]], n=3)


# ------------------------------------------------------------- extension data

def trivial_rep(H, n=1):
    return GroupHom(H, None, [Perm.identity(n)] * H.order, check=False)


def test_extension_datum_validation():
    H = FiniteGroup.cyclic(2)
    datum = semidirect_extension(2, H, trivial_rep(H, 2))
    assert datum.n == 2
    assert len(datum.K) == 2
    # phi restricted to K covers S_2
    assert {datum.phi(k) for k in datum.K} == set(symmetric_group_elements(2))


def test_extension_datum_rejects_partial_monodromy():
    # C4 -> C2 with K = {0, 2}: no phi of degree 2 can have phi(K) = S_2
    C4 = FiniteGroup.cyclic(4)
    C2 = FiniteGroup.cyclic(2)
    r = GroupHom(C4, C2, [0, 1, 0, 1])
    phi = GroupHom(C4, None,
                   [Perm.identity(2), Perm((1, 0))] * 2)  # kernel {0,2} -> id
    with pytest.raises(CoverSpecError):
        ExtensionDatum(C4, [0, 2], r, phi)


# ------------------------------------------------------------- twisted action

def test_twisted_action_degree_one():
    H = FiniteGroup.cyclic(3)
    datum = semidirect_extension(1, H, trivial_rep(H, 1))
    mu = trivial_rep(H, 1)
    psi = twisted_action(datum, mu)
    assert all(p.is_identity for p in psi.images)


def test_twisted_action_left_regular_s2():
    # K = S_2, H = C_1: chi is trivial, so the twisted action is left
    # translation of S_2 on itself
    H = FiniteGroup.cyclic(1)
    datum = semidirect_extension(2, H, trivial_rep(H, 2))
    psi = twisted_action(datum, trivial_rep(H, 2))
    swap = (Perm((1, 0)), H.identity)
    assert psi(swap) == Perm((1, 0))  # swaps the two elements of S_2


def test_twisted_action_formula_brute_force():
    # Gamma = S_3 x C_2, phi the projection, mu with image <(0 1)>;
    # re-derive every value of the action from the defining formula
    H = FiniteGroup.cyclic(2)
    datum = semidirect_extension(3, H, trivial_rep(H, 3))
    mu = GroupHom(H, None, [Perm.identity(3), Perm((1, 0, 2))])
    psi = twisted_action(datum, mu)
    sn = symmetric_group_elements(3)
    position = {p: i for i, p in enumerate(sn)}
    for gamma in datum.gamma.elements:
        sigma, h = gamma
        expected_right = mu(h).inverse()
        for j, x in enumerate(sn):
            assert psi(gamma)(j) == position[sigma * x * expected_right]
    # single orbit: the restriction to K is already transitive
    orbits = etale_from_action(psi)
    assert len(orbits) == 1 and len(orbits[0][0]) == 6


def test_twisted_action_multiplicative_exhaustive():
    H = FiniteGroup.cyclic(2)
    datum = semidirect_extension(2, H, trivial_rep(H, 2))
    mu = GroupHom(H, None, [Perm.identity(2), Perm((1, 0))])
    psi = twisted_action(datum, mu)
    G = datum.gamma
    for a in G.elements:
        for b in G.elements:
            assert psi(G.op(a, b)) == psi(a) * psi(b)


def test_twisted_action_restriction_is_left_translation():
    H = FiniteGroup.cyclic(2)
    for a_hom in all_perm_reps(H, 3):
        datum = semidirect_extension(3, H, a_hom)
        for mu in all_perm_reps(H, 3):
            psi = twisted_action(datum, mu)
            sn = symmetric_group_elements(3)
            position = {p: i for i, p in enumerate(sn)}
            for kappa in datum.K:
                left = datum.phi(kappa)
                expected = Perm(tuple(position[left * x] for x in sn))
                assert psi(kappa) == expected


def test_twisted_action_rejects_wrong_degree():
    H = FiniteGroup.cyclic(2)
    datum = semidirect_extension(2, H, trivial_rep(H, 2))
    with pytest.raises(CoverSpecError):
        twisted_action(datum, trivial_rep(H, 3))


# ------------------------------------------------------------- sections

def test_sections_direct_product_has_canonical():
    H = FiniteGroup.cyclic(2)
    datum = semidirect_extension(2, H, trivial_rep(H, 2))
    classes = enumerate_sections(datum)
    sections = [s for cls in classes for s in cls]
    assert sections
    canonical = [(Perm.identity(2), h) for h in H.elements]
    assert any(list(s.images) == canonical for s in sections)
    for s in sections:
        for h in H.elements:
            assert datum.r(s(h)) == h


def c4_over_c2_datum():
    # C_4 -> C_2 does not split; degree-1 monodromy makes the datum legal
    C4 = FiniteGroup.cyclic(4)
    r = GroupHom(C4, FiniteGroup.cyclic(2), [0, 1, 0, 1])
    return ExtensionDatum(C4, [0, 2], r, trivial_rep(C4, 1))


def s3_over_c2_datum():
    # S_3 -> C_2 with kernel A_3
    S3 = FiniteGroup.symmetric(3)
    sign_images = [0 if g.cycle_type() in (Partition([1, 1, 1]), Partition([3]))
                   else 1 for g in S3.elements]
    r = GroupHom(S3, FiniteGroup.cyclic(2), sign_images)
    A3 = [g for g, s in zip(S3.elements, sign_images) if s == 0]
    return ExtensionDatum(S3, A3, r, trivial_rep(S3, 1))


def test_sections_nonsplit_empty():
    datum = c4_over_c2_datum()
    assert enumerate_sections(datum) == []
    report = verify_twisting_lemma(datum, trivial_rep(datum.H, 1))
    assert report["vacuous"] and report["failures"] == 0


def test_sections_s3_over_a3():
    # the three transpositions, one K-class
    datum = s3_over_c2_datum()
    classes = enumerate_sections(datum)
    sections = [s for cls in classes for s in cls]
    assert len(sections) == 3
    assert len(classes) == 1
    for s in sections:
        assert s(1).cycle_type() == Partition([2, 1])


def test_sections_match_brute_force():
    # the sections are exactly the homomorphisms s with r(s(h)) = h
    C2 = FiniteGroup.cyclic(2)
    for datum in (s3_over_c2_datum(), c4_over_c2_datum(),
                  semidirect_extension(2, C2, trivial_rep(C2, 2))):
        found = [tuple(s.images) for cls in enumerate_sections(datum)
                 for s in cls]
        expected = {images for images in homs_oracle(datum.H, datum.gamma)
                    if all(datum.r(x) == h
                           for h, x in zip(datum.H.elements, images))}
        assert len(found) == len(set(found))
        assert set(found) == expected


# ------------------------------------------------------------- the lemma

def test_verify_lemma_degree_one_all_pass():
    H = FiniteGroup.cyclic(2)
    datum = semidirect_extension(1, H, trivial_rep(H, 1))
    report = verify_twisting_lemma(datum, trivial_rep(H, 1))
    assert report["failures"] == 0
    assert report["sections"] >= 1


def conjugate_in_sn(a_images, b_images, n):
    """Brute force: is a = w b w^-1 pointwise for some w in S_n?"""
    for w in symmetric_group_elements(n):
        wi = w.inverse()
        if all(x == w * y * wi for x, y in zip(a_images, b_images)):
            return True
    return False


def test_direct_product_fixed_point_iff_conjugate():
    # Gamma = S_n x H: a section is a hom c: H -> S_n; the twisted action
    # through it has a fixed point iff c is conjugate to mu.  Exhaustive
    # for n in {2, 3} and |H| in {2, 3, 4, 6}.
    for n in (2, 3):
        for H in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3),
                  FiniteGroup.cyclic(4), FiniteGroup.klein_four(),
                  FiniteGroup.cyclic(6)):
            datum = semidirect_extension(n, H, trivial_rep(H, n))
            for mu in all_perm_reps(H, n):
                psi = twisted_action(datum, mu)
                classes = enumerate_sections(datum)
                for cls in classes:
                    for s in cls:
                        through = [psi(s(h)) for h in H.elements]
                        has_fixed = any(
                            all(t(j) == j for t in through)
                            for j in range(len(psi.images[0].images)))
                        phi_s = [datum.phi(s(h)) for h in H.elements]
                        mu_images = [mu(h) for h in H.elements]
                        assert has_fixed == conjugate_in_sn(
                            phi_s, mu_images, n)


def test_verify_lemma_zero_failures_family_h_up_to_6():
    # every semidirect S_n x| H, every twisting hom, every mu from
    # subgroup tuples: no section may ever fail.  n in {2, 3} over five
    # groups of order <= 6, and n = 4 over C_1..C_4
    small = [FiniteGroup.cyclic(1), FiniteGroup.cyclic(2),
             FiniteGroup.cyclic(5), FiniteGroup.cyclic(6),
             FiniteGroup.symmetric(3)]
    quartic = [FiniteGroup.cyclic(k) for k in range(1, 5)]
    checked = {}
    for n, groups in ((2, small), (3, small), (4, quartic)):
        pairs = sections = 0
        for H in groups:
            for a_hom in all_perm_reps(H, n):
                datum = semidirect_extension(n, H, a_hom)
                subgroup_list = H.subgroups()
                mus = []
                for count in range(1, n + 1):
                    for tup in combinations_with_replacement(
                            range(len(subgroup_list)), count):
                        total = sum(H.order // len(subgroup_list[i])
                                    for i in tup)
                        if total == n:
                            mus.append(galois_rep_of_algebra(
                                H, [subgroup_list[i] for i in tup], n=n))
                for mu in mus:
                    report = verify_twisting_lemma(datum, mu)
                    assert report["failures"] == 0
                    pairs += 1
                    sections += report["sections"]
        checked[n] = (pairs, sections)
    # (datum, mu) pairs and sections checked; n = 4 is
    # 1*1 + 10*3 + 9*2 + 16*4 = 113 pairs
    assert checked == {2: (14, 26), 3: (78, 642), 4: (113, 1487)}


def test_verify_lemma_witness_is_fixed_point():
    # when a fixed point exists the witness list carries it as omega
    H = FiniteGroup.cyclic(2)
    datum = semidirect_extension(2, H, trivial_rep(H, 2))
    mu = GroupHom(H, None, [Perm.identity(2), Perm((1, 0))])
    report = verify_twisting_lemma(datum, mu)
    assert report["failures"] == 0
    for entry in report["entries"]:
        if entry["fixed_points"]:
            assert entry["witnesses"]
            assert entry["conjugacy_ok"] and entry["etale_ok"]


def test_verify_lemma_reports_are_byte_stable():
    # sha256 of repr of the full reports (section order, classes, fixed
    # points, witnesses) for S_3 x| S_3 over every twisting hom and mu
    S3 = FiniteGroup.symmetric(3)
    reps = all_perm_reps(S3, 3)
    reports = [verify_twisting_lemma(semidirect_extension(3, S3, a), mu)
               for a in reps for mu in reps]
    assert len(reports) == 100
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
        "30a54e6e61c3c99061ca4302b4671b2d56c58fc6c760f67f8c4b3e718160b373")
