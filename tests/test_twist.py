import hashlib
from itertools import combinations_with_replacement

import pytest

from coverspec import twist
from coverspec.errors import CoverSpecError
from coverspec.specialize import Partition
from coverspec.twist import (
    GROUP_ORDER_CAP, ExtensionDatum, FiniteGroup, GroupHom, Perm,
    all_perm_reps, conjugator_masks, coset_action, enumerate_homs,
    etale_from_action, galois_rep_of_algebra, semidirect_extension,
    symmetric_group_elements, twisted_action, verify_twisting_lemma)
from oracles import (
    homs_oracle, verify_twisting_lemma_by_orbits,
    verify_twisting_lemma_by_scan)


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


def test_perm_is_its_tuple_of_images():
    a = Perm([1, 0, 2])
    assert a == (1, 0, 2) and a.images == (1, 0, 2) and a.degree == 3
    assert hash(a) == hash((1, 0, 2))
    assert repr(a) == "Perm(1, 0, 2)" and repr(Perm([0])) == "Perm(0,)"
    assert a(0) == 1 and type(a * a) is Perm and type(a.inverse()) is Perm
    assert sorted([a, Perm.identity(3)]) == [(0, 1, 2), (1, 0, 2)]
    for attr in ("images", "degree"):
        with pytest.raises(AttributeError):
            setattr(a, attr, (0, 1, 2))
    with pytest.raises(CoverSpecError):
        a * Perm.identity(2)
    with pytest.raises(CoverSpecError) as err:
        Perm([1, 1])
    assert str(err.value) == "not a permutation: (1, 1)"


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
    C3 = FiniteGroup(range(3), table)
    assert C3.order == 3 and C3.identity == 0
    G = FiniteGroup.from_perms([Perm((1, 2, 0))])
    assert G.order == 3
    with pytest.raises(CoverSpecError):
        FiniteGroup(range(2), [[1, 0], [1, 0]])


def test_group_validation_rejects_non_closure():
    with pytest.raises(CoverSpecError):
        FiniteGroup.from_op([0, 1], lambda a, b: a + b)  # 1+1=2 escapes


# a loop of order 5 with identity 0 and x * x = 0: a Latin square, so
# every element has a two-sided inverse, but no group of order 5 has an
# element of order 2, so it is not associative
NON_ASSOCIATIVE_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("elements, table, message", [
    ([0, 0], [[0, 1], [1, 0]], "duplicate group elements"),
    (range(2), [[0, 1]], "multiplication table is not square"),
    (range(2), [[0, 1], [1]], "multiplication table is not square"),
    (range(2), [[0, 1], [1, 2]], "multiplication table entry out of range"),
    (range(2), [[1, 0], [1, 0]], "table has no identity element"),
    (range(2), [[0, 0], [1, 0]], "identity fails"),
    (range(3), [[0, 1, 2], [1, 1, 1], [2, 1, 0]], "no inverse for 1"),
    (range(3), [[0, 1, 2], [1, 2, 0], [2, 2, 1]], "no inverse for 1"),
    (range(5), NON_ASSOCIATIVE_LOOP, "associativity fails on sampled triple"),
], ids=["duplicate", "rows", "row-length", "range", "no-identity",
        "identity", "no-inverse", "one-sided-inverse", "associativity"])
def test_group_table_guards(elements, table, message):
    with pytest.raises(CoverSpecError) as err:
        FiniteGroup(elements, table)
    assert str(err.value) == message


def test_group_repr():
    assert repr(FiniteGroup.cyclic(3)) == "FiniteGroup(C3, order 3)"


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


def test_group_hom_guards():
    C2 = FiniteGroup.cyclic(2)
    swap = Perm((1, 0))
    for target, images, message in [
            (None, [Perm.identity(2)],
             "image table length differs from group order"),
            (C2, [0, 5], "image outside the target group"),
            (None, [Perm.identity(2), Perm.identity(3)],
             "permutation images of mixed degree")]:
        with pytest.raises(CoverSpecError) as err:
            GroupHom(C2, target, images)
        assert str(err.value) == message
    onto = GroupHom(C2, C2, [0, 1])
    with pytest.raises(CoverSpecError, match="permutation representations"):
        onto.degree
    assert onto.kernel() == [0] and onto.is_surjective()
    rep = GroupHom(C2, None, [Perm.identity(2), swap])
    assert rep.degree == 2 and rep.kernel() == [0]
    with pytest.raises(CoverSpecError, match="against an explicit group"):
        rep.is_surjective()


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


def s3_datum_parts():
    """S_3 with its sign onto C_2, A_3 and the trivial degree-1 rep."""
    S3 = FiniteGroup.symmetric(3)
    sign = [0 if g.cycle_type() in (Partition([1, 1, 1]), Partition([3]))
            else 1 for g in S3.elements]
    A3 = [g for g, s in zip(S3.elements, sign) if s == 0]
    return S3, A3, GroupHom(S3, FiniteGroup.cyclic(2), sign), trivial_rep(S3)


def test_extension_datum_guards():
    S3, A3, r, phi = s3_datum_parts()
    transposition = next(g for g in S3.elements
                         if g.cycle_type() == Partition([2, 1]))
    identity = Perm.identity(3)
    for K, r_map, phi_map, message in [
            (A3, phi, phi, "r must map onto an explicit group"),
            (A3, r, r, "phi must be a permutation representation"),
            ([identity, transposition], r, phi, "K is not normal"),
            (A3, GroupHom(S3, FiniteGroup.cyclic(3), [0] * 6), phi,
             "r is not surjective"),
            ([identity], r, phi, "kernel of r differs from K")]:
        with pytest.raises(CoverSpecError) as err:
            ExtensionDatum(S3, K, r_map, phi_map)
        assert str(err.value) == message
    datum = ExtensionDatum(S3, A3, r, phi)
    assert repr(datum) == "ExtensionDatum(|Gamma|=6, |K|=3, H=C2, n=1)"


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


def test_twisted_action_and_semidirect_guards():
    H = FiniteGroup.cyclic(2)
    datum = semidirect_extension(2, H, trivial_rep(H, 2))
    for mu, message in [
            (GroupHom(H, H, [0, 1]),
             "mu must be a permutation representation"),
            (trivial_rep(FiniteGroup.cyclic(2), 2),
             "mu must act through H = target of r")]:
        with pytest.raises(CoverSpecError) as err:
            twisted_action(datum, mu)
        assert str(err.value) == message
    for a_hom, message in [
            (trivial_rep(FiniteGroup.cyclic(3), 2),
             "twisting hom must be a perm rep of H"),
            (GroupHom(H, H, [0, 1]), "twisting hom must be a perm rep of H"),
            (trivial_rep(H, 3), "twisting hom degree differs from n")]:
        with pytest.raises(CoverSpecError) as err:
            semidirect_extension(2, H, a_hom)
        assert str(err.value) == message


def small_groups():
    return [FiniteGroup.cyclic(k) for k in range(1, 7)] + [
        FiniteGroup.klein_four(), FiniteGroup.symmetric(3)]


def test_semidirect_table_matches_the_perm_law():
    # the index-built table of S_n x| H against Perm products and H's label
    # law: (s, h)(t, g) = (s * a_h * t * a_h^-1, hg)
    for n in (1, 2, 3):
        for H in small_groups():
            for a_hom in all_perm_reps(H, n):
                gamma = semidirect_extension(n, H, a_hom).gamma
                for (s, h), row in zip(gamma.elements, gamma.table):
                    a = a_hom(h)
                    a_inv = a.inverse()
                    for (t, g), c in zip(gamma.elements, row):
                        assert gamma.elements[c] == (s * a * t * a_inv,
                                                     H.op(h, g))


def test_psi_and_phi_are_homomorphisms():
    # both are built unchecked; the full check must pass on the family
    family = [(n, H) for n in (1, 2, 3) for H in small_groups()] + [
        (4, FiniteGroup.cyclic(k)) for k in (1, 2, 3)]
    for n, H in family:
        reps = all_perm_reps(H, n)
        for a_hom in reps:
            datum = semidirect_extension(n, H, a_hom)
            GroupHom(datum.gamma, None, datum.phi.images, check=True)
            for mu in reps:
                psi = twisted_action(datum, mu)
                GroupHom(datum.gamma, None, psi.images, check=True)


# ------------------------------------------------------------- sections

def test_sections_direct_product_has_canonical():
    H = FiniteGroup.cyclic(2)
    datum = semidirect_extension(2, H, trivial_rep(H, 2))
    classes = datum.sections
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
    return ExtensionDatum(*s3_datum_parts())


def test_sections_nonsplit_empty():
    datum = c4_over_c2_datum()
    assert datum.sections == []
    report = verify_twisting_lemma(datum, trivial_rep(datum.H, 1))
    assert report["vacuous"] and report["failures"] == 0


def test_sections_s3_over_a3():
    # the three transpositions, one K-class
    datum = s3_over_c2_datum()
    classes = datum.sections
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
        found = [tuple(s.images) for cls in datum.sections
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
                classes = datum.sections
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


def small_twist_groups():
    """The five groups of order <= 6 of the n <= 3 family."""
    return [FiniteGroup.cyclic(1), FiniteGroup.cyclic(2),
            FiniteGroup.cyclic(5), FiniteGroup.cyclic(6),
            FiniteGroup.symmetric(3)]


def twist_family(n, groups):
    """(datum, mu) for every semidirect S_n x| H over H in groups, every
    twisting hom and every mu from subgroup tuples."""
    for H in groups:
        mus = etale_mus(H, n)
        for a_hom in all_perm_reps(H, n):
            datum = semidirect_extension(n, H, a_hom)
            for mu in mus:
                yield datum, mu


def test_verify_lemma_zero_failures_family_h_up_to_6():
    # every semidirect S_n x| H, every twisting hom, every mu from
    # subgroup tuples: no section may ever fail.  n in {2, 3} over five
    # groups of order <= 6, and n = 4 over C_1..C_4, V_4 and Q_8
    small = small_twist_groups()
    quartic = [FiniteGroup.cyclic(k) for k in range(1, 5)] + [
        FiniteGroup.klein_four(), quaternion_group()]
    checked = {}
    for n, groups in ((2, small), (3, small), (4, quartic)):
        pairs = sections = 0
        for datum, mu in twist_family(n, groups):
            report = verify_twisting_lemma(datum, mu)
            assert report["failures"] == 0
            pairs += 1
            sections += report["sections"]
        checked[n] = (pairs, sections)
    # (datum, mu) pairs and sections checked; n = 4 over C_1..C_4 is
    # 1*1 + 10*3 + 9*2 + 16*4 = 113 pairs, and V_4 and Q_8 add 572 each
    assert checked == {2: (14, 26), 3: (78, 642), 4: (1257, 60975)}


def order_eight_groups():
    """C_8, C_2 x C_4 and D_4, the groups of order 8 other than Q_8 and
    C_2^3, as permutation groups."""
    return [FiniteGroup.from_perms([Perm((1, 2, 3, 4, 5, 6, 7, 0))], "C8"),
            FiniteGroup.from_perms([Perm((1, 0, 2, 3, 4, 5)),
                                    Perm((0, 1, 3, 4, 5, 2))], "C2xC4"),
            dihedral_group()]


def dihedral_group():
    # D_4, the symmetries of a square: a rotation and a reflection
    return FiniteGroup.from_perms([Perm((1, 2, 3, 0)), Perm((0, 3, 2, 1))],
                                  name="D4")


def test_verify_lemma_zero_failures_n4_over_order_eight():
    # n = 4 over C_8, C_2 x C_4 and D_4, every twisting hom and etale mu
    checked = {}
    for H in order_eight_groups():
        pairs = sections = 0
        for datum, mu in twist_family(4, [H]):
            report = verify_twisting_lemma(datum, mu)
            assert report["failures"] == 0
            pairs += 1
            sections += report["sections"]
        checked[H.name] = (pairs, sections)
    assert checked == {"C8": (64, 1024), "C2xC4": (832, 53248),
                       "D4": (1140, 86640)}


def test_verify_lemma_matches_the_scan_verifier():
    # the mask verifier against the n! scan per section, report for report:
    # the n <= 3 family, and n = 4 over C_1..C_4, V_4, Q_8 and D_4
    quartic = [FiniteGroup.cyclic(k) for k in range(1, 5)] + [
        FiniteGroup.klein_four(), quaternion_group(), dihedral_group()]
    pairs = 0
    for n, groups in ((2, small_twist_groups()), (3, small_twist_groups()),
                      (4, quartic)):
        for datum, mu in twist_family(n, groups):
            assert verify_twisting_lemma(datum, mu) == \
                verify_twisting_lemma_by_scan(datum, mu)
            pairs += 1
    assert pairs == 14 + 78 + 1257 + 1140


@pytest.mark.parametrize("n", [3, 4])
def test_conjugator_masks_match_brute_force(n):
    sn = FiniteGroup.symmetric(n)
    for m, perm in enumerate(sn.elements):
        masks = conjugator_masks(sn, m)
        for a, target in enumerate(sn.elements):
            expected = sum(1 << j for j, w in enumerate(sn.elements)
                           if w * perm * w.inverse() == target)
            assert masks[a] == expected


def test_verify_lemma_reports_wrong_witness_masks(monkeypatch):
    # conjugator masks built on the wrong side, j^(-1) m j = a in place of
    # j m j^(-1) = a: on the n <= 3 family some fixed point is then no
    # witness, and the verifier says so
    def wrong_side(group, m):
        table, masks = group.table, [0] * group.order
        for j, j_inv in enumerate(group.inverse):
            masks[table[table[j_inv][m]][j]] |= 1 << j
        return masks

    monkeypatch.setattr(twist, "conjugator_masks", wrong_side)
    failing = [report["failures"] for n in (2, 3)
               for report in (verify_twisting_lemma(datum, mu) for datum, mu
                              in twist_family(n, small_twist_groups()))
               if report["failures"]]
    assert (len(failing), sum(failing)) == (50, 100)


def test_verify_lemma_reports_a_wrong_action(monkeypatch):
    # theta acting by x |-> phi(theta) * x alone, without the factor
    # chi(theta)^(-1): on the n <= 3 family some section then has a fixed
    # point that is no conjugating witness, and the verifier says so
    def untwisted(datum, mu):
        sn = FiniteGroup.symmetric(datum.n)
        return GroupHom(datum.gamma, None, [
            Perm(sn.table[sn.index[p]]) for p in datum.phi.images],
            check=False)

    monkeypatch.setattr(twist, "twisted_action", untwisted)
    failing = [report["failures"] for n in (2, 3)
               for report in (verify_twisting_lemma(datum, mu) for datum, mu
                              in twist_family(n, small_twist_groups()))
               if report["failures"]]
    assert failing


def quaternion_group():
    # Q_8 = {1, -1, i, -i, j, -j, k, -k} by left multiplication on itself
    i = Perm((2, 3, 1, 0, 6, 7, 5, 4))
    j = Perm((4, 5, 7, 6, 1, 0, 2, 3))
    return FiniteGroup.from_perms([i, j], name="Q8")


def test_quaternion_group():
    Q8 = quaternion_group()
    assert Q8.order == 8
    assert sorted(Q8.element_order(g) for g in Q8.elements) == [
        1, 2, 4, 4, 4, 4, 4, 4]
    assert len(Q8.subgroups()) == 6


def test_sections_are_enumerated_once_per_datum(monkeypatch):
    # verifying one datum against all of its mus enumerates its sections
    # once: one enumerate_homs call into Gamma, however many mus
    H = FiniteGroup.cyclic(2)
    datum = semidirect_extension(3, H, trivial_rep(H, 3))
    mus = all_perm_reps(H, 3)
    targets = []
    real = twist.enumerate_homs

    def counting(source, target, allowed=None):
        targets.append(target)
        return real(source, target, allowed)

    monkeypatch.setattr(twist, "enumerate_homs", counting)
    reports = [verify_twisting_lemma(datum, mu) for mu in mus]
    assert len(mus) == 4
    assert all(report["failures"] == 0 for report in reports)
    assert sum(target is datum.gamma for target in targets) == 1


def etale_mus(H, n):
    """The Galois representation of every etale algebra of degree n over
    H: one per multiset of subgroups whose indices add up to n."""
    subgroups = H.subgroups()
    return [galois_rep_of_algebra(H, [subgroups[i] for i in tup], n=n)
            for count in range(1, n + 1)
            for tup in combinations_with_replacement(range(len(subgroups)),
                                                     count)
            if sum(H.order // len(subgroups[i]) for i in tup) == n]


def test_verify_lemma_matches_the_orbit_comparing_verifier():
    # the stabilizer check alone gives the reports of the verifier that
    # also compared sorted orbit sizes, on the benchmark's twist family
    # (n = 2, 3 over C1..C6, V4, S3 and n = 4 over C1..C3, every twisting
    # hom, every etale mu) with every perm rep as mu as well for n <= 3
    small = [FiniteGroup.cyclic(k) for k in range(1, 7)] + [
        FiniteGroup.klein_four(), FiniteGroup.symmetric(3)]
    pairs = fixed = 0
    for n, groups in ((2, small), (3, small), (4, small[:3])):
        for H in groups:
            mus = etale_mus(H, n) + (all_perm_reps(H, n) if n <= 3 else [])
            for a_hom in all_perm_reps(H, n):
                datum = semidirect_extension(n, H, a_hom)
                for mu in mus:
                    report = verify_twisting_lemma(datum, mu)
                    assert report == verify_twisting_lemma_by_orbits(
                        datum, mu)
                    pairs += 1
                    fixed += sum(1 for e in report["entries"]
                                 if e["fixed_points"])
    assert (pairs, fixed) == (530, 1572)


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
