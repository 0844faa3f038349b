"""Finite combinatorial model of twisted covers and the twisting criterion.

The profinite objects of the theory (fundamental groups, absolute Galois
groups) are replaced by finite data: a group Gamma with a normal subgroup
K, a quotient map r onto H = Gamma/K, and a permutation representation
phi of degree n whose restriction to K is all of S_n.  A point of the
base with trivial ramification corresponds to a homomorphic section
s: H -> Gamma of r; the etale algebra to realize is encoded by an action
mu: H -> S_n.

The twisted action sends theta in Gamma to the permutation
x |-> phi(theta) * x * (mu.r)(theta)^(-1) of the n! elements of S_n,
enumerated once and for all in lexicographic image order.  Its key
property, checked here exhaustively instead of proved: if the twisted
action composed with a section s fixes a point x0, then
phi(s(tau)) = x0 * mu(tau) * x0^(-1) for every tau, hence the orbit and
stabilizer data of phi.s and of mu agree, which is exactly "the
prescribed algebra is the specialization at the point".
"""

import random
from itertools import permutations

from .errors import CoverSpecError
from .specialize import Partition

GROUP_ORDER_CAP = 10 ** 5
_EXHAUSTIVE_PAIRS = 10 ** 6


class Perm:
    """Permutation of {0, ..., k-1} as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise CoverSpecError(f"not a permutation: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, k):
        return cls(range(k))

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def __mul__(self, other):
        # (self * other)(i) = self(other(i))
        if len(other.images) != len(self.images):
            raise CoverSpecError("permutation degrees differ")
        return Perm(tuple(self.images[j] for j in other.images))

    def inverse(self):
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        return Perm(out)

    @property
    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def cycle_type(self):
        seen = [False] * len(self.images)
        lengths = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.images[i]
                length += 1
            lengths.append(length)
        return Partition(lengths)

    def __eq__(self, other):
        return isinstance(other, Perm) and other.images == self.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"

    def __setattr__(self, *_):
        raise AttributeError("Perm is immutable")


def symmetric_group_elements(n):
    """All of S_n in lexicographic image order; the canonical enumeration."""
    return [Perm(p) for p in permutations(range(n))]


class FiniteGroup:
    """Finite group on hashable element labels with an explicit operation.

    Checks closure, identity, inverses and associativity exhaustively for
    small orders and on seeded samples beyond; order is capped at 10**5.
    """

    def __init__(self, elements, op, identity, name="G", check=True):
        elements = list(elements)
        if len(elements) > GROUP_ORDER_CAP:
            raise CoverSpecError(
                f"group order {len(elements)} exceeds cap {GROUP_ORDER_CAP}")
        if len(set(elements)) != len(elements):
            raise CoverSpecError("duplicate group elements")
        self.elements = elements
        self.op = op
        self.identity = identity
        self.name = name
        self.index = {g: i for i, g in enumerate(elements)}
        if identity not in self.index:
            raise CoverSpecError("identity not among the elements")
        self._inverse = {}
        if check:
            self._validate()

    def _validate(self):
        k = len(self.elements)
        exhaustive = k * k <= _EXHAUSTIVE_PAIRS
        if exhaustive:
            pairs = ((a, b) for a in self.elements for b in self.elements)
        else:
            rng = random.Random(0)
            pairs = ((rng.choice(self.elements), rng.choice(self.elements))
                     for _ in range(2000))
        for a, b in pairs:
            if self.op(a, b) not in self.index:
                raise CoverSpecError(f"not closed: {a!r} * {b!r}")
        sample = self.elements if k <= 100 else self.elements[:50] + [
            self.elements[i] for i in
            random.Random(1).sample(range(k), min(k, 50))]
        for a in sample:
            if self.op(a, self.identity) != a or self.op(self.identity, a) != a:
                raise CoverSpecError("identity fails")
        for a in sample:
            self.inv(a)  # raises if no inverse
        triples = [(a, b, c) for a in sample[:12] for b in sample[:12]
                   for c in sample[:12]]
        for a, b, c in triples:
            if self.op(self.op(a, b), c) != self.op(a, self.op(b, c)):
                raise CoverSpecError("associativity fails on sampled triple")

    @property
    def order(self):
        return len(self.elements)

    def mul(self, a, b):
        return self.op(a, b)

    def inv(self, a):
        cached = self._inverse.get(a)
        if cached is not None:
            return cached
        for b in self.elements:
            if self.op(a, b) == self.identity and self.op(b, a) == self.identity:
                self._inverse[a] = b
                return b
        raise CoverSpecError(f"no inverse for {a!r}")

    def conjugate(self, g, x):
        """g x g^-1."""
        return self.op(self.op(g, x), self.inv(g))

    def is_subgroup(self, subset):
        subset = set(subset)
        if self.identity not in subset:
            return False
        if any(s not in self.index for s in subset):
            return False
        for a in subset:
            if self.inv(a) not in subset:
                return False
            for b in subset:
                if self.op(a, b) not in subset:
                    return False
        return True

    def close_subset(self, seed_elements):
        """Subgroup generated by the given elements, as an ordered label list."""
        known = {self.identity}
        frontier = [self.identity]
        gens = [g for g in seed_elements]
        while frontier:
            fresh = []
            for a in frontier:
                for g in gens:
                    c = self.op(a, g)
                    if c not in known:
                        known.add(c)
                        fresh.append(c)
            frontier = fresh
        # inverses come for free in a finite group
        return [g for g in self.elements if g in known]

    def subgroups(self):
        """Every subgroup, as ordered label lists (desk-scale orders only)."""
        found = {frozenset([self.identity])}
        frontier = [frozenset([self.identity])]
        while frontier:
            fresh = []
            for sub in frontier:
                for g in self.elements:
                    if g in sub:
                        continue
                    bigger = frozenset(self.close_subset(list(sub) + [g]))
                    if bigger not in found:
                        found.add(bigger)
                        fresh.append(bigger)
            frontier = fresh
        out = [[g for g in self.elements if g in sub] for sub in found]
        out.sort(key=lambda labels: (len(labels),
                                     tuple(self.index[g] for g in labels)))
        return out

    def element_order(self, a):
        k = 1
        acc = a
        while acc != self.identity:
            acc = self.op(acc, a)
            k += 1
        return k

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_perms(cls, perms, name="P"):
        """Closure of a set of permutations of equal degree."""
        perms = list(perms)
        degree = perms[0].degree
        ident = Perm.identity(degree)
        known = {ident}
        frontier = [ident]
        while frontier:
            fresh = []
            for a in frontier:
                for g in perms:
                    c = a * g
                    if c not in known:
                        known.add(c)
                        fresh.append(c)
                    if len(known) > GROUP_ORDER_CAP:
                        raise CoverSpecError("closure exceeds the order cap")
            frontier = fresh
        elements = sorted(known)
        return cls(elements, lambda a, b: a * b, ident, name=name)

    @classmethod
    def symmetric(cls, n):
        return cls(symmetric_group_elements(n), lambda a, b: a * b,
                   Perm.identity(n), name=f"S{n}")

    @classmethod
    def cyclic(cls, k):
        return cls(range(k), lambda a, b: (a + b) % k, 0, name=f"C{k}")

    @classmethod
    def klein_four(cls):
        return cls([(0, 0), (0, 1), (1, 0), (1, 1)],
                   lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2),
                   (0, 0), name="V4")

    @classmethod
    def direct_product(cls, A, B):
        elements = [(a, b) for a in A.elements for b in B.elements]
        return cls(elements,
                   lambda x, y: (A.op(x[0], y[0]), B.op(x[1], y[1])),
                   (A.identity, B.identity),
                   name=f"{A.name}x{B.name}")

    @classmethod
    def from_table(cls, table, name="tabled"):
        """Group on labels 0..k-1 from a row-major multiplication table."""
        k = len(table)
        for row in table:
            if len(row) != k:
                raise CoverSpecError("multiplication table is not square")
        identity = None
        for e in range(k):
            if all(table[e][x] == x and table[x][e] == x for x in range(k)):
                identity = e
                break
        if identity is None:
            raise CoverSpecError("table has no identity element")
        return cls(range(k), lambda a, b: table[a][b], identity, name=name)


class GroupHom:
    """Homomorphism given by its image table on all source elements.

    target is a FiniteGroup, or None for a permutation representation
    (images are Perm objects).  Multiplicativity is verified exhaustively
    for source order at most 10**3 and on seeded samples beyond.
    """

    def __init__(self, source, target, images, check=True):
        images = list(images)
        if len(images) != source.order:
            raise CoverSpecError("image table length differs from group order")
        self.source = source
        self.target = target
        self.images = images
        self._table = {g: images[i] for i, g in enumerate(source.elements)}
        if check:
            self._validate()

    def _validate(self):
        ident = (self.target.identity if self.target is not None
                 else Perm.identity(self.degree))
        if self(self.source.identity) != ident:
            raise CoverSpecError("homomorphism does not fix the identity")
        if self.target is not None:
            for im in self.images:
                if im not in self.target.index:
                    raise CoverSpecError("image outside the target group")
        else:
            degrees = {im.degree for im in self.images}
            if len(degrees) > 1:
                raise CoverSpecError("permutation images of mixed degree")
        k = self.source.order
        if k * k <= 10 ** 6:
            pairs = ((a, b) for a in self.source.elements
                     for b in self.source.elements)
        else:
            rng = random.Random(0)
            pairs = ((rng.choice(self.source.elements),
                      rng.choice(self.source.elements)) for _ in range(2000))
        mul = ((lambda x, y: self.target.op(x, y)) if self.target is not None
               else (lambda x, y: x * y))
        for a, b in pairs:
            if self(self.source.op(a, b)) != mul(self(a), self(b)):
                raise CoverSpecError(
                    f"not multiplicative at ({a!r}, {b!r})")

    @property
    def degree(self):
        """Degree of a permutation representation."""
        if self.target is not None:
            raise CoverSpecError("degree applies to permutation representations")
        return self.images[0].degree if self.images else 0

    def __call__(self, g):
        return self._table[g]

    def compose(self, inner):
        """self after inner: inner must land in self.source."""
        images = [self(inner(g)) for g in inner.source.elements]
        return GroupHom(inner.source, self.target, images, check=False)

    def kernel(self):
        ident = (self.target.identity if self.target is not None
                 else Perm.identity(self.degree))
        return [g for g in self.source.elements if self(g) == ident]

    def image_set(self):
        return set(self.images)

    def is_surjective(self):
        if self.target is None:
            raise CoverSpecError("surjectivity onto a permutation type is"
                                 " checked against an explicit group")
        return self.image_set() == set(self.target.elements)


# ---------------------------------------------------------------------------
# Coset actions and etale data.


def coset_action(G, U):
    """Left-multiplication action of G on the left cosets gU.

    Coset 0 is U itself.  Returns a permutation representation of degree
    [G : U]; raises when U is not a subgroup.
    """
    U = list(U)
    if not G.is_subgroup(U):
        raise CoverSpecError("coset_action needs a subgroup")
    member = {}
    reps = []
    cosets = []
    for g in [G.identity] + [g for g in G.elements if g != G.identity]:
        if g in member:
            continue
        coset = frozenset(G.op(g, u) for u in U)
        idx = len(cosets)
        cosets.append(coset)
        reps.append(g)
        for x in coset:
            member[x] = idx
    images = []
    for g in G.elements:
        images.append(Perm(tuple(member[G.op(g, rep)] for rep in reps)))
    return GroupHom(G, None, images, check=False)


def etale_from_action(mu):
    """Orbits of an action with the stabilizer of each orbit's least point.

    Orbit sizes play the role of the degrees of the field factors of the
    etale algebra attached to mu.
    """
    m = mu.degree
    seen = [False] * m
    out = []
    for start in range(m):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            fresh = []
            for i in frontier:
                for perm in mu.images:
                    j = perm(i)
                    if j not in orbit:
                        orbit.add(j)
                        fresh.append(j)
            frontier = fresh
        for i in orbit:
            seen[i] = True
        marked = min(orbit)
        stab = [g for g in mu.source.elements if mu(g)(marked) == marked]
        out.append((tuple(sorted(orbit)), tuple(stab)))
    return out


def galois_rep_of_algebra(H, subgroups, n=None):
    """Block juxtaposition of the coset actions on the given subgroups.

    The blocks appear in input order; the resulting degree is the sum of
    the indices [H : U].  A mismatch against an expected n is an error.
    """
    actions = [coset_action(H, U) for U in subgroups]
    degrees = [act.degree for act in actions]
    total = sum(degrees)
    if n is not None and total != n:
        raise CoverSpecError(
            f"degree mismatch: sum of indices {total} != n = {n}")
    images = []
    for i, h in enumerate(H.elements):
        combined = []
        offset = 0
        for act, d in zip(actions, degrees):
            block = act.images[i]
            combined.extend(offset + block(j) for j in range(d))
            offset += d
        images.append(Perm(tuple(combined)))
    return GroupHom(H, None, images, check=False)


# ---------------------------------------------------------------------------
# Extension data, sections, the twisted action and the verifier.


class ExtensionDatum:
    """Finite stand-in for the fundamental exact sequence.

    Gamma with normal subgroup K, quotient map r: Gamma -> H with kernel
    exactly K, and a permutation representation phi: Gamma -> S_n whose
    restriction to K is onto all of S_n.
    """

    def __init__(self, gamma, K, r, phi):
        self.gamma = gamma
        self.K = list(K)
        self.r = r
        self.phi = phi
        self.H = r.target
        if self.H is None:
            raise CoverSpecError("r must map onto an explicit group")
        if phi.target is not None:
            raise CoverSpecError("phi must be a permutation representation")
        self.n = phi.degree
        self._validate()

    def _validate(self):
        g = self.gamma
        if not g.is_subgroup(self.K):
            raise CoverSpecError("K is not a subgroup")
        k_set = set(self.K)
        pairs = g.order * len(self.K)
        if pairs <= _EXHAUSTIVE_PAIRS:
            gens = g.elements
        else:
            gens = random.Random(0).sample(g.elements, 100)
        for x in gens:
            for kappa in self.K:
                if g.conjugate(x, kappa) not in k_set:
                    raise CoverSpecError("K is not normal")
        if not self.r.is_surjective():
            raise CoverSpecError("r is not surjective")
        if set(self.r.kernel()) != k_set:
            raise CoverSpecError("kernel of r differs from K")
        phi_k = {self.phi(kappa) for kappa in self.K}
        if phi_k != set(symmetric_group_elements(self.n)):
            raise CoverSpecError(
                f"phi(K) is not all of S_{self.n}: full symmetric geometric"
                " monodromy is required")

    def __repr__(self):
        return (f"ExtensionDatum(|Gamma|={self.gamma.order}, |K|={len(self.K)},"
                f" H={self.H.name}, n={self.n})")


def twisted_action(datum, mu):
    """The twisted permutation action of Gamma on the n! elements of S_n.

    theta acts by x |-> phi(theta) * x * chi(theta)^(-1) with
    chi = mu . r.  The result is verified to be a homomorphism; its
    restriction to K is left translation by phi.
    """
    if mu.target is not None:
        raise CoverSpecError("mu must be a permutation representation")
    if mu.source is not datum.H:
        raise CoverSpecError("mu must act through H = target of r")
    if mu.degree != datum.n:
        raise CoverSpecError(
            f"mu has degree {mu.degree}, datum expects {datum.n}")
    sn = symmetric_group_elements(datum.n)
    position = {p: i for i, p in enumerate(sn)}
    images = []
    for gamma in datum.gamma.elements:
        left = datum.phi(gamma)
        right = mu(datum.r(gamma)).inverse()
        images.append(Perm(tuple(
            position[left * x * right] for x in sn)))
    return GroupHom(datum.gamma, None, images, check=True)


def enumerate_sections(datum):
    """All homomorphic sections s: H -> Gamma of r, in K-conjugacy classes.

    Returns a list of classes, each class a list of GroupHom; empty when
    the extension does not split.  Deterministic order.
    """
    gamma, H, r = datum.gamma, datum.H, datum.r
    if gamma.order > 10 ** 4:
        raise CoverSpecError("section enumeration capped at order 10**4")
    fibers = {h: [] for h in H.elements}
    for g in gamma.elements:
        fibers[r(g)].append(g)

    # generating sequence of H with words over the generators
    gens = []
    words = {H.identity: ()}
    for h in H.elements:
        if h in words:
            continue
        gens.append(h)
        gi = len(gens) - 1
        frontier = list(words.items())
        while frontier:
            fresh = []
            for elem, word in frontier:
                for idx, g in enumerate(gens):
                    nxt = H.op(elem, g)
                    if nxt not in words:
                        nw = word + (idx,)
                        words[nxt] = nw
                        fresh.append((nxt, nw))
            frontier = fresh

    sections = []

    def build_map(choice):
        table = {}
        for h in H.elements:
            acc = gamma.identity
            for idx in words[h]:
                acc = gamma.op(acc, choice[idx])
            table[h] = acc
        return table

    def consistent(table):
        for a in H.elements:
            for b in H.elements:
                if table[H.op(a, b)] != gamma.op(table[a], table[b]):
                    return False
        return True

    def dfs(position, choice):
        if position == len(gens):
            table = build_map(choice)
            if consistent(table):
                sections.append(GroupHom(
                    H, gamma, [table[h] for h in H.elements], check=False))
            return
        for candidate in fibers[gens[position]]:
            dfs(position + 1, choice + [candidate])

    dfs(0, [])

    # group into K-conjugacy classes, preserving discovery order
    classes = []
    assigned = {}
    key = lambda hom: tuple(hom.images)
    by_key = {key(s): s for s in sections}
    for s in sections:
        if key(s) in assigned:
            continue
        cls = []
        seen_keys = set()
        for kappa in datum.K:
            conj = tuple(gamma.conjugate(kappa, s(h)) for h in H.elements)
            if conj in by_key and conj not in seen_keys:
                seen_keys.add(conj)
                assigned[conj] = len(classes)
                cls.append(by_key[conj])
        classes.append(cls)
    return classes


def verify_twisting_lemma(datum, mu):
    """Exhaustive check of the twisting criterion on one extension datum.

    For every section s: if the twisted action composed with s has a fixed
    point x0 in S_n, then (a) phi(s(tau)) = x0 mu(tau) x0^(-1) for all tau
    and (b) the orbit/stabilizer data of phi.s equals that of mu; both are
    verified, with the fixed point doubling as the conjugating witness.
    Sections without fixed points pass vacuously, as does a datum with no
    sections at all.
    """
    if {datum.phi(k) for k in datum.K} != set(symmetric_group_elements(datum.n)):
        raise CoverSpecError("twisting hypothesis phi(K) = S_n violated")
    psi = twisted_action(datum, mu)
    sn = symmetric_group_elements(datum.n)
    classes = enumerate_sections(datum)
    entries = []
    failures = 0
    for class_index, cls in enumerate(classes):
        for s in cls:
            through = [psi(s(h)) for h in datum.H.elements]
            fixed = [j for j in range(len(sn))
                     if all(t(j) == j for t in through)]
            conj_ok = True
            etale_ok = True
            witnesses = []
            if fixed:
                for j in fixed:
                    omega = sn[j]
                    omega_inv = omega.inverse()
                    for h in datum.H.elements:
                        if datum.phi(s(h)) != omega * mu(h) * omega_inv:
                            conj_ok = False
                            break
                    else:
                        witnesses.append(omega)
                # same etale algebra: stabilizers transported by omega agree
                omega = sn[fixed[0]]
                phi_s = GroupHom(
                    datum.H, None,
                    [datum.phi(s(h)) for h in datum.H.elements], check=False)
                for i in range(datum.n):
                    stab_mu = [h for h in datum.H.elements if mu(h)(i) == i]
                    j = omega(i)
                    stab_phi = [h for h in datum.H.elements
                                if phi_s(h)(j) == j]
                    if stab_mu != stab_phi:
                        etale_ok = False
                mu_orbits = sorted(len(o) for o, _ in etale_from_action(mu))
                s_orbits = sorted(len(o) for o, _ in etale_from_action(phi_s))
                if mu_orbits != s_orbits:
                    etale_ok = False
                if not witnesses:
                    conj_ok = False
            passed = conj_ok and etale_ok
            if not passed:
                failures += 1
            entries.append({
                "class": class_index,
                "section": tuple(s.images),
                "fixed_points": tuple(fixed),
                "witnesses": tuple(witnesses),
                "conjugacy_ok": conj_ok,
                "etale_ok": etale_ok,
                "passed": passed,
            })
    return {
        "n": datum.n,
        "sections": sum(len(c) for c in classes),
        "classes": len(classes),
        "entries": entries,
        "failures": failures,
        "vacuous": not entries,
    }


# ---------------------------------------------------------------------------
# Constructions used by the exhaustive verification family.


def semidirect_extension(n, H, twisting_hom):
    """Extension datum on Gamma = S_n x| H for an action given inside S_n.

    twisting_hom: GroupHom H -> S_n (permutation representation); h acts
    on S_n by conjugation with its image a_h.  Elements are pairs
    (sigma, h); r is the projection, K = S_n x {1}, and
    phi(sigma, h) = sigma * a_h, which is a homomorphism precisely because
    a is one.
    """
    if twisting_hom.source is not H or twisting_hom.target is not None:
        raise CoverSpecError("twisting hom must be a perm rep of H")
    if twisting_hom.degree != n:
        raise CoverSpecError("twisting hom degree differs from n")
    a = twisting_hom
    sn = symmetric_group_elements(n)
    elements = [(sigma, h) for h in H.elements for sigma in sn]

    def op(x, y):
        sigma, h = x
        tau, g = y
        ah = a(h)
        return (sigma * (ah * tau * ah.inverse()), H.op(h, g))

    gamma = FiniteGroup(elements, op, (Perm.identity(n), H.identity),
                        name=f"S{n}:{H.name}")
    K = [(sigma, H.identity) for sigma in sn]
    r = GroupHom(gamma, H, [h for (_, h) in elements], check=False)
    phi = GroupHom(gamma, None, [sigma * a(h) for (sigma, h) in elements],
                   check=True)
    return ExtensionDatum(gamma, K, r, phi)


def enumerate_homs(source, target_elements, target_op, target_identity):
    """All homomorphisms from a small group into explicit target elements."""
    gens = []
    words = {source.identity: ()}
    for h in source.elements:
        if h in words:
            continue
        gens.append(h)
        frontier = list(words.items())
        while frontier:
            fresh = []
            for elem, word in frontier:
                for idx, g in enumerate(gens):
                    nxt = source.op(elem, g)
                    if nxt not in words:
                        words[nxt] = word + (idx,)
                        fresh.append((nxt, words[nxt]))
            frontier = fresh
    out = []

    def images_from(choice):
        table = {}
        for h in source.elements:
            acc = target_identity
            for idx in words[h]:
                acc = target_op(acc, choice[idx])
            table[h] = acc
        return table

    def dfs(position, choice):
        if position == len(gens):
            table = images_from(choice)
            for x in source.elements:
                for y in source.elements:
                    if table[source.op(x, y)] != target_op(table[x], table[y]):
                        return
            out.append([table[h] for h in source.elements])
            return
        for cand in target_elements:
            dfs(position + 1, choice + [cand])

    dfs(0, [])
    return out


def all_perm_reps(H, n):
    """Every homomorphism H -> S_n, as permutation representations."""
    sn = symmetric_group_elements(n)
    homs = enumerate_homs(H, sn, lambda a, b: a * b, Perm.identity(n))
    return [GroupHom(H, None, images, check=False) for images in homs]
