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

Every FiniteGroup is stored once, as a Cayley table on element indices,
and the axiom checks, the one homomorphism enumerator (enumerate_homs),
the section classes and the twisted action all run on those indices.
Element labels and Perm objects appear only where groups and
homomorphisms are built and where reports are returned.
"""

from functools import cache
from itertools import permutations, product
from math import factorial

from .errors import CoverSpecError
from .specialize import Partition

GROUP_ORDER_CAP = 10 ** 3  # a Cayley table of at most 10**6 entries


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


def _closure(identity, gens, mul):
    """Set of everything generated by gens under mul, identity included."""
    known = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                c = mul(a, g)
                if c not in known:
                    known.add(c)
                    fresh.append(c)
                    if len(known) > GROUP_ORDER_CAP:
                        raise CoverSpecError("closure exceeds the order cap")
        frontier = fresh
    # inverses come for free in a finite group
    return known


class FiniteGroup:
    """Finite group stored as a Cayley table on element indices 0..k-1.

    `elements[i]` is the label of element i and `index` maps labels back;
    `table[i][j]` is the index of elements[i] * elements[j], `inverse[i]`
    that of the inverse of elements[i] and `e` that of the identity.  The
    table is built once from the label operation `op`, in k^2 calls, and a
    product outside the elements raises "not closed".  Identity and
    inverses are checked on the whole table, associativity on the first
    12 elements.  The order is capped at GROUP_ORDER_CAP = 10**3.
    """

    def __init__(self, elements, op, identity, name="G"):
        elements = list(elements)
        if len(elements) > GROUP_ORDER_CAP:
            raise CoverSpecError(
                f"group order {len(elements)} exceeds cap {GROUP_ORDER_CAP}")
        index = {g: i for i, g in enumerate(elements)}
        if len(index) != len(elements):
            raise CoverSpecError("duplicate group elements")
        if identity not in index:
            raise CoverSpecError("identity not among the elements")
        self.elements = elements
        self.op = op
        self.identity = identity
        self.name = name
        self.index = index
        self.e = index[identity]
        self.table = []
        for a in elements:
            row = []
            for b in elements:
                c = index.get(op(a, b))
                if c is None:
                    raise CoverSpecError(f"not closed: {a!r} * {b!r}")
                row.append(c)
            self.table.append(row)
        self._validate()

    def _validate(self):
        table, e = self.table, self.e
        k = len(table)
        if any(table[e][a] != a or table[a][e] != a for a in range(k)):
            raise CoverSpecError("identity fails")
        self.inverse = []
        for a, row in enumerate(table):
            b = row.index(e) if e in row else None
            if b is None or table[b][a] != e:
                raise CoverSpecError(f"no inverse for {self.elements[a]!r}")
            self.inverse.append(b)
        sample = range(min(k, 12))
        for a in sample:
            for b in sample:
                ab = table[a][b]
                for c in sample:
                    if table[ab][c] != table[a][table[b][c]]:
                        raise CoverSpecError(
                            "associativity fails on sampled triple")

    @property
    def order(self):
        return len(self.elements)

    def inv(self, a):
        return self.elements[self.inverse[self.index[a]]]

    def is_subgroup(self, subset):
        subset = set(subset)
        if not subset <= self.index.keys():
            return False
        idx = {self.index[s] for s in subset}
        return (self.e in idx
                and all(self.inverse[a] in idx for a in idx)
                and all(self.table[a][b] in idx for a in idx for b in idx))

    def subgroups(self):
        """Every subgroup, as ordered label lists (desk-scale orders only)."""
        table = self.table
        trivial = frozenset([self.e])
        found = {trivial}
        frontier = [trivial]
        while frontier:
            fresh = []
            for sub in frontier:
                for g in range(self.order):
                    if g in sub:
                        continue
                    bigger = frozenset(_closure(self.e, list(sub) + [g],
                                                lambda a, b: table[a][b]))
                    if bigger not in found:
                        found.add(bigger)
                        fresh.append(bigger)
            frontier = fresh
        ordered = sorted((sorted(sub) for sub in found),
                         key=lambda sub: (len(sub), sub))
        return [[self.elements[i] for i in sub] for sub in ordered]

    def element_order(self, a):
        i = self.index[a]
        k = 1
        acc = i
        while acc != self.e:
            acc = self.table[acc][i]
            k += 1
        return k

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_perms(cls, perms, name="P"):
        """Closure of a set of permutations of equal degree."""
        perms = list(perms)
        ident = Perm.identity(perms[0].degree)
        elements = sorted(_closure(ident, perms, lambda a, b: a * b))
        return cls(elements, lambda a, b: a * b, ident, name=name)

    @classmethod
    @cache
    def symmetric(cls, n):
        """S_n, built once per n; a group is never changed after __init__."""
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
    def from_table(cls, table, name="tabled"):
        """Group on labels 0..k-1 from a row-major multiplication table."""
        k = len(table)
        for row in table:
            if len(row) != k:
                raise CoverSpecError("multiplication table is not square")
        # the identity is the one idempotent; the table check confirms it
        identity = next((e for e in range(k) if table[e][e] == e), None)
        if identity is None:
            raise CoverSpecError("table has no identity element")
        return cls(range(k), lambda a, b: table[a][b], identity, name=name)


class GroupHom:
    """Homomorphism given by its image table on all source elements.

    target is a FiniteGroup, or None for a permutation representation
    (images are Perm objects).  `images` holds the image labels in source
    element order and, for a group target, `idx` their target indices.
    With check, multiplicativity is verified on every pair of source
    elements: on the target's table, or by composing image tuples.
    """

    def __init__(self, source, target, images, check=True):
        images = list(images)
        if len(images) != source.order:
            raise CoverSpecError("image table length differs from group order")
        self.source = source
        self.target = target
        self.images = images
        if target is not None:
            if not set(images) <= target.index.keys():
                raise CoverSpecError("image outside the target group")
            self.idx = [target.index[im] for im in images]
        if check:
            self._validate()

    def _validate(self):
        if self.target is not None:
            values, ident = self.idx, self.target.e
            table = self.target.table

            def times(x, y):
                return table[x][y]
        else:
            if len({im.degree for im in self.images}) > 1:
                raise CoverSpecError("permutation images of mixed degree")
            values = [im.images for im in self.images]
            ident = tuple(range(self.degree))

            def times(x, y):
                return tuple(map(x.__getitem__, y))
        if values[self.source.e] != ident:
            raise CoverSpecError("homomorphism does not fix the identity")
        for a, row in enumerate(self.source.table):
            for b, ab in enumerate(row):
                if values[ab] != times(values[a], values[b]):
                    raise CoverSpecError(
                        f"not multiplicative at ({self.source.elements[a]!r},"
                        f" {self.source.elements[b]!r})")

    @property
    def degree(self):
        """Degree of a permutation representation."""
        if self.target is not None:
            raise CoverSpecError("degree applies to permutation representations")
        return self.images[0].degree if self.images else 0

    def __call__(self, g):
        return self.images[self.source.index[g]]

    def kernel(self):
        ident = (self.target.identity if self.target is not None
                 else Perm.identity(self.degree))
        return [g for g, im in zip(self.source.elements, self.images)
                if im == ident]

    def image_set(self):
        return set(self.images)

    def is_surjective(self):
        if self.target is None:
            raise CoverSpecError("surjectivity onto a permutation type is"
                                 " checked against an explicit group")
        return self.image_set() == set(self.target.elements)


def enumerate_homs(source, target, allowed=None):
    """Every homomorphism source -> target, as image label lists.

    The one homomorphism enumerator.  Each source element gets a word over
    a greedy generating sequence; every choice of generator images is
    extended along the words and kept when it is multiplicative on the
    whole source table.  `allowed`, when given, maps each source label to
    the target labels its image may take.  Images are listed in source
    element order; generator images run through target element order (or
    the order of the `allowed` lists), first generator slowest.
    """
    src, tgt = source.table, target.table
    gens = []
    steps = {source.e: None}  # element -> (prefix element, generator position)
    for h in range(source.order):
        if h in steps:
            continue
        gens.append(h)
        frontier = list(steps)
        while frontier:
            fresh = []
            for x in frontier:
                for i, g in enumerate(gens):
                    y = src[x][g]
                    if y not in steps:
                        steps[y] = (x, i)
                        fresh.append(y)
            frontier = fresh
    walk = [(y, x, i) for y, (x, i) in list(steps.items())[1:]]
    if allowed is None:
        allowed = {h: target.elements for h in source.elements}
    permitted = [{target.index[t] for t in allowed[h]} for h in source.elements]
    candidates = [[target.index[t] for t in allowed[source.elements[g]]]
                  for g in gens]
    pairs = [(a, b, ab) for a, row in enumerate(src) for b, ab in enumerate(row)]
    out = []
    for choice in product(*candidates):
        image = [target.e] * source.order
        for y, x, i in walk:
            image[y] = tgt[image[x]][choice[i]]
        if (all(t in ok for t, ok in zip(image, permitted))
                and all(image[ab] == tgt[image[a]][image[b]]
                        for a, b, ab in pairs)):
            out.append([target.elements[t] for t in image])
    return out


def all_perm_reps(H, n):
    """Every homomorphism H -> S_n, as permutation representations."""
    return [GroupHom(H, None, images, check=False)
            for images in enumerate_homs(H, FiniteGroup.symmetric(n))]


# ---------------------------------------------------------------------------
# Coset actions and etale data.


def coset_action(G, U):
    """Left-multiplication action of G on the left cosets gU.

    Coset 0 is U itself.  Returns a permutation representation of degree
    [G : U]; raises when U is not a subgroup.
    """
    if not G.is_subgroup(U):
        raise CoverSpecError("coset_action needs a subgroup")
    table = G.table
    u_idx = [G.index[u] for u in U]
    member = {}
    reps = []
    for g in [G.e] + [g for g in range(G.order) if g != G.e]:
        if g in member:
            continue
        for u in u_idx:
            member[table[g][u]] = len(reps)
        reps.append(g)
    images = [Perm(member[row[rep]] for rep in reps) for row in table]
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
        stab = [g for g, perm in zip(mu.source.elements, mu.images)
                if perm(marked) == marked]
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
        k_set = {g.index[kappa] for kappa in self.K}
        for row, x_inv in zip(g.table, g.inverse):
            if any(g.table[row[kappa]][x_inv] not in k_set for kappa in k_set):
                raise CoverSpecError("K is not normal")
        if not self.r.is_surjective():
            raise CoverSpecError("r is not surjective")
        if set(self.r.kernel()) != set(self.K):
            raise CoverSpecError("kernel of r differs from K")
        # n! distinct permutations of degree n are all of S_n; counting
        # avoids listing S_n for an n no group under the cap can reach
        phi_k = {self.phi(kappa) for kappa in self.K}
        if (len(phi_k) != factorial(self.n)
                or any(p.degree != self.n for p in phi_k)):
            raise CoverSpecError(
                f"phi(K) is not all of S_{self.n}: full symmetric geometric"
                " monodromy is required")

    def __repr__(self):
        return (f"ExtensionDatum(|Gamma|={self.gamma.order}, |K|={len(self.K)},"
                f" H={self.H.name}, n={self.n})")


def twisted_action(datum, mu):
    """The twisted permutation action of Gamma on the n! elements of S_n.

    theta acts by x |-> phi(theta) * x * chi(theta)^(-1) with
    chi = mu . r, computed on the table of S_n.  The result is verified to
    be a homomorphism; its restriction to K is left translation by phi.
    """
    if mu.target is not None:
        raise CoverSpecError("mu must be a permutation representation")
    if mu.source is not datum.H:
        raise CoverSpecError("mu must act through H = target of r")
    if mu.degree != datum.n:
        raise CoverSpecError(
            f"mu has degree {mu.degree}, datum expects {datum.n}")
    sn = FiniteGroup.symmetric(datum.n)
    table = sn.table
    chi_inv = [sn.inverse[sn.index[p]] for p in mu.images]
    images = []
    for p, h in zip(datum.phi.images, datum.r.idx):
        right = chi_inv[h]
        images.append(Perm(table[y][right] for y in table[sn.index[p]]))
    return GroupHom(datum.gamma, None, images, check=True)


def enumerate_sections(datum):
    """All homomorphic sections s: H -> Gamma of r, in K-conjugacy classes.

    The sections are the homomorphisms H -> Gamma sending each h into the
    fiber r^-1(h).  Returns a list of classes, each class a list of
    GroupHom; empty when the extension does not split.  Deterministic
    order.
    """
    gamma, H = datum.gamma, datum.H
    fibers = {h: [] for h in H.elements}
    for g, h in zip(gamma.elements, datum.r.images):
        fibers[h].append(g)
    sections = [GroupHom(H, gamma, images, check=False)
                for images in enumerate_homs(H, gamma, fibers)]

    # group into K-conjugacy classes, preserving discovery order; a
    # K-conjugate of a section is again a section
    table, inverse = gamma.table, gamma.inverse
    by_key = {tuple(s.idx): s for s in sections}
    assigned = set()
    classes = []
    for s in sections:
        if tuple(s.idx) in assigned:
            continue
        cls = []
        for kappa in datum.K:
            row = table[gamma.index[kappa]]
            kappa_inv = inverse[gamma.index[kappa]]
            conj = tuple(table[row[x]][kappa_inv] for x in s.idx)
            if conj not in assigned:
                assigned.add(conj)
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
    sn = FiniteGroup.symmetric(datum.n)
    psi = twisted_action(datum, mu)
    table, inverse = sn.table, sn.inverse
    phi = [sn.index[p] for p in datum.phi.images]
    mu_idx = [sn.index[p] for p in mu.images]
    mu_orbits = sorted(len(o) for o, _ in etale_from_action(mu))
    classes = enumerate_sections(datum)
    entries = []
    failures = 0
    for class_index, cls in enumerate(classes):
        for s in cls:
            phi_s_idx = [phi[g] for g in s.idx]
            through = [psi.images[g].images for g in s.idx]
            fixed = [j for j in range(sn.order)
                     if all(t[j] == j for t in through)]
            conj_ok = True
            etale_ok = True
            witnesses = []
            if fixed:
                for j in fixed:
                    j_inv = inverse[j]
                    if all(p == table[table[j][m]][j_inv]
                           for p, m in zip(phi_s_idx, mu_idx)):
                        witnesses.append(sn.elements[j])
                    else:
                        conj_ok = False
                # same etale algebra: stabilizers transported by omega agree
                omega = sn.elements[fixed[0]]
                phi_s = GroupHom(datum.H, None,
                                 [sn.elements[p] for p in phi_s_idx],
                                 check=False)
                for i in range(datum.n):
                    stab_mu = [h for h, m in enumerate(mu.images) if m(i) == i]
                    j = omega(i)
                    stab_phi = [h for h, p in enumerate(phi_s.images)
                                if p(j) == j]
                    if stab_mu != stab_phi:
                        etale_ok = False
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
    a is one.  The group law runs on the table of S_n.
    """
    if twisting_hom.source is not H or twisting_hom.target is not None:
        raise CoverSpecError("twisting hom must be a perm rep of H")
    if twisting_hom.degree != n:
        raise CoverSpecError("twisting hom degree differs from n")
    sn = FiniteGroup.symmetric(n)
    table, k = sn.table, sn.order
    a = [sn.index[p] for p in twisting_hom.images]
    # conj[h][t] = a_h * t * a_h^(-1)
    conj = [[table[table[ah][t]][sn.inverse[ah]] for t in range(k)]
            for ah in a]
    elements = [(sigma, h) for h in H.elements for sigma in sn.elements]
    position = {x: i for i, x in enumerate(elements)}

    def op(x, y):
        hx, sx = divmod(position[x], k)
        hy, sy = divmod(position[y], k)
        return elements[H.table[hx][hy] * k + table[sx][conj[hx][sy]]]

    gamma = FiniteGroup(elements, op, (sn.identity, H.identity),
                        name=f"S{n}:{H.name}")
    K = [(sigma, H.identity) for sigma in sn.elements]
    r = GroupHom(gamma, H, [h for (_, h) in elements], check=False)
    phi = GroupHom(gamma, None, [sn.elements[table[s][a[h]]]
                                 for h in range(H.order) for s in range(k)],
                   check=True)
    return ExtensionDatum(gamma, K, r, phi)
