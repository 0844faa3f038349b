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
phi(s(tau)) = x0 * mu(tau) * x0^(-1) for every tau, hence phi.s has at
x0(i) the stabilizer mu has at i, and as x0 is a bijection the orbit
sizes |H|/|stab| agree too, which is exactly "the prescribed algebra is
the specialization at the point".

A FiniteGroup is its Cayley table on element indices, its one group law:
named groups fill it from a label operation once (FiniteGroup.from_op),
S_n x| H by index arithmetic.  The axiom checks, the one homomorphism
enumerator (enumerate_homs), the section classes and the twisted action
all run on those indices; labels and Perm objects appear only where
groups and homomorphisms are built and where reports are returned.  The
verifier holds sets of points of S_n as bitmasks, one bit per index.
The sections depend on the datum alone: an ExtensionDatum enumerates
them on first read of `sections` and keeps them, so verifying many mus
against one datum enumerates them once.
"""

from functools import cache, cached_property, reduce
from itertools import chain, compress, permutations
from math import factorial
from operator import add, and_, eq, getitem, itemgetter

from .errors import CoverSpecError
from .specialize import Partition

GROUP_ORDER_CAP = 10 ** 3  # a Cayley table of at most 10**6 entries


class Perm(tuple):
    """Permutation of {0, ..., k-1}: the tuple of its images."""

    __slots__ = ()

    def __new__(cls, images):
        self = super().__new__(cls, images)
        if sorted(self) != list(range(len(self))):
            raise CoverSpecError(f"not a permutation: {tuple(self)}")
        return self

    @classmethod
    def identity(cls, k):
        return cls(range(k))

    images = property(tuple, doc="The images as a plain tuple.")
    degree = property(len)
    __call__ = tuple.__getitem__  # p(i) is the image of i

    def __mul__(self, other):
        # (self * other)(i) = self(other(i)); a product of two permutations
        # is one, so it is not checked again
        if len(other) != len(self):
            raise CoverSpecError("permutation degrees differ")
        return tuple.__new__(Perm, map(self.__getitem__, other))

    def inverse(self):
        out = [0] * len(self)
        for i, j in enumerate(self):
            out[j] = i
        return Perm(out)

    @property
    def is_identity(self):
        return self == tuple(range(len(self)))

    def cycle_type(self):
        seen = [False] * len(self)
        lengths = []
        for start in range(len(self)):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self[i]
                length += 1
            lengths.append(length)
        return Partition(lengths)

    def __repr__(self):
        return f"Perm{tuple(self)}"


def symmetric_group_elements(n):
    """All of S_n in lexicographic image order; the canonical enumeration."""
    return [Perm(p) for p in permutations(range(n))]


def _closure(start, gens, mul):
    """Closure of {start} under x -> mul(x, g), g in gens: the group they
    generate when start is the identity, an orbit when mul is an action."""
    known = {start}
    frontier = [start]
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


def _check_order(k):
    if k > GROUP_ORDER_CAP:
        raise CoverSpecError(f"group order {k} exceeds cap {GROUP_ORDER_CAP}")


class FiniteGroup:
    """Finite group given by its Cayley table on element indices 0..k-1.

    `elements[i]` is the label of element i and `index` maps labels back;
    `table[i][j]` is the index of elements[i] * elements[j], `inverse[i]`
    that of the inverse of elements[i] and `e` that of the identity, read
    off the table as its one idempotent.  The table must be square with
    entries in range; identity and inverses are checked on the whole
    table, associativity on the first 12 elements.  The order is capped at
    GROUP_ORDER_CAP = 10**3.  `op` multiplies labels through the table,
    or by the label operation of a group built by `from_op`.
    """

    def __init__(self, elements, table, name="G"):
        elements = list(elements)
        k = len(elements)
        _check_order(k)
        index = {g: i for i, g in enumerate(elements)}
        if len(index) != k:
            raise CoverSpecError("duplicate group elements")
        if len(table) != k or set(map(len, table)) - {k}:
            raise CoverSpecError("multiplication table is not square")
        if not set(chain.from_iterable(table)).issubset(range(k)):
            raise CoverSpecError("multiplication table entry out of range")
        e = next((a for a in range(k) if table[a][a] == a), None)
        if e is None:
            raise CoverSpecError("table has no identity element")
        self.elements = elements
        self.table = table
        self.name = name
        self.index = index
        self.e = e
        points = list(range(k))
        if list(table[e]) != points or [row[e] for row in table] != points:
            raise CoverSpecError("identity fails")
        self.inverse = []
        for a, row in enumerate(table):
            b = row.index(e) if e in row else None
            if b is None or table[b][a] != e:
                raise CoverSpecError(f"no inverse for {elements[a]!r}")
            self.inverse.append(b)
        # (ab)c = a(bc) for a, b, c < 12: for each a, the rows of ab cut to
        # 12 columns against row a read at the 12 x 12 corner of the table
        m = min(k, 12)
        corner = list(chain.from_iterable(row[:m] for row in table[:m]))
        for a in range(m):
            row = table[a]
            if (list(chain.from_iterable(table[ab][:m] for ab in row[:m]))
                    != list(map(row.__getitem__, corner))):
                raise CoverSpecError("associativity fails on sampled triple")

    @classmethod
    def from_op(cls, elements, op, name="G"):
        """Group on the given labels under the label operation `op`.

        The one place a label operation becomes a table: k^2 calls of op,
        and a product outside the elements raises "not closed".
        """
        elements = list(elements)
        _check_order(len(elements))
        index = {g: i for i, g in enumerate(elements)}
        table = [[index.get(op(a, b)) for b in elements] for a in elements]
        for a, row in zip(elements, table):
            if None in row:
                b = elements[row.index(None)]
                raise CoverSpecError(f"not closed: {a!r} * {b!r}")
        group = cls(elements, table, name=name)
        group.op = op
        return group

    def op(self, a, b):
        return self.elements[self.table[self.index[a]][self.index[b]]]

    @property
    def identity(self):
        return self.elements[self.e]

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
                and idx.issuperset(map(self.inverse.__getitem__, idx))
                and all(idx.issuperset(map(self.table[a].__getitem__, idx))
                        for a in idx))

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

    # -- named groups ---------------------------------------------------------

    @classmethod
    def from_perms(cls, perms, name="P"):
        """Closure of a set of permutations of equal degree."""
        perms = list(perms)
        ident = Perm.identity(perms[0].degree)
        elements = sorted(_closure(ident, perms, lambda a, b: a * b))
        return cls.from_op(elements, lambda a, b: a * b, name=name)

    @classmethod
    @cache
    def symmetric(cls, n):
        """S_n, built once per n; a group is never changed once built."""
        return cls.from_op(symmetric_group_elements(n), lambda a, b: a * b,
                           name=f"S{n}")

    @classmethod
    def cyclic(cls, k):
        return cls.from_op(range(k), lambda a, b: (a + b) % k, name=f"C{k}")

    @classmethod
    def klein_four(cls):
        return cls.from_op([(0, 0), (0, 1), (1, 0), (1, 1)],
                           lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2),
                           name="V4")


class GroupHom:
    """Homomorphism given by its image table on all source elements.

    target is a FiniteGroup, or None for a permutation representation
    (images are Perm objects).  `images` holds the image labels in source
    element order and, for a group target, `idx` their target indices.
    With check, multiplicativity is verified on every pair of source
    elements: on the target's table, or by composing image tuples.  Maps
    read from outside the program are checked; the package builds its own
    homomorphisms with check=False where they are correct by construction.
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
            self.idx = list(map(target.index.__getitem__, images))
        if not check:
            return
        if target is not None:
            values, ident, table = self.idx, target.e, target.table

            def times(x, y):
                return table[x][y]
        else:
            if len({im.degree for im in images}) > 1:
                raise CoverSpecError("permutation images of mixed degree")
            values = images
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


def _generators(group):
    """(gens, layers): gens[i] is the least element outside <gens[0..i-1]>,
    and layers[i] the steps (y, x, j), y = x * gens[j], that reach the
    elements of <gens[0..i]> outside <gens[0..i-1]>, each x before y."""
    table = group.table
    gens, layers = [], []
    known = {group.e}
    for h in range(group.order):
        if h in known:
            continue
        gens.append(h)
        layer = []
        frontier = list(known)
        while frontier:
            fresh = []
            for x in frontier:
                for j, g in enumerate(gens):
                    y = table[x][g]
                    if y not in known:
                        known.add(y)
                        layer.append((y, x, j))
                        fresh.append(y)
            frontier = fresh
        layers.append(layer)
    return gens, layers


def enumerate_homs(source, target, allowed=None):
    """Every homomorphism source -> target, as image label lists.

    The one homomorphism enumerator.  Each source element gets a word over
    a greedy generating sequence (`_generators`), and the generator images
    are chosen depth first: once gens[i] has an image, the images of
    <gens[0..i]> follow along the words, and the choice is kept only when
    they are allowed and multiplicative on the pairs of <gens[0..i]> that
    are new at gens[i].  `allowed`, when given, maps each source label to
    the target labels its image may take.  Images are listed in source
    element order; generator images run through target element order (or
    the order of the `allowed` lists), first generator slowest.
    """
    src, tgt = source.table, target.table
    gens, layers = _generators(source)
    if allowed is None:
        allowed = {h: target.elements for h in source.elements}
    permitted = [{target.index[t] for t in allowed[h]} for h in source.elements]
    candidates = [[target.index[t] for t in allowed[source.elements[g]]]
                  for g in gens]
    pairs = []
    old = [source.e]
    for layer in layers:
        new = [y for y, _, _ in layer]
        pairs.append([(a, b, src[a][b]) for a in old + new for b in new]
                     + [(a, b, src[a][b]) for a in new for b in old])
        old += new
    image = [target.e] * source.order
    gen_images = [None] * len(gens)
    out = []

    def extend(depth):
        if depth == len(gens):
            out.append([target.elements[t] for t in image])
            return
        layer = layers[depth]
        for c in candidates[depth]:
            gen_images[depth] = c
            for y, x, j in layer:
                image[y] = tgt[image[x]][gen_images[j]]
            if (all(image[y] in permitted[y] for y, _, _ in layer)
                    and all(image[ab] == tgt[image[a]][image[b]]
                            for a, b, ab in pairs[depth])):
                extend(depth + 1)

    if target.e in permitted[source.e]:
        extend(0)
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
        orbit = _closure(start, mu.images, lambda i, perm: perm(i))
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
    offsets = [sum(degrees[:b]) for b in range(len(degrees))]
    images = [Perm(offset + j for act, offset in zip(actions, offsets)
                   for j in act.images[i]) for i in range(H.order)]
    return GroupHom(H, None, images, check=False)


# ---------------------------------------------------------------------------
# Extension data, sections, the twisted action and the verifier.


class ExtensionDatum:
    """Finite stand-in for the fundamental exact sequence.

    Gamma with normal subgroup K, quotient map r: Gamma -> H with kernel
    exactly K, and a permutation representation phi: Gamma -> S_n, n >= 1,
    whose restriction to K is onto all of S_n.  The datum owns its
    sections (`sections`), enumerated on first read and kept.
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
        if self.n < 1:
            raise CoverSpecError("phi must have degree at least 1")
        g = self.gamma
        if not g.is_subgroup(self.K):
            raise CoverSpecError("K is not a subgroup")
        k_set = {g.index[kappa] for kappa in self.K}
        # K is normal when xK = Kx for every x; as K conjugates K into
        # itself, one x per left coset xK is enough
        covered = set()
        for x, row in enumerate(g.table):
            if x not in covered:
                coset = set(map(row.__getitem__, k_set))
                covered |= coset
                if coset != {g.table[kappa][x] for kappa in k_set}:
                    raise CoverSpecError("K is not normal")
        if not self.r.is_surjective():
            raise CoverSpecError("r is not surjective")
        if set(self.r.kernel()) != set(self.K):
            raise CoverSpecError("kernel of r differs from K")
        # n! distinct permutations of degree n are all of S_n; counting
        # avoids listing S_n for an n no group under the cap can reach
        phi_k = set(map(self.phi.images.__getitem__, k_set))
        if (len(phi_k) != factorial(self.n)
                or any(p.degree != self.n for p in phi_k)):
            raise CoverSpecError(
                f"phi(K) is not all of S_{self.n}: full symmetric geometric"
                " monodromy is required")

    @cached_property
    def sections(self):
        """All homomorphic sections s: H -> Gamma of r, in K-conjugacy classes.

        The sections are the homomorphisms H -> Gamma sending each h into
        the fiber r^-1(h).  A list of classes, each class a list of
        GroupHom; empty when the extension does not split.  Deterministic
        order.
        """
        gamma, H = self.gamma, self.H
        fibers = {h: [] for h in H.elements}
        for g, h in zip(gamma.elements, self.r.images):
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
            for kappa in self.K:
                row = table[gamma.index[kappa]]
                kappa_inv = inverse[gamma.index[kappa]]
                conj = tuple(table[row[x]][kappa_inv] for x in s.idx)
                if conj not in assigned:
                    assigned.add(conj)
                    cls.append(by_key[conj])
            classes.append(cls)
        return classes

    def __repr__(self):
        return (f"ExtensionDatum(|Gamma|={self.gamma.order}, |K|={len(self.K)},"
                f" H={self.H.name}, n={self.n})")


def twisted_action(datum, mu):
    """The twisted permutation action of Gamma on the n! elements of S_n.

    theta acts by x |-> phi(theta) * x * chi(theta)^(-1) with
    chi = mu . r, computed on the table of S_n.  Left translation by phi
    commutes with right translation by chi^(-1), so this is a homomorphism
    by construction and is not re-checked; on K it is left translation.
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
    # psi(theta)(j) = phi(theta) * x_j * chi(theta)^(-1): the row of
    # phi(theta) read at the column of chi(theta)^(-1), one itemgetter per
    # h; itemgetter of a single index returns an item, not a tuple, but
    # S_1 has only the identity.  Rows of a group table are permutations.
    right = [itemgetter(*map(itemgetter(sn.inverse[sn.index[p]]), table))
             if sn.order > 1 else tuple for p in mu.images]
    images = [tuple.__new__(Perm, right[h](table[sn.index[p]]))
              for p, h in zip(datum.phi.images, datum.r.idx)]
    return GroupHom(datum.gamma, None, images, check=False)


def conjugator_masks(group, m):
    """masks[a] is the bitmask of the j with j * m * j^(-1) = a: bit j for
    element index j, so the j conjugating m to a are one int."""
    table, masks = group.table, [0] * group.order
    for j, (row, j_inv) in enumerate(zip(table, group.inverse)):
        masks[table[row[m]][j_inv]] |= 1 << j
    return masks


def verify_twisting_lemma(datum, mu):
    """Exhaustive check of the twisting criterion on one extension datum.

    For every section s: if the twisted action composed with s has a fixed
    point x0 in S_n, then (a) phi(s(tau)) = x0 mu(tau) x0^(-1) for all tau
    and (b) phi.s has at x0(i) the stabilizer that mu has at i, so their
    orbit sizes |H|/|stab| agree; (b) is checked at the first fixed point,
    and every fixed point must be a conjugating witness.
    Sections without fixed points pass vacuously, as does a datum with no
    sections at all.  The sections are `datum.sections`, enumerated once
    per datum and shared by every mu verified against it.

    Sets of points of S_n are bitmasks.  psi.s being a homomorphism, its
    fixed points are the AND of the fixed-point masks of psi(s(g)) over
    the greedy generators g of H, each mask read once per (datum, mu) off
    `twisted_action`; the witnesses among them are the AND over every tau
    in H of the `conjugator_masks` of mu(tau) at phi(s(tau)).
    """
    sn = FiniteGroup.symmetric(datum.n)
    psi = twisted_action(datum, mu).images
    elements = sn.elements
    phi = [sn.index[p] for p in datum.phi.images]
    mu_idx = [sn.index[p] for p in mu.images]
    stab_mu = [[h for h, m in enumerate(mu.images) if m(i) == i]
               for i in range(datum.n)]
    conj = {m: conjugator_masks(sn, m) for m in set(mu_idx)}
    conj_rows = [conj[m] for m in mu_idx]
    gens, _ = _generators(datum.H)
    points = range(sn.order)
    bits = [1 << j for j in points]
    all_points = (1 << sn.order) - 1

    @cache
    def fixed_mask(theta):
        return sum(compress(bits, map(eq, psi[theta], points)))

    classes = datum.sections
    entries = []
    failures = 0
    for class_index, cls in enumerate(classes):
        for s in cls:
            fixed_bits = reduce(and_, map(fixed_mask, map(s.idx.__getitem__,
                                                          gens)), all_points)
            fixed, witnesses, etale_ok = [], [], True
            if fixed_bits:
                phi_s_idx = [phi[g] for g in s.idx]
                conj_bits = reduce(and_, map(getitem, conj_rows, phi_s_idx))
                fixed = [j for j in points if fixed_bits >> j & 1]
                witnesses = [elements[j] for j in fixed if conj_bits >> j & 1]
                # same etale algebra: stab_mu(i) = stab_phi.s(omega(i))
                etale_ok = stab_mu == [
                    [h for h, p in enumerate(phi_s_idx) if elements[p][w] == w]
                    for w in elements[fixed[0]]]
            conj_ok = len(witnesses) == len(fixed)
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
    (sigma, h), h slowest, so (sigma, h) has index h * n! + sigma; r is the
    projection, K = S_n x {1}, and phi(sigma, h) = sigma * a_h, which is a
    homomorphism precisely because a is one.  Gamma's table is index
    arithmetic on the tables of S_n and H:
    (sx, hx)(sy, hy) = (sx * a_hx * sy * a_hx^(-1), hx * hy).
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
    rows = []
    for h_row, c in zip(H.table, conj):
        offsets = [hy * k for hy in h_row for _ in range(k)]
        for row in table:
            rows.append(list(map(add, offsets,
                                 list(map(row.__getitem__, c)) * H.order)))
    elements = [(sigma, h) for h in H.elements for sigma in sn.elements]
    gamma = FiniteGroup(elements, rows, name=f"S{n}:{H.name}")
    K = [(sigma, H.identity) for sigma in sn.elements]
    r = GroupHom(gamma, H, [h for (_, h) in elements], check=False)
    phi = GroupHom(gamma, None, [sn.elements[table[s][a[h]]]
                                 for h in range(H.order) for s in range(k)],
                   check=False)
    return ExtensionDatum(gamma, K, r, phi)
