"""Specializations of a cover at unramified points.

The specialization of P(T, Y) at t0 is the product of separable field
extensions cut out by the irreducible factors of P(t0, Y).  Over a finite
field only the factorization pattern (a partition of n) matters; over the
rationals the factors themselves describe the etale algebra.  Residue
degrees at a good prime p are read off from the factorization pattern of
P(t0, Y) mod p: goodness plus Hensel lifting identifies the unramified
local algebra with its residue pattern, so nothing p-adic is computed.

P itself is never read here: a fiber is `cover.fiber(t)` over GF(q),
which `_settle` takes as built, and over QQ the monic int list of
`cover.monic_fiber(t0)`, factored by factor.factor_monic_z or, as
`cover.integral_fiber(t0)`, read mod p.  A pattern needs no factors:
`_read_blocks` reads the lazy distinct-degree factorization gfp.ddf of a
fiber while a candidate partition fits, with no gcd(f, f'), as every
caller has proved the fiber unramified; so only `fiber_factors` and
`etale_algebra` take a seed.  Ramified points are rejected, not given a
value (the pattern would describe no etale algebra).  As P is monic in
Y, t0 is one exactly when its fiber is not squarefree: a point costs
one fiber and one gcd, `cover.squarefree_fiber(t0)`, and only the
whole-field sweeps read the cover's sweep_shape() and disc_coeffs.

`fiber_patterns` gives the pattern of every fiber over GF(q) at once,
and `fibers_with_pattern` the points whose fiber has one given pattern.
For odd q and a cover A(Y) + c*T both read a fiber's key off streaming
sweeps of the whole field, each one `_values` iterator (finite
differences at C speed over GF(p), Horner on the log tables of
fields.ExtField.log_tables over GF(p^f)): the number N_1 of its roots in
GF(q), and the quadratic character of its discriminant, which by
Stickelberger's theorem is 1 exactly when the number s of irreducible
factors has s = n mod 2 (Swan, Pacific J. Math. 12, 1962).  At n = 6
over GF(p) `fiber_patterns` adds the number r_2 of irreducible quadratic
factors (_quadratic_tally), which tells apart the partitions of every
shared sextic key, {6}/{2,2,2} and {4,2}/{3,3}.  A key that names one
partition in `_key_table` gives the pattern; any other shared key, such
as {5,2}/{4,3} at n = 7, goes to _settle with the partitions of that
key, and a fiber off the sweeps with every partition, so no fiber over a
finite field is factored.  `fibers_with_pattern` takes no quadratic
tally, as its scans stop at the first hit, and sweeps only fields of at
most SWEEP_Q_CAP elements.
"""

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, islice, repeat, zip_longest
from operator import getitem, mod

from . import gfp
from .errors import CoverSpecError, DomainMismatchError, RamifiedPointError
from .factor import FACTOR_Z_DEGREE_CAP, factor_monic_ff, factor_monic_z
from .fields import QQ, PrimeField
from .covers import require_good_prime

# fibers_with_pattern tallies roots over GF(q) only up to this order: a
# sweep of 2^16 points takes about 0.1 s, against seconds for a scan that
# factors every fiber up to a rare pattern's first hit at that size
SWEEP_Q_CAP = 2 ** 16


class Partition(tuple):
    """Multiset of positive integers: the tuple of its parts in descending
    order, so equality, hashing and ordering are the tuple's own."""

    __slots__ = ()

    def __new__(cls, parts):
        self = super().__new__(cls, sorted(map(int, parts), reverse=True))
        if not self:
            raise CoverSpecError("partition must be nonempty")
        if self[-1] < 1:
            raise CoverSpecError(
                f"partition parts must be positive: {tuple(self)}")
        return self

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1]
        try:
            return cls(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise CoverSpecError(f"cannot parse partition {text!r}") from exc

    parts = property(tuple, doc="The parts as a plain tuple.")

    @property
    def n(self):
        return sum(self)

    def __repr__(self):
        return "{" + ",".join(map(str, self)) + "}"


def all_partitions(n):
    """Every partition of n, descending parts, in a fixed order."""
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for d in range(min(cap, remaining), 0, -1):
            rec(remaining - d, d, prefix + [d])

    rec(n, n, [])
    return out


@dataclass(frozen=True)
class EtaleAlgebraDescriptor:
    """Monic irreducible polynomials with multiplicities over a base field."""

    factors: tuple
    base: object

    @property
    def n(self):
        return sum(g.degree * m for g, m in self.factors)

    def pattern(self):
        return Partition(g.degree for g, m in self.factors for _ in range(m))


def _unramified(cover, t0):
    """(t0 coerced, cover.squarefree_fiber(t0), the fiber to factor), or
    RamifiedPointError if P(t0, Y) is not squarefree."""
    t0 = cover.base.coerce(t0)
    if not (fiber := cover.squarefree_fiber(t0)):
        raise RamifiedPointError(
            f"t0 = {cover.base.format(t0)} lies on the branch locus")
    return t0, fiber


def fiber_pattern(cover, t0):
    """Pattern of P(t0, Y) for t0 off the branch locus.

    Over a finite field _settle reads it with every partition of n (None)
    as a candidate; over QQ cover.monic_fiber(t0) is factored.
    """
    if cover.base == QQ:
        return Partition(g.degree for g, _ in factor_monic_z(
            *cover.monic_fiber(t0)))
    return _settle(cover.fiber(t0), cover.base, None)


def specialize_pattern(cover, t0):
    """Degrees of the irreducible factors of P(t0, Y), as a Partition.

    t0 must avoid the branch locus (and the leading coefficient never
    vanishes: covers are monic in Y).  Unramified specializations are
    squarefree, so every factor has multiplicity one.
    """
    t0, fiber = _unramified(cover, t0)
    if cover.base != QQ:
        return _settle(fiber, cover.base, None)
    return Partition(g.degree for g, _ in factor_monic_z(*fiber))


def fiber_factors(cover, t0, seed=0):
    """The irreducible factors of P(t0, Y) over QQ or GF(q), each once.

    _unramified tests the fiber first, so a ramified t0 costs one gcd.
    Over GF(q): factor_monic_ff of the squarefree fiber.
    Over QQ: factor_monic_z of (f, E) = cover.monic_fiber(t0), refused
    within its degree cap and before it is factored when no factor list
    fits the digit limit k = sys.get_int_max_str_digits(), if k > 0.  A
    monic factor g of degree d within k digits has a denominator lcm
    L < 10^(kd) and L*g int coefficients below 10^(kd), so each
    coefficient c = f_i/E^(n-i) of P(t0, Y) = prod g has a numerator below
    2^n 10^(nk) and a denominator below 10^(nk): max(|c|, 1/|c|) is below
    2^n 10^(nk), yet above 2^(|B|-n) for B = bitlen(f_i) - (n-i)
    bitlen(E).  As 2^(10/3) > 10, 3(|B| - 2n) >= 10nk refuses.
    """
    _, fiber = _unramified(cover, t0)
    if cover.base != QQ:
        return tuple(factor_monic_ff(fiber, cover.base, seed))
    (f, E), k, n = fiber, sys.get_int_max_str_digits(), cover.n
    if k and n <= FACTOR_Z_DEGREE_CAP and any(
            c and 3 * abs(c.bit_length() - (n - i) * E.bit_length())
            >= 6 * n + 10 * n * k for i, c in enumerate(f)):
        raise CoverSpecError(f"fiber coefficient past {n * k} digits at t0:"
                             f" a factor has one past {k} digits")
    return tuple(factor_monic_z(f, E, seed))


def _key(lam):
    """(N_1, disc is a square) of a partition: its number of 1-parts, and
    1 when its number of parts s has s = n mod 2 (Stickelberger), else 0,
    the byte that _squares holds for a discriminant with that character."""
    return lam.count(1), 1 - (lam.n - len(lam)) % 2


def _settle(fiber, F, candidates):
    """The pattern of a fiber over F off the branch locus, one of
    candidates (None for every partition of n: 1,741,630 at n = 64, so
    never listed), read by _read_blocks off gfp.ddf."""
    return _read_blocks(gfp.ddf(fiber, F.p, F), candidates, True)


def _read_blocks(blocks, types, settle):
    """The pattern of a squarefree fiber from its ddf blocks (d, g) of
    deg(g)/d parts d: all of them for types None; else the one of types
    that fits every block (None if none does), read while one fits, or up
    to the first block that leaves one when settle vouches that one fits."""
    parts = []
    for d, g in blocks:
        k = (len(g) - 1) // d
        parts += [d] * k
        if types is not None:
            types = [lam for lam in types if lam.count(d) == k]
            if not types or settle and len(types) == 1:
                break
    if types is None:
        return Partition(parts)
    return types[0] if types else None


def _evaluator(base, coeffs):
    """i -> the index of the polynomial with raw coefficients coeffs at
    base.from_index(i); index 0 is zero.  Over GF(p) index and value
    agree, and Horner runs on plain ints.  Over GF(p^f) Horner runs on
    logarithms through base.log_tables(), -1 standing for zero: v*x + c
    is g^(log(c) + zech[log(v) + log(x) - log(c)]), one lookup per step
    and no tuple, and a log below 2(q-1) indexes exp unreduced."""
    if isinstance(base, PrimeField):
        p, top, rest = base.p, coeffs[-1], coeffs[-2::-1]

        def value(x):
            acc = top
            for c in rest:
                acc = (acc * x + c) % p
            return acc
        return value
    exp, log, zech = base.log_tables()
    m = base.order - 1
    logs = [log[base.index(c)] for c in coeffs]
    c0, top, rest = base.index(coeffs[0]), logs[-1], logs[-2::-1]

    def value(i):
        if not i:
            return c0
        x, acc = log[i], top
        for c in rest:
            if acc < 0:
                acc = c
            elif c < 0:
                acc = (acc + x) % m
            else:
                z = zech[(acc + x - c) % m]
                acc = c + z if z >= 0 else -1
        return exp[acc] if acc >= 0 else 0
    return value


def _values(base, coeffs):
    """The one whole-field sweep: a lazy iterator over the index of the
    polynomial with raw coefficients coeffs at every point, in from_index
    order.  Over GF(p) it tabulates by finite differences (Knuth, TAOCP
    vol. 2, 4.6.4): f(0..d), even past p, give the differences D^k f(0)
    mod p, from which d chained accumulate passes rebuild ints congruent
    to f(0), f(1), ..., each reduced once, with no Python code per
    point.  Over GF(p^f) it maps _evaluator over range(q)."""
    value, q = _evaluator(base, coeffs), base.order
    if not isinstance(base, PrimeField):
        return map(value, range(q))
    p, d = base.p, len(coeffs) - 1
    diffs = list(map(value, range(d + 1)))
    for k in range(d):  # diffs[k] becomes D^k f(0), in place
        for i in range(d, k, -1):
            diffs[i] -= diffs[i - 1]
    seq = repeat(diffs[d] % p, max(q - d, 0))
    for start in reversed(diffs[:d]):
        seq = accumulate(seq, initial=start % p)
    return map(mod, islice(seq, q) if q < d else seq, repeat(p))


def _squares(base):
    """Bytearray of q bytes: 2 at index 0 (a branch point's discriminant),
    else 1 at each square of GF(q) and 0 at each non-square.  Every
    element is a square for even q, else the squares are the even
    powers of a primitive g, read off base.log_tables() over GF(p^f)."""
    q = base.order
    if q % 2 == 0:
        return bytearray(b"\2") + bytearray(b"\1") * (q - 1)
    squares = bytearray(q)
    if isinstance(base, PrimeField):
        for y in range(q // 2 + 1):  # y and -y have one square
            squares[y * y % q] = 1
    else:
        for e in base.log_tables()[0][:q - 1:2]:
            squares[e] = 1
    squares[0] = 2
    return squares


def _root_tally(cover):
    """N_1(t) for every t in from_index order, or None off the fast path.

    The fast path takes covers whose sweep_shape() is A(Y) + c*T over a
    field of odd order: the fiber at t has the root y exactly when
    t = -A(y)/c, so one pass over y counts the roots of every fiber.  A
    fiber has at most n < 256 roots, one byte each.
    """
    base, shape = cover.base, cover.sweep_shape()
    if base.order % 2 == 0 or cover.n > 255 or shape is None:
        return None
    a, c = shape
    scale = base.neg(base.inv(c))
    roots = bytearray(base.order)
    for i in _values(base, [base.mul(x, scale) for x in a]):
        roots[i] += 1
    return roots


def _quadratic_tally(cover, squares):
    """r_2(t), the number of monic irreducible quadratic factors of the
    fiber at t over GF(p), for every t: a bytearray of p bytes whose
    entries on the branch locus mean nothing.

    Takes a cover of degree 6 over an odd GF(p) whose sweep_shape() is
    A(Y) + c*T, A = sum a_i Y^i, the fast path of _root_tally, and
    squares = _squares(base).  An irreducible g = X^2 - e1 X + e2 with
    roots y, y^p divides the fiber at t exactly when A1(y) = -(a0 + c*t),
    A1 = sum_{i>=1} a_i Y^i.  As y^k = h_{k-1} y - e2 h_{k-2}, where
    h_0 = 1, h_1 = e1 and h_k = e1 h_{k-1} - e2 h_{k-2}, A1(y) lies in
    GF(p) exactly when C = sum_{i>=1} a_i h_{i-1} vanishes, and is then
    -e2 sum_{i>=2} a_i h_{i-2}.  C has degree 2 in e2, so one sweep over
    e1, zipping the six rows of C and of t from _values, solves a
    quadratic in e2 per e1, its square root read from a table of p
    4-byte entries, and counts each root e2 with e1^2 - 4 e2 a
    non-square, the test for g to be irreducible (Lidl-Niederreiter,
    Finite Fields, ch. 3).  A fiber has at most 3 such factors,
    whichever t it lies over.
    """
    base, p = cover.base, cover.base.p
    a, c = cover.sweep_shape()
    inv_c = pow(c, -1, p)
    h = [[[1]], [[0, 1]]]  # h_k as e2-rows of int lists in e1
    for _ in range(4):
        h.append([gfp.zsub([0] + x, y) for x, y in zip_longest(
            h[-1], [[]] + h[-2], fillvalue=[])])

    def rows(weights):
        """sum_k weights[k] h_k as the _values of its rows e2^0..e2^2"""
        out = [[0] * 6 for _ in range(3)]
        for w, hk in zip(weights, h):
            for row, part in zip(out, hk):
                for i, x in enumerate(part):
                    row[i] += w * x
        return [_values(base, gfp.trim([x % p for x in row]) or [0])
                for row in out]

    root = array("i", [0]) * p
    for y in range(p // 2 + 1):
        root[y * y % p] = y
    t0 = -a[0] * inv_c % p
    tally = bytearray(p)
    for e1, q0, q1, q2, b0, b1, b2 in zip(  # t = t0 + e2*B(e1, e2)
            range(p), *rows(a[1:]), *rows([x * inv_c for x in a[2:]])):
        if q2:
            d = (q1 * q1 - 4 * q2 * q0) % p
            if not squares[d]:
                continue
            # e2 = (x - q1)/(2 q2), x = +-r (once if r = 0): as (2 q2)^2
            # (e1^2 - 4 e2) = u - v x, only a tallied root takes an inverse
            r, v = root[d], 8 * q2
            u, inv = (2 * q2 * e1) ** 2 + v * q1, 0
            for x in (r, -r) if r else (0,):
                if not squares[(u - v * x) % p]:
                    inv = inv or pow(2 * q2, -1, p)
                    e2 = (x - q1) * inv % p
                    tally[(t0 + e2 * (b0 + e2 * (b1 + e2 * b2))) % p] += 1
            continue
        # one root, or every e2 when C(e1, .) vanishes identically
        e2s = (-q0 * pow(q1, -1, p) % p,) if q1 else () if q0 else range(p)
        for e2 in e2s:
            if not squares[(e1 * e1 - 4 * e2) % p]:
                tally[(t0 + e2 * (b0 + e2 * (b1 + e2 * b2))) % p] += 1
    return tally


@cache
def _key_table(n, with_quadratics):
    """(table, shared): table maps each key (N_1, character byte), with
    r_2 last when with_quadratics, to the one Partition of n with that
    key, to None at character 2 (the branch locus), or else to the
    tuple of its candidates for _settle, of type tuple and not Partition,
    and shared tells whether such a tuple is there: a key shared by
    partitions, such as that of {6} and {2,2,2}, keeps every candidate, in
    all_partitions order.  Callers must not change the dict."""
    tails = [(r,) for r in range(n // 2 + 1)] if with_quadratics else [()]
    table = {(ones, 2) + tail: None
             for ones in range(n + 1) for tail in tails}
    fits = defaultdict(tuple)
    for lam in all_partitions(n):
        for tail in tails:
            if not tail or lam.count(2) == tail[0]:
                fits[_key(lam) + tail] += (lam,)
    table.update((key, lams[0] if len(lams) == 1 else lams)
                 for key, lams in fits.items())
    return table, any(type(v) is tuple for v in table.values())


def fiber_patterns(cover):
    """Pattern of P(t, Y) for every t in GF(q), in from_index order.

    Gives None for t on the branch locus, where disc(P(t, Y)) vanishes.
    On the fast path of _root_tally the key of the fiber at t, N_1(t),
    its discriminant's character byte and, at n = 6 over GF(p), r_2(t),
    is read in _key_table: a map over the zipped sweeps unless a key is
    shared, and then one loop that settles those keys.  Off it every
    fiber goes to _settle with every partition.
    """
    base = cover.base
    roots = _root_tally(cover)
    discs = _values(base, cover.disc_coeffs)
    if roots is None:
        return (_settle(cover.fiber(base.from_index(i)), base, None) if d
                else None for i, d in enumerate(discs))
    squares = _squares(base)
    rows = [roots, map(getitem, repeat(squares), discs)]
    quadratics = cover.n == 6 and isinstance(base, PrimeField)
    if quadratics:
        rows.append(_quadratic_tally(cover, squares))
    table, shared = _key_table(cover.n, quadratics)
    patterns = map(table.__getitem__, zip(*rows))
    if not shared:
        return patterns
    return (_settle(cover.fiber(base.from_index(i)), base, lam)
            if type(lam) is tuple else lam
            for i, lam in enumerate(patterns))


def fibers_with_pattern(cover, target):
    """Every t in GF(q) off the branch locus whose fiber has the pattern
    target, in from_index order.

    For q up to SWEEP_Q_CAP on the fast path of _root_tally, a point is
    rejected when N_1(t) differs from the 1-parts of target, then when
    the discriminant's character (from _squares) differs from target's;
    a matching key that names target alone accepts it, and a key shared
    with other partitions goes to _settle.  Larger fields and other
    covers scan base.elements(), settling each fiber that
    cover.squarefree_fiber returns: the first hit costs no sweep, no log
    tables and no branch data.
    """
    base = cover.base
    roots = _root_tally(cover) if base.order <= SWEEP_Q_CAP else None
    if roots is None:
        yield from (t for t in base.elements() if (f := cover.squarefree_fiber(
            t)) and _settle(f, base, None) == target)
        return
    squares, disc = _squares(base), _evaluator(base, cover.disc_coeffs)
    ones, square = _key(target)
    candidates = _key_table(cover.n, False)[0][ones, square]
    named = type(candidates) is not tuple
    for i, count in enumerate(roots):
        if count != ones or squares[disc(i)] != square:  # 2 if ramified
            continue
        t = base.from_index(i)
        if named or _settle(cover.fiber(t), base, candidates) == target:
            yield t


def etale_algebra(cover, t0, seed=0):
    """The irreducible factors of P(t0, Y) over QQ, one per field factor."""
    if cover.base != QQ:
        raise DomainMismatchError("etale_algebra runs over QQ")
    return EtaleAlgebraDescriptor(factors=fiber_factors(cover, t0, seed),
                                  base=QQ)


def residue_pattern(fiber, p, types=None):
    """The pattern mod p of fiber = cover.integral_fiber(t0) = (f, w, b),
    for a good p dividing neither b nor w, if it is one of types (all for
    None), else None.  Types whose _key character is not the Legendre
    symbol of w mod p cannot fit (Stickelberger): none left means no DDF,
    else _read_blocks reads gfp.ddf of f mod p while a type fits."""
    f, w, _ = fiber
    if types is not None:
        square = int(pow(w, p >> 1, p) == 1)
        types = [lam for lam in types if _key(lam)[1] == square]
        if not types:
            return None
    return _read_blocks(gfp.ddf([c % p for c in f], p), types, False)


def residue_degrees_at(cover, t0, p):
    """Factorization pattern of P(t0, Y) mod p for a good prime p: the
    whole residue_pattern of cover.integral_fiber(t0), or an error.

    Equals the residue-degree partition of the local etale algebra of the
    specialization at t0: reduction is legitimate at good primes.
    """
    require_good_prime(cover, p)  # a cover over QQ
    fiber = cover.integral_fiber(t0)
    if fiber[2] % p == 0:
        raise CoverSpecError(f"denominator of {t0} vanishes modulo {p}")
    if fiber[1] % p == 0:
        raise RamifiedPointError(
            f"t0 = {t0} meets the branch locus modulo {p}")
    return residue_pattern(fiber, p)
