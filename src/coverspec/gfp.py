"""Polynomial arithmetic on plain int lists, ascending coefficients.

This is the one int-list polynomial kernel of the package: modulo m
first, then over any finite field, then fraction-free over Z and Z[T]
(the last section).  Lists have no trailing zeros (the zero polynomial
is []), and results modulo m lie in [0, m).  mul and sub accept any
ints, and they and divmod by a monic divisor work modulo any m >= 2, as
the Hensel lift in factor_z needs for m = p**k; other divisions take
reduced inputs and a prime p.

Products accumulate unreduced and are reduced once per coefficient: the
partial sums stay exact Python ints, so this changes no result.

mulmod is the one packed product, modulo a monic g over GF(p) or GF(p^f).
ddf is the one Frobenius loop, over GF(p) on ints and over GF(p^f) on
coordinate tuples: a lazy distinct-degree factorization of a squarefree
f, yielding the product of the factors of each degree d as it steps
Frobenius, to x^q and from step 2 on through Berlekamp's Q rows, on
mulmod's products.  is_irreducible, the one irreducibility test, reads
its first nonempty block.

The q-functions, edf and squarefree take a finite field F and lists of
its raw values: ints over GF(p), served by the functions above, and
coordinate tuples over GF(p^f), whose products, gcds and exact
divisions take F's element arithmetic and whose powers run on mulmod.
qT(F) makes F[T] on those lists a Ring of the last section, so the
disc_Y of a cover over GF(q) is one subresultant on its coefficient
rows, as over Z[T] with ZT.
"""

import math
import operator
from builtins import divmod as _divmod
from collections import namedtuple
from functools import partial
from itertools import chain, zip_longest

from .errors import CoverSpecError
from .numutil import power


def trim(a, zero=0):
    """Drop trailing zeros in place and return a."""
    while a and a[-1] == zero:
        a.pop()
    return a


def zmul(a, b):
    """Product over Z, unreduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def mul(a, b, m):
    return trim([c % m for c in zmul(a, b)])


def sub(a, b, m):
    return trim([(x - y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def divmod(a, b, p):
    """(quotient, remainder) of a by a nonzero b over GF(p), or modulo any
    p >= 2 for a monic b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    a = list(a)
    low = b[:-1]
    inv_lc = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for s in range(len(q) - 1, -1, -1):
        c = a[s + db] * inv_lc % p
        if c:
            q[s] = c
            for i, bi in enumerate(low, s):
                a[i] -= c * bi
    return q, trim([c % p for c in a[:db]])


def gcd(a, b, p):
    """Monic gcd over GF(p); [] when both are zero.  A step keeps only the
    remainder: no quotient is built."""
    while b:
        a, db, inv_lc, low = list(a), len(b) - 1, pow(b[-1], -1, p), b[:-1]
        while len(a) > db:
            c = a.pop() * inv_lc % p
            if c:
                for i, bi in enumerate(low, len(a) - db):
                    a[i] -= c * bi
        a, b = b, trim([c % p for c in a])
    if not a:
        return []
    inv_lc = pow(a[-1], -1, p)
    return [c * inv_lc % p for c in a]


def xgcd(a, b, p):
    """(g, s): g the monic gcd of a and b != 0 over GF(p), g = s*a mod b."""
    r0, r1 = a, b
    s0, s1 = [1], []
    while r1:
        q, r = divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
    c = pow(r0[-1], -1, p)
    return [x * c % p for x in r0], [x * c % p for x in s0]


def mulmod(g, p, F=None):
    """(pack, reduce, unpack, x) for products modulo a monic g of degree
    n >= 1 over GF(p) (int coefficients) or F = GF(p)[z]/m (coordinate
    tuples), on Kronecker-packed ints (Harvey, J. Symbolic Comput. 44,
    2009): coordinate j of coefficient i fills the w bits from w(iS + j)
    on, S = 4f - 3, so a product is one int product; x is the packed x.
    reduce takes a packed a of x-degree <= 2n - 1, z-degree <= 2f - 2 and
    slots <= nf(p-1)^2, such as a product of reduced polynomials, to a mod
    g, coordinates in [0, p): Barrett's quotient over Z[z], exact for
    polynomials, a div g = (a div x^n) * mu div x^(n-1) for the lifted
    mu = x^(2n-1) div g, leaves the slots of a - (a div g) * g below
    B = n^3 f^3 (p-1)^4 + nf(p-1)^2, z-degrees <= 4f - 4; one fold
    z^j -> z^j mod m (j >= f) keeps them below B (1 + 3(f-1)(p-1)) < 2^w,
    so no slot carries, and every slot is taken mod p.  unpack reads a
    packed polynomial of degree < n with slots below 2^w."""
    f, n = F.degree if F else 1, len(g) - 1
    w = (n ** 3 * f ** 3 * p ** 4 * (3 * (f - 1) * (p - 1) + 1)).bit_length()
    W, mask = (4 * f - 3) * w, (1 << w) - 1
    low, shifts = (1 << W * n) - 1, range(0, W * n, W)  # g's lc never counts
    if f == 1:
        flat, zero, folds = iter, 0, ()
        mu, negg = divmod([0] * (2 * n - 1) + [1], g, p)[0], [-c % p for c in g]
    else:
        flat, zero, m = chain.from_iterable, F.zero, list(F.modulus)
        ones, zlow = (sum(b << i for i in shifts)
                      for b in (mask, (1 << f * w) - 1))
        shifts = [i + j * w for i in shifts for j in range(f)]
        mu = qquo([zero] * (2 * n - 1) + [F.one], g, F)
        negg = [F.neg(c) for c in g]
        folds = [(j * w, sum(c << k * w for k, c in enumerate(
            divmod([0] * j + [1], m, p)[1]))) for j in range(f, 4 * f - 3)]
    wn, wk = W * n, W * (n - 1)

    def pack(a):
        return sum(map(operator.lshift, flat(a), shifts))
    mu, negg = pack(mu), pack(negg)

    def reduce(a):
        a = (a & low) + (((a >> wn) * mu >> wk) * negg & low)
        if folds:
            a = (a & zlow) + sum((a >> s & ones) * r for s, r in folds)
        return sum([(a >> s & mask) % p << s for s in shifts])

    def unpack(a):
        c = [(a >> s & mask) % p for s in shifts]
        return trim(c if f == 1 else list(zip(*[iter(c)] * f)), zero)
    return pack, reduce, unpack, 1 << W


def powmod(a, e, reduce):
    """a^e for a reduced packed a under mulmod's reduce, by numutil.power;
    the packed 1 for e = 0."""
    return power(a, e, lambda x, y: reduce(x * y), 1)


def _x_to_the_p(f, p, F=None):
    """(w, reduce, unpack, xq) for a monic f of degree n >= 2 over GF(p), or
    over F as for mulmod: the slot stride w of a coefficient, reduce and
    unpack of mulmod(f, p, F), and xq = x^q mod f packed, q = p^deg F,
    from one left-to-right square-and-shift pass over the bits of q."""
    _, reduce, unpack, xq = mulmod(f, p, F)
    w = xq.bit_length() - 1
    for bit in bin(F.order if F else p)[3:]:
        xq = reduce(xq * xq << w if bit == "1" else xq * xq)
    return w, reduce, unpack, xq


def _frobenius_rows(f, p, packed):
    """Berlekamp's Q, packed: (rows, w), row i being x^(iq) mod the monic
    f of degree n >= 2, from packed = _x_to_the_p(f, p, F): n - 2 products
    and reductions."""
    w, reduce, _, xq = packed
    rows = [1, xq]
    for _ in range(len(f) - 3):
        rows.append(reduce(rows[-1] * xq))
    return rows, w


def ddf(f, p, F=None):
    """Distinct-degree factorization of a monic squarefree f over GF(p),
    ints for F None, or over F on raw values as for mulmod, lazily: (d,
    the product of the factors of degree d, the one polynomial when there
    are none) for d = 1, 2, ..., one Frobenius step each, while what is
    left could still split, then (its degree, that irreducible rest)
    unless it is constant.

    The caller vouches that f is squarefree, as a fiber whose
    discriminant is nonzero is.  The factors are never split.  Step 1
    reads x^q from _x_to_the_p alone.  From step 2 on a step is the
    GF(q)-linear h -> h^q = h(x^q) mod f: one product of h's coefficients
    with the Q rows of _frobenius_rows (von zur Gathen and Shoup, Comput.
    Complexity 2, 1992), built when step 2 is reached, read slot by slot
    mod p over GF(p).  Over GF(p^f) each coefficient of h is one packed
    scalar: the sum has x-degree < n, z-degree <= 2f - 2 and slots below
    nf(p-1)^2, so reduce's Barrett quotient is 0 and it only folds z.
    """
    ext, rem, d = F is not None and F.degree > 1, f, 0
    while 2 * (d + 1) < len(rem):
        d += 1
        if d == 1:
            packed = w, reduce, unpack, acc = _x_to_the_p(f, p, F)
            mask, shifts = (1 << w) - 1, range(0, w * (len(f) - 1), w)
        else:
            if d == 2:
                rows = _frobenius_rows(f, p, packed)[0]
            acc = sum(map(operator.mul, h, rows))
            acc = reduce(acc) if ext else acc
        if ext:  # h's coefficients as packed scalars; the gcd takes h - x
            h = [acc >> s & mask for s in shifts]
            g = qgcd(unpack(acc + ((p - 1) << w)), rem, F)
            rem = qquo(rem, g, F) if len(g) > 1 else rem
        else:
            h = unpack(acc)
            g = gcd(sub(h, [0, 1], p), rem, p)
            rem = divmod(rem, g, p)[0] if len(g) > 1 else rem
        yield d, g
    if len(rem) > 1:
        yield len(rem) - 1, rem


def is_irreducible(f, p, F=None):
    """A monic f over GF(p), or over F as for ddf, is irreducible: f' != 0
    and the first nonempty block of its ddf has d = deg f.  No gcd(f, f')
    is needed: a repeated factor g puts a block at some d <= deg g < deg f
    first.  f' = 0, a p-th power, is refused before the first Frobenius
    step."""
    zero = F.zero if F else 0
    return len(f) > 1 and any(i % p and c != zero for i, c in enumerate(
        f)) and next(d for d, g in ddf(f, p, F) if len(g) > 1) == len(f) - 1


# ---------------------------------------------------------------------------
# Over a finite field F (see the module docstring).


def qderivative(a, F):
    """The derivative over any coefficient domain F, as qmul."""
    return trim([F.mul(F.coerce(i), c) for i, c in enumerate(a)][1:], F.zero)


def qmul(a, b, F):
    """The product over any coefficient domain F, by its zero, add and
    mul: Polynomial's product off GF(p), and qT's over GF(p^f)."""
    add, fmul, zero = F.add, F.mul, F.zero
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b, i):
                out[j] = add(out[j], fmul(x, y))
    return trim(out, zero)


def qsub(a, b, F):
    """The difference over any coefficient domain F, as qmul."""
    fsub, zero = F.sub, F.zero
    out = list(a) + [zero] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = fsub(out[i], y)
    return trim(out, zero)


def qdivmod(a, b, F):
    """(quotient, remainder) of a by b != 0 over any field domain F, by
    its operations, as qmul; a monic b takes no inverse."""
    mul, sub, zero, db = F.mul, F.sub, F.zero, len(b) - 1
    u = None if b[-1] == F.one else F.inv(b[-1])
    a, low = list(a), b[:-1]
    q = [zero] * max(0, len(a) - db)
    for s in range(len(q) - 1, -1, -1):
        q[s] = c = a[s + db] if u is None else mul(a[s + db], u)
        if c != zero:
            for i, bi in enumerate(low, s):
                a[i] = sub(a[i], mul(c, bi))
    return q, trim(a[:db], zero)


def qquo(a, b, F):
    """The quotient of a by b != 0 over F; a monic b takes no inverse."""
    return divmod(a, b, F.p)[0] if F.degree == 1 else qdivmod(a, b, F)[0]


def qgcd(a, b, F):
    """The monic gcd over F, [] when both are zero.  Over GF(p^f) the
    remainders are prem's, so one inverse is taken, at the end."""
    if F.degree == 1:
        return gcd(a, b, F.p)
    while len(b) > 1:
        a, b = b, prem(a, b, F)
    if b:  # a nonzero constant
        return [F.one]
    inv = F.inv(a[-1]) if a else None
    return [F.mul(c, inv) for c in a]


def edf(f, d, F, rng):
    """The monic irreducible factors of a monic squarefree f over F, all of
    degree d: a random a of degree < deg f splits f by gcd(b - 1, f), for
    b = a^((q^d-1)/2) mod f, odd q (Cantor and Zassenhaus, Math. Comp. 36,
    1981), or the trace a + a^2 + ... + a^(2^(ed-1)) mod f over GF(2^e)."""
    n, q = len(f) - 1, F.order
    if n == d:
        return [f]
    pack, reduce, unpack, _ = mulmod(f, F.p, F)
    while True:
        b = pack([F.from_index(rng.randrange(q)) for _ in range(n)])
        if q % 2:
            b = powmod(b, (q ** d - 1) // 2, reduce)
        else:
            acc = b
            for _ in range(F.degree * d - 1):
                b = reduce(b * b)
                acc += b
            b = reduce(acc)
        g = qgcd(unpack(b + F.p - 1), f, F)  # b - 1
        if 1 < len(g) < len(f):
            return edf(g, d, F, rng) + edf(qquo(f, g, F), d, F, rng)


def squarefree(f, F=None):
    """[(g, m)] with f = prod g^m, the g squarefree, nonconstant, pairwise
    coprime, by Yun's loop (Yun, SYMSAC 1976): over Z for F None and a
    primitive f with lc > 0, or over F for a monic f.  Over GF(q) the loop
    leaves a p-th power, decomposed from its p-th root: every p-th
    coefficient, each to the power q/p."""
    if F is None:
        gcd_, quo, der = zgcd, zexact_div, zderivative(f)
    else:
        gcd_, quo = partial(qgcd, F=F), partial(qquo, F=F)
        der = qderivative(f, F)
    c = gcd_(f, der)
    if len(c) == 1:
        return [(f, 1)]
    w, i, out = quo(f, c), 1, []
    while len(w) > 1:
        y = gcd_(w, c)
        if len(y) < len(w):
            out.append((quo(w, y), i))
        w, c, i = y, quo(c, y), i + 1
    if len(c) > 1:  # a p-th power over GF(q)
        out += [(g, m * F.p) for g, m in squarefree(
            [F.pow(x, F.order // F.p) for x in c[::F.p]], F)]
    return out


# ---------------------------------------------------------------------------
# Fraction-free arithmetic over Z and Z[T].  A polynomial over Z is an int
# list; one over Z[T] is a list of coefficients that are int lists in T.
# prem and subresultant take the coefficient ring as any object with zero,
# one, mul, sub, pow, div and neg: the Ring Z, ZT or qT(F), or a
# coefficient domain itself, so one remainder sequence serves every
# resultant of the package.


def zsub(a, b):
    return trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def zderivative(a):
    return [i * c for i, c in enumerate(a)][1:]


zpow = partial(power, mul=zmul, one=[1])


def zexact_div(a, b):
    """The quotient a / b over Z for a nonzero b; raises on a remainder."""
    db = len(b) - 1
    a = list(a)
    q = [0] * max(0, len(a) - db)
    lc, low = b[-1], b[:-1]
    for s in range(len(q) - 1, -1, -1):
        c, rem = _divmod(a[s + db], lc)
        if rem:
            raise CoverSpecError("inexact polynomial division")
        q[s] = c
        if c:
            for i, bi in enumerate(low, s):
                a[i] -= c * bi
    if any(a[:db]):
        raise CoverSpecError("inexact polynomial division")
    return q


def _exact_int_div(a, b):
    q, rem = _divmod(a, b)
    if rem:
        raise CoverSpecError("inexact division")
    return q


Ring = namedtuple("Ring", "zero one mul sub pow div neg")
Z = Ring(0, 1, operator.mul, operator.sub, pow, _exact_int_div, operator.neg)
ZT = Ring([], [1], zmul, zsub, zpow, zexact_div, lambda a: [-x for x in a])


def qT(F):
    """The Ring F[T] on lists of the raw values of a finite field F: the
    int kernels over GF(p), else qmul and qsub; qquo divides exactly."""
    mul_ = partial(mul, m=F.p) if F.degree == 1 else partial(qmul, F=F)
    sub_ = partial(sub, m=F.p) if F.degree == 1 else partial(qsub, F=F)
    return Ring([], [F.one], mul_, sub_, partial(power, mul=mul_, one=[F.one]),
                partial(qquo, F=F), partial(sub_, []))


def prem(a, b, R):
    """lc(b)^(deg a - deg b + 1) * a mod b over R, for a nonzero b."""
    mul, sub, zero = R.mul, R.sub, R.zero
    d, db = b[-1], len(b) - 1
    r = list(a)
    e = len(r) - db
    while len(r) > db:
        s = r.pop()
        k = len(r) - db
        r = [mul(d, x) for x in r[:k]] + [
            sub(mul(d, x), mul(s, y)) for x, y in zip(r[k:], b)]
        while r and r[-1] == zero:
            r.pop()
        e -= 1
    if e > 0 and r:
        de = R.pow(d, e)
        r = [mul(de, x) for x in r]
    return r


def subresultant(a, b, R):
    """Res(a, b) over R for nonzero a and b: the Sylvester determinant with
    the rows of a on top, by the subresultant remainder sequence (Brown,
    J. ACM 18, 1971), whose divisions are all exact."""
    mul, pow, div = R.mul, R.pow, R.div
    neg = False  # a swap or a step with both degrees odd flips the sign
    if len(a) < len(b):
        neg = len(a) % 2 == 0 and len(b) % 2 == 0
        a, b = b, a
    if len(a) == 1:
        return R.one
    g = h = R.one
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            neg = not neg
        den = mul(g, pow(h, delta))
        a, b = b, [div(c, den) for c in prem(a, b, R)]
        g = a[-1]
        if delta:
            h = div(pow(g, delta), pow(h, delta - 1))
    if not b:
        return R.zero
    da = len(a) - 1
    h = div(pow(b[0], da), pow(h, da - 1)) if da else R.one
    return R.neg(h) if neg else h


def zmonic(g):
    """(E^(n-1) g(X/E), E), E the leading coefficient of an int list g of
    degree n >= 1: the monic int list whose roots are E times g's, and E."""
    *low, e = g
    return [c * e ** (len(low) - 1 - i) for i, c in enumerate(low)] + [1], e


def zprimitive(a):
    """a over Z divided by its content, with a positive leading coefficient."""
    if not a:
        return []
    g = math.gcd(*a)
    g = -g if a[-1] < 0 else g
    return [x // g for x in a]


def zgcd(a, b):
    """Primitive gcd over Z with a positive leading coefficient, by the
    primitive remainder sequence; a and b are not both zero."""
    a, b = zprimitive(a), zprimitive(b)
    while b:
        a, b = b, zprimitive(prem(a, b, Z))
    return a
