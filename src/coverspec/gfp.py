"""Polynomial arithmetic on plain int lists, ascending coefficients.

This is the one int-list polynomial kernel of the package: modulo m
first, then fraction-free over Z and Z[T] (the last section).  Lists
have no trailing zeros (the zero polynomial is []), and results modulo m
lie in [0, m).  mul and sub accept any ints, and they and divmod by a
monic divisor work modulo any m >= 2, as the Hensel lift in factor_z
needs for m = p**k; other divisions take reduced inputs and a prime p.

Products accumulate unreduced and are reduced once per coefficient: the
partial sums stay exact Python ints, so this changes no result.

ddf is the Frobenius loop over GF(p): a lazy distinct-degree
factorization of a squarefree f, yielding the product of the factors of
each degree d as it steps Frobenius, first to x^p and from step 2 on
through Berlekamp's Q rows, computed on Kronecker-packed ints with one
int product per polynomial product and Barrett's reduction mod f.
factor.ddf reads it over GF(p) and runs the loop over GF(p^f) on
Polynomial.  is_irreducible reads its first nonempty block, the test of
factor.is_irreducible_ff, kept here for fields, which factor imports.
"""

import math
import operator
from builtins import divmod as _divmod
from collections import namedtuple
from functools import partial
from itertools import zip_longest

from .errors import CoverSpecError
from .numutil import power


def trim(a):
    """Drop trailing zeros in place and return a."""
    while a and a[-1] == 0:
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


def _x_to_the_p(f, p):
    """(w, reduce, xp) for a monic f of degree n >= 2 over GF(p): xp is
    x^p mod f, Kronecker-packed as the int sum of c_j * 2^(w*j), and
    reduce(a) takes a packed a of degree at most 2n - 1 with slots of at
    most n(p-1)^2, such as a product of two reduced polynomials, to the
    packed a mod f with coefficients in [0, p).

    A product of packed polynomials is one int product (Harvey, J.
    Symbolic Comput. 44, 2009).  reduce takes Barrett's quotient: with
    mu = x^(2n-1) div f, a div f is (a div x^n) * mu div x^(n-1), exactly
    for polynomials, and a mod f is the low n slots of a - (a div f) * f.
    The quotient's slots are left unreduced, at most n^2 (p-1)^3, so the
    slots of a mod f before the last step hold at most
    n^3 (p-1)^4 + n (p-1)^2, and slots w = bit_length(n^3 p^4) bits wide
    never carry into each other.  x^p comes from one left-to-right
    square-and-shift pass over the bits of p.
    """
    n = len(f) - 1
    w = (n ** 3 * p ** 4).bit_length()
    mask, low = (1 << w) - 1, (1 << (w * n)) - 1
    shifts = range(0, w * n, w)
    mu = sum(c << s for c, s in zip(divmod([0] * (2 * n - 1) + [1], f, p)[0],
                                    shifts))
    negf = sum(-c % p << s for c, s in zip(f, shifts))
    wn, wk = w * n, w * (n - 1)

    def reduce(a):
        a = (a & low) + (((a >> wn) * mu >> wk) * negf & low)
        return sum([(a >> s & mask) % p << s for s in shifts])

    xp = 1 << w
    for bit in bin(p)[3:]:
        xp = reduce(xp * xp << w if bit == "1" else xp * xp)
    return w, reduce, xp


def _frobenius_rows(f, p, packed):
    """Berlekamp's Q, packed: (rows, w), row i being x^(i*p) mod the monic
    f of degree n >= 2, from packed = _x_to_the_p(f, p): n - 2 products
    and reductions."""
    w, reduce, xp = packed
    rows = [1, xp]
    for _ in range(len(f) - 3):
        rows.append(reduce(rows[-1] * xp))
    return rows, w


def ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f over GF(p),
    lazily: (d, the product of the factors of degree d, [1] when there are
    none) for d = 1, 2, ..., one Frobenius step each, while what is left
    could still split, then (its degree, that irreducible rest) unless it
    is constant.

    The caller vouches that f is squarefree, as a fiber whose
    discriminant is nonzero is.  The factors are never split.  Step 1
    reads x^p from _x_to_the_p alone.  From step 2 on a step is
    h -> h^p = h(x^p) mod f, one product with the Q rows of
    _frobenius_rows (von zur Gathen and Shoup, Comput. Complexity 2,
    1992), which are built when step 2 is reached.
    """
    rem, d = f, 0
    while 2 * (d + 1) < len(rem):
        d += 1
        if d == 1:
            packed = _x_to_the_p(f, p)
            w, _, acc = packed
            mask, shifts = (1 << w) - 1, range(0, w * (len(f) - 1), w)
        else:
            if d == 2:
                rows = _frobenius_rows(f, p, packed)[0]
            acc = sum(map(operator.mul, h, rows))
        h = trim([(acc >> s & mask) % p for s in shifts])
        g = gcd(sub(h, [0, 1], p), rem, p)
        if len(g) > 1:
            rem = divmod(rem, g, p)[0]
        yield d, g
    if len(rem) > 1:
        yield len(rem) - 1, rem


def is_irreducible(f, p):
    """A monic f over GF(p) is irreducible: f' != 0 and the first nonempty
    block of its ddf has d = deg f.  No gcd(f, f') is needed: a repeated
    factor g puts a block at some d <= deg g < deg f first.  f' = 0, a
    p-th power, is refused before the first Frobenius step."""
    return len(f) > 1 and any(i * c % p for i, c in enumerate(f)) and next(
        d for d, g in ddf(f, p) if len(g) > 1) == len(f) - 1


# ---------------------------------------------------------------------------
# Fraction-free arithmetic over Z and Z[T].  A polynomial over Z is an int
# list; one over Z[T] is a list of coefficients that are int lists in T.
# prem and subresultant take the coefficient ring as any object with zero,
# one, mul, sub, pow, div and neg: the Ring Z or ZT, or a coefficient
# domain itself, so one remainder sequence serves every resultant of the
# package.


def zsub(a, b):
    return trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


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
