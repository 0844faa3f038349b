"""Polynomial arithmetic on plain int lists, ascending coefficients.

This is the one int-list polynomial kernel of the package: modulo m
first, then fraction-free over Z and Z[T] (the last section).  Lists
have no trailing zeros (the zero polynomial is []), and results modulo m
lie in [0, m).  mul and sub accept any ints and work modulo any m >= 2,
which the Hensel lift in factor_z uses with m = p**k; the division-based
functions take reduced inputs and a prime modulus p.

Products accumulate unreduced and are reduced once per coefficient: the
partial sums stay exact Python ints, so this changes no result.

ddf is the Frobenius loop over GF(p): a lazy distinct-degree
factorization of a squarefree f, yielding the product of the factors of
each degree d as it steps Frobenius through Berlekamp's Q rows, computed
on Kronecker-packed ints, one int product per polynomial product.
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
    """(quotient, remainder) of a by a nonzero b over GF(p)."""
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
    """Monic gcd over GF(p); [] when both are zero."""
    while b:
        a, b = b, divmod(a, b, p)[1]
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


def _frobenius_rows(f, p):
    """Berlekamp's Q, Kronecker-packed: (rows, w), row i being x^(i*p) mod
    the monic f of degree n >= 2 as the int sum of c_j * 2^(w*j).

    A product of two packed polynomials with coefficients in [0, p) is one
    int product whose slots hold at most n(p-1)^2.  It is reduced by
    folding each slot n + k back as that slot times the packed x^(n+k)
    mod f, which adds at most n(p-1)^3 to a slot for each of at most n
    folded slots (multiplying by x is a shift before the fold), and then
    each slot is taken mod p.  So slots w = bit_length(n^2 p^3) + 1 bits
    wide never carry into each other (Harvey, J. Symbolic Comput. 44,
    2009, for the packing).  x^p comes from one left-to-right
    square-and-shift pass over the bits of p.
    """
    n = len(f) - 1
    w = (n * n * p ** 3).bit_length() + 1
    mask, low = (1 << w) - 1, (1 << (w * n)) - 1
    shifts = range(0, w * n, w)

    def reduce(x):
        hi, x = x >> (w * n), x & low
        for row in fold:
            if not hi:
                break
            x += (hi & mask) * row
            hi >>= w
        return sum([(x >> s & mask) % p << s for s in shifts])

    fold = [sum(-c % p << s for c, s in zip(f, shifts))]  # x^n mod f
    for _ in range(n - 1):  # x^(n+k): a shift and one fold with x^n
        fold.append(reduce(fold[-1] << w))
    xp = 1 << w
    for bit in bin(p)[3:]:
        xp = reduce(xp * xp << w if bit == "1" else xp * xp)
    rows = [1, xp]
    for _ in range(n - 2):
        rows.append(reduce(rows[-1] * xp))
    return rows, w


def ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f over GF(p),
    lazily: (d, the product of the factors of degree d, [1] when there are
    none) for d = 1, 2, ..., one Frobenius step each, while what is left
    could still split, then (its degree, that irreducible rest) unless it
    is constant.

    The caller vouches that f is squarefree, as a fiber whose
    discriminant is nonzero is.  The factors are never split.  A step is
    h -> h^p = h(x^p) mod f, one product with the Q rows of
    _frobenius_rows (von zur Gathen and Shoup, Comput. Complexity 2,
    1992), which are built at the first step.
    """
    rem, h, d = f, [0, 1], 0
    while 2 * (d + 1) < len(rem):
        if not d:
            rows, w = _frobenius_rows(f, p)
            mask, shifts = (1 << w) - 1, range(0, w * (len(f) - 1), w)
        d += 1
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
    p-th power, is refused before the Q rows, n of them at degree n."""
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
