"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive: cofactor-expansion determinants,
exhaustive scans, multiply-back checks.  These are the reference points
the fast library routines are compared against, so they must not reuse
the code paths they certify.
"""

import random
from itertools import product

from coverspec.poly import Polynomial


def det_cofactor(rows, dom):
    """Exact determinant by cofactor expansion over any commutative domain."""
    k = len(rows)
    if k == 0:
        return dom.one
    if k == 1:
        return rows[0][0]
    total = dom.zero
    for j in range(k):
        c = rows[0][j]
        if dom.is_zero(c):
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = dom.mul(c, det_cofactor(minor, dom))
        if j % 2:
            term = dom.neg(term)
        total = dom.add(total, term)
    return total


def sylvester_resultant(a, b):
    """Resultant as the Sylvester determinant with rows of `a` on top."""
    dom = a.domain
    m, n = a.degree, b.degree
    size = m + n
    if size == 0:
        return dom.one
    ac = list(a.coeffs)[::-1]
    bc = list(b.coeffs)[::-1]
    rows = []
    for i in range(n):
        rows.append([dom.zero] * i + ac + [dom.zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([dom.zero] * i + bc + [dom.zero] * (size - n - 1 - i))
    return det_cofactor(rows, dom)


def random_poly(rng, dom, degree, monic=False):
    """Uniform random polynomial of exactly the given degree over GF(p)."""
    p = dom.p
    coeffs = [rng.randrange(p) for _ in range(degree)]
    coeffs.append(1 if monic else rng.randrange(1, p))
    return Polynomial(dom, coeffs)


def all_monic_polys(dom, degree):
    """Every monic polynomial of exactly `degree` over a small prime field."""
    p = dom.p
    out = []
    for idx in range(p ** degree):
        coeffs = []
        k = idx
        for _ in range(degree):
            k, d = divmod(k, p)
            coeffs.append(d)
        coeffs.append(1)
        out.append(Polynomial(dom, coeffs))
    return out


def factors_by_trial(f):
    """Exhaustive irreducible factorization over a small prime field.

    Tries monic divisors by increasing degree; independent of the library's
    distinct-degree / equal-degree machinery.
    """
    dom = f.domain
    result = []
    unit = f.lc
    f = f.monic()
    d = 1
    while f.degree > 0:
        if 2 * d > f.degree:
            result.append((f, 1))
            break
        found = False
        for cand in all_monic_polys(dom, d):
            if cand.degree < 1:
                continue
            mult = 0
            while True:
                q, r = divmod(f, cand)
                if r.is_zero:
                    f = q
                    mult += 1
                else:
                    break
            if mult:
                result.append((cand, mult))
                found = True
                if f.degree == 0:
                    break
        if not found:
            d += 1
    merged = {}
    for g, m in result:
        merged[g] = merged.get(g, 0) + m
    ordered = sorted(merged.items(), key=lambda it: (it[0].degree, it[0].coeffs))
    return unit, ordered


def seeded(seed):
    return random.Random(seed)


def homs_oracle(source, target):
    """Every homomorphism source -> target, trying all |T|^|S| maps.

    Uses the groups' label operations, not their Cayley tables.  Returns
    the set of image tuples in source element order.
    """
    out = set()
    for images in product(target.elements, repeat=source.order):
        f = dict(zip(source.elements, images))
        if all(f[source.op(a, b)] == target.op(f[a], f[b])
               for a in source.elements for b in source.elements):
            out.add(images)
    return out
