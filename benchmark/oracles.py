"""Brute-force checks for benchmark outputs that share no code with coverspec.

Everything here works on plain ints, tuples and Fractions.  Finite fields
are modelled from scratch: GF(p) as ints mod p and GF(p^f) as coordinate
tuples modulo an irreducible found here by trial division, so a defect in
the package's field or polynomial arithmetic cannot hide behind the check.
All covers the benchmark uses have the form F(Y) - T, so the fibre over t
has one root for every y with F(y) = t.
"""

from fractions import Fraction
from math import gcd


# ------------------------------------------------------------ GF(p) and GF(p^f)

def _monic_polys(p, degree):
    """Every monic polynomial of the given degree over GF(p), low first."""
    for idx in range(p ** degree):
        coeffs = []
        for _ in range(degree):
            idx, d = divmod(idx, p)
            coeffs.append(d)
        yield coeffs + [1]


def _rem_mod_p(a, b, p):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _first_irreducible(p, f):
    for cand in _monic_polys(p, f):
        if cand[0] == 0:
            continue
        if all(_rem_mod_p(cand, d, p)
               for k in range(1, f // 2 + 1) for d in _monic_polys(p, k)):
            return cand
    raise ValueError(f"no irreducible of degree {f} over GF({p})")


class FieldModel:
    """GF(p^f) with ints for f = 1 and coordinate tuples otherwise."""

    def __init__(self, p, f=1):
        self.p, self.f = p, f
        self.order = p ** f
        self.modulus = _first_irreducible(p, f) if f > 1 else None

    def embed(self, c):
        c %= self.p
        return c if self.f == 1 else (c,) + (0,) * (self.f - 1)

    def elements(self):
        if self.f == 1:
            return range(self.p)
        return (tuple(m[:-1]) for m in _monic_polys(self.p, self.f))

    def add(self, a, b):
        if self.f == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p = self.p
        if self.f == 1:
            return a * b % p
        f, m = self.f, self.modulus
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in range(2 * f - 2, f - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(f):
                    prod[k - f + i] -= c * m[i]
        return tuple(x % p for x in prod[:f])

    def is_zero(self, a):
        return a == 0 if self.f == 1 else not any(a)

    def evaluate(self, coeffs, y):
        """Horner evaluation of an integer polynomial (low first) at y."""
        acc = self.embed(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = self.add(self.mul(acc, y), self.embed(c))
        return acc


def derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def fibre_root_census(F, field):
    """(#ramified t, #points (t, y) over unramified t) for the cover F(Y) - T.

    A point t is ramified iff F(Y) - t has a repeated root.  For the
    families used here every critical point whose critical value lies in
    GF(q) lies in GF(q) itself (Morse covers are built from critical points
    in the prime field; the trinomials' critical values determine their
    critical points rationally), so the ramified set is {F(c) : F'(c) = 0}.
    """
    dF = derivative(F)
    values = []
    ramified = set()
    for y in field.elements():
        v = field.evaluate(F, y)
        values.append(v)
        if field.is_zero(field.evaluate(dF, y)):
            ramified.add(v)
    return len(ramified), sum(1 for v in values if v not in ramified)


def root_profile(F, t, p):
    """(number of roots of F(Y) - t mod p, whether every root is simple)."""
    dF = derivative(F)
    roots = [y for y in range(p) if (_eval_int(F, y) - t) % p == 0]
    return len(roots), all(_eval_int(dF, y) % p for y in roots)


def _eval_int(coeffs, y):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def split_parts_for(F, n, p):
    """Root counts r such that some unramified t mod p has exactly r roots.

    Only r in {n, n - 2, n - 3} pins the factorization pattern down from
    the root count alone: the rootless cofactor of degree 2 or 3 is then
    irreducible, and simple roots make the fibre squarefree.
    """
    dF = derivative(F)
    by_value = {}
    for y in range(p):
        by_value.setdefault(_eval_int(F, y) % p, []).append(y)
    found = set()
    for roots in by_value.values():
        if len(roots) in (n, n - 2, n - 3) and all(
                _eval_int(dF, y) % p for y in roots):
            found.add(len(roots))
    # a rootless cubic is irreducible, hence squarefree
    if n == 3 and len(by_value) < p:
        found.add(0)
    return found


# ------------------------------------------------------------ polynomials

def squarefree_mod_p(coeffs, p):
    """True iff the polynomial (ints, low first) is squarefree over GF(p)."""
    a = [c % p for c in coeffs]
    while a and a[-1] == 0:
        a.pop()
    b = [c % p for c in derivative(a)]
    while b and b[-1] == 0:
        b.pop()
    if not b:
        return len(a) <= 1
    while b:
        a, b = b, _rem_mod_p(a, b, p)
    return len(a) == 1


def squarefree_over_q(coeffs):
    """True iff the polynomial (Fractions, low first) is squarefree over QQ."""
    a = _trim_q(coeffs)
    b = _trim_q(derivative(a))
    while b:
        a, b = b, _rem_q(a, b)
    return len(a) == 1


def _trim_q(a):
    a = [Fraction(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem_q(a, b):
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] -= c * bi
        a = _trim_q(a)
    return a


def poly_product(polys, reduce=lambda c: c):
    acc = [1]
    for q in polys:
        out = [0] * (len(acc) + len(q) - 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(q):
                out[i + j] += x * y
        acc = [reduce(c) for c in out]
    return acc


def is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


def prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def pattern_over_extension(parts, f):
    """Pattern over GF(p^f) of a polynomial with the given pattern over GF(p)."""
    out = []
    for d in parts:
        g = gcd(d, f)
        out += [d // g] * g
    return sorted(out, reverse=True)


def cubic_pattern_from_roots(r):
    """Factorization pattern of a squarefree cubic from its root count."""
    return {3: [1, 1, 1], 1: [2, 1], 0: [3]}[r]
