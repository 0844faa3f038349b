"""Polynomial arithmetic on plain int lists modulo m, ascending coefficients.

This is the one mod-p polynomial kernel of the package.  Lists have no
trailing zeros (the zero polynomial is []) and results lie in [0, m).
mul and sub accept any ints and work modulo any m >= 2, which the Hensel
lift in factor_z uses with m = p**k; the division-based functions take
reduced inputs and a prime modulus p.

Products accumulate unreduced and are reduced once per coefficient: the
partial sums stay exact Python ints, so this changes no result.
"""

from itertools import zip_longest

from .numutil import prime_factors


def trim(a):
    """Drop trailing zeros in place and return a."""
    while a and a[-1] == 0:
        a.pop()
    return a


def mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim([c % m for c in out])


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


def powmod(a, e, mod, p):
    """a**e modulo the polynomial mod over GF(p)."""
    result = [1]
    base = divmod(a, mod, p)[1]
    while e:
        if e & 1:
            result = divmod(mul(result, base, p), mod, p)[1]
        base = divmod(mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


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


def is_irreducible(f, p):
    """Rabin test for a monic f over GF(p)."""
    n = len(f) - 1
    if n <= 1:
        return n == 1
    x = [0, 1]

    def frobenius(k):
        power = x
        for _ in range(k):
            power = powmod(power, p, f, p)
        return power

    # x^(p^n) must reduce to x modulo f ...
    if sub(frobenius(n), x, p):
        return False
    # ... and x^(p^(n/l)) - x must be coprime to f for every prime l | n.
    return all(len(gcd(sub(frobenius(n // ell), x, p), f, p)) == 1
               for ell in prime_factors(n))
