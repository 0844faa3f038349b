"""Polynomial arithmetic on plain int lists modulo m, ascending coefficients.

This is the one mod-p polynomial kernel of the package.  Lists have no
trailing zeros (the zero polynomial is []) and results lie in [0, m).
mul and sub accept any ints and work modulo any m >= 2, which the Hensel
lift in factor_z uses with m = p**k; the division-based functions take
reduced inputs and a prime modulus p.

Products accumulate unreduced and are reduced once per coefficient: the
partial sums stay exact Python ints, so this changes no result.

pattern gives the factor degrees of a squarefree f by distinct-degree
factorization alone, stepping Frobenius through Berlekamp's Q rows, and
is_irreducible reads from it.  It is the Frobenius loop of every pattern
over GF(p); factor._distinct_degree is the other one, behind factor_ff
and everything over GF(p^f).
"""

from itertools import zip_longest


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


def _mulmod(a, b, f, p):
    """a*b modulo the monic f over GF(p), for a and b reduced mod f."""
    if not a or not b:
        return []
    n = len(f) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k] % p
        if c:
            for j, fj in enumerate(f, k - n):
                out[j] -= c * fj
    return trim([c % p for c in out[:n]])


def _frobenius_rows(f, p):
    """Berlekamp's Q: row i is x^(i*p) mod the monic f of degree n >= 2.

    x^p comes from one left-to-right square-and-shift pass over the bits
    of p; multiplying by x is a shift and at most one reduction step.
    """
    xp = [0, 1]
    for bit in bin(p)[3:]:
        xp = _mulmod(xp, xp, f, p)
        if bit == "1":
            xp = _mulmod(xp, [0, 1], f, p)
    rows = [[1], xp]
    for _ in range(len(f) - 3):
        rows.append(_mulmod(rows[-1], xp, f, p))
    return rows


def pattern(f, p):
    """Degrees of the irreducible factors of a monic squarefree f over GF(p).

    Distinct-degree factorization only: the factors themselves are never
    split.  Each Frobenius step h -> h^p = h(x^p) mod f is one product
    with the Q rows (von zur Gathen and Shoup, Comput. Complexity 2,
    1992), not a new powmod, and the loop stops once twice the next
    degree exceeds what is left.  Raises ValueError when f has a repeated
    factor.
    """
    n = len(f) - 1
    df = trim([i * c % p for i, c in enumerate(f)][1:])
    if n < 1 or len(gcd(f, df, p)) > 1:
        raise ValueError("pattern needs a squarefree f of degree >= 1")
    if n == 1:
        return [1]
    rows = _frobenius_rows(f, p)
    degs = []
    rem, h, d = f, [0, 1], 0
    while 2 * (d + 1) < len(rem):
        d += 1
        acc = [0] * n
        for hj, row in zip(h, rows):
            if hj:
                for k, c in enumerate(row):
                    acc[k] += hj * c
        h = trim([c % p for c in acc])
        g = gcd(sub(h, [0, 1], p), rem, p)
        if len(g) > 1:
            degs += [d] * ((len(g) - 1) // d)
            rem = divmod(rem, g, p)[0]
    if len(rem) > 1:
        degs.append(len(rem) - 1)
    return degs


def is_irreducible(f, p):
    """A monic f over GF(p) is irreducible: squarefree with one DDF block."""
    try:
        return pattern(f, p) == [len(f) - 1]
    except ValueError:
        return False
