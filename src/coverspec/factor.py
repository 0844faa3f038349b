"""Factorization of univariate polynomials.

Over a finite field GF(q): squarefree decomposition, distinct-degree
splitting, then equal-degree splitting by Cantor-Zassenhaus for odd q and
by the trace map for even q.  All randomized choices come from an explicit
seed, default 0, so runs are reproducible.

Over the rationals: the Zassenhaus scheme.  Factor the primitive integral
model modulo a small prime of squarefree reduction, Hensel-lift the
modular factors past the Mignotte coefficient bound, then recombine by
subset search.  Degrees are capped at 24: subset recombination is
exponential in the worst case and desk scale never needs more.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

from . import gfp
from .errors import CoverSpecError, DegreeLimitError, DomainMismatchError
from .fields import ExtField, PrimeField, QQ
from .numutil import primes_from
from .poly import Polynomial, poly_gcd

FACTOR_Z_DEGREE_CAP = 24


def _require_finite_field(f):
    if not isinstance(f.domain, (PrimeField, ExtField)):
        raise DomainMismatchError(
            f"finite-field factorization over {f.domain!r}")


def _powmod(base, e, mod):
    """base**e modulo the polynomial mod."""
    dom = base.domain
    result = Polynomial.constant(dom, dom.one)
    base = base % mod
    while e:
        if e & 1:
            result = result * base % mod
        base = base * base % mod
        e >>= 1
    return result


def _pth_root(f):
    """g with g(X)**p = f(X), for f(X) = sum a_j X^(jp) over GF(p**e)."""
    dom = f.domain
    p = dom.char
    root_exp = dom.order // p  # a -> a^(q/p) inverts Frobenius
    coeffs = []
    for i in range(0, len(f.coeffs), p):
        coeffs.append(dom.pow(f.coeffs[i], root_exp))
    return Polynomial(dom, coeffs)


def squarefree_decomposition(f):
    """[(g, m)] with f = lc(f) * prod g**m, g monic squarefree, pairwise coprime.

    Works over QQ and over finite fields; positive characteristic handles
    p-th powers by root extraction.
    """
    if f.is_zero:
        raise CoverSpecError("squarefree decomposition of zero")
    f = f.monic()
    if f.degree < 1:
        return []
    dom = f.domain
    out = []
    deriv = f.derivative()
    if deriv.is_zero:
        # pure p-th power
        inner = _pth_root(f)
        for g, m in squarefree_decomposition(inner):
            out.append((g, m * dom.char))
        return out
    c = poly_gcd(f, deriv)
    w = f.exact_div(c)
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        fac = w.exact_div(y)
        if fac.degree > 0:
            out.append((fac, i))
        w = y
        c = c.exact_div(y)
        i += 1
    if c.degree > 0:
        inner = _pth_root(c)
        for g, m in squarefree_decomposition(inner):
            out.append((g, m * dom.char))
    return out


def squarefree_part(f):
    """Product of the distinct monic irreducible factors of f, monic."""
    parts = squarefree_decomposition(f)
    acc = Polynomial.constant(f.domain, f.domain.one)
    for g, _ in parts:
        acc = acc * g
    return acc


def _distinct_degree(f):
    """Yield (product of the irreducible factors of degree d, d) by increasing d.

    f is monic squarefree.  Lazy, so a caller may stop at the first block.
    """
    dom = f.domain
    q = dom.order
    x = Polynomial.variable(dom)
    rem = f
    h = x % rem
    d = 0
    while rem.degree >= 2 * (d + 1):
        d += 1
        h = _powmod(h, q, rem)
        g = poly_gcd(h - x, rem)
        if g.degree > 0:
            yield g, d
            rem = rem.exact_div(g)
            h = h % rem
    if rem.degree > 0:
        yield rem, rem.degree


def _random_nonconstant(dom, degree_bound, rng):
    q = dom.order
    while True:
        coeffs = [dom.from_index(rng.randrange(q)) for _ in range(degree_bound)]
        f = Polynomial(dom, coeffs)
        if f.degree >= 1:
            return f


def _equal_degree(f, d, rng):
    """Split monic squarefree f, all of whose irreducible factors have degree d."""
    n = f.degree
    if n == d:
        return [f]
    dom = f.domain
    q = dom.order
    while True:
        a = _random_nonconstant(dom, n, rng)
        g = poly_gcd(a, f)
        if 0 < g.degree < n:
            break
        if q % 2:
            b = _powmod(a, (q ** d - 1) // 2, f)
        else:
            # trace map over GF(2**e): sum of a^(2^i) for i < e*d
            field_e = dom.degree
            b = a % f
            acc = b
            for _ in range(field_e * d - 1):
                b = b * b % f
                acc = (acc + b) % f
            b = acc
        one = Polynomial.constant(dom, dom.one)
        g = poly_gcd(b - one, f)
        if 0 < g.degree < n:
            break
    return _equal_degree(g, d, rng) + _equal_degree(f.exact_div(g), d, rng)


def factor_ff(f, seed=0):
    """Monic irreducible factors with multiplicities over a finite field.

    Returns a list of (factor, multiplicity) sorted by degree then by
    coefficient tuple; the product of factor**multiplicity times lc(f)
    reconstructs f.  Deterministic for a fixed seed.
    """
    _require_finite_field(f)
    if f.is_zero:
        raise CoverSpecError("factorization of the zero polynomial")
    if f.degree < 1:
        return []
    rng = random.Random(seed)
    out = []
    for part, mult in squarefree_decomposition(f):
        for block, d in _distinct_degree(part):
            for irr in _equal_degree(block, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda gm: (gm[0].degree, gm[0].coeffs))
    return out


def is_irreducible_ff(f):
    """Irreducibility over GF(q): f is squarefree and its distinct-degree
    factorization is a single block of degree deg f.

    Stops at the first block, so a reducible f costs one Frobenius powmod
    per degree up to that of its smallest irreducible factor.
    """
    _require_finite_field(f)
    if f.degree < 1:
        raise CoverSpecError("irreducibility needs degree >= 1")
    f = f.monic()
    deriv = f.derivative()
    if deriv.is_zero or poly_gcd(f, deriv).degree > 0:
        return False
    return next(_distinct_degree(f))[1] == f.degree


# ---------------------------------------------------------------------------
# Rational factorization: Zassenhaus scheme on the primitive integral model.


def _zdivmod_monic(a, b):
    """Integer polynomial division by a monic divisor."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = a[-1]
        s = len(a) - 1 - db
        q[s] = c
        for i, bi in enumerate(b):
            a[s + i] -= c * bi
        gfp.trim(a)
    return q, a


def _hensel_lift(target, factors_p, p, steps):
    """Lift monic factors of `target` from mod p to mod p**steps.

    target: int coefficient list, monic; factors_p: monic int lists with
    target = prod factors_p (mod p), pairwise coprime mod p.  Linear lift,
    one power of p per iteration.
    """
    sigmas = []
    for i, gi in enumerate(factors_p):
        others = [1]
        for j, gj in enumerate(factors_p):
            if j != i:
                others = gfp.divmod(gfp.mul(others, gj, p), gi, p)[1]
        g, s = gfp.xgcd(others, gi, p)
        if len(g) != 1:
            raise AssertionError("modular factors not pairwise coprime")
        # others * sigma = 1 mod gi
        sigmas.append(gfp.divmod(s, gi, p)[1])
    cur = [list(g) for g in factors_p]
    m = p
    for _ in range(steps - 1):
        mp = m * p
        prod_cur = [1]
        for g in cur:
            prod_cur = gfp.mul(prod_cur, g, mp)
        # target - prod(cur) is divisible by m, so mod m*p keeps all of e/m mod p
        e_bar = [c // m for c in gfp.sub(target, prod_cur, mp)]
        for sigma, gi, coeffs in zip(sigmas, factors_p, cur):
            delta = gfp.divmod(gfp.mul(sigma, e_bar, p), gi, p)[1]
            for k, c in enumerate(delta):
                coeffs[k] = (coeffs[k] + m * c) % mp
        m = mp
    return cur, m


def _symmetric(c, m):
    return c - m if c > m // 2 else c


def _factor_squarefree_z(g, seed):
    """Monic irreducible rational factors of a monic squarefree g over QQ."""
    n = g.degree
    if n == 1:
        return [g]
    # integral monic model: G(X) = L^n * g(X/L) with L the coefficient lcm
    L = lcm(*[c.denominator for c in g.coeffs])
    G = []
    for i in range(n):
        v = g.coeffs[i] * L ** (n - i)
        if v.denominator != 1:
            raise AssertionError("integral model failed")
        G.append(v.numerator)
    G.append(1)

    dom = None
    for p in primes_from(2):
        dom = PrimeField(p)
        Gp = Polynomial(dom, [c % p for c in G])
        if Gp.degree == n and poly_gcd(Gp, Gp.derivative()).degree == 0:
            break
    modular = [fac for fac, _ in factor_ff(Gp, seed=seed)]
    if len(modular) == 1:
        return [g]

    norm2 = isqrt(sum(c * c for c in G)) + 1
    bound = 2 ** n * norm2
    steps = 1
    power = p
    while power <= 2 * bound:
        power *= p
        steps += 1
    lifted, m = _hensel_lift(G, [list(fac.coeffs) for fac in modular], p, steps)

    result_int = []
    live = list(range(len(lifted)))
    G_cur = list(G)
    while live:
        hit = False
        for size in range(1, len(live) // 2 + 1):
            for subset in combinations(live, size):
                cand = [1]
                for i in subset:
                    cand = gfp.mul(cand, lifted[i], m)
                cand = [_symmetric(c, m) for c in cand]
                quot, rem = _zdivmod_monic(G_cur, cand)
                if not rem:
                    result_int.append(cand)
                    G_cur = quot
                    live = [i for i in live if i not in subset]
                    hit = True
                    break
            if hit:
                break
        if not hit:
            result_int.append(G_cur)
            break
    # map back through X -> L*X and renormalize monic
    out = []
    for H in result_int:
        d = len(H) - 1
        coeffs = [Fraction(H[i], L ** (d - i)) for i in range(d + 1)]
        out.append(Polynomial(QQ, coeffs))
    return out


def factor_z(f, seed=0):
    """Monic irreducible rational factors with multiplicities.

    f = lc(f) * prod factor**multiplicity.  Zassenhaus scheme; degree
    capped at FACTOR_Z_DEGREE_CAP.
    """
    if f.domain != QQ:
        raise DomainMismatchError(f"factor_z over {f.domain!r}")
    if f.degree < 1:
        raise CoverSpecError("factor_z needs degree >= 1")
    if f.degree > FACTOR_Z_DEGREE_CAP:
        raise DegreeLimitError(
            f"degree {f.degree} exceeds the recombination cap "
            f"{FACTOR_Z_DEGREE_CAP}")
    out = []
    for part, mult in squarefree_decomposition(f):
        for irr in _factor_squarefree_z(part, seed):
            out.append((irr, mult))
    out.sort(key=lambda gm: (gm[0].degree, gm[0].coeffs))
    return out
