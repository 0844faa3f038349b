"""Factorization of univariate polynomials.

Over a finite field GF(q): ddf, the lazy distinct-degree factorization,
names patterns and irreducibility alone; factor_ff splits each block of
each squarefree part by Cantor-Zassenhaus for odd q and by the trace map
for even q, with randomness from an explicit seed, default 0.

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
from .numutil import power, primes_from
from .poly import Polynomial, poly_gcd

FACTOR_Z_DEGREE_CAP = 24


def _require_finite_field(f):
    if not isinstance(f.domain, (PrimeField, ExtField)):
        raise DomainMismatchError(
            f"finite-field factorization over {f.domain!r}")


def _powmod(base, e, mod):
    """base**e modulo the polynomial mod."""
    return power(base % mod, e, lambda a, b: a * b % mod,
                 Polynomial.constant(base.domain, base.domain.one))


def _pth_root(f):
    """g with g(X)**p = f(X), for f(X) = sum a_j X^(jp) over GF(p**e)."""
    dom, p = f.domain, f.domain.char
    root_exp = dom.order // p  # a -> a^(q/p) inverts Frobenius
    return Polynomial(dom, [dom.pow(c, root_exp) for c in f.coeffs[::p]])


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
    # f' = 0 makes c = f: the Yun loop is skipped and the p-th root taken
    c = poly_gcd(f, f.derivative())
    if c.degree == 0:  # f is squarefree
        return [(f, 1)]
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
    """Product of the distinct monic irreducible factors of f, monic.

    Over QQ this is F / gcd(F, F') for the primitive integral model F,
    by gfp.zgcd's primitive remainder sequence over Z; over a finite
    field, the product of the squarefree decomposition's parts.
    """
    if f.domain == QQ and not f.is_zero:
        F = f.integral_model()[1]
        G = gfp.zgcd(F, [i * c for i, c in enumerate(F)][1:])
        return Polynomial.of(QQ, gfp.zexact_div(F, G)).monic()
    parts = squarefree_decomposition(f)
    acc = Polynomial.constant(f.domain, f.domain.one)
    for g, _ in parts:
        acc = acc * g
    return acc


def ddf(f, base):
    """gfp.ddf over any finite field base: for a monic squarefree
    coefficient list f, lazily (d, the coefficient list of the product of
    the factors of degree d, [base.one] when there are none), one Frobenius
    step each, then (its degree, the irreducible rest).  A block of degree
    k*d holds k factors.  Over GF(p^f) a step is h -> h^q mod the rest.
    """
    if isinstance(base, PrimeField):
        yield from gfp.ddf(f, base.p)
        return
    x = Polynomial.variable(base)
    rem, h, d = Polynomial(base, f), x, 0
    while rem.degree >= 2 * (d + 1):
        d += 1
        h = _powmod(h, base.order, rem)  # reduces h mod rem first
        g = poly_gcd(h - x, rem)
        yield d, list(g.coeffs)
        if g.degree > 0:
            rem = rem.exact_div(g)
    if rem.degree > 0:
        yield rem.degree, list(rem.coeffs)


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


def _split(f, base, rng):
    """The monic irreducible factors of a monic squarefree coefficient list
    f: each nonempty block of ddf split by _equal_degree, by increasing d."""
    return [irr for d, block in ddf(f, base) if len(block) > 1
            for irr in _equal_degree(Polynomial(base, block), d, rng)]


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
    out = [(irr, mult) for part, mult in squarefree_decomposition(f)
           for irr in _split(list(part.coeffs), f.domain, rng)]
    out.sort(key=lambda gm: (gm[0].degree, gm[0].coeffs))
    return out


def is_irreducible_ff(f):
    """Irreducibility over GF(q): the test of gfp.is_irreducible, f' != 0
    and the first nonempty block of ddf has d = deg f."""
    _require_finite_field(f)
    if f.degree < 1:
        raise CoverSpecError("irreducibility needs degree >= 1")
    return not f.derivative().is_zero and next(
        d for d, g in ddf(list(f.monic().coeffs), f.domain)
        if len(g) > 1) == f.degree


# ---------------------------------------------------------------------------
# Rational factorization: Zassenhaus scheme on the primitive integral model.


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

    for p in primes_from(2):  # G is monic: Gp has degree n
        Gp = [c % p for c in G]
        if len(gfp.gcd(Gp, gfp.trim([i * c % p for i, c in
                                     enumerate(Gp)][1:]), p)) == 1:
            break
    modular = sorted(_split(Gp, PrimeField(p), random.Random(seed)),
                     key=lambda g: (g.degree, g.coeffs))
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
                try:
                    G_cur = gfp.zexact_div(G_cur, cand)
                except CoverSpecError:
                    continue
                result_int.append(cand)
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
    out = [(irr, mult) for part, mult in squarefree_decomposition(f)
           for irr in _factor_squarefree_z(part, seed)]
    out.sort(key=lambda gm: (gm[0].degree, gm[0].coeffs))
    return out
