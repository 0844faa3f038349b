"""Factorization of univariate polynomials.

Over a finite field GF(q): ddf, the lazy distinct-degree factorization,
names patterns and irreducibility alone; factor_ff splits each block of
each squarefree part by Cantor-Zassenhaus for odd q and by the trace map
for even q, with randomness from an explicit seed, default 0.

Over the rationals: the Zassenhaus scheme on a monic squarefree int list
G, with g = G(L X) / L^n the polynomial to factor.  factor_monic_z takes
(G, L) as given, such as a cover's monic_fiber; factor_z takes G =
gfp.zmonic of each squarefree part's primitive integral model.  Factor G
modulo the least prime of squarefree reduction, lift the modular factors
by quadratic Hensel steps past twice the Mignotte bound, then try the
products of lifted factors by increasing size, each subset once (von zur
Gathen and Gerhard, Modern Computer Algebra, 15.6), and scale each factor
back once.  Degrees are capped at 24: subset recombination is
exponential in the worst case and desk scale never needs more.
squarefree_part is generic: a cover over QQ reads D off its own ints.
"""

import random
from functools import partial, reduce
from fractions import Fraction
from itertools import combinations, zip_longest
from math import isqrt, prod

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
    """Product of the distinct monic irreducible factors of f, monic: the
    product of the squarefree decomposition's parts."""
    return prod((g for g, _ in squarefree_decomposition(f)),
                start=Polynomial.constant(f.domain, f.domain.one))


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
    return _sorted((irr, mult) for part, mult in squarefree_decomposition(f)
                   for irr in _split(list(part.coeffs), f.domain, rng))


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
# Rational factorization: Zassenhaus scheme on a monic int list.


def _hensel_lift(f, factors, p, m):
    """The monic lifts mod m, a power of p, of factors, monic int lists
    pairwise coprime mod p whose product is the monic int list f mod p.
    The products g, h of their two halves, with s*g + t*h = 1, take the
    quadratic Hensel steps mod q -> min(q^2, m) of von zur Gathen and
    Gerhard, Modern Computer Algebra, Alg. 15.10; each half then lifts
    from its product."""
    if len(factors) == 1:
        return [f]
    half, mul = len(factors) // 2, partial(gfp.mul, m=p)
    g, h = reduce(mul, factors[:half]), reduce(mul, factors[half:])
    s = gfp.divmod(gfp.xgcd(g, h, p)[1], h, p)[1]  # s*g = 1 mod h
    t = gfp.divmod(gfp.sub([1], gfp.mul(s, g, p), p), h, p)[0]
    q = p

    def mod(*terms):  # the sum of int lists, mod q
        return gfp.trim([sum(c) % q for c in zip_longest(*terms, fillvalue=0)])
    while q < m:
        q = min(q * q, m)
        e = gfp.sub(f, gfp.mul(g, h, q), q)
        quo, r = gfp.divmod(gfp.mul(s, e, q), h, q)  # h is monic
        g, h = mod(g, gfp.zmul(t, e), gfp.zmul(quo, g)), mod(h, r)
        b = mod(gfp.zmul(s, g), gfp.zmul(t, h), [-1])
        c, d = gfp.divmod(gfp.mul(s, b, q), h, q)
        s, t = gfp.sub(s, d, q), gfp.sub(t, mod(gfp.zmul(t, b),
                                                gfp.zmul(c, g)), q)
    return (_hensel_lift(g, factors[:half], p, m)
            + _hensel_lift(h, factors[half:], p, m))


def _zassenhaus(G, seed):
    """The monic irreducible factors over Z of a monic squarefree G."""
    for p in primes_from(2):  # G is monic: Gp keeps its degree
        Gp = [c % p for c in G]
        if len(gfp.gcd(Gp, gfp.trim([i * c % p for i, c in
                                     enumerate(Gp)][1:]), p)) == 1:
            break
    modular = _split(Gp, PrimeField(p), random.Random(seed))
    if len(modular) == 1:
        return [G]
    bound, m = 2 ** (len(G) - 1) * (isqrt(sum(c * c for c in G)) + 1), p
    while m <= 2 * bound:
        m *= p
    lifted = _hensel_lift(G, [list(g.coeffs) for g in modular], p, m)

    # a product of lifted factors that does not divide G divides no later
    # quotient of G either, so each subset is tried once, by size
    out, r, live = [], len(lifted), set(range(len(lifted)))
    for subset in (s for size in range(1, r // 2 + 1)
                   for s in combinations(range(r), size)):
        if 2 * len(subset) > len(live):
            break
        if live.issuperset(subset):
            cand = reduce(partial(gfp.mul, m=m), (lifted[i] for i in subset))
            cand = [c - m if c > m // 2 else c for c in cand]
            try:
                G = gfp.zexact_div(G, cand)
            except CoverSpecError:
                continue
            out.append(cand)
            live.difference_update(subset)
    return out + [G]


def _sorted(factors):
    """(factor, multiplicity) pairs by degree, then coefficient tuple."""
    return sorted(factors, key=lambda gm: (gm[0].degree, gm[0].coeffs))


def _require_z_degree(n):
    if n > FACTOR_Z_DEGREE_CAP:
        raise DegreeLimitError(
            f"degree {n} exceeds the recombination cap {FACTOR_Z_DEGREE_CAP}")


def factor_monic_z(G, L, seed=0):
    """The monic irreducible rational factors of g = G(L X) / L^n, each
    once, sorted, for a monic squarefree int list G of degree n and an int
    L != 0, such as (G, L) = cover.monic_fiber(t0) with g = P(t0, Y): each
    factor H of G, of degree d, scaled back once to H(L X) / L^d."""
    _require_z_degree(len(G) - 1)
    return _sorted((Polynomial(QQ, [Fraction(c, L ** (len(H) - 1 - i))
                                    for i, c in enumerate(H)]), 1)
                   for H in _zassenhaus(G, seed))


def factor_z(f, seed=0):
    """Monic irreducible rational factors with multiplicities.

    f = lc(f) * prod factor**multiplicity: factor_monic_z of the monic
    model gfp.zmonic of each squarefree part's primitive integral model;
    degree capped at FACTOR_Z_DEGREE_CAP.
    """
    if f.domain != QQ:
        raise DomainMismatchError(f"factor_z over {f.domain!r}")
    if f.degree < 1:
        raise CoverSpecError("factor_z needs degree >= 1")
    _require_z_degree(f.degree)
    return _sorted((g, mult) for part, mult in squarefree_decomposition(f)
                   for g, _ in factor_monic_z(
                       *gfp.zmonic(part.integral_model()[1]), seed))
