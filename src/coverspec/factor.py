"""Factorization of univariate polynomials.

Over a finite field GF(q) all work runs on gfp coefficient lists:
gfp.ddf, the one lazy distinct-degree factorization, names patterns and
irreducibility (gfp.is_irreducible) alone; factor_monic_ff splits each
of its blocks by gfp.edf, seeded (default 0), for each part of
gfp.squarefree in factor_ff, or for a fiber once its one gcd with its
derivative has shown it squarefree: a point costs one fiber and one gcd.

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
squarefree_decomposition is gfp.squarefree, over QQ on the primitive
integral model; a cover over QQ reads D off its own ints.
"""

import random
from functools import partial, reduce
from fractions import Fraction
from itertools import combinations, zip_longest
from math import isqrt, prod

from . import gfp
from .errors import CoverSpecError, DegreeLimitError, DomainMismatchError
from .fields import ExtField, PrimeField, QQ
from .numutil import primes_from
from .poly import Polynomial

FACTOR_Z_DEGREE_CAP = 24


def _require_finite_field(f):
    if not isinstance(f.domain, (PrimeField, ExtField)):
        raise DomainMismatchError(
            f"finite-field factorization over {f.domain!r}")


def squarefree_decomposition(f):
    """[(g, m)] with f = lc(f) * prod g**m, g monic squarefree, pairwise
    coprime: gfp.squarefree over QQ on f's primitive integral model, and
    over a finite field on its monic coefficient list."""
    if f.is_zero:
        raise CoverSpecError("squarefree decomposition of zero")
    if f.degree < 1:
        return []
    if f.domain == QQ:
        return [(Polynomial.of(QQ, g).monic(), m)
                for g, m in gfp.squarefree(f.integral_model()[1])]
    _require_finite_field(f)
    return [(Polynomial(f.domain, g), m)
            for g, m in gfp.squarefree(list(f.monic().coeffs), f.domain)]


def squarefree_part(f):
    """The monic product of the parts of squarefree_decomposition(f)."""
    return prod((g for g, _ in squarefree_decomposition(f)),
                start=Polynomial.constant(f.domain, f.domain.one))


def factor_monic_ff(f, F, seed=0):
    """The monic irreducible factors, each once, sorted, of a monic
    squarefree coefficient list f over F, such as a squarefree fiber: the
    GF(q) twin of factor_monic_z, each gfp.ddf block split by gfp.edf."""
    rng = random.Random(seed)
    return _sorted((Polynomial(F, irr), 1) for d, block in gfp.ddf(f, F.p, F)
                   if len(block) > 1 for irr in gfp.edf(block, d, F, rng))


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
    F = f.domain
    return _sorted((g, mult) for part, mult in gfp.squarefree(
        list(f.monic().coeffs), F) for g, _ in factor_monic_ff(part, F, seed))


def is_irreducible_ff(f):
    """Irreducibility over GF(q): gfp.is_irreducible of f made monic."""
    _require_finite_field(f)
    if f.degree < 1:
        raise CoverSpecError("irreducibility needs degree >= 1")
    return gfp.is_irreducible(list(f.monic().coeffs), f.domain.p, f.domain)


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
    modular = [list(g.coeffs) for g, _ in
               factor_monic_ff(Gp, PrimeField(p), seed)]
    if len(modular) == 1:
        return [G]
    bound, m = 2 ** (len(G) - 1) * (isqrt(sum(c * c for c in G)) + 1), p
    while m <= 2 * bound:
        m *= p
    lifted = _hensel_lift(G, modular, p, m)

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
    return _sorted((g, mult) for part, mult in gfp.squarefree(
        f.integral_model()[1]) for g, _ in factor_monic_z(
            *gfp.zmonic(part), seed))
