"""Degree-n covers of the projective line given by bivariate polynomials.

A cover is a polynomial P(T, Y), monic of degree n in Y after
normalization, with coefficients in k[T] for k the rationals or a finite
field.  The branch locus is carried as the squarefree polynomial D(T)
whose roots are the finite branch points (primitive integral over the
rationals, monic over finite fields); branch points are never represented
as algebraic numbers.

The classical families with full symmetric geometric monodromy are
provided as tagged constructors: the three trinomial shapes and covers
M(Y) - T for a Morse polynomial M.
"""

from enum import Enum
from fractions import Fraction
from math import factorial, gcd

from .errors import (
    BadPrimeError, CoverSpecError, DomainMismatchError, FamilyConstraintError,
    InseparableCoverError, NotMorseError)
from .factor import squarefree_part
from .fields import QQ, PrimeField
from .numutil import is_prime, primes_from, radical
from .poly import Polynomial, PolyRing, discriminant, poly_gcd, resultant


class FamilyTag(str, Enum):
    TRINOMIAL_GENERAL = "trinomial-general"
    TRINOMIAL_SIMPLE = "trinomial-simple"
    TRINOMIAL_ALT = "trinomial-alt"
    MORSE = "morse"
    RAW = "raw"


def bivariate_ring(base):
    return PolyRing(base, "T")


def _canonical_branch_locus(disc):
    """Squarefree part of disc, primitive integral over QQ, monic over GF."""
    sf = squarefree_part(disc)
    if disc.domain == QQ:
        content = sf.rational_content()
        return sf.scale(1 / content)
    return sf


def infinity_branched_raw(P):
    """Conservative test whether the cover ramifies or degenerates over T = infinity.

    Passes to the chart S = 1/T, Z = Y/S^e with e the ceiling of the
    coefficient degree slope, and declares infinity branched when the
    fiber at S = 0 is not separable of full degree.  Overcounting only
    enlarges the branch point count r, never shrinks it.
    """
    ring = P.domain
    n = P.degree
    slopes = []
    for i in range(n):
        c = P.coeff(i)
        if not c.is_zero and c.degree > 0:
            slopes.append(-(-c.degree // (n - i)))  # ceil division
    if not slopes:
        return True  # no T-dependence below the leading term
    e = max(slopes)
    coeffs = []
    for i in range(n + 1):
        c = P.coeff(i)
        if c.is_zero:
            coeffs.append(ring.zero)
        else:
            coeffs.append(c.reversed_at(e * (n - i)))
    P_inf = Polynomial(ring, coeffs)
    disc_inf = discriminant(P_inf)
    zero_of_base = ring.inner.zero
    return ring.inner.is_zero(disc_inf.eval(zero_of_base))


def branch_locus(P):
    """(D(T), infinity_branched) for a bivariate polynomial, monic in Y.

    D is the squarefree part of disc_Y(P); raises InseparableCoverError
    when that discriminant vanishes identically.
    """
    disc = discriminant(P)
    if disc.is_zero:
        raise InseparableCoverError("disc_Y vanishes identically")
    return _canonical_branch_locus(disc), infinity_branched_raw(P)


class BivariateCover:
    """P(T, Y) with cached branch data.

    Attributes: P (monic in Y over base[T]), n, base, disc (disc_Y(P)),
    D (squarefree branch locus), infinity_branched, tag,
    finite_branch_points (closed-form rational list for tagged families,
    None otherwise), params.  `_reductions` maps each prime p already
    passed to reduce_mod to the reduced cover, or to its bad-prime reasons.
    """

    def __init__(self, P, tag=FamilyTag.RAW, infinity_branched=None,
                 finite_branch_points=None, params=None):
        ring = P.domain
        if not isinstance(ring, PolyRing):
            raise DomainMismatchError("cover polynomial must live in base[T][Y]")
        if P.degree < 1:
            raise CoverSpecError("cover must have positive degree in Y")
        lead = P.lc
        if lead.degree != 0:
            raise CoverSpecError(
                "leading Y-coefficient must be a nonzero constant")
        if not any(P.coeff(i).degree > 0 for i in range(P.degree)):
            raise CoverSpecError("cover polynomial does not involve T")
        P = P.scale(ring.inv(lead))
        self.P = P
        self.ring = ring
        self.base = ring.inner
        self.n = P.degree
        self.disc = discriminant(P)
        if self.disc.is_zero:
            raise InseparableCoverError("disc_Y vanishes identically")
        self.D = _canonical_branch_locus(self.disc)
        if infinity_branched is None:
            infinity_branched = infinity_branched_raw(P)
        self.infinity_branched = infinity_branched
        self.tag = tag
        self.finite_branch_points = (
            tuple(finite_branch_points) if finite_branch_points is not None
            else None)
        self.params = dict(params) if params else {}
        self._reductions = {}

    @property
    def branch_point_count(self):
        """r = number of branch points: deg D plus one if branched at infinity."""
        return self.D.degree + (1 if self.infinity_branched else 0)

    def specialized(self, t0):
        """P(t0, Y) as a univariate polynomial over the base field."""
        t0 = self.base.coerce(t0)
        return self.P.map_coeffs(lambda c: c.eval(t0), self.base)

    def is_branch_point(self, t0):
        t0 = self.base.coerce(t0)
        return self.base.is_zero(self.D.eval(t0))

    def describe(self):
        return {
            "polynomial": self.P.to_str("Y"),
            "degree": self.n,
            "family": self.tag.value,
            "base": repr(self.base),
        }

    def __repr__(self):
        return f"BivariateCover({self.P.to_str('Y')}, {self.tag.value})"


def _char_check(base, value, description):
    p = base.char
    if p and value % p == 0:
        raise FamilyConstraintError(
            "characteristic", f"char {p} divides {description}")


def make_trinomial_general(n, m, r, s, base=QQ):
    """Y^n - T^r Y^m + T^s with the one-relation parameter constraints.

    Requires 1 <= m < n, gcd(m, n) = 1, s(n-m) - rn = 1 and characteristic
    zero or prime to m n (n-m).  Finite branch points are 0 and
    m^m n^(-n) (n-m)^(n-m).
    """
    for name, value in (("n", n), ("m", m), ("r", r), ("s", s)):
        if value < 1:
            raise FamilyConstraintError("positivity", f"{name} = {value} < 1")
    if not (1 <= m < n):
        raise FamilyConstraintError("degree-range", f"need 1 <= m < n, got m={m}, n={n}")
    if gcd(m, n) != 1:
        raise FamilyConstraintError("coprimality", f"gcd({m},{n}) != 1")
    if s * (n - m) - r * n != 1:
        raise FamilyConstraintError(
            "parameter-identity",
            f"s(n-m) - rn = {s * (n - m) - r * n} != 1")
    _char_check(base, m * n * (n - m), "m*n*(n-m)")
    ring = bivariate_ring(base)
    T = Polynomial.variable(base)
    coeffs = [ring.zero] * (n + 1)
    coeffs[n] = ring.one
    coeffs[m] = ring.sub(coeffs[m], T ** r)
    coeffs[0] = ring.add(coeffs[0], T ** s)
    P = Polynomial(ring, coeffs)
    t0 = Fraction(m ** m * (n - m) ** (n - m), n ** n)
    points = (base.coerce(0), base.coerce(t0))
    return BivariateCover(P, FamilyTag.TRINOMIAL_GENERAL,
                          infinity_branched=True,
                          finite_branch_points=points,
                          params={"n": n, "m": m, "r": r, "s": s})


def make_trinomial_simple(n, base=QQ):
    """Y^n - Y - T; characteristic must not divide n(n-1)."""
    if n < 2:
        raise FamilyConstraintError("degree-range", f"need n >= 2, got {n}")
    _char_check(base, n * (n - 1), "n(n-1)")
    ring = bivariate_ring(base)
    T = Polynomial.variable(base)
    coeffs = [ring.zero] * (n + 1)
    coeffs[n] = ring.one
    coeffs[1] = ring.coerce(-1)
    coeffs[0] = -T
    P = Polynomial(ring, coeffs)
    return BivariateCover(P, FamilyTag.TRINOMIAL_SIMPLE,
                          infinity_branched=True,
                          params={"n": n})


def make_trinomial_alt(n, base=QQ):
    """Y^n - Y^(n-1) - T; finite branch points 0 and Q(1 - 1/n), Q = Y^n - Y^(n-1)."""
    if n < 2:
        raise FamilyConstraintError("degree-range", f"need n >= 2, got {n}")
    _char_check(base, n * (n - 1), "n(n-1)")
    ring = bivariate_ring(base)
    T = Polynomial.variable(base)
    coeffs = [ring.zero] * (n + 1)
    coeffs[n] = ring.one
    coeffs[n - 1] = ring.coerce(-1)
    coeffs[0] = ring.sub(coeffs[0], T)
    P = Polynomial(ring, coeffs)
    # critical value of Q at 1 - 1/n
    beta = base.coerce(Fraction(n - 1, n))
    q_at = base.sub(base.pow(beta, n), base.pow(beta, n - 1))
    if n >= 3:
        points = (base.zero, q_at)
    else:
        points = (q_at,)  # for n = 2 the cover is unramified over 0
    return BivariateCover(P, FamilyTag.TRINOMIAL_ALT,
                          infinity_branched=True,
                          finite_branch_points=points,
                          params={"n": n})


def is_morse(M, with_witness=False):
    """Morse test: simple critical points with pairwise distinct critical values.

    Computes R(T) = Res_Y(M(Y) - T, M'(Y)); M is Morse iff R has degree
    n - 1 and is squarefree.  The witness carries R and gcd(R, R').
    """
    base = M.domain
    if not base.is_field:
        raise DomainMismatchError("Morse test needs field coefficients")
    n = M.degree
    if n < 2:
        raise FamilyConstraintError("degree-range", f"need deg M >= 2, got {n}")
    if base.char and n % base.char == 0:
        raise FamilyConstraintError(
            "characteristic", f"char {base.char} divides n = {n}")
    ring = bivariate_ring(base)
    T = Polynomial.variable(base)
    lifted = [ring.coerce(c) for c in M.coeffs]
    lifted[0] = ring.sub(lifted[0], T)
    m_minus_t = Polynomial(ring, lifted)
    m_prime = Polynomial(ring, [ring.coerce(c) for c in M.derivative().coeffs])
    R = resultant(m_minus_t, m_prime)
    g = poly_gcd(R, R.derivative()) if not R.derivative().is_zero else R.monic()
    verdict = (R.degree == n - 1) and (g.degree == 0)
    if with_witness:
        return verdict, {"critical_resultant": R, "repeated_part": g}
    return verdict


def make_morse_cover(M):
    """Cover M(Y) - T for a Morse polynomial M; branched at infinity."""
    verdict, witness = is_morse(M, with_witness=True)
    if not verdict:
        raise NotMorseError(witness)
    base = M.domain
    ring = bivariate_ring(base)
    T = Polynomial.variable(base)
    lifted = [ring.coerce(c) for c in M.coeffs]
    lifted[0] = ring.sub(lifted[0], T)
    P = Polynomial(ring, lifted)
    return BivariateCover(P, FamilyTag.MORSE, infinity_branched=True,
                          params={"n": M.degree})


# ---------------------------------------------------------------------------
# Reduction data over the rationals.


def _require_rational_cover(cover):
    if cover.base != QQ:
        raise DomainMismatchError("operation needs a cover over QQ")


def good_prime_reasons(cover, p):
    """List of reasons p is a prime of bad reduction; empty means good.

    Good means: p > n, all coefficients p-integral, D keeps its degree and
    stays squarefree mod p, and the content of disc_Y(P) is a p-unit (for
    every n: Y^3 - 15T + 5, content 3^3 5^2, reduces to Y^3 mod 5).
    """
    _require_rational_cover(cover)
    if not is_prime(p):
        raise CoverSpecError(f"{p} is not prime")
    reasons = []
    if p <= cover.n:
        reasons.append(f"p = {p} <= n = {cover.n}")
    for i in range(cover.n):
        c = cover.P.coeff(i)
        if any(a.denominator % p == 0 for a in c.coeffs):
            reasons.append(f"Y-coefficient {i} is not p-integral")
            break
    lc_d = cover.D.lc
    if lc_d.numerator % p == 0:
        reasons.append("branch locus degree drops mod p")
    elif not any(r.startswith("Y-coefficient") for r in reasons):
        F = PrimeField(p)
        Dp = cover.D.map_coeffs(F.coerce, F)
        if Dp.derivative().is_zero:
            reasons.append("branch points coalesce mod p")
        elif poly_gcd(Dp, Dp.derivative()).degree > 0:
            reasons.append("branch points coalesce mod p")
    content = cover.disc.rational_content()
    if content.numerator % p == 0 or content.denominator % p == 0:
        reasons.append("disc content not a p-unit")
    return reasons


def bad_primes_radical(cover):
    """Squarefree integer whose prime divisors are exactly the bad primes.

    Assembled from: all primes up to n, coefficient denominators, the
    leading coefficient and discriminant of D, and the content of
    disc_Y(P).
    """
    _require_rational_cover(cover)
    acc = 1
    for q in range(2, cover.n + 1):
        if is_prime(q):
            acc *= q
    for i in range(cover.n):
        for a in cover.P.coeff(i).coeffs:
            acc *= a.denominator
    acc *= cover.D.lc.numerator
    if cover.D.degree >= 1:
        disc_d = discriminant(cover.D)
        if disc_d.denominator != 1:
            raise AssertionError("discriminant of integral D not integral")
        acc *= disc_d.numerator
    content = cover.disc.rational_content()
    acc *= content.numerator * content.denominator
    return radical(acc)


def bad_primes_up_to(cover, bound):
    """All bad primes below the bound, by direct scan."""
    out = []
    for p in primes_from(2):
        if p > bound:
            break
        if good_prime_reasons(cover, p):
            out.append(p)
    return out


def reduce_mod(cover, p):
    """The cover over GF(p); raises BadPrimeError when p is bad.

    The goodness test and the reduction run once per (cover, p): the
    reduced cover, or the reasons p is bad, are kept in cover._reductions.
    """
    reduced = cover._reductions.get(p)
    if reduced is None:
        reduced = good_prime_reasons(cover, p)
        if not reduced:
            F = PrimeField(p)
            coeffs = [c.map_coeffs(F.coerce, F) for c in cover.P.coeffs]
            points = None
            if cover.finite_branch_points is not None:
                points = tuple(F.coerce(t) for t in cover.finite_branch_points)
            reduced = BivariateCover(
                Polynomial(bivariate_ring(F), coeffs), cover.tag,
                infinity_branched=cover.infinity_branched,
                finite_branch_points=points, params=cover.params)
        cover._reductions[p] = reduced
    if isinstance(reduced, list):
        raise BadPrimeError(f"p = {p} is bad: {'; '.join(reduced)}")
    return reduced


def constant_c(cover):
    """4 r^2 (n!)^2: the field-size threshold guaranteeing every pattern."""
    r = cover.branch_point_count
    return 4 * r * r * factorial(cover.n) ** 2
