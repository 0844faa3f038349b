"""Degree-n covers of the projective line given by bivariate polynomials.

A cover is a polynomial P(T, Y), monic of degree n in Y after
normalization, with coefficients in k[T] for k the rationals or a finite
field.  The branch locus is carried as the squarefree polynomial D(T)
whose roots are the finite branch points (primitive integral over the
rationals, monic over finite fields); branch points are never represented
as algebraic numbers.  Over QQ all of it is read off one integer model:
F = L*P in Z[T][Y], L the lcm of P's denominators (F is primitive, as P
is monic), and disc_Y(P) = c*W, W primitive, from one subresultant over
Z[T].  monic_fiber is the one place a fiber over QQ is built, as a monic
int list; `fiber` gives raw coefficients over any base.

The classical families with full symmetric geometric monodromy are
provided as tagged constructors: the three trinomial shapes and covers
M(Y) - T for a Morse polynomial M.
"""

from copy import copy
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm, prod

from . import gfp
from .errors import (
    BadPrimeError, CoverSpecError, DegreeLimitError, DomainMismatchError,
    FamilyConstraintError, InseparabilityError, InseparableCoverError,
    NotMorseError)
from .factor import squarefree_part
from .fields import QQ, PrimeField
from .numutil import is_prime, prime_factors
from .parsing import MAX_EXPONENT
from .poly import Polynomial, PolyRing, discriminant, poly_gcd, resultant


class FamilyTag(str, Enum):
    TRINOMIAL_GENERAL = "trinomial-general"
    TRINOMIAL_SIMPLE = "trinomial-simple"
    TRINOMIAL_ALT = "trinomial-alt"
    MORSE = "morse"
    RAW = "raw"


def infinity_branched_raw(P):
    """Conservative test whether the cover ramifies or degenerates over T = infinity.

    Passes to the chart S = 1/T, Z = Y/S^e with e the ceiling of the
    coefficient degree slope, and declares infinity branched when the
    fiber at S = 0 is not separable of full degree.  That fiber is monic
    in Z, and its Z^i coefficient is the T^(e(n-i)) coefficient of the
    Y^i coefficient of P, so one univariate discriminant decides.
    Overcounting only enlarges the branch point count r, never shrinks it.
    """
    n = P.degree
    slopes = []
    for i in range(n):
        c = P.coeff(i)
        if not c.is_zero and c.degree > 0:
            slopes.append(-(-c.degree // (n - i)))  # ceil division
    if not slopes:
        return True  # no T-dependence below the leading term
    e = max(slopes)
    base = P.domain.inner
    fiber = Polynomial(base, [P.coeff(i).coeff(e * (n - i))
                              for i in range(n + 1)])
    try:
        return base.is_zero(discriminant(fiber))
    except InseparabilityError:  # the fiber's derivative vanishes
        return True


class BivariateCover:
    """P(T, Y) with its branch data computed on first read.

    Attributes: P (monic in Y over base[T]), n, base, tag,
    finite_branch_points (closed-form rational list for tagged families,
    None otherwise), params, and the cached properties disc (disc_Y(P)),
    D (squarefree branch locus) and infinity_branched.  Over QQ,
    `_reductions` keeps the reduce_mod cover of each good prime, and
    `_bad_invariants` the integers that decide bad reduction.

    Construction refuses an inseparable P cheaply: P = A(Y) + c*T with n
    prime to the characteristic has A' != 0 (A is monic of degree n), so
    disc_Y(P) = +-Res(A + c*T, A') != 0; else a squarefree fiber at t = 0,
    1 or 2 proves disc_Y(P) != 0; else disc_Y(P) is computed.
    """

    def __init__(self, P, tag=FamilyTag.RAW, finite_branch_points=None,
                 params=None):
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
        p = self.base.char
        if (p and self.n % p == 0 or self.sweep_shape() is None) and not any(
                self.squarefree_fiber(self.base.coerce(t)) for t in range(3)
                ) and self.disc.is_zero:
            raise InseparableCoverError("disc_Y vanishes identically")
        self.tag = tag
        self.finite_branch_points = (
            tuple(finite_branch_points) if finite_branch_points is not None
            else None)
        self.params = dict(params) if params else {}
        self._reductions, self._bad_invariants = {}, None

    infinity_branched = cached_property(
        lambda self: infinity_branched_raw(self.P))

    @cached_property
    def disc(self):  # over QQ the view c*W of _disc_model
        if self.base != QQ:
            return discriminant(self.P)
        c, W = self._disc_model
        return Polynomial(QQ, [c * x for x in W])

    @cached_property
    def D(self):  # primitive integral over QQ, monic over a finite field
        if self.base != QQ:
            return squarefree_part(self.disc)
        W = self._disc_model[1]  # W / gcd(W, W') is primitive (Gauss)
        return Polynomial.of(QQ, gfp.zexact_div(W, gfp.zgcd(
            W, [i * c for i, c in enumerate(W)][1:])))

    @property
    def branch_point_count(self):
        """r = number of branch points: deg D plus one if branched at infinity."""
        return self.D.degree + (1 if self.infinity_branched else 0)

    def fiber(self, t):
        """The raw coefficients of P(t, Y), low first, for t a raw value of
        the base field: the fiber every reader over GF(q) takes."""
        return [c.eval(t) for c in self.P.coeffs]

    def specialized(self, t0):
        """P(t0, Y) as a univariate polynomial over the base field."""
        return Polynomial(self.base, self.fiber(self.base.coerce(t0)))

    def squarefree_fiber(self, t0):
        """Whether P(t0, Y) is squarefree, t0 in the base field: as P is
        monic in Y, whether t0 lies off the branch locus.  Over QQ a true
        answer is monic_fiber(t0) itself, for a reader to factor."""
        if self.base == QQ:
            f, _ = fiber = self.monic_fiber(t0)
            g = gfp.zgcd(f, [i * c for i, c in enumerate(f)][1:])
            return len(g) == 1 and fiber
        f = self.specialized(t0)
        return poly_gcd(f, f.derivative()).degree == 0

    @cached_property
    def _integral_rows(self):  # (L, F = L*P as int rows, deg_T P) over QQ
        L = lcm(*(x.denominator for c in self.P.coeffs for x in c.coeffs))
        F = [[x.numerator * (L // x.denominator) for x in c.coeffs]
             for c in self.P.coeffs]
        return L, F, max(map(len, F)) - 1

    @cached_property
    def _disc_model(self):  # (c, W), W with lc > 0; (0, []) for disc_Y = 0
        # disc_Y(F) = (-1)^(n(n-1)/2) Res_Y(F, F_Y) / L = L^(2n-2) disc_Y(P)
        (L, F, _), n = self._integral_rows, self.n
        R = gfp.subresultant(F, [[i * x for x in row] for i, row in
                                 enumerate(F)][1:], gfp.ZT)
        W = gfp.zprimitive(R)
        return Fraction((-1) ** (n * (n - 1) // 2) * R[-1] // W[-1],
                        L ** (2 * n - 1)) if R else 0, W

    def monic_fiber(self, t0):
        """(f, E) at t0 = a/b in QQ, by gfp.zmonic off P's int rows: the
        monic int list f = E^n P(t0, Y/E), E = L b^e for P's denominator
        lcm L and T-degree e, so P(t0, Y) has the coefficients f_i/E^(n-i)."""
        _, rows, e = self._integral_rows
        return gfp.zmonic([_at(row, t0, e) for row in rows])

    def integral_fiber(self, t0):
        """(f, w, b) at t0 = a/b: f of monic_fiber, and w = (L' b^e')^2
        disc_Y(P)(t0) for the denominator lcm L' and T-degree e' of
        disc_Y(P), zero on the branch locus.  Mod a good p prime to b, f has
        the pattern of P(t0, Y), and w the character and zeros of disc_Y(f)."""
        _require_rational_cover(self)
        t0 = QQ.coerce(t0)
        c, disc = self._disc_model
        w = c.numerator * c.denominator * _at(disc, t0, 2 * len(disc) - 2)
        return self.monic_fiber(t0)[0], w, t0.denominator

    def sweep_shape(self):
        """(a, c) when P = A(Y) + c*T, a the raw coefficients of A, low
        first; None when any other coefficient involves T."""
        low, *rest = self.P.coeffs
        if low.degree != 1 or max(c.degree for c in rest) > 0:
            return None
        return [c.coeff(0) for c in self.P.coeffs], low.coeff(1)

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


def _at(row, t0, e):
    """b^e row(a/b) for an int list row and t0 = a/b, zero terms skipped."""
    a, b = t0.numerator, t0.denominator
    return sum(x * a ** j * b ** (e - j) for j, x in enumerate(row) if x)


def check_degree(**exponents):
    """Refuse an exponent above the parser's MAX_EXPONENT (after the
    parameter constraints, so a broken one is still the error reported)."""
    for name, value in exponents.items():
        if value > MAX_EXPONENT:
            raise DegreeLimitError(
                f"{name} = {value} exceeds the limit {MAX_EXPONENT}")


def _char_check(base, value, description):
    p = base.char
    if p and value % p == 0:
        raise FamilyConstraintError(
            "characteristic", f"char {p} divides {description}")


def _minus_t(M):
    """M(Y) - T in base[T][Y] for M over base: the one builder of the
    M(Y) - T families and of the Morse test."""
    ring = PolyRing(M.domain)
    return (M.map_coeffs(ring.coerce, ring)
            - Polynomial.constant(ring, Polynomial.variable(M.domain)))


def check_trinomial(n, base):
    """Refuse n < 2, a characteristic dividing n(n-1) or n past the cap."""
    if n < 2:
        raise FamilyConstraintError("degree-range", f"need n >= 2, got {n}")
    _char_check(base, n * (n - 1), "n(n-1)")
    check_degree(n=n)


def _trinomial(n, m, base):
    """Y^n - Y^m - T, once check_trinomial passes."""
    check_trinomial(n, base)
    one = Polynomial.constant(base, 1)
    return _minus_t(one.shift(n) - one.shift(m))


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
    check_degree(n=n, r=r, s=s)
    ring = PolyRing(base)
    T, one = Polynomial.variable(base), Polynomial.constant(ring, 1)
    P = one.shift(n) - one.shift(m).scale(T ** r) + one.scale(T ** s)
    t0 = Fraction(m ** m * (n - m) ** (n - m), n ** n)
    points = (base.coerce(0), base.coerce(t0))
    return BivariateCover(P, FamilyTag.TRINOMIAL_GENERAL,
                          finite_branch_points=points,
                          params={"n": n, "m": m, "r": r, "s": s})


def make_trinomial_simple(n, base=QQ):
    """Y^n - Y - T; characteristic must not divide n(n-1)."""
    return BivariateCover(_trinomial(n, 1, base), FamilyTag.TRINOMIAL_SIMPLE,
                          params={"n": n})


def make_trinomial_alt(n, base=QQ):
    """Y^n - Y^(n-1) - T; finite branch points 0 and Q(1 - 1/n), Q = Y^n - Y^(n-1)."""
    P = _trinomial(n, n - 1, base)
    # critical value of Q at 1 - 1/n
    beta = base.coerce(Fraction(n - 1, n))
    q_at = base.sub(base.pow(beta, n), base.pow(beta, n - 1))
    # for n = 2 the cover is unramified over 0
    points = (base.zero, q_at) if n >= 3 else (q_at,)
    return BivariateCover(P, FamilyTag.TRINOMIAL_ALT,
                          finite_branch_points=points,
                          params={"n": n})


def is_morse(M):
    """Morse test: simple critical points with pairwise distinct critical values.

    Computes R(T) = Res_Y(M(Y) - T, M'(Y)); M is Morse iff R has degree
    n - 1 and is squarefree.  Returns (verdict, witness); the witness
    carries R and gcd(R, R').
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
    ring = PolyRing(base)
    R = resultant(_minus_t(M), M.derivative().map_coeffs(ring.coerce, ring))
    g = poly_gcd(R, R.derivative()) if not R.derivative().is_zero else R.monic()
    verdict = (R.degree == n - 1) and (g.degree == 0)
    return verdict, {"critical_resultant": R, "repeated_part": g}


def make_morse_cover(M):
    """Cover M(Y) - T for a Morse polynomial M; branched at infinity."""
    verdict, witness = is_morse(M)
    if not verdict:
        raise NotMorseError(witness)
    return BivariateCover(_minus_t(M), FamilyTag.MORSE,
                          params={"n": M.degree})


# ---------------------------------------------------------------------------
# Reduction data over the rationals.


def _require_rational_cover(cover):
    if cover.base != QQ:
        raise DomainMismatchError("operation needs a cover over QQ")


def _prime_to(a, b):
    """The largest divisor of |a| prime to b."""
    while (g := gcd(a, b)) > 1:
        a //= g
    return abs(a)


def _bad_prime_invariants(cover):
    """(integer, reason) pairs, derived once: p is bad for each reason whose
    integer it divides.  The integers are n!, each Y-coefficient's
    denominator lcm without the earlier ones' primes, lc(D), disc(D) (1 for
    constant D) without the primes of lc(D) and the denominators, and the
    numerator times the denominator of the content of disc_Y(P)."""
    inv = cover._bad_invariants
    if inv is None:
        n, D, (L, F, _) = cover.n, cover.D, cover._integral_rows
        inv = [(factorial(n), f"p = {{p}} <= n = {n}")]
        seen = 1
        for i, row in enumerate(F[:-1]):
            den = L // gcd(L, *row)  # the lcm of row i's denominators in P
            inv.append((_prime_to(den, seen),
                        f"Y-coefficient {i} is not p-integral"))
            seen *= den
        lc_d = D.lc.numerator  # D is primitive integral
        inv.append((lc_d, "branch locus degree drops mod p"))
        disc_d = discriminant(D).numerator if D.degree >= 1 else 1
        inv.append((_prime_to(disc_d, lc_d * seen),
                    "branch points coalesce mod p"))
        c = cover._disc_model[0]
        inv.append((c.numerator * c.denominator, "disc content not a p-unit"))
        cover._bad_invariants = inv
    return inv


def good_prime_reasons(cover, p):
    """List of reasons p is a prime of bad reduction; empty means good.

    Good means: p > n, all coefficients p-integral, D keeps its degree and
    stays squarefree mod p, and the content of disc_Y(P) is a p-unit (for
    every n: Y^3 - 15T + 5, content 3^3 5^2, reduces to Y^3 mod 5).  Each
    test is one divisibility by one of the cover's bad-prime invariants.
    """
    _require_rational_cover(cover)
    if not is_prime(p):
        raise CoverSpecError(f"{p} is not prime")
    return [why.format(p=p) for m, why in _bad_prime_invariants(cover)
            if m % p == 0]


def bad_product(cover):
    """The product of the bad-prime invariants, which each bad p divides."""
    _require_rational_cover(cover)
    return prod(m for m, _ in _bad_prime_invariants(cover))


def bad_primes(cover):
    """The sorted bad primes: the prime factors of bad_product."""
    return prime_factors(bad_product(cover))


def require_good_prime(cover, p):
    """Raise BadPrimeError naming good_prime_reasons when p is bad."""
    if reasons := good_prime_reasons(cover, p):
        raise BadPrimeError(f"p = {p} is bad: {'; '.join(reasons)}")


def reduce_mod(cover, p):
    """The cover over GF(p); raises BadPrimeError when p is bad.

    Goodness is read from good_prime_reasons, so a bad p raises again at
    the cost of a few divisibility tests.  A good p's reduction is built
    once and kept in cover._reductions: F = L*P, c*W = disc_Y(P) and D read
    mod p, with one inverse of L and of c, D made monic, and the rational
    cover's own infinity test (never redone over GF(p)), tag and params.
    Goodness makes this exact: p > n keeps deg P' = n - 1, so disc_Y
    commutes with reduction, and D mod p keeps its degree and stays
    squarefree while the disc content is a p-unit.
    """
    reduced = cover._reductions.get(p)
    if reduced is None:
        require_good_prime(cover, p)
        F, (L, rows, _), (c, W) = (PrimeField(p), cover._integral_rows,
                                   cover._disc_model)
        reduced = copy(cover)
        reduced.base, reduced.ring = F, PolyRing(F)
        L, c = pow(L, -1, p), c.numerator * pow(c.denominator, -1, p)
        reduced.P = Polynomial(reduced.ring, [
            Polynomial(F, [x * L % p for x in row]) for row in rows])
        reduced.disc = Polynomial(F, [c * x % p for x in W])
        reduced.D = Polynomial.of(F, map(int, cover.D.coeffs)).monic()
        reduced.infinity_branched = cover.infinity_branched
        if cover.finite_branch_points is not None:
            reduced.finite_branch_points = tuple(
                F.coerce(t) for t in cover.finite_branch_points)
        reduced._reductions, reduced._bad_invariants = {}, None
        cover._reductions[p] = reduced
    return reduced


def constant_c(cover):
    """4 r^2 (n!)^2: the field-size threshold guaranteeing every pattern."""
    r = cover.branch_point_count
    return 4 * r * r * factorial(cover.n) ** 2
