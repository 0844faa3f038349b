"""Dense univariate polynomials over an exact coefficient domain.

A Polynomial stores its coefficients lowest degree first as a tuple of raw
domain values with no trailing zeros; the zero polynomial has an empty
tuple and degree -1.  PolyRing(domain) turns polynomials in T over
`domain` into a coefficient domain themselves, which is how bivariate
P(T, Y) is represented: a polynomial in Y whose coefficients live in k[T].

The resultant follows the sign convention of the Sylvester determinant
with the rows of the first argument on top; it is computed by the
subresultant remainder sequence of gfp, so it stays inside the
coefficient ring.  Over QQ that ring is Z: resultants, discriminants
and gcds run on the primitive integral models as int lists; over k[T]
it is PolyRing(k) itself, which no module of the package asks for: a
cover holds P as coefficient rows, reads disc_Y(P) off gfp.subresultant
on them and builds P, disc_Y(P) and D as Polynomial views for the API.
Off GF(p), products, differences, long divisions and derivatives are
gfp's qmul, qsub, qdivmod and qderivative on the domain's operations.
"""

import operator
from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm

from . import gfp
from .errors import CoverSpecError, DomainMismatchError, InseparabilityError
from .fields import QQ, PrimeField
from .numutil import power


class Polynomial:
    __slots__ = ("domain", "coeffs")

    def __init__(self, domain, coeffs=()):
        coeffs = list(coeffs)
        is_zero = domain.is_zero
        while coeffs and is_zero(coeffs[-1]):
            coeffs.pop()
        self.domain = domain
        self.coeffs = tuple(coeffs)

    @classmethod
    def of(cls, domain, values):
        """Build from a low-first list of coercible coefficient values."""
        return cls(domain, [domain.coerce(v) for v in values])

    @classmethod
    def constant(cls, domain, value):
        return cls(domain, [domain.coerce(value)])

    @classmethod
    def variable(cls, domain):
        return cls(domain, [domain.zero, domain.one])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        """Coefficient of degree i (zero beyond the stored length)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.domain.zero

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.domain == self.domain
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.domain, self.coeffs))

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {other!r}")
        if other.domain != self.domain:
            raise DomainMismatchError(
                f"operands over {self.domain!r} and {other.domain!r}")

    def __add__(self, other):
        self._check(other)
        return self - -other  # qsub runs over other's coefficients alone

    def __sub__(self, other):
        self._check(other)
        return Polynomial(self.domain, gfp.qsub(self.coeffs, other.coeffs,
                                                self.domain))

    def __neg__(self):
        neg = self.domain.neg
        return Polynomial(self.domain, [neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial(self.domain, ())
        if len(a) == 1:
            return other.scale(a[0])
        if len(b) == 1:
            return self.scale(b[0])
        dom = self.domain
        if isinstance(dom, PrimeField):
            return Polynomial(dom, gfp.mul(a, b, dom.p))
        return Polynomial(dom, gfp.qmul(a, b, dom))

    def scale(self, c):
        """Multiply by a raw constant of the coefficient domain."""
        mul = self.domain.mul
        return Polynomial(self.domain, [mul(a, c) for a in self.coeffs])

    def shift(self, k):
        """Multiply by X**k."""
        if not self.coeffs:
            return self
        return Polynomial(self.domain, [self.domain.zero] * k + list(self.coeffs))

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        return power(self, e, Polynomial.__mul__,
                     Polynomial.constant(self.domain, self.domain.one))

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dom = self.domain
        q, r = (gfp.divmod(self.coeffs, other.coeffs, dom.p)
                if isinstance(dom, PrimeField)
                else gfp.qdivmod(self.coeffs, other.coeffs, dom))
        return Polynomial(dom, q), Polynomial(dom, r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        """Quotient when the division is exact; raises otherwise."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise CoverSpecError("inexact polynomial division")
        return q

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.domain.inv(self.lc))

    def derivative(self):
        return Polynomial(self.domain, gfp.qderivative(self.coeffs,
                                                       self.domain))

    def eval(self, x):
        """Horner evaluation at a raw domain value."""
        dom = self.domain
        acc = dom.zero
        for c in reversed(self.coeffs):
            acc = dom.add(dom.mul(acc, x), c)
        return acc

    def map_coeffs(self, fn, new_domain):
        """Apply fn to every raw coefficient, producing a polynomial over new_domain."""
        return Polynomial(new_domain, [fn(c) for c in self.coeffs])

    # -- rational-coefficient helpers (QQ only) -----------------------------

    def integral_model(self):
        """(c, F) with self = c*F over QQ, F a primitive int list with a
        positive leading coefficient.  Zero gives (0, [])."""
        num = int_gcd(*(x.numerator for x in self.coeffs))
        if not num:
            return Fraction(0), []
        den = int_lcm(*(x.denominator for x in self.coeffs))
        num = -num if self.coeffs[-1] < 0 else num
        return Fraction(num, den), [x.numerator // num * (den // x.denominator)
                                    for x in self.coeffs]

    def to_str(self, var="Y"):
        if self.is_zero:
            return "0"
        fmt = self.domain.format
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if self.domain.is_zero(c):
                continue
            cs = fmt(c)
            if any(op in cs for op in "+-*") and not cs.lstrip("-").isdigit():
                cs = f"({cs})"
            if i == 0:
                terms.append(cs)
            elif cs == "1":
                terms.append(var if i == 1 else f"{var}^{i}")
            else:
                terms.append(f"{cs}*{var}" if i == 1 else f"{cs}*{var}^{i}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Polynomial({self.domain!r}, {self.to_str('X')})"


class PolyRing:
    """Polynomials in T over `domain`, viewed as a coefficient domain."""

    is_field = False

    def __init__(self, domain):
        self.inner = domain

    char = property(lambda self: self.inner.char)
    order = None

    def __repr__(self):
        return f"{self.inner!r}[T]"

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.inner == self.inner

    def __hash__(self):
        return hash((PolyRing, self.inner))

    @property
    def zero(self):
        return Polynomial(self.inner, ())

    @property
    def one(self):
        return Polynomial.constant(self.inner, self.inner.one)

    def coerce(self, x):
        if isinstance(x, Polynomial):
            if x.domain != self.inner:
                raise DomainMismatchError(
                    f"polynomial over {x.domain!r} in ring over {self.inner!r}")
            return x
        return Polynomial.constant(self.inner, self.inner.coerce(x))

    def is_zero(self, a):
        return a.is_zero

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    pow = staticmethod(operator.pow)
    div = staticmethod(Polynomial.exact_div)  # raises on a remainder

    def inv(self, a):
        if a.degree == 0:
            return Polynomial.constant(self.inner, self.inner.inv(a.coeffs[0]))
        raise CoverSpecError(f"{a!r} is not a unit in {self!r}")

    def format(self, a):
        return a.to_str("T")


def poly_gcd(a, b):
    """Monic gcd over a field coefficient domain: over QQ by the primitive
    remainder sequence on the integral models, else gfp.qgcd."""
    a._check(b)
    if not a.domain.is_field:
        raise CoverSpecError("poly_gcd requires field coefficients")
    if a.domain == QQ:
        g = gfp.zgcd(a.integral_model()[1], b.integral_model()[1])
        return Polynomial.of(QQ, g).monic()
    return Polynomial(a.domain, gfp.qgcd(a.coeffs, b.coeffs, a.domain))


def resultant(a, b):
    """Resultant of a and b: Sylvester determinant, rows of `a` on top.

    One subresultant remainder sequence, gfp.subresultant, with the
    coefficient domain itself as its ring: exact over field coefficients
    and over polynomial coefficient rings alike.  Over QQ it runs on the
    primitive integral models, int lists, and rescales once:
    Res(c*A, d*B) = c**deg B * d**deg A * Res(A, B).  Zero inputs are
    rejected.
    """
    a._check(b)
    if a.is_zero or b.is_zero:
        raise CoverSpecError("resultant of the zero polynomial is undefined")
    if a.domain == QQ:
        (c, A), (d, B) = a.integral_model(), b.integral_model()
        return c ** b.degree * d ** a.degree * gfp.subresultant(A, B, gfp.Z)
    return gfp.subresultant(a.coeffs, b.coeffs, a.domain)


def discriminant(f):
    """(-1)**(n(n-1)/2) * Res(f, f') / lc(f); n = deg f >= 1."""
    if f.degree < 1:
        raise CoverSpecError("discriminant needs degree >= 1")
    fp = f.derivative()
    if fp.is_zero:
        raise InseparabilityError
    dom = f.domain
    res = resultant(f, fp)
    n = f.degree
    if (n * (n - 1) // 2) % 2:
        res = dom.neg(res)
    return dom.div(res, f.lc)
