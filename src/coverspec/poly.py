"""Dense univariate polynomials over an exact coefficient domain.

A Polynomial stores its coefficients lowest degree first as a tuple of raw
domain values with no trailing zeros; the zero polynomial has an empty
tuple and degree -1.  PolyRing(domain) turns polynomials over `domain`
into a coefficient domain themselves, which is how bivariate P(T, Y) is
represented: a polynomial in Y whose coefficients live in QQ[T].

The resultant follows the sign convention of the Sylvester determinant
with the rows of the first argument on top; it is computed by the
subresultant remainder sequence, so it stays inside the coefficient ring
(no fractions appear for polynomial coefficients).
"""

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm

from . import gfp
from .errors import CoverSpecError, DomainMismatchError, InseparabilityError
from .fields import QQ, PrimeField


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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.domain.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Polynomial(self.domain, out)

    def __sub__(self, other):
        self._check(other)
        sub, zero = self.domain.sub, self.domain.zero
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = sub(a[i], c)
        return Polynomial(self.domain, a)

    def __neg__(self):
        neg = self.domain.neg
        return Polynomial(self.domain, [neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial(self.domain, ())
        dom = self.domain
        if isinstance(dom, PrimeField):
            return Polynomial(dom, gfp.mul(a, b, dom.p))
        add, mul, zero = dom.add, dom.mul, dom.zero
        is_zero = dom.is_zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not is_zero(ai):
                for j, bj in enumerate(b):
                    out[i + j] = add(out[i + j], mul(ai, bj))
        return Polynomial(dom, out)

    def scale(self, c):
        """Multiply by a raw constant of the coefficient domain."""
        dom = self.domain
        if dom.is_zero(c):
            return Polynomial(dom, ())
        mul = dom.mul
        return Polynomial(dom, [mul(a, c) for a in self.coeffs])

    def shift(self, k):
        """Multiply by X**k."""
        if not self.coeffs:
            return self
        return Polynomial(self.domain, [self.domain.zero] * k + list(self.coeffs))

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.domain, self.domain.one)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dom = self.domain
        if isinstance(dom, PrimeField):
            q, r = gfp.divmod(self.coeffs, other.coeffs, dom.p)
            return Polynomial(dom, q), Polynomial(dom, r)
        inv_lc = dom.inv(other.lc)
        sub, mul = dom.sub, dom.mul
        is_zero = dom.is_zero
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        q = [dom.zero] * max(0, len(a) - db)
        while len(a) - 1 >= db and a:
            c = mul(a[-1], inv_lc)
            s = len(a) - 1 - db
            q[s] = c
            for i, bi in enumerate(b):
                a[s + i] = sub(a[s + i], mul(c, bi))
            while a and is_zero(a[-1]):
                a.pop()
        return Polynomial(dom, q), Polynomial(dom, a)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

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
        dom = self.domain
        if len(self.coeffs) < 2:
            return Polynomial(dom, ())
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            k = dom.coerce(i)
            out.append(dom.mul(k, c))
        return Polynomial(dom, out)

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

    def reversed_at(self, d):
        """X**d * P(1/X) for d >= degree: coefficient list reversed with padding."""
        if d < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        zero = self.domain.zero
        padded = list(self.coeffs) + [zero] * (d + 1 - len(self.coeffs))
        return Polynomial(self.domain, padded[::-1])

    # -- rational-coefficient helpers (QQ domain only) ----------------------

    def rational_content(self):
        """Content c with self/c primitive integral of positive leading sign."""
        if self.domain != QQ:
            raise DomainMismatchError("content is defined over QQ here")
        if self.is_zero:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = int_gcd(num, c.numerator)
            den = int_lcm(den, c.denominator)
        c = Fraction(num, den)
        return -c if self.lc < 0 else c

    def primitive_int_coeffs(self):
        """Low-first int coefficient list of self/rational_content()."""
        c = self.rational_content()
        out = []
        for a in self.coeffs:
            v = a / c
            if v.denominator != 1:
                raise AssertionError("primitive part not integral")
            out.append(v.numerator)
        return out

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
    """Polynomials over `domain` viewed as a coefficient domain themselves."""

    is_field = False

    def __init__(self, domain, var="T"):
        self.inner = domain
        self.var = var

    char = property(lambda self: self.inner.char)
    order = None

    def __repr__(self):
        return f"{self.inner!r}[{self.var}]"

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.inner == self.inner
                and other.var == self.var)

    def __hash__(self):
        return hash((PolyRing, self.inner, self.var))

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

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow(self, a, k):
        return a ** k

    def exact_div(self, a, b):
        return a.exact_div(b)

    def inv(self, a):
        if a.degree == 0:
            return Polynomial.constant(self.inner, self.inner.inv(a.coeffs[0]))
        raise CoverSpecError(f"{a!r} is not a unit in {self!r}")

    def format(self, a):
        return a.to_str(self.var)


def _exact_const_div(domain, a, b):
    """Exact division of raw values; fields divide, poly rings check remainder."""
    if domain.is_field:
        return domain.div(a, b)
    return domain.exact_div(a, b)


def poly_gcd(a, b):
    """Monic gcd over a field coefficient domain."""
    if a.domain != b.domain:
        raise DomainMismatchError(
            f"gcd operands over {a.domain!r} and {b.domain!r}")
    if not a.domain.is_field:
        raise CoverSpecError("poly_gcd requires field coefficients")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _pseudo_rem(a, b):
    """lc(b)**(deg a - deg b + 1) * a mod b, computed without division."""
    dom = a.domain
    d = b.lc
    e = a.degree - b.degree + 1
    r = a
    while not r.is_zero and r.degree >= b.degree:
        s = b.shift(r.degree - b.degree).scale(r.lc)
        r = r.scale(d) - s
        e -= 1
    if e:
        r = r.scale(dom.pow(d, e))
    return r


def resultant(a, b):
    """Resultant of a and b: Sylvester determinant, rows of `a` on top.

    Subresultant remainder sequence; exact over field coefficients and over
    polynomial coefficient rings alike.  Zero inputs are rejected.
    """
    if a.domain != b.domain:
        raise DomainMismatchError(
            f"resultant operands over {a.domain!r} and {b.domain!r}")
    if a.is_zero or b.is_zero:
        raise CoverSpecError("resultant of the zero polynomial is undefined")
    dom = a.domain
    sign_flip = False
    if a.degree < b.degree:
        if (a.degree % 2) and (b.degree % 2):
            sign_flip = True
        a, b = b, a
    if a.degree == 0:
        # two constants: empty Sylvester matrix
        return dom.one
    g = dom.one
    h = dom.one
    neg = False
    while b.degree > 0:
        delta = a.degree - b.degree
        if (a.degree % 2) and (b.degree % 2):
            neg = not neg
        r = _pseudo_rem(a, b)
        denom = dom.mul(g, dom.pow(h, delta))
        a = b
        if r.is_zero:
            b = r
        else:
            b = r.map_coeffs(lambda c: _exact_const_div(dom, c, denom), dom)
        g = a.lc
        if delta:
            h = _exact_const_div(dom, dom.pow(g, delta), dom.pow(h, delta - 1))
    if b.is_zero:
        return dom.zero
    c = b.coeffs[0]
    da = a.degree
    if da:
        h = _exact_const_div(dom, dom.pow(c, da), dom.pow(h, da - 1))
    else:
        h = dom.one
    if sign_flip ^ neg:
        h = dom.neg(h)
    return h


def discriminant(f):
    """(-1)**(n(n-1)/2) * Res(f, f') / lc(f); n = deg f >= 1."""
    if f.degree < 1:
        raise CoverSpecError("discriminant needs degree >= 1")
    fp = f.derivative()
    if fp.is_zero:
        raise InseparabilityError(
            "derivative vanishes identically; inseparable in this characteristic")
    dom = f.domain
    res = resultant(f, fp)
    n = f.degree
    if (n * (n - 1) // 2) % 2:
        res = dom.neg(res)
    return _exact_const_div(dom, res, f.lc)
