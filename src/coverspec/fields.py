"""Exact coefficient domains: the rationals, GF(p) and GF(p**f).

A domain object owns the arithmetic of raw element values:

  - RationalField (the QQ singleton) works on fractions.Fraction,
  - PrimeField(p) works on ints in [0, p),
  - ExtField(base, modulus) works on tuples of f ints, the coordinates of
    an element on the polynomial basis 1, x, ..., x**(f-1) (low degree
    first).

Raw values are hashable and canonical, so == on them is semantic equality.
Finite fields enumerate their elements in a fixed order: element number i
of GF(p**f) has the base-p digits of i as coordinates, least significant
digit first.  Domains compare equal when they have identical parameters.

The int-list polynomial arithmetic behind GF(p**f), the irreducibility
certificate of its modulus and inversion, lives in the gfp module.
Extension degrees above EXT_DEGREE_CAP are refused.
"""

from fractions import Fraction

from . import gfp
from .errors import CoverSpecError, DegreeLimitError
from .numutil import PRIME_CAP, inverse_mod, iroot, is_prime

# Desk scale: certifying a modulus costs about f**3 log p coefficient
# operations, and default_modulus tries about f candidates.
EXT_DEGREE_CAP = 64


class RationalField:
    """Field of rational numbers; raw values are Fraction instances."""

    is_field = True
    char = 0
    order = None

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, str)):
            return Fraction(x)
        raise CoverSpecError(f"cannot coerce {x!r} into QQ")

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def inv(self, a):
        return 1 / a

    def pow(self, a, k):
        return a ** k

    def format(self, a):
        return str(a)


QQ = RationalField()


class PrimeField:
    """GF(p) for a certified prime p; raw values are ints in [0, p)."""

    is_field = True

    def __init__(self, p):
        if not is_prime(p):
            raise CoverSpecError(f"{p} is not prime")
        self.p = p

    char = property(lambda self: self.p)
    order = property(lambda self: self.p)
    degree = 1

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((PrimeField, self.p))

    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            num = x.numerator % self.p
            den = x.denominator % self.p
            if den == 0:
                raise CoverSpecError(
                    f"denominator of {x} vanishes modulo {self.p}")
            return num * inverse_mod(den, self.p) % self.p
        raise CoverSpecError(f"cannot coerce {x!r} into GF({self.p})")

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def neg(self, a):
        return self.p - a if a else 0

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def pow(self, a, k):
        return pow(a, k, self.p)

    def from_index(self, i):
        if not 0 <= i < self.p:
            raise ValueError(f"index {i} out of range for GF({self.p})")
        return i

    def elements(self):
        return range(self.p)

    def format(self, a):
        return str(a)


class ExtField:
    """GF(p**f) presented by a monic irreducible modulus over GF(p).

    Raw values are tuples of f ints: coordinates on the polynomial basis,
    constant term first.
    """

    is_field = True

    def __init__(self, base, modulus):
        if not isinstance(base, PrimeField):
            raise CoverSpecError("extension base must be a PrimeField")
        modulus = gfp.trim([c % base.p for c in modulus])
        if len(modulus) < 3:
            raise CoverSpecError("extension degree must be at least 2")
        if modulus[-1] != 1:
            raise CoverSpecError("defining polynomial must be monic")
        _check_degree(len(modulus) - 1)
        if not gfp.is_irreducible(modulus, base.p):
            raise CoverSpecError(
                f"defining polynomial {modulus} is reducible over GF({base.p})")
        self.base = base
        self.p = base.p
        self.modulus = tuple(modulus)
        self.f = len(modulus) - 1
        # x^f = reduction_row on the basis (monic modulus).
        self._red = tuple((-c) % self.p for c in modulus[:-1])
        self.zero = (0,) * self.f
        self.one = (1,) + (0,) * (self.f - 1)

    char = property(lambda self: self.p)
    order = property(lambda self: self.p ** self.f)
    degree = property(lambda self: self.f)

    def __repr__(self):
        return f"GF({self.p}^{self.f})"

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.p == self.p
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash((ExtField, self.p, self.modulus))

    def coerce(self, x):
        if isinstance(x, tuple) and len(x) == self.f:
            return tuple(c % self.p for c in x)
        if isinstance(x, (list, tuple)):
            if len(x) > self.f:
                raise CoverSpecError(
                    f"coordinate vector longer than degree {self.f}")
            x = list(x) + [0] * (self.f - len(x))
            return tuple(c % self.p for c in x)
        if isinstance(x, (int, Fraction)):
            return (self.base.coerce(x),) + (0,) * (self.f - 1)
        raise CoverSpecError(f"cannot coerce {x!r} into {self!r}")

    def is_zero(self, a):
        return not any(a)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        p, f = self.p, self.f
        prod = [0] * (2 * f - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        red = self._red
        for k in range(2 * f - 2, f - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i, ri in enumerate(red):
                    prod[k - f + i] = (prod[k - f + i] + c * ri) % p
        return tuple(prod[:f])

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError(f"inverse of 0 in {self!r}")
        # the gcd is 1 since the modulus is irreducible
        _, s = gfp.xgcd(gfp.trim(list(a)), list(self.modulus), self.p)
        return tuple(s + [0] * (self.f - len(s)))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k):
        if k < 0:
            return self.pow(self.inv(a), -k)
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def from_index(self, i):
        if not 0 <= i < self.order:
            raise ValueError(f"index {i} out of range for {self!r}")
        digits = []
        for _ in range(self.f):
            i, d = divmod(i, self.p)
            digits.append(d)
        return tuple(digits)

    def elements(self):
        return (self.from_index(i) for i in range(self.order))

    def format(self, a):
        return "(" + ",".join(str(c) for c in a) + ")"


def _prime_power_decompose(q):
    """Write q = p**f with p prime, or raise."""
    if q < 2:
        raise CoverSpecError(f"{q} is not a prime power")
    for f in range(q.bit_length(), 0, -1):
        p = iroot(q, f)
        if p ** f == q:
            # f is maximal, so p is no perfect power: q is a prime power
            # exactly when p is prime
            if p >= PRIME_CAP:
                raise CoverSpecError(
                    f"cannot certify {p} as prime: primality is capped at 2**61")
            if is_prime(p):
                return p, f
            break
    raise CoverSpecError(f"{q} is not a prime power")


def _check_degree(f):
    if f > EXT_DEGREE_CAP:
        raise DegreeLimitError(
            f"extension degree {f} exceeds the cap {EXT_DEGREE_CAP}")


def default_modulus(p, f):
    """First monic irreducible of degree f over GF(p) in index order.

    Candidate number i has the base-p digits of i as its low coefficients.
    """
    for i in range(p ** f):
        digits = []
        k = i
        for _ in range(f):
            k, d = divmod(k, p)
            digits.append(d)
        cand = digits + [1]
        if gfp.is_irreducible(cand, p):
            return tuple(cand)
    raise CoverSpecError(f"no irreducible of degree {f} over GF({p})")


def finite_field(q, modulus=None):
    """GF(q) for a prime power q; modulus optional for extension fields."""
    p, f = _prime_power_decompose(q)
    if f == 1:
        if modulus is not None:
            raise CoverSpecError("a prime field takes no defining polynomial")
        return PrimeField(p)
    _check_degree(f)
    base = PrimeField(p)
    if modulus is None:
        modulus = default_modulus(p, f)
    if len(modulus) - 1 != f:
        raise CoverSpecError(
            f"defining polynomial degree {len(modulus) - 1} != {f}")
    return ExtField(base, modulus)
