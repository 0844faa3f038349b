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
digit first; `from_index` and `index` convert between the two.  Domains
compare equal when they have identical parameters.

The int-list polynomial arithmetic behind GF(p**f), the irreducibility
certificate of its modulus and inversion, lives in the gfp module, as
does arithmetic on lists of coordinate tuples, polynomials over GF(p**f).
Extension degrees above EXT_DEGREE_CAP are refused.

ExtField.log_tables() turns the indices of GF(p**f) into logarithms:
over a primitive element g it gives exp (k -> the index of g**k, of
length 2(q-1), so a sum of two logs needs no reduction), log (the
inverse, -1 at index 0) and the Zech logarithms zech[k] = log(1 + g**k),
-1 where 1 + g**k = 0 (Huber, IEEE Trans. Inform. Theory 36, 1990).  A
product of nonzero indices is then exp[log[a] + log[b]], and a sum
g**a + g**c is g**(a + zech[c - a]).  The tables are 4-byte typed
arrays, 16 bytes per element, built on the first request and kept by
that field object only.  Only the whole-field sweeps of specialize ask
for them; the arithmetic methods below, like everything that handles a
single element, run on coordinate tuples and never build them.
"""

import operator
from array import array
from fractions import Fraction

from . import gfp
from .errors import CoverSpecError, DegreeLimitError
from .numutil import digits, iroot, is_prime, power, prime_factors

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

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    div = staticmethod(operator.truediv)
    pow = staticmethod(operator.pow)
    format = staticmethod(str)

    def inv(self, a):
        return 1 / a


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
            return num * pow(den, -1, self.p) % self.p
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
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def pow(self, a, k):
        return pow(a, k, self.p)

    def from_index(self, i):
        if not 0 <= i < self.p:
            raise ValueError(f"index {i} out of range for GF({self.p})")
        return i

    def index(self, a):
        """Inverse of from_index."""
        return a

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
        self._log_tables = None

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
            a, k = self.inv(a), -k
        return power(a, k, self.mul, self.one)

    def from_index(self, i):
        if not 0 <= i < self.order:
            raise ValueError(f"index {i} out of range for {self!r}")
        return tuple(digits(i, self.p, self.f))

    def index(self, a):
        """Inverse of from_index."""
        i = 0
        for d in reversed(a):
            i = i * self.p + d
        return i

    def elements(self):
        return (self.from_index(i) for i in range(self.order))

    def log_tables(self):
        """(exp, log, zech) over a primitive element, built on the first
        call and kept by this field object (see the module docstring)."""
        if self._log_tables is None:
            self._log_tables = _build_log_tables(self)
        return self._log_tables

    def format(self, a):
        return "(" + ",".join(str(c) for c in a) + ")"


def _build_log_tables(F):
    """exp, log and zech of F = GF(q) as array('i') of lengths 2(q-1), q
    and q-1.  g is the first index from p on, x first, that passes the
    order test over the prime factors of q - 1, as a modulus need not be
    primitive; the indices below p are constants, of order dividing
    p - 1.  A linear b*x + a is tested only when its norm (-1)^f b^f m(-a/b)
    (m the modulus) is a primitive root mod p, as g^((q-1)/(p-1)) is."""
    p, m, f = F.p, F.order - 1, F.f
    if m >= 2 ** 31:
        raise DegreeLimitError(f"{F!r} is too large for 4-byte log tables")
    orders = [m // r for r in prime_factors(m)]
    units = [(p - 1) // r for r in prime_factors(p - 1)]

    def norm_test(i):  # i = b*p + a for b*x + a when i < p^2
        a, b = i % p, i // p
        return i >= p * p or all(pow((-1) ** f * sum(
            c * (-a) ** k * b ** (f - k) for k, c in enumerate(F.modulus)),
            e, p) != 1 for e in units)
    g = next(g for g in map(F.from_index, filter(norm_test, range(p, m + 1)))
             if all(F.pow(g, e) != F.one for e in orders))
    exp, y = array("i"), F.one
    for _ in range(m):
        exp.append(F.index(y))
        y = F.mul(g, y)
    log = array("i", [-1]) * (m + 1)
    for k, e in enumerate(exp):
        log[e] = k
    # 1 + a adds 1 to the lowest base-p digit of a's index, without carry
    zech = array("i", [log[e + 1 if e % p != p - 1 else e + 1 - p]
                       for e in exp])
    return exp * 2, log, zech


def _prime_power_decompose(q):
    """Write q = p**f with p prime, or raise."""
    if q < 2:
        raise CoverSpecError(f"{q} is not a prime power")
    for f in range(q.bit_length(), 0, -1):
        p = iroot(q, f)
        if p ** f == q:
            # f is maximal, so p is no perfect power: q is a prime power
            # exactly when p is prime (is_prime refuses p >= PRIME_CAP)
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
        cand = digits(i, p, f) + [1]
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
