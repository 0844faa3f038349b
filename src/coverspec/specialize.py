"""Specializations of a cover at unramified points.

The specialization of P(T, Y) at t0 is the product of separable field
extensions cut out by the irreducible factors of P(t0, Y).  Over a finite
field only the factorization pattern (a partition of n) matters; over the
rationals the factors themselves describe the etale algebra.  Residue
degrees at a good prime p are read off from the factorization of
P(t0, Y) mod p: goodness plus Hensel lifting identifies the unramified
local algebra with its residue pattern, so nothing p-adic is computed.

Ramified points are rejected, not given a value: at a branch point the
factorization pattern would not describe an etale algebra at all.
"""

from dataclasses import dataclass

from .errors import CoverSpecError, DomainMismatchError, RamifiedPointError
from .factor import factor_ff, factor_z
from .fields import QQ
from .covers import reduce_mod


class Partition:
    """Multiset of positive integers in canonical descending order."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(sorted((int(d) for d in parts), reverse=True))
        if not parts:
            raise CoverSpecError("partition must be nonempty")
        if parts[-1] < 1:
            raise CoverSpecError(f"partition parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1]
        try:
            return cls(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise CoverSpecError(f"cannot parse partition {text!r}") from exc

    @property
    def n(self):
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and other.parts == self.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "{" + ",".join(str(d) for d in self.parts) + "}"

    def __setattr__(self, *_):
        raise AttributeError("Partition is immutable")


def all_partitions(n):
    """Every partition of n, descending parts, in a fixed order."""
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for d in range(min(cap, remaining), 0, -1):
            rec(remaining - d, d, prefix + [d])

    rec(n, n, [])
    return out


@dataclass(frozen=True)
class EtaleAlgebraDescriptor:
    """Monic irreducible polynomials with multiplicities over a base field."""

    factors: tuple
    base: object

    @property
    def n(self):
        return sum(g.degree * m for g, m in self.factors)

    def pattern(self):
        degs = []
        for g, m in self.factors:
            degs += [g.degree] * m
        return Partition(degs)


def specialize_pattern(cover, t0, seed=0):
    """Degrees of the irreducible factors of P(t0, Y), as a Partition.

    t0 must avoid the branch locus (and the leading coefficient never
    vanishes: covers are monic in Y).  Unramified specializations are
    squarefree, so every factor has multiplicity one.
    """
    base = cover.base
    t0 = base.coerce(t0)
    if base.is_zero(cover.D.eval(t0)):
        raise RamifiedPointError(
            f"t0 = {base.format(t0)} lies on the branch locus")
    fiber = cover.specialized(t0)
    if base == QQ:
        factors = factor_z(fiber, seed=seed)
    else:
        factors = factor_ff(fiber, seed=seed)
    degs = []
    for g, m in factors:
        if m != 1:
            raise AssertionError(
                "unramified specialization produced a repeated factor")
        degs.append(g.degree)
    return Partition(degs)


def etale_algebra(cover, t0, seed=0):
    """The irreducible factors of P(t0, Y) over QQ, one per field factor."""
    if cover.base != QQ:
        raise DomainMismatchError("etale_algebra runs over QQ")
    base = cover.base
    t0 = base.coerce(t0)
    if base.is_zero(cover.D.eval(t0)):
        raise RamifiedPointError(
            f"t0 = {base.format(t0)} lies on the branch locus")
    fiber = cover.specialized(t0)
    factors = tuple(factor_z(fiber, seed=seed))
    return EtaleAlgebraDescriptor(factors=factors, base=base)


def residue_degrees_at(cover, t0, p, seed=0):
    """Factorization pattern of P(t0, Y) mod p for a good prime p.

    Equals the residue-degree partition of the local etale algebra of the
    specialization at t0: reduction is legitimate at good primes.
    """
    if cover.base != QQ:
        raise DomainMismatchError("residue degrees run over QQ")
    cover_p = reduce_mod(cover, p)  # raises BadPrimeError when p is bad
    F = cover_p.base
    tbar = F.coerce(t0)
    if F.is_zero(cover_p.D.eval(tbar)):
        raise RamifiedPointError(
            f"t0 = {t0} meets the branch locus modulo {p}")
    return specialize_pattern(cover_p, tbar, seed=seed)
