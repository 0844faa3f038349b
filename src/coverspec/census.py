"""Exhaustive finite-field censuses of specialization patterns.

A census scans every t0 in GF(q), skips the branch locus, and counts the
factorization pattern of each unramified fiber.  The count for the full
n-cycle pattern should be q/n + O(sqrt(q)); per-pattern expectations use
the cycle-type density delta(lambda) = #\\{sigma in S_n of type lambda\\}/n!,
and the default tolerance constant is n! (crude but honest: the sharp
constant depends on the genus and is not pinned down here).  Densities
for patterns other than {n} are extrapolated from equidistribution and
flagged as such in reports.

Also here: realizing the degree-n extension of GF(q) by a trinomial
Y^n - Y + b or by M(Y) + b for Morse M, with the per-family field-size
bounds (2n n!)^2, and (6 n!)^2 for the general trinomial family.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, prod

from .covers import FamilyTag, constant_c, is_morse
from .errors import CoverSpecError, FamilyConstraintError, NotMorseError
from .factor import is_irreducible_ff
from .fields import ExtField, PrimeField
from .poly import Polynomial
from .specialize import Partition, all_partitions, specialize_pattern

def cycle_type_density(lam):
    """Fraction of S_n elements with cycle type lam: 1 / prod(i^m_i m_i!)."""
    mult = Counter(lam.parts)
    denom = prod(i ** m * factorial(m) for i, m in mult.items())
    return Fraction(1, denom)


def sn_class_size(lam):
    """Number of permutations of S_n with cycle type lam."""
    return int(cycle_type_density(lam) * factorial(lam.n))


def realization_bound(tag, n):
    """Field-size bound above which the realize operations must succeed."""
    if tag is FamilyTag.TRINOMIAL_GENERAL:
        return (6 * factorial(n)) ** 2
    return (2 * n * factorial(n)) ** 2


@dataclass
class CensusReport:
    q: int
    cover: dict
    counts: dict
    excluded: int
    densities: dict
    deviations: dict
    constant_bound: int
    bound_met: bool
    all_realized: bool
    extrapolated: tuple = field(default_factory=tuple)

    def count(self, lam):
        return self.counts.get(lam, 0)


def census(cover, seed=0):
    """Exhaustive specialization census of a cover over GF(q)."""
    base = cover.base
    if not isinstance(base, (PrimeField, ExtField)):
        raise CoverSpecError("census needs a cover over a finite field")
    q = base.order
    n = cover.n
    total = Counter()
    excluded = 0
    for i in range(q):
        t = base.from_index(i)
        if base.is_zero(cover.D.eval(t)):
            excluded += 1
            continue
        total[specialize_pattern(cover, t, seed=seed)] += 1
    if sum(total.values()) + excluded != q:
        raise AssertionError("census counts do not add up to q")
    partitions = all_partitions(n)
    densities = {lam: cycle_type_density(lam) for lam in partitions}
    deviations = {lam: abs(total.get(lam, 0) - densities[lam] * q)
                  for lam in partitions}
    bound = constant_c(cover)
    return CensusReport(
        q=q,
        cover=cover.describe(),
        counts=dict(total),
        excluded=excluded,
        densities=densities,
        deviations=deviations,
        constant_bound=bound,
        bound_met=q >= bound,
        all_realized=all(total.get(lam, 0) > 0 for lam in partitions),
        extrapolated=tuple(lam for lam in partitions
                           if lam != Partition([n])),
    )


def density_check(report, C=None):
    """Per-partition check |count - delta*q| <= C*sqrt(q), exact arithmetic.

    C defaults to n!; the comparison squares both sides to stay in
    rationals.  Patterns other than {n} are marked extrapolated: the
    q/n + O(sqrt q) statement is asserted only for the full cycle type.
    """
    n = next(iter(report.densities)).n if report.densities else 0
    if C is None:
        C = factorial(n)
    C = Fraction(C)
    out = {}
    for lam, delta in report.densities.items():
        dev = report.deviations[lam]
        passed = dev * dev <= C * C * report.q
        out[lam] = {
            "passed": passed,
            "deviation": dev,
            "tolerance_constant": C,
            "extrapolated": lam in report.extrapolated,
        }
    return out


@dataclass
class RealizeResult:
    b: object
    bound: int
    bound_met: bool
    attempts: int


def realize_by_trinomial(n, base):
    """Smallest-indexed b in GF(q) with Y^n - Y + b irreducible.

    Requires gcd(q, n(n-1)) = 1.  Success is guaranteed for
    q >= (2n n!)^2; below the bound an exhaustive miss raises with the
    bound report.
    """
    if n < 2:
        raise FamilyConstraintError("degree-range", f"need n >= 2, got {n}")
    if not isinstance(base, (PrimeField, ExtField)):
        raise CoverSpecError("realization needs a finite field")
    q = base.order
    if gcd(q, n * (n - 1)) != 1:
        raise FamilyConstraintError(
            "characteristic", f"gcd(q, n(n-1)) != 1 for q = {q}, n = {n}")
    bound = realization_bound(FamilyTag.TRINOMIAL_SIMPLE, n)
    coeffs = [base.zero] * (n + 1)
    coeffs[n] = base.one
    coeffs[1] = base.neg(base.one)
    for i in range(q):
        b = base.from_index(i)
        coeffs[0] = b
        f = Polynomial(base, list(coeffs))
        if is_irreducible_ff(f):
            return RealizeResult(b=b, bound=bound, bound_met=q >= bound,
                                 attempts=i + 1)
    raise CoverSpecError(
        f"no b in GF({q}) makes Y^{n} - Y + b irreducible; q {'meets' if q >= bound else 'is below'}"
        f" the bound {bound}" + ("" if q >= bound else
                                 " (no guarantee applies)"))


def realize_by_morse(M):
    """Smallest-indexed b with M(Y) + b irreducible over GF(q), M Morse."""
    base = M.domain
    if not isinstance(base, (PrimeField, ExtField)):
        raise CoverSpecError("realization needs a finite field")
    verdict, witness = is_morse(M, with_witness=True)
    if not verdict:
        raise NotMorseError(witness)
    n = M.degree
    q = base.order
    bound = realization_bound(FamilyTag.MORSE, n)
    for i in range(q):
        b = base.from_index(i)
        f = M + Polynomial.constant(base, b)
        if is_irreducible_ff(f):
            return RealizeResult(b=b, bound=bound, bound_met=q >= bound,
                                 attempts=i + 1)
    raise CoverSpecError(
        f"no b in GF({q}) makes M(Y) + b irreducible; bound {bound}"
        f" {'was met' if q >= bound else 'was not met'}")
