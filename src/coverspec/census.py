"""Exhaustive finite-field censuses of specialization patterns.

A census counts the factorization pattern of every unramified fiber
P(t0, Y), t0 in GF(q), and the points of the branch locus it skips.  The
patterns come from specialize.fiber_patterns: for a cover A(Y) + c*T and
odd q its sweeps name the pattern of a fiber, of every fiber for n <= 5,
by its root count, its discriminant's quadratic character
(Stickelberger) and, at n = 6 over GF(p), its number of irreducible
quadratic factors; every other fiber goes to specialize._settle, which
reads the first blocks of gfp.ddf, so no fiber over a finite field is
factored (the specialize docstring has the details).  Fields above
CENSUS_Q_CAP elements and degrees above CENSUS_N_CAP are refused before
any work starts.
The count for the full n-cycle pattern should be q/n + O(sqrt(q));
per-pattern expectations use the cycle-type density
delta(lambda) = #\\{sigma in S_n of type lambda\\}/n!, and the default
tolerance constant is n! (crude but honest: the sharp constant depends
on the genus and is not pinned down here).  Densities
for patterns other than {n} are extrapolated from equidistribution and
flagged as such in reports.

Also here: realizing the degree-n extension of GF(q) by a trinomial
Y^n - Y + b or by M(Y) + b for Morse M, with the per-family field-size
bounds (2n n!)^2, and (6 n!)^2 for the general trinomial family.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

from .covers import FamilyTag, check_trinomial, constant_c, is_morse
from .errors import BudgetExhaustedError, CoverSpecError, NotMorseError
from .factor import is_irreducible_ff
from .fields import ExtField, PrimeField
from .poly import Polynomial
from .specialize import Partition, all_partitions, fiber_patterns

# Desk scale: a census keeps two bytes per field element, the root tally
# and the table of squares, and a sextic one over GF(p) five more, the
# quadratic tally and its 4-byte square roots; over GF(p^f) its sweeps
# also read the field's log tables, 16 bytes per element; it streams the
# rest.  The q cap sits above the n <= 5 constant_c, 4 * 5^2 * (5!)^2.
# A census lists all p(n) partitions: p(32) = 8349, p(64) = 1,741,630.
CENSUS_Q_CAP = 2 ** 22
CENSUS_N_CAP = 32


def cycle_type_density(lam):
    """Fraction of S_n elements with cycle type lam: 1 / prod(i^m_i m_i!)."""
    mult = Counter(lam)
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


def census(cover):
    """Exhaustive specialization census of a cover over GF(q)."""
    base = cover.base
    if not isinstance(base, (PrimeField, ExtField)):
        raise CoverSpecError("census needs a cover over a finite field")
    q = base.order
    if q > CENSUS_Q_CAP:
        raise BudgetExhaustedError(
            f"census over GF({q}) exceeds the cap of {CENSUS_Q_CAP} elements")
    n = cover.n
    if n > CENSUS_N_CAP:
        raise BudgetExhaustedError(
            f"census of degree {n} exceeds the cap of degree {CENSUS_N_CAP}")
    total = Counter(fiber_patterns(cover))
    excluded = total.pop(None, 0)
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

    Takes the checks of the Y^n - Y - T family, covers.check_trinomial,
    without building the cover.  Success is guaranteed for
    q >= (2n n!)^2; below the bound an exhaustive miss raises with the
    bound report.
    """
    if not isinstance(base, (PrimeField, ExtField)):
        raise CoverSpecError("realization needs a finite field")
    check_trinomial(n, base)
    q = base.order
    bound = realization_bound(FamilyTag.TRINOMIAL_SIMPLE, n)
    Y = Polynomial.variable(base)
    return _first_irreducible(
        Y ** n - Y, bound,
        f"no b in GF({q}) makes Y^{n} - Y + b irreducible; q {'meets' if q >= bound else 'is below'}"
        f" the bound {bound}" + ("" if q >= bound else
                                 " (no guarantee applies)"))


def realize_by_morse(M):
    """Smallest-indexed b with M(Y) + b irreducible over GF(q), M Morse."""
    base = M.domain
    if not isinstance(base, (PrimeField, ExtField)):
        raise CoverSpecError("realization needs a finite field")
    verdict, witness = is_morse(M)
    if not verdict:
        raise NotMorseError(witness)
    n = M.degree
    q = base.order
    bound = realization_bound(FamilyTag.MORSE, n)
    return _first_irreducible(
        M, bound, f"no b in GF({q}) makes M(Y) + b irreducible; bound {bound}"
        f" {'was met' if q >= bound else 'was not met'}")


def _first_irreducible(f, bound, missed):
    """The first b in from_index order with f + b irreducible over GF(q),
    with its attempt count; raises CoverSpecError(missed) when none is."""
    base = f.domain
    q = base.order
    for i in range(q):
        b = base.from_index(i)
        if is_irreducible_ff(f + Polynomial.constant(base, b)):
            return RealizeResult(b=b, bound=bound, bound_met=q >= bound,
                                 attempts=i + 1)
    raise CoverSpecError(missed)
