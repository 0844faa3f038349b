"""Hilbert-Grunwald progression search over the rationals.

Given a cover with full symmetric geometric monodromy and finitely many
good primes p, each with a prescribed partition of n, the search picks a
residue mod p realizing each partition (existence is guaranteed for
p >= 4r^2(n!)^2; at desk scale the smallest one is found by scanning GF(p)
upward), adds three auxiliary primes forcing cycle types that generate S_n
(an n-cycle, an (n-1)-cycle and a transposition), combines everything
into an arithmetic progression b mod M by the Chinese remainder theorem,
and certifies candidates t0 = b, b + M, ... one by one:

  - the residue pattern at every prescribed prime is re-verified,
  - irreducibility over Q is certified by the auxiliary prime whose
    pattern is {n} (irreducible mod p implies irreducible over Q),
  - the Galois group is certified symmetric by collecting witnessed cycle
    types (sound, never a false certificate; may return inconclusive).

Everything is deterministic: smallest qualifying residues, smallest
qualifying primes, ascending candidate order.
"""

from dataclasses import dataclass, field
from math import prod

from .covers import constant_c, bad_primes_radical, reduce_mod
from .errors import (
    BadPrimeError, BudgetExhaustedError, CoverSpecError,
    InfeasibleConstraintError, RamifiedPointError)
from .factor import factor_z
from .fields import QQ
from .numutil import crt, prime_factors, primes_from
from .poly import poly_gcd
from .specialize import Partition, residue_degrees_at, specialize_pattern


@dataclass(frozen=True)
class SearchSpec:
    """Cover, per-prime partitions and search budgets."""

    cover: object
    constraints: tuple
    max_candidates: int = 3
    prime_budget: int = 200
    candidate_budget: int = 500
    trick_prime_bound: int = 10 ** 5
    seed: int = 0

    def __post_init__(self):
        primes = [p for p, _ in self.constraints]
        if len(set(primes)) != len(primes):
            raise CoverSpecError("constraint primes must be distinct")
        for _, lam in self.constraints:
            if not isinstance(lam, Partition):
                raise CoverSpecError("constraints need Partition values")


@dataclass
class SnCertificate:
    """Witnessed cycle types toward the symmetric group, or inconclusive."""

    witnesses: dict
    scanned: int
    inconclusive: bool
    reason: str = ""

    @property
    def certified(self):
        return not self.inconclusive


@dataclass
class CertifiedPoint:
    t0: int
    patterns: dict
    irreducibility_prime: int
    sn_certificate: SnCertificate


@dataclass
class ProgressionResult:
    b: int
    M: int
    beta: int
    constraints: tuple
    trick_primes: tuple
    residues: dict
    certified: list
    skipped: list = field(default_factory=list)
    annotations: dict = field(default_factory=dict)


def local_solutions(cover, p, target):
    """All residues t mod p avoiding the branch locus with the target pattern.

    Exhaustive scan of GF(p); an empty list is legal below the existence
    bound 4r^2(n!)^2.
    """
    return list(_residues(cover, p, target))


def _residues(cover, p, target):
    """Ascending generator behind local_solutions; raises when p is bad."""
    if not isinstance(target, Partition):
        raise CoverSpecError("target must be a Partition")
    if target.n != cover.n:
        raise CoverSpecError(
            f"partition {target} does not sum to n = {cover.n}")
    cp = reduce_mod(cover, p) if cover.base == QQ else cover
    F = cp.base
    if F.order != p:
        raise CoverSpecError("cover base does not match the prime")
    for t in range(p):
        tbar = F.coerce(t)
        if not F.is_zero(cp.D.eval(tbar)) and \
                specialize_pattern(cp, tbar) == target:
            yield t


def trick_patterns(n):
    """The cycle types of the standard generating trick, deduplicated at n = 2.

    An n-cycle, an (n-1, 1) type and a transposition type; for n = 2 the
    three collapse onto {2} and {1,1}, so only two primes are used.
    """
    if n < 2:
        raise CoverSpecError("trick patterns need n >= 2")
    if n == 2:
        return [Partition([2]), Partition([1, 1])]
    return [Partition([n]), Partition([n - 1, 1]),
            Partition([2] + [1] * (n - 2))]


def standard_trick_primes(cover, exclude=(), bound=10 ** 5):
    """Distinct good primes carrying the generating cycle types.

    Scans primes upward from n + 1, skipping the excluded set and the bad
    primes; each returned prime has a residue for its pattern.  The
    a-priori interval policy from the existence bound is reported by the
    caller; selection itself verifies directly.
    """
    exclude = set(exclude)
    chosen = []
    for lam in trick_patterns(cover.n):
        for p in primes_from(cover.n + 1):
            if p > bound:
                raise BudgetExhaustedError(
                    f"no auxiliary prime below {bound} for pattern {lam}")
            if p in exclude:
                continue
            try:
                if next(_residues(cover, p, lam), None) is not None:
                    break
            except BadPrimeError:
                pass
        chosen.append((p, lam))
        exclude.add(p)
    return chosen


def certify_sn(cover, t0, prime_budget=200, seed=0):
    """Certificate that the Galois group of the specialization is S_n.

    Scans good primes avoiding the branch locus at t0 and collects the
    cycle types coming from residue patterns; a certificate lists one
    witness prime per required type.  Sound but not complete: budget
    exhaustion yields an inconclusive result, never a false certificate.
    """
    fiber = cover.specialized(t0)
    if poly_gcd(fiber, fiber.derivative()).degree != 0:
        raise CoverSpecError(f"specialization at {t0} is not separable")
    n = cover.n
    factors = factor_z(fiber, seed=seed)
    if len(factors) != 1 or factors[0][1] != 1:
        return SnCertificate(
            witnesses={}, scanned=0, inconclusive=True,
            reason="specialization is reducible; the Galois action is not"
                   " transitive")
    required = set(trick_patterns(n))
    identity_type = Partition([1] * n)
    required.discard(identity_type)
    witnesses = {}
    scanned = 0
    for p in primes_from(2):
        if scanned >= prime_budget:
            return SnCertificate(
                witnesses=witnesses, scanned=scanned, inconclusive=True,
                reason=f"budget of {prime_budget} primes exhausted with"
                       f" {len(required) - len(witnesses)} types missing")
        scanned += 1
        try:
            lam = residue_degrees_at(cover, t0, p, seed=seed)
        except (BadPrimeError, RamifiedPointError):
            continue
        if lam in required and lam not in witnesses:
            witnesses[lam] = p
            if len(witnesses) == len(required):
                return SnCertificate(
                    witnesses=witnesses, scanned=scanned, inconclusive=False)
    raise AssertionError("unreachable")


def grunwald_search(spec):
    """Run the full progression search for a SearchSpec.

    Returns a ProgressionResult with at least max_candidates certified
    points, or raises: InfeasibleConstraintError when some prescribed
    pattern has no residue at its prime, BudgetExhaustedError when the
    candidate budget runs out.
    """
    cover = spec.cover
    if cover.base != QQ:
        raise CoverSpecError("the progression search runs over QQ")
    n = cover.n
    for p, lam in spec.constraints:
        if lam.n != n:
            raise CoverSpecError(f"partition {lam} does not sum to {n}")
        reduce_mod(cover, p)  # any bad prime raises before an infeasible one

    residues = {}  # the smallest residue per prime
    for p, lam in spec.constraints:
        residues[p] = next(_residues(cover, p, lam), None)
        if residues[p] is None:
            raise InfeasibleConstraintError(p, lam)

    exclude = {p for p, _ in spec.constraints}
    trick = standard_trick_primes(cover, exclude, spec.trick_prime_bound)
    for p, lam in trick:
        residues[p] = next(_residues(cover, p, lam))

    b, M = crt([(t, p) for p, t in residues.items()])
    beta = prod(p for p, _ in trick)

    wanted = dict(spec.constraints)
    wanted.update(dict(trick))
    irr_prime = trick[0][0]  # carries the {n} pattern

    certified = []
    skipped = []
    for k in range(spec.candidate_budget):
        if len(certified) >= spec.max_candidates:
            break
        t0 = b + k * M
        if cover.is_branch_point(t0):
            skipped.append((t0, "branch point"))
            continue
        patterns = {}
        ok = True
        for p, lam in wanted.items():
            observed = residue_degrees_at(cover, t0, p, seed=spec.seed)
            patterns[p] = observed
            if observed != lam:
                ok = False
        if not ok:
            skipped.append((t0, "pattern mismatch on re-verification"))
            continue
        cert = certify_sn(cover, t0, spec.prime_budget, seed=spec.seed)
        if not cert.certified:
            skipped.append((t0, f"symmetric-group certificate: {cert.reason}"))
            continue
        certified.append(CertifiedPoint(
            t0=t0, patterns=patterns, irreducibility_prime=irr_prime,
            sn_certificate=cert))
    if len(certified) < spec.max_candidates:
        raise BudgetExhaustedError(
            f"only {len(certified)} of {spec.max_candidates} candidates"
            f" certified within {spec.candidate_budget} progression steps")

    c_bound = constant_c(cover)
    bad = prime_factors(bad_primes_radical(cover))
    m0 = _addendum_m0(c_bound, len(bad))
    result = ProgressionResult(
        b=b, M=M, beta=beta,
        constraints=tuple(spec.constraints),
        trick_primes=tuple(trick),
        residues=residues,
        certified=certified,
        skipped=skipped,
        annotations={
            "constant_c": c_bound,
            "bad_primes": bad,
            "addendum_m0": m0,
            "addendum_interval": (c_bound, m0),
            "note": "existence guaranteed for primes >= constant_c; the"
                    " desk-scale search verifies small primes directly",
        })
    return result


def _addendum_m0(c_bound, bad_count):
    """Smallest m0 with at least bad_count + 3 primes in [c_bound, m0]."""
    need = bad_count + 3
    count = 0
    for p in primes_from(c_bound):
        count += 1
        if count == need:
            return p
    raise AssertionError("unreachable")
