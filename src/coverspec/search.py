"""Hilbert-Grunwald progression search over the rationals.

Given a cover with full symmetric geometric monodromy and finitely many
good primes p, each with a prescribed partition of n, the search picks a
residue mod p realizing each partition (existence is guaranteed for
p >= 4r^2(n!)^2; at desk scale the smallest one is found by scanning GF(p)
upward), adds three auxiliary primes forcing cycle types that generate S_n
(an n-cycle, an (n-1)-cycle and a transposition), combines everything
into an arithmetic progression b mod M by the Chinese remainder theorem,
and certifies the candidates t0 = b, b + M, ... in order:

  - irreducibility over Q is certified by the auxiliary prime whose
    pattern is {n} (irreducible mod p implies irreducible over Q),
  - the Galois group is certified symmetric by collecting witnessed cycle
    types (sound, never a false certificate; may return inconclusive).

The progression certifies itself.  Each wanted prime p, a constraint or
an auxiliary one, is good, so P has p-integral coefficients and a
discriminant whose reduction is that of the reduced cover, and its
residue r was chosen off the branch locus mod p.  Every candidate is an
integer with t0 = r mod p, so cover.integral_fiber(t0) = (f, w, 1) has f
mod p a unit rescaling of P(r, Y) mod p, with the pattern wanted at p,
and w mod p a unit times disc(P(r, Y)), not 0.  So no candidate lies on
the branch locus or misses a wanted pattern, and none is skipped.

Each fact is derived once: an auxiliary prime comes with the residue
that selected it, and certify_sn factors over Q only a fiber its scan
could not certify.  The residue scans read specialize.fibers_with_pattern
on the cover reduced mod p: a root sweep of GF(p) up to SWEEP_Q_CAP, in
which the transposition type settles no fiber, else point by point.
certify_sn reads a candidate once, as cover.integral_fiber(t0), takes the
pattern at each wanted prime from the congruences, and asks
specialize.residue_pattern at every other prime only for the types it
misses: the discriminant's character mod p drops the other parity with
no DDF (Stickelberger), and the DDF stops once no missing type fits.
Types its budget leaves unseen come from the auxiliary primes.

Everything is deterministic: smallest qualifying residues, smallest
qualifying primes, ascending candidate order.
"""

from dataclasses import dataclass, field
from itertools import islice
from math import prod

from .covers import bad_primes, bad_product, constant_c, reduce_mod
from .errors import (
    BadPrimeError, BudgetExhaustedError, CoverSpecError,
    InfeasibleConstraintError)
from .fields import QQ
from .numutil import crt, primes_from
from .specialize import (
    Partition, fiber_pattern, fibers_with_pattern, residue_pattern)

# progression steps, one certified point each, a search may take
CANDIDATE_BUDGET = 500
# auxiliary primes are searched below this bound
TRICK_PRIME_BOUND = 10 ** 5
# default budgets: certified points per search, primes per certify_sn scan
MAX_CANDIDATES = 3
PRIME_BUDGET = 200


@dataclass(frozen=True)
class SearchSpec:
    """Cover, per-prime partitions and search budgets."""

    cover: object
    constraints: tuple
    max_candidates: int = MAX_CANDIDATES
    prime_budget: int = PRIME_BUDGET

    def __post_init__(self):
        primes = [p for p, _ in self.constraints]
        if len(set(primes)) != len(primes):
            raise CoverSpecError("constraint primes must be distinct")
        for _, lam in self.constraints:
            if not isinstance(lam, Partition):
                raise CoverSpecError("constraints need Partition values")
        for name in ("max_candidates", "prime_budget"):
            if getattr(self, name) < 1:
                raise CoverSpecError(f"{name} must be at least 1")


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
    skipped: list = field(default_factory=list)  # always []: none is skipped
    annotations: dict = field(default_factory=dict)


def local_solutions(cover, p, target):
    """All residues t mod p avoiding the branch locus with the target pattern.

    Exhaustive scan of GF(p); an empty list is legal below the existence
    bound 4r^2(n!)^2.
    """
    return list(_residues(cover, p, target))


def _residues(cover, p, target):
    """Ascending iterator behind local_solutions; raises when p is bad."""
    if not isinstance(target, Partition):
        raise CoverSpecError("target must be a Partition")
    if target.n != cover.n:
        raise CoverSpecError(
            f"partition {target} does not sum to n = {cover.n}")
    cp = reduce_mod(cover, p) if cover.base == QQ else cover
    if cp.base.order != p:
        raise CoverSpecError("cover base does not match the prime")
    return fibers_with_pattern(cp, target)


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


def standard_trick_primes(cover, exclude=()):
    """Distinct good primes carrying the generating cycle types.

    Scans primes upward from n + 1, skipping the excluded set and the bad
    primes, and returns (p, pattern, residue) triples: the smallest prime
    with a residue for each trick pattern, and that smallest residue.
    The a-priori interval policy from the existence bound is reported by
    the caller; selection itself verifies directly.
    """
    exclude = set(exclude)
    chosen = []
    for lam in trick_patterns(cover.n):
        for p in primes_from(cover.n + 1):
            if p > TRICK_PRIME_BOUND:
                raise BudgetExhaustedError(
                    f"no auxiliary prime below {TRICK_PRIME_BOUND} for"
                    f" pattern {lam}")
            if p in exclude:
                continue
            try:
                t = next(_residues(cover, p, lam), None)
            except BadPrimeError:
                continue
            if t is not None:
                break
        chosen.append((p, lam, t))
        exclude.add(p)
    return chosen


def _required_types(n):
    """The trick types an S_n certificate witnesses: all but {1^n}."""
    return set(trick_patterns(n)) - {Partition([1] * n)}


def certify_sn(cover, t0, prime_budget=PRIME_BUDGET, known=None):
    """Certificate that the Galois group of the specialization is S_n.

    Scans good primes avoiding the branch locus at t0 and collects the
    cycle types coming from residue patterns; a certificate lists one
    witness prime per required type.  A prime dividing t0's denominator
    is skipped and counted in `scanned`, like a bad or ramified one.
    Sound but not complete: budget exhaustion yields an inconclusive
    result, never a false certificate.
    The fiber is read once, as cover.integral_fiber(t0), and each prime
    asks specialize.residue_pattern for the missing types alone, except
    a prime of known, a map {p: pattern of P(t0, Y) mod p} the caller
    vouches for, whose pattern is taken as it stands.
    The fiber is separable exactly off the branch locus.  The {n} witness
    proves irreducibility over Q, and no good prime witnesses {n} for a
    reducible fiber, so fiber_pattern runs only to name why a scan failed.
    """
    _, w, den = fiber = cover.integral_fiber(t0)
    if not w:
        raise CoverSpecError(f"specialization at {t0} is not separable")
    known = known or {}
    missing, witnesses, scanned = list(_required_types(cover.n)), {}, 0
    skip = bad_product(cover) * den * w  # bad, denominator, ramified
    for scanned, p in enumerate(islice(primes_from(2), prime_budget), 1):
        if skip % p == 0:
            continue
        if p in known:
            lam = known[p] if known[p] in missing else None
        else:
            lam = residue_pattern(fiber, p, missing)
        if lam is not None:
            witnesses[lam] = p
            missing.remove(lam)
            if not missing:
                return SnCertificate(
                    witnesses=witnesses, scanned=scanned, inconclusive=False)
    if len(fiber_pattern(cover, t0)) != 1:
        return SnCertificate(
            witnesses={}, scanned=0, inconclusive=True,
            reason="specialization is reducible; the Galois action is not"
                   " transitive")
    return SnCertificate(
        witnesses=witnesses, scanned=scanned, inconclusive=True,
        reason=f"budget of {prime_budget} primes exhausted with"
               f" {len(missing)} types missing")


def grunwald_search(spec):
    """Run the full progression search for a SearchSpec.

    Returns a ProgressionResult with max_candidates certified points, or
    raises: InfeasibleConstraintError when some prescribed pattern has no
    residue at its prime, BudgetExhaustedError when max_candidates passes
    CANDIDATE_BUDGET (checked before any candidate), DegreeLimitError when
    the annotations pass the primality or factoring limits (checked before
    any scan).
    """
    cover = spec.cover
    if cover.base != QQ:
        raise CoverSpecError("the progression search runs over QQ")
    n = cover.n
    for p, lam in spec.constraints:
        if lam.n != n:
            raise CoverSpecError(f"partition {lam} does not sum to {n}")
        reduce_mod(cover, p)  # any bad prime raises before an infeasible one
    c_bound = constant_c(cover)
    bad = bad_primes(cover)
    m0 = _addendum_m0(c_bound, len(bad))

    residues = {}  # the smallest residue per prime
    for p, lam in spec.constraints:
        residues[p] = next(_residues(cover, p, lam), None)
        if residues[p] is None:
            raise InfeasibleConstraintError(p, lam)

    exclude = {p for p, _ in spec.constraints}
    trick = []
    for p, lam, t in standard_trick_primes(cover, exclude):
        trick.append((p, lam))
        residues[p] = t

    b, M = crt([(t, p) for p, t in residues.items()])
    beta = prod(p for p, _ in trick)

    if spec.max_candidates > CANDIDATE_BUDGET:
        raise BudgetExhaustedError(
            f"{spec.max_candidates} candidates exceed the budget of"
            f" {CANDIDATE_BUDGET} progression steps")

    wanted = dict(spec.constraints)
    wanted.update(trick)
    certified = []
    for k in range(spec.max_candidates):
        t0 = b + k * M
        cert = certify_sn(cover, t0, spec.prime_budget, wanted)
        if not cert.certified:
            # the congruences fix every trick type at t0: {n} rules out a
            # reducible fiber, and the trick primes give the missing types
            witnesses = {lam: p for p, lam in trick
                         if lam in _required_types(n)}
            witnesses.update(cert.witnesses)
            cert = SnCertificate(witnesses=witnesses, scanned=cert.scanned,
                                 inconclusive=False)
        certified.append(CertifiedPoint(
            t0=t0, patterns=dict(wanted), irreducibility_prime=trick[0][0],
            sn_certificate=cert))

    return ProgressionResult(
        b=b, M=M, beta=beta,
        constraints=tuple(spec.constraints),
        trick_primes=tuple(trick),
        residues=residues,
        certified=certified,
        annotations={
            "constant_c": c_bound,
            "bad_primes": bad,
            "addendum_m0": m0,
            "addendum_interval": (c_bound, m0),
            "note": "existence guaranteed for primes >= constant_c; the"
                    " desk-scale search verifies small primes directly",
        })


def _addendum_m0(c_bound, bad_count):
    """Smallest m0 with at least bad_count + 3 primes in [c_bound, m0]."""
    need = bad_count + 3
    count = 0
    for p in primes_from(c_bound):
        count += 1
        if count == need:
            return p
