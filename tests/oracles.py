"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive: cofactor-expansion determinants,
exhaustive scans, multiply-back checks.  These are the reference points
the fast library routines are compared against, so they must not reuse
the code paths they certify.  count_table_builds, the one counter of
library calls that two modules share, and reader_covers, the covers on
which two modules check the integral-fiber reader, live here too, as do
five earlier implementations kept as references: the parser that
evaluates on Polynomial objects over base[T], Yun's squarefree loop
without its early return, the finite-field factorization on Polynomial
objects (factor_ff_by_polynomials, with its DDF and equal-degree split),
the rational factorization of a squarefree polynomial whose
recombination restarts after every hit, and two twisting verifiers: one
that also compares orbit sizes, and one that finds the fixed points and
witnesses of each section by scanning all n! points of S_n.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm, prod

from coverspec import fields, gfp
from coverspec.covers import (
    BivariateCover, bad_primes, constant_c,
    infinity_branched_raw, make_morse_cover, make_trinomial_alt,
    make_trinomial_simple, reduce_mod)
from coverspec.errors import (
    BadPrimeError, BudgetExhaustedError, CoverSpecError, DegreeLimitError,
    InseparableCoverError, RamifiedPointError)
from coverspec.factor import factor_z, squarefree_part
from coverspec.fields import QQ, ExtField, PrimeField
from coverspec.numutil import crt, power, primes_from
from coverspec.parsing import (
    MAX_DEPTH, MAX_EXPONENT, _error, _tokenize, parse_bivariate)
from coverspec.poly import Polynomial, PolyRing, discriminant, poly_gcd
from coverspec.search import (
    CANDIDATE_BUDGET, CertifiedPoint, ProgressionResult, SnCertificate,
    _addendum_m0, _required_types, certify_sn, local_solutions,
    standard_trick_primes)
from coverspec.specialize import fiber_pattern
from coverspec.twist import (
    FiniteGroup, GroupHom, etale_from_action, twisted_action)


def det_cofactor(rows, dom):
    """Exact determinant by cofactor expansion over any commutative domain."""
    k = len(rows)
    if k == 0:
        return dom.one
    if k == 1:
        return rows[0][0]
    total = dom.zero
    for j in range(k):
        c = rows[0][j]
        if dom.is_zero(c):
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = dom.mul(c, det_cofactor(minor, dom))
        if j % 2:
            term = dom.neg(term)
        total = dom.add(total, term)
    return total


def sylvester_resultant(a, b):
    """Resultant as the Sylvester determinant with rows of `a` on top."""
    dom = a.domain
    m, n = a.degree, b.degree
    size = m + n
    if size == 0:
        return dom.one
    ac = list(a.coeffs)[::-1]
    bc = list(b.coeffs)[::-1]
    rows = []
    for i in range(n):
        rows.append([dom.zero] * i + ac + [dom.zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([dom.zero] * i + bc + [dom.zero] * (size - n - 1 - i))
    return det_cofactor(rows, dom)


def euclid_gcd(a, b):
    """Monic gcd by Euclid's algorithm on the domain's own division."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def resultant_by_roots(lc, roots, b):
    """Res(a, b) for a = lc * prod (Y - r) over r in roots, by the product
    formula lc**deg b * prod b(r)."""
    dom = b.domain
    value = dom.pow(lc, b.degree)
    for r in roots:
        value = dom.mul(value, b.eval(r))
    return value


def random_poly(rng, dom, degree, monic=False):
    """Uniform random polynomial of exactly the given degree over GF(p)."""
    p = dom.p
    coeffs = [rng.randrange(p) for _ in range(degree)]
    coeffs.append(1 if monic else rng.randrange(1, p))
    return Polynomial(dom, coeffs)


def all_monic_polys(dom, degree):
    """Every monic polynomial of exactly `degree` over a small finite field,
    coefficient k of number i being dom.from_index of base-q digit k of i."""
    q = dom.order
    return [Polynomial(dom, [dom.from_index(i // q ** k % q)
                             for k in range(degree)] + [dom.one])
            for i in range(q ** degree)]


def factors_by_trial(f):
    """Exhaustive irreducible factorization over a small finite field.

    Tries monic divisors by increasing degree; independent of the library's
    distinct-degree / equal-degree machinery.
    """
    dom = f.domain
    result = []
    unit = f.lc
    f = f.monic()
    d = 1
    while f.degree > 0:
        if 2 * d > f.degree:
            result.append((f, 1))
            break
        found = False
        for cand in all_monic_polys(dom, d):
            mult = 0
            while True:
                q, r = divmod(f, cand)
                if r.is_zero:
                    f = q
                    mult += 1
                else:
                    break
            if mult:
                result.append((cand, mult))
                found = True
                if f.degree == 0:
                    break
        if not found:
            d += 1
    merged = {}
    for g, m in result:
        merged[g] = merged.get(g, 0) + m
    ordered = sorted(merged.items(), key=lambda it: (it[0].degree, it[0].coeffs))
    return unit, ordered


def pattern_by_powering(f):
    """Descending factor degrees of a squarefree f of degree >= 1 over any
    finite field GF(q), by distinct-degree powering on Polynomial: at step
    d, h = x^(q^d) mod the rest r, by square-and-multiply on h^q, and
    gcd(h - x, r) is the product of the degree-d factors, which leave r.
    Independent of the library's ddf and its packed rows."""
    dom = f.domain
    one, x = Polynomial.constant(dom, dom.one), Polynomial.variable(dom)
    rest, h, d, degrees = f.monic(), x, 0, []
    while rest.degree >= 2 * (d + 1):
        d += 1
        base, e, h = h % rest, dom.order, one
        while e:
            if e & 1:
                h = h * base % rest
            base, e = base * base % rest, e >> 1
        g = euclid_gcd(h - x, rest)
        degrees += [d] * (g.degree // d)
        rest = divmod(rest, g)[0]
    if rest.degree > 0:
        degrees.append(rest.degree)
    return tuple(sorted(degrees, reverse=True))


def x_power_mod(e, f, p):
    """x^e modulo the monic int list f over GF(p), by plain right-to-left
    square-and-multiply on schoolbook products, each reduced by long
    division by f."""
    n = len(f) - 1

    def mulmod(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        for k in range(len(out) - 1, n - 1, -1):
            c = out[k] % p
            for j in range(n + 1):
                out[k - n + j] -= c * f[j]
        out = [c % p for c in out[:n]]
        while out and out[-1] == 0:
            out.pop()
        return out

    result, base = mulmod([1], [1]), mulmod([0, 1], [1])
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    return result


def is_prime_trial(n):
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def seeded(seed):
    return random.Random(seed)


def homs_oracle(source, target):
    """Every homomorphism source -> target, trying all |T|^|S| maps.

    Uses the groups' label operations, not their Cayley tables.  Returns
    the set of image tuples in source element order.
    """
    out = set()
    for images in product(target.elements, repeat=source.order):
        f = dict(zip(source.elements, images))
        if all(f[source.op(a, b)] == target.op(f[a], f[b])
               for a in source.elements for b in source.elements):
            out.add(images)
    return out


def infinity_branched_chart(P):
    """Infinity test through the whole chart S = 1/T, Z = Y/S^e.

    Builds P_inf(S, Z) over k[S], takes its bivariate discriminant and
    evaluates that at S = 0: the slow route the library's one-fiber test
    must agree with.
    """
    ring, n = P.domain, P.degree
    slopes = [-(-P.coeff(i).degree // (n - i)) for i in range(n)
              if P.coeff(i).degree > 0]
    if not slopes:
        return True
    e = max(slopes)
    zero = ring.inner.zero
    coeffs = []
    for i in range(n + 1):
        c = list(P.coeff(i).coeffs)
        c += [zero] * (e * (n - i) + 1 - len(c))
        coeffs.append(Polynomial(ring.inner, c[::-1]))  # S^(e(n-i)) c(1/S)
    disc = discriminant(Polynomial(ring, coeffs))
    return ring.inner.is_zero(disc.eval(zero))


def eager_branch_data(P):
    """(disc, D, infinity_branched) of the cover P, built all at once the
    way the cover constructor built them before they were computed on
    first read: disc_Y of P made monic in Y (InseparabilityError when its
    Y-derivative vanishes, InseparableCoverError when disc_Y does), its
    squarefree part, primitive integral over QQ, and the infinity test."""
    P = P.scale(P.domain.inv(P.lc))
    disc = discriminant(P)
    if disc.is_zero:
        raise InseparableCoverError("disc_Y vanishes identically")
    D = squarefree_part(disc)
    if P.domain.inner == QQ:
        D = D.scale(1 / D.integral_model()[0])
    return disc, D, infinity_branched_raw(raw_rows(P), P.domain.inner)


def raw_rows(P):
    """The rows infinity_branched_raw takes for P(T, Y): the raw
    T-coefficients of each Y-coefficient, over QQ times the lcm of their
    denominators, as ints."""
    rows = [list(c.coeffs) for c in P.coeffs]
    if P.domain.inner != QQ:
        return rows
    L = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * L) for x in row] for row in rows]


def ramified_by_locus(D, t0):
    """The old ramification test: t0 (a raw value) is a root of D."""
    return D.domain.is_zero(D.eval(t0))


def good_prime_reasons_by_reduction(cover, p):
    """Bad-reduction reasons read off the cover reduced mod p: denominators
    checked per coefficient, D mapped to GF(p) and tested squarefree by a
    gcd with its derivative, the disc content recomputed.  Wrong when D is
    constant: a constant D mod p has zero derivative, so every prime reads
    as "branch points coalesce"."""
    reasons = []
    if p <= cover.n:
        reasons.append(f"p = {p} <= n = {cover.n}")
    for i in range(cover.n):
        if any(a.denominator % p == 0 for a in cover.P.coeff(i).coeffs):
            reasons.append(f"Y-coefficient {i} is not p-integral")
            break
    if cover.D.lc.numerator % p == 0:
        reasons.append("branch locus degree drops mod p")
    elif not any(r.startswith("Y-coefficient") for r in reasons):
        F = PrimeField(p)
        Dp = cover.D.map_coeffs(F.coerce, F)
        dDp = Dp.derivative()
        if dDp.is_zero or poly_gcd(Dp, dDp).degree > 0:
            reasons.append("branch points coalesce mod p")
    content = cover.disc.integral_model()[0]
    if content.numerator % p == 0 or content.denominator % p == 0:
        reasons.append("disc content not a p-unit")
    return reasons


def reduce_by_rebuilding(cover, p):
    """The cover over QQ rebuilt as a full BivariateCover over GF(p) from P
    mod p: its own disc_Y over GF(p)[T] and its own squarefree part,
    against which reduce_mod's coefficientwise mapping is checked."""
    F = PrimeField(p)
    points = None
    if cover.finite_branch_points is not None:
        points = tuple(F.coerce(t) for t in cover.finite_branch_points)
    return BivariateCover(
        Polynomial(PolyRing(F),
                   [c.map_coeffs(F.coerce, F) for c in cover.P.coeffs]),
        cover.tag, finite_branch_points=points, params=cover.params)


def fiber_degrees_by_powering(cover_p):
    """t -> descending factor degrees of P(t, Y) for every t in GF(p) off
    the branch locus: the per-fiber scan, one pattern_by_powering per
    fiber, that the search's keyed root sweep must agree with."""
    F = cover_p.base
    return {t: pattern_by_powering(cover_p.specialized(t))
            for t in range(F.p) if not F.is_zero(cover_p.D.eval(t))}


def count_table_builds(monkeypatch):
    """The list of the fields whose log tables are built from now on."""
    builds = []
    build = fields._build_log_tables

    def counting(F):
        builds.append(F)
        return build(F)

    monkeypatch.setattr(fields, "_build_log_tables", counting)
    return builds


def residue_degrees_by_reduction(cover, t0, p):
    """The pattern of P(t0, Y) mod p read on the cover reduced mod p:
    reduce_mod (BadPrimeError at a bad p), t0 coerced into GF(p)
    (CoverSpecError when p divides its denominator), the branch test on D
    mod p (RamifiedPointError) and fiber_pattern on the reduced cover."""
    cover_p = reduce_mod(cover, p)
    tbar = cover_p.base.coerce(t0)
    if cover_p.is_branch_point(tbar):
        raise RamifiedPointError(f"t0 = {t0} meets the branch locus mod {p}")
    return fiber_pattern(cover_p, tbar)


def certify_sn_by_reduction(cover, t0, prime_budget):
    """certify_sn as a scan of residue_degrees_by_reduction over the first
    prime_budget primes, skipping a prime of t0's denominator, a bad one
    and a ramified one, each counted in scanned; factor_z names a
    reducible fiber once the budget is spent."""
    required, witnesses = _required_types(cover.n), {}
    den, scanned = cover.base.coerce(t0).denominator, 0
    for p in primes_from(2):
        if scanned == prime_budget:
            break
        scanned += 1
        if den % p == 0:
            continue
        try:
            lam = residue_degrees_by_reduction(cover, t0, p)
        except (BadPrimeError, RamifiedPointError):
            continue
        if lam in required and lam not in witnesses:
            witnesses[lam] = p
            if len(witnesses) == len(required):
                return SnCertificate(witnesses, scanned, False)
    if len(factor_z(cover.specialized(t0))) != 1:
        return SnCertificate(
            {}, 0, True, "specialization is reducible; the Galois action is"
                         " not transitive")
    return SnCertificate(
        witnesses, scanned, True, f"budget of {prime_budget} primes"
        f" exhausted with {len(required) - len(witnesses)} types missing")


def grunwald_search_by_reverification(spec):
    """grunwald_search with the candidate loop it ran before the
    progression was shown to certify itself: the same residues (the first
    of local_solutions), trick primes, CRT and annotations, then per step
    t0 = b + kM, up to CANDIDATE_BUDGET steps, a branch test over Q and a
    re-verification of every wanted pattern on the reduced cover, either
    of which skips t0, then certify_sn without known, whose missing types
    an inconclusive certificate takes from the trick primes."""
    cover, n = spec.cover, spec.cover.n
    residues = {p: local_solutions(cover, p, lam)[0]
                for p, lam in spec.constraints}
    trick = []
    for p, lam, t in standard_trick_primes(cover, set(residues)):
        trick.append((p, lam))
        residues[p] = t
    b, M = crt([(t, p) for p, t in residues.items()])
    wanted = dict(spec.constraints) | dict(trick)

    def mismatch(t0, p, lam):
        try:
            return residue_degrees_by_reduction(cover, t0, p) != lam
        except RamifiedPointError:
            return True

    certified, skipped = [], []
    for k in range(CANDIDATE_BUDGET):
        if len(certified) == spec.max_candidates:
            break
        t0 = b + k * M
        if cover.is_branch_point(t0):
            skipped.append((t0, "branch point"))
            continue
        if any(mismatch(t0, p, lam) for p, lam in wanted.items()):
            skipped.append((t0, "pattern mismatch on re-verification"))
            continue
        cert = certify_sn(cover, t0, spec.prime_budget)
        if not cert.certified:
            witnesses = {lam: p for p, lam in trick
                         if lam in _required_types(n)}
            witnesses.update(cert.witnesses)
            cert = SnCertificate(witnesses, cert.scanned, False)
        certified.append(CertifiedPoint(t0, dict(wanted), trick[0][0], cert))
    if len(certified) < spec.max_candidates:
        raise BudgetExhaustedError(f"only {len(certified)} certified")
    c_bound, bad = constant_c(cover), bad_primes(cover)
    m0 = _addendum_m0(c_bound, len(bad))
    return ProgressionResult(
        b, M, prod(p for p, _ in trick), tuple(spec.constraints),
        tuple(trick), residues, certified, skipped, annotations={
            "constant_c": c_bound, "bad_primes": bad, "addendum_m0": m0,
            "addendum_interval": (c_bound, m0),
            "note": "existence guaranteed for primes >= constant_c; the"
                    " desk-scale search verifies small primes directly"})


def quadratic_tally_pointwise(cover):
    """r_2(t) for every t in GF(p), as a list, for a sextic A(Y) + c*T over
    an odd GF(p), solved per e1 as the tally was before it deferred its
    inverses: C(e1, e2) = sum_{i>=1} a_i h_{i-1} as a quadratic in e2 from
    h_k evaluated at e1, its roots through an inverse of 2 q2 (of q1 when
    q2 = 0; every e2 when C vanishes), and each root e2 with e1^2 - 4 e2
    a non-square by Euler's criterion counted at t = -(a0 - e2 B)/c,
    B = sum_{i>=2} a_i h_{i-2}."""
    p = cover.base.p
    a, c = cover.sweep_shape()
    root = {y * y % p: y for y in range(p)}
    tally = [0] * p
    for e1 in range(p):
        h = [[1, 0, 0], [e1, 0, 0]]  # coefficients of e2^0..e2^2
        while len(h) < 6:
            h.append([(e1 * h[-1][i] - (h[-2][i - 1] if i else 0)) % p
                      for i in range(3)])
        q0, q1, q2 = (sum(a[k + 1] * h[k][i] for k in range(6)) % p
                      for i in range(3))
        if q2:
            d = (q1 * q1 - 4 * q2 * q0) % p
            r, inv = root.get(d), pow(2 * q2, -1, p)
            e2s = () if r is None else {(r - q1) * inv % p,
                                        (-r - q1) * inv % p}
        elif q1:
            e2s = (-q0 * pow(q1, -1, p) % p,)
        else:
            e2s = () if q0 else range(p)
        for e2 in e2s:
            if pow(e1 * e1 - 4 * e2, p >> 1, p) == p - 1:
                B = sum(a[k + 2] * sum(h[k][i] * e2 ** i for i in range(3))
                        for k in range(5))
                tally[-(a[0] - e2 * B) * pow(c, -1, p) % p] += 1
    return tally


def log_tables_by_order_test(F):
    """(exp, log, zech) of an extension field F as lists, on tuple
    arithmetic alone: g is the first index from p on whose powers run
    through q - 1 distinct elements, exp lists the indices of its powers
    twice, log inverts it (-1 at 0) and zech[k] = log(1 + g^k)."""
    m = F.order - 1
    for i in range(F.p, F.order):
        g, y, exp = F.from_index(i), F.one, []
        for _ in range(m):
            exp.append(F.index(y))
            y = F.mul(g, y)
        if len(set(exp)) == m:
            break
    log = [-1] * F.order
    for k, e in enumerate(exp):
        log[e] = k
    zech = [log[F.index(F.add(F.one, F.from_index(e)))] for e in exp]
    return exp * 2, log, zech


def reader_covers():
    """Both trinomial shapes at n = 3..7, the Morse cubic Y^3 + 3Y^2 - 4Y - T,
    Y^3 - 15*T + 5 (disc content 3^3 5^2) and a quartic with
    non-integral coefficients and T^2 above Y^0."""
    covers = [make(n) for n in range(3, 8)
              for make in (make_trinomial_simple, make_trinomial_alt)]
    covers.append(make_morse_cover(Polynomial.of(QQ, [0, -4, 3, 1])))
    covers += [BivariateCover(parse_bivariate(text, QQ)) for text in (
        "Y^3 - 15*T + 5", "Y^4 + 1/6*T^2*Y^2 - 5/4*T*Y + 1/3 - T")]
    return covers


def _degrees_by_polynomials(P):
    return P.degree, max((c.degree for c in P.coeffs), default=-1)


def _one_term(P):
    """(i, j, c) when P is the one term c*T^j*Y^i, else None."""
    coeffs = P.coeffs
    if not coeffs or any(coeffs[:-1]):
        return None
    top = coeffs[-1].coeffs
    is_zero = P.domain.inner.is_zero
    if not all(is_zero(x) for x in top[:-1]):
        return None
    return len(coeffs) - 1, len(top) - 1, top[-1]


def _term_polynomial(ring, i, j, c):
    base = ring.inner
    return Polynomial(ring, [ring.zero] * i
                      + [Polynomial(base, [base.zero] * j + [c])])


def _product_by_polynomials(a, b):
    ta, tb = _one_term(a), _one_term(b)
    if ta is None and tb is None:
        return a * b
    ring = a.domain
    if ta is not None and tb is not None:
        return _term_polynomial(ring, ta[0] + tb[0], ta[1] + tb[1],
                                ring.inner.mul(ta[2], tb[2]))
    P, (i, j, c) = (a, tb) if ta is None else (b, ta)
    return P.map_coeffs(lambda q: q.shift(j).scale(c), ring).shift(i)


class _PolynomialParser:
    """The expression grammar of parsing, evaluated on Polynomial objects
    in Y over PolyRing(base): every sum, product and power is polynomial
    arithmetic, with Fraction coefficients over QQ.  It has the degree
    guards but no coefficient-size refusal."""

    def __init__(self, text, base):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.ring = ring = PolyRing(base)
        self.variables = {
            "Y": Polynomial(ring, [ring.zero, ring.one]),
            "T": Polynomial.constant(ring, Polynomial.variable(base))}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind):
        if self.peek()[0] != kind:
            return False
        self.pos += 1
        return True

    def error(self, message, tok=None):
        return _error(message, self.text, (tok or self.peek())[2])

    def number(self, tok):
        try:
            return int(tok[1])
        except ValueError:
            raise self.error(f"number of {len(tok[1])} digits is too long",
                             tok) from None

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.parse_term()
            value = value + right if op == "+" else value - right
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.accept("*"):
            right = self.parse_factor()
            (ya, ta) = _degrees_by_polynomials(value)
            (yb, tb) = _degrees_by_polynomials(right)
            if max(ya + yb, ta + tb) > MAX_EXPONENT:
                raise DegreeLimitError(
                    f"product of degree above {MAX_EXPONENT}")
            value = _product_by_polynomials(value, right)
        return value

    def parse_factor(self):
        value = self.parse_base()
        if self.accept("^"):
            tok = self.advance()
            if tok[0] != "num":
                raise self.error("exponent must be a nonnegative integer", tok)
            exponent = self.number(tok)
            if exponent > MAX_EXPONENT:
                raise self.error(
                    f"exponent {exponent} exceeds the limit {MAX_EXPONENT}",
                    tok)
            if max(_degrees_by_polynomials(value)) * exponent > MAX_EXPONENT:
                raise DegreeLimitError(f"power of degree above {MAX_EXPONENT}")
            term = _one_term(value)
            if term is None:
                value = value ** exponent
            else:
                i, j, c = term
                value = _term_polynomial(self.ring, i * exponent, j * exponent,
                                         self.ring.inner.pow(c, exponent))
        return value

    def parse_base(self):
        kind, text, _ = tok = self.peek()
        if kind == "num" or kind == "-":
            return Polynomial.constant(self.ring, self.parse_rational())
        self.advance()
        if kind == "var":
            return self.variables[text]
        if kind != "(":
            raise self.error(
                f"expected 'T', 'Y', a number or '(', found {text!r}", tok)
        if self.depth == MAX_DEPTH:
            raise self.error(f"parentheses nested deeper than {MAX_DEPTH}",
                             tok)
        self.depth += 1
        value = self.parse_expr()
        if not self.accept(")"):
            raise self.error(f"expected ')', found {self.peek()[1]!r}")
        self.depth -= 1
        return value

    def parse_rational(self):
        negative = self.accept("-")
        if negative and self.peek()[0] != "num":
            raise self.error("expected digits after '-'")
        num = self.number(self.advance())
        num = -num if negative else num
        if not self.accept("/"):
            return Fraction(num)
        negative = self.accept("-")
        tok = self.advance()
        if tok[0] != "num":
            raise self.error("expected digits in denominator", tok)
        den = self.number(tok)
        if den == 0:
            raise self.error("zero denominator", tok)
        return Fraction(num, -den if negative else den)


def parse_bivariate_by_polynomials(text, base=QQ):
    """parse_bivariate as polynomial arithmetic over base[T] (see
    _PolynomialParser)."""
    parser = _PolynomialParser(text, base)
    value = parser.parse_expr()
    if parser.peek()[0] != "end":
        raise parser.error(f"trailing input {parser.peek()[1]!r}")
    return value


def _pth_root(f):
    """g with g(X)**p = f(X), for f(X) = sum a_j X^(jp) over GF(p**e)."""
    dom, p = f.domain, f.domain.char
    root_exp = dom.order // p  # a -> a^(q/p) inverts Frobenius
    return Polynomial(dom, [dom.pow(c, root_exp) for c in f.coeffs[::p]])


def _powmod(base, e, mod):
    """base**e modulo the polynomial mod, on Polynomial objects."""
    return power(base % mod, e, lambda a, b: a * b % mod,
                 Polynomial.constant(base.domain, base.domain.one))


def ddf_by_polynomials(f, base):
    """The earlier factor.ddf: gfp.ddf over GF(p), and over GF(p^f) the
    loop h -> h^q mod the rest on Polynomial objects."""
    if isinstance(base, PrimeField):
        yield from gfp.ddf(f, base.p)
        return
    x = Polynomial.variable(base)
    rem, h, d = Polynomial(base, f), x, 0
    while rem.degree >= 2 * (d + 1):
        d += 1
        h = _powmod(h, base.order, rem)
        g = poly_gcd(h - x, rem)
        yield d, list(g.coeffs)
        if g.degree > 0:
            rem = rem.exact_div(g)
    if rem.degree > 0:
        yield rem.degree, list(rem.coeffs)


def _equal_degree(f, d, rng):
    """The earlier Cantor-Zassenhaus split on Polynomial objects."""
    n, dom = f.degree, f.domain
    if n == d:
        return [f]
    q = dom.order
    while True:
        while True:
            a = Polynomial(dom, [dom.from_index(rng.randrange(q))
                                 for _ in range(n)])
            if a.degree >= 1:
                break
        g = poly_gcd(a, f)
        if 0 < g.degree < n:
            break
        if q % 2:
            b = _powmod(a, (q ** d - 1) // 2, f)
        else:
            b = acc = a % f
            for _ in range(dom.degree * d - 1):
                b = b * b % f
                acc = (acc + b) % f
            b = acc
        g = poly_gcd(b - Polynomial.constant(dom, dom.one), f)
        if 0 < g.degree < n:
            break
    return _equal_degree(g, d, rng) + _equal_degree(f.exact_div(g), d, rng)


def split_by_polynomials(f, base, rng):
    """The earlier factor._split: the monic irreducible factors, as
    Polynomial objects, of a monic squarefree coefficient list f."""
    return [irr for d, block in ddf_by_polynomials(f, base) if len(block) > 1
            for irr in _equal_degree(Polynomial(base, block), d, rng)]


def factor_ff_by_polynomials(f, seed=0):
    """The earlier factor_ff, all on Polynomial objects: Yun's loop with
    p-th roots, the Polynomial DDF over GF(p^f) and _equal_degree."""
    if not isinstance(f.domain, (PrimeField, ExtField)) or f.is_zero:
        raise CoverSpecError("factor_ff_by_polynomials: bad input")
    rng = random.Random(seed)
    return sorted(((irr, m) for part, m in squarefree_decomposition_by_yun(f)
                   for irr in split_by_polynomials(list(part.coeffs),
                                                   f.domain, rng)),
                  key=lambda gm: (gm[0].degree, gm[0].coeffs))


def squarefree_decomposition_by_yun(f):
    """Yun's loop with no early return for a squarefree f (see
    factor.squarefree_decomposition)."""
    if f.is_zero:
        raise CoverSpecError("squarefree decomposition of zero")
    f = f.monic()
    if f.degree < 1:
        return []
    out = []
    c = poly_gcd(f, f.derivative())
    w = f.exact_div(c)
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        fac = w.exact_div(y)
        if fac.degree > 0:
            out.append((fac, i))
        w = y
        c = c.exact_div(y)
        i += 1
    if c.degree > 0:
        for g, m in squarefree_decomposition_by_yun(_pth_root(c)):
            out.append((g, m * f.domain.char))
    return out


def _linear_hensel_lift(target, factors_p, p, steps):
    """Lift monic factors of `target` from mod p to mod p**steps.

    target: int coefficient list, monic; factors_p: monic int lists with
    target = prod factors_p (mod p), pairwise coprime mod p.  Linear lift,
    one power of p per iteration.
    """
    sigmas = []
    for i, gi in enumerate(factors_p):
        others = [1]
        for j, gj in enumerate(factors_p):
            if j != i:
                others = gfp.divmod(gfp.mul(others, gj, p), gi, p)[1]
        g, s = gfp.xgcd(others, gi, p)
        if len(g) != 1:
            raise AssertionError("modular factors not pairwise coprime")
        # others * sigma = 1 mod gi
        sigmas.append(gfp.divmod(s, gi, p)[1])
    cur = [list(g) for g in factors_p]
    m = p
    for _ in range(steps - 1):
        mp = m * p
        prod_cur = [1]
        for g in cur:
            prod_cur = gfp.mul(prod_cur, g, mp)
        # target - prod(cur) is divisible by m, so mod m*p keeps all of e/m mod p
        e_bar = [c // m for c in gfp.sub(target, prod_cur, mp)]
        for sigma, gi, coeffs in zip(sigmas, factors_p, cur):
            delta = gfp.divmod(gfp.mul(sigma, e_bar, p), gi, p)[1]
            for k, c in enumerate(delta):
                coeffs[k] = (coeffs[k] + m * c) % mp
        m = mp
    return cur, m


def _symmetric(c, m):
    return c - m if c > m // 2 else c


def factor_squarefree_z_by_restarts(g, seed=0):
    """Monic irreducible rational factors of a monic squarefree g over QQ,
    unsorted: the earlier factor._factor_squarefree_z, with a linear
    Hensel lift and a recombination that goes back to subsets of size 1
    after every hit."""
    n = g.degree
    if n == 1:
        return [g]
    # integral monic model: G(X) = L^n * g(X/L) with L the coefficient lcm
    L = lcm(*[c.denominator for c in g.coeffs])
    G = []
    for i in range(n):
        v = g.coeffs[i] * L ** (n - i)
        if v.denominator != 1:
            raise AssertionError("integral model failed")
        G.append(v.numerator)
    G.append(1)

    for p in primes_from(2):  # G is monic: Gp has degree n
        Gp = [c % p for c in G]
        if len(gfp.gcd(Gp, gfp.trim([i * c % p for i, c in
                                     enumerate(Gp)][1:]), p)) == 1:
            break
    modular = sorted(split_by_polynomials(Gp, PrimeField(p),
                                          random.Random(seed)),
                     key=lambda g: (g.degree, g.coeffs))
    if len(modular) == 1:
        return [g]

    norm2 = isqrt(sum(c * c for c in G)) + 1
    bound = 2 ** n * norm2
    steps = 1
    power = p
    while power <= 2 * bound:
        power *= p
        steps += 1
    lifted, m = _linear_hensel_lift(
        G, [list(fac.coeffs) for fac in modular], p, steps)

    result_int = []
    live = list(range(len(lifted)))
    G_cur = list(G)
    while live:
        hit = False
        for size in range(1, len(live) // 2 + 1):
            for subset in combinations(live, size):
                cand = [1]
                for i in subset:
                    cand = gfp.mul(cand, lifted[i], m)
                cand = [_symmetric(c, m) for c in cand]
                try:
                    G_cur = gfp.zexact_div(G_cur, cand)
                except CoverSpecError:
                    continue
                result_int.append(cand)
                live = [i for i in live if i not in subset]
                hit = True
                break
            if hit:
                break
        if not hit:
            result_int.append(G_cur)
            break
    # map back through X -> L*X and renormalize monic
    out = []
    for H in result_int:
        d = len(H) - 1
        coeffs = [Fraction(H[i], L ** (d - i)) for i in range(d + 1)]
        out.append(Polynomial(QQ, coeffs))
    return out


def verify_twisting_lemma_by_orbits(datum, mu):
    """The earlier twist.verify_twisting_lemma, which also compares the
    sorted orbit sizes of mu and of phi.s, rebuilt as a GroupHom.

    For every section s: if the twisted action composed with s has a fixed
    point x0 in S_n, then (a) phi(s(tau)) = x0 mu(tau) x0^(-1) for all tau
    and (b) the orbit/stabilizer data of phi.s equals that of mu; both are
    verified, and every fixed point must be a conjugating witness.
    Sections without fixed points pass vacuously, as does a datum with no
    sections at all.  The sections are `datum.sections`, enumerated once
    per datum and shared by every mu verified against it.
    """
    sn = FiniteGroup.symmetric(datum.n)
    psi = twisted_action(datum, mu)
    table, inverse = sn.table, sn.inverse
    phi = [sn.index[p] for p in datum.phi.images]
    mu_idx = [sn.index[p] for p in mu.images]
    mu_orbits = sorted(len(o) for o, _ in etale_from_action(mu))
    stab_mu = [[h for h, m in enumerate(mu.images) if m(i) == i]
               for i in range(datum.n)]
    classes = datum.sections
    entries = []
    failures = 0
    for class_index, cls in enumerate(classes):
        for s in cls:
            phi_s_idx = [phi[g] for g in s.idx]
            through = [psi.images[g] for g in s.idx]
            fixed = [j for j in range(sn.order)
                     if all(t[j] == j for t in through)]
            witnesses = [sn.elements[j] for j in fixed
                         if all(p == table[table[j][m]][inverse[j]]
                                for p, m in zip(phi_s_idx, mu_idx))]
            conj_ok = len(witnesses) == len(fixed)
            etale_ok = True
            if fixed:
                # same etale algebra: stabilizers transported by omega agree
                omega = sn.elements[fixed[0]]
                phi_s = GroupHom(datum.H, None,
                                 [sn.elements[p] for p in phi_s_idx],
                                 check=False)
                stab_phi = [[h for h, p in enumerate(phi_s.images)
                             if p(omega(i)) == omega(i)]
                            for i in range(datum.n)]
                s_orbits = sorted(len(o) for o, _ in etale_from_action(phi_s))
                etale_ok = stab_mu == stab_phi and mu_orbits == s_orbits
            passed = conj_ok and etale_ok
            if not passed:
                failures += 1
            entries.append({
                "class": class_index,
                "section": tuple(s.images),
                "fixed_points": tuple(fixed),
                "witnesses": tuple(witnesses),
                "conjugacy_ok": conj_ok,
                "etale_ok": etale_ok,
                "passed": passed,
            })
    return {
        "n": datum.n,
        "sections": sum(len(c) for c in classes),
        "classes": len(classes),
        "entries": entries,
        "failures": failures,
        "vacuous": not entries,
    }


def verify_twisting_lemma_by_scan(datum, mu):
    """The earlier twist.verify_twisting_lemma, which scans all n! points
    of S_n for each section: a point is fixed when every psi(s(tau)) fixes
    it, and a witness when j mu(tau) j^(-1) = phi(s(tau)) for every tau.

    Same report as the verifier: at the first fixed point omega, phi.s
    must have at omega(i) the stabilizer mu has at i, and every fixed
    point must be a conjugating witness.
    """
    sn = FiniteGroup.symmetric(datum.n)
    psi = twisted_action(datum, mu)
    table, inverse, elements = sn.table, sn.inverse, sn.elements
    phi = [sn.index[p] for p in datum.phi.images]
    mu_idx = [sn.index[p] for p in mu.images]
    stab_mu = [[h for h, m in enumerate(mu.images) if m(i) == i]
               for i in range(datum.n)]
    classes = datum.sections
    entries = []
    failures = 0
    for class_index, cls in enumerate(classes):
        for s in cls:
            phi_s_idx = [phi[g] for g in s.idx]
            through = [psi.images[g] for g in s.idx]
            fixed = [j for j in range(sn.order)
                     if all(t[j] == j for t in through)]
            witnesses = [elements[j] for j in fixed
                         if all(p == table[table[j][m]][inverse[j]]
                                for p, m in zip(phi_s_idx, mu_idx))]
            conj_ok = len(witnesses) == len(fixed)
            etale_ok = True
            if fixed:
                # same etale algebra: stab_mu(i) = stab_phi.s(omega(i))
                etale_ok = stab_mu == [
                    [h for h, p in enumerate(phi_s_idx) if elements[p][w] == w]
                    for w in elements[fixed[0]]]
            passed = conj_ok and etale_ok
            if not passed:
                failures += 1
            entries.append({
                "class": class_index,
                "section": tuple(s.images),
                "fixed_points": tuple(fixed),
                "witnesses": tuple(witnesses),
                "conjugacy_ok": conj_ok,
                "etale_ok": etale_ok,
                "passed": passed,
            })
    return {
        "n": datum.n,
        "sections": sum(len(c) for c in classes),
        "classes": len(classes),
        "entries": entries,
        "failures": failures,
        "vacuous": not entries,
    }
