"""The four benchmark workloads: seeded inputs, the call into coverspec,
independent output checks and a digest for the exact reference outputs.

A workload hands out its jobs in rounds.  Every round has the same mix of
job types, so a run that measures whole rounds measures the same mix
whatever the seed; only the parameters inside a type are drawn from the
seed.  Inputs never repeat within a run, so a cache keyed on inputs cannot
turn repeats into hits.  The package receives only the generated inputs:
the generators below use plain ints and the brute-force helpers in
oracles.py, except for the twist family, whose groups and representations
come from coverspec's own constructors.

Every call goes through the module object (`module.function`) at call
time, so the tracer's wrappers apply.  Only names the package's own tests
import are used, and no `seed` or `chunk_size` argument is passed.
"""

import contextlib
import hashlib
import importlib
import io
import json
import random
from functools import cache
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, prod

import oracles


def _module(name):
    return importlib.import_module("coverspec." + name)


def _digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@cache
def _primes(lo, hi):
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for d in range(2, int(hi ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, hi, d)))
    return [p for p in range(lo, hi) if sieve[p]]


@cache
def _split_parts(family, n, p):
    return sorted(oracles.split_parts_for(_trinomial_F(family, n), n, p))


def _pattern(n, ones):
    """The partition of n with `ones` parts 1 and one larger part (if any)."""
    return [n - ones] + [1] * ones if ones < n else [1] * n


def _trinomial_F(family, n):
    """F with P = F(Y) - T, integer coefficients low first."""
    F = [0] * (n + 1)
    F[n] = 1
    F[1 if family == "trinomial-simple" else n - 1] -= 1
    return F


def _morse_F(rng, n, p):
    """Monic M with M' = n * prod(Y - c_i), distinct c_i in GF(p) and
    distinct critical values: a Morse polynomial by construction."""
    field = oracles.FieldModel(p)
    while True:
        crit = rng.sample(range(p), n - 1)
        dM = oracles.poly_product([[-c, 1] for c in crit],
                                  reduce=lambda c: c % p)
        M = [rng.randrange(p)] + [
            n * c * pow(k + 1, p - 2, p) % p for k, c in enumerate(dM)]
        values = {field.evaluate(M, c) for c in crit}
        if len(values) == n - 1:
            return M


class Workload:
    name = ""
    single_pass = False

    def rounds(self, seed):
        """Deterministic stream of rounds (lists of jobs) for this seed."""
        rng = random.Random(f"{self.name}:{seed}")
        seen = set()
        for r in range(self.max_rounds):
            jobs = []
            for slot in range(self.slots):
                for _ in range(1000):
                    job = self.make_job(rng, r, slot)
                    if job["key"] not in seen:
                        break
                else:
                    raise RuntimeError(f"{self.name}: distinct inputs ran out")
                seen.add(job["key"])
                jobs.append(job)
            yield jobs

    def digest(self, job, output):
        """Short hash of the part of an output the reference pins."""
        return _digest(self.summary(job, output))


# ---------------------------------------------------------------- census

class CensusWorkload(Workload):
    """census() over GF(q): trinomial-simple, trinomial-alt and Morse covers
    with n = 3..6 over primes q in [1000, 1400), plus one Morse cover of
    degree 3 over GF(7^3) per round."""

    name = "census"
    max_rounds = 100
    slots = 5
    families = ("trinomial-simple", "trinomial-alt", "morse")
    prime_band = _primes(1000, 1400)
    ext_field = (7, 3)

    def make_job(self, rng, r, slot):
        if slot == 4:
            p, f, n, family = self.ext_field + (3, "morse")
        else:
            p, f, n = rng.choice(self.prime_band), 1, slot + 3
            family = self.families[(slot + r) % 3]
        F = (_morse_F(rng, n, p) if family == "morse"
             else _trinomial_F(family, n))
        return {"key": (family, p, f, tuple(F)), "family": family, "n": n,
                "p": p, "f": f, "F": F, "units": p ** f}

    def run(self, job):
        fields, covers = _module("fields"), _module("covers")
        p, f, n = job["p"], job["f"], job["n"]
        base = fields.finite_field(p ** f)
        if job["family"] == "morse":
            M = _module("poly").Polynomial(
                base, [base.coerce(c) for c in job["F"]])
            cover = covers.make_morse_cover(M)
        elif job["family"] == "trinomial-simple":
            cover = covers.make_trinomial_simple(n, base)
        else:
            cover = covers.make_trinomial_alt(n, base)
        return _module("census").census(cover)

    def summary(self, job, report):
        return {"q": report.q, "excluded": report.excluded,
                "counts": sorted([list(lam.parts), c]
                                 for lam, c in report.counts.items())}

    def check(self, job, report):
        s = self.summary(job, report)
        q = job["p"] ** job["f"]
        ramified, roots = oracles.fibre_root_census(
            job["F"], oracles.FieldModel(job["p"], job["f"]))
        problems = []
        if s["q"] != q:
            problems.append(f"q = {s['q']}, expected {q}")
        if sum(c for _, c in s["counts"]) + s["excluded"] != q:
            problems.append("counts plus excluded points differ from q")
        if s["excluded"] != ramified:
            problems.append(f"excluded {s['excluded']}, brute force {ramified}")
        ones = sum(parts.count(1) * c for parts, c in s["counts"])
        if ones != roots:
            problems.append(f"1-parts {ones}, brute-force roots {roots}")
        if any(sum(parts) != job["n"] for parts, _ in s["counts"]):
            problems.append("a pattern does not sum to n")
        return problems


# ---------------------------------------------------------------- search

class SearchWorkload(Workload):
    """grunwald_search over QQ on trinomial-simple/alt covers, n = 3..7, with
    1 to 3 prescribed (p, lambda) pairs at primes below 110.  Each lambda is
    {1^n}, {2,1^(n-2)} or {3,1^(n-3)}, whose residues are found (and later
    re-verified) by brute-force root counts."""

    name = "search"
    max_rounds = 60
    slots = 5
    candidates = 3  # SearchSpec's default max_candidates
    # prescribed pairs per slot (n = 3..7); fixed so that the jobs of one
    # degree cost about the same in every round
    pair_counts = (3, 2, 1, 3, 2)

    def make_job(self, rng, r, slot):
        n = slot + 3
        family = ("trinomial-simple", "trinomial-alt")[(slot + r) % 2]
        count = self.pair_counts[slot]
        constraints = []
        for p in rng.sample(_primes(n + 1, 110), len(_primes(n + 1, 110))):
            options = _split_parts(family, n, p)
            if options:
                constraints.append((p, rng.choice(options)))
            if len(constraints) == count:
                break
        constraints.sort()
        return {"key": (family, n, tuple(constraints)), "family": family,
                "n": n, "constraints": constraints,
                "units": self.candidates}

    def run(self, job):
        covers, search = _module("covers"), _module("search")
        Partition = _module("specialize").Partition
        n = job["n"]
        make = (covers.make_trinomial_simple
                if job["family"] == "trinomial-simple"
                else covers.make_trinomial_alt)
        spec = search.SearchSpec(make(n), tuple(
            (p, Partition(_pattern(n, ones))) for p, ones in job["constraints"]))
        return search.grunwald_search(spec)

    def summary(self, job, res):
        return {"b": res.b, "M": res.M,
                "t0": [pt.t0 for pt in res.certified],
                "trick": [[p, list(lam.parts)] for p, lam in res.trick_primes]}

    def check(self, job, res):
        F, n = _trinomial_F(job["family"], job["n"]), job["n"]
        problems = []
        if len(res.certified) < self.candidates:
            problems.append(f"{len(res.certified)} certified points")
        if res.M % prod(p for p, _ in job["constraints"]):
            problems.append("M is not divisible by the prescribed primes")
        for pt in res.certified:
            if (pt.t0 - res.b) % res.M:
                problems.append(f"t0 = {pt.t0} is off the progression")
            for p, ones in job["constraints"]:
                roots, simple = oracles.root_profile(F, pt.t0, p)
                if roots != ones or not simple:
                    problems.append(f"t0 = {pt.t0} has {roots} roots mod {p},"
                                    f" expected {ones} simple ones")
                if list(pt.patterns[p].parts) != _pattern(n, ones):
                    problems.append(f"t0 = {pt.t0}: pattern mod {p} differs")
        return problems


# ---------------------------------------------------------------- twist

class TwistWorkload(Workload):
    """semidirect_extension + verify_twisting_lemma for every mu over the
    exhaustive family: n in {2, 3} over every H of order <= 6 (C1..C6, V4,
    S3) and n = 4 over C1, C2, C3.  The family is fixed; the seed only
    permutes the job order, and a run is one pass over it."""

    name = "twist"
    single_pass = True

    def rounds(self, seed):
        twist = _module("twist")
        G = twist.FiniteGroup
        small = [G.cyclic(k) for k in range(1, 7)] + [G.klein_four(),
                                                      G.symmetric(3)]
        jobs = []
        for n, groups in ((2, small), (3, small), (4, small[:3])):
            for H in groups:
                mus = self.mus(twist, H, n)
                for i, a_hom in enumerate(twist.all_perm_reps(H, n)):
                    jobs.append({"key": (n, H.name, i), "n": n, "H": H,
                                 "a_hom": a_hom, "mus": mus,
                                 "units": len(mus)})
        random.Random(f"{self.name}:{seed}").shuffle(jobs)
        yield jobs

    @staticmethod
    def mus(twist, H, n):
        """Galois representations of every etale algebra of degree n."""
        subgroups = H.subgroups()
        out = []
        for count in range(1, n + 1):
            for tup in combinations_with_replacement(range(len(subgroups)),
                                                     count):
                if sum(H.order // len(subgroups[i]) for i in tup) == n:
                    out.append(twist.galois_rep_of_algebra(
                        H, [subgroups[i] for i in tup], n=n))
        return out

    def run(self, job):
        twist = _module("twist")
        datum = twist.semidirect_extension(job["n"], job["H"], job["a_hom"])
        return [twist.verify_twisting_lemma(datum, mu) for mu in job["mus"]]

    def summary(self, job, reports):
        return [[rep["sections"], rep["classes"], rep["failures"],
                 sum(1 for e in rep["entries"] if e["fixed_points"])]
                for rep in reports]

    def check(self, job, reports):
        problems = []
        if len(reports) != len(job["mus"]):
            problems.append("missing reports")
        for rep in reports:
            if rep["failures"]:
                problems.append(f"{rep['failures']} twisting failures")
            if rep["n"] != job["n"]:
                problems.append("report degree differs")
        return problems


# ---------------------------------------------------------------- cli

class CliWorkload(Workload):
    """One in-process `coverspec.cli.main(argv)` call per command, output
    captured.  Each round: 3 specialize over QQ on parsed covers of T-degree
    <= 4, 2 specialize over GF(p), 1 over GF(p^f), family, morse-check,
    realize-ff, a small search, and 2 documented domain errors (exit 1)."""

    name = "cli"
    max_rounds = 600
    kinds = ("spec-q", "spec-q", "spec-q", "spec-p", "spec-p", "spec-ext",
             "family", "morse", "realize", "search", "err-family",
             "err-ramified")
    slots = len(kinds)
    ext_fields = [(p, 3) for p in (5, 7, 11, 13)] + [
        (p, 2) for p in _primes(17, 100)]

    def make_job(self, rng, r, slot):
        job = getattr(self, "_make_" + self.kinds[slot].replace("-", "_"))(rng)
        job.update(kind=self.kinds[slot], key=tuple(job["argv"]), units=1)
        job.setdefault("exit", 0)
        return job

    def _make_spec_q(self, rng):
        while True:
            n = rng.randint(2, 4)
            rows = {i: [rng.randint(-5, 5) if rng.random() < 0.6 else 0
                        for _ in range(rng.randint(1, 5))] for i in range(n)}
            if not any(any(row[1:]) for row in rows.values()):
                continue
            t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            fibre = [sum(Fraction(c) * t0 ** j for j, c in enumerate(rows[i]))
                     for i in range(n)] + [1]
            if oracles.squarefree_over_q(fibre):
                break
        terms = ["Y^%d" % n]
        for i in range(n - 1, -1, -1):
            for j, c in enumerate(rows[i]):
                if c:
                    mono = "*".join(x for x in (
                        "T^%d" % j if j else "", "Y^%d" % i if i else "") if x)
                    terms.append(("- " if c < 0 else "+ ")
                                 + ("%d*%s" % (abs(c), mono) if mono
                                    else str(abs(c))))
        argv = ["specialize", "--cover", " ".join(terms), f"--t0={t0}"]
        return {"argv": argv, "fibre": fibre, "n": n}

    def _make_spec_p(self, rng):
        n = rng.randint(3, 6)
        p = rng.choice(_primes(100, 10000))
        t0 = rng.randrange(p)
        family = rng.choice(("trinomial-simple", "trinomial-alt"))
        F = _trinomial_F(family, n)
        ok = oracles.squarefree_mod_p([F[0] - t0] + F[1:], p)
        return {"argv": ["specialize", "--field", str(p), "--family",
                         f"{family}:{n}", "--t0", str(t0)],
                "F": F, "p": p, "t0": t0, "n": n, "exit": 0 if ok else 1}

    def _make_spec_ext(self, rng):
        p, f = rng.choice(self.ext_fields)
        t0 = rng.randrange(p)
        F = _trinomial_F("trinomial-simple", 3)
        ok = oracles.squarefree_mod_p([F[0] - t0] + F[1:], p)
        return {"argv": ["specialize", "--field", str(p ** f), "--family",
                         "trinomial-simple:3", "--t0", str(t0)],
                "F": F, "p": p, "f": f, "t0": t0, "n": 3,
                "exit": 0 if ok else 1}

    def _make_family(self, rng):
        n = rng.randint(3, 9)
        m = rng.choice([m for m in range(1, n) if gcd(m, n) == 1])
        s = next(s for s in range(1, n + 1) if (s * (n - m)) % n == 1)
        s += n * rng.randint(0, 3)
        r = (s * (n - m) - 1) // n
        if r < 1:
            s, r = s + n, r + n - m
        argv = ["family", "--family", f"trinomial-general:{n},{m},{r},{s}"]
        if rng.random() < 0.5:
            # disc_Y = T^(m-1) (n^n T^(s(n-m)) - m^m (n-m)^(n-m) T^(rn)) does
            # not vanish when p is prime to m n (n-m)
            p = rng.choice([p for p in _primes(5, 1000) if m * n * (n - m) % p])
            argv += ["--field", str(p)]
        return {"argv": argv, "n": n}

    def _make_morse(self, rng):
        if rng.random() < 0.3:
            k = rng.randint(-6, 6)
            a, b = 3 * k, 3 * k * k  # a^2 = 3b: not Morse
        else:
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        c = rng.randint(-9, 9)
        return {"argv": ["morse-check", "--cover",
                         f"Y^3 + ({a})*Y^2 + ({b})*Y + ({c})"],
                "morse": a * a != 3 * b}

    def _make_realize(self, rng):
        k = rng.choice((2, 3))
        p = rng.choice(_primes(5, 4000))
        return {"argv": ["realize-ff", "--field", str(p), "--n", str(k)],
                "p": p, "k": k}

    def _make_search(self, rng):
        family = rng.choice(("trinomial-simple", "trinomial-alt"))
        pairs = []
        for p in sorted(rng.sample(_primes(5, 60), rng.randint(1, 2))):
            options = _split_parts(family, 3, p)
            if options:
                pairs.append((p, rng.choice(options)))
        text = ",".join("%d:{%s}" % (p, ",".join(map(str, _pattern(3, ones))))
                        for p, ones in pairs)
        return {"argv": ["search", "--family", f"{family}:3",
                         "--constraints", text],
                "F": _trinomial_F(family, 3), "pairs": pairs}

    def _make_err_family(self, rng):
        n = rng.randint(3, 400)
        p = rng.choice(oracles.prime_factors(n * (n - 1)))
        return {"argv": ["family", "--field", str(p), "--family",
                         f"trinomial-simple:{n}"], "exit": 1}

    def _make_err_ramified(self, rng):
        n = rng.randint(3, 8)
        p = rng.choice(_primes(n + 1, 5000))
        return {"argv": ["specialize", "--field", str(p), "--family",
                         f"trinomial-alt:{n}", "--t0", "0"], "exit": 1}

    def run(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = _module("cli").main(list(job["argv"]))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    def summary(self, job, output):
        code, text = output
        doc = json.loads(text) if text.strip() else {}
        if code == 0:
            return [code, doc.get("result")]
        return [code, doc.get("error", {}).get("type")]

    def check(self, job, output):
        code, text = output
        if code != job["exit"]:
            return [f"exit code {code}, expected {job['exit']}"]
        if code:
            return []
        result = json.loads(text)["result"]
        return getattr(self, "_check_" + job["kind"].replace("-", "_"))(
            job, result)

    def _check_spec_q(self, job, result):
        factors = [[Fraction(c) for c in g["coeffs"]] for g in result["factors"]
                   for _ in range(g["multiplicity"])]
        problems = []
        if oracles.poly_product(factors) != job["fibre"]:
            problems.append("factors do not multiply back to the fibre")
        if sorted(len(g) - 1 for g in factors) != sorted(result["pattern"]):
            problems.append("pattern differs from the factor degrees")
        return problems

    def _check_spec_p(self, job, result):
        roots, _ = oracles.root_profile(job["F"], job["t0"], job["p"])
        if result["pattern"].count(1) != roots or sum(result["pattern"]) != job["n"]:
            return [f"pattern {result['pattern']} with {roots} roots mod p"]
        return []

    def _check_spec_ext(self, job, result):
        roots, _ = oracles.root_profile(job["F"], job["t0"], job["p"])
        expected = oracles.pattern_over_extension(
            oracles.cubic_pattern_from_roots(roots), job["f"])
        if result["pattern"] != expected:
            return [f"pattern {result['pattern']}, expected {expected}"]
        return []

    def _check_family(self, job, result):
        problems = []
        if result["degree"] != job["n"] or result["family"] != "trinomial-general":
            problems.append("family echo differs")
        if "bad_primes" not in result:  # over GF(p)
            return problems
        if result["bad_primes"] != oracles.prime_factors(
                result["bad_primes_radical"]):
            problems.append("bad primes are not the radical's prime factors")
        if any(result["bad_primes_radical"] % q for q in range(2, job["n"] + 1)
               if oracles.is_prime(q)):
            problems.append("a prime up to n is missing from the bad primes")
        return problems

    def _check_morse(self, job, result):
        if result["morse"] != job["morse"]:
            return [f"morse verdict {result['morse']}, expected {job['morse']}"]
        return []

    def _check_realize(self, job, result):
        p, k = job["p"], job["k"]
        hit = {(y - pow(y, k, p)) % p for y in range(p)}  # b with a root
        expected = min(b for b in range(p) if b not in hit)
        if result["b"] != expected or result["attempts"] != expected + 1:
            return [f"b = {result['b']}, expected {expected}"]
        return []

    def _check_search(self, job, result):
        problems = []
        if len(result["certified"]) < 3:
            problems.append("fewer than 3 certified points")
        for point in result["certified"]:
            for p, ones in job["pairs"]:
                roots, simple = oracles.root_profile(job["F"], point["t0"], p)
                if roots != ones or not simple:
                    problems.append(f"t0 = {point['t0']}: {roots} roots mod {p}")
        return problems


WORKLOADS = {w.name: w for w in (CensusWorkload(), SearchWorkload(),
                                 TwistWorkload(), CliWorkload())}
