"""Command-line front end.

Every run emits a single JSON document with the fields {command,
input_echo, result, certificates, warnings, timing} to stdout or to
--out.  Exact values survive serialization: rationals are strings "a/b",
polynomials are coefficient arrays lowest degree first, partitions are
descending integer arrays, GF(p) elements are ints and GF(p^f) elements
are coordinate arrays.  The timing field is null unless --timing is
passed, so reports are byte-stable for fixed inputs and seed.

Exit codes: 0 success, 1 domain error (reported as a JSON error
document), 2 usage error.

The twist-verify command reads a finite extension datum from a text file:
`key: integers...` entries (newlines irrelevant, '#' comments) with keys
gamma_order, gamma_table (row-major multiplication table on element
indices), k (the normal subgroup as an index set), r (image table onto
the quotient's element indices; the quotient group law is derived from
it), n, phi (gamma_order rows of n image entries each) and mu (one row
per quotient element).
"""

import argparse
import json
import sys
import time
from fractions import Fraction
from math import factorial

from .census import census, density_check, realize_by_morse, realize_by_trinomial
from .covers import (
    BivariateCover, bad_primes_radical, constant_c, is_morse,
    make_morse_cover, make_trinomial_alt, make_trinomial_general,
    make_trinomial_simple)
from .errors import CoverSpecError
from .fields import QQ, finite_field
from .numutil import prime_factors
from .parsing import ParseError, parse_bivariate, pretty, univariate_in_y
from .search import SearchSpec, grunwald_search
from .specialize import Partition, etale_algebra, specialize_pattern
from .twist import ExtensionDatum, FiniteGroup, GroupHom, Perm, \
    verify_twisting_lemma


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- JSON helpers

def jval(value):
    """Serialize a raw field element."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def jpoly(p):
    return [jval(c) for c in p.coeffs]


def jpartition(lam):
    return list(lam.parts)


def jfactors(factors):
    return [{"coeffs": jpoly(g), "degree": g.degree, "multiplicity": m}
            for g, m in factors]


# ---------------------------------------------------------------- resolution

def resolve_field(spec, modulus):
    if spec is None or spec == "Q":
        if modulus:
            raise UsageError("--field-modulus needs a finite --field")
        return QQ
    try:
        q = int(spec)
    except ValueError:
        raise UsageError(f"--field must be 'Q' or a prime power, got {spec!r}")
    mod = None
    if modulus:
        try:
            mod = tuple(int(tok) for tok in modulus.split(","))
        except ValueError:
            raise UsageError("--field-modulus wants comma-separated integers")
    return finite_field(q, mod)


def resolve_cover(args, base):
    if (args.cover is None) == (args.family is None):
        raise UsageError("provide exactly one of --cover or --family")
    if args.cover is not None:
        return BivariateCover(parse_bivariate(args.cover, base))
    tag, _, params = args.family.partition(":")
    tag = tag.strip()
    if tag == "trinomial-general":
        return make_trinomial_general(*family_ints(tag, params, 4), base)
    if tag == "trinomial-simple":
        return make_trinomial_simple(*family_ints(tag, params, 1), base)
    if tag == "trinomial-alt":
        return make_trinomial_alt(*family_ints(tag, params, 1), base)
    if tag == "morse":
        M = univariate_in_y(parse_bivariate(params, base))
        return make_morse_cover(M)
    raise UsageError(f"unknown family tag {tag!r}")


def family_ints(tag, params, count):
    """The `count` comma-separated integer parameters of a family tag."""
    try:
        values = [int(tok) for tok in params.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise UsageError(f"family {tag} takes {count} integer parameter(s),"
                         f" comma separated, got {params!r}")
    return values


def parse_constraints(text):
    """Comma-separated p:{d1,d2,...} pairs; commas inside braces bind."""
    if not text:
        raise UsageError("--constraints must not be empty")
    items = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            items.append(current)
            current = ""
        else:
            current += ch
    if current:
        items.append(current)
    out = []
    for item in items:
        p_text, _, lam_text = item.partition(":")
        try:
            p = int(p_text.strip())
        except ValueError:
            raise UsageError(f"bad constraint prime {p_text!r}")
        out.append((p, Partition.parse(lam_text.strip())))
    return tuple(out)


def parse_t0(text, base):
    if text is None:
        raise UsageError("--t0 is required for specialize")
    try:
        return base.coerce(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot read t0 value {text!r}")


# ---------------------------------------------------------------- commands

def cmd_specialize(args):
    base = resolve_field(args.field, args.field_modulus)
    cover = resolve_cover(args, base)
    t0 = parse_t0(args.t0, base)
    lam = specialize_pattern(cover, t0, seed=args.seed)
    result = {
        "t0": jval(t0),
        "pattern": jpartition(lam),
        "degree": cover.n,
    }
    if base == QQ:
        desc = etale_algebra(cover, t0, seed=args.seed)
        result["factors"] = jfactors(desc.factors)
    else:
        from .factor import factor_ff
        result["factors"] = jfactors(factor_ff(cover.specialized(t0),
                                                seed=args.seed))
    return result, {}, []


def cmd_census(args):
    base = resolve_field(args.field, args.field_modulus)
    if base == QQ:
        raise UsageError("census needs a finite --field")
    cover = resolve_cover(args, base)
    report = census(cover, seed=args.seed)
    C = Fraction(args.tolerance) if args.tolerance else factorial(cover.n)
    checks = density_check(report, C)
    counts = []
    for lam in sorted(report.densities, reverse=True):
        line = checks[lam]
        counts.append({
            "partition": jpartition(lam),
            "count": report.count(lam),
            "density": str(report.densities[lam]),
            "deviation": str(report.deviations[lam]),
            "passed": line["passed"],
            "extrapolated": line["extrapolated"],
        })
    result = {
        "q": report.q,
        "cover": report.cover,
        "counts": counts,
        "excluded": report.excluded,
        "all_realized": report.all_realized,
        "constant_bound": report.constant_bound,
        "bound_met": report.bound_met,
        "tolerance_constant": str(C),
    }
    return result, {}, []


def cmd_search(args):
    base = resolve_field(args.field, args.field_modulus)
    if base != QQ:
        raise UsageError("search runs over the rationals; use --field Q")
    cover = resolve_cover(args, base)
    constraints = parse_constraints(args.constraints)
    spec = SearchSpec(
        cover, constraints,
        max_candidates=args.max_candidates,
        prime_budget=args.prime_budget,
        seed=args.seed)
    res = grunwald_search(spec)
    certified = []
    for point in res.certified:
        certified.append({
            "t0": point.t0,
            "patterns": {str(p): jpartition(lam)
                         for p, lam in sorted(point.patterns.items())},
            "irreducibility_prime": point.irreducibility_prime,
            "sn_witnesses": [[jpartition(lam), p] for lam, p in
                             sorted(point.sn_certificate.witnesses.items(),
                                    reverse=True)],
        })
    result = {
        "b": res.b,
        "M": res.M,
        "beta": res.beta,
        "residues": {str(p): r for p, r in sorted(res.residues.items())},
        "constraints": [[p, jpartition(lam)] for p, lam in res.constraints],
        "trick_primes": [[p, jpartition(lam)] for p, lam in res.trick_primes],
        "certified": certified,
        "skipped": [[t, reason] for t, reason in res.skipped],
        "annotations": {
            "constant_c": res.annotations["constant_c"],
            "bad_primes": res.annotations["bad_primes"],
            "addendum_m0": res.annotations["addendum_m0"],
            "note": res.annotations["note"],
        },
    }
    certificates = {
        "irreducibility": "pattern {n} at the first auxiliary prime: "
                          "irreducible mod p implies irreducible over Q",
        "symmetric_group": "witnessed cycle types generate S_n "
                           "(n-cycle, (n-1)-cycle, transposition)",
    }
    return result, certificates, []


def cmd_family(args):
    base = resolve_field(args.field, args.field_modulus)
    if args.family is None:
        raise UsageError("family command needs --family")
    cover = resolve_cover(args, base)
    result = {
        "family": cover.tag.value,
        "params": cover.params,
        "accepted": True,
        "polynomial": pretty(cover.P),
        "degree": cover.n,
        "branch_locus_coeffs": jpoly(cover.D),
        "infinity_branched": cover.infinity_branched,
        "finite_branch_points": (
            None if cover.finite_branch_points is None
            else [jval(t) for t in cover.finite_branch_points]),
        "branch_point_count": cover.branch_point_count,
        "constant_c": constant_c(cover),
    }
    if base == QQ:
        rad = bad_primes_radical(cover)
        result["bad_primes_radical"] = rad
        result["bad_primes"] = prime_factors(rad)
    return result, {}, []


def cmd_morse_check(args):
    base = resolve_field(args.field, args.field_modulus)
    if args.cover is None:
        raise UsageError("morse-check needs --cover with a polynomial in Y")
    M = univariate_in_y(parse_bivariate(args.cover, base))
    verdict, witness = is_morse(M, with_witness=True)
    result = {
        "polynomial": jpoly(M),
        "morse": verdict,
        "witness": {
            "critical_resultant": jpoly(witness["critical_resultant"]),
            "repeated_part": jpoly(witness["repeated_part"]),
        },
    }
    return result, {}, []


def cmd_realize_ff(args):
    base = resolve_field(args.field, args.field_modulus)
    if base == QQ:
        raise UsageError("realize-ff needs a finite --field")
    if (args.n is None) == (args.cover is None):
        raise UsageError("provide exactly one of --n (trinomial) or"
                         " --cover (Morse polynomial)")
    if args.n is not None:
        res = realize_by_trinomial(args.n, base)
        kind = "trinomial"
    else:
        M = univariate_in_y(parse_bivariate(args.cover, base))
        res = realize_by_morse(M)
        kind = "morse"
    result = {
        "kind": kind,
        "b": jval(res.b),
        "bound": res.bound,
        "bound_met": res.bound_met,
        "attempts": res.attempts,
    }
    return result, {}, []


def load_extension_datum(path):
    tokens = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.split("#", 1)[0]
                tokens.extend(line.split())
    except OSError as exc:
        raise UsageError(f"cannot read datum file {path!r}: {exc.strerror}")
    except UnicodeDecodeError:
        raise UsageError(f"datum file {path!r} is not UTF-8 text")
    data = {}
    key = None
    for tok in tokens:
        if tok.endswith(":"):
            key = tok[:-1]
            data[key] = []
        elif key is None:
            raise CoverSpecError(f"value {tok!r} before any key")
        else:
            try:
                data[key].append(int(tok))
            except ValueError:
                raise CoverSpecError(
                    f"value {tok!r} of '{key}:' is not an integer") from None
    for needed in ("gamma_order", "gamma_table", "k", "r", "n", "phi", "mu"):
        if needed not in data:
            raise CoverSpecError(f"datum file is missing '{needed}:'")
    for scalar in ("gamma_order", "n"):
        if len(data[scalar]) != 1:
            raise CoverSpecError(f"'{scalar}:' must hold exactly one integer")
    order = data["gamma_order"][0]
    table_flat = data["gamma_table"]
    if len(table_flat) != order * order:
        raise CoverSpecError("gamma_table must hold order^2 entries")
    table = [table_flat[i * order:(i + 1) * order] for i in range(order)]
    gamma = FiniteGroup.from_table(table, name="gamma")
    r_images = data["r"]
    if len(r_images) != order:
        raise CoverSpecError("r image table length differs from gamma_order")
    h_count = len(set(r_images))
    if sorted(set(r_images)) != list(range(h_count)):
        raise CoverSpecError("r images must cover 0..h-1")
    reps = [r_images.index(h) for h in range(h_count)]

    def h_op(a, b):
        return r_images[table[reps[a]][reps[b]]]

    H = FiniteGroup(range(h_count), h_op, r_images[gamma.identity],
                    name="quotient")
    r = GroupHom(gamma, H, r_images)
    n = data["n"][0]
    phi_flat = data["phi"]
    if len(phi_flat) != order * n:
        raise CoverSpecError("phi must hold gamma_order * n entries")
    phi = GroupHom(gamma, None,
                   [Perm(phi_flat[i * n:(i + 1) * n]) for i in range(order)])
    mu_flat = data["mu"]
    if len(mu_flat) != h_count * n:
        raise CoverSpecError("mu must hold h * n entries")
    mu = GroupHom(H, None,
                  [Perm(mu_flat[i * n:(i + 1) * n]) for i in range(h_count)])
    datum = ExtensionDatum(gamma, data["k"], r, phi)
    return datum, mu


def cmd_twist_verify(args):
    if args.datum is None:
        raise UsageError("twist-verify needs --datum FILE")
    datum, mu = load_extension_datum(args.datum)
    report = verify_twisting_lemma(datum, mu)
    entries = []
    for entry in report["entries"]:
        entries.append({
            "class": entry["class"],
            "section": list(entry["section"]),
            "fixed_points": list(entry["fixed_points"]),
            "witnesses": [list(w.images) for w in entry["witnesses"]],
            "conjugacy_ok": entry["conjugacy_ok"],
            "etale_ok": entry["etale_ok"],
            "passed": entry["passed"],
        })
    result = {
        "gamma_order": datum.gamma.order,
        "quotient_order": datum.H.order,
        "n": report["n"],
        "sections": report["sections"],
        "classes": report["classes"],
        "failures": report["failures"],
        "vacuous": report["vacuous"],
        "entries": entries,
    }
    return result, {}, []


COMMANDS = {
    "specialize": cmd_specialize,
    "census": cmd_census,
    "search": cmd_search,
    "family": cmd_family,
    "morse-check": cmd_morse_check,
    "realize-ff": cmd_realize_ff,
    "twist-verify": cmd_twist_verify,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coverspec",
        description="exact specialization toolkit for covers of the line")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--field", default=None,
                       help="Q (default) or a prime power q")
        p.add_argument("--field-modulus", default=None,
                       help="defining polynomial of GF(p^f), low coefficients"
                            " first, comma separated")
        p.add_argument("--cover", default=None,
                       help="bivariate polynomial expression in T and Y")
        p.add_argument("--family", default=None,
                       help="tag:params, e.g. trinomial-simple:3 or"
                            " trinomial-general:3,1,1,2 or morse:Y^3-Y")
        p.add_argument("--constraints", default=None,
                       help="comma-separated p:{d1,d2,...} pairs")
        p.add_argument("--t0", default=None, help="specialization point")
        p.add_argument("--n", type=int, default=None,
                       help="degree for realize-ff trinomials")
        p.add_argument("--datum", default=None,
                       help="extension datum file for twist-verify")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--max-candidates", type=int, default=3)
        p.add_argument("--prime-budget", type=int, default=200)
        p.add_argument("--tolerance", default=None,
                       help="density tolerance constant, a rational")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing (breaks byte"
                            " stability)")
    return parser


def echo_of(args):
    echo = {}
    for key in ("field", "field_modulus", "cover", "family", "constraints",
                "t0", "n", "datum", "seed", "max_candidates", "prime_budget",
                "tolerance"):
        value = getattr(args, key)
        if value is not None:
            echo[key] = value
    return echo


def emit(document, out_path):
    text = json.dumps(document, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def run(args):
    """Execute one parsed command; returns the process exit code."""
    started = time.monotonic()
    try:
        result, certificates, warnings = COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CoverSpecError as exc:
        document = {
            "command": args.command,
            "input_echo": echo_of(args),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        emit(document, args.out)
        return 1
    elapsed = time.monotonic() - started
    document = {
        "command": args.command,
        "input_echo": echo_of(args),
        "result": result,
        "certificates": certificates,
        "warnings": warnings,
        "timing": {"seconds": round(elapsed, 6)} if args.timing else None,
    }
    emit(document, args.out)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
