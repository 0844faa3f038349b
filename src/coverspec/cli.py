"""Command-line front end.

Every run emits a single JSON document with the fields {command,
input_echo, result, certificates, warnings, timing} to stdout or to
--out.  Commands put raw values in their results and one encoder,
`encode`, decides every JSON form, so exact values survive
serialization: rationals are strings "a/b" and polynomials coefficient
arrays lowest degree first; partitions (descending parts), permutations
(images) and GF(p^f) elements (coordinates) are tuples, hence arrays,
and GF(p) elements are ints.  The timing field is null unless --timing
is passed, so reports are byte-stable for fixed inputs.  --seed only
picks the random splitting inside specialize's factorization and never
changes a result; it is echoed like every other input.

Exit codes: 0 success, 1 domain error (reported as a JSON error
document), 2 usage error.

The twist-verify command reads a finite extension datum from a text file:
`key: integers...` entries (newlines irrelevant, '#' comments) with keys
gamma_order, gamma_table (row-major multiplication table on element
indices), k (the normal subgroup as an index set), r (image table onto
the quotient's element indices; the quotient group law is derived from
it), n, phi (gamma_order rows of n image entries each) and mu (one row
per quotient element), each key once.
"""

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from math import prod

from .census import census, density_check, realize_by_morse, realize_by_trinomial
from .covers import (
    BivariateCover, bad_primes, constant_c, is_morse,
    make_morse_cover, make_trinomial_alt, make_trinomial_general,
    make_trinomial_simple)
from .errors import CoverSpecError
from .fields import QQ, finite_field
from .numutil import past_digit_limit
from .parsing import ParseError, parse_bivariate, pretty, univariate_in_y
from .poly import Polynomial
from .search import MAX_CANDIDATES, PRIME_BUDGET, SearchSpec, grunwald_search
from .specialize import EtaleAlgebraDescriptor, Partition, fiber_factors
from .twist import ExtensionDatum, FiniteGroup, GroupHom, Perm, \
    verify_twisting_lemma


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- resolution

def resolve_field(spec, modulus):
    if spec is None or spec == "Q":
        if modulus is not None:
            raise UsageError("--field-modulus needs a finite --field")
        return QQ
    try:
        q = int(spec)
    except ValueError:
        raise UsageError(f"--field must be 'Q' or a prime power, got {spec!r}")
    mod = None
    if modulus is not None:
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
        return make_morse_cover(univariate_in_y(parse_bivariate(params, base)))
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


def read_rational(text, message):
    """Fraction(text), or UsageError(message) if text is no rational or a
    term of its value passes the int-string digit limit k.  With m read
    from text, a nonzero m * 10**e has a term of more than |e| - len(text)
    digits, so 10**e is built only for |e| <= k + len(text)."""
    exp = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    k = sys.get_int_max_str_digits()
    try:
        q = Fraction(text if exp is None else text[:exp.start(1)] + "0")
        if exp and q:
            e = int(exp[1])
            if k and abs(e) > k + len(text):
                raise ValueError(text)
            q *= Fraction(10) ** e
    except (ValueError, ZeroDivisionError):
        raise UsageError(message) from None
    if past_digit_limit(max(abs(q.numerator), q.denominator)):
        raise UsageError(message)
    return q


def parse_t0(text, base):
    if text is None:
        raise UsageError("--t0 is required for specialize")
    return base.coerce(read_rational(text, f"cannot read t0 value {text!r}"))


def parse_tolerance(text):
    message = f"--tolerance must be a non-negative rational, got {text!r}"
    C = read_rational(text, message)
    if C < 0:
        raise UsageError(message)
    return C


# ---------------------------------------------------------------- commands

def cmd_specialize(args):
    base = resolve_field(args.field, args.field_modulus)
    cover = resolve_cover(args, base)
    t0 = parse_t0(args.t0, base)
    desc = EtaleAlgebraDescriptor(fiber_factors(cover, t0, seed=args.seed),
                                  base)
    result = {
        "t0": t0,
        "pattern": desc.pattern(),
        "degree": cover.n,
        "factors": [{"coeffs": g, "degree": g.degree, "multiplicity": m}
                    for g, m in desc.factors],
    }
    return result, {}, []


def cmd_census(args):
    base = resolve_field(args.field, args.field_modulus)
    if base == QQ:
        raise UsageError("census needs a finite --field")
    C = None if args.tolerance is None else parse_tolerance(args.tolerance)
    cover = resolve_cover(args, base)
    report = census(cover)
    checks = density_check(report, C)
    counts = []
    for lam in sorted(report.densities, reverse=True):
        line = checks[lam]
        counts.append({
            "partition": lam,
            "count": report.count(lam),
            "density": report.densities[lam],
            "deviation": report.deviations[lam],
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
        "tolerance_constant": next(iter(checks.values()))[
            "tolerance_constant"],
    }
    return result, {}, []


def cmd_search(args):
    base = resolve_field(args.field, args.field_modulus)
    if base != QQ:
        raise UsageError("search runs over the rationals; use --field Q")
    for flag, value in (("--max-candidates", args.max_candidates),
                        ("--prime-budget", args.prime_budget)):
        if value < 1:
            raise UsageError(f"{flag} must be a positive integer")
    cover = resolve_cover(args, base)
    constraints = parse_constraints(args.constraints)
    spec = SearchSpec(
        cover, constraints,
        max_candidates=args.max_candidates,
        prime_budget=args.prime_budget)
    res = grunwald_search(spec)
    certified = [{
        "t0": point.t0,
        "patterns": dict(sorted(point.patterns.items())),
        "irreducibility_prime": point.irreducibility_prime,
        "sn_witnesses": sorted(point.sn_certificate.witnesses.items(),
                               reverse=True),
    } for point in res.certified]
    result = {
        "b": res.b,
        "M": res.M,
        "beta": res.beta,
        "residues": dict(sorted(res.residues.items())),
        "constraints": res.constraints,
        "trick_primes": res.trick_primes,
        "certified": certified,
        "skipped": res.skipped,
        "annotations": {key: res.annotations[key] for key in (
            "constant_c", "bad_primes", "addendum_m0", "note")},
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
        "branch_locus_coeffs": cover.D,
        "infinity_branched": cover.infinity_branched,
        "finite_branch_points": cover.finite_branch_points,
        "branch_point_count": cover.branch_point_count,
        "constant_c": constant_c(cover),
    }
    if base == QQ:
        bad = bad_primes(cover)
        result["bad_primes_radical"] = prod(bad)
        result["bad_primes"] = bad
    return result, {}, []


def cmd_morse_check(args):
    base = resolve_field(args.field, args.field_modulus)
    if args.cover is None:
        raise UsageError("morse-check needs --cover with a polynomial in Y")
    M = univariate_in_y(parse_bivariate(args.cover, base))
    verdict, witness = is_morse(M)
    return {"polynomial": M, "morse": verdict, "witness": witness}, {}, []


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
    return {"kind": kind, "b": res.b, "bound": res.bound,
            "bound_met": res.bound_met, "attempts": res.attempts}, {}, []


def datum_rows(data, key, count, width):
    """The integers of a datum entry as `count` rows of `width` each."""
    flat = data[key]
    if len(flat) != count * width:
        raise CoverSpecError(f"'{key}:' must hold {count} x {width} integers")
    return [flat[i * width:(i + 1) * width] for i in range(count)]


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
            if key in data:
                raise CoverSpecError(f"datum file repeats '{key}:'")
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
    table = datum_rows(data, "gamma_table", order, order)
    gamma = FiniteGroup(range(order), table, name="gamma")
    r_images = data["r"]
    if len(r_images) != order:
        raise CoverSpecError("r image table length differs from gamma_order")
    h_count = len(set(r_images))
    if sorted(set(r_images)) != list(range(h_count)):
        raise CoverSpecError("r is not surjective: its images must be"
                             " exactly 0..h-1")
    # the quotient law on representatives; checking r below confirms it
    reps = [r_images.index(h) for h in range(h_count)]
    H = FiniteGroup(range(h_count),
                    [[r_images[table[x][y]] for y in reps] for x in reps],
                    name="quotient")
    r = GroupHom(gamma, H, r_images)
    n = data["n"][0]
    phi = GroupHom(gamma, None, map(Perm, datum_rows(data, "phi", order, n)))
    mu = GroupHom(H, None, map(Perm, datum_rows(data, "mu", h_count, n)))
    datum = ExtensionDatum(gamma, data["k"], r, phi)
    return datum, mu


def cmd_twist_verify(args):
    if args.datum is None:
        raise UsageError("twist-verify needs --datum FILE")
    datum, mu = load_extension_datum(args.datum)
    report = verify_twisting_lemma(datum, mu)
    result = {"gamma_order": datum.gamma.order,
              "quotient_order": datum.H.order}
    result.update((key, report[key]) for key in (
        "n", "sections", "classes", "failures", "vacuous", "entries"))
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
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--field", default=None,
                        help="Q (default) or a prime power q")
    parser.add_argument("--field-modulus", default=None,
                        help="defining polynomial of GF(p^f), low"
                             " coefficients first, comma separated")
    parser.add_argument("--cover", default=None,
                        help="bivariate polynomial expression in T and Y")
    parser.add_argument("--family", default=None,
                        help="tag:params, e.g. trinomial-simple:3 or"
                             " trinomial-general:3,1,1,2 or morse:Y^3-Y")
    parser.add_argument("--constraints", default=None,
                        help="comma-separated p:{d1,d2,...} pairs")
    parser.add_argument("--t0", default=None, help="specialization point")
    parser.add_argument("--n", type=int, default=None,
                        help="degree for realize-ff trinomials")
    parser.add_argument("--datum", default=None,
                        help="extension datum file for twist-verify")
    parser.add_argument("--seed", type=int, default=0,
                        help="random splitting inside specialize's"
                             " factorization; never changes a result")
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--max-candidates", type=int,
                        default=MAX_CANDIDATES)
    parser.add_argument("--prime-budget", type=int, default=PRIME_BUDGET)
    parser.add_argument("--tolerance", default=None,
                        help="density tolerance constant, a rational")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing (breaks byte"
                             " stability)")
    return parser


PARSER = build_parser()


def echo_of(args):
    """Every set input in the parser's order, less the command and the
    output options."""
    return {key: value for key, value in vars(args).items()
            if value is not None and key not in ("command", "out", "timing")}


def encode(value):
    """The JSON form of a value json does not know: a rational is the
    string "a/b", a polynomial its coefficient array."""
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError:  # past the int-string digit limit
            raise CoverSpecError(
                f"a rational of more than {sys.get_int_max_str_digits()} "
                "digits has no decimal form") from None
    if isinstance(value, Polynomial):
        return value.coeffs
    raise TypeError(f"{type(value).__name__} has no JSON form")


def emit(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def render(document):
    """The JSON text of a document; a value encode refuses raises."""
    return json.dumps(document, indent=2, default=encode) + "\n"


def run(args):
    """Execute one parsed command; returns the process exit code."""
    started = time.monotonic()
    try:
        result, certificates, warnings = COMMANDS[args.command](args)
        elapsed = time.monotonic() - started
        text = render({
            "command": args.command,
            "input_echo": echo_of(args),
            "result": result,
            "certificates": certificates,
            "warnings": warnings,
            "timing": {"seconds": round(elapsed, 6)} if args.timing else None,
        })
    except (UsageError, ParseError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CoverSpecError as exc:
        emit(render({
            "command": args.command,
            "input_echo": echo_of(args),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }), args.out)
        return 1
    emit(text, args.out)
    return 0


def main(argv=None):
    return run(PARSER.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
