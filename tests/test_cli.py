import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import coverspec
from coverspec import cli, covers
from coverspec.cli import encode, main
from coverspec.fields import QQ, finite_field
from coverspec.poly import Polynomial, PolyRing
from coverspec.specialize import Partition
from coverspec.twist import Perm, symmetric_group_elements


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, (code, out, err)
    return json.loads(out)


def run_child(*argv, timeout=5):
    """Run `python -m coverspec.cli` in a child process that is killed
    after `timeout` seconds, so a hang fails the test (TimeoutExpired)
    instead of stalling the suite."""
    src = str(Path(coverspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "coverspec.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(2):
        run_json(capsys, "specialize", "--cover", "Y^2 - T", "--t0", "3")
    assert built == []


# ------------------------------------------------------------- specialize

def test_specialize_rational(capsys):
    doc = run_json(capsys, "specialize", "--cover", "Y^3 - Y - T",
                   "--t0", "1")
    assert doc["command"] == "specialize"
    assert doc["result"]["pattern"] == [3]
    assert len(doc["result"]["factors"]) == 1
    assert doc["timing"] is None


def test_specialize_finite_field(capsys):
    doc = run_json(capsys, "specialize", "--field", "5",
                   "--cover", "Y^3 - Y - T", "--t0", "0")
    assert doc["result"]["pattern"] == [1, 1, 1]


def test_specialize_ramified_exit_1(capsys):
    code, out, err = run_cli(capsys, "specialize", "--cover", "Y^2 - T",
                             "--t0", "0")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "RamifiedPointError"


@pytest.mark.parametrize("argv, digest", [
    (("specialize", "--cover", "Y^2 - 2*T*Y + T^2", "--t0", "x"),
     "0576aa2b477eb6cbe0d39ef04154b7d9709779a901731ccd82faa44aaa88d6f4"),
    (("specialize", "--field", "5", "--cover", "Y^5 - T", "--t0", "1"),
     "82882a721917246d91d1bec2c4fbdcef49f5de5536d2c9ec7e176fadcf8989a9"),
    (("specialize", "--field", "2", "--cover", "Y^2 + (T^2+T)*Y + 1",
      "--t0", "1"),
     "5880345e56f87ae1bc8367e5d586ceca522b3e54b326de13d28839a5bd350823"),
    (("specialize", "--cover", "Y^2 - T^2", "--t0", "0"),
     "e92a3a6b71c10416b8f6646327d46abf1dfc2aa2a33bbe882e4703a4003da87f"),
    (("specialize", "--cover", "Y^2 - T^2", "--t0", "3"),
     "a2583194f8a409d307b9297f5c1eeb5c083f4ddad1d5d0b47b73f414ac777c02"),
    (("specialize", "--field", "9", "--family", "trinomial-alt:4",
      "--t0", "0"),
     "e6f75ce660375b3c48ea2a7a8b8b8ed066633be571b452e436ace40f7e3822fb"),
], ids=["inseparable-before-t0", "zero-derivative", "every-fiber-ramified",
        "ramified", "unramified", "char-divides-n(n-1)"])
def test_specialize_edge_cases_are_byte_stable(capsys, argv, digest):
    # sha256 of the whole stdout: (Y - T)^2 is refused before t0 is read;
    # Y^5 - T over GF(5) has Y-derivative 0; every GF(2) fiber of
    # Y^2 + (T^2+T)Y + 1 is ramified, so only disc_Y proves it separable
    code, out, _ = run_cli(capsys, *argv)
    assert code == (0 if argv[-1] == "3" else 1)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def count_branch_data(monkeypatch):
    """Log the domain of each argument of covers.discriminant,
    squarefree_part and infinity_branched_raw, the builders of a cover's
    disc, D and infinity test; returns the three logs by name.  Over QQ
    disc and D come from the cover's integer model instead: an evaluation
    of its _disc_model (the one subresultant over Z[T]) is logged as a
    discriminant over QQ[T], and one of its D as a squarefree part."""
    log = {}
    for name in ("discriminant", "squarefree_part", "infinity_branched_raw"):
        def counting(f, original=getattr(covers, name),
                     calls=log.setdefault(name, [])):
            calls.append(f.domain)
            return original(f)
        monkeypatch.setattr(covers, name, counting)
    for attr, name in (("_disc_model", "discriminant"),
                       ("D", "squarefree_part")):
        prop = covers.BivariateCover.__dict__[attr]

        def counting(cover, original=prop.func, calls=log[name]):
            if cover.base == QQ:
                calls.append(cover.ring)
            return original(cover)
        monkeypatch.setattr(prop, "func", counting)
    return log


@pytest.mark.parametrize("argv", [
    ("specialize", "--family", "trinomial-simple:5", "--t0", "3"),
    ("specialize", "--field", "101", "--family", "trinomial-alt:4",
     "--t0", "7"),
    ("specialize", "--field", "49", "--family", "morse:Y^3 - 3*Y",
     "--t0", "3"),
    ("specialize", "--cover", "Y^4 - 3/2*T^2*Y^2 + (T^3 - 1/3)*Y - 5*T + 7/4",
     "--t0", "2/3"),
])
def test_specialize_builds_no_branch_data(capsys, monkeypatch, argv):
    # a sweep-shape family, and a parsed cover whose fiber at 0 is
    # squarefree: one fiber decides both separability and ramification
    log = count_branch_data(monkeypatch)
    run_json(capsys, *argv)
    assert log == {name: [] for name in log}


@pytest.mark.parametrize("argv", [
    ("family", "--family", "trinomial-general:5,2,4,7"),
    ("family", "--field", "101", "--family", "trinomial-simple:4"),
    ("census", "--field", "101", "--family", "trinomial-simple:4"),
    ("search", "--family", "trinomial-alt:3", "--constraints", "7:{3}"),
])
def test_whole_cover_commands_build_branch_data_once(capsys, monkeypatch,
                                                     argv):
    # disc_Y(P) (the one bivariate discriminant), D and the infinity test
    log = count_branch_data(monkeypatch)
    run_json(capsys, *argv)
    assert sum(isinstance(d, PolyRing) for d in log["discriminant"]) == 1
    assert len(log["squarefree_part"]) == len(
        log["infinity_branched_raw"]) == 1


def test_specialize_beyond_the_degree_cap_fails_fast(capsys):
    # the infinity test reads one univariate fiber; a bivariate discriminant
    # over QQ[S] of this chart took about 17 s before reaching the cap
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "specialize", "--cover",
                           "Y^64 - Y^4 - T*(T - 1)", "--t0", "3")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegreeLimitError"
    assert time.perf_counter() - start < 5


def test_rational_past_the_digit_limit_is_domain_error(capsys):
    # the fiber Y^2 - 2N^2 has a coefficient of about 6000 digits, past
    # Python's int-string limit: an error document, not a traceback
    n = "7" * 3000
    code, out, err = run_cli(capsys, "specialize", "--cover",
                             f"Y^2 - {n}*{n}*T", "--t0", "2")
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert doc["error"]["type"] == "CoverSpecError"
    assert "4300 digits" in doc["error"]["message"]
    assert "result" not in doc


@pytest.mark.parametrize("cover", ["Y^2 - (((10^64)^64)^64)*T",
                                   "Y^2 - ((((10^64)^64)^64)^64)*T"])
def test_huge_constant_cover_is_refused_fast(cover):
    # 10^262144 passes the 4300-digit limit: refused while parsing, before
    # the power is built or a Hensel lift runs on it
    code, out, _ = run_child("specialize", "--cover", cover, "--t0", "1")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "CoverSpecError"
    assert "more than 4300 digits" in error["message"]


@pytest.mark.parametrize("t0", ["7" * 4000, "1/" + "7" * 4000],
                         ids=["integer", "reciprocal"])
def test_fiber_past_the_digit_limit_is_refused_before_factoring(t0):
    # P(t0, Y) = Y^3 - Y - t0^64 has a coefficient of about 256,000 digits
    # (512,000 in the monic int fiber for t0 = 1/7...7), so no factor list
    # fits 4300 digits: refused before the fiber is factored
    code, out, _ = run_child("specialize", "--cover", "Y^3 - Y - T^64",
                             "--t0", t0)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "CoverSpecError"
    assert error["message"] == (
        "fiber coefficient past 12900 digits at t0: a factor has one past "
        "4300 digits")


def test_fiber_past_the_digit_limit_with_small_factors_is_printed():
    # t0^2 has 6000 digits, past the limit, but Y - t0 and Y + t0 fit
    t0 = int("3" * 3000)
    code, out, _ = run_child("specialize", "--cover", "Y^2 - T^2",
                             "--t0", str(t0))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["pattern"] == [1, 1]
    assert [f["coeffs"] for f in result["factors"]] == [
        [str(-t0), "1"], [str(t0), "1"]]


@pytest.mark.parametrize("argv", [
    ("specialize", "--cover", "Y^2-T", "--t0", "1e999999"),
    ("specialize", "--cover", "Y^2-T", "--t0", "1e-99999"),
    ("census", "--field", "101", "--family", "trinomial-simple:3",
     "--tolerance", "1e999999"),
])
def test_exponent_form_past_the_digit_limit_is_usage_error(argv):
    # refused as text, before 10**e is built or a Hensel lift runs
    code, out, err = run_child(*argv)
    assert code == 2 and out == ""
    assert err == "usage error: " + (
        f"cannot read t0 value {argv[-1]!r}\n" if argv[-2] == "--t0" else
        f"--tolerance must be a non-negative rational, got {argv[-1]!r}\n")


def test_read_rational_refuses_only_past_the_digit_limit():
    # an exponent form is exact up to the limit, a zero mantissa takes
    # any exponent, and what Fraction refuses stays refused
    read = cli.read_rational
    assert read("1e4299", "") == 10 ** 4299
    assert read("-1e-4299", "") == Fraction(-1, 10 ** 4299)
    assert read("1.5e-3", "") == Fraction(3, 2000)
    assert read(" 2_5E+1_0 ", "") == 25 * 10 ** 10
    assert read("0e99999999", "") == 0
    assert read("3/7", "") == Fraction(3, 7)
    for text in ("1e4300", "1e-4300", "10e4299", "0.1e-4299", "1e999999",
                 "1/2e5", "1e 5", "e5", "1/0", "7" * 4301):
        with pytest.raises(cli.UsageError, match="bad"):
            read(text, "bad")


def test_specialize_family_source(capsys):
    doc = run_json(capsys, "specialize", "--family", "trinomial-simple:3",
                   "--t0", "2/27")
    assert sum(doc["result"]["pattern"]) == 3


# ------------------------------------------------------------- census

def test_census_y2_minus_t_gf7(capsys):
    doc = run_json(capsys, "census", "--field", "7", "--cover", "Y^2 - T")
    result = doc["result"]
    assert result["q"] == 7
    assert result["excluded"] == 1
    by_pattern = {tuple(line["partition"]): line for line in result["counts"]}
    assert by_pattern[(2,)]["count"] == 3
    assert by_pattern[(1, 1)]["count"] == 3
    assert result["all_realized"]


@pytest.mark.parametrize("field, family, digest", [
    ("1009", "trinomial-simple:5",
     "74e7b45f176a079ab2d3417d50ba2470b500f3c38def92d698955fb582758020"),
    ("211", "trinomial-alt:6",
     "e7c929d30165e22d51029aee3a6e5e28b436de756a4025c4d931597ea580297a"),
    ("343", "morse:Y^3 - Y",
     "d90329ce9319f53669ae55b9cd077c47cba9d6f6c02496fa058b2b7e1864f005"),
    ("101", "trinomial-general:3,1,1,2",
     "c88fd65174c56fc6b662072cec151cceef82ae97444f68f9d1c4ef31c353da04"),
], ids=["simple5", "alt6", "morse3-gf343", "general3"])
def test_census_stdout_is_byte_stable(capsys, field, family, digest):
    # sha256 of the whole stdout: counts, deviations and checks of the
    # root-sweep fast path (simple5, morse3), its factoring fallback for
    # colliding n = 6 keys (alt6) and a cover off the fast shape (general3)
    code, out, _ = run_cli(capsys, "census", "--field", field,
                           "--family", family)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_census_field_above_cap_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "census", "--field", "1000000007",
                             "--family", "trinomial-simple:3")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BudgetExhaustedError"


def test_census_degree_above_cap_is_domain_error():
    # 1,741,630 partitions of 64: refused before any sweep lists them
    code, out, _ = run_child("census", "--field", "101", "--family",
                             "trinomial-simple:64")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BudgetExhaustedError"


def test_census_degree_at_cap_runs(capsys):
    doc = run_json(capsys, "census", "--field", "7", "--family",
                   "trinomial-simple:32")
    assert doc["result"]["cover"]["degree"] == 32


@pytest.mark.parametrize("tolerance", ["abc", "1/0", "-1", ""])
def test_census_bad_tolerance_is_usage_error(capsys, tolerance):
    # read before the cover is built: this cover alone would exit 1, since
    # char 7 divides n(n-1)
    code, out, err = run_cli(capsys, "census", "--field", "7", "--family",
                             "trinomial-simple:7", "--tolerance", tolerance)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: --tolerance") and err.count("\n") == 1


@pytest.mark.parametrize("tolerance", ["0", "3/2"])
def test_census_tolerance_is_echoed(capsys, tolerance):
    doc = run_json(capsys, "census", "--field", "7", "--cover", "Y^2 - T",
                   "--tolerance", tolerance)
    assert doc["result"]["tolerance_constant"] == tolerance


def test_census_requires_finite_field(capsys):
    code, out, err = run_cli(capsys, "census", "--cover", "Y^2 - T")
    assert code == 2
    assert "usage error" in err


# ------------------------------------------------------------- search

def test_search_single_constraint(capsys):
    doc = run_json(capsys, "search", "--cover", "Y^3 - Y - T",
                   "--constraints", "5:{3}", "--max-candidates", "2")
    result = doc["result"]
    assert result["M"] == result["beta"] * 5
    assert len(result["certified"]) >= 2
    for point in result["certified"]:
        assert point["patterns"]["5"] == [3]
        assert point["t0"] % result["M"] == result["b"]
    assert doc["certificates"]


def test_search_two_constraints(capsys):
    doc = run_json(capsys, "search", "--family", "trinomial-simple:3",
                   "--constraints", "5:{1,1,1},7:{2,1}",
                   "--max-candidates", "1")
    result = doc["result"]
    assert result["M"] == result["beta"] * 35
    point = result["certified"][0]
    assert point["patterns"]["5"] == [1, 1, 1]
    assert point["patterns"]["7"] == [2, 1]


@pytest.mark.parametrize("family, constraints, digest", [
    ("trinomial-simple:3", "5:{3}",
     "2890432afecfb21b25db0dbbb0b2c888cee44d069f4b2e56bc4f6ae16f1d8e9b"),
    ("trinomial-alt:5", "7:{5},11:{3,2}",
     "7428d1eebbbd40b66346af892b5e8072510efc62131b42f724dec1ecf217f76b"),
    ("trinomial-simple:6", "17:{3,2,1}",
     "c602840530c59d2471ed86a91890f89903c0b21218406c668068d2d2fc8a8d53"),
    ("trinomial-simple:7", "13:{1,1,1,1,1,1,1},23:{3,1,1,1,1},79:{3,1,1,1,1}",
     "ef4645369ab2f3334b65d83dd3914523e8d6ca9e8f0dde12ed3495e0cd23dc80"),
    ("trinomial-alt:7", "47:{3,1,1,1,1},83:{2,1,1,1,1,1}",
     "96d0a0c1d6e74ad9fc1b0caa38714c72c77ef9d569f9e642a1baed221a234674"),
], ids=["simple3", "alt5", "simple6", "simple7", "alt7"])
def test_search_stdout_is_byte_stable(capsys, family, constraints, digest):
    # sha256 of the whole stdout pins residues, trick primes, certified
    # points, skips and witnesses, not just the pattern checks; at n = 7
    # the transposition scans run up to the trick prime 113
    code, out, _ = run_cli(capsys, "search", "--family", family,
                           "--constraints", constraints)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flag, value", [
    ("--max-candidates", "0"), ("--max-candidates", "-2"),
    ("--prime-budget", "0"), ("--prime-budget", "-5")])
def test_search_nonpositive_budget_is_usage_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "search", "--cover", "Y^3 - Y - T",
                             "--constraints", "5:{3}", flag, value)
    assert code == 2
    assert out == ""
    assert err == f"usage error: {flag} must be a positive integer\n"


def test_search_prime_above_primality_cap_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "search", "--cover", "Y^3 - Y - T",
                             "--constraints", "2305843009213693953:{3}")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegreeLimitError"


def test_search_constraint_prime_near_1e9_is_fast(capsys):
    # a constraint prime above specialize.SWEEP_Q_CAP is scanned fiber by
    # fiber up to its first hit, never swept over all of GF(p)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "search", "--family", "trinomial-simple:3",
                           "--constraints", "1000000007:{1,1,1}")
    assert time.perf_counter() - start < 5
    assert code == 0
    result = json.loads(out)["result"]
    assert result["residues"]["1000000007"] == 0
    assert result["certified"]


def test_search_cover_without_finite_branch_points(capsys):
    # D = 1: no prime above 2 is bad, so 7 is a legitimate constraint prime
    doc = run_json(capsys, "search", "--cover", "Y^2 + T*Y + 1/4*T^2 + 1",
                   "--constraints", "7:{2}")
    result = doc["result"]
    assert result["annotations"]["bad_primes"] == [2]
    assert all(point["patterns"]["7"] == [2] for point in result["certified"])


@pytest.mark.parametrize("argv, message", [
    (("--cover", "Y^3 - Y - T^3 - 1000003*T^2 + 999983*T + 1",
      "--constraints", "13:{1,1,1}"), "cannot factor"),
    (("--family", "trinomial-simple:12", "--constraints", "101:{12}"),
     "primality certification is capped"),
], ids=["unfactorable-disc", "constant-c-above-prime-cap"])
def test_search_beyond_the_annotation_limits_fails_fast(argv, message):
    # the first trial-divided a 62-digit disc(D) for over 60 s; the second
    # scanned for 139 s before its annotations failed
    code, out, _ = run_child("search", *argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "DegreeLimitError"
    assert message in error["message"]


def test_search_candidates_above_the_budget_fail_fast():
    # refused before the first candidate, not after certifying 500
    code, out, _ = run_child("search", "--family", "trinomial-simple:3",
                             "--constraints", "5:{3}",
                             "--max-candidates", "501")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "BudgetExhaustedError"
    assert "501" in error["message"] and "500" in error["message"]


def test_search_takes_missing_witnesses_from_the_trick_primes():
    # certify_sn's 200-prime budget stops short of the transposition
    # trick prime 1667, whose pattern at t0 the congruences fix
    code, out, _ = run_child("search", "--cover", "Y^11 - Y - T",
                             "--constraints", "13:{11}", timeout=10)
    assert code == 0
    certified = json.loads(out)["result"]["certified"]
    assert len(certified) == 3
    for point in certified:
        witnesses = {tuple(lam): p for lam, p in point["sn_witnesses"]}
        assert witnesses[(2,) + (1,) * 9] == 1667
        assert point["patterns"]["1667"] == [2] + [1] * 9


def test_search_cover_with_disc_content(capsys):
    # disc content 675 = 3^3 5^2 makes 5 a bad prime although the branch
    # locus 3T - 1 stays squarefree mod 5
    doc = run_json(capsys, "search", "--cover", "Y^3 - 15*T + 5",
                   "--constraints", "7:{3}")
    result = doc["result"]
    assert 5 in result["annotations"]["bad_primes"]
    for point in result["certified"]:
        assert point["patterns"]["7"] == [3]
        assert "5" not in point["patterns"]


# ------------------------------------------------------------- family

def test_family_accepted(capsys):
    doc = run_json(capsys, "family", "--family", "trinomial-general:3,1,1,2")
    result = doc["result"]
    assert result["accepted"]
    assert result["finite_branch_points"] == ["0", "4/27"]
    assert result["constant_c"] == 1296
    assert result["bad_primes"] == [2, 3]


def test_family_rejected_exit_1(capsys):
    code, out, err = run_cli(capsys, "family", "--family",
                             "trinomial-general:3,1,1,1")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "FamilyConstraintError"
    assert "parameter-identity" in doc["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("family", "--family", "trinomial-simple:200"),
    ("family", "--family", "trinomial-general:3,1,99999,149999"),
    ("realize-ff", "--field", "7", "--n", "1000"),
], ids=["simple-200", "general-r-s-huge", "realize-n-1000"])
def test_family_beyond_the_degree_cap_fails_fast(capsys, argv):
    # refused before any polynomial is built; each ran past 20 s uncapped
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegreeLimitError"
    assert time.perf_counter() - start < 5


# ------------------------------------------------------------- morse-check

def test_morse_check_true(capsys):
    doc = run_json(capsys, "morse-check", "--cover", "Y^3 - Y")
    assert doc["result"]["morse"] is True


def test_morse_check_false_with_witness(capsys):
    doc = run_json(capsys, "morse-check", "--cover", "Y^3")
    assert doc["result"]["morse"] is False
    assert doc["result"]["witness"]["critical_resultant"]


# ------------------------------------------------------------- realize-ff

def test_realize_trinomial(capsys):
    doc = run_json(capsys, "realize-ff", "--field", "67", "--n", "2")
    assert doc["result"]["kind"] == "trinomial"
    assert doc["result"]["bound"] == 64
    assert doc["result"]["bound_met"] is True


def test_realize_morse(capsys):
    doc = run_json(capsys, "realize-ff", "--field", "7",
                   "--cover", "Y^2")
    assert doc["result"]["kind"] == "morse"


def test_realize_requires_choice(capsys):
    code, out, err = run_cli(capsys, "realize-ff", "--field", "7")
    assert code == 2


# ------------------------------------------------------------- twist-verify

def write_s3_datum(path):
    sn = symmetric_group_elements(3)
    index = {p: i for i, p in enumerate(sn)}
    lines = ["gamma_order: 6", "gamma_table:"]
    for a in sn:
        lines.append(" ".join(str(index[a * b]) for b in sn))
    even = [i for i, p in enumerate(sn)
            if tuple(sorted(p.cycle_type().parts)) in ((1, 1, 1), (3,))]
    lines.append("k: " + " ".join(str(i) for i in even))
    lines.append("r: " + " ".join(
        "0" if i in even else "1" for i in range(6)))
    lines.append("n: 1")
    lines.append("phi: " + " ".join("0" for _ in range(6)))
    lines.append("mu: 0 0")
    path.write_text("\n".join(lines) + "\n")


def test_twist_verify_s3_sections(capsys, tmp_path):
    datum = tmp_path / "s3.datum"
    write_s3_datum(datum)
    doc = run_json(capsys, "twist-verify", "--datum", str(datum))
    result = doc["result"]
    assert result["gamma_order"] == 6
    assert result["quotient_order"] == 2
    assert result["sections"] == 3
    assert result["classes"] == 1
    assert result["failures"] == 0


def write_s2xc2_datum(path):
    ident = Perm((0, 1))
    swap = Perm((1, 0))
    elements = [(ident, 0), (ident, 1), (swap, 0), (swap, 1)]
    index = {e: i for i, e in enumerate(elements)}
    lines = ["gamma_order: 4", "gamma_table:"]
    for sigma, h in elements:
        row = []
        for tau, g in elements:
            row.append(str(index[(sigma * tau, (h + g) % 2)]))
        lines.append(" ".join(row))
    lines.append("k: 0 2")
    lines.append("r: 0 1 0 1")
    lines.append("n: 2")
    phi_rows = []
    for sigma, _ in elements:
        phi_rows.append(" ".join(str(x) for x in sigma.images))
    lines.append("phi: " + "  ".join(phi_rows))
    lines.append("mu: 0 1  1 0")  # quotient generator acts by the swap
    path.write_text("\n".join(lines) + "\n")


def test_twist_verify_s2xc2(capsys, tmp_path):
    datum = tmp_path / "s2xc2.datum"
    write_s2xc2_datum(datum)
    doc = run_json(capsys, "twist-verify", "--datum", str(datum))
    result = doc["result"]
    assert result["n"] == 2
    assert result["sections"] == 2
    assert result["failures"] == 0
    fixed_counts = [len(e["fixed_points"]) for e in result["entries"]]
    assert sorted(fixed_counts) == [0, 2]
    for entry in result["entries"]:
        if entry["fixed_points"]:
            assert entry["witnesses"]


def test_twist_verify_missing_key(capsys, tmp_path):
    bad = tmp_path / "bad.datum"
    bad.write_text("gamma_order: 2\n")
    code, out, err = run_cli(capsys, "twist-verify", "--datum", str(bad))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CoverSpecError"


@pytest.mark.parametrize("writer, name, digest", [
    (write_s3_datum, "s3.datum",
     "41008e46d2a7a369f7c269c36c6d8b6da448684651fdee538807e9e93e3e8718"),
    (write_s2xc2_datum, "s2xc2.datum",
     "7bf6b3a0b2efe76ad7cead7d6fcf299ff44dabee284caf187c3c1666e3189f69"),
], ids=["s3", "s2xc2"])
def test_twist_verify_stdout_is_byte_stable(capsys, tmp_path, monkeypatch,
                                            writer, name, digest):
    # sha256 of the whole stdout pins section order, fixed points and
    # witnesses, not just the counts; a relative path keeps input_echo fixed
    monkeypatch.chdir(tmp_path)
    writer(tmp_path / name)
    code, out, _ = run_cli(capsys, "twist-verify", "--datum", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def replace_entry(text, key, entry):
    """Datum text with the line that starts with `key` swapped for `entry`."""
    return "\n".join(entry if line.startswith(key) else line
                     for line in text.splitlines()) + "\n"


TRIVIAL_DEGREE_12 = ("gamma_order: 1\ngamma_table: 0\nk: 0\nr: 0\nn: 12\n"
                     "phi: 0 1 2 3 4 5 6 7 8 9 10 11\n"
                     "mu: 0 1 2 3 4 5 6 7 8 9 10 11\n")
TRIVIAL_DEGREE_0 = ("gamma_order: 1\ngamma_table: 0\nk: 0\nr: 0\nn: 0\n"
                    "phi:\nmu:\n")


@pytest.mark.parametrize("key, entry", [
    ("k:", "k: x"),
    ("gamma_order:", "gamma_order:"),
    ("n:", "n:"),
    ("r:", "r: 0 1 0 1 0 1000000000000"),
    (None, TRIVIAL_DEGREE_12),
    (None, TRIVIAL_DEGREE_0),
    ("mu:", "mu: 9 9\nmu: 0 0"),
], ids=["non-integer", "bare-gamma-order", "bare-n", "huge-r-image",
        "degree-12-over-trivial-group", "degree-0", "repeated-key"])
def test_malformed_datum_is_domain_error(capsys, tmp_path, key, entry):
    datum = tmp_path / "bad.datum"
    write_s3_datum(datum)
    text = entry if key is None else replace_entry(datum.read_text(), key,
                                                   entry)
    datum.write_text(text)
    code, out, err = run_cli(capsys, "twist-verify", "--datum", str(datum))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CoverSpecError"
    assert err == ""


def test_undecodable_datum_is_usage_error(capsys, tmp_path):
    datum = tmp_path / "bad.datum"
    datum.write_bytes(b"gamma_order: \xff\xfe 6\n")
    code, out, err = run_cli(capsys, "twist-verify", "--datum", str(datum))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_datum_loader_fuzz(capsys, tmp_path):
    # seeded token mutations of the S_3 datum: only the documented exit
    # codes, and every exception is turned into one of them
    source = tmp_path / "s3.datum"
    write_s3_datum(source)
    lines = [line.split() for line in source.read_text().splitlines()]
    pool = ["x", "-1", "0", "1", "2", "5", "6", "36", "1000000000000", "1.5",
            "k:", "n:", "r:", ":", "#"]
    rng = random.Random(0)
    codes = set()
    for trial in range(200):
        mutated = [list(line) for line in lines]
        for _ in range(rng.randint(1, 3)):
            line = rng.choice(mutated)
            i = rng.randrange(len(line) + 1)
            action = rng.randrange(3)
            if action == 0 and i < len(line):
                line[i] = rng.choice(pool)
            elif action == 1 and i < len(line):
                del line[i]
            else:
                line.insert(i, rng.choice(pool))
        data = "\n".join(" ".join(line) for line in mutated).encode()
        if rng.random() < 0.05:
            cut = rng.randrange(len(data))
            data = data[:cut] + b"\xff" + data[cut:]
        datum = tmp_path / f"m{trial}.datum"
        datum.write_bytes(data)
        code, out, err = run_cli(capsys, "twist-verify", "--datum",
                                 str(datum))
        assert code in (0, 1, 2), (code, data)
        assert "Traceback" not in out + err
        codes.add(code)
    assert codes == {0, 1, 2}


COVER_TOKEN = r"\d+|[TY]|\S"
COVER_KINDS = [["Y", "T"], ["+", "-", "*", "^"],
               ["0", "1", "2", "3", "4", "5", "64", "65", "1000000000000"]]


def test_cover_parser_fuzz(capsys):
    # seeded token mutations of cover strings: only the documented exit
    # codes, and every exception is turned into one of them; half of the
    # mutations swap a token for one of its kind, so many inputs still parse
    sources = ["Y^3 - Y - T", "Y^4 - T^3*Y^3 + 2/3*T", "(Y - T)^2 - T^5",
               "Y^5 - Y^4 - T*(T - 1)"]
    pool = sum(COVER_KINDS, ["(", ")", "/", "x"])
    rng = random.Random(0)
    codes = set()
    for _ in range(200):
        tokens = re.findall(COVER_TOKEN, rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(tokens))
            kind = next((k for k in COVER_KINDS if tokens[i] in k), None)
            action = rng.randrange(4)
            if action < 2 and kind:
                tokens[i] = rng.choice(kind)
            elif action == 2:
                del tokens[i]
            else:
                tokens.insert(i, rng.choice(pool))
        cover = " ".join(tokens)
        code, out, err = run_cli(capsys, "specialize", "--cover", cover,
                                 "--t0", "3")
        assert code in (0, 1, 2), (code, cover)
        assert "Traceback" not in out + err
        codes.add(code)
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("argv", [
    ("specialize", "--family", "trinomial-simple:x", "--t0", "1"),
    ("family", "--family", "trinomial-general:3,1"),
    ("twist-verify", "--datum", "/nonexistent/datum.txt"),
    ("specialize", "--field", "49", "--field-modulus", "1,x,1",
     "--cover", "Y^2 - T", "--t0", "3"),
    ("specialize", "--field", "Q", "--field-modulus", "1,0,1",
     "--cover", "Y^2 - T", "--t0", "3"),
    ("specialize", "--field-modulus", "1,0,1", "--cover", "Y^2 - T",
     "--t0", "3"),
    ("specialize", "--field", "abc", "--cover", "Y^2 - T", "--t0", "3"),
    ("specialize", "--cover", "Y^\u00b2", "--t0", "1"),
    ("specialize", "--cover", "Y - " + "7" * 5001, "--t0", "1"),
    ("specialize", "--cover", "(" * 300 + "Y" + ")" * 300, "--t0", "1"),
], ids=["bad-simple-param", "short-general-params", "missing-datum",
        "non-integer-modulus-token", "modulus-over-Q",
        "modulus-without-field", "bad-field", "superscript-digit",
        "literal-past-int-limit", "deep-parentheses"])
def test_malformed_inputs_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_field_modulus_builds_the_extension(capsys):
    doc = run_json(capsys, "specialize", "--field", "49", "--field-modulus",
                   "1,0,1", "--cover", "Y^3 - T", "--t0", "3")
    assert doc["input_echo"]["field_modulus"] == "1,0,1"
    assert doc["result"]["t0"] == [3, 0]
    # 3 is not a cube in GF(49): 3 = g^8 or g^40 for a generator g
    assert doc["result"]["pattern"] == [3]


def test_encoder_forms():
    F = finite_field(49, (1, 0, 1))
    document = {
        "rational": Fraction(-3, 4), "integral": Fraction(5),
        "poly": Polynomial.of(QQ, [Fraction(1, 2), 0, 1]),
        "gf49": Polynomial(F, [F.coerce(3), F.one]),
        "partition": Partition([1, 2]), "perm": Perm((1, 0)),
    }
    assert json.loads(json.dumps(document, default=encode)) == {
        "rational": "-3/4", "integral": "5", "poly": ["1/2", "0", "1"],
        "gf49": [[3, 0], [1, 0]], "partition": [2, 1], "perm": [1, 0],
    }
    for value in (object(), {1, 2}, 1j):
        with pytest.raises(TypeError):
            encode(value)


# ------------------------------------------------------------- plumbing

@pytest.mark.parametrize("argv", [
    ("frobnicate", "--field", "7"),
    ("--field", "7"),
    (),
], ids=["unknown-command", "flags-without-command", "empty"])
def test_bad_command_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_byte_stable_reports(capsys):
    args = ("census", "--field", "7", "--cover", "Y^2 - T", "--seed", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv, digest", [
    (("specialize", "--cover",
      "Y^4 - 3/2*T^2*Y^2 + (T^3 - 1/3)*Y - 5*T + 7/4", "--t0", "2/3"),
     "268522d350d969383bfeaaf749714b625dc1c3c1e34c548e5b1330256fc0afd6"),
    (("family", "--family", "trinomial-general:5,2,4,7"),
     "e48b9b57d318efa4bb0f38e31690fe403389211c5498969776e165f0ffcbc008"),
    (("morse-check", "--cover", "Y^4 - 2/3*Y^2"),
     "762fe97e7540ffe6f337d8218eab0e58515ad7baa1bb45bc5a5907b1ee295154"),
], ids=["specialize-q", "family-general", "morse-repeated"])
def test_rational_reports_are_byte_stable(capsys, argv, digest):
    # sha256 of the whole stdout of commands whose branch locus, resultant
    # or gcd runs over QQ; the Morse witness has the repeated part T + 1/9
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_timing_flag_fills_field(capsys):
    doc = run_json(capsys, "specialize", "--cover", "Y^3 - Y - T",
                   "--t0", "1", "--timing")
    assert doc["timing"] is not None and "seconds" in doc["timing"]


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "specialize", "--cover", "Y^3 - Y - T",
                             "--t0", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["result"]["pattern"] == [3]


def test_conflicting_cover_sources_exit_2(capsys):
    code, out, err = run_cli(capsys, "specialize", "--cover", "Y^2 - T",
                             "--family", "trinomial-simple:2", "--t0", "1")
    assert code == 2


def test_bad_poly_syntax_exit_2(capsys):
    code, out, err = run_cli(capsys, "specialize", "--cover", "Y^^2",
                             "--t0", "1")
    assert code == 2
    assert "column" in err
