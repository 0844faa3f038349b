import hashlib
import json
import random
import re

import pytest

from coverspec.cli import main
from coverspec.twist import Perm, symmetric_group_elements


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, (code, out, err)
    return json.loads(out)


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
], ids=["simple3", "alt5", "simple6"])
def test_search_stdout_is_byte_stable(capsys, family, constraints, digest):
    # sha256 of the whole stdout pins residues, trick primes, certified
    # points, skips and witnesses, not just the pattern checks
    code, out, _ = run_cli(capsys, "search", "--family", family,
                           "--constraints", constraints)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("key, entry", [
    ("k:", "k: x"),
    ("gamma_order:", "gamma_order:"),
    ("n:", "n:"),
    ("r:", "r: 0 1 0 1 0 1000000000000"),
    (None, TRIVIAL_DEGREE_12),
], ids=["non-integer", "bare-gamma-order", "bare-n", "huge-r-image",
        "degree-12-over-trivial-group"])
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
], ids=["bad-simple-param", "short-general-params", "missing-datum"])
def test_malformed_inputs_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


# ------------------------------------------------------------- plumbing

def test_byte_stable_reports(capsys):
    args = ("census", "--field", "7", "--cover", "Y^2 - T", "--seed", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


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
