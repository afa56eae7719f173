import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ffmzv
from ffmzv import FieldSpec, RationalFn, monic_polys, random_instance
from ffmzv.cli import _build_parser, _make_ring, main, parse_args
from ffmzv.errors import InvalidFamilyInput


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_args_defaults():
    cfg = parse_args(["compute", "--tuple", "(1,2)", "--D", "3"])
    assert cfg.command == "compute"
    assert cfg.format == "json" and cfg.out is None
    assert cfg.q == 2 and not cfg.star


def test_compute_truncated(capsys):
    code, out = run(capsys, "compute", "--tuple", "(1,)", "--D", "2")
    assert code == 0
    result = json.loads(out)
    assert result["evaluator"] == "trunc"
    assert result["value"] == "(t^2+t+1)/(t^2+t)"


def test_compute_truncated_at_a_large_exponent(capsys):
    # l_d^900 and S_d(900) are built without one recursive call per unit of
    # the exponent; the value is the literal sum of a^-900 over deg a < 3
    code, out = run(capsys, "compute", "--tuple", "(900,)", "--D", "3")
    assert code == 0
    F2 = FieldSpec.parse("q=2")
    literal = sum((RationalFn.from_poly(a) ** -900
                   for d in range(3) for a in monic_polys(F2, d)),
                  RationalFn.zero(F2))
    assert json.loads(out)["value"] == str(literal)


def test_compute_finite(capsys):
    code, out = run(capsys, "compute", "--tuple", "(1,2)", "--v", "t^2+t+1")
    assert code == 0
    assert json.loads(out)["value"] == "1 mod (t^2+t+1)^1"


def test_compute_vadic_auto(capsys):
    code, out = run(capsys, "compute", "--tuple", "(2,)", "--v", "t", "--N", "3")
    assert code == 0
    result = json.loads(out)
    assert result["value"] == "0 mod (t)^3" and result["stabilized"] is True


@pytest.mark.parametrize("N", ["0", "-1", "-5"])
def test_compute_vadic_names_a_bad_N_not_the_derived_D(capsys, N):
    # the auto D is N*deg(v)+1, so N = -1 gives D = 0; the user gave no D
    assert main(["compute", "--tuple", "(1,2)", "--v", "t", "--N", N]) == 2
    err = capsys.readouterr().err
    assert "N must be >= 1" in err and "D must be" not in err


def test_verify_families(capsys):
    code, out = run(capsys, "verify", "--family", "thm2", "--tuple", "(1,2,3)",
                    "--evaluator", "vadic", "--v", "t", "--N", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "ValuationAtLeast(3)"

    code, out = run(capsys, "verify", "--family", "thmB",
                    "--pairs", "(1:2),(3:2)", "--evaluator", "trunc", "--D", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "Zero"

    code, out = run(capsys, "verify", "--q", "3", "--family", "thmA",
                    "--tuple", "(2,4,6)", "--evaluator", "finite",
                    "--v", "t^2+1")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_search_command(capsys):
    code, out = run(capsys, "search", "--v", "t", "--weight-max", "4",
                    "--depth-max", "3", "--N", "2")
    assert code == 0
    result = json.loads(out)
    assert result["containment"] is True
    assert result["dim_found"] >= result["dim_universal"]


def test_harmonic_command(capsys):
    code, out = run(capsys, "harmonic", "--ring", "zmod:12", "--checks", "5")
    assert code == 0 and json.loads(out)["failures"] == []
    code, out = run(capsys, "harmonic", "--ring", "polymod:2:4", "--checks",
                    "5", "--doubling")
    assert code == 0 and json.loads(out)["failures"] == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["zmod:2", "zmod:12", "polymod:2:3", "polymod:3:2",
                        "rationals", "gf:2", "gf:4", "gf:3"]),
       st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 8))
def test_doubling_instances_keep_a_base_exponent(ring_text, seed, index_size,
                                                 magma_size):
    """``harmonic --doubling`` checks the doubling identity on the base
    exponents of each instance.  Over the four ring kinds the CLI reads and
    every magma size it accepts (>= 1), the base is never empty, so no
    check can pass vacuously; a ring not of characteristic 2 is refused."""
    ring = _make_ring(ring_text)
    if ring.char != 2:
        with pytest.raises(InvalidFamilyInput):
            random_instance(seed, ring, (index_size, magma_size),
                            doubling=True)
        return
    inst = random_instance(seed, ring, (index_size, magma_size),
                           doubling=True)
    assert inst.base and set(inst.base) <= set(inst.magma)


def test_primes_command(capsys):
    code, out = run(capsys, "primes", "--degree-max", "2")
    assert code == 0
    assert json.loads(out)["primes"] == ["t", "t+1", "t^2+t+1"]


def test_formats(capsys, tmp_path):
    code, out = run(capsys, "primes", "--degree-max", "1", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "prime"
    code, out = run(capsys, "primes", "--degree-max", "1", "--format", "plain")
    assert code == 0 and "command: primes" in out


def test_csv_fields_holding_quotes_parse(capsys):
    """Fields with quotes (the JSON cells of a search) are quoted with their
    quotes doubled, so each row reads back as its two fields."""
    argv = ["search", "--v", "t", "--weight-max", "4", "--depth-max", "3",
            "--N", "2"]
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 2 for row in rows)
    cells = dict(rows[1:])
    assert json.loads(cells["relations"]) == \
        json.loads(run(capsys, *argv)[1])["relations"]


@pytest.mark.parametrize("argv,want", [
    (["compute", "--tuple", "(1,2)", "--D", "3"], 0),
    (["compute", "--tuple", "(1,2)", "--v", "t", "--N", "2", "--D", "2"], 1),
    (["verify", "--family", "thmA", "--tuple", "(1,2,4)", "--evaluator",
      "vadic", "--v", "t", "--N", "3"], 0),
    (["verify", "--family", "thm2", "--tuple", "(1,2,3)", "--evaluator",
      "trunc", "--D", "3"], 1),
], ids=["compute-trunc", "compute-partial", "verify-vadic", "verify-trunc"])
def test_csv_reports_are_a_key_row_and_a_value_row(capsys, argv, want):
    """A compute or verify report in CSV is two rows of equal width: the
    sorted keys of its JSON report, then their values."""
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == want
    result = json.loads(run(capsys, *argv)[1])
    keys = sorted(result)
    assert list(csv.reader(io.StringIO(out))) == \
        [keys, [str(result[k]) for k in keys]]


def test_out_file_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["search", "--v", "t", "--weight-max", "4", "--depth-max", "3",
            "--N", "2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_exit_code_2_on_usage_errors(capsys):
    assert main(["compute", "--tuple", "(1,)"])  == 2     # no evaluator args
    assert main(["compute", "--tuple", "(1,)", "--N", "2"]) == 2  # N without v
    assert main(["compute", "--tuple", "bogus", "--D", "2"]) == 2
    assert main(["verify", "--family", "thm2", "--tuple", "(2,2,4)",
                 "--evaluator", "trunc", "--D", "2"]) == 2
    assert main(["compute", "--tuple", "(1,)", "--D", "2", "--v", "t+t"]) == 2
    for D in ("0", "-3"):  # an empty truncated sum is no PASS
        assert main(["verify", "--family", "thm2", "--tuple", "(1,2,3)",
                     "--evaluator", "trunc", "--D", D]) == 2, D
    # --D is for trunc and compute --N alone: a search below the bound of 7
    # would list every column as unstabilized and still pass
    assert main(["search", "--v", "t", "--weight-max", "6", "--depth-max",
                 "3", "--N", "6", "--D", "4"]) == 2
    assert main(["verify", "--family", "thm2", "--tuple", "(1,2,4)",
                 "--evaluator", "vadic", "--v", "t", "--N", "2", "--D",
                 "3"]) == 2
    assert main(["verify", "--family", "thm3", "--pairs", "(1:2),(3:2)",
                 "--evaluator", "finite", "--v", "t^2+t+1", "--D", "3"]) == 2
    assert main(["compute", "--tuple", "(1,2)", "--v", "t^2+t+1", "--D",
                 "3"]) == 2
    # an empty truncated or partial v-adic sum is no value
    assert main(["compute", "--tuple", "(1,2)", "--D", "0"]) == 2
    assert main(["compute", "--tuple", "(1,2)", "--v", "t", "--N", "2",
                 "--D", "0"]) == 2
    # each evaluator and family refuses a run without its input
    assert main(["verify", "--family", "thm2", "--tuple", "(1,2,3)",
                 "--evaluator", "trunc"]) == 2
    assert main(["verify", "--family", "thm2", "--tuple", "(1,2,3)",
                 "--evaluator", "finite"]) == 2
    assert main(["verify", "--family", "thm2", "--evaluator", "trunc", "--D",
                 "2"]) == 2
    assert main(["verify", "--family", "thm3", "--evaluator", "trunc", "--D",
                 "2"]) == 2
    # flags the evaluator would ignore are refused and named
    capsys.readouterr()
    assert main(["verify", "--family", "thm2", "--tuple", "(1,2,4)",
                 "--evaluator", "finite", "--v", "t", "--N", "9"]) == 2
    assert "--N" in capsys.readouterr().err
    assert main(["verify", "--family", "thmB", "--pairs", "(1:2),(3:2)",
                 "--evaluator", "trunc", "--D", "3", "--v", "t^2+t+1",
                 "--N", "9"]) == 2
    assert main(["verify", "--family", "thmB", "--pairs", "(1:2),(3:2)",
                 "--evaluator", "trunc", "--D", "3", "--v", "t^2+t+1"]) == 2
    assert "--v" in capsys.readouterr().err
    assert main(["nonsense"]) == 2
    for ring in ("zmod", "polymod:4:2", "polymod:2", "gf", "zmod:3:1",
                 "foo:1"):
        assert main(["harmonic", "--ring", ring, "--checks", "1"]) == 2, ring
    # no checks, or checks over empty sets, would pass vacuously
    for flag, value in (("--checks", "0"), ("--checks", "-3"),
                        ("--index-size", "0"), ("--index-size", "-2"),
                        ("--magma-size", "0")):
        assert main(["harmonic", flag, value]) == 2, (flag, value)
        assert flag in capsys.readouterr().err
    assert main(["harmonic", "--ring", "zmod:2", "--doubling",
                 "--magma-size", "0"]) == 2
    # without --doubling the identity has depth 3: at depth 1 it is x - x
    for size in ("1", "2"):
        assert main(["harmonic", "--magma-size", size, "--checks", "3"]) == 2
        assert "depth-1" in capsys.readouterr().err
    assert main(["harmonic", "--magma-size", "3", "--checks", "3"]) == 0
    assert main(["harmonic", "--ring", "zmod:2", "--doubling",
                 "--magma-size", "1", "--checks", "3"]) == 0
    # flags a subcommand would parse and then ignore are not accepted
    for argv in (["compute", "--tuple", "(1,)", "--D", "2"],
                 ["verify", "--family", "thm2", "--tuple", "(1,2,3)",
                  "--evaluator", "trunc", "--D", "2"],
                 ["search", "--v", "t", "--weight-max", "4", "--depth-max",
                  "3", "--N", "2"],
                 ["primes", "--degree-max", "2"]):
        assert main(argv + ["--seed", "5"]) == 2, argv
    assert main(["harmonic", "--q", "3"]) == 2
    assert main(["harmonic", "--modulus", "x^2+1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["compute", "--tuple", "(1,2)", "--v", "+t^2+t+1"],
    ["compute", "--tuple", "(1,2)", "--v", "t-"],
    ["compute", "--tuple", "(1,2)", "--v", "t++1"],
    ["compute", "--tuple", "(1,2)", "--v", "t+"],
    ["verify", "--family", "thm3", "--pairs", "(1:3),(2,1)", "--evaluator",
     "vadic", "--v", "t", "--N", "2"],
    ["compute", "--tuple", "1,,2", "--D", "2"],
    ["primes", "--q", "4", "--modulus", "x^2++x+1", "--degree-max", "1"],
    ["primes", "--q", "5", "--modulus", "x+1", "--degree-max", "1"],
    ["primes", "--q", "4", "--modulus", "x^2+1;q=9", "--degree-max", "1"],
    ["primes", "--q", "4", "--modulus", "", "--degree-max", "1"]])
def test_malformed_literals_exit_2(capsys, argv):
    """Each literal here is malformed, or a modulus that the field would
    not use: refused, not misread or dropped."""
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["compute", "--tuple", "(1_0,2)", "--D", "2"],
    ["compute", "--tuple", "(\u0661,2)", "--D", "2"],
    ["compute", "--tuple", "(+1,2)", "--D", "2"],
    ["compute", "--q", "1_6", "--tuple", "(1,2)", "--D", "2"],
    ["compute", "--tuple", "(1,2)", "--D", "\u0662"],
    ["compute", "--tuple", "(1,2)", "--D", "+2"],
    ["harmonic", "--ring", "zmod:1_2", "--checks", "1_0"],
    ["harmonic", "--ring", "zmod:1_2"],
    ["harmonic", "--checks", "1_0"],
    ["harmonic", "--ring", "polymod:2:+4"],
    ["harmonic", "--ring", "gf:+4"],
    ["search", "--v", "t", "--weight-max", "4", "--depth-max", "3",
     "--N", "\uff12"]])
def test_numbers_other_than_ascii_digits_exit_2(capsys, argv):
    """A number is an optional - and ASCII digits: no underscore, no +
    and no other digits, each of which ``int`` would take."""
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_vadic_partial_sum_never_passes(capsys):
    # D below N*deg(v)+1 leaves an empty or partial sum: refused outright
    code = main(["verify", "--family", "thm2", "--tuple", "(1,2,4)",
                 "--evaluator", "vadic", "--v", "t", "--N", "2", "--D", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "N*deg(v)+1 = 3" in captured.err
    # an explicit D whose partial sums have not stabilized is no PASS
    code, out = run(capsys, "compute", "--tuple", "(1,2)", "--v", "t",
                    "--N", "4", "--D", "2")
    result = json.loads(out)
    assert result["stabilized"] is False and result["passed"] is False
    assert code == 1


def test_vadic_value_at_the_bound_passes(capsys):
    # D = N*deg(v)+1 = 4 already gives the exact value, as the default D does
    code, out = run(capsys, "compute", "--tuple", "(1,)", "--v", "t",
                    "--N", "3", "--D", "4")
    result = json.loads(out)
    assert result["stabilized"] is True and result["passed"] is True
    assert code == 0
    code, out = run(capsys, "compute", "--tuple", "(1,)", "--v", "t", "--N", "3")
    assert code == 0 and json.loads(out) == result


def test_exit_code_3_on_unwritable_path(capsys):
    code = main(["primes", "--degree-max", "1",
                 "--out", "/nonexistent-dir/x.json"])
    capsys.readouterr()
    assert code == 3


def test_one_parser_serves_every_main_call_as_a_fresh_process(capsys):
    """The parser is built once per process; main calls after a usage error
    and after other subcommands report what a fresh process reports."""
    env = {**os.environ, "PYTHONPATH": str(Path(ffmzv.__file__).parents[1])}
    for argv in (["compute", "--bogus"],
                 ["compute", "--tuple", "(1,2)", "--D", "3"],
                 ["verify", "--family", "thm2", "--tuple", "(1,2,3)",
                  "--evaluator", "vadic", "--v", "t", "--N", "2"],
                 ["search", "--v", "t", "--weight-max", "4", "--depth-max",
                  "3", "--N", "2"],
                 ["compute", "--tuple", "(1,2)"]):
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "ffmzv.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (captured.out, captured.err, code) == \
            (fresh.stdout, fresh.stderr, fresh.returncode), argv
    assert _build_parser() is _build_parser()


def test_truncated_verify_with_every_chain_sum_empty_is_refused(capsys):
    """A strict node of r entries has no chain below D = r: when every
    generator has a node longer than D, the relation is an empty sum, and
    its Zero would be vacuous."""
    for argv, least in (
            (["--family", "thm2", "--tuple", "(1,2,3)", "--D", "2"], 3),
            (["--family", "thmA", "--tuple", "(1,2,3,4,5,6,7,8,9,10,11)",
              "--D", "3"], 10)):
        assert main(["verify", "--evaluator", "trunc", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the least D at which a generator can be nonzero is " \
               f"{least}" in captured.err
    # at the least D the relation is evaluated: thm2 truncated is NonZero
    code, out = run(capsys, "verify", "--family", "thm2", "--tuple",
                    "(1,2,3)", "--evaluator", "trunc", "--D", "3")
    assert code == 1 and json.loads(out)["verdict"] == "NonZero"
    # one generator within reach is enough: thmA's heads have depth 2
    code, out = run(capsys, "verify", "--family", "thmA", "--tuple",
                    "(1,2,4)", "--evaluator", "trunc", "--D", "2")
    assert code == 0 and json.loads(out)["verdict"] == "Zero"
    # star chains reach every level, and compute reports a value
    for argv in (["verify", "--family", "thm2", "--tuple", "(1,2,3)",
                  "--evaluator", "trunc", "--D", "2", "--star"],
                 ["compute", "--tuple", "(1,2,3)", "--D", "2"]):
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)["value"] == "0", argv


@pytest.mark.parametrize("argv", [
    ["--family", "thmA", "--tuple", "(1)", "--evaluator", "vadic", "--v", "t",
     "--N", "2"],
    ["--family", "thmB", "--pairs", "(1:1)", "--evaluator", "trunc", "--D",
     "2"],
    ["--family", "thmB", "--pairs", "(1:1)", "--evaluator", "finite", "--v",
     "t"],
    ["--family", "thmB", "--pairs", "(1:1)", "--evaluator", "vadic", "--v",
     "t"],
    ["--q", "4", "--family", "thmB", "--pairs", "(3:1)", "--evaluator",
     "trunc", "--D", "2"],
    ["--family", "thm3", "--pairs", "(1:1),(3:1)", "--evaluator", "vadic",
     "--v", "t"]], ids=" ".join)
def test_verify_of_a_relation_whose_terms_all_cancel_is_refused(capsys, argv):
    """thmA (1) is zeta(1) - zeta(1), thmB with one pair of multiplicity 1
    is a term minus itself, and thm3 with p | phi drops its only generator:
    no terms, so every evaluator's value is an empty sum, a vacuous PASS."""
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "has no terms" in captured.err


@pytest.mark.parametrize("degree_max", ["0", "-1"])
def test_primes_below_degree_one_is_refused(capsys, degree_max):
    # no degree to list: the empty list would be a vacuous PASS
    assert main(["primes", "--degree-max", degree_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--degree-max" in captured.err
