import ast
import json
import os
import pathlib
import re
import resource
import shlex
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

import odetorsion
from odetorsion import cli, expr as ex, oracle
from odetorsion.cli import main
from odetorsion.oracle import OracleConfig
from odetorsion.parsing import parse_corpus
from odetorsion.torsion import is_straight, quartic_test

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def rhs_argv(texts):
    return [a for t in texts for a in ("--rhs", t)]


# int() reads at most this many digits (0: no limit, and no limit before
# sys.get_int_max_str_digits); LONG is an integer text one digit longer
DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (DIGITS + 1)
needs_digit_limit = pytest.mark.skipif(not DIGITS, reason="int() reads integers of any length")


def src_env():
    """The environment of a child interpreter that imports odetorsion from this tree."""
    src = str(pathlib.Path(odetorsion.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_child(*argv):
    """(exit code, stdout, stderr, CPU seconds) of the CLI run in a child
    interpreter, given 10 s."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    p = subprocess.run([sys.executable, "-m", "odetorsion.cli", *argv], capture_output=True, text=True,
                       timeout=10, env=src_env())
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return p.returncode, p.stdout, p.stderr, cpu


def strip_timing(records):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


class TestInline:
    def test_not_straight_scalar(self, capsys):
        code, records, _ = run_json(capsys, "analyze", "--rhs", "2*y^3 + x*y")
        assert code == 0  # no expectation, so nothing to mismatch
        (r,) = records
        assert r["name"] == "inline"
        assert r["n"] == 1
        assert r["method"] == "tresse"
        assert r["classification"] == "not-straight"
        assert r["expected"] is None and r["match"] is None
        assert r["quartic"] == "straight"
        # the invariant here depends on y alone, so the witness does too
        re_, im = r["witness"]["y1"]
        assert isinstance(re_, float) and isinstance(im, float)

    def test_straight_scalar(self, capsys):
        code, records, _ = run_json(capsys, "analyze", "--rhs", "x*y")
        assert records[0]["classification"] == "straight"
        assert "witness" not in records[0]

    def test_system_dispatches_to_fels(self, capsys):
        code, records, _ = run_json(capsys, "analyze", "--rhs", "y2", "--rhs", "y1")
        assert records[0]["n"] == 2
        assert records[0]["method"] == "fels"

    def test_torsion_free_is_not_flat(self, capsys):
        # Fels's torsion of y1'' = dy2^4, y2'' = 0 vanishes, but it is not
        # point-equivalent to y'' = 0: its curvature S^1_222 = 24*dy2, and
        # the quartic check sees the fourth dy2-partial 24
        code, records, _ = run_json(capsys, "analyze", "--rhs", "dy2^4", "--rhs", "0")
        (r,) = records
        assert (r["method"], r["classification"], r["quartic"]) == ("fels", "straight", "not-straight")

    def test_inline_params_are_generic(self, capsys):
        code, records, _ = run_json(capsys, "analyze", "--rhs", "a*(1 - y^2)*dy - y")
        assert records[0]["classification"] == "not-straight"

    def test_method_override(self, capsys):
        code, records, _ = run_json(
            capsys, "analyze", "--rhs", "dy^4", "--method", "quartic"
        )
        assert records[0]["method"] == "quartic"
        assert records[0]["classification"] == "not-straight"
        assert records[0]["witness_value"][0] == pytest.approx(24.0)

    @pytest.mark.parametrize("rhs, method, classification", [
        (["6*y^2"], "tresse", "not-straight"),
        (["x*y"], "tresse", "straight"),
        (["y2*dy1", "0"], "fels", "not-straight"),
        (["dy2^4", "0"], "fels", "straight"),
    ])
    def test_method_tresse_and_fels(self, capsys, rhs, method, classification):
        code, records, _ = run_json(capsys, "analyze", *rhs_argv(rhs), "--method", method)
        (r,) = records
        assert (r["method"], r["classification"]) == (method, classification)
        assert "quartic" not in r  # the side check runs under auto only

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--rhs", "6*y^^2")
        assert code == 2
        assert "error" in err

    def test_validation_error_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--rhs", "y2")
        assert code == 2

    @pytest.mark.parametrize("rhs, message", [
        # a division by a constant zero is a parse error, at the "/"
        ("y/0", "error: inline: f1: division by zero at line 1, column 2\n"),
        ("1/(y-y)", "error: inline: f1 "),
        ("log(0*y)", "error: inline: f1 "),
        # infinite at every point, as a product of two constants near 10^304 is
        ("exp(700)*exp(700)*exp(y)", "error: inline: f1 leaves the float range at all 8 sample points\n"),
        ("exp(700)*exp(700)*dy", "error: inline: f1 leaves the float range at all 8 sample points\n"),
    ], ids=["y/0", "1/(y-y)", "log(0*y)", "infinite-everywhere", "infinite-everywhere-dy"])
    def test_undefined_rhs_exit_2(self, capsys, rhs, message):
        code, out, err = run(capsys, "analyze", "--rhs", rhs)
        assert code == 2
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("option", [("--samples", "16")])
    def test_bad_oracle_option_exit_2(self, capsys, option):
        # the sample count is the constant oracle.SAMPLES, not an option
        with pytest.raises(SystemExit) as exit_:
            main(["analyze", "--rhs", "6*y^2", *option])
        out, err = capsys.readouterr()
        assert exit_.value.code == 2
        assert out == ""
        assert f"error: unrecognized arguments: {option[0]}" in err


    def test_exact_witness_beyond_float_range(self, capsys):
        # exact coordinates lie in (0, 1], so the value leaves the float
        # range through its constant, not through a high degree
        code, out, err = run(capsys, "analyze", "--rhs", "10^400*y1^3*dy1 + x",
                             "--rhs", "dy2^2*y1", "--json")
        assert code == 0 and err == ""
        (r,) = json.loads(out)
        assert r["classification"] == "not-straight"
        assert abs(r["witness_value"][0]) == float("inf")
        assert "Infinity" in out

    def test_numeric_overflow_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--rhs", "exp(y^400)")
        assert code == 2
        assert out == ""
        assert err.startswith("error: inline: ") and err.count("\n") == 1

    @pytest.mark.parametrize("rhs, entry", [(["exp(dy1^400)", "dy2^4"], [2, 5]),
                                            (["dy2^4", "exp(dy1^400)"], [1, 5])],
                             ids=["overflow-first", "constant-first"])
    def test_nonzero_constant_wins_over_an_overflow(self, capsys, rhs, entry):
        # dy2^4's fourth partial is the constant 24, nonzero at every sample,
        # so the overflow of exp(dy1^400)'s partials propagates from none
        code, records, err = run_json(capsys, "analyze", *rhs_argv(rhs), "--method", "quartic")
        assert (code, err) == (0, "")
        (r,) = records
        assert (r["classification"], r["witness_entry"]) == ("not-straight", entry)

    def test_function_of_an_overflowed_value_exit_2(self, capsys):
        # the constant is 709.5/y0 for y0 the oracle's first point at seed 0:
        # exp is 1.355e308 there, doubling it overflows to inf, and cmath's
        # sin rejects the infinite argument
        rhs = "y + sin(2*exp((20.423497993441853+408.3013847936814*i)*y))"
        code, out, err = run(capsys, "analyze", "--rhs", rhs)
        assert code == 2
        assert out == ""
        assert err == "error: inline: sin of a value outside the float range in the tresse invariant\n"

    @pytest.mark.parametrize("rhs, classification", [("10^400*y", "straight"), ("10^400*y^3", "not-straight"),
                                                     ("10^-400*y^3", "not-straight")])
    def test_polynomial_with_a_constant_beyond_the_float_range(self, capsys, rhs, classification):
        # the exact path never converts the constant to a float
        code, records, err = run_json(capsys, "analyze", "--rhs", rhs)
        assert code == 0 and err == ""
        assert records[0]["classification"] == classification

    @pytest.mark.parametrize("rhs", ["exp(y)*10^-400", "1e-400*sin(y)", "y^3*10^400 + dy*exp(x)",
                                     "exp(1000)*y", "exp(1000+0*i)*y", "exp(-800)*y^3", "exp(y)*exp(-800)",
                                     "y^3*exp(-746)", "exp(-400)^2*y^3", "sqrt(exp(-1500))*exp(y)",
                                     "y+exp(-800)", "sin(exp(-400)*exp(-400))*y", "exp(700)*exp(700)+y^3"])
    def test_constant_outside_the_float_range_exit_2(self, capsys, rhs):
        # a right-hand side that is not a polynomial is sampled in floats;
        # 10^-400 would be 0 there, and 6*f_yy != 0 would read as straight;
        # exp(1000) overflows wherever it is evaluated, at no sample point;
        # exp(-800), exp(-400)^2 and exp(-400)*exp(-400) underflow to 0,
        # which no nonzero operand of a product, power, exp or sqrt gives,
        # and are rejected even where the 0 does no harm (y+exp(-800));
        # exp(700)*exp(700) overflows to inf without raising
        code, out, err = run(capsys, "analyze", "--rhs", rhs)
        assert (code, out) == (2, "")
        assert err == "error: inline: f1 has a constant outside the float range\n"


    @pytest.mark.parametrize("rhs, classification", [("sin(0)*y^3", "straight"), ("y^3*exp(-745)", "not-straight")])
    def test_constant_that_is_zero_or_subnormal_classifies(self, capsys, rhs, classification):
        # sin(0) is 0 because its operand is, and exp(-745) is a subnormal, not 0
        code, records, err = run_json(capsys, "analyze", "--rhs", rhs)
        assert code == 0 and err == ""
        assert records[0]["classification"] == classification

    @pytest.mark.parametrize("rhs, message", [
        ("(2+i)^100000*y", "constant power outside the float range at line 1, column 7"),
        ("(10^308+10^308*i)*(10^308+10^308*i)*y", "constant (nan+infj) outside the float range at line 1, column 38"),
        ("(" * 6000 + "y" + ")" * 6000, "nested deeper than 5000 levels at line 1, column 5001"),
        ("(1e-170*i)^-2*y", "constant power outside the float range at line 1, column 13"),
        ("(1e-170*i)^2*exp(y)", "constant power outside the float range at line 1, column 12"),
        ("(1e-170*i)*(1e-170*i)*exp(y)", "constant product outside the float range at line 1, column 29"),
        ("y/(1e-320*i)", "constant power outside the float range at line 1, column 2"),
        ("(10^308+10^308*i) + (10^308+10^308*i) + y",
         "constant (inf+infj) outside the float range at line 1, column 42"),
        *(pytest.param(rhs, f"integer of more than {DIGITS} digits at line 1, column {col}", marks=needs_digit_limit)
          for rhs, col in [(f"{LONG}*y", 1), (f"0.{LONG}*y", 1), (f"1e{LONG}*y", 1), (f"y^{LONG}", 3),
                           (f"y^-{LONG}", 4), (f"y{LONG}", 1), (f"x + dy{LONG}", 5)]),
    ], ids=["complex-power-overflow", "complex-fold-overflow", "deep-nesting", "tiny-complex-power",
            "tiny-complex-square", "tiny-complex-product", "tiny-complex-divisor", "complex-sum-overflow",
            "long-integer", "long-decimal", "long-exponent-notation", "long-power", "long-negative-power",
            "long-y-index", "long-dy-index"])
    def test_unreadable_input_exit_2(self, capsys, rhs, message):
        # a constant leaving the float range while it is read is placed as a
        # parse error is: at its exponent, at its "/", or at the token that
        # ends the run of factors or terms it was folded in; so is an
        # integer text longer than int() reads, at its number or identifier
        code, out, err = run(capsys, "analyze", "--rhs", rhs)
        assert (code, out) == (2, "")
        assert err == f"error: inline: f1: {message}\n"

    def test_tiny_complex_power_is_an_overflow(self, capsys):
        _, _, err = run(capsys, "analyze", "--rhs", "(1e-170*i)^-2*y")
        assert err == "error: inline: f1: constant power outside the float range at line 1, column 13\n"

    @pytest.mark.parametrize("rhs, col", [("25e10400^400", 10), ("((((10^300)^400)^50)^7)*y", 18),
                                          ("((10^300)^400)^50*y", 16)])
    def test_constant_power_beyond_the_bit_budget_exit_2(self, rhs, col):
        # 25*10^10400 has 34,553 bits, so its 400th power about 13.8 million,
        # and (10^300)^400 has 398,632 bits, so its 50th power about 19.9
        # million: past 2^22, they are turned away at their exponent before
        # the power is computed, where folding them took seconds or more
        code, out, err, cpu = run_child("analyze", "--rhs", rhs)
        assert (code, out) == (2, "") and cpu < 2
        assert err == f"error: inline: f1: constant power of more than {ex.MAX_CONSTANT_BITS} bits at line 1, column {col}\n"

    @pytest.mark.parametrize("rhs, classification", [
        ("10^5000*y", "straight"), ("y/3^9000", "straight"), ("(2^20000+1)*y", "straight"),
        ("10^400*y1^3*dy1 + x", "not-straight"), ("(10^300)^400*y", "straight"),
        ("((10^300)^400)^10*y", "straight"),
    ])
    def test_constant_power_within_the_bit_budget_classifies(self, capsys, rhs, classification):
        # ((10^300)^400)^10 has 3,986,320 bits, within 2^22
        code, records, err = run_json(capsys, "analyze", "--rhs", rhs)
        want = {"name": "inline", "n": 1, "method": "tresse", "classification": classification,
                "expected": None, "match": None, "seed": 0, "samples": 32, "expr_nodes": 1, "quartic": "straight"}
        if classification == "not-straight":
            # exact: the witness lies on the grid a/10^6, and its value leaves the float range
            want.update(expr_nodes=11, witness={"dy1": [0.885441, 0.0], "y1": [0.403959, 0.0]},
                        witness_value=[float("inf"), 0.0])
        assert (code, err) == (0, "") and strip_timing(records) == [want]

    @pytest.mark.parametrize("rhs, message", [
        (["sqrt(1+" * 600 + "y" + ")" * 600], "constant outside the float range in the tresse invariant"),
        (["exp(1e-100*dy1)", "0"], "constant outside the float range in the quartic check"),
        (["10^308*exp(y)"], "constant outside the float range in the tresse invariant"),
        (["exp(10^6*y)"], "exp value outside the float range in the tresse invariant"),
        (["exp(y^400)"], "exp value outside the float range in the tresse invariant"),
        (["exp(y)^100000"], "power outside the float range in the tresse invariant"),
    ], ids=["nested-sqrt-600", "quartic-check", "rational-constant", "exp-value", "exp-of-a-power", "power"])
    def test_overflow_in_a_derived_expression_names_it(self, capsys, rhs, message):
        # the input's own constants are in range: 2^-1076 in the 600-deep
        # chain's invariant, (1e-100)^4 in the fourth dy1-partial and
        # 6*10^308 in 6*f_yy are not; the last three invariants leave the
        # float range where they are sampled, as exp or as a power
        code, out, err = run(capsys, "analyze", *rhs_argv(rhs))
        assert (code, out) == (2, "")
        assert err == f"error: inline: {message}\n"

    def test_closed_output_pipe_exit_2(self):
        # stdout is a pipe whose read end is closed before the process starts
        code = "import sys; from odetorsion.cli import main; sys.exit(main())"
        read, write = os.pipe()
        os.close(read)
        try:
            with subprocess.Popen([sys.executable, "-c", code, "analyze", "--rhs", "6*y^2"],
                                  stdout=write, stderr=subprocess.PIPE, text=True, env=src_env()) as proc:
                _, err = proc.communicate(timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, err) == (2, "error: output pipe closed\n")

    def test_deep_polynomial_at_the_default_recursion_limit(self, capsys):
        text = "y*(1+" * 1500 + "y" + ")" * 1500
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code, out, err = run(capsys, "analyze", "--rhs", text, "--jobs", "2")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0 and err == ""
        assert "not-straight" in out

    def test_import_leaves_the_recursion_limit(self):
        code = ("import sys; before = sys.getrecursionlimit(); import odetorsion; "
                "print(before == sys.getrecursionlimit())")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), check=True)
        assert out.stdout == "True\n"

    def test_import_loads_only_what_a_run_uses(self):
        # no thread pool (concurrent.futures, logging), no dataclasses (and
        # inspect), no string; modules the bare interpreter already holds,
        # as site may preload some, are not the import's
        code = ("import sys; before = set(sys.modules); import odetorsion.cli; "
                "print(sorted(set(sys.modules) - before))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), check=True)
        loaded = set(ast.literal_eval(out.stdout))
        assert "odetorsion.cli" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect", "concurrent.futures", "logging", "string"})

    def test_zero_to_a_negative_power_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--rhs", "0^-1")
        assert code == 2
        assert out == ""
        assert err == "error: inline: f1: 0 raised to a negative power at line 1, column 4\n"

    @pytest.mark.parametrize("rhs", [["y", "y"], ["y2*dy1", "0"]])
    def test_method_for_another_dimension_names_the_system(self, capsys, rhs):
        code, out, err = run(capsys, "analyze", *rhs_argv(rhs), "--method", "tresse")
        assert (code, out) == (2, "")
        assert err == "error: inline: Tresse torsion needs n=1, got n=2\n"

    def test_files_and_rhs_together_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", str(CORPUS_DIR / "duals"), "--rhs", "y")
        assert code == 2
        assert out == ""
        assert err == "error: give corpus files or --rhs, not both\n"


    def test_rhs_starting_with_a_minus(self, capsys):
        # argparse alone takes "-(w1^2)*y1" for an unknown option
        code, records, err = run_json(capsys, "analyze", "--rhs", "-(w1^2)*y1", "--rhs", "-(w2^2)*y2")
        assert (code, err) == (0, "")
        assert [r["n"] for r in records] == [2]
        _, spaced, _ = run_json(capsys, "analyze", "--rhs", "-y^2")
        _, joined, _ = run_json(capsys, "analyze", "--rhs=-y^2")
        assert strip_timing(spaced) == strip_timing(joined)

    def test_rhs_followed_by_an_option_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--rhs", "--json"])
        assert exc.value.code == 2
        assert "argument --rhs: expected one argument" in capsys.readouterr().err

    def test_parse_error_names_its_rhs(self, capsys):
        code, out, err = run(capsys, "analyze", "--rhs", "y", "--rhs", "y+")
        assert (code, out) == (2, "")
        assert err.startswith("error: inline: f2: unexpected end of input at line 1, column 3 (")

    def test_variable_error_names_its_rhs(self, capsys):
        code, out, err = run(capsys, "analyze", "--rhs", "0", "--rhs", "y3")
        assert (code, out) == (2, "")
        assert err == "error: inline: f2: variable index 3 outside 1..2\n"

    def test_readme_examples_exit_0(self, capsys, monkeypatch):
        # every "    odetorsion analyze ..." line of the README's CLI section
        readme = (CORPUS_DIR.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        lines = re.findall(r"^    odetorsion (analyze .*)$", section, re.M)
        assert len(lines) == 4
        monkeypatch.chdir(CORPUS_DIR.parent)
        for line in lines:
            assert run(capsys, *shlex.split(line))[0] == 0, line


class TestCorpus:
    def test_straight_table_all_match(self, capsys):
        code, records, _ = run_json(capsys, "analyze", str(CORPUS_DIR / "table1.straight"))
        assert code == 0
        assert all(r["match"] for r in records)

    def test_multiple_files(self, capsys):
        code, records, _ = run_json(
            capsys,
            "analyze",
            str(CORPUS_DIR / "table2.degenerate"),
            str(CORPUS_DIR / "duals"),
        )
        assert code == 0
        names = [r["name"] for r in records]
        assert "painleve6-special" in names and "picard-fuchs" in names

    def test_input_error_names_its_file(self, capsys, tmp_path):
        parse = tmp_path / "parse"
        parse.write_text("system s\n n 1\n f1 = 6*y^2+\n expect straight\nend\n")
        invalid = tmp_path / "invalid"
        invalid.write_text("system s\n n 1\n f1 = 1/(y-y)\n expect straight\nend\n")
        duals = str(CORPUS_DIR / "duals")
        code, out, err = run(capsys, "analyze", duals, str(parse))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {parse}: unexpected end of input at line 3, column 13 (")
        code, out, err = run(capsys, "analyze", duals, str(invalid))
        assert (code, out) == (2, "")
        assert err == f"error: {invalid}: s: f1 cannot be evaluated at any of 8 sample points\n"

    def test_variable_error_names_its_conserved_quantity(self, capsys, tmp_path):
        corpus = tmp_path / "undeclared"
        corpus.write_text("system s\n n 2\n f1 = 0\n f2 = 0\n conserved y2 + b\n expect straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert (code, out) == (2, "")
        assert err == f"error: {corpus}: s: conserved quantity 1: undeclared parameter 'b'\n"

    def test_conserved_reported(self, capsys):
        code, records, _ = run_json(capsys, "analyze", str(CORPUS_DIR / "duals"))
        (elliptic,) = [r for r in records if r["name"] == "elliptic-example"]
        assert elliptic["conserved"] == ["zero"]

    def test_branch_limited_surfaced(self, capsys):
        code, records, _ = run_json(capsys, "analyze", str(CORPUS_DIR / "duals"))
        (dual,) = [r for r in records if r["name"] == "hitchin-dual"]
        assert dual["classification"] == "straight"
        assert dual["branch_limited"] is True
        assert dual["match"] is None  # expectation left unspecified

    def test_witness_entry_for_systems(self, capsys, tmp_path):
        corpus = tmp_path / "osc"
        corpus.write_text(
            "system osc\n n 2\n param w1 generic\n param w2 generic\n"
            " f1 = -(w1^2)*y1\n f2 = -(w2^2)*y2\n expect not-straight\nend\n"
        )
        code, records, _ = run_json(capsys, "analyze", str(corpus))
        assert code == 0
        assert records[0]["witness_entry"] == [1, 1]

    def test_mismatch_exit_1(self, capsys, tmp_path):
        corpus = tmp_path / "bad"
        corpus.write_text("system bad\n n 1\n f1 = 6*y^2\n expect straight\nend\n")
        code, records, _ = run_json(capsys, "analyze", str(corpus))
        assert code == 1
        assert records[0]["match"] is False

    def test_undefined_conserved_quantity_exit_2(self, capsys, tmp_path):
        corpus = tmp_path / "undefined"
        corpus.write_text("system s\n n 1\n f1 = 6*y^2\n conserved 1/(y-y)\n expect not-straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert code == 2
        assert out == ""
        assert err == f"error: {corpus}: s: conserved quantity 1 cannot be evaluated at any of 8 sample points\n"

    def test_conserved_quantity_beyond_the_float_range(self, capsys, tmp_path):
        corpus = tmp_path / "huge"
        corpus.write_text("system s\n n 1\n f1 = 0\n conserved 10^400*dy\n expect straight\nend\n")
        code, records, err = run_json(capsys, "analyze", str(corpus))
        assert code == 0 and err == ""
        assert records[0]["conserved"] == ["zero"]

    @pytest.mark.parametrize("line, where", [
        (" f1 = y + 0^-2", "line 3, column 14"),
        (" param a = 0^-1\n f1 = a*y", "line 3, column 15"),
    ], ids=["rhs", "fixed-param"])
    def test_zero_to_a_negative_power_exit_2(self, capsys, tmp_path, line, where):
        corpus = tmp_path / "zero-power"
        corpus.write_text(f"system s\n n 1\n{line}\n expect straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert code == 2
        assert out == ""
        assert err == f"error: {corpus}: 0 raised to a negative power at {where}\n"

    def test_negative_power_beyond_the_float_range_exit_2(self, capsys, tmp_path):
        # (a*y)^-1 passes validation, but the invariant's higher negative
        # powers of a*y hold the constant a^2 = 10^-340, which no float holds
        corpus = tmp_path / "tiny"
        corpus.write_text("system tiny\n n 1\n param a = 1e-170\n f1 = (a*y)^-1\n expect not-straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert code == 2
        assert out == ""
        assert err == "error: tiny: constant outside the float range in the tresse invariant\n"

    def test_conserved_quantity_with_a_derivative_beyond_the_float_range_exit_2(self, capsys, tmp_path):
        # exp(a*dy) is in range, but its total derivative holds a^2 = 10^-340
        corpus = tmp_path / "s"
        corpus.write_text("system s\n n 1\n param a = 1e-170\n f1 = a*y\n conserved 1\n"
                          " conserved exp(a*dy)\n expect straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert (code, out) == (2, "")
        assert err == "error: s: constant outside the float range in conserved quantity 2\n"

    def test_constant_outside_the_float_range_is_placed(self, capsys, tmp_path):
        corpus = tmp_path / "s"
        corpus.write_text("system s\n n 1\n f1 = (1e-170*i)^2*exp(y)\n expect straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert (code, out) == (2, "")
        assert err == f"error: {corpus}: constant power outside the float range at line 3, column 18\n"

    def test_duplicate_directive_exit_2(self, capsys, tmp_path):
        # a repeated directive is an input error, not an override of the first
        corpus = tmp_path / "twice"
        corpus.write_text("system s\n n 2\n n 1\n f1 = 6*y^2\n expect straight\n expect not-straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert (code, out) == (2, "")
        assert err == f"error: {corpus}: duplicate n at line 3, column 2\n"

    @pytest.mark.parametrize("params, f1, message", [
        (" param a = 0", "y/a", "z: 0 raised to a negative power in f1"),
        (" param a = 1e-170*i", "a^-2*y", "z: constant power outside the float range in f1"),
        (" param a = 1e-170*i", "a^2*exp(y)", "z: constant power outside the float range in f1"),
        (" param a generic\n param a = 2", "a*y", "z: duplicate parameter names"),
        (" param x = 2", "y", "z: parameter name 'x' is reserved"),
    ], ids=["fixed-zero", "fixed-tiny-power", "fixed-tiny-square", "duplicate-name", "reserved-name"])
    def test_bad_parameter_exit_2(self, capsys, tmp_path, params, f1, message):
        # a fixed value is substituted while the entry is read, and its
        # name is still checked like any declared parameter's
        corpus = tmp_path / "z"
        corpus.write_text(f"system z\n n 1\n{params}\n f1 = {f1}\n expect straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert (code, out) == (2, "")
        assert err == f"error: {corpus}: {message}\n"

    @pytest.mark.parametrize("data, offset", [(b"\xffsystem s\n", 0), (b"system \xe9\n", 7),
                                              (b"\xef\xbb\xbfsystem \xe9\n", 10)],
                             ids=["first-byte", "later-byte", "after-byte-order-mark"])
    def test_not_utf8_exit_2(self, capsys, tmp_path, data, offset):
        # an unreadable file is an input error (2), not a mismatch (1)
        corpus = tmp_path / "binary"
        corpus.write_bytes(data)
        code, out, err = run(capsys, "analyze", str(corpus))
        assert (code, out) == (2, "")
        assert err == f"error: {corpus}: not UTF-8 text (byte {offset})\n"

    @pytest.mark.parametrize("name", ["duals", "table2.notstraight"])
    def test_byte_order_mark_dropped(self, capsys, tmp_path, name):
        # a copy that starts with a UTF-8 byte-order mark classifies as the original
        copy = tmp_path / name
        copy.write_bytes(b"\xef\xbb\xbf" + (CORPUS_DIR / name).read_bytes())
        code, want, err = run_json(capsys, "analyze", str(CORPUS_DIR / name))
        assert (code, err) == (0, "")
        code, got, err = run_json(capsys, "analyze", str(copy))
        assert (code, err) == (0, "")
        assert strip_timing(got) == strip_timing(want)

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "no-such-file")
        assert code == 2

    @needs_digit_limit
    def test_long_right_hand_side_index_exit_2(self, capsys, tmp_path):
        corpus = tmp_path / "long"
        corpus.write_text(f"system s\n n 1\n f{LONG} = y\n expect straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert (code, out) == (2, "")
        assert err == f"error: {corpus}: integer of more than {DIGITS} digits at line 3, column 2\n"

    def test_corrupt_corpus_exit_2(self, capsys, tmp_path):
        corpus = tmp_path / "corrupt"
        corpus.write_text("system s\n n 1\n f1 = 6*y^^2\n expect straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert code == 2
        assert "line 3" in err


class TestReproducibility:
    def test_identical_runs(self, capsys):
        args = ("analyze", str(CORPUS_DIR / "table2.notstraight"), "--seed", "5")
        _, a, _ = run_json(capsys, *args)
        _, b, _ = run_json(capsys, *args)
        assert strip_timing(a) == strip_timing(b)

    def test_jobs_do_not_change_output(self, capsys):
        path = str(CORPUS_DIR / "table1.straight")
        _, serial, _ = run_json(capsys, "analyze", path, "--jobs", "1")
        _, parallel, _ = run_json(capsys, "analyze", path, "--jobs", "4")
        assert strip_timing(serial) == strip_timing(parallel)

    def test_entries_are_classified_on_the_calling_thread(self, capsys, monkeypatch):
        # --jobs is accepted and ignored: no thread is started
        threads, analyze = [], cli.analyze_entry

        def recorded(*args):
            threads.append(threading.get_ident())
            return analyze(*args)

        monkeypatch.setattr(cli, "analyze_entry", recorded)
        before = threading.active_count()
        code, out, err = run(capsys, "analyze", str(CORPUS_DIR / "table1.straight"), "--jobs", "4")
        assert (code, err) == (0, "")
        assert len(threads) == len(out.splitlines()) > 1
        assert set(threads) == {threading.get_ident()}
        assert threading.active_count() == before

    def test_seed_recorded_in_records(self, capsys):
        _, records, _ = run_json(capsys, "analyze", "--rhs", "6*y^2", "--seed", "42")
        assert records[0]["seed"] == 42
        assert records[0]["samples"] == 32  # oracle.SAMPLES


class TestExactWitness:
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_witness_re_evaluates_from_json(self, capsys, seed):
        # an exact coordinate w is a/GRID, so a = round(GRID * w) recovers
        # the point, and the named entry's exact value there is the record's
        files = sorted(CORPUS_DIR.iterdir())
        entries = [e for f in files for e in parse_corpus(f.read_text(encoding="utf-8"))]
        checked = 0
        for method, classify in (("auto", is_straight), ("quartic", quartic_test)):
            _, records, _ = run_json(capsys, "analyze", *map(str, files), "--seed", str(seed), "--method", method)
            for entry, r in zip(entries, records, strict=True):
                if r["classification"] != "not-straight":
                    continue
                i, k = r.get("witness_entry", (1, 1))
                e = classify(entry.system, OracleConfig(seed=seed)).invariant[i - 1][k - 1]
                if not e.poly:
                    continue  # a numeric witness
                names = {str(v): v for v in e.free}
                point = {}
                for name, (re_, im) in r["witness"].items():
                    a = round(oracle.GRID * re_)
                    assert im == 0.0 and 1 <= a <= oracle.GRID and abs(oracle.GRID * re_ - a) < 1e-6
                    point[names[name]] = Fraction(a, oracle.GRID)
                value = ex.evaluate_exact(e, point)
                z = oracle._float(value.numerator, value.denominator)
                assert [z.real, z.imag] == r["witness_value"], (method, entry.system.name)
                checked += 1
        assert checked


class TestTextOutput:
    def test_one_line_per_entry(self, capsys):
        code, out, err = run(capsys, "analyze", str(CORPUS_DIR / "table2.degenerate"))
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 7
        assert all("ok" in l for l in lines)

    @pytest.mark.parametrize("rhs, method, extra", [
        (["y2*dy1", "0"], "fels", " entry=(1, 1)"),
        (["exp(dy) - (1 + 10^-11)*exp(dy)"], "quartic",
         " entry=(1, 1) [entry (1,1): 32 of 32 samples in the gray zone]"),
    ], ids=["witness-entry", "reason"])
    def test_row_names_entry_and_reason(self, capsys, rhs, method, extra):
        code, out, err = run(capsys, "analyze", *rhs_argv(rhs), "--method", method)
        assert (code, err) == (0, "")
        (line,) = out.splitlines()
        assert line.startswith("inline ") and line.endswith(f"ms{extra}")

    def test_requires_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze"])
