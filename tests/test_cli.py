import json
import os
import pathlib
import subprocess
import sys

import pytest

import odetorsion
from odetorsion.cli import main

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


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

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--rhs", "6*y^^2")
        assert code == 2
        assert "error" in err

    def test_validation_error_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--rhs", "y2")
        assert code == 2

    @pytest.mark.parametrize("rhs, message", [
        # a division by a constant zero is a parse error, at the "/"
        ("y/0", "error: division by zero at line 1, column 2\n"),
        ("1/(y-y)", "error: inline: f1 "),
        ("log(0*y)", "error: inline: f1 "),
    ], ids=["y/0", "1/(y-y)", "log(0*y)"])
    def test_undefined_rhs_exit_2(self, capsys, rhs, message):
        code, out, err = run(capsys, "analyze", "--rhs", rhs)
        assert code == 2
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("option", [("--samples", "0"), ("--tol", "2"), ("--tol", "1e-20")])
    def test_bad_oracle_option_exit_2(self, capsys, option):
        code, out, err = run(capsys, "analyze", "--rhs", "6*y^2", *option)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


    def test_exact_witness_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "analyze", "--rhs", "y1^300*y2^300*dy1 + x",
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


    @pytest.mark.parametrize("rhs", ["(2+i)^100000*y", "(10^308+10^308*i)*(10^308+10^308*i)*y",
                                     "(" * 6000 + "y" + ")" * 6000, "(1e-170*i)^-2*y"],
                             ids=["complex-power-overflow", "complex-fold-overflow", "deep-nesting",
                                  "tiny-complex-power"])
    def test_unreadable_input_exit_2(self, capsys, rhs):
        code, out, err = run(capsys, "analyze", "--rhs", rhs)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tiny_complex_power_is_an_overflow(self, capsys):
        _, _, err = run(capsys, "analyze", "--rhs", "(1e-170*i)^-2*y")
        assert err == "error: constant power outside the float range\n"

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
        src = str(pathlib.Path(odetorsion.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout == "True\n"

    def test_zero_to_a_negative_power_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--rhs", "0^-1")
        assert code == 2
        assert out == ""
        assert err == "error: 0 raised to a negative power at line 1, column 4\n"

    def test_files_and_rhs_together_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", str(CORPUS_DIR / "duals"), "--rhs", "y")
        assert code == 2
        assert out == ""
        assert err == "error: give corpus files or --rhs, not both\n"


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
        assert err == "error: s: conserved quantity 1 cannot be evaluated at any of 8 sample points\n"

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
        assert err == f"error: 0 raised to a negative power at {where}\n"

    def test_negative_power_beyond_the_float_range_exit_2(self, capsys, tmp_path):
        # (a*y)^-1 passes validation, but the invariant's higher negative
        # powers of a*y leave the float range at a sample no root wins
        corpus = tmp_path / "tiny"
        corpus.write_text("system tiny\n n 1\n param a = 1e-170\n f1 = (a*y)^-1\n expect not-straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert code == 2
        assert out == ""
        assert err == "error: tiny: negative power outside the float range\n"

    def test_duplicate_directive_exit_2(self, capsys, tmp_path):
        # a repeated directive is an input error, not an override of the first
        corpus = tmp_path / "twice"
        corpus.write_text("system s\n n 2\n n 1\n f1 = 6*y^2\n expect straight\n expect not-straight\nend\n")
        code, out, err = run(capsys, "analyze", str(corpus))
        assert (code, out) == (2, "")
        assert err == "error: duplicate n at line 3, column 1\n"

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "no-such-file")
        assert code == 2

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

    def test_seed_recorded_in_records(self, capsys):
        _, records, _ = run_json(
            capsys, "analyze", "--rhs", "6*y^2", "--seed", "42", "--samples", "16"
        )
        assert records[0]["seed"] == 42
        assert records[0]["samples"] == 16


class TestTextOutput:
    def test_one_line_per_entry(self, capsys):
        code, out, err = run(capsys, "analyze", str(CORPUS_DIR / "table2.degenerate"))
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 7
        assert all("ok" in l for l in lines)

    def test_requires_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze"])
