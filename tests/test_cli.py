import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covsolve
from covsolve import cli
from covsolve.probelang import compile_spec, parse_spec
from covsolve.problem import is_solution
from covsolve.solver import solve
from covsolve.vecspace import F64, Valuation

GOLDEN = Path(__file__).with_name("golden_bundled.json")

EQ_GE_TRACE = """\
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 0
abe x1 - x2 == 0
abe x1 - 10 >= 0
"""

SPLITTABLE_TRACE = """\
var x1 : f64
var x2 : f64
var x3 : f64
init x1 = 0
init x2 = 0
init x3 = 0
abe x1 - x2 == 0
abe x3 - 10 >= 0
"""

UNSOLVABLE = """\
var x : f64
init x = 0
abe x * x + 1 <= 0
"""

# a target whose first difference step, 2**-26, vanishes in the value 1e20
FAR_TARGET = """\
var x : f64
init x = 0
abe x - 1e20 >= 0
"""

# prefix partials far beyond 1e154, whose square overflows a float
HUGE_PARTIAL = """\
var x : i32
var y : i32
init x = 0
init y = 0
abe 1e300 * x - 1 < 0
abe y + x - 5 >= 0
"""

# as above, after a prefix whose forward difference overflows: 1e308 - (-1e308)
OVERFLOWING_DIFFERENCE = """\
var x : i32
var y : i32
init x = 0
init y = 0
abe 1e308 * x - 1e308 * (1 - x) < 0
abe 1e300 * x - 1 < 0
abe y + x - 5 >= 0
"""


@pytest.fixture
def eq_ge_file(tmp_path):
    path = tmp_path / "eq_ge_file.prob"
    path.write_text(EQ_GE_TRACE)
    return path


@pytest.fixture
def splittable_file(tmp_path):
    path = tmp_path / "splittable_file.prob"
    path.write_text(SPLITTABLE_TRACE)
    return path


class TestSolveCommand:
    def test_solves_two_abe_trace(self, eq_ge_file, capsys):
        code = cli.main(["solve", str(eq_ge_file), "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: SOLVED" in out
        assert "x1" in out and "x2" in out

    def test_json_schema_and_solution_verifies(self, eq_ge_file, capsys):
        code = cli.main(["solve", str(eq_ge_file), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc.keys()) == ["status", "solution", "iterations",
                                    "evaluations", "trace"]
        assert doc["status"] == "SOLVED"
        assert list(doc["solution"].keys()) == ["x1", "x2"]
        assert doc["solution"]["x1"]["type"] == "f64"
        problem = compile_spec(parse_spec(EQ_GE_TRACE))
        solution = Valuation.of([
            (name, F64, entry["value"]) for name, entry in doc["solution"].items()])
        assert is_solution(problem, solution)
        assert doc["trace"], "per-iteration trace expected"
        assert set(doc["trace"][0]) == {"iteration", "source", "value"}

    def test_far_target_solves(self, tmp_path, capsys):
        path = tmp_path / "far.prob"
        path.write_text(FAR_TARGET)
        code = cli.main(["solve", str(path), "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "SOLVED"

    def test_reports_reduction(self, splittable_file, capsys):
        code = cli.main(["solve", str(splittable_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "dropped by reduction: x1, x2" in out

    def test_solution_covers_all_variables(self, splittable_file, capsys):
        cli.main(["solve", str(splittable_file), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["solution"].keys()) == ["x1", "x2", "x3"]
        assert doc["solution"]["x1"]["value"] == 0.0
        assert doc["solution"]["x3"]["value"] >= 10.0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = cli.main(["solve", str(tmp_path / "nope.prob")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.prob"
        path.write_bytes(b"# caf\xe9\nvar x : f64\ninit x = 0\nabe x - 1 >= 0\n")
        code = cli.main(["solve", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: latin1.prob:")
        assert "Traceback" not in err

    def test_byte_order_mark_is_skipped(self, eq_ge_file, tmp_path, capsys):
        path = tmp_path / "bom.prob"
        path.write_bytes(b"\xef\xbb\xbf" + EQ_GE_TRACE.encode())
        assert cli.main(["solve", str(path), "--json"]) == 0
        with_bom = capsys.readouterr()
        assert cli.main(["solve", str(eq_ge_file), "--json"]) == 0
        assert with_bom == capsys.readouterr()

    def test_parse_error_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.prob"
        path.write_text("var x : f64\ninit x = 0\nabe x $ 0\n")
        code = cli.main(["solve", str(path)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_not_a_coverage_problem_exits_2(self, tmp_path, capsys):
        path = tmp_path / "done.prob"
        path.write_text("var x : f64\ninit x = 5\nabe x >= 0\n")
        code = cli.main(["solve", str(path)])
        assert code == 2
        assert "abe 1" in capsys.readouterr().err

    def test_search_failure_exits_1(self, tmp_path, capsys):
        path = tmp_path / "hard.prob"
        path.write_text(UNSOLVABLE)
        code = cli.main(["solve", str(path), "--max-iterations", "3",
                         "--max-evals", "2000"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out

    @pytest.mark.parametrize("terms", [1000, 5000])
    def test_long_sum_solves(self, tmp_path, capsys, terms):
        path = tmp_path / "long.prob"
        path.write_text("var x : f64\ninit x = 0\nabe "
                        + " + ".join(["x"] * terms) + " - 1 > 0\n")
        code = cli.main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "status: SOLVED" in captured.out
        assert "Traceback" not in captured.err

    def test_prefix_flag(self, eq_ge_file, capsys):
        code = cli.main(["solve", str(eq_ge_file), "--prefix", "1", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # prefix 1 flips the first ABE: find x1 != x2
        assert doc["solution"]["x1"]["value"] != doc["solution"]["x2"]["value"]

    def test_prefix_out_of_range_exits_2(self, eq_ge_file, capsys):
        assert cli.main(["solve", str(eq_ge_file), "--prefix", "9"]) == 2
        assert "prefix" in capsys.readouterr().err

    def test_identical_invocations_identical_json(self, eq_ge_file, capsys):
        cli.main(["solve", str(eq_ge_file), "--json", "--seed", "11"])
        first = capsys.readouterr().out
        cli.main(["solve", str(eq_ge_file), "--json", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second

    def test_verbose_prints_trace(self, eq_ge_file, capsys):
        cli.main(["solve", str(eq_ge_file), "--verbose"])
        out = capsys.readouterr().out
        assert "iter " in out

    def test_negative_seed_exits_2(self, eq_ge_file, capsys):
        assert cli.main(["solve", str(eq_ge_file), "--seed", "-3"]) == 2
        assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("text", [HUGE_PARTIAL, OVERFLOWING_DIFFERENCE],
                         ids=["huge-partial", "overflowing-difference"])
class TestOverflowingGradients:
    """Gradients past the float range are search numerics, not input errors."""

    def test_cli_solves(self, text, tmp_path, capsys):
        path = tmp_path / "overflow.prob"
        path.write_text(text)
        code = cli.main(["solve", str(path), "--json"])
        assert code == 0
        solution = json.loads(capsys.readouterr().out)["solution"]
        assert (solution["x"]["value"], solution["y"]["value"]) == (0, 5)

    def test_solve_finds_solution(self, text):
        problem = compile_spec(parse_spec(text))
        result = solve(problem)
        assert result.solved
        assert is_solution(problem, result.solution)
        assert result.solution.values == (0, 5)


def _start_cli(args, stdout, unbuffered=None):
    """``python -m covsolve.cli`` in a child process, with stderr piped.

    ``unbuffered`` sets or clears ``PYTHONUNBUFFERED``; None inherits it.
    """
    src = str(Path(covsolve.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "covsolve.cli", *args],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("args", [["solve", "--json"], ["solve"], ["bench", "--json"]],
                         ids=["solve-json", "solve", "bench-json"])
class TestUnwritableOutput:
    """Output that cannot be written ends in one error line and exit 2, never a traceback."""

    @staticmethod
    def _command(args, path):
        return [args[0], str(path), *args[1:]] if args[0] == "solve" else [*args, str(path.parent)]

    def test_closed_pipe(self, args, eq_ge_file):
        proc = _start_cli(self._command(args, eq_ge_file), subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before anything is written
        err = proc.stderr.read().decode()
        assert proc.wait() == 2
        assert "Traceback" not in err and "Exception ignored" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "Broken pipe" in line

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self, args, eq_ge_file):
        with open("/dev/full", "wb") as full:
            proc = _start_cli(self._command(args, eq_ge_file), full)
            err = proc.stderr.read().decode()
        assert proc.wait() == 2
        assert "Traceback" not in err and "Exception ignored" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "No space left" in line


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["--help"], ["solve", "--help"], ["bench", "-h"]],
                         ids=["help", "solve-help", "bench-help"])
class TestUnwritableHelp:
    """Help text that cannot be written ends like any other output.

    Buffered, the write fails at the flush; unbuffered, it fails in the
    write itself, whose error argparse alone would ignore.
    """

    def test_written_help_exits_0(self, args, unbuffered):
        proc = _start_cli(args, subprocess.PIPE, unbuffered)
        out, err = proc.communicate()
        assert proc.returncode == 0
        assert out.decode().startswith("usage: covsolve") and err == b""

    def test_closed_pipe(self, args, unbuffered):
        proc = _start_cli(args, subprocess.PIPE, unbuffered)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 2
        assert "Traceback" not in err and "Exception ignored" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "Broken pipe" in line

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self, args, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = _start_cli(args, full, unbuffered)
            err = proc.stderr.read().decode()
        assert proc.wait() == 2
        assert "Traceback" not in err and "Exception ignored" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "No space left" in line


class TestBenchCommand:
    def test_empty_directory(self, tmp_path, capsys):
        code = cli.main(["bench", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "solved 0/0" in out

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        code = cli.main(["bench", str(tmp_path / "missing")])
        assert code == 2

    def test_unlistable_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        def refuse(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "iterdir", refuse)
        code = cli.main(["bench", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Permission denied" in err

    def test_small_suite(self, tmp_path, capsys):
        (tmp_path / "a.prob").write_text(EQ_GE_TRACE)
        (tmp_path / "b.prob").write_text(SPLITTABLE_TRACE)
        (tmp_path / "broken.prob").write_text("var x :\n")
        code = cli.main(["bench", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "solved 2/3" in out
        assert "ERROR" in out

    def test_undecodable_file_is_an_error_row(self, tmp_path, capsys):
        (tmp_path / "a.prob").write_text(EQ_GE_TRACE)
        (tmp_path / "b.prob").write_bytes(b"\xff\xfe" + EQ_GE_TRACE.encode())
        (tmp_path / "c.prob").write_text(EQ_GE_TRACE)
        code = cli.main(["bench", str(tmp_path), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in doc["problems"]] == ["a", "b", "c"]
        assert doc["solved"] == 2
        assert "can't decode" in doc["problems"][1]["error"]

    def test_json_output(self, tmp_path, capsys):
        (tmp_path / "a.prob").write_text(EQ_GE_TRACE)
        code = cli.main(["bench", str(tmp_path), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        assert doc["solved"] == 1
        assert doc["problems"][0]["name"] == "a"
        assert doc["problems"][0]["error"] is None
        assert doc["mean_iterations_solved"] >= 1

    def test_identical_invocations_identical_json(self, tmp_path, capsys):
        (tmp_path / "a.prob").write_text(EQ_GE_TRACE)
        outputs = []
        for _ in range(2):
            assert cli.main(["bench", str(tmp_path), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_verbose_is_a_solve_flag_only(self, tmp_path):
        proc = _start_cli(["bench", str(tmp_path), "--verbose"], subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2 and out == b""
        assert b"error: unrecognized arguments: --verbose" in err
        assert b"Traceback" not in err

    def test_bundled_suite_is_large_enough(self):
        entries = [item for item in cli.bundled_suite_dir().iterdir()
                   if item.name.endswith(".prob")]
        assert len(entries) >= 30

    def test_bundled_json_matches_golden(self, capsys):
        golden = json.loads(GOLDEN.read_text())
        assert cli.main(["bench", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["problems"] == [
            {"name": name, "error": None, **record}
            for name, record in sorted(golden.items())]
        solved = [r for r in golden.values() if r["status"] == "SOLVED"]
        assert doc["solved"] == len(solved)
        assert doc["count"] == len(golden)
        assert doc["mean_iterations_solved"] == (
            sum(r["iterations"] for r in solved) / len(solved))
