"""Command-line harness: solve single problem files or benchmark suites.

``covsolve solve file.prob`` parses the file, reduces the problem, runs the
search, extends any solution back over reduced-away variables, re-verifies
it against the original problem, and reports the outcome (exit code 0 on
success, 1 on search failure, 2 on input errors).  Output that cannot be
written, to a closed pipe or a full device, ends any command with one
``error:`` line on stderr and exit code 2, never a traceback.

``covsolve bench [dir]`` runs every ``.prob`` file of a directory (the
bundled synthetic suite by default) under shared budgets and prints a
table plus aggregate statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Sequence

from .probelang import CompileError, ParseError, compile_spec, parse_spec, prefix_spec
from .problem import is_solution, reduce_problem
from .solver import SolverConfig, SolverResult, Status, solve
from .vecspace import Valuation


@dataclass(frozen=True)
class RunReport:
    """Outcome of solving one problem file.

    ``result`` is the solver's own record, except that its solution is
    already extended over the reduced-away variables (named in
    ``dropped``) and re-verified against the unreduced problem.
    """

    name: str
    result: SolverResult
    wall_time: float
    dropped: tuple[str, ...] = ()

    def to_json(self) -> dict:
        """The machine-readable form; key order is part of the format."""
        result = self.result
        solution = None
        if result.solution is not None:
            solution = {name: {"type": str(typ), "value": value}
                        for name, typ, value in _typed_values(result.solution)}
        return {
            "status": result.status.value,
            "solution": solution,
            "iterations": result.iterations_used,
            "evaluations": result.evaluations_used,
            "trace": [asdict(record) for record in result.log],
        }


def _typed_values(valuation: Valuation):
    sig = valuation.signature
    return zip(sig.names, sig.types, valuation.values)


class InputError(Exception):
    """A flag value or problem file is invalid, unreadable or does not compile."""


def _config_from_args(args: argparse.Namespace) -> SolverConfig:
    try:
        return SolverConfig(
            max_iterations=args.max_iterations,
            max_evaluations=args.max_evals,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _read_problem_file(path) -> str:
    """A problem file's text, less a leading UTF-8 byte-order mark.

    Unreadable or non-UTF-8 files are input errors.
    """
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path.name}: {exc}") from exc


def _load_problem(name: str, text: str, prefix: int | None):
    """Parse and compile a problem file; returns (problem, reduction)."""
    try:
        spec = parse_spec(text)
        if prefix is not None:
            spec = prefix_spec(spec, prefix)
        problem = compile_spec(spec)
    except (ParseError, CompileError, ValueError) as exc:
        raise InputError(f"{name}: {exc}") from exc
    return problem, reduce_problem(problem)


def run_problem(name: str, text: str, config: SolverConfig,
                prefix: int | None = None) -> RunReport:
    """Solve one problem document and package the result."""
    problem, reduction = _load_problem(name, text, prefix)
    started = time.perf_counter()
    result = solve(reduction.problem, config)
    elapsed = time.perf_counter() - started
    if result.solved:
        solution = reduction.extend(result.solution)
        if is_solution(problem, solution):
            result = replace(result, solution=solution)
        else:  # pragma: no cover - safety net
            result = replace(result, status=Status.FAILED_NO_PROGRESS, solution=None)
    return RunReport(name, result, elapsed, tuple(n for n, _, _ in reduction.dropped))


def _print_human_report(report: RunReport, verbose: bool, out) -> None:
    result = report.result
    print(f"problem: {report.name}", file=out)
    print(f"status: {result.status.value}", file=out)
    if result.solution is not None:
        print("solution:", file=out)
        for name, typ, value in _typed_values(result.solution):
            print(f"  {name} : {typ} = {value!r}", file=out)
    if report.dropped:
        print(f"dropped by reduction: {', '.join(report.dropped)}", file=out)
    print(f"iterations: {result.iterations_used}", file=out)
    print(f"evaluations: {result.evaluations_used}", file=out)
    print(f"wall time: {report.wall_time:.3f} s", file=out)
    if verbose:
        for r in result.log:
            print(f"  iter {r.iteration:3d}  {r.source:9s}  value {r.value!r}", file=out)


def cmd_solve(args: argparse.Namespace) -> int:
    path = Path(args.file)
    report = run_problem(path.stem, _read_problem_file(path),
                         _config_from_args(args), args.prefix)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        _print_human_report(report, args.verbose, sys.stdout)
    return 0 if report.result.solved else 1


def bundled_suite_dir():
    """The packaged benchmark problems."""
    return resources.files("covsolve").joinpath("benchmarks")


def cmd_bench(args: argparse.Namespace) -> int:
    if args.dir is None:
        root = bundled_suite_dir()
    else:
        root = Path(args.dir)
        if not root.is_dir():
            raise InputError(f"{root} is not a directory")
    try:
        entries = sorted(
            (item for item in root.iterdir() if item.name.endswith(".prob")),
            key=lambda item: item.name)
    except OSError as exc:
        raise InputError(str(exc)) from exc
    config = _config_from_args(args)

    rows: list[tuple[str, RunReport | None, str | None]] = []  # name, report, error
    for index, entry in enumerate(entries):
        name = entry.name[:-len(".prob")]
        problem_config = replace(config, rng_seed=args.seed + index)
        try:
            rows.append((name, run_problem(name, _read_problem_file(entry),
                                           problem_config), None))
        except InputError as exc:
            rows.append((name, None, str(exc)))
    reports = [report for _, report, _ in rows if report is not None]
    solved = [report.result for report in reports if report.result.solved]
    mean_iters = (sum(r.iterations_used for r in solved) / len(solved)) if solved else None

    if args.json:
        print(json.dumps({
            "problems": [
                {"name": name, "error": error,
                 **(report.to_json() if report is not None else {})}
                for name, report, error in rows
            ],
            "solved": len(solved),
            "count": len(rows),
            "mean_iterations_solved": mean_iters,
        }, indent=2))
        return 0

    width = max((len(name) for name, _, _ in rows), default=4)
    for name, report, error in rows:
        if report is None:
            print(f"{name:<{width}}  ERROR  {error}")
        else:
            result = report.result
            print(f"{name:<{width}}  {result.status.value:<18}  "
                  f"iters {result.iterations_used:3d}  evals {result.evaluations_used:6d}  "
                  f"{report.wall_time:7.3f} s")
    fraction = (len(solved) / len(rows)) if rows else 0.0
    total_time = sum(report.wall_time for report in reports)
    print(f"solved {len(solved)}/{len(rows)} ({fraction:.0%})"
          + (f", mean iterations {mean_iters:.1f}" if mean_iters is not None else "")
          + f", total {total_time:.2f} s")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but help text that cannot be written raises, not passes."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="covsolve",
        description="Search for inputs that flip the last branch of an executed path.")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = SolverConfig()

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--max-iterations", type=int, default=defaults.max_iterations,
                       help=f"iteration budget (default {defaults.max_iterations})")
        p.add_argument("--max-evals", type=int, default=defaults.max_evaluations,
                       help=f"black-box call budget (default {defaults.max_evaluations})")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p_solve = sub.add_parser("solve", help="solve one .prob file")
    p_solve.add_argument("file", help="problem file")
    p_solve.add_argument("--prefix", type=int, default=None, metavar="K",
                         help="solve the problem for the first K trace entries")
    p_solve.add_argument("--verbose", action="store_true",
                         help="show the per-iteration trace")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a directory of .prob files")
    p_bench.add_argument("dir", nargs="?", default=None,
                         help="directory of problems (default: bundled suite)")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        finally:  # also after --help, which ends parse_args with SystemExit
            sys.stdout.flush()  # a write that fails raises here, not at exit
    except OSError as exc:  # standard output is a closed pipe or a full device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # drop what is buffered
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
