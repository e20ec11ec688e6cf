"""Command-line harness: solve single problem files or benchmark suites.

``covsolve solve file.prob`` parses the file, reduces the problem, runs the
search, extends any solution back over reduced-away variables, re-verifies
it against the original problem, and reports the outcome (exit code 0 on
success, 1 on search failure, 2 on input errors).

``covsolve bench [dir]`` runs every ``.prob`` file of a directory (the
bundled synthetic suite by default) under shared budgets and prints a
table plus aggregate statistics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .probelang import CompileError, ParseError, compile_spec, parse_spec, prefix_spec
from .problem import is_solution, reduce_problem
from .solver import SolverConfig, Status, solve
from .vecspace import Valuation


@dataclass(frozen=True)
class RunReport:
    """Outcome of solving one problem file."""

    name: str
    status: str
    solution: Valuation | None
    iterations: int
    evaluations: int
    wall_time: float
    trace: tuple[tuple[int, str, float], ...]  # (iteration, source, value)
    dropped: tuple[str, ...] = ()

    def to_json(self) -> dict:
        """The machine-readable form; key order is part of the format."""
        solution = None
        if self.solution is not None:
            sig = self.solution.signature
            solution = {
                name: {"type": str(typ), "value": value}
                for name, typ, value in zip(sig.names, sig.types, self.solution.values)
            }
        return {
            "status": self.status,
            "solution": solution,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "trace": [
                {"iteration": it, "source": source, "value": value}
                for it, source, value in self.trace
            ],
        }


@dataclass(frozen=True)
class SuiteReport:
    """Aggregate outcome of a benchmark directory run."""

    entries: tuple[tuple[str, RunReport | None, str | None], ...]  # name, report, error
    total_wall_time: float

    @property
    def count(self) -> int:
        return len(self.entries)

    @property
    def solved(self) -> list[RunReport]:
        return [r for _, r, _ in self.entries if r is not None and r.status == "SOLVED"]

    @property
    def mean_iterations_solved(self) -> float | None:
        solved = self.solved
        if not solved:
            return None
        return sum(r.iterations for r in solved) / len(solved)

    def to_json(self) -> dict:
        return {
            "problems": [
                {"name": name, "error": error,
                 **(report.to_json() if report is not None else {})}
                for name, report, error in self.entries
            ],
            "solved": len(self.solved),
            "count": self.count,
            "mean_iterations_solved": self.mean_iterations_solved,
            "total_wall_time": self.total_wall_time,
        }


class InputError(Exception):
    """A problem file could not be read, parsed, or compiled."""


def _config_from_args(args: argparse.Namespace, seed: int | None = None) -> SolverConfig:
    return SolverConfig(
        max_iterations=args.max_iterations,
        max_evaluations=args.max_evals,
        rng_seed=args.seed if seed is None else seed,
        tangent_projection=not args.no_tangent_projection,
    )


def _read_problem_file(path) -> str:
    """A problem file's text; unreadable or non-UTF-8 files are input errors."""
    try:
        return path.read_text(encoding="utf-8")
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

    solution = None
    status = result.status.value
    if result.status is Status.SOLVED:
        solution = reduction.extend(result.solution)
        if not is_solution(problem, solution):  # pragma: no cover - safety net
            status = Status.FAILED_NO_PROGRESS.value
            solution = None
    return RunReport(
        name=name,
        status=status,
        solution=solution,
        iterations=result.iterations_used,
        evaluations=result.evaluations_used,
        wall_time=elapsed,
        trace=tuple((r.iteration, r.source, r.value) for r in result.log),
        dropped=tuple(n for n, _, _ in reduction.dropped),
    )


def _print_human_report(report: RunReport, verbose: bool, out) -> None:
    print(f"problem: {report.name}", file=out)
    print(f"status: {report.status}", file=out)
    if report.solution is not None:
        print("solution:", file=out)
        sig = report.solution.signature
        for name, typ, value in zip(sig.names, sig.types, report.solution.values):
            print(f"  {name} : {typ} = {value!r}", file=out)
    if report.dropped:
        print(f"dropped by reduction: {', '.join(report.dropped)}", file=out)
    print(f"iterations: {report.iterations}", file=out)
    print(f"evaluations: {report.evaluations}", file=out)
    print(f"wall time: {report.wall_time:.3f} s", file=out)
    if verbose:
        for iteration, source, value in report.trace:
            print(f"  iter {iteration:3d}  {source:9s}  value {value!r}", file=out)


def cmd_solve(args: argparse.Namespace) -> int:
    path = Path(args.file)
    try:
        report = run_problem(path.stem, _read_problem_file(path),
                             _config_from_args(args), args.prefix)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        _print_human_report(report, args.verbose, sys.stdout)
    return 0 if report.status == Status.SOLVED.value else 1


def bundled_suite_dir():
    """The packaged benchmark problems."""
    return resources.files("covsolve").joinpath("benchmarks")


def cmd_bench(args: argparse.Namespace) -> int:
    if args.dir is None:
        root = bundled_suite_dir()
    else:
        root = Path(args.dir)
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    entries = sorted(
        (item for item in root.iterdir() if item.name.endswith(".prob")),
        key=lambda item: item.name)
    try:
        _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results: list[tuple[str, RunReport | None, str | None]] = []
    total_time = 0.0
    for index, entry in enumerate(entries):
        name = entry.name[:-len(".prob")]
        config = _config_from_args(args, seed=args.seed + index)
        try:
            report = run_problem(name, _read_problem_file(entry), config)
        except InputError as exc:
            results.append((name, None, str(exc)))
            continue
        total_time += report.wall_time
        results.append((name, report, None))
    suite = SuiteReport(tuple(results), total_time)

    if args.json:
        print(json.dumps(suite.to_json(), indent=2))
        return 0

    width = max((len(name) for name, _, _ in suite.entries), default=4)
    for name, report, error in suite.entries:
        if report is None:
            print(f"{name:<{width}}  ERROR  {error}")
        else:
            print(f"{name:<{width}}  {report.status:<18}  "
                  f"iters {report.iterations:3d}  evals {report.evaluations:6d}  "
                  f"{report.wall_time:7.3f} s")
    solved = len(suite.solved)
    fraction = (solved / suite.count) if suite.count else 0.0
    mean_iters = suite.mean_iterations_solved
    print(f"solved {solved}/{suite.count} ({fraction:.0%})"
          + (f", mean iterations {mean_iters:.1f}" if mean_iters is not None else "")
          + f", total {total_time:.2f} s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covsolve",
        description="Search for inputs that flip the last branch of an executed path.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--max-iterations", type=int, default=100,
                       help="iteration budget (default 100)")
        p.add_argument("--max-evals", type=int, default=100_000,
                       help="black-box call budget (default 100000)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--no-tangent-projection", action="store_true",
                       help="clip along plain normals in every round")
        p.add_argument("--verbose", action="store_true",
                       help="show the per-iteration trace")

    p_solve = sub.add_parser("solve", help="solve one .prob file")
    p_solve.add_argument("file", help="problem file")
    p_solve.add_argument("--prefix", type=int, default=None, metavar="K",
                         help="solve the problem for the first K trace entries")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a directory of .prob files")
    p_bench.add_argument("dir", nargs="?", default=None,
                         help="directory of problems (default: bundled suite)")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
