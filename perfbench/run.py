"""The covsolve benchmark: seeded workloads solved through the library path.

Run from the repository root:

    python3 perfbench/run.py --workload chain-scale --seed 0 --seconds 15 --trace 0

Each problem goes the way ``covsolve.cli.run_problem`` takes it:
``parse_spec`` -> ``compile_spec`` -> ``reduce_problem`` -> ``solve`` ->
``Reduction.extend``, and then through this benchmark's own check against an
oracle that does not use covsolve (see ``workloads.py``).  Problems are
solved one after another in this one process, problem ``i`` with solver
seed ``seed + i``.

Times are process CPU time, so the time the machine spends on other
processes while this one waits is left out.  On a shared host the same CPU
work still takes up to twice as long at one moment as at another, so every
timed piece of work is bracketed by a fixed calibration loop
(``calibration``) and scaled to reference seconds: CPU seconds times
``CAL_REF_S`` over the mean of the two calibrations around it.  The process
pins itself to one CPU, so calibrations run where the work runs.  The
unscaled CPU seconds are printed too.

Set-up is timed ``SETUP_REPEATS`` times: a fresh interpreter that imports
covsolve, then generation, parsing, compiling and reduction in this
process; ``setup_s`` is the median round.  The measured phase then solves
every problem in a fixed number of passes, ``--seconds`` over the
nominal pass time ``PASS_S``, so every version of the program
gets the same number of samples: with ``--trace 0`` untraced passes, and
with ``--trace 1`` untraced and traced passes in turn.  Every pass must
give the same statuses, evaluations, iterations and accepted candidates.
A problem's solve time is the median of its untraced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``spans.py`` with
``--trace 1``.  No metric in it can read 0; counts that can (wrong
solutions, crashes, per-layer error counts) are printed above it.
``attempted`` counts solves over all passes; ``failed`` counts solves that
raised or returned a wrong solution.  Searches that end without a
solution lower ``solved_frac``.  A wrong solution makes the exit code 1.
Traced runs write their spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Set-up rounds per run; costly-calls parses 0.8 MB per round.
SETUP_REPEATS = {"chain-scale": 5, "hard-search": 5, "costly-calls": 3}

#: Set-up work between two calibrations, in CPU seconds at least: parsing a
#: small problem takes less time than a calibration.
SETUP_PIECE_S = 0.05
CLOCK = time.process_time

#: Iterations of the calibration loop, and its CPU seconds on the reference
#: machine (a 2-core x86-64 VM, when no other tenant slows it down).
CAL_REPS = 3000
CAL_REF_S = 0.0045

#: Nominal seconds of one untraced pass, about what each workload's pass
#: takes on a 2-core x86-64 VM at the first version of this benchmark.  Only
#: the pass count depends on it: a faster program gets the same number of
#: passes, not more.
PASS_S = 5.0

#: Iteration budget per solve.  Chains solve in one iteration unless the
#: search creeps along a float32 or integer grid.  On chain-scale, where
#: a creeping iteration costs a line step over 12 or 16 variables, the cap
#: of three bounds what one creeping chain adds to a pass, and the creep
#: shows as a budget failure that lowers solved_frac.  costly-calls keeps the
#: command-line default: its chains finish within 7 iterations, so their
#: creep shows as black-box calls, the cost that workload is about, and
#: solved_frac does not jump by a fortieth with the seed.
#: hard-search, which is about such searches, keeps the default as well.
MAX_ITERATIONS = {"chain-scale": 3, "hard-search": 100, "costly-calls": 100}

#: End-to-end metrics in the JSON result, as (name, unit).  None of them
#: can read 0.  fail_frac and wrong_solutions can, so they are printed above
#: the result: fail_frac is 1 - solved_frac, and a wrong solution also shows
#: as correct=false, in failed and in the exit code.
END_TO_END = (
    ("solved_frac", "frac"),
    ("wall_s", "s"),
    ("solve_p50_s", "s"),
    ("solve_p75_s", "s"),
    ("evals_total", "count"),
    ("iterations_total", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Outcome:
    """One solve of one problem."""

    status: str
    evaluations: int
    iterations: int
    seconds: float                 # CPU seconds
    scaled: float                  # reference seconds, see calibration()
    accepted: tuple[str, ...]      # generator of each accepted candidate
    error: str | None = None       # crash message or failed solution check

    @property
    def crashed(self) -> bool:
        return self.status == "CRASHED"

    @property
    def wrong(self) -> bool:
        return self.status == "SOLVED" and self.error is not None

    def signature(self) -> tuple:
        return (self.status, self.evaluations, self.iterations, self.accepted, self.error)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="nominal length of the measured phase; sets the pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Stopwatch:
    """CPU and reference seconds of consecutive pieces of work.

    Each piece is bracketed by calls to ``calibration``; neighbouring pieces
    share one, so a long stretch of work is scaled piece by piece.
    """

    def __init__(self):
        self.cpu = 0.0
        self.scaled = 0.0
        self._before = calibration()

    def add(self, seconds: float) -> float:
        """Count a piece of ``seconds`` CPU seconds; returns its reference seconds."""
        after = calibration()
        scaled = seconds * CAL_REF_S / ((self._before + after) / 2)
        self._before = after
        self.cpu += seconds
        self.scaled += scaled
        return scaled


def load(problems, parse_spec, compile_spec, reduce_problem, watch=None):
    """Parse, compile and reduce every problem, timing them on ``watch``.

    Returns (problem, reduction, error) triples; a problem that raises gets
    no reduction and the error message instead.
    """
    out = []
    piece = 0.0
    for p in problems:
        started = CLOCK()
        try:
            out.append((p, reduce_problem(compile_spec(parse_spec(p.text))), None))
        except Exception as exc:  # one broken problem, not the end of the run
            out.append((p, None, f"{p.name}: set-up: {type(exc).__name__}: {exc}"))
        piece += CLOCK() - started
        if watch is not None and (piece >= SETUP_PIECE_S or p is problems[-1]):
            watch.add(piece)
            piece = 0.0
    return out


def solve_pass(loaded, seed, max_iterations, solve, SolverConfig) -> list[Outcome]:
    """Solve every problem once, in order, and check each solution."""
    out = []
    watch = Stopwatch()
    for index, (problem, reduction, error) in enumerate(loaded):
        if reduction is None:
            out.append(Outcome("CRASHED", 0, 0, 0.0, 0.0, (), error))
            continue
        config = SolverConfig(max_iterations=max_iterations,
                              rng_seed=(seed + index) % 2**32)
        started = CLOCK()
        try:
            result = solve(reduction.problem, config)
            seconds = CLOCK() - started
            error = None
            if result.solved:
                full = reduction.extend(result.solution)
                error = workloads.check_solution(problem, dict(full.items()))
        except Exception as exc:  # a crash is one failed solve, not the end of the run
            seconds = CLOCK() - started
            out.append(Outcome("CRASHED", 0, 0, seconds, watch.add(seconds), (),
                               f"{problem.name}: {type(exc).__name__}: {exc}"))
            continue
        out.append(Outcome(result.status.value, result.evaluations_used,
                           result.iterations_used, seconds, watch.add(seconds),
                           tuple(r.source for r in result.log),
                           None if error is None else f"{problem.name}: {error}"))
    return out


def calibration() -> float:
    """CPU seconds of a fixed loop of interpreter and small-array numpy work.

    The loop is the same in every version of the program, so its time
    tracks only how fast the machine runs at the moment.
    """
    import numpy
    a = numpy.arange(8.0)
    s = 0
    started = CLOCK()
    for i in range(CAL_REPS):
        s += i * i
        a = a * 1.0000001 + 0.5
    return CLOCK() - started


def pass_count(args) -> int:
    """Measured passes: ``--seconds`` over the nominal pass time, at least one."""
    return max(1, round(args.seconds / PASS_S))


def measure(loaded, args, covsolve, spans):
    """Run ``pass_count`` passes, alternating untraced and traced ones with --trace 1.

    Returns the outcomes and reference seconds (the sum of the scaled solve
    times) of untraced and traced passes, and the tracer of each traced pass.
    """
    max_iterations = MAX_ITERATIONS[args.workload]
    kinds = (False, True) if args.trace else (False,)
    passes: dict[bool, list[list[Outcome]]] = {False: [], True: []}
    pass_s: dict[bool, list[float]] = {False: [], True: []}
    tracers = []
    for done in range(max(len(kinds), pass_count(args))):
        traced = kinds[done % len(kinds)]
        if traced:
            tracer = spans.Tracer()
            run_on = [(p, r and type(r)(tracer.black_box(r.problem), r.original_signature,
                                        r.dropped), e) for p, r, e in loaded]
            with spans.installed(tracer):
                outcomes = solve_pass(run_on, args.seed, max_iterations,
                                      tracer.solve, covsolve.SolverConfig)
            tracers.append(tracer)
        else:
            outcomes = solve_pass(loaded, args.seed, max_iterations,
                                  covsolve.solve, covsolve.SolverConfig)
        pass_s[traced].append(sum(o.scaled for o in outcomes))
        passes[traced].append(outcomes)
    return passes, pass_s, tracers


def import_seconds() -> float:
    """CPU seconds of a fresh interpreter that imports covsolve and exits."""
    def used():
        r = resource.getrusage(resource.RUSAGE_CHILDREN)
        return r.ru_utime + r.ru_stime
    before = used()
    subprocess.run([sys.executable, "-c", "import covsolve, covsolve.cli"],
                   env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return used() - before


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    # One CPU for this process and the interpreters it starts, so that the
    # calibrations run where the work they scale runs.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    if not (SRC / "covsolve").is_dir():
        print(f"error: no covsolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import covsolve
    import covsolve.cli
    import numpy
    import spans
    calibration()  # the first call also warms up the loop's code and memory

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "covsolve": covsolve.__version__,
            "max_iterations": MAX_ITERATIONS[args.workload],
            "passes": max(1 + args.trace, pass_count(args))}
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))

    api = (covsolve.parse_spec, covsolve.compile_spec, covsolve.reduce_problem)
    bundled = (covsolve.cli.bundled_suite_dir()
               if args.workload == "hard-search" else None)
    setup_tracer = spans.Tracer()
    if args.trace:
        api = tuple(setup_tracer.wrap(name, fn)
                    for name, fn in zip(("parse", "compile", "reduce"), api))
    setup_times = []  # (CPU seconds, reference seconds) per round
    for _ in range(1 if args.trace else SETUP_REPEATS[args.workload]):
        watch = Stopwatch()
        if not args.trace:
            watch.add(import_seconds())
        t0 = CLOCK()
        problems = workloads.generate(args.workload, args.seed, bundled)
        watch.add(CLOCK() - t0)
        loaded = load(problems, *api, watch)
        setup_times.append((watch.cpu, watch.scaled))

    passes, pass_s, tracers = measure(loaded, args, covsolve, spans)
    first = passes[False][0]
    every_pass = passes[False] + passes[True]
    reference = [o.signature() for o in first]
    deterministic = all([o.signature() for o in p] == reference for p in every_pass)
    if not deterministic:
        print("# passes disagree on statuses, evaluations or iterations", file=sys.stderr)
    for o in first:
        if o.error:
            print(f"# failed: {o.error}", file=sys.stderr)
    n = len(first)
    wrong = sum(o.wrong for p in every_pass for o in p)
    crashed = sum(o.crashed for p in every_pass for o in p)
    statuses = Counter(o.status for o in first)
    print("# statuses: " + ", ".join(f"{k} {v}" for k, v in sorted(statuses.items())))

    printed = {}  # counts that can read 0, shown above the result only
    if args.trace:
        accepted = Counter(source for o in first for source in o.accepted)
        reduced = [r for _, r, _ in loaded if r is not None]
        kept = sum(len(r.problem.signature.names) for r in reduced)
        dropped = sum(len(r.dropped) for r in reduced)
        overhead = min(pass_s[True]) / min(pass_s[False]) - 1.0
        per_pass = [spans.layer_metrics(setup_tracer, tr, accepted, kept, dropped, overhead)
                    for tr in tracers]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name, _ in spans.PER_LAYER}
        units = dict(spans.PER_LAYER)
        printed = {name: (statistics.median(m[name] for m in per_pass), unit)
                   for name, unit in spans.ZERO_PRONE}
        consistent = values["problem.bb_calls"] == sum(o.evaluations for o in first)
        if not consistent:
            print("# traced black-box calls differ from the solver's evaluations",
                  file=sys.stderr)
        out_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        spans.write_spans(out_path, {"setup": setup_tracer,
                                     **{f"pass{i}": tr for i, tr in enumerate(tracers)}},
                          info)
        print(f"# {len(passes[False])} untraced and {len(passes[True])} traced passes "
              f"of {n} problems; per-layer values are medians over the traced passes; "
              f"spans in {out_path.relative_to(ROOT)}")
        print(f"# solve time split: line step {values['solver.line_step_share']:.1%}, "
              f"candidate loop {values['solver.cand_loop_share']:.1%}, "
              f"black-box calls {values['problem.bb_share']:.1%}")
        print(f"# ratio bases: accept_ratio over {values['solver.cand_evaluated']:.0f} "
              f"candidates evaluated; bb_repeat_frac over {values['problem.bb_calls']:.0f} "
              f"calls; shares over solver.solve_s")
    else:
        consistent = True
        times = [statistics.median(p[i].scaled for p in passes[False]) for i in range(n)]
        cpu = [statistics.median(p[i].seconds for p in passes[False]) for i in range(n)]
        q = statistics.quantiles(times, n=4, method="inclusive")
        first_wrong = sum(o.wrong for o in first)
        solved = sum(o.status == "SOLVED" and not o.wrong for o in first)
        values = {
            "solved_frac": solved / n,
            "wall_s": sum(times),
            "solve_p50_s": q[1],
            "solve_p75_s": q[2],
            "evals_total": sum(o.evaluations for o in first),
            "iterations_total": sum(o.iterations for o in first),
            "setup_s": statistics.median(scaled for _, scaled in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        printed = {"fail_frac": (1 - solved / n, "frac"),
                   "wrong_solutions": (first_wrong, "count")}
        print(f"# {len(passes[False])} passes of {n} problems; times are reference "
              f"seconds; a problem's time is its median pass; p50/p75 over n={n} "
              f"problems; setup timed {len(setup_times)} times, median reported")
        print(f"# unscaled CPU seconds: wall {sum(cpu):.3f}, setup "
              f"{statistics.median(cpu_s for cpu_s, _ in setup_times):.3f}; passes "
              + " ".join(f"{sum(o.seconds for o in p):.3f}" for p in passes[False]))

    for name, value in values.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    for name, (value, unit) in printed.items():
        print(f"# {name:32s} {value:16.6f} {unit}")
    result = {
        "correct": wrong == 0 and deterministic and consistent,
        "attempted": n * len(every_pass),
        "failed": crashed + wrong,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
