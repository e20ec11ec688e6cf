"""Per-layer tracing of covsolve from outside the program.

A ``Tracer`` wraps public functions where their callers look them up (the
``covsolve.solver`` module globals, ``covsolve.numerics.round_vector`` and
``BasisChain.lift``) and every black-box function through the public
``BlackBoxFn`` and ``CoverageProblem`` constructors.  Each wrapped call
records a span (id, parent, name, start, end) in flat integer arrays, so a
pass of a million spans stays small and out of the garbage collector's way.
Spans are kept in memory and written out when the run ends.

A span's self time is its duration minus the durations of its children;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import covsolve.localspace as localspace
import covsolve.numerics as numerics
import covsolve.solver as solver
from covsolve.constraints import satisfies_all
from covsolve.numerics import NoStepError
from covsolve.problem import BlackBoxFn, CoverageProblem
from covsolve.vecspace import ExtractionError

GENERATORS = (solver.GRAD_STEP, solver.BIT_MUT, solver.RANDOM)

#: Per-layer metrics, as (name, unit), in the order they are reported.
PER_LAYER = (
    ("probelang.parse_s", "s"),
    ("probelang.compile_s", "s"),
    ("problem.reduce_s", "s"),
    ("problem.kept_vars", "count"),
    ("problem.bb_calls", "count"),
    ("problem.bb_s", "s"),
    ("problem.bb_repeat_frac", "frac"),
    ("problem.bb_share", "frac"),
    ("problem.eval_prefix_calls", "count"),
    ("problem.eval_prefix_self_s", "s"),
    ("numerics.line_eps_calls", "count"),
    ("numerics.line_eps_self_s", "s"),
    ("numerics.fd_gradient_calls", "count"),
    ("numerics.fd_gradient_self_s", "s"),
    ("vecspace.round_vector_calls", "count"),
    ("vecspace.round_vector_s", "s"),
    ("vecspace.extract_calls", "count"),
    ("vecspace.extract_s", "s"),
    ("localspace.next_basis_calls", "count"),
    ("localspace.next_basis_s", "s"),
    ("localspace.lift_calls", "count"),
    ("localspace.lift_s", "s"),
    ("constraints.clip_calls", "count"),
    ("constraints.clip_s", "s"),
    ("constraints.transform_calls", "count"),
    ("solver.solve_s", "s"),
    ("solver.build_spaces_self_s", "s"),
    ("solver.line_step_share", "frac"),
    ("solver.cand_loop_share", "frac"),
    ("solver.gen_s.grad-step", "s"),
    ("solver.candidates.grad-step", "count"),
    ("solver.accepted.grad-step", "count"),
    ("solver.cand_evaluated", "count"),
    ("solver.accept_ratio", "frac"),
    ("solver.overhead_us_per_eval", "us"),
    ("trace.overhead_frac", "frac"),
)

#: Per-layer values that can read 0: error and event counts that are 0 when
#: nothing goes wrong, dropped variables (none on chains), and the bit-mut
#: and random generators, which chains never reach.  No metric in the JSON
#: result reads 0, so these are printed above it.
ZERO_PRONE = (
    ("problem.dropped_vars", "count"),
    ("problem.bb_failed", "count"),
    ("numerics.line_eps_nostep", "count"),
    ("vecspace.extract_errors", "count"),
    ("constraints.clip_outside", "count"),
    ("constraints.transform_dropped", "count"),
    *((f"solver.{kind}.{g}", unit) for g in GENERATORS[1:]
      for kind, unit in (("gen_s", "s"), ("candidates", "count"), ("accepted", "count"))),
)


class Tracer:
    """Spans and event counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self._seen: set = set()
        self._solve = self.wrap("solve", solver.solve)

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name, fn, *, errors=(), after=None):
        """``fn`` recording one span per call.

        Exceptions in ``errors`` are counted as ``<name>.raised`` and
        re-raised; ``after(args, result)`` runs once the span has ended.
        """
        code = self._code(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns
        raised = name + ".raised"

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(code)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            except errors:
                counts[raised] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def black_box(self, problem: CoverageProblem) -> CoverageProblem:
        """``problem`` with each function's calls traced, built anew."""
        fns = tuple(BlackBoxFn(fn.params, self._traced_eval(index, fn.eval), fn.name)
                    for index, fn in enumerate(problem.fns))
        return CoverageProblem(fns, problem.comps, problem.init)

    def _traced_eval(self, index, evaluate):
        timed = self.wrap("bb", evaluate)
        counts, seen, stack = self.counts, self._seen, self._stack

        def traced(valuation):
            if len(stack) == 1:  # outside any span: the constructor's own check
                return evaluate(valuation)
            key = (index, valuation.values)
            if key in seen:
                counts["bb.repeat"] += 1
            else:
                seen.add(key)
            result = timed(valuation)
            if result is None or not math.isfinite(float(result)):
                counts["bb.failed"] += 1
            return result

        return traced

    def solve(self, problem, config):
        """``covsolve.solve`` in a ``solve`` span; repeats are counted per solve."""
        self._seen.clear()
        return self._solve(problem, config)

    def dump(self) -> dict:
        return {"names": self.names, "name": self.name.tolist(),
                "parent": self.parent.tolist(), "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(), "counts": dict(self.counts)}


def _clip_outside(tracer):
    def after(args, result):
        if not satisfies_all(result, args[1]):
            tracer.counts["clip.outside"] += 1
    return after


def _transform_dropped(tracer):
    def after(args, result):
        if result is None:
            tracer.counts["transform.dropped"] += 1
    return after


def _candidates(tracer, name):
    def after(args, result):
        tracer.counts[f"{name}.candidates"] += len(result)
    return after


@contextmanager
def installed(tracer: Tracer):
    """Route covsolve's internal calls through ``tracer`` for the block."""
    patches = [
        (solver, "build_spaces", "build_spaces", {}),
        (solver, "eval_prefix", "eval_prefix", {}),
        (solver, "finite_diff_gradient", "fd_gradient", {}),
        (solver, "epsilon_along_line", "line_eps", {"errors": (NoStepError,)}),
        (solver, "next_basis", "next_basis", {}),
        (solver, "transform_constraint", "transform",
         {"after": _transform_dropped(tracer)}),
        (solver, "clip", "clip", {"after": _clip_outside(tracer)}),
        (solver, "extract", "extract", {"errors": (ExtractionError,)}),
        (solver, "grad_step_candidates", f"gen.{solver.GRAD_STEP}",
         {"after": _candidates(tracer, solver.GRAD_STEP)}),
        (solver, "bit_mutation_candidates", f"gen.{solver.BIT_MUT}",
         {"after": _candidates(tracer, solver.BIT_MUT)}),
        (solver, "random_candidates", f"gen.{solver.RANDOM}",
         {"after": _candidates(tracer, solver.RANDOM)}),
        (numerics, "round_vector", "round_vector", {}),
        (localspace.BasisChain, "lift", "lift", {}),
    ]
    originals = []
    try:
        for owner, attr, name, options in patches:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, **options))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def self_times(parents, durations) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = list(durations)
    for span, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[span]
    return own


def summarize(tracer: Tracer) -> dict:
    """Per span name of one tracer: calls, total and self nanoseconds.

    Also returns the line-step time (line_eps spans under build_spaces) and
    the number of eval_prefix calls made directly by solve (candidate checks).
    """
    names = [tracer.names[c] for c in tracer.name]
    parents = tracer.parent
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    own = self_times(parents, durations)
    under_build = [False] * len(names)
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    line_step_ns = 0
    cand_evaluated = 0
    for i, name in enumerate(names):
        p = parents[i]
        under_build[i] = p >= 0 and (names[p] == "build_spaces" or under_build[p])
        calls[name] += 1
        total[name] += durations[i]
        self_ns[name] += own[i]
        if name == "line_eps" and under_build[i]:
            line_step_ns += durations[i]
        if name == "eval_prefix" and p >= 0 and names[p] == "solve":
            cand_evaluated += 1
    return {"calls": calls, "total_ns": total, "self_ns": self_ns,
            "line_step_ns": line_step_ns, "cand_evaluated": cand_evaluated}


def layer_metrics(setup: Tracer, traced: Tracer, accepted: Counter, kept_vars: int,
                  dropped_vars: int, overhead_frac: float) -> dict[str, float]:
    """The PER_LAYER and ZERO_PRONE values from a traced setup and one traced pass."""
    s = summarize(setup)
    t = summarize(traced)
    calls, total, own = t["calls"], t["total_ns"], t["self_ns"]
    counts = traced.counts

    def sec(ns):
        return ns / 1e9

    solve_ns = total["solve"]
    bb_calls = calls["bb"]
    cand = t["cand_evaluated"]
    out = {
        "probelang.parse_s": sec(s["total_ns"]["parse"]),
        "probelang.compile_s": sec(s["total_ns"]["compile"]),
        "problem.reduce_s": sec(s["total_ns"]["reduce"]),
        "problem.kept_vars": kept_vars,
        "problem.dropped_vars": dropped_vars,
        "problem.bb_calls": bb_calls,
        "problem.bb_s": sec(total["bb"]),
        "problem.bb_failed": counts["bb.failed"],
        "problem.bb_repeat_frac": counts["bb.repeat"] / bb_calls if bb_calls else 0.0,
        "problem.bb_share": total["bb"] / solve_ns if solve_ns else 0.0,
        "problem.eval_prefix_calls": calls["eval_prefix"],
        "problem.eval_prefix_self_s": sec(own["eval_prefix"]),
        "numerics.line_eps_calls": calls["line_eps"],
        "numerics.line_eps_self_s": sec(own["line_eps"]),
        "numerics.line_eps_nostep": counts["line_eps.raised"],
        "numerics.fd_gradient_calls": calls["fd_gradient"],
        "numerics.fd_gradient_self_s": sec(own["fd_gradient"]),
        "vecspace.round_vector_calls": calls["round_vector"],
        "vecspace.round_vector_s": sec(total["round_vector"]),
        "vecspace.extract_calls": calls["extract"],
        "vecspace.extract_s": sec(total["extract"]),
        "vecspace.extract_errors": counts["extract.raised"],
        "localspace.next_basis_calls": calls["next_basis"],
        "localspace.next_basis_s": sec(total["next_basis"]),
        "localspace.lift_calls": calls["lift"],
        "localspace.lift_s": sec(total["lift"]),
        "constraints.clip_calls": calls["clip"],
        "constraints.clip_s": sec(total["clip"]),
        "constraints.clip_outside": counts["clip.outside"],
        "constraints.transform_calls": calls["transform"],
        "constraints.transform_dropped": counts["transform.dropped"],
        "solver.solve_s": sec(solve_ns),
        "solver.build_spaces_self_s": sec(own["build_spaces"]),
        "solver.line_step_share": t["line_step_ns"] / solve_ns if solve_ns else 0.0,
        "solver.cand_loop_share":
            (solve_ns - total["build_spaces"]) / solve_ns if solve_ns else 0.0,
        "solver.cand_evaluated": cand,
        "solver.accept_ratio": sum(accepted.values()) / cand if cand else 0.0,
        "solver.overhead_us_per_eval":
            (solve_ns - total["bb"]) / 1e3 / bb_calls if bb_calls else 0.0,
        "trace.overhead_frac": overhead_frac,
    }
    for g in GENERATORS:
        out[f"solver.gen_s.{g}"] = sec(total[f"gen.{g}"])
        out[f"solver.candidates.{g}"] = counts[f"{g}.candidates"]
        out[f"solver.accepted.{g}"] = accepted[g]
    return out


def write_spans(path, tracers: dict[str, Tracer], info: dict) -> None:
    """Write every tracer's spans, with run information, as gzipped JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"info": info, "tracers": {key: tr.dump() for key, tr in tracers.items()}}
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(doc, fh)
