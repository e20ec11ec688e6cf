"""Tests of the benchmark's generator, oracle, solution check and tracing.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from covsolve import (  # noqa: E402
    I32, SolverConfig, Valuation, compile_spec, parse_spec, reduce_problem, solve,
)
from covsolve.cli import bundled_suite_dir  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def generated():
    return {w: workloads.generate(w, SEED, bundled_suite_dir()) for w in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def compiled(generated):
    return {w: [compile_spec(parse_spec(p.text)) for p in problems]
            for w, problems in generated.items()}


def test_same_seed_gives_identical_problems(generated):
    for w, problems in generated.items():
        again = workloads.generate(w, SEED, bundled_suite_dir())
        assert [p.text.encode() for p in again] == [p.text.encode() for p in problems]
        other = workloads.generate(w, SEED + 1, bundled_suite_dir())
        assert [p.text for p in other] != [p.text for p in problems]


def test_workloads_have_at_least_forty_problems(generated):
    for problems in generated.values():
        assert len(problems) >= 40
        assert len({p.name for p in problems}) == len(problems)


def test_chain_reduction_keeps_every_variable(compiled):
    for problem in compiled["chain-scale"] + compiled["costly-calls"]:
        assert reduce_problem(problem).dropped == ()


def test_hard_search_stays_small(generated):
    assert all(len(p.variables) <= 8 for p in generated["hard-search"])


def _random_value(rng, typ):
    if typ.is_integer:
        return rng.randint(max(typ.min_value, -10**6), min(typ.max_value, 10**6))
    return typ.nearest(rng.uniform(-1e3, 1e3))


def _agree(ours, theirs):
    return ours == theirs or (ours is None and theirs is None)


def test_oracle_agrees_with_compiled_black_box(generated, compiled):
    rng = random.Random(SEED)
    for w in workloads.WORKLOADS:
        for record, problem in zip(generated[w], compiled[w]):
            assert [(n, str(t)) for n, t in zip(problem.signature.names,
                                                problem.signature.types)] \
                == list(record.variables)
            points = [problem.init]
            for _ in range(3):
                points.append(Valuation(problem.signature, tuple(
                    _random_value(rng, t) for t in problem.signature.types)))
            for point in points:
                values = dict(point.items())
                for (expr, comp), fn, c in zip(record.abes, problem.fns, problem.comps):
                    assert comp == c.symbol
                    assert _agree(workloads.oracle_value(expr, values), fn.call(point)), \
                        (record.name, fn.name)


def test_check_accepts_solutions_and_rejects_bad_values():
    problem = workloads.read_problem("p", "var x : i32\nvar y : f32\n"
                                          "init x = 0\ninit y = 0\n"
                                          "abe x - y <= 0\nabe x - 5 >= 0\n")
    assert workloads.check_solution(problem, {"x": 5, "y": 6.0}) is None
    assert "non-integral" in workloads.check_solution(problem, {"x": 5.0, "y": 6.0})
    assert "outside" in workloads.check_solution(problem, {"x": 2**31, "y": 6.0})
    assert "32-bit" in workloads.check_solution(problem, {"x": 5, "y": 6.1})
    assert "abe 1" in workloads.check_solution(problem, {"x": 5, "y": 4.0})
    assert "abe 2" in workloads.check_solution(problem, {"x": 4, "y": 6.0})


def test_oracle_fails_like_the_text_format():
    values = {"x": 0.0}
    division = workloads.bin_("/", workloads.lit(1), workloads.var("x"))
    assert workloads.evaluate(division, values) is None
    big = workloads.bin_("*", workloads.lit(1e300), workloads.lit(1e300))
    assert workloads.evaluate(big, values) is None


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 100] with children [10, 30] and [40, 60]; [15, 20] under the first
    parents = [-1, 0, 1, 0]
    durations = [100, 20, 5, 20]
    assert spans.self_times(parents, durations) == [60, 15, 5, 20]


def test_summarize_uses_self_time_and_parentage():
    tracer = spans.Tracer()
    for name, parent, start, end in [("solve", -1, 0, 100),
                                     ("build_spaces", 0, 5, 55),
                                     ("line_eps", 1, 10, 30),
                                     ("round_vector", 2, 12, 18),
                                     ("eval_prefix", 0, 60, 70),
                                     ("bb", 4, 61, 65)]:
        tracer.name.append(tracer._code(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    summary = spans.summarize(tracer)
    assert summary["self_ns"]["solve"] == 100 - 50 - 10
    assert summary["self_ns"]["line_eps"] == 20 - 6
    assert summary["self_ns"]["eval_prefix"] == 10 - 4
    assert summary["line_step_ns"] == 20
    assert summary["cand_evaluated"] == 1


def test_tracing_leaves_results_unchanged_and_restores_functions():
    import covsolve.numerics as numerics
    import covsolve.solver as solver
    texts = [p.read_text() for p in sorted(Path(bundled_suite_dir()).glob("*.prob"))[:6]]
    reductions = [reduce_problem(compile_spec(parse_spec(t))) for t in texts]
    plain = [solve(r.problem, SolverConfig(rng_seed=i)) for i, r in enumerate(reductions)]
    originals = (solver.build_spaces, solver.clip, numerics.round_vector)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = [tracer.solve(tracer.black_box(r.problem), SolverConfig(rng_seed=i))
                  for i, r in enumerate(reductions)]
    assert (solver.build_spaces, solver.clip, numerics.round_vector) == originals
    assert [(r.status, r.evaluations_used, r.iterations_used) for r in traced] \
        == [(r.status, r.evaluations_used, r.iterations_used) for r in plain]
    metrics = spans.layer_metrics(spans.Tracer(), tracer, Counter(), 1, 0, 0.0)
    assert metrics["problem.bb_calls"] == sum(r.evaluations_used for r in plain)
    assert set(metrics) == {name for name, _ in spans.PER_LAYER + spans.ZERO_PRONE}


def test_black_box_wrapper_counts_calls_repeats_and_failures():
    problem = compile_spec(parse_spec("var x : i32\ninit x = 1\nabe 1 / x - 2 >= 0\n"))
    tracer = spans.Tracer()
    (fn,) = tracer.black_box(problem).fns
    calls = tracer.wrap("solve", lambda: [fn.call(Valuation.of([("x", I32, x)]))
                                          for x in (0, 1, 1, 2)])
    assert calls() == [None, -1.0, -1.0, -1.5]
    assert spans.summarize(tracer)["calls"]["bb"] == 4
    assert tracer.counts["bb.failed"] == 1
    assert tracer.counts["bb.repeat"] == 1


def _run(*args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_declared_metrics(trace):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = doc["per_layer" if trace == "1" else "end_to_end"]
    proc = _run("--workload", "hard-search", "--seed", "3", "--seconds", "0",
                "--trace", trace, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 200
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_stopwatch_scales_each_piece_by_the_calibrations_around_it(monkeypatch):
    import run
    calibrations = iter([2 * run.CAL_REF_S, 2 * run.CAL_REF_S, run.CAL_REF_S])
    monkeypatch.setattr(run, "calibration", lambda: next(calibrations))
    watch = run.Stopwatch()
    assert watch.add(2.0) == pytest.approx(1.0)          # the host ran at half speed
    assert watch.add(3.0) == pytest.approx(3.0 / 1.5)    # half speed, then full speed
    assert watch.cpu == 5.0 and watch.scaled == pytest.approx(3.0)


def test_a_problem_that_raises_counts_as_one_crash():
    import run
    good = workloads.read_problem("good", "var x : i32\ninit x = 0\nabe x - 3 >= 0\n")
    bad = workloads.read_problem("bad", "var x : nope\ninit x = 0\nabe x - 3 >= 0\n")
    loaded = run.load([bad, good, good], parse_spec, compile_spec, reduce_problem)
    assert loaded[0][1] is None and "bad: set-up:" in loaded[0][2]
    calls = []

    def solve_or_raise(problem, config):
        calls.append(config.rng_seed)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return solve(problem, config)

    outcomes = run.solve_pass(loaded, 5, 100, solve_or_raise, SolverConfig)
    assert [o.status for o in outcomes] == ["CRASHED", "SOLVED", "CRASHED"]
    assert calls == [6, 7]
    assert "boom" in outcomes[2].error and outcomes[1].error is None
    assert not any(o.wrong for o in outcomes)


def test_a_wrong_solution_is_reported_not_raised():
    import run
    problem = workloads.read_problem("p", "var x : i32\ninit x = 0\nabe x - 3 >= 0\n")
    # the oracle sees a stricter target than the solver is given
    stricter = workloads.read_problem("p", "var x : i32\ninit x = 0\nabe x - 900 >= 0\n")
    loaded = [(stricter, reduce_problem(compile_spec(parse_spec(problem.text))), None)]
    (outcome,) = run.solve_pass(loaded, 0, 100, solve, SolverConfig)
    assert outcome.status == "SOLVED" and outcome.wrong
    assert "abe 1 is false" in outcome.error


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "chain-scale", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_names_match_the_reported_metrics():
    import run
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
