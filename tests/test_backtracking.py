"""Backtracking along the grad-step directions.

After the full landings, ``solver._candidates`` walks every direction's
landings again, halved ``BACKTRACK_HALVINGS`` times.  A full step whose
rounded prefix link diverges by a few ulps lands inside the link at half
the length: the dense chains below end FAILED_NO_PROGRESS without it, after
5821 and 6727 calls.  They are built as the benchmark builds its chains, by
``perfbench/workloads.py``, which also checks each solution on its own.
"""

import random
import sys
from pathlib import Path

import pytest

from covsolve import solver
from covsolve.probelang import compile_spec, parse_spec
from covsolve.problem import BlackBoxFn, CoverageProblem, reduce_problem
from covsolve.solver import SolverConfig, Status, solve

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "perfbench")]

import workloads  # noqa: E402


def dense_chain(k):
    """Chain ``dense_k``: 12 variables, 12 + k % 9 links, one integer type."""
    return workloads.chain_problem(random.Random(f"dense:{k}"), f"dense_{k}", 12,
                                   12 + k % 9, ("i32", "u32", "i64")[k % 3])


@pytest.mark.parametrize("k", [15, 17])
def test_dense_chains_solve(k):
    chain = dense_chain(k)
    reduction = reduce_problem(compile_spec(parse_spec(chain.text)))
    result = solve(reduction.problem,
                   SolverConfig(max_iterations=100, max_evaluations=20_000, rng_seed=k))
    assert result.status is Status.SOLVED
    assert workloads.check_solution(chain, dict(reduction.extend(result.solution).items())) is None


def test_a_halved_landing_already_tried_costs_no_call(monkeypatch):
    """No point satisfies both x1 - x2 <= 0 and x1 - x2 >= 5.  The i32 landings
    (-2, 2) and (-3, 3) halve onto (-1, 1) and then onto (0, 0), the current
    valuation: of the 6 halved candidates, only the first (-1, 1) is
    evaluated, at two calls."""
    problem = compile_spec(parse_spec("var x1 : i32\nvar x2 : i32\ninit x1 = 0\ninit x2 = 0\n"
                                      "abe x1 - x2 <= 0\nabe x1 - x2 - 5 >= 0\n"))
    charged = []  # one entry per black-box call
    problem = CoverageProblem(
        tuple(BlackBoxFn(fn.params, lambda v, call=fn.eval: charged.append(1) or call(v))
              for fn in problem.fns), problem.comps, problem.init)
    steps = []  # each grad-step candidate's values, and the calls charged while it was tried
    candidates = solver._candidates

    def recorded(state, rng, move=None):
        for source, candidate in candidates(state, rng, move):
            before = len(charged)
            yield source, candidate
            if source == solver.GRAD_STEP:
                steps.append((candidate.values, len(charged) - before))

    monkeypatch.setattr(solver, "_candidates", recorded)
    result = solve(problem, SolverConfig(rng_seed=0))
    assert result.status is Status.FAILED_NO_PROGRESS
    # the last gradient has one nonzero partial, on the appended axis of x1 - x2,
    # so that axis's direction is the gradient itself and is not walked again:
    # 2 landings, each tried in full and at every halving
    assert len(steps) == 2 * (1 + solver.BACKTRACK_HALVINGS)
    tried = {problem.init.values}
    for values, calls in steps:
        assert calls == (0 if values in tried else 2)
        tried.add(values)
    assert [values for values, calls in steps[2:] if calls] == [(-1, 1)]
