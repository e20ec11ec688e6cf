"""The solver must degrade gracefully, never crash, on extreme magnitudes."""

import warnings

import numpy as np
import pytest

from covsolve import compile_spec, is_solution, parse_spec
from covsolve.solver import SolverConfig, Status, solve

CASES = {
    "subnormal-gradient": """
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 0
abe x1 - x2 <= 0
abe x2 * 1e-160 - 1 >= 0
""",
    "giant-constraint-offset": """
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 0
abe x1 * 1e-200 - 1e100 <= 0
abe x2 - 10 >= 0
""",
    "giant-distance-values": """
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 0
abe x1 - x2 <= 0
abe x2 * 1e300 - 1e305 >= 0
""",
    "step-length-overflow": """
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 0
abe x1 - x2 <= 0
abe x2 * 0.00001 - 1e300 >= 0
""",
    "huge-random-cube": """
var x : f64
init x = 0
abe x * 0.001 - 1e305 >= 0
""",
    # the descent step from 1e308 lands at 2e308: the grad-step landing point overflows
    "landing-past-the-float-range": """
var x : f64
init x = 1e308
abe x * 1e-300 - 2e8 >= 0
""",
    "huge-initial-values": """
var x : f64
init x = 1e280
abe x - 1e301 >= 0
""",
    "i64-extreme-target": """
var x : i64
init x = -9223372036854775808
abe x - 9000000000000000000 >= 0
""",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_extreme_problems_never_crash(name):
    problem = compile_spec(parse_spec(CASES[name]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numeric warnings count as failures
        result = solve(problem, SolverConfig(max_iterations=5,
                                             max_evaluations=20_000))
    assert result.status in (Status.SOLVED, Status.FAILED_NO_PROGRESS,
                             Status.FAILED_BUDGET)
    if result.status is Status.SOLVED:
        assert is_solution(problem, result.solution)
    assert result.evaluations_used <= 20_000


def test_solvable_extremes_still_solve():
    giant = compile_spec(parse_spec(CASES["giant-constraint-offset"]))
    result = solve(giant, SolverConfig(rng_seed=0))
    assert result.status is Status.SOLVED
    assert is_solution(giant, result.solution)
