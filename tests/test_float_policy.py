"""The search's float policy is set in one place, by ``solve``.

Descent steps, random cubes, clipping moves and doubled moves can all
leave the float range, and the search checks every such value with
``math.isfinite``.  So ``solve`` runs its iteration loop under one
``np.errstate`` that silences overflow and invalid results, and no
function it calls sets its own: called alone, a stage warns as numpy does.
The check reads the source, so a new per-call block fails it, and two
searches reach the sites that overflow most readily, with every warning
an error.
"""

import ast
import warnings
from pathlib import Path

import numpy as np

import covsolve
from covsolve import (
    F64, BlackBoxFn, Comparator, CoverageProblem, SolverResult, Valuation, localspace, solve,
    solver,
)
from covsolve.numerics import NoStepError

SOURCES = sorted(Path(covsolve.__file__).parent.glob("*.py"))

#: The functions that enter an ``np.errstate``, and their modules.
POLICY_SITES = [("solver.py", "solve")]


def errstate_sites(tree: ast.AST) -> list[tuple[str, bool]]:
    """(enclosing function, entered by ``with``) for every ``errstate`` call."""
    found = []

    def visit(node, function, with_items):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "errstate":
                found.append((function, node in with_items))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.With, ast.AsyncWith)):
            with_items = with_items | {item.context_expr for item in node.items}
        for child in ast.iter_child_nodes(node):
            visit(child, function, with_items)

    visit(tree, None, frozenset())
    return found


def test_errstate_is_entered_only_where_the_policy_lives():
    sites = []
    for path in SOURCES:
        for function, entered in errstate_sites(ast.parse(path.read_text(), str(path))):
            assert entered, f"{path.name}: {function} uses np.errstate outside a with statement"
            sites.append((path.name, function))
    assert sorted(sites) == POLICY_SITES


def test_the_scan_finds_each_form():
    source = ("@np.errstate(over='ignore')\n"
              "def decorated(): pass\n"
              "def outer():\n"
              "    def inner():\n"
              "        with errstate(invalid='ignore'):\n"
              "            pass\n"
              "    state = np.errstate(all='ignore')\n")
    assert errstate_sites(ast.parse(source)) == [
        ("decorated", False), ("inner", True), ("outer", False)]


def test_solve_enters_the_policy_per_call_and_leaves_it_on_return():
    before = np.geterr()
    seen = []

    def distance(valuation: Valuation) -> float:
        seen.append(np.geterr())
        return float(valuation["x"]) * 1e300

    problem = CoverageProblem((BlackBoxFn(("x",), distance),), (Comparator.GE,),
                              Valuation.of([("x", F64, -1.0)]))
    assert seen == [before]  # construction's call runs under numpy's own state
    for _ in range(2):
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve(problem).solved
        assert seen and all(s["over"] == s["invalid"] == "ignore" for s in seen)
        assert np.geterr() == before


def solve_with_warnings_as_errors(problem: CoverageProblem) -> SolverResult:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve(problem)


def test_a_prefix_gradient_whose_square_overflows_is_rescaled(monkeypatch):
    rescaled, rescales = localspace.rescaled, []

    def counting(v):
        w, ww, scale = rescaled(v)
        rescales.append(scale > 1.0)  # only a square past the float range divides
        return w, ww, scale

    monkeypatch.setattr(localspace, "rescaled", counting)
    # the prefix's gradient is about [1e200, 1e200], whose plain square is inf
    problem = CoverageProblem(
        (BlackBoxFn(("x", "y"), lambda v: 1e200 * v["x"] + 1e200 * v["y"]),
         BlackBoxFn(("x", "y"), lambda v: v["x"] - v["y"] - 5.0)),
        (Comparator.GE, Comparator.GE),
        Valuation.of([("x", F64, 1.0), ("y", F64, 0.0)]))
    assert isinstance(solve_with_warnings_as_errors(problem), SolverResult)
    assert any(rescales)


def test_a_line_step_whose_offset_overflows_finds_no_step(monkeypatch):
    line_step, outcomes = solver.epsilon_along_line, []

    def recording(origin, direction, *rest):
        size = float(np.abs(direction).max())
        try:
            eps = line_step(origin, direction, *rest)
        except NoStepError:
            outcomes.append((size, "NoStepError"))
            raise
        outcomes.append((size, eps))
        return eps

    monkeypatch.setattr(solver, "epsilon_along_line", recording)
    # the strict target's line step seeds near 1e66 along a gradient of 1e150:
    # the sample moves x by about 1e216, whose product with the gradient is
    # inf, taken in plain floats along this one axis
    problem = CoverageProblem(
        (BlackBoxFn(("x",), lambda v: 1e150 * v["x"] - 1e76),), (Comparator.GT,),
        Valuation.of([("x", F64, 0.0)]))
    assert isinstance(solve_with_warnings_as_errors(problem), SolverResult)
    assert any(size > 1e149 and end == "NoStepError" for size, end in outcomes)
