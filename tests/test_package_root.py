"""The package root exports the user API, and the search's stages stay in their modules."""

import ast
import builtins
import re
from pathlib import Path

import pytest

import covsolve

README = Path(__file__).resolve().parent.parent / "README.md"

#: Stage functions and types of one iteration: tests and the benchmark's
#: tracer import them from their own modules.
STAGE_NAMES = [
    "NoStepError", "epsilon_along_line", "epsilon_from_value",
    "BasisChain", "next_basis",
    "Constraint", "clip", "satisfies", "satisfies_all", "transform_constraint",
    "IterationState", "build_spaces", "finite_diff_gradient", "grad_step_candidates",
    "bit_mutation_candidates", "random_candidates",
    "eval_expr",
]


def library_names() -> set[str]:
    """Names the README's Library section uses from covsolve, dotted as written.

    Those its code imports from ``covsolve``, each dotted name after
    ``covsolve.``, and every backticked name that starts with a capital
    letter and is not a Python builtin.
    """
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    section = section[:section.index("\n## ", 1)]
    names = set()
    for code in re.findall(r"```python\n(.*?)```", section, re.DOTALL):
        names.update(alias.name for node in ast.walk(ast.parse(code))
                     if isinstance(node, ast.ImportFrom) and node.module == "covsolve"
                     for alias in node.names)
    names.update(re.findall(r"\bcovsolve\.([\w.]*\w)", section))
    names.update(n for n in re.findall(r"`([A-Z][\w.]*\w)`", section)
                 if not hasattr(builtins, n.split(".")[0]))
    return names


def test_the_readme_names_are_found():
    assert {"solve", "SolverConfig", "compile_spec", "is_solution", "from_trace",
            "BlackBoxFn", "I32", "ScalarType.nearest", "Valuation"} <= library_names()


@pytest.mark.parametrize("name", sorted(library_names()))
def test_the_root_exports_what_the_readme_uses(name):
    found = covsolve
    for part in name.split("."):
        found = getattr(found, part)


@pytest.mark.parametrize("name", STAGE_NAMES)
def test_the_root_exports_no_stage(name):
    assert not hasattr(covsolve, name)
