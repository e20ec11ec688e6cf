"""No module of covsolve hands a product to BLAS.

numpy's ``@``, ``np.dot``, ``np.linalg`` and their kin call BLAS, whose
kernel is picked from the CPU and sums in its own order, so the same seed
would take a different search on another machine.  Every inner product
goes through ``localspace.dot`` instead.  This check reads the source, so
it holds on machines where the kernel cannot be switched.
"""

import ast
from pathlib import Path

import pytest

import covsolve

SOURCES = sorted(Path(covsolve.__file__).parent.glob("*.py"))

#: numpy functions that sum products through BLAS (or, for einsum, may).
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot",
              "vecdot", "matvec", "vecmat", "linalg"}


def blas_sites(tree: ast.AST) -> list[str]:
    """``@``, a BLAS name read off any object, or one imported from numpy."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found.extend(f"line {node.lineno}: import {alias.name}" for alias in node.names
                         if alias.name in BLAS_NAMES or node.module.startswith("numpy.linalg"))
        elif isinstance(node, ast.Import):
            found.extend(f"line {node.lineno}: import {alias.name}"
                         for alias in node.names if alias.name.startswith("numpy.linalg"))
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"constraints.py", "localspace.py",
                                         "numerics.py", "solver.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_blas_call(path):
    assert blas_sites(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("source", [
    "m = a @ b",
    "a @= b",
    "x = np.dot(a, b)",
    "x = numpy.matmul(a, b)",
    "x = a.dot(b)",
    "x = np.inner(a, b) + np.vdot(a, b)",
    "x = np.einsum('i,i', a, b)",
    "x = np.tensordot(a, b, 1)",
    "x = np.linalg.norm(a)",
    "from numpy import einsum",
    "from numpy.linalg import norm",
    "import numpy.linalg",
])
def test_each_form_is_caught(source):
    assert blas_sites(ast.parse(source))


def test_the_helper_is_allowed():
    assert blas_sites(ast.parse(
        "from .localspace import dot\n"
        "x = dot(a, b)\n"
        "y = np.add.reduce(np.multiply(a, b), axis=-1)\n")) == []
