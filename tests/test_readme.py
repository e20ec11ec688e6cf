"""Every covsolve name that README.md cites in backticks exists."""

import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import covsolve

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = {info.name: importlib.import_module(f"covsolve.{info.name}")
           for info in pkgutil.iter_modules(covsolve.__path__)}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")
_CLASS = re.compile(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*")


def cited_names() -> list[str]:
    """The backticked names README cites from covsolve, in order of first use.

    A name qualifies when it is a dotted name whose first part is
    ``covsolve`` or one of its modules, an ALL_CAPS constant, or a CamelCase
    class name with any attributes after it, and is not a Python builtin.
    """
    names = []
    for code in re.findall(r"`([^`\n]+)`", README.read_text()):
        if not _DOTTED.fullmatch(code) or code in names:
            continue
        first = code.split(".")[0]
        if first == "covsolve" or first in MODULES or (
                (_CONSTANT.fullmatch(code) or _CLASS.fullmatch(first))
                and not hasattr(builtins, first)):
            names.append(code)
    return names


def resolve(name: str):
    """The object ``name`` names in covsolve; AttributeError when there is none."""
    first, *rest = name.split(".")
    if first == "covsolve":
        found = covsolve
    elif first in MODULES:
        found = MODULES[first]
    else:
        owners = [m for m in (covsolve, *MODULES.values()) if hasattr(m, first)]
        if not owners:
            raise AttributeError(f"no covsolve module has {first!r}")
        found = getattr(owners[0], first)
    for part in rest:
        found = getattr(found, part)
    return found


def test_each_kind_of_name_is_found():
    names = set(cited_names())
    assert {"localspace.BasisChain", "covsolve.from_trace",
            "covsolve.vecspace.TYPES_BY_NAME"} <= names  # dotted
    assert {"SAMPLES_PER_CUBE", "BACKTRACK_HALVINGS"} <= names  # constants
    assert {"BlackBoxFn", "Status.SOLVED"} <= names  # classes
    assert not names & {"ValueError", "None", "PAPER.md"}


@pytest.mark.parametrize("name", cited_names())
def test_cited_name_resolves(name):
    resolve(name)
