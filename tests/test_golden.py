"""Golden record of the bundled suite: a differential oracle for refactors.

Every bundled problem is solved the way the acceptance suite solves it
(``rng_seed`` = the problem's index in name order) and its JSON report is
compared exactly with ``golden_bundled.json``: status, solution,
iteration and evaluation counts, and each trace entry's source and value.
A change that alters any of these changes the search, not just its code.

If the search is changed on purpose, regenerate the file with::

    PYTHONPATH=src python tests/test_golden.py

and say so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from covsolve import cli
from covsolve.solver import SolverConfig

GOLDEN = Path(__file__).with_name("golden_bundled.json")


def bundled_entries() -> list:
    return sorted(
        (item for item in cli.bundled_suite_dir().iterdir()
         if item.name.endswith(".prob")),
        key=lambda item: item.name)


def bundled_records() -> dict:
    records = {}
    for index, entry in enumerate(bundled_entries()):
        config = SolverConfig(rng_seed=index, max_iterations=100,
                              max_evaluations=100_000)
        name = entry.name[: -len(".prob")]
        records[name] = cli.run_problem(name, entry.read_text(), config).to_json()
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current():
    # a JSON round trip, so ints, floats and tuples compare as the file holds them
    return json.loads(json.dumps(bundled_records()))


def test_same_problems(golden, current):
    assert len(golden) == 40
    assert sorted(current) == sorted(golden)


@pytest.mark.parametrize("name", [e.name[: -len(".prob")] for e in bundled_entries()])
def test_report_matches_golden(name, golden, current):
    assert current[name] == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(bundled_records(), indent=1) + "\n")
