"""One sha256 over every benchmark search, to show that a change leaves runs identical.

Usage: ``python tests/run_digest.py [--seeds 0 7] [--same-search]``

For each workload in ``BENCHMARK.json`` order, then for each seed, every
problem of ``perfbench/workloads.generate`` is parsed, compiled, reduced
and solved with ``SolverConfig(max_iterations=100, rng_seed=(seed + index)
% 2**32)``.  The digest is taken over the ``repr`` of each ``SolverResult``
in that order, concatenated, and printed as one hex line.  Equal digests
mean equal statuses, solutions, iterations, evaluations and logs.  With
``--same-search`` each result's ``evaluations_used`` is set to 0 first, so
equal digests mean the same searches, whatever they cost in calls.  The
script builds its problems from the checkout it lives in.  pytest does not
collect it; ``test_run_digest.py`` pins both digests at seeds 0 and 7, and
CI's step "Identical searches under two hash seeds" pins both at seeds
0-19 (``--seeds $(seq 0 19)``), about 15 s each.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from covsolve import SolverConfig, compile_spec, parse_spec, reduce_problem, solve  # noqa: E402
from covsolve.cli import bundled_suite_dir  # noqa: E402


def digest(seeds, same_search: bool = False) -> str:
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    h = hashlib.sha256()
    for name in names:
        for seed in seeds:
            for index, p in enumerate(workloads.generate(name, seed, bundled_suite_dir())):
                problem = reduce_problem(compile_spec(parse_spec(p.text))).problem
                config = SolverConfig(max_iterations=100, rng_seed=(seed + index) % 2**32)
                result = solve(problem, config)
                if same_search:
                    result = dataclasses.replace(result, evaluations_used=0)
                h.update(repr(result).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7],
                        help="workload seeds, in order (default: 0 7)")
    parser.add_argument("--same-search", action="store_true",
                        help="take every evaluations_used as 0")
    args = parser.parse_args(argv)
    print(digest(args.seeds, args.same_search))
    return 0


if __name__ == "__main__":
    sys.exit(main())
