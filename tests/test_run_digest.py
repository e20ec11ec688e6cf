"""The run digest of the benchmark's searches, pinned: a differential oracle for refactors.

``run_digest.digest([0, 7])`` is one sha256 over every ``SolverResult`` that
the benchmark's workloads give at seeds 0 and 7: statuses, solutions,
iterations, evaluations and logs (see ``run_digest.py``).  A change that
alters it changes a search, not just its code.

If a search is changed on purpose, set ``DIGEST_AT_SEEDS_0_7`` to what::

    python tests/run_digest.py --seeds 0 7

prints, and say so in CHANGES.md.
"""

import run_digest

DIGEST_AT_SEEDS_0_7 = "54228dc197f350bbc8029c38e154666cc3d5fa6d86e32c15ea589eb52f9a0830"


def test_benchmark_runs_match_the_pinned_digest():
    assert run_digest.digest([0, 7]) == DIGEST_AT_SEEDS_0_7
