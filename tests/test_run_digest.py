"""The run digests of the benchmark's searches, pinned: differential oracles for refactors.

``run_digest.digest([0, 7])`` is one sha256 over every ``SolverResult`` that
the benchmark's workloads give at seeds 0 and 7: statuses, solutions,
iterations, evaluations and logs (see ``run_digest.py``).  A change that
alters it changes a search, or what a search costs in calls.  The
same-search digest takes every ``evaluations_used`` as 0: a change that
saves calls and keeps every search leaves it as it is.

Seeds 0 and 7 can miss a change to a search: CI's step "Identical
searches under two hash seeds" (``.github/workflows/tests.yml``) pins both
digests at seeds 0-19 too, as ``DIGEST_AT_SEEDS_0_19`` and
``SAME_SEARCH_AT_SEEDS_0_19``.

If a search is changed on purpose, set the pins here and in that step to
what::

    python tests/run_digest.py --seeds 0 7
    python tests/run_digest.py --seeds 0 7 --same-search
    python tests/run_digest.py --seeds $(seq 0 19)
    python tests/run_digest.py --seeds $(seq 0 19) --same-search

print, and say so in CHANGES.md.  If only the calls change, only the
digests without ``--same-search`` move.
"""

import run_digest

DIGEST_AT_SEEDS_0_7 = "cfce3a9a301e0095486ae052ae0f7f05306fd1c02b433ad7e6462462c8a3f503"
SAME_SEARCH_AT_SEEDS_0_7 = "30476e3fc30551de5bfd1d459438f0d3b370f92eb67654e447a605a7099eb637"


def test_benchmark_runs_match_the_pinned_digest():
    assert run_digest.digest([0, 7]) == DIGEST_AT_SEEDS_0_7


def test_benchmark_searches_match_the_pinned_same_search_digest():
    assert run_digest.digest([0, 7], same_search=True) == SAME_SEARCH_AT_SEEDS_0_7
