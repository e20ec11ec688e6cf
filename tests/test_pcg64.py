"""``pcg64.PCG64`` against its oracle, numpy's ``default_rng``, byte for byte."""

import numpy as np
import pytest

from covsolve.pcg64 import PCG64
from covsolve.problem import BlackBoxFn, CoverageProblem
from covsolve.solver import SolverConfig, solve
from covsolve.vecspace import F64, Comparator, Valuation

from helpers import record_generators

SEEDS = [*range(300), 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**96 + 5, 2**128 + 7,
         2**200 + 3, 2**300 - 1, 3**100, 12345678901234567890]

#: Cube half-edges from 0 to nearly CUBE_SCALE * log(DBL_MAX), about 70978.
HALF_EDGES = [0.0, 1e-300, 3.5e-5, 1.0, 69.3, 70900.0]


@pytest.mark.parametrize("seed", SEEDS)
def test_consecutive_draws_match_numpy(seed):
    """Blocks of 48 x 1 to 48 x 4 at every half-edge, all drawn from one generator."""
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    for half_edge in HALF_EDGES:
        for cols in range(1, 5):
            block = ours.uniform(-half_edge, half_edge, size=(48, cols))
            expected = theirs.uniform(-half_edge, half_edge, size=(48, cols))
            assert block.dtype == np.float64 and block.shape == (48, cols)
            assert block.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed, first", [
    (0, ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2",
         "0x1.4fa7b529d9bd0p-5", "0x1.0ec9ed84d0bc0p-6"]),
    (3, ["0x1.5ed1a93cfbec0p-4", "0x1.e4fce8296f7e8p-3",
         "0x1.9a40a58e5cdbdp-1", "0x1.2a112473bd0c0p-1"]),
])
def test_first_doubles_are_pinned(seed, first):
    """The stream stays what it is even if numpy's own ever changes."""
    block = PCG64(seed).uniform(0.0, 1.0, size=(2, 2))
    assert [x.hex() for x in block.ravel().tolist()] == first


# x only moves F in steps of 50, so the first iteration finds a zero
# gradient and reaches the random samples
STEPS = CoverageProblem((BlackBoxFn(("x",), lambda v: (v["x"] // 50.0) - 10.0),),
                        (Comparator.GE,), Valuation.of([("x", F64, 0.0)]))


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**63)], ids=["int64", "uint64"])
def test_numpy_integer_seeds_reach_the_generator_as_ints(monkeypatch, seed):
    """A numpy integer ``rng_seed`` seeds the generator as the int it equals: the
    draws are numpy's from that seed, and the solve is the int seed's."""
    seeds, draws = record_generators(monkeypatch)
    result = solve(STEPS, SolverConfig(rng_seed=seed))
    assert seeds == [int(seed)] and type(seeds[0]) is int and draws
    oracle = np.random.default_rng(seed)
    for (low, high, size), block in draws:
        assert block.tobytes() == oracle.uniform(low, high, size=size).tobytes()
    assert result == solve(STEPS, SolverConfig(rng_seed=int(seed)))
