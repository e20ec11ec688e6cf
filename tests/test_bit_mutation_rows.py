"""Each variable's bit-mutation rows, lifted as the candidate loop lifts them.

``solver.bit_mutation_candidates`` gives one entry ``(u, ys)`` per variable,
and ``solver._lifted_bit_mutations`` lifts that variable's rows, y*u + 0.0
for each y = +-2**j.  The oracle is the block the generator built before,
every variable's rows at once (``helpers.bit_mutation_block``), lifted by
``BasisChain.lift_rows``.  The two must agree byte for byte over the states
the benchmark's searches build, the dense chains, wide states, and states
built to reach the edges: signed zeros, bit 63, variables out of reach, and
products that round at subnormal precision.
"""

import random
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from covsolve import solver
from covsolve.cli import bundled_suite_dir
from covsolve.localspace import BasisChain
from covsolve.probelang import compile_spec, parse_spec
from covsolve.problem import BlackBoxFn, CoverageProblem, reduce_problem
from covsolve.solver import SolverConfig, Status, bit_mutation_candidates, build_spaces, solve
from covsolve.vecspace import Comparator, I8, I16, I32, I64, U8, U16, U32, U64, F64, Valuation
from helpers import bit_mutation_block

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "perfbench")]

import workloads  # noqa: E402


def assert_rows_match(state):
    """Each variable's lifted rows against its slice of the lifted block, byte for byte."""
    entries = bit_mutation_candidates(state)
    block = bit_mutation_block(state)
    built = [np.outer(ys, u) + 0.0 for u, ys in entries]
    assert (np.concatenate(built).tobytes() if built else b"") == block.tobytes()
    lifted = list(solver._lifted_bit_mutations(state))
    assert len(lifted) == len(entries)
    start = 0
    for rows, (_, ys) in zip(lifted, entries):
        expected = state.chain.lift_rows(block[start:start + len(ys)])
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()
        start += len(ys)
    return len(entries)


def recorded_states(monkeypatch, problems, seeds, **config):
    """Every iteration's state of each problem's solve, as ``build_spaces`` built it."""
    states = []
    build = solver.build_spaces

    def recording(*args, **kwargs):
        state = build(*args, **kwargs)
        states.append(state)
        return state

    monkeypatch.setattr(solver, "build_spaces", recording)
    with np.errstate(over="ignore", invalid="ignore"):
        for problem, seed in zip(problems, seeds):
            solve(problem, SolverConfig(rng_seed=seed, **config))
    monkeypatch.setattr(solver, "build_spaces", build)
    return states


def reduced(text):
    return reduce_problem(compile_spec(parse_spec(text))).problem


def chain_state(rows, entries, params=None):
    """A state over a chain whose one level is ``rows``, signed zeros and all."""
    valuation = Valuation.of(entries)
    chain = BasisChain(len(entries))
    chain.rows = np.array(rows, dtype=np.float64)
    names = valuation.signature.names if params is None else params
    fn = BlackBoxFn(tuple(names), lambda v: 0.0)
    return SimpleNamespace(valuation=valuation, chain=chain, problem=SimpleNamespace(fns=(fn,)))


def lift_calls(monkeypatch):
    """The rows handed to ``BasisChain.lift_rows``, call by call."""
    calls = []
    lift_rows = BasisChain.lift_rows

    def recording(self, V):
        calls.append(np.array(V))
        return lift_rows(self, V)

    monkeypatch.setattr(BasisChain, "lift_rows", recording)
    return calls


class TestRowsAgainstTheBlock:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_hard_search_states(self, monkeypatch, seed):
        problems = [reduced(p.text) for p in
                    workloads.generate("hard-search", seed, bundled_suite_dir())]
        states = recorded_states(monkeypatch, problems,
                                 [seed + i for i in range(len(problems))], max_iterations=100)
        variables = sum(assert_rows_match(state) for state in states)
        assert len(states) > 250 and variables > 200

    def test_dense_chain_states(self, monkeypatch):
        problems = [reduced(workloads.chain_problem(
            random.Random(f"dense:{k}"), f"dense_{k}", 12, 12 + k % 9,
            ("i32", "u32", "i64")[k % 3]).text) for k in range(24)]
        states = recorded_states(monkeypatch, problems, range(24),
                                 max_iterations=100, max_evaluations=20_000)
        variables = sum(assert_rows_match(state) for state in states)
        assert variables > 400

    @pytest.mark.parametrize("dim, typ", [(96, "i64"), (128, "u32"), (72, "i32")])
    def test_wide_chain_states(self, dim, typ):
        chain = workloads.chain_problem(random.Random(dim), f"wide_{dim}", dim, 8, typ)
        problem = reduced(chain.text)
        with np.errstate(over="ignore", invalid="ignore"):
            state = build_spaces(problem, problem.init, problem.init_values)
        assert state.chain.rows.shape[1] == dim
        assert assert_rows_match(state) > 0

    def test_wide_mixed_dead_end_state(self):
        # the shape of the wide mixed dead end, with a prefix link ahead of it so
        # that the last level's rows mix the variables
        types = ("i8", "u16", "i32", "u64", "i64", "f32", "f64")
        names = [f"x{i}" for i in range(84)]
        total = " + ".join(names)
        text = "".join(f"var {x} : {types[i % 7]}\n" for i, x in enumerate(names))
        text += "".join(f"init {x} = {i % 5}\n" for i, x in enumerate(names))
        text += f"abe x0 - 3 * x1 + x2 <= 0\nabe {total} - 1000 <= 0\nabe {total} - 5000 >= 0\n"
        problem = compile_spec(parse_spec(text))
        with np.errstate(over="ignore", invalid="ignore"):
            state = build_spaces(problem, problem.init, problem.init_values)
        assert assert_rows_match(state) == 60  # the integer variables

    def test_random_chains(self):
        rand, rng = random.Random(39), np.random.default_rng(39)
        variables = 0
        for _ in range(300):
            dim = rand.randint(1, 10)
            entries = []
            for k in range(dim):
                typ = rand.choice([I8, I16, I32, I64, U8, U16, U32, U64, F64])
                value = (rand.uniform(-9.0, 9.0) if typ is F64 else
                         rand.choice([0, typ.min_value, typ.max_value,
                                      rand.randint(typ.min_value, typ.max_value)]))
                entries.append((f"x{k}", typ, value))
            rows = np.linalg.qr(rng.normal(size=(dim, dim)))[0][:rand.randint(1, dim)]
            rows[rng.random(rows.shape) < 0.3] = 0.0
            rows[rng.random(rows.shape) < 0.1] = -0.0
            state = chain_state(rows, entries, [n for n, _, _ in entries if rand.random() < 0.8])
            variables += assert_rows_match(state)
        assert variables > 500


class TestEdges:
    def test_signed_zeros_in_u_and_in_the_rows(self):
        # every product in e's column is a signed zero; each lifted sum starts from
        # +0.0, so every row lifts to +0.0 there
        rows = [[-0.0, 0.6, -0.8, 0.0, -0.0],
                [0.0, -0.8, -0.6, -0.0, -0.0],
                [0.5, 0.0, -0.0, 0.5, -0.0]]
        state = chain_state(rows, [("a", I32, 0), ("b", I64, -5), ("c", U16, 7), ("d", I8, -1),
                                   ("e", F64, 0.0)])
        u, _ = bit_mutation_candidates(state)[0]
        assert np.signbit(u).tolist() == [True, False, False]  # -0.0, +0.0, 0.5
        assert assert_rows_match(state) == 4
        for rows, (_, ys) in zip(solver._lifted_bit_mutations(state), bit_mutation_candidates(state)):
            assert rows[:, 4].tolist() == [0.0] * len(ys)
            assert not np.signbit(rows[:, 4]).any()

    @pytest.mark.parametrize("typ, value", [(I64, I64.min_value), (I64, -1), (U64, U64.max_value),
                                            (U64, 1 << 63), (I64, I64.max_value)])
    def test_bit_63(self, typ, value):
        rows = np.linalg.qr(np.random.default_rng(63).normal(size=(3, 3)))[0][:2]
        state = chain_state(rows, [("x", typ, value), ("y", typ, 0), ("z", I32, 1)])
        _, ys = bit_mutation_candidates(state)[0]
        assert abs(ys[63]) == 2.0 ** 63 and (ys[63] < 0) == bool(value >> 63 & 1)
        assert assert_rows_match(state) == 3

    def test_variable_out_of_reach_is_skipped(self):
        # no row reaches x1's axis by PIVOT_GUARD: its coordinates are below it
        tiny = solver.PIVOT_GUARD / 4
        rows = [[1.0, tiny, 0.0], [0.0, -tiny, 1.0]]
        state = chain_state(rows, [("x0", I32, 3), ("x1", I32, 3), ("x2", U8, 3)])
        assert [len(ys) for _, ys in bit_mutation_candidates(state)] == [32, 8]
        assert assert_rows_match(state) == 2

    @pytest.mark.parametrize("tiny", [18022 * 2.0 ** -1074, 2.0 ** -1074],
                             ids=["subnormal", "underflow-to-zero"])
    def test_products_below_the_normal_range(self, tiny):
        """u_0 * tiny rounds at subnormal precision, to a subnormal or to zero."""
        state = chain_state([[0.7, tiny]], [("x", I32, 0), ("y", F64, 0.0)])
        [(u, ys)] = bit_mutation_candidates(state)
        product = u[0] * tiny
        assert product == 0.0 or abs(product) < 2.0 ** -1022
        assert assert_rows_match(state) == 1


def test_an_acceptance_builds_no_later_variable(monkeypatch):
    """The box reads bit 4 of x1 alone, so no finite difference and no grad step
    moves it: the bit mutations of x0 do not improve, bit 4 of x1 solves, and x2's
    rows are never built."""
    init = Valuation.of([("x0", U32, 0), ("x1", U32, 0), ("x2", U32, 0)])
    box = BlackBoxFn(("x0", "x1", "x2"), lambda v: float((v["x1"] >> 4) & 1) - 1.0)
    problem = CoverageProblem((box,), (Comparator.EQ,), init)
    calls = lift_calls(monkeypatch)
    result = solve(problem, SolverConfig(rng_seed=0))
    assert result.status is Status.SOLVED
    assert [r.source for r in result.log] == [solver.BIT_MUT]
    assert result.solution.values == (0, 16, 0)
    assert [c.shape[0] for c in calls] == [32, 32]  # the rows of x0, then of x1
    assert [np.flatnonzero(c[0]).tolist() for c in calls] == [[0], [1]]
