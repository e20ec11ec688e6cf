import dataclasses
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from covsolve import cli, constraints as constraints_module, solver
from covsolve.constraints import (
    CLIP_ROUNDS,
    DIVISION_GUARD,
    RELAXATION,
    Constraint,
    clip,
    satisfies,
    satisfies_all,
    transform_constraint,
)
from covsolve.localspace import BasisChain, dot, next_basis
from covsolve.numerics import NoStepError, epsilon_along_line, epsilon_from_value
from covsolve.probelang import compile_spec, parse_spec
from covsolve.problem import BlackBoxFn, CoverageProblem, eval_prefix, is_solution
from covsolve.solver import (
    PIVOT_GUARD,
    SolverConfig,
    SolverResult,
    Status,
    bit_mutation_candidates,
    build_spaces,
    grad_step_candidates,
    random_candidates,
    solve,
)
from covsolve.vecspace import (
    F32, F64, I8, I16, I32, I64, U8, U16, U32, U64, Comparator, ExtractionError, Valuation,
    extract,
)
from helpers import bit_mutation_block, bits_key, record_generators

SQ2 = math.sqrt(2.0)

EQ_GE_TRACE = """
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 0
abe x1 - x2 == 0
abe x1 - 10 >= 0
"""

# trace (x1 <= x2, x1 = 1) with I = (0, 1)
LE_EQ_TRACE = """
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 1
abe x1 - x2 <= 0
abe x1 - 1 == 0
"""

# trace (x1 <= x2, x1 = 1, x2 = x1 + 3) with I = (1, 1)
LE_EQ_EQ_TRACE = """
var x1 : f64
var x2 : f64
init x1 = 1
init x2 = 1
abe x1 - x2 <= 0
abe x1 - 1 == 0
abe x2 - x1 - 3 == 0
"""


# trace (x1 = x2, x3 <= 1, x1 + x3 >= 10) with I = (0, 0, 0)
EQ_LE_GE_TRACE = """
var x1 : f64
var x2 : f64
var x3 : f64
init x1 = 0
init x2 = 0
init x3 = 0
abe x1 - x2 == 0
abe x3 - 1 <= 0
abe x1 + x3 - 10 >= 0
"""


def grad_step_landings(state):
    """Every unclipped grad-step candidate, walked direction by direction in trial order."""
    return [u for axis in grad_step_candidates(state) for u in solver._landings(state, axis)]


def problem_of(text):
    return compile_spec(parse_spec(text))


class TestImproves:
    def test_eq_moves_toward_zero(self):
        assert Comparator.EQ.improves(-5.0, 3.0)
        assert not Comparator.EQ.improves(3.0, -5.0)

    def test_ge_needs_increase(self):
        assert not Comparator.GE.improves(-5.0, -7.0)
        assert Comparator.GT.improves(-5.0, -4.0)

    def test_neq_strict(self):
        assert not Comparator.NEQ.improves(0.0, 0.0)
        assert Comparator.NEQ.improves(0.0, 0.5)

    def test_lt_needs_decrease(self):
        assert Comparator.LT.improves(2.0, 1.0)
        assert Comparator.LE.improves(2.0, -9.0)
        assert not Comparator.LE.improves(2.0, 2.0)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.max_iterations == 100
        assert cfg.max_evaluations == 100_000
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "max_iterations", "max_evaluations", "rng_seed"]
        assert CLIP_ROUNDS == 10
        assert solver.SAMPLES_PER_CUBE == 48
        assert solver.BACKTRACK_HALVINGS == 3
        assert solver.ALPHA == 0.01
        assert solver.CUBE_SCALE == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(TypeError):
            SolverConfig(alpha=1.0)  # a module constant, no longer a setting

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", math.nan), ("max_iterations", 5.0), ("max_iterations", True),
        ("max_evaluations", math.inf), ("max_evaluations", 100.5), ("max_evaluations", True),
        ("rng_seed", 0.5), ("rng_seed", math.nan), ("rng_seed", 0.0), ("rng_seed", False)])
    def test_non_integers_are_refused(self, field, value):
        """Refused at construction, not by the first solve that uses the field."""
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: value})


class TestBuildSpaces:
    def test_equality_prefix_basis(self):
        problem = problem_of(EQ_GE_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        basis = state.chain.rows  # level 2, the last
        assert basis.shape[0] == 1
        assert basis[0] == pytest.approx([1 / SQ2, 1 / SQ2], abs=1e-9)
        assert state.constraints == ()

    def test_inequality_prefix_constraint(self):
        problem = problem_of(LE_EQ_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        assert state.chain.rows.shape[0] == 2
        (constraint,) = state.constraints
        assert constraint.normal == pytest.approx([0.0, 1.0], abs=1e-9)
        assert constraint.bound == pytest.approx(1 / SQ2, abs=1e-9)
        assert constraint.comp is Comparator.LE

    def test_constraint_carried_into_third_space(self):
        problem = problem_of(LE_EQ_EQ_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        assert state.chain.rows[0] == pytest.approx([0.0, 1.0], abs=1e-9)  # level 3
        (constraint,) = state.constraints
        assert constraint.normal == pytest.approx([-1 / SQ2], abs=1e-9)
        assert constraint.bound == pytest.approx(0.0, abs=1e-9)
        assert constraint.comp is Comparator.LE

    def test_eq_prefix_makes_no_constraint(self):
        problem = problem_of(EQ_LE_GE_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        (constraint,) = state.constraints  # from x3 - 1 <= 0 alone
        assert constraint.comp is Comparator.LE
        assert constraint.bound == pytest.approx(1.0, abs=1e-9)
        assert state.chain.lift(constraint.normal) == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)

    def test_zero_gradient_prefix_makes_no_constraint(self):
        problem = CoverageProblem(
            (BlackBoxFn(("x1",), lambda v: -1.0), BlackBoxFn(("x1",), lambda v: v["x1"] - 10)),
            (Comparator.LE, Comparator.GE), Valuation.of([("x1", F64, 0.0)]))
        state = build_spaces(problem, problem.init, problem.init_values)
        assert np.array_equal(state.chain.rows, np.eye(1))
        assert state.constraints == ()

    def test_prefix_on_its_boundary_has_zero_bound(self):
        problem = problem_of(LE_EQ_TRACE.replace("init x2 = 1", "init x2 = 0"))
        state = build_spaces(problem, problem.init, problem.init_values)
        (constraint,) = state.constraints
        assert constraint.normal == pytest.approx([0.0, 1.0], abs=1e-9)
        assert constraint.bound == 0.0

    def test_prefix_gradient_whose_squares_underflow_makes_a_constraint(self):
        # |grad| is about 1.4e-170, whose squares underflow to 0; its norm
        # must still come out positive for the x >= y constraint to be kept
        problem = problem_of("""
var x : f64
var y : f64
init x = 0
init y = 0
abe x * 1e-170 - y * 1e-170 >= 0
abe y - 10 >= 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        (constraint,) = state.constraints
        assert constraint.comp is Comparator.GE
        assert constraint.bound == 0.0
        assert state.chain.lift(constraint.normal) == pytest.approx(
            [1 / SQ2, -1 / SQ2], abs=1e-9)
        result = solve(problem, SolverConfig(rng_seed=0))
        assert result.solved and is_solution(problem, result.solution)

    def test_prefix_values_cached(self):
        problem = problem_of(EQ_GE_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        assert state.prefix_values == (0.0, -10.0)
        assert state.f_n == -10.0


def chained_constraints(levels):
    """The last space's constraints, carried there one level at a time.

    ``levels`` holds (comparator, value, gradient, basis) per prefix function,
    the basis rows in the previous level's coordinates.  A constraint is
    (normal, offset, comp), meaning comp.holds(normal . u - offset * normal . normal):
    a fresh one is the new gradient axis with offset -F/|g|, and every level
    projects each earlier normal onto its basis, rescaling the offset by
    n . n / m . m.  Newest first, like ``build_spaces``.
    """
    current = []
    for comp, value, grad, basis in levels:
        moved = []
        for normal, offset, c in current:
            m = basis @ normal
            mm = float(m @ m)
            if mm >= DIVISION_GUARD and math.isfinite(offset * float(normal @ normal) / mm):
                moved.append((m, offset * float(normal @ normal) / mm, c))
        norm = float(np.linalg.norm(grad))
        fresh = []
        if comp is not Comparator.EQ and norm > 0.0 and math.isfinite(-value / norm):
            axis = np.zeros(basis.shape[0])
            axis[-1] = 1.0
            fresh.append((axis, -value / norm, comp))
        current = fresh + moved
    return current


def _random_linear_problem(rand, rng):
    """Affine prefix functions over f64 variables, all holding at the initial valuation.

    Dimension 2-11, 30% equality prefixes, half of the gradients close to an axis;
    the last function is ``>= 0`` and fails at the start.
    """
    dim = rand.randint(2, 11)
    names = tuple(f"x{k}" for k in range(dim))
    x0 = rng.normal(size=dim) * 10.0
    fns, comps = [], []

    def affine(a, c):
        return BlackBoxFn(names, lambda v: float(a @ (np.array(v.values) - x0)) + c)

    for _ in range(rand.randint(1, 5)):
        if rand.random() < 0.5:
            a = np.zeros(dim)
            a[rand.randrange(dim)] = rand.choice([-3.0, 1.0, 2.5])
            a += rng.normal(size=dim) * 10.0 ** -rand.randint(3, 14)
        else:
            a = rng.normal(size=dim)
        if rand.random() < 0.3:
            comp, c = Comparator.EQ, 0.0
        else:
            comp = rand.choice([Comparator.LE, Comparator.LT, Comparator.GE,
                                Comparator.GT, Comparator.NEQ])
            c = rand.uniform(0.1, 10.0) * (1.0 if comp.holds(1.0) else -1.0)
        fns.append(affine(a, c))
        comps.append(comp)
    fns.append(affine(rng.normal(size=dim), -rand.uniform(1.0, 10.0)))
    comps.append(Comparator.GE)
    init = Valuation.of([(name, F64, float(x)) for name, x in zip(names, x0)])
    return CoverageProblem(tuple(fns), tuple(comps), init)


class TestBuildSpacesAgainstChainedTransform:
    def test_random_chains_match(self, monkeypatch):
        grads, bases = [], []

        def recording(target, record):
            def wrapped(*args, **kwargs):
                result = target(*args, **kwargs)
                record.append(result)
                return result
            return wrapped

        monkeypatch.setattr(solver, "finite_diff_gradient",
                            recording(solver.finite_diff_gradient, grads))
        monkeypatch.setattr(solver, "next_basis", recording(solver.next_basis, bases))
        rand = random.Random(909)
        rng = np.random.default_rng(909)
        drops = 0
        for _ in range(3000):
            grads.clear()
            bases.clear()
            problem = _random_linear_problem(rand, rng)
            state = build_spaces(problem, problem.init, problem.init_values)
            levels = list(zip(problem.comps, state.prefix_values, grads, bases))
            expected = chained_constraints(levels)
            made = sum(c is not Comparator.EQ and np.any(g != 0.0)
                       for c, _, g, _ in levels)
            drops += made - len(expected)
            assert len(state.constraints) == len(expected)
            for got, (normal, offset, comp) in zip(state.constraints, expected):
                assert got.comp is comp
                assert float(np.max(np.abs(got.normal - normal))) <= 1e-12
                bound = offset * float(normal @ normal)
                assert abs(got.bound - bound) <= 1e-12 * abs(bound)
        assert drops > 0  # some constraints leave the last space


class TestGradStepCandidates:
    def test_first_candidate_reaches_linear_target(self):
        problem = problem_of(EQ_GE_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        directions = grad_step_candidates(state)
        assert directions, "gradient present, directions expected"
        landing = state.vec + state.chain.lift(grad_step_landings(state)[0])
        assert landing == pytest.approx([10.0, 10.0], rel=1e-5)
        assert len(directions) <= 1 + state.chain.rows.shape[0]
        assert len(grad_step_landings(state)) <= 2 * (1 + state.chain.rows.shape[0])

    def test_zero_gradient_means_no_candidates(self):
        problem = problem_of("""
var x1 : f64
init x1 = 0
abe 0 * x1 - 3 >= 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        assert np.array_equal(state.grad_n, np.zeros(1))
        assert grad_step_candidates(state) == []

    def test_one_nonzero_partial_walks_the_gradient_alone(self):
        """A gradient with one nonzero partial and no -0.0 builds the same landings
        along its axis as along itself, bit for bit, so the axis is left out; a -0.0
        elsewhere makes the axis direction differ in the sign of a zero, and keeps it."""
        problem = problem_of("var x : f64\nvar y : i32\nvar z : f64\n"
                             "init x = 1\ninit y = 2\ninit z = 3\nabe x + y + z - 50 >= 0\n")
        state = build_spaces(problem, problem.init, problem.init_values)
        for grad, directions in (([0.0, -2.5, 0.0], [None]), ([4.0, 0.0, 0.0], [None]),
                                 ([-0.0, -2.5, 0.0], [None, 1]), ([0.0, 1.0, 3.0], [None, 1, 2]),
                                 ([0.0, 0.0, 0.0], [])):
            one = dataclasses.replace(state, grad_n=np.array(grad))
            assert grad_step_candidates(one) == directions
            if directions == [None]:
                axis = int(np.flatnonzero(one.grad_n)[0])
                assert [u.tobytes() for u in solver._landings(one, axis)] \
                    == [u.tobytes() for u in solver._landings(one, None)]

    def test_eq_linear_lands_exactly(self):
        problem = problem_of("""
var x : f64
init x = 0
abe 2 * x - 6 == 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        landing = state.vec + state.chain.lift(grad_step_landings(state)[0])
        record = eval_prefix(problem.fns, problem.comps,
                             type(problem.init)(problem.init.signature,
                                                (float(landing[0]),)))
        assert record.values[0] == 0.0

    @pytest.mark.parametrize("comp, line_steps", [
        (">=", 0), (">", 1), ("==", 0), ("<=", 1), ("<", 1), ("!=", 1)])
    def test_line_steps_wait_for_the_candidate_reached(self, monkeypatch, comp, line_steps):
        """The first grad-step candidate solves the 200-variable sum: a landing at t
        itself (the first of ``>=`` and ``==``) takes no line step, any other landing
        one, not one per direction; and each direction walked alone takes one line
        step, when it first reaches a landing off t, which its later landings share."""
        names = [f"x{i}" for i in range(200)]
        shift = {"<=": " + 400", "<": " + 400", "!=": ""}.get(comp, " - 400")  # fails at 0
        problem = problem_of("\n".join(
            [*(f"var {n} : i32" for n in names), *(f"init {n} = 0" for n in names),
             "abe " + " + ".join(names) + f"{shift} {comp} 0"]))
        signs = problem.comps[-1].signs
        calls, building = [], []

        def counting(*args):
            calls.append(bool(building))
            return epsilon_along_line(*args)

        def marked(*args, **kwargs):
            building.append(True)
            try:
                return build_spaces(*args, **kwargs)
            finally:
                building.pop()

        monkeypatch.setattr(solver, "epsilon_along_line", counting)
        monkeypatch.setattr(solver, "build_spaces", marked)
        result = solve(problem, SolverConfig(max_iterations=1))
        assert result.solved and [r.source for r in result.log] == [solver.GRAD_STEP]
        assert calls.count(False) == line_steps

        state = build_spaces(problem, problem.init, problem.init_values)
        calls.clear()
        directions = grad_step_candidates(state)
        assert len(directions) == 201 and calls == []
        first = next(solver._landings(state, directions[0]))
        assert len(calls) == line_steps
        landing = extract(state.vec + state.chain.lift(first), problem.init.signature)
        assert is_solution(problem, landing)
        for axis in reversed(directions):
            calls.clear()
            walked = 0
            for walked, _ in enumerate(solver._landings(state, axis), 1):
                assert len(calls) == any(signs[:walked])
            assert walked == len(signs)

    def test_the_list_stays_small(self):
        """1001 directions of a 1000-variable sum: the list holds no vector."""
        names = [f"x{i}" for i in range(1000)]
        problem = problem_of("\n".join(
            [*(f"var {n} : i32" for n in names), *(f"init {n} = 0" for n in names),
             "abe " + " + ".join(names) + " - 5 >= 0"]))
        state = build_spaces(problem, problem.init, problem.init_values)
        tracemalloc.start()
        try:
            directions = grad_step_candidates(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(directions) == 1001
        assert peak < 1e6


class TestBitMutationCandidates:
    def test_axis_basis_gives_pure_bit_vectors(self):
        problem = problem_of("""
var x : i32
init x = 0
abe x - 100 >= 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        [(u, ys)] = bit_mutation_candidates(state)
        assert u.tolist() == [1.0]
        assert ys == [float(2 ** j) for j in range(32)]
        candidates = bit_mutation_block(state)
        assert len(candidates) == 32
        for j, u in enumerate(candidates, start=1):
            assert u == pytest.approx([float(2 ** (j - 1))])

    def test_diagonal_subspace_example(self):
        # B = {(1,1)/sqrt2}: the closest plane point for y=1 lifts to (1,1)
        problem = problem_of("""
var x1 : i32
var x2 : i32
init x1 = 0
init x2 = 0
abe x1 - x2 == 0
abe x1 + x2 - 5 >= 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        assert state.chain.rows[0] == pytest.approx(
            [1 / SQ2, 1 / SQ2], abs=1e-9)
        assert len(bit_mutation_candidates(state)) == 2  # one entry per variable
        candidates = bit_mutation_block(state)
        assert len(candidates) == 64  # two i32 variables
        lifted = state.chain.lift(candidates[0])
        assert lifted == pytest.approx([1.0, 1.0], abs=1e-9)
        lifted_bit3 = state.chain.lift(candidates[2])
        assert lifted_bit3 == pytest.approx([4.0, 4.0], abs=1e-9)

    def test_unreachable_variable_skipped(self):
        problem = problem_of("""
var x1 : i32
var x2 : i32
init x1 = 0
init x2 = 0
abe x1 == 0
abe x1 + x2 - 5 >= 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        # B_2 = {(0,1)}: x1's axis is unreachable, only x2 mutates
        [(u, ys)] = bit_mutation_candidates(state)
        assert u.tolist() == [1.0] and len(ys) == 32
        assert len(bit_mutation_block(state)) == 32

    def test_float_variables_skipped(self):
        problem = problem_of(EQ_GE_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        assert bit_mutation_candidates(state) == []
        assert bit_mutation_block(state).shape == (0, state.chain.rows.shape[0])

    def test_empty_level_gives_an_empty_block(self):
        # the equality leaves no axis: no candidate, and a block the level lifts
        problem = problem_of("""
var x : i32
init x = 0
abe x == 0
abe x - 5 >= 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        assert state.chain.rows.shape == (0, 1)
        assert bit_mutation_candidates(state) == []
        candidates = bit_mutation_block(state)
        assert candidates.shape == (0, 0)
        assert state.chain.lift_rows(candidates).shape == (0, 1)

    def test_set_bit_mutates_downward(self):
        problem = problem_of("""
var x : i32
init x = 5
abe x - 100 >= 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        # x = 0b101: bits 1 and 3 are set, so y is negative there
        [(_, ys)] = bit_mutation_candidates(state)
        assert ys[:3] == [-1.0, 2.0, -4.0]
        candidates = bit_mutation_block(state)
        assert candidates[0] == pytest.approx([-1.0])
        assert candidates[1] == pytest.approx([2.0])
        assert candidates[2] == pytest.approx([-4.0])


#: Descent steps per bit in the pinned-descent oracle.
BIT_MUT_STEPS = 10


def pin_to_plane(u, pivot, coords, y):
    """Recompute the pivot coordinate so that ``u`` lifts onto the target plane.

    The plane is sum_k u_k * coords_k = y, with ``coords`` the root-space
    i-th coordinates of the basis vectors.
    """
    u = u.copy()
    partial = float(u @ coords) - u[pivot] * coords[pivot]
    u[pivot] = (y - partial) / coords[pivot]
    return u


def plane_descent_gradient(u, pivot, coords):
    """Gradient of the squared distance to the plane target, pivot held dependent.

    With the pivot coordinate always recomputed from the others, the partial
    derivatives reduce to 2*(u_k - u_p * coords_k / coords_p) and the pivot's
    own partial is zero.
    """
    g = 2.0 * (u - (u[pivot] / coords[pivot]) * coords)
    g[pivot] = 0.0
    return g


def per_bit_bit_mutations(state, guard):
    """Bit mutations found by a pinned descent of their own for every bit.

    The former search for each bit's target: up to ``BIT_MUT_STEPS``
    Polyak steps on the squared distance to y*e_i, with the largest
    coordinate pinned to the plane.  Each bit's descent starts from and
    targets its own y = +-2**(j-1) and stops once the squared descent
    gradient is at most ``guard(y)``: ``PIVOT_GUARD`` is an absolute test,
    ``PIVOT_GUARD * y * y`` the same test taken at scale 1.  Returns one
    ``(i, y, u)`` per candidate, in ``bit_mutation_candidates`` order.
    """
    signature = state.valuation.signature
    lifted = state.chain.rows
    dim_local = lifted.shape[0]
    if dim_local == 0:
        return []
    params = set(state.problem.fns[-1].params)
    out = []
    for i, (name, typ) in enumerate(zip(signature.names, signature.types)):
        if name not in params or not typ.is_integer:
            continue
        coords = lifted[:, i]
        pivot = int(np.argmax(np.abs(coords)))
        if abs(coords[pivot]) < PIVOT_GUARD:
            continue
        width = typ.bit_width
        raw = int(state.valuation.values[i]) & ((1 << width) - 1)
        target_axis = np.zeros(lifted.shape[1], dtype=np.float64)
        target_axis[i] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, width + 1):
                bit = (raw >> (j - 1)) & 1
                y = float((1 - 2 * bit) * (1 << (j - 1)))
                u = np.zeros(dim_local, dtype=np.float64)
                u[pivot] = y
                for _ in range(BIT_MUT_STEPS):
                    g = plane_descent_gradient(u, pivot, coords)
                    gg = float(g @ g)
                    if gg > guard(y):
                        diff = u @ lifted - y * target_axis
                        f_val = float(diff @ diff)
                        u = u + (-f_val / gg) * g
                    u = pin_to_plane(u, pivot, coords, y)
                    if gg <= guard(y):
                        break
                out.append((i, y, u))
    return out


def absolute_guard(y):
    return PIVOT_GUARD


def scaled_guard(y):
    return PIVOT_GUARD * y * y


def _bit_mutation_state(seed, *, axis_gradients):
    """A valuation and a chain of up to three ``next_basis`` levels over it.

    The last function reads a random subset of the variables.  Without
    ``axis_gradients`` half of the gradients lie close to an axis, which
    leaves some variables barely reachable from the top level.
    """
    rand = random.Random(seed)
    rng = np.random.default_rng(seed)
    dim = rand.randint(1, 8)
    entries = []
    for k in range(dim):
        typ = rand.choice([I8, I16, I32, I64, U8, U16, U32, U64, F64])
        if typ is F64:
            value = rand.uniform(-100.0, 100.0)
        else:
            value = rand.choice([0, typ.min_value, typ.max_value,
                                 rand.randint(typ.min_value, typ.max_value)])
        entries.append((f"x{k}", typ, value))
    valuation = Valuation.of(entries)
    chain = BasisChain(dim)
    for _ in range(rand.randint(1, 3)):
        top = chain.rows.shape[0]
        if top == 0:
            break
        if axis_gradients or rand.random() < 0.5:
            grad = np.zeros(top)
            grad[rand.randrange(top)] = rand.choice([-3.0, 1.0, 2.5])
            if not axis_gradients:
                grad += rng.normal(size=top) * 10.0 ** -rand.randint(3, 14)
        else:
            grad = rng.normal(size=top)
        chain.extend(next_basis(grad, append_gradient=rand.random() < 0.5))
    params = [name for name in valuation.signature.names if rand.random() < 0.8]
    fn = BlackBoxFn(tuple(params), lambda v: 0.0)
    return SimpleNamespace(valuation=valuation, chain=chain,
                           problem=SimpleNamespace(fns=(fn,)))


def _assert_same_bits(got, expected):
    assert len(got) == len(expected)
    for a, (_, _, b) in zip(got, expected):
        assert a.tobytes() == b.tobytes()


class TestBitMutationsAgainstPerBitDescent:
    """The closed-form targets against the pinned descent they replaced."""

    def test_random_chains_no_farther_than_descent(self):
        for seed in range(150):
            state = _bit_mutation_state(seed, axis_gradients=False)
            lifted = state.chain.rows
            got = bit_mutation_block(state)
            expected = per_bit_bit_mutations(state, scaled_guard)
            assert len(got) == len(expected)
            for u, (i, y, descent_u) in zip(got, expected):
                target = np.zeros(lifted.shape[1])
                target[i] = y
                point = u @ lifted
                assert abs(point[i] - y) <= 1e-9 * abs(y)
                ours = float(np.linalg.norm(point - target))
                theirs = float(np.linalg.norm(descent_u @ lifted - target))
                assert ours <= theirs + 1e-9 * max(theirs, abs(y))

    def test_axis_chains_match_absolute_guard(self):
        for seed in range(100):
            state = _bit_mutation_state(seed, axis_gradients=True)
            _assert_same_bits(bit_mutation_block(state),
                              per_bit_bit_mutations(state, absolute_guard))

    def test_diagonal_subspace_matches_absolute_guard(self):
        problem = problem_of("""
var x1 : i32
var x2 : i32
init x1 = 0
init x2 = 0
abe x1 - x2 == 0
abe x1 + x2 - 5 >= 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        _assert_same_bits(bit_mutation_block(state),
                          per_bit_bit_mutations(state, absolute_guard))


class TestPlaneDescentHelpers:
    def test_pin_lands_on_plane(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=4)
        pivot = int(np.argmax(np.abs(coords)))
        u = rng.normal(size=4)
        pinned = pin_to_plane(u, pivot, coords, y=2.5)
        assert float(pinned @ coords) == pytest.approx(2.5, rel=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dim_local, dim_root = 3, 5
            basis = np.linalg.qr(rng.normal(size=(dim_root, dim_root)))[0][:dim_local]
            i = int(rng.integers(0, dim_root))
            coords = basis[:, i]
            if np.max(np.abs(coords)) < 1e-6:
                continue
            pivot = int(np.argmax(np.abs(coords)))
            y = float(rng.choice([1.0, -8.0, 64.0]))
            target = np.zeros(dim_root)
            target[i] = y
            u = pin_to_plane(rng.normal(size=dim_local) * 3.0, pivot, coords, y)

            def f_of_free(free_u):
                pinned = pin_to_plane(free_u, pivot, coords, y)
                diff = pinned @ basis - target
                return float(diff @ diff)

            grad = plane_descent_gradient(u, pivot, coords)
            h = 1e-6
            for k in range(dim_local):
                if k == pivot:
                    assert grad[k] == 0.0
                    continue
                up, down = u.copy(), u.copy()
                up[k] += h
                down[k] -= h
                numeric = (f_of_free(up) - f_of_free(down)) / (2 * h)
                assert grad[k] == pytest.approx(numeric, rel=1e-6, abs=1e-6)


class TestRandomCandidates:
    def test_zero_gradient_single_cube(self):
        problem = problem_of("""
var x1 : f64
init x1 = 0
abe 0 * x1 - 3 >= 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        rng = np.random.default_rng(0)
        candidates = random_candidates(state, lambda: rng)
        assert len(candidates) == 48

    def test_one_cube_with_gradient(self):
        problem = problem_of(EQ_GE_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        candidates = random_candidates(state, lambda: np.random.default_rng(0))
        assert len(candidates) == solver.SAMPLES_PER_CUBE

    def test_zero_distance_samples_centers(self):
        problem = problem_of("""
var x : f64
init x = 0
abe x > 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        assert state.f_n == 0.0
        candidates = random_candidates(state, lambda: np.random.default_rng(5))
        for u in candidates:
            assert u == pytest.approx(np.zeros(1))

    def test_seeded_determinism(self):
        problem = problem_of(EQ_GE_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        a = random_candidates(state, lambda: np.random.default_rng(42))
        b = random_candidates(state, lambda: np.random.default_rng(42))
        assert len(a) == len(b)
        for ua, ub in zip(a, b):
            assert np.array_equal(ua, ub)

    def test_a_dead_end_tries_one_whole_block(self):
        """An iteration that accepts no candidate tries exactly ``SAMPLES_PER_CUBE``
        random samples and leaves the generator where one draw of that block leaves
        it, so every later iteration draws what it would draw alone."""
        problem = problem_of(LE_EQ_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        rng, drawn = np.random.default_rng(9), np.random.default_rng(9)
        tried = [s for s, _ in solver._candidates(state, lambda: rng) if s == solver.RANDOM]
        assert len(tried) == solver.SAMPLES_PER_CUBE
        drawn.uniform(size=(solver.SAMPLES_PER_CUBE, state.chain.rows.shape[0]))
        assert rng.bit_generator.state == drawn.bit_generator.state

    # 4 gradient calls, two per function.  The full gradient and the one axis
    # direction are one direction here, so its two landings and their three
    # halvings give 8 distinct grad-step candidates at 2 calls each; in i32
    # only 3 are distinct, since the halvings round onto (-1, 1) and then onto
    # the current valuation.  i32 has 64 bit mutations, 32 of which keep the
    # prefix and call the target too: 96 calls, less the 2 prefix calls at
    # (1, 0) and (0, 1), which repeat its gradient steps.  The 48 samples
    # tried make 70, since 22 keep the prefix.
    @pytest.mark.parametrize("typ, calls", [("f64", 4 + 16 + 70), ("i32", 4 + 6 + 94 + 70)],
                             ids=["f64", "i32"])
    def test_dead_end_tries_one_cube(self, typ, calls):
        """No candidate can satisfy both x1 - x2 <= 0 and x1 - x2 >= 5, so the
        one iteration tries every candidate: each grad-step landing, full and
        halved, and the ``SAMPLES_PER_CUBE`` samples of one cube.  A second cube
        would cost at least 48 calls more."""
        problem = problem_of(f"""
var x1 : {typ}
var x2 : {typ}
init x1 = 0
init x2 = 0
abe x1 - x2 <= 0
abe x1 - x2 - 5 >= 0
""")
        result = solve(problem, SolverConfig(rng_seed=0))
        assert result.status is Status.FAILED_NO_PROGRESS
        assert (result.iterations_used, result.evaluations_used) == (1, calls)


class TestGeneratorAtTheFirstDraw:
    def test_draws_the_seeded_stream(self, monkeypatch):
        """A solve whose five iterations each accept a random sample builds one
        generator, seeded with ``rng_seed``, and each iteration draws all
        ``SAMPLES_PER_CUBE`` samples from it: numpy's ``default_rng`` stream."""
        fn = BlackBoxFn(("x",), lambda v: math.floor(v["x"] / 50.0) - 10.0)
        problem = CoverageProblem((fn,), (Comparator.GE,), Valuation.of([("x", F64, 0.0)]))
        seeds, draws = record_generators(monkeypatch)
        result = solve(problem, SolverConfig(rng_seed=3))
        assert (result.status, result.iterations_used, result.evaluations_used) \
            == (Status.SOLVED, 5, 12)
        assert [e.source for e in result.log] == [solver.RANDOM] * 5
        assert seeds == [3]
        assert [size for (_, _, size), _ in draws] == [(solver.SAMPLES_PER_CUBE, 1)] * 5
        oracle = np.random.default_rng(3)
        for (low, high, size), block in draws:
            assert block.tobytes() == oracle.uniform(low, high, size=size).tobytes()

    # a chain the first grad step solves, a dead end that tries the samples, and
    # one whose last level has size 0, so that its random step draws nothing
    @pytest.mark.parametrize("text, status, made", [
        (EQ_LE_GE_TRACE, "SOLVED", 0),
        ("var x1 : f64\nvar x2 : f64\ninit x1 = 0\ninit x2 = 0\n"
         "abe x1 - x2 <= 0\nabe x1 - x2 - 5 >= 0\n", "FAILED_NO_PROGRESS", 1),
        ("var x : f64\ninit x = 0\nabe x == 0\nabe x - 1 >= 0\n", "FAILED_NO_PROGRESS", 0),
    ], ids=["chain", "dead-end", "size-0"])
    def test_never_imports_numpy_random(self, text, status, made):
        """Only a solve that reaches the random samples builds a generator, and no
        solve imports numpy.random, or the secrets module it would load."""
        script = (
            "import sys\n"
            "from covsolve import SolverConfig, compile_spec, parse_spec, solve, solver\n"
            "made = []\n"
            "class Counted(solver.PCG64):\n"
            "    def __init__(self, seed):\n"
            "        made.append(seed)\n"
            "        super().__init__(seed)\n"
            "solver.PCG64 = Counted\n"
            f"result = solve(compile_spec(parse_spec({text!r})), SolverConfig(rng_seed=0))\n"
            "print(result.status.value, len(made),\n"
            "      *(name in sys.modules for name in ('numpy.random', 'secrets')))\n")
        src = str(Path(solver.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.split() == [status, str(made), "False", "False"]


class TestCandidateBounds:
    @pytest.mark.parametrize("text", [EQ_GE_TRACE, LE_EQ_TRACE, LE_EQ_EQ_TRACE, """
var a : i16
var b : u8
init a = 0
init b = 0
abe a - b <= 0
abe a + b - 50 >= 0
"""])
    def test_counts_within_spec_bounds(self, text):
        problem = problem_of(text)
        state = build_spaces(problem, problem.init, problem.init_values)
        dim_local = state.chain.rows.shape[0]
        n_params = len(problem.fns[-1].params)
        assert len(grad_step_candidates(state)) <= 1 + dim_local
        assert len(grad_step_landings(state)) <= 2 * (1 + dim_local)
        assert len(bit_mutation_candidates(state)) <= n_params  # one entry per variable
        assert len(bit_mutation_block(state)) <= 64 * n_params
        rng = np.random.default_rng(0)
        assert len(random_candidates(state, lambda: rng)) <= solver.SAMPLES_PER_CUBE


class TestCandidateLoopClipping:
    @pytest.mark.parametrize("text, constrained", [("""
var x1 : f64
init x1 = 0
abe 0 * x1 - 3 >= 0
""", False), (LE_EQ_TRACE, True)])
    def test_each_random_sample_tried_once_unclipped(self, text, constrained):
        """Each of the ``SAMPLES_PER_CUBE`` samples is tried once, lifted as drawn,
        whether or not it lies inside the constraints."""
        problem = problem_of(text)
        state = build_spaces(problem, problem.init, problem.init_values)
        tried = [candidate.values for source, candidate in
                 solver._candidates(state, lambda: np.random.default_rng(3))
                 if source == solver.RANDOM]
        samples = random_candidates(state, lambda: np.random.default_rng(3))
        assert len(samples) == solver.SAMPLES_PER_CUBE
        expected = [extract(state.vec + state.chain.lift(u), problem.signature).values
                    for u in samples]
        assert [bits_key(v) for v in tried] == [bits_key(v) for v in expected]
        outside = sum(not satisfies_all(u, state.constraints) for u in samples)
        if constrained:  # some samples satisfy the constraint, others do not
            assert 0 < outside < len(samples)
        else:  # no constraints: every sample is inside
            assert outside == 0

    def test_clip_runs_once_per_candidate_reached(self, monkeypatch):
        problem = problem_of("""
var x : f64
init x = 0
abe 2 * x - 6 >= 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        # one variable: the gradient is its own axis direction, so only its two
        # landings, t and t + eps, are walked
        assert len(grad_step_landings(state)) == 2
        calls = []

        def counting_clip(*args, **kwargs):
            calls.append(args[0])
            return clip(*args, **kwargs)

        monkeypatch.setattr(solver, "clip", counting_clip)
        result = solve(problem)
        assert result.solved
        assert [(e.iteration, e.source) for e in result.log] == [(1, solver.GRAD_STEP)]
        assert len(calls) == 1


# The comparator rules of the search as they were written before
# ``Comparator`` read them from its table of signs, kept as oracles.

OLD_P_VALUES = {
    Comparator.EQ: lambda t, e: (t,),
    Comparator.NEQ: lambda t, e: (t - e, t + e),
    Comparator.LT: lambda t, e: (t - e,),
    Comparator.LE: lambda t, e: (t - e, t),
    Comparator.GT: lambda t, e: (t + e,),
    Comparator.GE: lambda t, e: (t, t + e),
}


def old_improves(comp, old_value, new_value):
    if comp is Comparator.EQ:
        return abs(new_value) < abs(old_value)
    if comp is Comparator.NEQ:
        return abs(new_value) > abs(old_value)
    if comp in (Comparator.LT, Comparator.LE):
        return new_value < old_value
    return new_value > old_value


def old_shift(comp, coord):
    """Shift off the hyperplane for strict comparators (the function h)."""
    if comp in (Comparator.LE, Comparator.GE):
        return 0.0
    eps = epsilon_from_value(coord)
    if comp is Comparator.LT:
        return -eps
    return eps  # NEQ, GT


def old_nudge_sign(comp):
    return -1.0 if comp in (Comparator.LE, Comparator.LT) else 1.0


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
               2.2250738585072014e-308, -1.0, 1.0, 1e308, -1e308)


def _bits(values):
    return [np.float64(v).tobytes() for v in values]


class TestComparatorTableAgainstOldRules:
    @pytest.mark.parametrize("comp", list(Comparator))
    def test_landing_points(self, comp):
        for t in EDGE_VALUES:
            for eps in (0.0, 5e-324, 2.0**-26, 1.0, 1e308):
                assert _bits(comp.landing(t, eps)) == _bits(OLD_P_VALUES[comp](t, eps))

    @pytest.mark.parametrize("comp", list(Comparator))
    def test_improves(self, comp):
        for old in EDGE_VALUES:
            for new in EDGE_VALUES:
                assert comp.improves(old, new) == old_improves(comp, old, new)

    @pytest.mark.parametrize("comp", [c for c in Comparator if c is not Comparator.EQ])
    def test_shift_and_nudge(self, comp):
        """The strict shift ``clip`` once took and its push: epsilon toward the side of
        the comparator, for the shift only where it is strict."""
        assert comp.side == old_nudge_sign(comp)
        for coord in EDGE_VALUES:
            shift = comp.side * epsilon_from_value(coord) if 0 not in comp.signs else 0.0
            assert _bits([shift]) == _bits([old_shift(comp, coord)])


def _nudge_inside(u, constraint):
    """Push a projection that rounding left an ulp outside back in, by one epsilon along the normal."""
    n = constraint.normal
    nn = float(dot(n, n))
    if nn < DIVISION_GUARD:
        return u
    coord = float(dot(n, u)) / nn
    if not math.isfinite(coord):
        return u
    eps = epsilon_from_value(coord)
    return u + old_nudge_sign(constraint.comp) * eps * n


def two_branch_clip(u, constraints, grad, *, rounds=CLIP_ROUNDS):
    """``clip`` with separate tangent and normal updates, as it was written before.

    Its products are ``dot``'s, as in ``clip``, so the two agree bit for bit.
    """
    u = np.array(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        return u
    if satisfies_all(u, constraints):
        return u
    with np.errstate(over="ignore", invalid="ignore"):
        for round_no in range(rounds):
            tangent = round_no == 0 and float(dot(grad, grad)) > 0.0
            relax = 1.0 if round_no == 0 else RELAXATION
            for c in constraints:
                if satisfies(u, c):
                    continue
                n = c.normal
                nu = float(dot(n, u))
                nn = float(dot(n, n))
                coord = nu / nn if nn >= DIVISION_GUARD else 0.0
                if not math.isfinite(coord):
                    continue
                if tangent:
                    m = n - (float(dot(n, grad)) / float(dot(grad, grad))) * grad
                    nm = float(dot(n, m))
                    if abs(nm) < DIVISION_GUARD:
                        continue
                    u = u + ((c.bound - nu) / nm) * m
                else:
                    if nn < DIVISION_GUARD:
                        continue
                    u = u + relax * ((c.bound - nu) / nn) * n
                if not satisfies(u, c):
                    u = _nudge_inside(u, c)
            if satisfies_all(u, constraints):
                break
    return u


def with_tangent(c, grad):
    """``c`` with the first-round direction of the former ``clip(u, constraints, grad)``."""
    gg = float(dot(grad, grad))
    direction = c.normal - (float(dot(c.normal, grad)) / gg) * grad if gg > 0.0 else c.normal
    return Constraint(c.normal, c.bound, c.comp, direction)


def eager_grad_step_candidates(state, k=0):
    """The grad-step candidates, each scaled by 2**-k and clipped as soon as it is built."""
    grad = state.grad_n
    with np.errstate(over="ignore"):
        gg = float(dot(grad, grad))
    if gg == 0.0:
        return []
    comp = state.problem.comps[-1]
    f_n = state.f_n
    out = []

    def steps_along(direction):
        dd = float(dot(direction, direction))
        if dd == 0.0 or not math.isfinite(dd):
            return
        t = -f_n / dd
        if not math.isfinite(t):
            return
        d_root = state.chain.lift(direction)
        z = ((1.0 - solver.ALPHA) * float(np.max(np.abs(state.vec + t * d_root)))
             + solver.ALPHA * abs(f_n))
        try:
            eps = epsilon_along_line(state.valuation, d_root,
                                     epsilon_from_value(z)) if math.isfinite(z) else 0.0
        except NoStepError:
            eps = 0.0
        for p in OLD_P_VALUES[comp](t, eps):
            out.append(two_branch_clip(2.0 ** -k * (p * direction), state.constraints, grad))

    # a gradient with one nonzero partial and no -0.0 is its own axis step, bit
    # for bit, and that axis is not stepped along again
    entries = grad.tolist()
    axes = [j for j, g in enumerate(entries) if g != 0.0]
    if len(axes) == 1 and not any(g == 0.0 and math.copysign(1.0, g) < 0.0 for g in entries):
        axes = []
    with np.errstate(over="ignore", invalid="ignore"):
        steps_along(grad)
        for j in axes:
            axis_step = np.zeros_like(grad)
            axis_step[j] = grad[j]
            steps_along(axis_step)
    return out


def eager_random_candidates(state, rng):
    """The ``SAMPLES_PER_CUBE`` random samples drawn one at a time, each as drawn."""
    dim_local = state.chain.rows.shape[0]
    if dim_local == 0:
        return []
    half_edge = solver.CUBE_SCALE * math.log(abs(state.f_n) + 1.0)
    return [rng.uniform(-half_edge, half_edge, size=dim_local)
            for _ in range(solver.SAMPLES_PER_CUBE)]


def eager_candidates(state, rng):
    """Every candidate in trial order, built list by list with the grad-step clipping
    inside its generator, each lifted on its own to a root-space point and extracted
    from there; a point ``extract`` refuses is left out.  The grad-step list is built
    again for each backtracking halving, its line steps taken afresh.  The bit
    mutations come from ``helpers.bit_mutation_block``, every variable's rows as one
    block, where the loop builds and lifts one variable's rows at a time."""
    out = []
    steps = [u for k in range(solver.BACKTRACK_HALVINGS + 1)
             for u in eager_grad_step_candidates(state, k)]
    for source, u in ([(solver.GRAD_STEP, u) for u in steps]
                      + [(solver.BIT_MUT, u) for u in bit_mutation_block(state)]
                      + [(solver.RANDOM, u) for u in eager_random_candidates(state, rng)]):
        try:
            out.append((source, extract(state.vec + state.chain.lift(u),
                                        state.valuation.signature).values))
        except ExtractionError:
            pass
    return out


TYPED_CHOICES = (I8, I16, I32, I64, U8, U16, U32, U64, F32, F32)  # f32 one draw in five


def _typed_linear_problem(rand, rng):
    """Affine functions over 1-12 integer and f32 variables behind 1-3 LE/LT/GT/GE prefixes.

    Every prefix holds at the initial valuation, some of them by a thin
    margin so that candidates leave their half-spaces; the last function,
    under any comparator, fails there.
    """
    dim = rand.randint(1, 12)
    entries = []
    for k in range(dim):
        typ = rand.choice(TYPED_CHOICES)
        if typ is F32:
            value = float(np.float32(rand.uniform(-100.0, 100.0)))
        else:
            value = rand.randint(max(typ.min_value, -1000), min(typ.max_value, 1000))
        entries.append((f"x{k}", typ, value))
    init = Valuation.of(entries)
    names = init.signature.names
    x0 = np.array([float(v) for v in init.values])

    def affine(a, c):
        return BlackBoxFn(names, lambda v: float(a @ (np.array(v.values, dtype=float) - x0)) + c)

    fns, comps = [], []
    for _ in range(rand.randint(1, 3)):
        comp = rand.choice([Comparator.LE, Comparator.LT, Comparator.GE, Comparator.GT])
        margin = rand.choice([rand.uniform(0.1, 10.0), 10.0 ** -rand.randint(2, 6)])
        fns.append(affine(rng.normal(size=dim), margin * (1.0 if comp.holds(1.0) else -1.0)))
        comps.append(comp)
    comp = rand.choice(list(Comparator))
    if comp is Comparator.NEQ:
        c = 0.0
    else:
        c = rand.uniform(1.0, 50.0) * (-1.0 if comp.holds(1.0) else 1.0)
    fns.append(affine(rng.normal(size=dim) * 10.0 ** rand.randint(-1, 2), c))
    comps.append(comp)
    return CoverageProblem(tuple(fns), tuple(comps), init)


class TestCandidatesAgainstEagerGenerators:
    """The loop's lazy clipping against generators that clipped their whole lists."""

    def test_random_problems_match_bit_for_bit(self):
        rand = random.Random(1010)
        rng = np.random.default_rng(1010)
        outside = constrained = 0
        for seed in range(300):
            problem = _typed_linear_problem(rand, rng)
            state = build_spaces(problem, problem.init, problem.init_values)
            ours_rng = np.random.default_rng(seed)
            theirs_rng = np.random.default_rng(seed)
            ours = list(solver._candidates(state, lambda: ours_rng))
            theirs = eager_candidates(state, theirs_rng)
            assert [s for s, _ in ours] == [s for s, _ in theirs]
            for (_, candidate), (_, expected) in zip(ours, theirs):
                assert bits_key(candidate.values) == bits_key(expected)
            assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state
            constrained += bool(state.constraints)
            randoms = [candidate for s, candidate in ours if s == solver.RANDOM]
            samples = random_candidates(state, lambda: np.random.default_rng(seed))
            assert len(randoms) == len(samples)
            outside += any(not satisfies_all(u, state.constraints) for u in samples)
        assert constrained >= 200 and outside >= 100

    def test_landings_match_the_eager_candidates(self):
        """The tracer counts grad-step directions with ``len``; walked direction by
        direction, their landings are the eager list's candidates, in number and in
        bytes, on the same 300 problems."""
        rand = random.Random(1010)
        rng = np.random.default_rng(1010)
        for _ in range(300):
            problem = _typed_linear_problem(rand, rng)
            state = build_spaces(problem, problem.init, problem.init_values)
            ours = [clip(u, state.constraints).tobytes() for u in grad_step_landings(state)]
            assert ours == [u.tobytes() for u in eager_grad_step_candidates(state)]

    def test_rewalked_directions_repeat(self):
        """A direction's landings walked twice, in the reverse order of directions,
        have the bytes of the list walked once in order."""
        rand = random.Random(1212)
        rng = np.random.default_rng(1212)
        walked = 0
        for _ in range(150):
            problem = _typed_linear_problem(rand, rng)
            state = build_spaces(problem, problem.init, problem.init_values)
            directions = grad_step_candidates(state)
            in_order = {axis: [u.tobytes() for u in solver._landings(state, axis)]
                        for axis in directions}
            for axis in reversed(directions):
                for _ in range(2):
                    assert [u.tobytes() for u in solver._landings(state, axis)] == in_order[axis]
            walked += sum(map(len, in_order.values()))
        assert walked >= 300

    def test_neq_directions_match_the_eager_oracle(self, monkeypatch):
        """Both landings of a ``!=`` direction, t - eps and t + eps, share one line
        step, and each has the eager oracle's bytes."""
        rand = random.Random(1313)
        rng = np.random.default_rng(1313)
        calls = []

        def counting(*args):
            calls.append(args)
            return epsilon_along_line(*args)

        directions = 0
        while directions < 300:
            problem = _typed_linear_problem(rand, rng)
            if problem.comps[-1] is not Comparator.NEQ:
                continue
            state = build_spaces(problem, problem.init, problem.init_values)
            theirs = [u.tobytes() for u in eager_grad_step_candidates(state)]
            ours = []
            with monkeypatch.context() as patch:
                patch.setattr(solver, "epsilon_along_line", counting)
                for axis in grad_step_candidates(state):
                    calls.clear()
                    landings = [clip(u, state.constraints).tobytes()
                                for u in solver._landings(state, axis)]
                    assert len(landings) == 2 and len(calls) == 1
                    ours += landings
                    directions += 1
            assert ours == theirs

    def test_merged_clip_matches_two_branches(self, monkeypatch):
        rng = np.random.default_rng(77)
        comps = (Comparator.LE, Comparator.LT, Comparator.GE, Comparator.GT,
                 Comparator.NEQ)
        moved = 0
        for case in range(3000):
            dim = int(rng.integers(1, 9))
            constraints = []
            for _ in range(int(rng.integers(1, 7))):
                normal = rng.normal(size=dim) * 10.0 ** float(rng.uniform(-7, 3))
                constraints.append(Constraint(normal, float(rng.normal() * 10.0),
                                              comps[int(rng.integers(0, len(comps)))], normal))
            kind = case % 4
            if kind == 0:
                grad = np.zeros(dim)
            elif kind == 1:  # parallel to a normal, so the tangent component vanishes
                grad = constraints[0].normal * float(rng.uniform(0.5, 2.0))
            else:
                grad = rng.normal(size=dim) * 10.0 ** float(rng.uniform(-3, 3))
            u = rng.normal(size=dim) * 10.0 ** float(rng.uniform(-1, 3))
            rounds = int(rng.integers(1, CLIP_ROUNDS + 1))
            monkeypatch.setattr(constraints_module, "CLIP_ROUNDS", rounds)
            got = clip(u, [with_tangent(c, grad) for c in constraints])
            for c in constraints:
                carried = transform_constraint(c, np.eye(dim), grad)
                if carried is not None:
                    assert (carried.direction.tobytes()
                            == with_tangent(carried, grad).direction.tobytes())
            expected = two_branch_clip(u, constraints, grad, rounds=rounds)
            assert got.tobytes() == expected.tobytes()
            moved += got.tobytes() != u.tobytes()
        assert moved >= 1000


class TestRandomProblemFuzz:
    @staticmethod
    def _random_problem(rng):
        from covsolve.problem import BlackBoxFn, TraceAbe, from_trace
        from covsolve.vecspace import I8, U8, Valuation

        n_vars = int(rng.integers(1, 4))
        decls = []
        for i in range(n_vars):
            typ = U8 if rng.integers(0, 2) else I8
            value = int(rng.integers(0, 6)) if typ is U8 else int(rng.integers(-5, 6))
            decls.append((f"x{i + 1}", typ, value))
        init = Valuation.of(decls)
        trace = []
        for idx in range(int(rng.integers(1, 4))):
            support = rng.choice(n_vars, size=int(rng.integers(1, n_vars + 1)),
                                 replace=False)
            coefs = {f"x{v + 1}": int(rng.integers(-3, 4)) or 1 for v in support}
            const = int(rng.integers(-10, 11))

            def evaluate(valuation, _c=dict(coefs), _k=const):
                return float(sum(c * float(valuation[n]) for n, c in _c.items()) + _k)

            comp = list(Comparator)[int(rng.integers(0, 6))]
            fn = BlackBoxFn(tuple(sorted(coefs)), evaluate, name=f"abe{idx}")
            trace.append(TraceAbe(fn, comp, comp.holds(evaluate(init))))
        return from_trace(trace, init)

    def test_solver_invariants_on_random_problems(self):
        from covsolve.problem import reduce_problem

        rng = np.random.default_rng(4242)
        for _ in range(60):
            problem = self._random_problem(rng)
            reduction = reduce_problem(problem)
            cfg = SolverConfig(rng_seed=int(rng.integers(0, 1000)),
                               max_iterations=15, max_evaluations=4000)
            result = solve(reduction.problem, cfg)
            assert result.evaluations_used <= cfg.max_evaluations
            assert result.iterations_used <= cfg.max_iterations
            if result.status is Status.SOLVED:
                assert is_solution(problem, reduction.extend(result.solution))
            else:
                assert result.solution is None
            comp = problem.comps[-1]
            previous = eval_prefix(reduction.problem.fns, reduction.problem.comps,
                                   reduction.problem.init).values[-1]
            for entry in result.log:
                assert comp.improves(previous, entry.value)
                previous = entry.value


# slopes near 1e-170 square to 0 in a float, and the targets lie 1e40 steps away
TINY_SLOPE = """
var x : f64
init x = 0
abe x * 1e-170 - 1e-300 >= 0
"""

TINY_SLOPE_BEHIND_PREFIX = """
var x : f64
var y : f64
init x = 0
init y = 0
abe x - y * 1e-200 >= 0
abe y * 1e-170 - 1e-300 >= 0
"""

# x * 1e-305 reaches 1e-300 at x = 1e5, but the step length along the plain
# gradient, t = -F/(g.g) = 1e310, overflows
FAR_TINY_SLOPE = """
var x : f64
init x = 0
abe x * 1e-305 - 1e-300 >= 0
"""


class TestGradientsWhoseSquaresUnderflow:
    """Every division by a squared norm rescales once the plain square leaves the normal range."""

    @pytest.mark.parametrize("text", [TINY_SLOPE, TINY_SLOPE_BEHIND_PREFIX],
                             ids=["alone", "behind-prefix"])
    def test_solves(self, text):
        problem = problem_of(text)
        result = solve(problem, SolverConfig(rng_seed=0))
        assert result.solved and is_solution(problem, result.solution)
        assert result.iterations_used == 1

    def test_step_along_the_rescaled_direction(self):
        problem = problem_of(FAR_TINY_SLOPE)
        state = build_spaces(problem, problem.init, problem.init_values)
        first = state.chain.lift(grad_step_landings(state)[0])
        assert first == pytest.approx([1e5], rel=1e-2)
        result = solve(problem, SolverConfig(rng_seed=0))
        assert result.solved and is_solution(problem, result.solution)
        assert result.evaluations_used == 4

    def test_grad_step_and_random_target(self):
        problem = problem_of(TINY_SLOPE)
        state = build_spaces(problem, problem.init, problem.init_values)
        assert state.grad_n == pytest.approx([1e-170], rel=1e-9)
        first = state.chain.lift(grad_step_landings(state)[0])
        assert first == pytest.approx([1e-130], rel=1e-9)  # x * 1e-170 reaches 1e-300
        samples = random_candidates(state, lambda: np.random.default_rng(0))
        assert len(samples) == solver.SAMPLES_PER_CUBE  # one cube, around the origin

    def test_line_step_along_a_tiny_direction(self):
        init = problem_of(TINY_SLOPE).init
        eps = epsilon_along_line(init, np.array([1e-170]), 2.0**-26)
        assert eps == pytest.approx(2.0**-26, rel=1e-12)

    def test_clip_direction_is_tangent_to_a_tiny_gradient(self):
        n = np.array([0.0, 1.0])
        c = transform_constraint(Constraint(n, 0.0, Comparator.LE, n), np.eye(2),
                                 np.array([1e-170, 1e-170]))
        assert c.direction == pytest.approx([-0.5, 0.5], abs=1e-15)


class TestPatternMove:
    """Twice the last grad-step or pattern move is tried first, projected and clipped."""

    def test_max_gate_solves_in_at_most_three_iterations(self):
        # the gradient (1, 1) closes half the gap; one iteration per halving without the move
        problem = problem_of(cli.bundled_suite_dir().joinpath("max_gate.prob").read_text())
        for seed in range(10):
            result = solve(problem, SolverConfig(rng_seed=seed))
            assert result.solved and is_solution(problem, result.solution)
            assert result.iterations_used <= 3
            assert solver.PATTERN in [e.source for e in result.log]

    @staticmethod
    def recording(monkeypatch):
        """Patch ``solver._candidates`` to append (vec, move, sources yielded) per iteration."""
        iterations = []
        candidates = solver._candidates

        def recorded(state, rng, move=None):
            iterations.append((state.vec, move, []))
            for source, *candidate in candidates(state, rng, move):
                iterations[-1][2].append(source)
                yield source, *candidate

        monkeypatch.setattr(solver, "_candidates", recorded)
        return iterations

    def test_move_is_carried_only_after_grad_step_or_pattern(self, monkeypatch):
        """At least 150 problems are drawn, and more, up to a cap, until the move
        was dropped after 20 bit-mutation and 3 random acceptances: backtracked
        grad steps leave random samples few acceptances."""
        iterations = self.recording(monkeypatch)
        rand, rng = random.Random(3), np.random.default_rng(3)
        dropped = Counter()
        for seed in range(600):
            if seed >= 150 and dropped[solver.BIT_MUT] >= 20 and dropped[solver.RANDOM] >= 3:
                break
            problem = _typed_linear_problem(rand, rng)
            iterations.clear()
            result = solve(problem, SolverConfig(rng_seed=seed, max_iterations=20))
            for k, (vec, move, sources) in enumerate(iterations):
                assert (sources[:1] == [solver.PATTERN]) == (move is not None)
                assert solver.PATTERN not in sources[1:]
                previous = result.log[k - 1].source if k else None
                if previous in (solver.GRAD_STEP, solver.PATTERN):
                    assert move.tobytes() == (2.0 * (vec - iterations[k - 1][0])).tobytes()
                else:
                    assert move is None
                    dropped[previous] += 1
        assert dropped[solver.BIT_MUT] >= 20 and dropped[solver.RANDOM] >= 3

    def test_clipped_pattern_candidate_keeps_the_prefix(self):
        problem = problem_of("""
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 1
abe x1 - x2 <= 0
abe x1 + x2 - 100 >= 0
""")
        state = build_spaces(problem, problem.init, problem.init_values)
        move = np.array([20.0, 0.0])  # alone it breaks x1 <= x2
        source, tried = next(iter(solver._candidates(state, lambda: np.random.default_rng(0),
                                                     move)))
        assert source == solver.PATTERN
        assert not satisfies_all(dot(state.chain.rows, move), state.constraints)
        u = clip(dot(state.chain.rows, move), state.constraints)
        candidate = extract(state.vec + state.chain.lift(u), problem.signature)
        assert bits_key(tried.values) == bits_key(candidate.values)
        assert satisfies_all(u, state.constraints)
        assert problem.comps[0].holds(problem.fns[0].eval(candidate))
        assert problem.fns[1].eval(candidate) > problem.init_values[1]

    def test_move_past_half_the_float_range_is_dropped_without_a_warning(self, monkeypatch):
        big = 0.75 * sys.float_info.max  # finite, but twice it overflows
        origin = np.zeros(2)
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            for x1, x2 in [(big, 1.0), (-big, 0.0)]:
                accepted = Valuation.of([("x1", F64, x1), ("x2", F64, x2)])
                assert solver._doubled_move(origin, accepted, solver.GRAD_STEP) is None
            accepted = Valuation.of([("x1", F64, big / 2), ("x2", F64, -3.0)])
            assert solver._doubled_move(origin, accepted, solver.PATTERN).tolist() \
                == [big, -6.0]

        # the grad-step from -1e308 lands at 5e307, 1.5e308 away, where F is -1
        kinked = BlackBoxFn(("x",), lambda v: v["x"] - 5e307 if v["x"] < 0.0 else -1.0)
        problem = CoverageProblem((kinked,), (Comparator.GE,),
                                  Valuation.of([("x", F64, -1e308)]))
        iterations = self.recording(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve(problem, SolverConfig(rng_seed=0, max_iterations=3))
        assert [e.source for e in result.log] == [solver.GRAD_STEP]
        assert [move for _, move, _ in iterations] == [None, None]


class TestSolve:
    def test_eq_ge_trace_solved(self):
        problem = problem_of(EQ_GE_TRACE)
        result = solve(problem, SolverConfig(rng_seed=0))
        assert result.status is Status.SOLVED
        assert result.iterations_used <= 20
        assert result.evaluations_used <= 10_000
        assert is_solution(problem, result.solution)
        # the found valuation satisfies the path shape: x1 == x2, x1 >= 10
        assert result.solution["x1"] == result.solution["x2"]
        assert result.solution["x1"] >= 10.0

    def test_budget_of_one_fails(self):
        problem = problem_of(EQ_GE_TRACE)
        result = solve(problem, SolverConfig(max_evaluations=1))
        assert result.status is Status.FAILED_BUDGET
        assert result.solution is None
        assert result.evaluations_used == 1

    def test_no_progress_on_constant_function(self):
        problem = problem_of("""
var x1 : i8
init x1 = 0
abe 0 * x1 - 3 >= 0
""")
        result = solve(problem, SolverConfig())
        assert result.status is Status.FAILED_NO_PROGRESS
        assert result.iterations_used == 1

    def test_iteration_cap_reports_budget_failure(self):
        problem = problem_of("""
var x : f64
init x = 0
abe x * x + 1 <= 0
""")
        result = solve(problem, SolverConfig(max_iterations=2))
        assert result.status in (Status.FAILED_BUDGET, Status.FAILED_NO_PROGRESS)
        assert result.iterations_used <= 2

    def test_determinism(self):
        problem = problem_of(EQ_GE_TRACE)
        cfg = SolverConfig(rng_seed=1234)
        assert solve(problem, cfg) == solve(problem, cfg)

    def test_log_values_improve_and_stay_unsatisfied_until_solved(self):
        problem = problem_of(EQ_GE_TRACE)
        result = solve(problem, SolverConfig(rng_seed=0))
        comp = problem.comps[-1]
        record = eval_prefix(problem.fns, problem.comps, problem.init)
        previous = record.values[-1]
        for entry in result.log:
            assert comp.improves(previous, entry.value)
            previous = entry.value
        if result.status is Status.SOLVED:
            assert comp.holds(result.log[-1].value)
            for entry in result.log[:-1]:
                assert not comp.holds(entry.value)


def _i32_problem(*fns_and_comps):
    """A problem over one i32 variable x, initially 0, from (eval, comparator) pairs."""
    return CoverageProblem(
        tuple(BlackBoxFn(("x",), f, name=f"f{i}")
              for i, (f, _) in enumerate(fns_and_comps, start=1)),
        tuple(c for _, c in fns_and_comps),
        Valuation.of([("x", I32, 0)]))


def _raise_type_error_off_init(v):
    if v["x"] != 0:
        raise TypeError("unsupported operand")
    return -10.0


RECIPROCAL_THEN_GE = (
    (lambda v: 1.0 / (v["x"] - 1), Comparator.NEQ),  # ZeroDivisionError at x = 1
    (lambda v: v["x"] - 10, Comparator.GE),
)


class TestRaisingBlackBox:
    """ArithmeticError and ValueError from a black box are failed calls."""

    def test_zero_division_is_a_failed_call(self):
        problem = _i32_problem(*RECIPROCAL_THEN_GE)
        result = solve(problem, SolverConfig(rng_seed=0))
        assert result.status is Status.SOLVED
        assert is_solution(problem, result.solution)

    def test_math_domain_error_is_a_failed_call(self):
        # log(4 - x) < 0 needs 3 < x < 4: no i32 value, and x >= 4 leaves the domain
        problem = _i32_problem((lambda v: math.log(4 - v["x"]), Comparator.LT))
        result = solve(problem, SolverConfig(rng_seed=0))
        assert result.status in (Status.FAILED_NO_PROGRESS, Status.FAILED_BUDGET)

    def test_other_exceptions_propagate(self):
        problem = _i32_problem((_raise_type_error_off_init, Comparator.GE))
        with pytest.raises(TypeError, match="unsupported operand"):
            solve(problem, SolverConfig(rng_seed=0))

    def test_result_of_the_wrong_type_propagates_from_solve(self):
        # a bool in place of the distance x - 5 would read as 0.0 or 1.0
        problem = _i32_problem((lambda v: -5.0 if v["x"] == 0 else v["x"] >= 5,
                                Comparator.GE))
        with pytest.raises(TypeError, match="f1 returned bool"):
            solve(problem, SolverConfig(rng_seed=0))

    def test_integer_beyond_float_range_is_a_failed_call(self):
        fn = BlackBoxFn(("x",), lambda v: v["x"] ** 400)
        assert fn.call(Valuation.of([("x", I32, 6)])) is None  # 6**400 > 1.8e308
        assert fn.call(Valuation.of([("x", I32, 2)])) == float(2**400)

    def test_oversized_integer_results_end_in_a_result(self):
        # x**400 > 10**300 needs |x| >= 6, where every result overflows a float;
        # bit mutations and random samples call there
        problem = _i32_problem((lambda v: v["x"] ** 400 - 10**300, Comparator.GT))
        result = solve(problem, SolverConfig(rng_seed=0))
        assert isinstance(result, SolverResult)
        assert result.status is Status.FAILED_NO_PROGRESS

    def test_budget_still_ends_the_search(self):
        problem = _i32_problem(*RECIPROCAL_THEN_GE)
        budget = solve(problem).evaluations_used - 1
        result = solve(problem, SolverConfig(max_evaluations=budget))
        assert result.status is Status.FAILED_BUDGET
        assert result.evaluations_used == budget


# i64 targets past 2**53 from 0, where one unit of x1 or x2 is below half an
# ulp of each value (512 at 3.2e18); the prefix keeps x1 <= 2T
BIGINT_PAIR = """
var x1 : i64
var x2 : i64
init x1 = 0
init x2 = 0
abe x1 - 6400000000000000000 <= 0
abe x1 + x2 - 3200000000000000000 >= 0
"""

BIGINT_U64 = """
var x1 : u64
init x1 = 0
abe x1 - 18000000000000000000 >= 0
"""


class TestAbsorbedDifferences:
    """A partial whose step vanishes in the function's value is retaken once,
    at a step scaled to that value."""

    def test_bigint_partials_read_the_slope(self):
        problem = problem_of(BIGINT_PAIR)
        fn, value = problem.fns[-1], problem.init_values[-1]
        grad = solver.finite_diff_gradient(fn, problem.init, value, np.eye(2),
                                           epsilon_from_value(0.0))
        assert grad.tolist() == [1.0, 1.0]  # both read 0 with the unit step alone

    def test_absorbed_row_is_retaken_once_at_the_value_scale(self):
        calls = []
        fn = BlackBoxFn(("x",), lambda v: calls.append(v["x"]) or 0.0 * v["x"] - 1e20)
        init = Valuation.of([("x", F64, 0.0)])
        grad = solver.finite_diff_gradient(fn, init, -1e20, np.eye(1),
                                           epsilon_from_value(0.0))
        assert grad.tolist() == [0.0]
        assert calls == [2.0**-26, 2.0**(67 - 26)]  # ulp(1e20) = 2**14; 1e20 < 2**67

    @pytest.mark.parametrize("text", [
        "var x : f64\ninit x = 0\nabe x - 1e20 >= 0\n",
        "var x : f32\ninit x = 0\nabe x - 1e30 >= 0\n",
        "var x : f64\ninit x = 0\nabe x - 1e300 >= 0\n",
        "var x : f64\ninit x = 0\nabe x + 1e300 <= 0\n",
        BIGINT_PAIR,
        BIGINT_U64,
    ], ids=["f64-1e20", "f32-1e30", "f64-1e300", "f64-minus-1e300", "i64-pair", "u64"])
    def test_far_targets_solve_in_one_iteration(self, text):
        problem = problem_of(text)
        result = solve(problem, SolverConfig(rng_seed=0))
        assert result.status is Status.SOLVED
        assert result.iterations_used == 1
        assert result.evaluations_used <= 8
        assert is_solution(problem, result.solution)

    def test_step_that_registers_costs_nothing_more(self):
        problem = problem_of("var x : f64\ninit x = 10000000000\nabe 0.000001 * x - 1e10 >= 0\n")
        result = solve(problem, SolverConfig(rng_seed=0))
        assert result.solved
        assert result.evaluations_used == 2

    @pytest.mark.parametrize("typ, offset, evaluations", [
        # 1 gradient call and the 48 samples tried: steps 2**-26 and 1 lie
        # above ulp(5), so no retake
        ("f64", "5", 1 + 48),
        # 1 gradient call, at x = 1; 31 bit mutations, since bit 0's is x = 1;
        # and 43 of the 48 samples: 5 round onto an integer already called
        ("i32", "5", 1 + 31 + 43),
        # 2 gradient calls, the second a retake that reads the same value
        # again, and the 48 samples
        ("f64", "1e20", 2 + 48),
    ], ids=["f64-5", "i32-5", "f64-1e20"])
    def test_flat_function_keeps_its_calls(self, typ, offset, evaluations):
        problem = problem_of(f"var x : {typ}\ninit x = 0\nabe x - x - {offset} >= 0\n")
        result = solve(problem, SolverConfig(rng_seed=0))
        assert result.status is Status.FAILED_NO_PROGRESS
        assert result.evaluations_used == evaluations
