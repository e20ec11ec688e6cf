import math

import numpy as np
import pytest

from covsolve import constraints
from covsolve.constraints import (
    Constraint,
    clip,
    satisfies,
    satisfies_all,
    transform_constraint,
)
from covsolve.localspace import next_basis
from covsolve.numerics import epsilon_from_value
from covsolve.probelang import compile_spec, parse_spec
from covsolve.solver import build_spaces
from covsolve.vecspace import Comparator

SQ2 = math.sqrt(2.0)


class TestSatisfies:
    def test_origin_inside_half_space(self):
        n = np.array([0.0, 1.0])
        c = Constraint(n, 1 / SQ2, Comparator.LE, n)
        assert satisfies(np.zeros(2), c)

    def test_boundary_included_for_le(self):
        n = np.array([0.0, 1.0])
        c = Constraint(n, 0.25, Comparator.LE, n)
        assert satisfies(0.25 * n, c)

    def test_wrong_half_space(self):
        n = np.array([0.0, 1.0])
        c = Constraint(n, 0.25, Comparator.LE, n)
        assert not satisfies(0.25 * n + n, c)

    def test_empty_set_always_satisfied(self):
        assert satisfies_all(np.array([5.0, -3.0]), ())

    def test_eq_constraints_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Constraint(np.array([1.0]), 0.0, Comparator.EQ, np.array([1.0]))


class TestMakeConstraint:
    """The half-space that ``build_spaces`` makes from a prefix predicate."""

    def test_half_space_from_prefix_predicate(self):
        # x1 - x2 <= 0 at (0, 1): value -1, gradient norm sqrt2, two dimensions
        problem = compile_spec(parse_spec("""
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 1
abe x1 - x2 <= 0
abe x1 - 1 == 0
"""))
        state = build_spaces(problem, problem.init, problem.init_values)
        (c,) = state.constraints
        assert c.normal == pytest.approx([0.0, 1.0], abs=1e-9)
        assert c.bound == pytest.approx(1 / SQ2, abs=1e-9)
        assert c.comp is Comparator.LE
        # off the boundary, the half-space holds exactly where the predicate does
        rng = np.random.default_rng(7)
        for u in rng.uniform(-3.0, 3.0, size=(200, 2)):
            x = state.vec + state.chain.lift(u)
            if abs(x[0] - x[1]) > 1e-6:
                assert satisfies(u, c) == (x[0] - x[1] <= 0.0)


class TestTransformConstraint:
    def test_transforms_into_narrower_space(self):
        # B_3 = {(1,-1)/sqrt2} over the two-dimensional level-2 space
        basis = next_basis(np.array([1.0, 1.0]) / SQ2, append_gradient=False)
        n = np.array([0.0, 1.0])
        moved = transform_constraint(Constraint(n, 0.0, Comparator.LE, n), basis, np.zeros(1))
        assert moved is not None
        assert moved.normal == pytest.approx([-1 / SQ2], abs=1e-9)
        assert moved.bound == 0.0
        assert moved.comp is Comparator.LE

    def test_orthogonal_normal_cancels(self):
        basis = next_basis(np.array([0.0, 1.0]), append_gradient=False)
        # basis spans (1,0); a normal along (0,1) cannot be expressed there
        n = np.array([0.0, 1.0])
        assert transform_constraint(Constraint(n, 0.5, Comparator.LE, n), basis,
                                    np.zeros(1)) is None

    def test_identity_transformation(self):
        basis = np.eye(3)
        n = np.array([0.0, 0.0, 1.0])
        c = Constraint(n, 0.75, Comparator.GT, n)
        moved = transform_constraint(c, basis, np.zeros(3))
        assert np.array_equal(moved.normal, c.normal)
        assert np.array_equal(moved.direction, c.normal)  # a zero gradient keeps the normal
        assert moved.bound == c.bound

    def test_transformed_boundary_stays_on_original_plane(self):
        basis = next_basis(np.array([1.0, 1.0]) / SQ2, append_gradient=False)
        n = np.array([0.0, 1.0])
        c = Constraint(n, 0.5, Comparator.LE, n)
        moved = transform_constraint(c, basis, np.zeros(1))
        # a boundary point of the transformed constraint, lifted back
        m = moved.normal
        point = moved.bound * m / float(m @ m)
        back = basis.T @ point
        residual = float(c.normal @ back - c.bound)
        assert abs(residual) <= 1e-12


class TestClip:
    def test_no_op_on_satisfying_input(self):
        n = np.array([0.0, 1.0])
        c = Constraint(n, 1 / SQ2, Comparator.LE, n)
        u = np.array([0.3, -2.0])
        out = clip(u, (c,))
        assert out.tobytes() == u.tobytes()

    def test_le_projects_onto_boundary(self):
        n = np.array([0.0, 1.0])
        c = Constraint(n, 0.0, Comparator.LE, n)
        u = np.array([0.0, 1.0])
        out = clip(u, (c,))
        assert out == pytest.approx([0.0, 0.0], abs=1e-15)
        assert satisfies(out, c)

    def test_gt_lands_strictly_inside(self):
        n = np.array([0.0, 1.0])
        c = Constraint(n, 0.0, Comparator.GT, n)
        u = np.array([0.0, -1.0])
        out = clip(u, (c,))
        eps = epsilon_from_value(-1.0)  # step from the projection coordinate
        assert out == pytest.approx([0.0, eps], abs=1e-18)
        residual = float(c.normal @ out)
        assert residual > 0.0

    def test_first_round_tangent_projection(self):
        grad = np.array([1.0, 1.0])
        n = np.array([0.0, 1.0])
        c = transform_constraint(Constraint(n, 0.0, Comparator.LE, n), np.eye(2), grad)
        u = np.array([0.0, 1.0])
        out = clip(u, (c,))
        # m = n - ((n.g)/(g.g)) g = (-1/2, 1/2); landing preserves u.g
        assert satisfies(out, c)
        assert float(out @ grad) == pytest.approx(float(u @ grad), abs=1e-12)
        assert out == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_single_constraint_exact_in_one_round(self, monkeypatch):
        monkeypatch.setattr(constraints, "CLIP_ROUNDS", 1)
        rng = np.random.default_rng(21)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            normal = rng.normal(size=dim)
            normal /= np.linalg.norm(normal)
            comp = (Comparator.LE, Comparator.GE, Comparator.LT,
                    Comparator.GT)[int(rng.integers(0, 4))]
            c = Constraint(normal, float(rng.normal()), comp, normal)
            u = rng.normal(size=dim) * 5.0
            out = clip(u, (c,))
            assert satisfies(out, c)

    def test_ten_round_limit_tolerates_infeasible_sets(self):
        # contradictory half-spaces: clip must terminate and may still violate
        n = np.array([1.0])
        cs = (Constraint(n, 1.0, Comparator.GE, n), Constraint(-n, 1.0, Comparator.GE, -n))
        u = np.array([0.0])
        out = clip(u, cs)
        assert out.shape == (1,)

    def test_respects_round_limit_parameter(self, monkeypatch):
        n = np.array([1.0])
        c = Constraint(n, 2.0, Comparator.GE, n)
        u = np.array([0.0])
        monkeypatch.setattr(constraints, "CLIP_ROUNDS", 0)
        assert clip(u, (c,)).tobytes() == u.tobytes()
        monkeypatch.setattr(constraints, "CLIP_ROUNDS", 10)
        assert satisfies(clip(u, (c,)), c)
