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
from covsolve.localspace import dot, next_basis
from covsolve.numerics import _HALF_DIGITS, _SMALLEST_SUBNORMAL, epsilon_from_value
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

    def test_empty_set_returns_u_as_it_is(self):
        u = np.array([0.3, -0.0, np.inf])
        assert clip(u, ()) is u
        out = clip([1, -2], [])
        assert out.dtype == np.float64 and out.tolist() == [1.0, -2.0]

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
        eps = epsilon_from_value(0.0)  # the push steps from the boundary's coordinate
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


SIDED = tuple(c for c in Comparator if c.side)  # every comparator a constraint can have


def _random_constraint(rng, m):
    """A half-space with some zero normal entries and, half the time, a tilted direction."""
    normal = rng.normal(size=m) * 10.0 ** float(rng.uniform(-7, 3))
    normal[rng.random(m) < 0.25] = 0.0
    direction = normal if rng.random() < 0.5 else normal + rng.normal(size=m) * 0.3
    comp = SIDED[int(rng.integers(len(SIDED)))]
    return Constraint(normal, float(rng.normal() * 10.0 ** float(rng.uniform(-3, 3))),
                      comp, direction)


def _epsilon_from_values(a):
    """``epsilon_from_value`` of each entry of a finite array.

    ``np.frexp`` gives 0 the exponent 0 too, and exact powers of two are
    exact in ``np.ldexp`` as in ``math.ldexp``.
    """
    m, e = np.frexp(a)
    eps = np.ldexp(1.0, e - (np.abs(m) == 0.5) - _HALF_DIGITS)
    return np.where(eps == 0.0, _SMALLEST_SUBNORMAL, eps)


def _violated(residuals, comp):
    """Where ``comp`` fails to hold at a residual; a non-finite residual fails every one."""
    signs = np.sign(residuals)
    held = signs == comp.signs[0]
    for sign in comp.signs[1:]:
        held |= signs == sign
    return ~(held & np.isfinite(residuals))


def clip_rows(U, cs):
    """``clip`` of each row of ``U``, taken over the block at once: ``clip``'s oracle.

    A round runs over the rows still active.  Each constraint in turn
    tests them all at their rows as they stand, then moves and nudges the
    ones it finds violated with ``clip``'s arithmetic, row by row.  A row
    that violates nothing in a round leaves the active set, as ``clip`` stops
    there, and a row that is not finite is returned as it came.
    """
    U = np.array(U, dtype=np.float64)
    # n . n, and n . m in the first round; later rounds move along n itself
    products = [(float(dot(c.normal, c.normal)), float(dot(c.normal, c.direction)))
                for c in cs]
    guard = constraints.DIVISION_GUARD
    active = np.flatnonzero(np.isfinite(U).all(axis=1))
    for round_no in range(constraints.CLIP_ROUNDS):
        if not active.size:
            break
        relax = 1.0 if round_no == 0 else constraints.RELAXATION
        V = U[active]
        violated = np.zeros(active.size, dtype=bool)
        for c, (nn, first_nm) in zip(cs, products):
            n, comp = c.normal, c.comp
            nu = dot(V, n)
            hit = np.flatnonzero(_violated(nu - c.bound, comp))
            if not hit.size:
                continue
            violated[hit] = True
            m, nm = (c.direction, first_nm) if round_no == 0 else (n, nn)
            if abs(nm) < guard:
                continue
            nu = nu[hit]
            if nn >= guard:
                moving = np.isfinite(nu / nn)
                hit, nu = hit[moving], nu[moving]
            V[hit] += (relax * (-(nu - c.bound) / nm))[:, None] * m
            if nn < guard:
                continue
            # the ulp nudge of ``clip``, for the rows the move left outside
            nu = dot(V[hit], n)
            outside = _violated(nu - c.bound, comp)
            moving = np.isfinite(coord := nu[outside] / nn)
            V[hit[outside][moving]] += (comp.side * _epsilon_from_values(coord[moving]))[:, None] * n
        U[active] = V
        active = active[violated]
    return U


class TestClipRows:
    """``clip`` against ``clip_rows``, its differential oracle over a block, row by row."""

    def test_rows_match_scalar_clip_byte_for_byte(self, monkeypatch):
        rng = np.random.default_rng(2027)
        nudges = []

        def counting(value):
            nudges.append(value)
            return epsilon_from_value(value)

        seen = dict.fromkeys(SIDED, 0)
        all_rounds = nudged = huge = not_finite = empty = rows = 0
        for case in range(1500):
            m = int(rng.integers(1, 10))
            cs = [_random_constraint(rng, m) for _ in range(int(rng.integers(0, 5)))]
            if cs and rng.random() < 0.2:  # a contradicting copy: no row can satisfy both
                c = cs[0]
                cs.append(Constraint(-c.normal, -c.bound - 1.0, c.comp, -c.direction))
            k = int(rng.integers(1, 40))
            U = rng.normal(size=(k, m)) * 10.0 ** float(rng.uniform(-2, 3))
            kind = rng.random(k)
            U[kind < 0.04, int(rng.integers(m))] = math.inf
            U[(0.04 <= kind) & (kind < 0.06), 0] = math.nan
            U[(0.06 <= kind) & (kind < 0.1), int(rng.integers(m))] = 1e300
            U[(0.1 <= kind) & (kind < 0.13)] = 0.0
            given = U.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                got = clip_rows(U, cs)
                assert got.shape == U.shape and got.dtype == np.float64
                assert U.tobytes() == given.tobytes()
                non_strict = all(0 in c.comp.signs for c in cs)
                for u, row in zip(U, got):
                    nudges.clear()
                    with monkeypatch.context() as patch:
                        patch.setattr(constraints, "epsilon_from_value", counting)
                        expected = clip(u, cs)
                    assert row.tobytes() == expected.tobytes()
                    finite = bool(np.all(np.isfinite(u)))
                    not_finite += not finite
                    huge += finite and float(np.abs(u).max()) == 1e300
                    all_rounds += finite and not satisfies_all(expected, cs)
                    nudged += non_strict and bool(nudges)  # only the nudge takes an epsilon
            for c in cs:
                seen[c.comp] += 1
            empty += not cs
            rows += k
        # a finite row that still violates the set after clipping ran every round
        assert all_rounds >= 2000 and nudged >= 500
        assert huge >= 800 and not_finite >= 1200 and empty >= 200
        assert min(seen.values()) >= 500

    @pytest.mark.parametrize("comp", SIDED)
    def test_residuals_past_the_float_range(self, comp):
        # finite rows whose residual overflows: violated, and moved to an infinity
        n = np.array([1.0, 0.0])
        U = np.array([[1.5e308, 1.0], [-1.5e308, 1.0], [1e308, -0.0], [-1e308, 2.0]])
        moved = 0
        for bound in (1e308, -1e308):
            cs = (Constraint(n, bound, comp, n),)
            with np.errstate(over="ignore", invalid="ignore"):
                got = clip_rows(U, cs)
                for u, row in zip(U, got):
                    assert row.tobytes() == clip(u, cs).tobytes()
                    moved += not np.all(np.isfinite(row))
        assert moved >= 2

    @pytest.mark.parametrize("rounds", [0, 1, 3])
    def test_follows_the_round_limit(self, monkeypatch, rounds):
        monkeypatch.setattr(constraints, "CLIP_ROUNDS", rounds)
        rng = np.random.default_rng(rounds)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            cs = [_random_constraint(rng, m) for _ in range(int(rng.integers(1, 5)))]
            U = rng.normal(size=(8, m)) * 10.0
            with np.errstate(over="ignore", invalid="ignore"):
                got = clip_rows(U, cs)
                assert got.tobytes() == np.array([clip(u, cs) for u in U]).tobytes()

    def test_empty_block(self):
        n = np.array([1.0, 0.0])
        got = clip_rows(np.empty((0, 2)), (Constraint(n, 1.0, Comparator.GE, n),))
        assert got.shape == (0, 2)
