import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsolve.numerics import (
    NoStepError,
    _min_coordinate_step,
    epsilon_along_line,
    epsilon_from_value,
)
from covsolve.problem import BlackBoxFn
from covsolve.solver import finite_diff_gradient
from covsolve.vecspace import (
    F32, F64, I8, I16, I32, I64, U8, U16, U32, U64,
    ExtractionError, Signature, round_vector,
)

ALL_TYPES = [I8, I16, I32, I64, U8, U16, U32, U64, F32, F64]


def full_walk_epsilon_along_line(origin, direction, eps1, signature):
    """The scored line step: of all 2*dim samples, the moving one nearest the line.

    A sample's score is the larger of its step length and the distance of
    its rounded point from the line.
    """
    gg = float(direction @ direction)
    rounded_origin = round_vector(origin, signature)
    best_eps = None
    best_score = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        point = origin + eps1 * direction
        for _ in range(2 * origin.shape[0]):
            try:
                rounded = round_vector(point, signature)
            except ExtractionError:
                break
            if not np.array_equal(rounded, rounded_origin):
                eps = float(((point - origin) @ direction) / gg)
                step_len = abs(eps) * math.sqrt(gg)
                t = float(((rounded - origin) @ direction) / gg)
                line_dist = float(np.linalg.norm(rounded - (origin + t * direction)))
                score = max(step_len, line_dist)
                if score < best_score:
                    best_score = score
                    best_eps = eps
            increment = _min_coordinate_step(rounded, direction, signature)
            if increment is None or increment <= 0.0 or not math.isfinite(increment):
                break
            point = point + increment * direction
    if best_eps is None:
        raise NoStepError("no sample along the line changes the rounded vector")
    return best_eps


def _random_coordinate(rand, typ):
    """A value of ``typ``: small, at an end of its range, or anywhere in it.

    Anywhere in an i64 or u64 range is almost always past 2**53.
    """
    if not typ.is_integer:
        return rand.uniform(-1.0, 1.0) * rand.choice([1.0, 2.0**60, 1e30])
    lo, hi = typ.min_value, typ.max_value
    return float(rand.choice([max(lo, min(hi, rand.randint(-50, 50))),
                              lo, hi, rand.randint(lo, hi)]))


class TestEpsilonFromValue:
    def test_one(self):
        # 1.0 = 1.0 * 2**0 under the 0.5 < |m| <= 1 normalization
        assert epsilon_from_value(1.0) == 2.0**-26

    def test_large_power_of_two(self):
        eps = epsilon_from_value(2.0**60)
        assert eps == 2.0**34
        assert 2.0**60 + eps != 2.0**60

    def test_zero(self):
        assert epsilon_from_value(0.0) == 2.0**-26

    def test_non_power_of_two(self):
        # 1.5 = 0.75 * 2**1
        assert epsilon_from_value(1.5) == 2.0**-25

    def test_sign_symmetric(self):
        assert epsilon_from_value(-7.25) == epsilon_from_value(7.25)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            epsilon_from_value(math.inf)

    def test_largest_float_does_not_overflow(self):
        assert epsilon_from_value(sys.float_info.max) == 2.0**998

    def test_underflow_clamps_to_subnormal(self):
        eps = epsilon_from_value(5e-324)
        assert eps > 0.0
        assert 5e-324 + eps != 5e-324

    @given(st.floats(min_value=-300, max_value=300),
           st.floats(min_value=0.5, max_value=1.0, exclude_min=True))
    @settings(max_examples=500, deadline=None)
    def test_step_always_changes_value(self, exponent, mantissa):
        a = math.ldexp(mantissa, int(exponent))
        for value in (a, -a):
            assert value + epsilon_from_value(value) != value


class TestEpsilonAlongLine:
    def test_integer_axis(self):
        sig = Signature.of([("x1", I32), ("x2", I32)])
        origin = np.zeros(2)
        direction = np.array([1.0, 0.0])
        eps = epsilon_along_line(origin, direction, 0.1, sig)
        # the minimal integer step along the axis: the rounded point is (1, 0)
        assert np.array_equal(round_vector(origin + eps * direction, sig),
                              np.array([1.0, 0.0]))
        assert eps == pytest.approx(1.1)  # S_1=(0.1,0) rounds home; S_2=(1.1,0)

    def test_float_identity_rounding(self):
        sig = Signature.of([("x", F64)])
        eps = epsilon_along_line(np.zeros(1), np.ones(1), 2.0**-25, sig)
        # first sample already changes the rounded value and lies on the line
        assert eps == 2.0**-25

    def test_integer_diagonal(self):
        sig = Signature.of([("x1", I32), ("x2", I32)])
        origin = np.zeros(2)
        direction = np.array([1.0, 1.0])
        eps = epsilon_along_line(origin, direction, 0.1, sig)
        # hand enumeration: S_1=(0.1,0.1) rounds home, S_2=(1.1,1.1), eps=1.1,
        # whose rounded point (1,1) lies exactly on the line
        assert eps == pytest.approx(1.1)
        assert np.array_equal(round_vector(origin + eps * direction, sig),
                              np.array([1.0, 1.0]))

    def test_no_step_raises(self):
        # every coordinate already sits at the top of its type: no next value
        sig = Signature.of([("x", I32)])
        origin = np.array([float(2**31 - 1)])
        with pytest.raises(NoStepError):
            epsilon_along_line(origin, np.array([1.0]), 0.1, sig)

    def test_integer_step_past_2_53(self):
        # a at 2**60 steps by whole floats (256), not by the lost unit step
        sig = Signature.of([("a", I64), ("b", I64)])
        origin = np.array([2.0**60, 5.0])
        direction = np.array([1.0, 1.0])
        eps = epsilon_along_line(origin, direction, 1e-3, sig)
        assert eps == pytest.approx(0.5005)
        assert not np.array_equal(round_vector(origin + eps * direction, sig),
                                  round_vector(origin, sig))

    def test_overflow_ends_the_walk_quietly(self, recwarn):
        # the first sample overflows to inf, which cannot be rounded
        sig = Signature.of([("x", F64)])
        with pytest.raises(NoStepError):
            epsilon_along_line(np.array([1e308]), np.array([1.0]), 1e308, sig)
        assert len(recwarn) == 0

    def test_step_too_long_to_measure_raises(self, recwarn):
        # the first sample moves both coordinates across zero, but its
        # offset from the origin overflows: no finite epsilon reaches it
        sig = Signature.of([("a", F64), ("b", F64)])
        origin = np.array([-1.5e308, 1.5e308])
        with pytest.raises(NoStepError):
            epsilon_along_line(origin, np.array([1.0, -1.0]), 2.0**1023, sig)
        assert len(recwarn) == 0

    def test_zero_direction_rejected(self):
        sig = Signature.of([("x", F64)])
        with pytest.raises(ValueError):
            epsilon_along_line(np.zeros(1), np.zeros(1), 0.1, sig)

    def test_returned_step_changes_extraction(self):
        sig = Signature.of([("x1", I32), ("x2", F32), ("x3", F64)])
        origin = np.array([3.0, 0.25, -1.0])
        direction = np.array([0.5, -1.0, 2.0])
        eps = epsilon_along_line(origin, direction, epsilon_from_value(3.0), sig)
        assert not np.array_equal(
            round_vector(origin + eps * direction, sig),
            round_vector(origin, sig))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=150, deadline=None)
    def test_random_lines_change_extraction(self, dim, seed):
        rng = np.random.default_rng(seed)
        types = [([I32, F32, F64])[rng.integers(0, 3)] for _ in range(dim)]
        sig = Signature.of([(f"x{i}", t) for i, t in enumerate(types)])
        origin = round_vector(rng.uniform(-50, 50, dim), sig)
        direction = rng.uniform(-2, 2, dim)
        if float(direction @ direction) == 0.0:
            return
        try:
            eps = epsilon_along_line(origin, direction, epsilon_from_value(
                float(np.max(np.abs(origin)))), sig)
        except NoStepError:
            return
        assert not np.array_equal(
            round_vector(origin + eps * direction, sig),
            round_vector(origin, sig))


class TestFirstMovingSampleAgainstFullWalk:
    """The first sample that moves the rounded point, checked against the scored walk."""

    @staticmethod
    def _random_line(seed):
        """A random line and whether its origin lies on the typed grid."""
        rand = random.Random(seed)
        dim = rand.randint(1, 8)
        types = [rand.choice(ALL_TYPES) for _ in range(dim)]
        sig = Signature.of([(f"x{i}", t) for i, t in enumerate(types)])
        origin = np.array([_random_coordinate(rand, t) for t in types])
        on_grid = rand.random() < 0.5
        if on_grid:
            origin = round_vector(origin, sig)
        else:
            # off the grid, the first sample that moves the rounded point
            # can lie far from the line and lose to a later one
            origin = origin + np.array([rand.uniform(-0.5, 0.5) for _ in range(dim)])
        # some zero components, so some coordinates stay put along the line
        direction = np.array([rand.gauss(0.0, 1.0) if rand.random() < 0.8 else 0.0
                              for _ in range(dim)])
        if not direction.any():
            direction[0] = 1.0
        eps1 = epsilon_from_value(float(np.max(np.abs(origin))))
        eps1 *= rand.choice([1.0, 2.0 ** rand.randint(-30, 30)])
        return (origin, direction, eps1, sig), on_grid

    @classmethod
    def _lines(cls, on_grid):
        for seed in range(1500):
            line, line_on_grid = cls._random_line(seed)
            if line_on_grid == on_grid:
                yield seed, line

    def test_on_grid_origins_match_full_walk(self):
        for seed, line in self._lines(on_grid=True):
            try:
                expected = full_walk_epsilon_along_line(*line)
            except NoStepError:
                with pytest.raises(NoStepError):
                    epsilon_along_line(*line)
                continue
            assert epsilon_along_line(*line) == expected, seed

    def test_off_grid_origins_move_within_full_walk_step(self):
        for seed, line in self._lines(on_grid=False):
            try:
                full_walk = full_walk_epsilon_along_line(*line)
            except NoStepError:
                with pytest.raises(NoStepError):
                    epsilon_along_line(*line)
                continue
            origin, direction, _, sig = line
            eps = epsilon_along_line(*line)
            assert eps <= full_walk, seed
            assert not np.array_equal(round_vector(origin + eps * direction, sig),
                                      round_vector(origin, sig)), seed


def _gradient(f, sig, origin, lifted=None):
    """``solver.finite_diff_gradient`` of ``f`` (a function of the point) at ``origin``."""
    fn = BlackBoxFn(sig.names, lambda v: f(np.array(v.values, dtype=np.float64)))
    vec = np.asarray(origin, dtype=np.float64)
    if lifted is None:
        lifted = np.eye(len(vec))
    seed = epsilon_from_value(float(np.max(np.abs(vec))))
    return finite_diff_gradient(fn, f(vec), vec, lifted, sig, seed)


class TestFiniteDiffGradient:
    def test_linear_difference(self):
        sig = Signature.of([("x1", F64), ("x2", F64)])
        grad = _gradient(lambda p: p[0] - p[1], sig, np.zeros(2))
        assert grad == pytest.approx([1.0, -1.0], rel=1e-9)

    def test_constant_function(self):
        sig = Signature.of([("x", F64)])
        grad = _gradient(lambda p: 42.0, sig, np.zeros(1))
        assert np.array_equal(grad, np.zeros(1))

    def test_failing_axis_degrades_to_zero(self):
        sig = Signature.of([("x1", F64), ("x2", F64)])

        def f(p):
            if p[0] != 0.0:
                return None  # axis 1 fails for both signs
            return 3.0 * p[1]

        grad = _gradient(f, sig, np.zeros(2))
        assert grad[0] == 0.0
        assert grad[1] == pytest.approx(3.0, rel=1e-9)

    def test_negative_retry(self):
        sig = Signature.of([("x", F64)])

        def f(p):
            if p[0] > 0.0:
                return None  # positive side out of domain
            return 2.0 * p[0]

        grad = _gradient(f, sig, np.zeros(1))
        assert grad[0] == pytest.approx(2.0, rel=1e-9)

    def test_overflowing_quotient_retries_negative_side(self):
        sig = Signature.of([("x", I32)])

        def f(p):
            if p[0] > 0:
                return 1e308  # 1e308 - (-1e308) is beyond the float range
            return -1e308 + 1e300 * float(p[0])

        grad = _gradient(f, sig, np.zeros(1))
        assert 0.0 < grad[0] < math.inf

    def test_overflowing_quotient_on_both_sides_is_zero(self):
        sig = Signature.of([("x", I32)])
        grad = _gradient(lambda p: 1e308 if p[0] == 0 else -1e308, sig, np.zeros(1))
        assert grad[0] == 0.0

    def test_linear_scaling_matches_coefficients(self):
        sig = Signature.of([(f"x{i}", F64) for i in range(4)])
        coeff = np.array([2.0, -0.5, 7.25, 1e3])
        origin = np.array([1.0, -2.0, 0.5, 100.0])

        def f(p):
            return float(coeff @ p) - float(coeff @ origin)

        grad = _gradient(f, sig, origin)
        assert grad == pytest.approx(coeff, rel=1e-6)

    def test_deterministic(self):
        sig = Signature.of([("x", F64), ("y", F64)])
        origin = np.array([0.5, -0.25])

        def f(p):
            return float(p[0] * p[0] - p[1])

        a = _gradient(f, sig, origin)
        b = _gradient(f, sig, origin)
        assert np.array_equal(a, b)

    def test_partials_along_lifted_rows(self):
        sig = Signature.of([("x1", F64), ("x2", F64)])
        lifted = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        grad = _gradient(lambda p: p[0] + 3.0 * p[1], sig, np.zeros(2), lifted=lifted)
        assert grad == pytest.approx([4.0 / math.sqrt(2.0), -2.0 / math.sqrt(2.0)],
                                     rel=1e-6)
