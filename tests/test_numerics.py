import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsolve.numerics import (
    NoStepError,
    epsilon_along_line,
    epsilon_from_value,
    finite_diff_gradient,
)
from covsolve.vecspace import F32, F64, I32, Signature, round_vector


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


class TestFiniteDiffGradient:
    @staticmethod
    def _line_eps(origin, sig):
        seed = epsilon_from_value(float(np.max(np.abs(origin))) if len(origin) else 0.0)

        def line_eps(j):
            direction = np.zeros(len(origin))
            direction[j] = 1.0
            try:
                return epsilon_along_line(origin, direction, seed, sig)
            except NoStepError:
                return None

        return line_eps

    def test_linear_difference(self):
        sig = Signature.of([("x1", F64), ("x2", F64)])
        origin = np.zeros(2)

        def f(u):
            return u[0] - u[1]

        grad = finite_diff_gradient(f, 0.0, 2, self._line_eps(origin, sig))
        assert grad == pytest.approx([1.0, -1.0], rel=1e-9)

    def test_constant_function(self):
        sig = Signature.of([("x", F64)])
        grad = finite_diff_gradient(lambda u: 42.0, 42.0, 1,
                                    self._line_eps(np.zeros(1), sig))
        assert np.array_equal(grad, np.zeros(1))

    def test_failing_axis_degrades_to_zero(self):
        sig = Signature.of([("x1", F64), ("x2", F64)])

        def f(u):
            if u[0] != 0.0:
                return None  # axis 1 fails for both signs
            return 3.0 * u[1]

        grad = finite_diff_gradient(f, 0.0, 2, self._line_eps(np.zeros(2), sig))
        assert grad[0] == 0.0
        assert grad[1] == pytest.approx(3.0, rel=1e-9)

    def test_negative_retry(self):
        sig = Signature.of([("x", F64)])

        def f(u):
            if u[0] > 0.0:
                return None  # positive side out of domain
            return 2.0 * u[0]

        grad = finite_diff_gradient(f, 0.0, 1, self._line_eps(np.zeros(1), sig))
        assert grad[0] == pytest.approx(2.0, rel=1e-9)

    def test_linear_scaling_matches_coefficients(self):
        sig = Signature.of([(f"x{i}", F64) for i in range(4)])
        coeff = np.array([2.0, -0.5, 7.25, 1e3])
        origin = np.array([1.0, -2.0, 0.5, 100.0])

        def f(u):
            return float(coeff @ (origin + u)) - float(coeff @ origin)

        grad = finite_diff_gradient(f, 0.0, 4, self._line_eps(origin, sig))
        assert grad == pytest.approx(coeff, rel=1e-6)

    def test_deterministic(self):
        sig = Signature.of([("x", F64), ("y", F64)])
        origin = np.array([0.5, -0.25])

        def f(u):
            p = origin + u
            return float(p[0] * p[0] - p[1])

        origin_value = f(np.zeros(2))
        a = finite_diff_gradient(f, origin_value, 2, self._line_eps(origin, sig))
        b = finite_diff_gradient(f, origin_value, 2, self._line_eps(origin, sig))
        assert np.array_equal(a, b)
