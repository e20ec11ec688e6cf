import math
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsolve.localspace import dot
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
    ExtractionError, Signature, embed, extract, round_vector,
)
from helpers import dense_epsilon_along_line

ALL_TYPES = [I8, I16, I32, I64, U8, U16, U32, U64, F32, F64]


def full_walk_epsilon_along_line(valuation, direction, eps1):
    """The scored line step: of all 2*dim samples, the moving one nearest the line.

    A sample's score is the larger of its step length and the distance of
    its rounded point from the line.  Its products are ``dot``'s, as in
    ``epsilon_along_line``, so the two agree bit for bit.
    """
    types, origin = valuation.signature.types, embed(valuation)
    gg = float(dot(direction, direction))
    rounded_origin = np.array(round_vector(origin, types))
    best_eps = None
    best_score = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        point = origin + eps1 * direction
        for _ in range(2 * origin.shape[0]):
            try:
                rounded = np.array(round_vector(point, types))
            except ExtractionError:
                break
            if not np.array_equal(rounded, rounded_origin):
                eps = float(dot(point - origin, direction) / gg)
                step_len = abs(eps) * math.sqrt(gg)
                t = float(dot(rounded - origin, direction) / gg)
                off_line = rounded - (origin + t * direction)
                line_dist = math.sqrt(dot(off_line, off_line))
                score = max(step_len, line_dist)
                if score < best_score:
                    best_score = score
                    best_eps = eps
            increment = _min_coordinate_step(rounded, direction, types)
            if increment is None or increment <= 0.0 or not math.isfinite(increment):
                break
            point = point + increment * direction
    if best_eps is None:
        raise NoStepError("no sample along the line changes the rounded vector")
    return best_eps


def valuation_at(point, signature):
    """The valuation whose embedding is ``point``, a point on the typed grid."""
    valuation = extract(point, signature)
    assert embed(valuation).tobytes() == np.asarray(point, dtype=np.float64).tobytes()
    return valuation


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

    def test_matches_the_normalised_exponent_bit_for_bit(self):
        # the docstring's definition, with a branch for zero
        def defined(a):
            if a == 0.0:
                n = 0
            else:
                m, e = math.frexp(a)
                n = e - 1 if abs(m) == 0.5 else e
            return math.ldexp(1.0, n - 26) or 5e-324

        rng = random.Random(33)
        values = [0.0, -0.0] + [s * math.ldexp(1.0, e) for e in range(-1074, 1024)
                                for s in (1.0, -1.0)]
        values += [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(52) | sign))[0]
                   for sign in (0, 1 << 63) for _ in range(2000)]  # subnormals
        values += [v for v in (struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
                               for _ in range(20000)) if math.isfinite(v)]
        for value in values:
            assert epsilon_from_value(value).hex() == defined(value).hex(), value

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
        eps = epsilon_along_line(valuation_at(origin, sig), direction, 0.1)
        # the minimal integer step along the axis: the rounded point is (1, 0)
        assert np.array_equal(round_vector(origin + eps * direction, sig.types),
                              np.array([1.0, 0.0]))
        assert eps == pytest.approx(1.1)  # S_1=(0.1,0) rounds home; S_2=(1.1,0)

    def test_float_identity_rounding(self):
        sig = Signature.of([("x", F64)])
        eps = epsilon_along_line(valuation_at(np.zeros(1), sig), np.ones(1), 2.0**-25)
        # first sample already changes the rounded value and lies on the line
        assert eps == 2.0**-25

    def test_integer_diagonal(self):
        sig = Signature.of([("x1", I32), ("x2", I32)])
        origin = np.zeros(2)
        direction = np.array([1.0, 1.0])
        eps = epsilon_along_line(valuation_at(origin, sig), direction, 0.1)
        # hand enumeration: S_1=(0.1,0.1) rounds home, S_2=(1.1,1.1), eps=1.1,
        # whose rounded point (1,1) lies exactly on the line
        assert eps == pytest.approx(1.1)
        assert np.array_equal(round_vector(origin + eps * direction, sig.types),
                              np.array([1.0, 1.0]))

    def test_no_step_raises(self):
        # every coordinate already sits at the top of its type: no next value
        sig = Signature.of([("x", I32)])
        origin = np.array([float(2**31 - 1)])
        with pytest.raises(NoStepError):
            epsilon_along_line(valuation_at(origin, sig), np.array([1.0]), 0.1)

    def test_integer_step_past_2_53(self):
        # a at 2**60 steps by whole floats (256), not by the lost unit step
        sig = Signature.of([("a", I64), ("b", I64)])
        origin = np.array([2.0**60, 5.0])
        direction = np.array([1.0, 1.0])
        eps = epsilon_along_line(valuation_at(origin, sig), direction, 1e-3)
        assert eps == pytest.approx(0.5005)
        assert not np.array_equal(round_vector(origin + eps * direction, sig.types),
                                  round_vector(origin, sig.types))

    def test_overflow_ends_the_walk_quietly(self, recwarn):
        # the first sample overflows to inf, which cannot be rounded
        sig = Signature.of([("x", F64)])
        with pytest.raises(NoStepError):
            epsilon_along_line(valuation_at([1e308], sig), np.array([1.0]), 1e308)
        assert len(recwarn) == 0

    def test_step_too_long_to_measure_raises(self, recwarn):
        # the first sample moves both coordinates across zero, but its
        # offset from the origin overflows: no finite epsilon reaches it
        sig = Signature.of([("a", F64), ("b", F64)])
        origin = np.array([-1.5e308, 1.5e308])
        with pytest.raises(NoStepError), np.errstate(over="ignore", invalid="ignore"):
            epsilon_along_line(valuation_at(origin, sig), np.array([1.0, -1.0]), 2.0**1023)
        assert len(recwarn) == 0

    def test_zero_direction_rejected(self):
        sig = Signature.of([("x", F64)])
        with pytest.raises(ValueError):
            epsilon_along_line(valuation_at(np.zeros(1), sig), np.zeros(1), 0.1)

    def test_returned_step_changes_extraction(self):
        sig = Signature.of([("x1", I32), ("x2", F32), ("x3", F64)])
        origin = np.array([3.0, 0.25, -1.0])
        direction = np.array([0.5, -1.0, 2.0])
        eps = epsilon_along_line(valuation_at(origin, sig), direction, epsilon_from_value(3.0))
        assert not np.array_equal(
            round_vector(origin + eps * direction, sig.types),
            round_vector(origin, sig.types))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=150, deadline=None)
    def test_random_lines_change_extraction(self, dim, seed):
        rng = np.random.default_rng(seed)
        types = [([I32, F32, F64])[rng.integers(0, 3)] for _ in range(dim)]
        sig = Signature.of([(f"x{i}", t) for i, t in enumerate(types)])
        origin = np.array(round_vector(rng.uniform(-50, 50, dim), types))
        direction = rng.uniform(-2, 2, dim)
        if float(direction @ direction) == 0.0:
            return
        try:
            eps = epsilon_along_line(valuation_at(origin, sig), direction, epsilon_from_value(
                float(np.max(np.abs(origin)))))
        except NoStepError:
            return
        assert not np.array_equal(
            round_vector(origin + eps * direction, sig.types),
            round_vector(origin, sig.types))


class TestFirstMovingSampleAgainstFullWalk:
    """The first sample that moves the rounded point, checked against the scored walk."""

    @staticmethod
    def _random_line(seed):
        """A random line from a valuation."""
        rand = random.Random(seed)
        dim = rand.randint(1, 8)
        types = [rand.choice(ALL_TYPES) for _ in range(dim)]
        sig = Signature.of([(f"x{i}", t) for i, t in enumerate(types)])
        origin = np.array(round_vector([_random_coordinate(rand, t) for t in types], types))
        # some zero components, so some coordinates stay put along the line
        direction = np.array([rand.gauss(0.0, 1.0) if rand.random() < 0.8 else 0.0
                              for _ in range(dim)])
        if not direction.any():
            direction[0] = 1.0
        eps1 = epsilon_from_value(float(np.max(np.abs(origin))))
        eps1 *= rand.choice([1.0, 2.0 ** rand.randint(-30, 30)])
        return valuation_at(origin, sig), direction, eps1

    @classmethod
    def _outcomes(cls, routine_of_line):
        """``epsilon_along_line`` and ``routine_of_line`` on 1500 random lines,
        each as a float's hex digits or ``NoStepError``."""
        def outcome(routine, *args):
            try:
                return routine(*args).hex()
            except NoStepError:
                return NoStepError
        for seed in range(1500):
            line = cls._random_line(seed)
            yield seed, outcome(epsilon_along_line, *line), outcome(routine_of_line, *line)

    def test_on_grid_origins_match_full_walk(self):
        for seed, ours, full_walk in self._outcomes(full_walk_epsilon_along_line):
            assert ours == full_walk, seed

    def test_matches_the_array_origin_routine(self):
        steps = 0
        for seed, ours, theirs in self._outcomes(dense_epsilon_along_line):
            assert ours == theirs, seed
            steps += ours is not NoStepError
        assert steps >= 1000


def _gradient(f, sig, origin, lifted=None):
    """``solver.finite_diff_gradient`` of ``f`` (a function of the point) at ``origin``."""
    fn = BlackBoxFn(sig.names, lambda v: f(np.array(v.values, dtype=np.float64)))
    vec = np.asarray(origin, dtype=np.float64)
    if lifted is None:
        lifted = np.eye(len(vec))
    seed = epsilon_from_value(float(np.max(np.abs(vec))))
    return finite_diff_gradient(fn, valuation_at(vec, sig), f(vec), lifted, seed)


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
