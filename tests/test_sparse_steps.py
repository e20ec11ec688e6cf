"""Line steps and finite differences that round only what they move.

``epsilon_along_line`` rounds, at each sample, only the coordinates its
direction moves, and ``finite_diff_gradient`` rounds only a row's nonzero
coordinates at each step, leaving every other one at the origin's exact
value.  The routines that rounded every coordinate stay as differential
oracles: the line step copied as it was (in ``helpers``), the gradient's
step keeping the origin's value wherever the row is zero.  The new ones must
give the same bytes, and the gradient the same calls, on every type, at the
ends of each range, past 2**53, at -0.0, among float32 subnormals, and on
walks that end without a step.  Two boxes that read what the old dense step
changed off the row, the sign of -0.0 and an i64 past 2**53, get their
exact partial.  A call counter on ``ScalarType.nearest`` pins the cost: a
step along one axis rounds as many coordinates in 1000 dimensions as in 10.
"""

import math
import random
import sys
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from covsolve import solver
from covsolve.localspace import dot, next_basis
from covsolve.numerics import (
    NoStepError, epsilon_along_line, epsilon_from_value,
)
from covsolve.problem import BlackBoxFn
from covsolve.solver import finite_diff_gradient
from covsolve.vecspace import (
    F32, F64, I8, I16, I32, I64, U8, U16, U32, U64,
    ExtractionError, ScalarType, Valuation, embed,
)
from helpers import dense_epsilon_along_line, dense_step

TYPES = (I8, I16, I32, I64, U8, U16, U32, U64, F32, F64)


def dense_finite_diff_gradient(fn: BlackBoxFn, origin: Valuation, origin_value: float,
                               lifted: np.ndarray, eps_seed: float) -> np.ndarray:
    """``finite_diff_gradient`` as it was when every step extracted every coordinate,
    except that a coordinate the row does not move keeps ``origin``'s value."""
    signature, vec = origin.signature, embed(origin)
    grad = np.zeros(lifted.shape[0], dtype=np.float64)
    cols = [signature.positions[name] for name in fn.params]
    for j in np.flatnonzero(lifted[:, cols].any(axis=1)):
        row = lifted[j]
        seed = eps_seed
        for _ in range(2):  # the first step, then at most one retake
            try:
                eps = dense_epsilon_along_line(origin, row, seed)
            except NoStepError:
                break
            if eps == 0.0:
                break
            value = None
            for step in (eps, -eps):
                try:
                    valuation = dense_step(origin, vec + step * row, row)
                except ExtractionError:
                    continue
                value = fn.call(valuation)
                if value is None:
                    continue
                partial = (value - origin_value) / step
                if math.isfinite(partial):
                    grad[j] = partial
                    break
            if value != origin_value or abs(eps) >= math.ulp(origin_value):
                break
            seed = epsilon_from_value(origin_value)
    return grad


def edge_values(typ: ScalarType) -> list:
    """Values of ``typ`` where rounding is delicate: the ends of its range,
    integers past 2**53, signed zeros, and subnormals."""
    if typ.is_integer:
        values = [typ.min_value, typ.max_value, typ.max_value - 1, 0, 1]
        if typ.bit_width == 64:
            values += [2**53 + 1, -(2**53 + 1), 2**60 + 3]
        return [v for v in values if typ.min_value <= v <= typ.max_value]
    top = F32.max_value if typ is F32 else sys.float_info.max
    values = [top, -top, 0.0, -0.0, 1.5, -0.375]
    if typ is F32:
        return values + [2.0**-149, -3 * 2.0**-149, 2.0**-127, -(2.0**-126 - 2.0**-149)]
    return values + [5e-324, -(2.0**-1070)]


def random_value(rand: random.Random, typ: ScalarType):
    if rand.random() < 0.4:
        return rand.choice(edge_values(typ))
    if typ.is_integer:
        lo, hi = typ.min_value, typ.max_value
        return rand.choice([max(lo, min(hi, rand.randint(-50, 50))), rand.randint(lo, hi)])
    return typ.nearest(rand.uniform(-1.0, 1.0) * rand.choice([1.0, 2.0**60, 1e30, 1e-30]))


def random_valuation(rand: random.Random, dim: int) -> Valuation:
    types = [rand.choice(TYPES) for _ in range(dim)]
    return Valuation.of([(f"x{i}", t, random_value(rand, t)) for i, t in enumerate(types)])


def random_direction(rand: random.Random, dim: int, shape: str) -> np.ndarray:
    """A direction of signed zeros, nonzero on one axis, two, or all of them."""
    direction = [rand.choice([0.0, -0.0]) for _ in range(dim)]
    count = {"axis": 1, "pair": min(2, dim), "dense": dim}[shape]
    for i in rand.sample(range(dim), count):
        direction[i] = rand.gauss(0.0, 1.0) * rand.choice(
            [1.0, 1.0, 2.0 ** rand.randint(-60, 60), 1e-300, 1e300])
    return np.array(direction)


def random_seed_step(rand: random.Random, origin: Valuation) -> float:
    eps = epsilon_from_value(float(np.max(np.abs(embed(origin)))))
    return eps * rand.choice([1.0, 2.0 ** rand.randint(-40, 40), 2.0**900])


def outcome(routine, *args):
    """The routine's float, as hex digits, or the name of what it raised.

    The routine runs under ``solve``'s float policy, as it does in a search.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return routine(*args).hex()
    except ValueError as exc:  # NoStepError among them
        return type(exc).__name__


def value_bits(valuation: Valuation) -> tuple:
    """``valuation``'s values, bit for bit: -0.0 and 0.0 differ."""
    return tuple(v.hex() if isinstance(v, float) else v for v in valuation.values)


def recording_box(params, coeffs, offset, log) -> BlackBoxFn:
    """A linear box over ``params`` that logs every valuation it sees.

    It reads each value's sign, so a -0.0 moved to +0.0 changes its result,
    and it fails on about one valuation in four, chosen by the bits.
    """
    def evaluate(valuation):
        key = value_bits(valuation)
        log.append(key)
        if zlib.crc32(repr(key).encode()) % 4 == 0:
            return None
        total = offset
        for name, c in zip(params, coeffs):
            x = valuation[name]
            total += c * float(x) + (1e-3 if math.copysign(1.0, x) < 0.0 else 0.0)
        return total

    return BlackBoxFn(tuple(params), evaluate)


def random_rows(rand: random.Random, dim: int) -> np.ndarray:
    """Basis rows: axes, a closed-form basis, or sparse rows with signed zeros."""
    kind = rand.choice(["axes", "basis", "sparse"])
    if kind == "axes":
        rows = np.eye(dim)
        return rows[sorted(rand.sample(range(dim), rand.randint(1, dim)))]
    if kind == "basis":
        grad = np.array([rand.gauss(0.0, 1.0) if rand.random() < 0.7 else 0.0
                         for _ in range(dim)])
        return next_basis(grad, append_gradient=rand.random() < 0.5)
    return np.array([random_direction(rand, dim, rand.choice(["axis", "pair", "dense"]))
                     for _ in range(rand.randint(1, dim))])


def compare_gradients(origin, params, coeffs, offset, lifted, eps_seed):
    """Both gradients' bytes and the valuations each one called, bit for bit.

    Returns the valuations called, as ``value_bits``.
    """
    logs = []
    results = []
    for routine in (finite_diff_gradient, dense_finite_diff_gradient):
        log = []
        fn = recording_box(params, coeffs, offset, log)
        value = fn.call(origin)
        del log[:]
        # the dense step's vector sum warns where a step leaves the float range
        with np.errstate(over="ignore", invalid="ignore"):
            grad = routine(fn, origin, 1.0 if value is None else value, lifted, eps_seed)
        results.append(grad.tobytes())
        logs.append(log)
    assert results[0] == results[1]
    assert logs[0] == logs[1]
    return logs[0]


def off_row_calls(origin, params, lifted) -> int:
    """Each row's gradient alone: every valuation it calls keeps, bit for bit,
    ``origin``'s value wherever the row is zero.  Returns the number of calls."""
    kept = value_bits(origin)
    calls = 0
    for row in lifted:
        log = []
        fn = recording_box(params, [1.0] * len(params), 0.0, log)
        with np.errstate(over="ignore", invalid="ignore"):
            finite_diff_gradient(fn, origin, 0.5, row[None, :], 2.0**-26)
        for call in log:
            assert [c for c, g in zip(call, row.tolist()) if g == 0.0] \
                == [k for k, g in zip(kept, row.tolist()) if g == 0.0]
        calls += len(log)
    return calls


class TestLineStepAgainstDenseWalk:
    def test_random_lines_match_bit_for_bit(self):
        seen = {}
        for seed in range(3000):
            rand = random.Random(seed)
            origin = random_valuation(rand, rand.choice([1, 2, 3, 5, 8, 8, 16, 40]))
            shape = ("axis", "pair", "dense")[seed % 3]
            direction = random_direction(rand, len(origin.values), shape)
            eps1 = random_seed_step(rand, origin)
            ours = outcome(epsilon_along_line, origin, direction, eps1)
            assert ours == outcome(dense_epsilon_along_line, origin, direction, eps1), seed
            kind = ours if ours in ("NoStepError", "ValueError") else "step"
            seen[shape, kind] = seen.get((shape, kind), 0) + 1
        for shape in ("axis", "pair", "dense"):
            assert seen[shape, "step"] >= 300
            assert seen[shape, "NoStepError"] >= 20

    def test_every_type_at_every_edge_value(self):
        for typ in TYPES:
            for value in edge_values(typ):
                for other, start in ((I32, 0), (F32, -0.0), (U64, 2**64 - 1)):
                    origin = Valuation.of([("a", other, start), ("x", typ, value)])
                    for direction in ([0.0, 1.0], [-0.0, -1.0], [0.5, -3.0], [0.0, 1e-300],
                                      [-0.0, 1e300]):
                        for eps1 in (2.0**-26, 0.75, 2.0**70, 2.0**1000):
                            args = (origin, np.array(direction), eps1)
                            assert outcome(epsilon_along_line, *args) \
                                == outcome(dense_epsilon_along_line, *args), (typ, value, args)

    def test_walk_that_overflows_ends_alike(self):
        # the first sample leaves the float range: the rounding raises and no step is found
        origin = Valuation.of([("a", F64, 1e308), ("b", I32, 0)])
        for eps1 in (1e308, 2.0**1023):
            args = (origin, np.array([1.0, 0.0]), eps1)
            assert outcome(epsilon_along_line, *args) == "NoStepError"
            assert outcome(dense_epsilon_along_line, *args) == "NoStepError"

    def test_float32_subnormals_step_by_one_bit_pattern(self):
        origin = Valuation.of([("a", F32, 2.0**-149), ("b", F64, 1.0)])
        args = (origin, np.array([1.0, 0.0]), 2.0**-160)
        assert outcome(epsilon_along_line, *args) == outcome(dense_epsilon_along_line, *args)
        assert F32.nearest(2.0**-149 + epsilon_along_line(*args)) == 2.0**-148

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_drawn_lines_match_bit_for_bit(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=6))
        types = data.draw(st.lists(st.sampled_from(TYPES), min_size=dim, max_size=dim))
        values = [data.draw(drawn_value(t)) for t in types]
        origin = Valuation.of([(f"x{i}", t, v) for i, (t, v) in enumerate(zip(types, values))])
        direction = np.array(data.draw(st.lists(direction_entry(), min_size=dim, max_size=dim)))
        eps1 = data.draw(st.floats(min_value=5e-324, max_value=1e308))
        assert outcome(epsilon_along_line, origin, direction, eps1) \
            == outcome(dense_epsilon_along_line, origin, direction, eps1)


def drawn_value(typ: ScalarType):
    if typ.is_integer:
        return st.one_of(st.sampled_from(edge_values(typ)),
                         st.integers(min_value=typ.min_value, max_value=typ.max_value))
    if typ is F32:
        finite = st.floats(width=32, allow_nan=False, allow_infinity=False).map(float)
    else:
        finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from(edge_values(typ)), finite)


def direction_entry():
    return st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(allow_nan=False, allow_infinity=False))


class TestGradientAgainstDenseSteps:
    def test_random_gradients_match_bit_for_bit(self):
        calls = 0
        for seed in range(600):
            rand = random.Random(seed)
            dim = rand.choice([1, 2, 3, 4, 6, 8, 12])
            origin = random_valuation(rand, dim)
            names = origin.signature.names
            params = sorted(rand.sample(names, rand.randint(1, dim)))
            coeffs = [rand.gauss(0.0, 1.0) * rand.choice([1.0, 1e-9, 1e300]) for _ in params]
            offset = rand.choice([0.0, 0.0, 3.2e18, -7.5])
            calls += len(compare_gradients(origin, params, coeffs, offset,
                                           random_rows(rand, dim),
                                           random_seed_step(rand, origin)))
        assert calls >= 2000

    def test_signed_zero_off_the_row_stays_negative(self):
        # x and y are -0.0 and no row moves them: every step keeps them -0.0,
        # where x + step*0.0 would be +0.0 for a positive step
        origin = Valuation.of([("x", F64, -0.0), ("y", F32, -0.0), ("n", I32, 0), ("z", F64, 1.0)])
        negative_zeros = value_bits(origin)[:2]
        for zero in (0.0, -0.0):
            lifted = np.array([[zero, zero, zero, 1.0], [zero, -zero, 1.0, 0.5]])
            for offset in (0.0, 5.0, 11.0, 3.2e18):
                log = compare_gradients(origin, ["x", "y", "n", "z"], [1.0, 2.0, 3.0, 4.0],
                                        offset, lifted, 2.0**-26)
                assert log and all(call[:2] == negative_zeros for call in log)
            assert off_row_calls(origin, ["x", "y", "n", "z"], lifted) >= 2

    def test_integers_past_2_53_off_the_row_keep_their_values(self):
        # embed moves 2**53 + 1 to 2**53; a step that does not move a keeps 2**53 + 1
        origin = Valuation.of([("a", I64, 2**53 + 1), ("b", U64, 2**64 - 1), ("c", I64, 2**63 - 1),
                               ("d", I8, -128)])
        for lifted in (np.eye(4),
                       next_basis(np.array([1.0, -2.0, 0.0, 3.0]), append_gradient=True)):
            kept_a = 0
            for offset in (0.0, 3.2e18):
                log = compare_gradients(origin, ["a", "b", "c", "d"], [1.0, -1.0, 0.5, 2.0],
                                        offset, lifted, 2.0**-26)
                kept_a += sum(call[0] == 2**53 + 1 for call in log)
            assert kept_a >= 2
            assert off_row_calls(origin, ["a", "b", "c", "d"], lifted) >= 2

    def test_step_that_overflows_is_skipped_alike(self):
        # the -eps step takes a from -max to -inf, which cannot be rounded
        top = sys.float_info.max
        origin = Valuation.of([("a", F64, -top), ("b", I32, 0)])
        lifted = np.array([[1.0, 1e-300]])
        log_sizes = set()
        for offset in (0.0, 1.0, 2.0, 3.0):  # the +eps call fails for some offsets
            log_sizes.add(len(compare_gradients(origin, ["a", "b"], [1e-300, 1.0], offset,
                                                lifted, 2.0**-26)))
        assert log_sizes == {1}

    def test_rows_whose_square_leaves_the_normal_range(self, monkeypatch):
        """The row pass squares every live row, in plain floats along one axis, and
        calls ``rescaled`` only for a square outside the normal range, as for rows
        of 1e-170 (the square underflows) and 1e160 (it overflows), along one axis
        and several: the dense gradient's bytes and calls either way."""
        rescaled, rescales = solver.rescaled, []

        def counting(v):
            rescales.append(v.tobytes())
            return rescaled(v)

        monkeypatch.setattr(solver, "rescaled", counting)
        calls = {"axis": 0, "pair": 0, "dense": 0}
        for seed in range(240):
            rand = random.Random(seed)
            dim = rand.choice([1, 2, 3, 5, 8, 12])
            origin = random_valuation(rand, dim)
            params = list(origin.signature.names)
            shape = rand.choice(["axis", "pair", "dense"])
            size = rand.choice([1e-170, 1e160])
            lifted = np.array([random_direction(rand, dim, shape) for _ in range(3)])
            lifted = np.where(lifted != 0.0, size * np.sign(lifted) * rand.uniform(0.5, 1.0),
                              lifted)
            abnormal = {row.tobytes() for row in lifted}
            lifted = np.concatenate([lifted, [random_direction(rand, dim, "axis")]])
            rescales.clear()
            calls[shape] += len(compare_gradients(
                origin, params, [rand.gauss(0.0, 1.0) for _ in params], 0.0, lifted,
                random_seed_step(rand, origin) * rand.choice([1.0, size])))
            # for every row whose square is outside the normal range, and never
            # for one whose square is normal, as the last row's mostly is
            with np.errstate(over="ignore", under="ignore"):
                squares = [float(dot(np.frombuffer(v), np.frombuffer(v))) for v in rescales]
            assert not any(2.0**-1022 <= square < math.inf for square in squares)
            assert set(rescales) >= abnormal
        assert min(calls.values()) >= 50

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_drawn_gradients_match_bit_for_bit(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=5))
        types = data.draw(st.lists(st.sampled_from(TYPES), min_size=dim, max_size=dim))
        values = [data.draw(drawn_value(t)) for t in types]
        origin = Valuation.of([(f"x{i}", t, v) for i, (t, v) in enumerate(zip(types, values))])
        rows = data.draw(st.integers(min_value=1, max_value=dim + 1))
        lifted = np.array(data.draw(st.lists(
            st.lists(direction_entry(), min_size=dim, max_size=dim), min_size=rows,
            max_size=rows)))
        params = data.draw(st.lists(st.sampled_from(origin.signature.names), min_size=1,
                                    max_size=dim, unique=True))
        coeffs = data.draw(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                                    min_size=len(params), max_size=len(params)))
        offset = data.draw(st.sampled_from([0.0, 3.2e18, -1.0]))
        eps_seed = data.draw(st.floats(min_value=5e-324, max_value=1e300))
        compare_gradients(origin, params, coeffs, offset, lifted, eps_seed)


class TestExactPartials:
    """F = y + g(x), stepped along y alone: the partial along y is exactly 1."""

    def test_sign_of_negative_zero_is_not_read_as_a_slope(self):
        # g reads x's sign: a step that turned x = -0.0 into +0.0 read 1 - 2**26
        fn = BlackBoxFn(("x", "y"), lambda v: v["y"] + (1.0 if math.copysign(1.0, v["x"]) < 0.0
                                                         else 0.0))
        origin = Valuation.of([("x", F64, -0.0), ("y", F64, 0.0)])
        grad = finite_diff_gradient(fn, origin, fn.call(origin), np.array([[0.0, 1.0]]),
                                    epsilon_from_value(0.0))
        assert grad.tolist() == [1.0]

    def test_exact_64_bit_arithmetic_past_2_53_reads_the_true_slope(self):
        # g is exact i64 arithmetic: a step that started a from its embedding 2**53
        # read g = -1, and a partial of 1 - 1/eps
        a0 = 2**53 + 1
        fn = BlackBoxFn(("a", "y"), lambda v: float(v["a"] - a0) + v["y"])
        origin = Valuation.of([("a", I64, a0), ("y", F64, 0.0)])
        eps_seed = epsilon_from_value(float(np.max(np.abs(embed(origin)))))  # as build_spaces
        grad = finite_diff_gradient(fn, origin, fn.call(origin), np.array([[0.0, 1.0]]),
                                    eps_seed)
        assert grad.tolist() == [1.0]


class TestCostDoesNotGrowWithDimension:
    """Coordinates rounded, counted at ``ScalarType.nearest``."""

    @staticmethod
    def rounded(monkeypatch, routine) -> int:
        calls = [0]
        nearest = ScalarType.nearest

        def counting(self, x):
            calls[0] += 1
            return nearest(self, x)

        with monkeypatch.context() as patch:
            patch.setattr(ScalarType, "nearest", counting)
            routine()
        return calls[0]

    @staticmethod
    def origin(dim: int) -> Valuation:
        return Valuation.of([(f"x{i}", I32, i % 7 - 3) for i in range(dim)])

    def test_line_step_along_one_axis(self, monkeypatch):
        counts = {}
        for dim in (10, 1000):
            origin, direction = self.origin(dim), np.zeros(dim)
            direction[3] = 0.5
            counts[dim] = self.rounded(monkeypatch,
                                       lambda: epsilon_along_line(origin, direction, 0.1))
        # the first sample rounds home, the second reaches the next integer
        assert counts == {10: 2, 1000: 2}

    def test_gradient_over_axis_rows(self, monkeypatch):
        counts = {}
        for dim in (10, 1000):
            origin = self.origin(dim)
            fn = BlackBoxFn(("x0", "x1"), lambda v: float(v["x0"] - 2 * v["x1"]))
            value = fn.call(origin)
            counts[dim] = self.rounded(monkeypatch, lambda: finite_diff_gradient(
                fn, origin, value, np.eye(dim), 2.0**-26))
        # each of the two rows read costs its line step's samples and one step
        assert counts[1000] == counts[10] <= 8
