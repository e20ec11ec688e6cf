import math
import struct
import sys
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsolve import solver
from covsolve.problem import BlackBoxFn
from covsolve.vecspace import (
    BOOL, F32, F64, I8, I16, I32, I64, U8, U16, U32, U64,
    Comparator, ExtractionError, ScalarType, Signature, Valuation,
    embed, extract, extract_rows, round_vector,
)
from helpers import bits_key

ALL_TYPES = [I8, I16, I32, I64, U8, U16, U32, U64, F32, F64]


class TestComparator:
    def test_opposite_table(self):
        assert Comparator.EQ.opposite is Comparator.NEQ
        assert Comparator.NEQ.opposite is Comparator.EQ
        assert Comparator.LT.opposite is Comparator.GE
        assert Comparator.LE.opposite is Comparator.GT
        assert Comparator.GT.opposite is Comparator.LE
        assert Comparator.GE.opposite is Comparator.LT

    @pytest.mark.parametrize("comp", list(Comparator))
    def test_opposite_is_involution(self, comp):
        assert comp.opposite.opposite is comp

    def test_holds(self):
        assert Comparator.LE.holds(-1.0)
        assert Comparator.EQ.holds(0.0)
        assert not Comparator.GE.holds(-0.5)
        assert Comparator.NEQ.holds(0.5)
        assert not Comparator.LT.holds(0.0)
        assert Comparator.GT.holds(1e-300)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_holds_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Comparator.EQ.holds(bad)

    def test_symbol_round_trip(self):
        for comp in Comparator:
            assert Comparator.from_symbol(comp.symbol) is comp


class TestScalarType:
    def test_bool_is_u8(self):
        assert BOOL is U8
        assert BOOL.contains(0) and BOOL.contains(1)

    def test_ranges(self):
        assert I8.min_value == -128 and I8.max_value == 127
        assert U16.max_value == 65535
        assert I64.min_value == -(2**63)
        assert U64.max_value == 2**64 - 1

    def test_contains(self):
        assert I32.contains(-(2**31))
        assert not I32.contains(2**31)
        assert not U8.contains(-1)
        assert F64.contains(1.5)
        assert not F64.contains(math.inf)
        assert F32.contains(0.5)
        assert not F32.contains(2.0**-300)  # underflows float32

    @pytest.mark.parametrize("typ", [t for t in ALL_TYPES if t.is_integer], ids=str)
    def test_integer_types_hold_no_bool(self, typ):
        # True == 1 and isinstance(True, int), but "init x = True" parses as no value
        assert not typ.contains(True) and not typ.contains(False)
        assert typ.contains(1) and typ.contains(0)

    def test_valuation_of_a_bool_names_its_variable(self):
        with pytest.raises(ValueError, match=r"\(variable x\)"):
            Valuation.of([("x", U8, True)])

    def test_next_value_integers(self):
        assert I8.next_value(5.0, 1.0) == 6.0
        assert I8.next_value(5.0, -1.0) == 4.0
        assert I8.next_value(127.0, 1.0) is None
        assert U8.next_value(0.0, -1.0) is None

    def test_next_value_past_2_53(self):
        # one unit is below the float spacing there: step to the next float
        assert I64.next_value(2.0**60, 1.0) == 2.0**60 + 256
        assert U64.next_value(2.0**64, -1.0) == 2.0**64 - 2048
        assert U64.next_value(2.0**64, 1.0) is None

    def test_next_value_floats(self):
        up = F64.next_value(1.0, 1.0)
        assert up == math.nextafter(1.0, math.inf)
        f32_up = F32.next_value(1.0, 1.0)
        assert f32_up == float(np.nextafter(np.float32(1.0), np.float32(2.0)))
        assert f32_up > 1.0

    @pytest.mark.parametrize("x, expected", [
        (1 + 2**-24, 1 + 2**-23),  # float32 itself rounds this tie to even, 1.0
        (-(1 + 2**-24), -(1 + 2**-23)),
        (1 + 3 * 2**-24, 1 + 2**-22),
    ])
    def test_f32_ties_round_away_from_zero(self, x, expected):
        assert F32.nearest(x) == expected

    def test_typed_grid_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not F32.contains(1e39)
            assert not F32.contains(-1e39)
            assert F32.next_value(FLT_MAX, 1.0) is None
            assert F32.next_value(-FLT_MAX, -1.0) is None
            with pytest.raises(ValueError, match="is not a f32 value"):
                Valuation.of([("x", F32, 1e39)])


FLT_MAX = float(np.finfo(np.float32).max)
F32_OVERFLOW = 2.0**128 - 2.0**103  # the midpoint between FLT_MAX and 2**128


def _oracle_nearest_float32(x):
    # the numpy routine vecspace rounded with before its struct round trip
    with np.errstate(over="ignore"):
        c = float(np.float32(x))
    if math.isinf(c):
        return math.copysign(FLT_MAX, x)
    if c == x:
        return c
    with np.errstate(over="ignore"):
        other = float(np.nextafter(np.float32(c), np.float32(math.copysign(math.inf, x - c))))
    if math.isinf(other):
        return c
    if abs(other - x) == abs(c - x):
        return c if abs(c) > abs(other) else other
    return c


def _oracle_contains_float32(value):
    if not isinstance(value, float) or not math.isfinite(value):
        return False
    with np.errstate(over="ignore"):
        return float(np.float32(value)) == value


def _oracle_next_float32(value, direction):
    target = math.copysign(math.inf, direction)
    with np.errstate(over="ignore"):
        nxt = float(np.nextafter(np.float32(value), np.float32(target)))
    return nxt if math.isfinite(nxt) else None


def _bits(x):
    return None if x is None else struct.pack("<d", x)


def _float32_sample(rng, count):
    """``count`` float32 values from random finite bit patterns, both signs."""
    bits = rng.integers(0, 0xFF000000, size=count, dtype=np.uint32)
    bits = np.where(bits >= 0x7F800000, bits + 0x00800000, bits)  # skip inf and nan
    return bits.view(np.float32)


def _differential_sample():
    """Over 100,000 float64 inputs where float32 rounding is delicate."""
    rng = np.random.default_rng(20250)
    f32 = _float32_sample(rng, 25_000)
    with np.errstate(over="ignore"):
        up = np.nextafter(f32, np.float32(np.inf)).astype(np.float64)
    f32 = f32.astype(np.float64)
    finite = np.isfinite(up)
    mid = (f32[finite] + up[finite]) / 2  # exact in float64
    subnormal = (rng.integers(0, 1 << 23, size=10_000, dtype=np.uint32)
                 | rng.choice(np.array([0, 0x80000000], dtype=np.uint32), size=10_000))
    magnitude = 10.0 ** rng.uniform(-46, 40, size=25_000)
    special = [0.0, -0.0, FLT_MAX, -FLT_MAX, 2.0**-149, -(2.0**-149), 2.0**-150,
               F32_OVERFLOW, -F32_OVERFLOW, 2.0**128, -(2.0**128)]
    parts = [f32, mid, np.nextafter(mid, np.inf), np.nextafter(mid, -np.inf),
             subnormal.view(np.float32).astype(np.float64),
             magnitude * rng.choice([-1.0, 1.0], size=magnitude.size),
             np.array(special), np.nextafter(special, np.inf), np.nextafter(special, -np.inf)]
    return np.concatenate(parts).tolist()


class TestFloat32Oracle:
    """The typed grid's float32 rounding against the numpy routines it replaced."""

    @pytest.fixture(scope="class")
    def sample(self):
        values = _differential_sample()
        assert len(values) >= 100_000
        return values

    def test_nearest_matches_bit_for_bit(self, sample):
        bad = [x for x in sample if _bits(F32.nearest(x)) != _bits(_oracle_nearest_float32(x))]
        assert bad == []

    def test_contains_matches(self, sample):
        bad = [x for x in sample if F32.contains(x) != _oracle_contains_float32(x)]
        assert bad == []

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_next_value_matches_bit_for_bit(self, sample, direction):
        grid = [x for x in sample if _oracle_contains_float32(x)]
        assert len(grid) >= 25_000
        bad = [x for x in grid
               if _bits(F32.next_value(x, direction)) != _bits(_oracle_next_float32(x, direction))]
        assert bad == []


class TestEmbedExtract:
    def test_embed_signed_pair(self):
        v = Valuation.of([("x1", I32, 2), ("x2", I32, -3)])
        assert np.array_equal(embed(v), np.array([2.0, -3.0]))

    def test_embed_u8(self):
        v = Valuation.of([("x1", U8, 255)])
        assert np.array_equal(embed(v), np.array([255.0]))

    def test_extract_rounds_to_nearest(self):
        sig = Signature.of([("x1", I32), ("x2", I32)])
        assert extract([-1.23, 2.7], sig).values == (-1, 3)

    def test_extract_clamps(self):
        assert extract([300.0], Signature.of([("a", U8)])).values == (255,)
        assert extract([-4.0], Signature.of([("a", U8)])).values == (0,)
        assert extract([1e40], Signature.of([("a", F32)])).values == (FLT_MAX,)
        assert extract([-1e40], Signature.of([("a", F32)])).values == (-FLT_MAX,)

    def test_extract_tie_rounds_away_from_zero(self):
        sig = Signature.of([("a", I32)])
        assert extract([2.5], sig).values == (3,)
        assert extract([-2.5], sig).values == (-3,)
        assert extract([0.5], sig).values == (1,)

    def test_extract_rejects_non_finite(self):
        sig = Signature.of([("a", F64)])
        with pytest.raises(ExtractionError):
            extract([math.nan], sig)
        with pytest.raises(ExtractionError):
            extract([math.inf], sig)

    def test_extract_dimension_mismatch(self):
        with pytest.raises(ExtractionError):
            extract([1.0, 2.0], Signature.of([("a", I32)]))

    def test_round_vector_dimension_mismatch(self):
        with pytest.raises(ExtractionError):
            round_vector(np.array([1.0, 2.0]), [I32])

    def test_round_trip_identity_simple(self):
        v = Valuation.of([("x1", I32, 2), ("x2", I32, -3)])
        assert extract(embed(v), v.signature) == v


#: Where a block's rounding can part from ``ScalarType.nearest``: ties, 2**52 and
#: 2**53, the ends of the 64-bit ranges and past them, signed zeros, float32
#: ties and its overflow threshold, and the non-finite values a row is left out for.
BLOCK_EDGES = sorted({
    *(s * x for s in (1.0, -1.0) for x in (
        0.3, 0.5, 1.5, 2.5, 2.0**52 - 0.5, 2.0**52 + 0.5, 2.0**52 + 1.5, 2.0**53, 2.0**53 + 2,
        2.0**63 - 1024, 2.0**63, 2.0**64 - 2048, 2.0**64, 2.0**65, 1e300,
        1.0 + 2.0**-24, 1.0 + 3 * 2.0**-24, 2.0**-150, 3 * 2.0**-150, 2.0**-149,
        2.0**128 - 2.0**104, 2.0**128 - 2.0**103, np.nextafter(2.0**128 - 2.0**103, 0.0),
        2.0**128)),
    0.0, 127.5, 255.5, 32767.5, 65535.5, 2.0**31 - 0.5, 2.0**32 - 0.5}, key=float.hex) + [
    -0.0, -0.3, math.inf, -math.inf, math.nan]


def _block_outcomes(block, signature):
    """``extract`` row by row, each row's values as ``bits_key``: the oracle."""
    out = []
    for row in block:
        try:
            out.append(bits_key(extract(row, signature).values))
        except ExtractionError:
            pass
    return out


class TestExtractRows:
    """The block rounding against ``extract``, row by row."""

    @staticmethod
    def check(block, signature):
        with np.errstate(over="ignore", invalid="ignore"):
            rows = extract_rows(block, signature)
        assert [bits_key(values) for values in rows] == _block_outcomes(block, signature)
        for values in rows:
            assert [type(v) for v in values] \
                == [int if t.is_integer else float for t in signature.types]
        return rows

    @pytest.mark.parametrize("typ", ALL_TYPES)
    def test_every_type_at_every_edge_value(self, typ):
        signature = Signature.of([("a", typ)])
        block = np.array(BLOCK_EDGES)[:, None]
        rows = self.check(block, signature)
        assert len(rows) == len(BLOCK_EDGES) - 3  # every row but inf, -inf and nan

    def test_mixed_rows_and_their_keys(self):
        """A call ledger over every variable calls a row exactly when no earlier row,
        nor its origin, has the same ``bits_key``: -0.0 and 0.0 are keyed apart."""
        rng = np.random.default_rng(35)
        types = ALL_TYPES * 2
        signature = Signature.of([(f"x{i}", t) for i, t in enumerate(types)])
        edges = np.array(BLOCK_EDGES)
        block = edges[rng.integers(0, len(edges), size=(400, len(types)))]
        block[rng.random(block.shape) < 0.5] = 0.0  # rows that share their values
        block[rng.random(block.shape) < 0.2] = -0.0
        zero, signed, rounded = np.zeros((3, len(types)))
        signed[types.index(F64)] = -0.0  # a different key from the zero row
        rounded[types.index(I32)] = -0.3  # the zero row's key
        block = np.concatenate([block, block[:50], [zero, signed, rounded]])  # and repeats
        rows = self.check(block, signature)
        old = [bits_key(values) for values in rows]
        assert 100 <= len(rows) < len(block)
        assert old[-3] == old[-1] != old[-2]
        assert sum(n * (n - 1) for n in Counter(old).values()) >= 50  # ordered pairs of repeats
        calls = []
        fn = BlackBoxFn(signature.names, lambda v: calls.append(bits_key(v.values)) or 1.0)
        floats = {i for i, t in enumerate(types) if not t.is_integer}
        origin = Valuation._rounded(signature, rows[-3])  # the zero row
        ledger = solver._Ledger(fn, solver._Budget(len(rows)), origin, 1.0, floats)
        for values in rows:
            assert ledger.call(Valuation._rounded(signature, values)) == 1.0
        assert calls == [key for key in dict.fromkeys(old) if key != old[-3]]

    def test_float32_differential_sample(self):
        """Every float32 tie, midpoint, subnormal and overflow of the sample rounds
        as ``F32.nearest`` does."""
        sample = np.array(_differential_sample())
        sample = sample[:len(sample) // 4 * 4]
        for typ in (F32, I64, U64):
            self.check(sample.reshape(-1, 4), Signature.of([(c, typ) for c in "abcd"]))

    @pytest.mark.parametrize("typ", [I64, U64, F32])
    def test_values_past_the_range_round_without_a_warning(self, typ):
        column = [v for v in BLOCK_EDGES if math.isfinite(v)]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            values = extract_rows(np.array(column)[:, None], Signature.of([("a", typ)]))
        assert values == [(typ.nearest(v),) for v in column]
        assert (typ.max_value,) in values and (typ.min_value,) in values

    def test_empty_and_refused_blocks(self):
        signature = Signature.of([("a", I8), ("b", F32)])
        assert extract_rows(np.empty((0, 2)), signature) == []
        assert extract_rows(np.array([[math.nan, 1.0], [2.0, math.inf]]), signature) == []
        [row] = extract_rows(np.array([[math.nan, 1.0], [-2.5, -0.0]]), signature)
        assert bits_key(row) == bits_key((-3, -0.0))


def _value_strategy(typ: ScalarType):
    if typ.is_integer:
        # 64-bit magnitudes above 2**53 are deliberately outside the embed
        # round-trip contract (they lose precision as 64-bit floats)
        lo = max(typ.min_value, -(2**53))
        hi = min(typ.max_value, 2**53)
        return st.integers(min_value=lo, max_value=hi)
    if typ.bit_width == 32:
        return st.floats(width=32, allow_nan=False, allow_infinity=False).map(
            lambda x: float(np.float32(x)))
    return st.floats(allow_nan=False, allow_infinity=False)


def _edge_values(typ: ScalarType) -> list:
    """The ends of ``typ``'s range, -0.0 for floats, and for i64/u64 the
    integers either side of 2**53 that a 64-bit float cannot hold."""
    if not typ.is_integer:
        top = FLT_MAX if typ.bit_width == 32 else sys.float_info.max
        return [-top, top, -0.0, 0.0]
    past_2_53 = [v for v in (2**53 + 1, -(2**53 + 1), typ.max_value - 1)
                 if typ.bit_width == 64 and typ.min_value <= v <= typ.max_value]
    return [typ.min_value, typ.max_value, *past_2_53]


def _full_range_strategy(typ: ScalarType):
    """Any value of ``typ``, often one of its edge values."""
    if typ.is_integer:
        return st.one_of(st.sampled_from(_edge_values(typ)),
                         st.integers(min_value=typ.min_value, max_value=typ.max_value))
    return st.one_of(st.sampled_from(_edge_values(typ)), _value_strategy(typ))


@st.composite
def valuations(draw, max_vars=6, value_strategy=_value_strategy):
    count = draw(st.integers(min_value=1, max_value=max_vars))
    types = draw(st.lists(st.sampled_from(ALL_TYPES), min_size=count, max_size=count))
    entries = []
    for i, typ in enumerate(types):
        entries.append((f"x{i + 1}", typ, draw(value_strategy(typ))))
    return Valuation.of(entries)


class TestProperties:
    @given(valuations())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, valuation):
        assert extract(embed(valuation), valuation.signature) == valuation

    @given(valuations(value_strategy=_full_range_strategy))
    @settings(max_examples=200, deadline=None)
    def test_embedded_valuation_is_a_grid_point(self, valuation):
        # past 2**53 embed loses precision, yet the float it gives is itself
        # on the grid: u64's maximum embeds to 2**64 and rounds back to it;
        # the line step relies on this and never rounds its origin
        vec = embed(valuation)
        assert np.array(round_vector(vec, valuation.signature.types)).tobytes() == vec.tobytes()

    def test_every_edge_value_embeds_to_a_grid_point(self):
        entries = [(f"x{i}", typ, value) for i, (typ, value) in enumerate(
            (typ, value) for typ in ALL_TYPES for value in _edge_values(typ))]
        valuation = Valuation.of(entries)
        vec = embed(valuation)
        assert np.array(round_vector(vec, valuation.signature.types)).tobytes() == vec.tobytes()
        assert {FLT_MAX, -FLT_MAX, 2.0**64, 2.0**53} <= set(vec.tolist())

    @given(valuations(), valuations())
    @settings(max_examples=100, deadline=None)
    def test_embed_injective_on_fixed_signature(self, a, b):
        if a.signature == b.signature and a != b:
            # two distinct valuations may still embed equally only when a
            # 64-bit integer exceeds float precision, which the strategy avoids
            assert not np.array_equal(embed(a), embed(b))

    @given(valuations(), st.floats(min_value=-0.49, max_value=0.49))
    @settings(max_examples=100, deadline=None)
    def test_small_perturbation_keeps_integer_extraction(self, valuation, shift):
        if not all(t.is_integer for t in valuation.signature.types):
            return
        vec = embed(valuation) + shift
        # the float sum can round onto or past a midpoint for large values
        if not all(abs(Fraction(x) - v) < Fraction(1, 2)
                   for x, v in zip(vec, valuation.values)):
            return
        assert extract(vec, valuation.signature) == valuation

    @given(st.lists(st.tuples(st.sampled_from(ALL_TYPES), st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([float(v) for t in ALL_TYPES for v in _edge_values(t)]))),
        min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_extract_output_passes_the_check(self, coords):
        """``extract`` builds its valuation without the check, so its rounding must pass it."""
        sig = Signature.of([(f"x{i}", typ) for i, (typ, _) in enumerate(coords)])
        got = extract([x for _, x in coords], sig)
        assert Valuation(sig, got.values) == got

    def test_float_sum_on_a_midpoint_rounds_away_from_zero(self):
        # 2**50 + 0.375 is not a float; the sum rounds to the tie 2**50 + 0.5
        sig = Signature.of([("x", I64)])
        vec = embed(Valuation(sig, (2**50,))) + 0.375
        assert vec[0] == 2**50 + 0.5
        assert extract(vec, sig).values == (2**50 + 1,)


class TestValuation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match=r"variable\(s\) a declared twice"):
            Signature.of([("a", I32), ("a", I32)])
        with pytest.raises(ValueError, match=r"variable\(s\) a, b declared twice"):
            Signature.of([("a", I32), ("b", I32), ("c", I32), ("b", F64), ("a", I32), ("a", I32)])

    def test_value_must_fit_type(self):
        with pytest.raises(ValueError):
            Valuation.of([("a", U8, 300)])
        with pytest.raises(ValueError):
            Valuation.of([("a", F64, math.nan)])

    def test_unknown_name_is_a_key_error(self):
        v = Valuation.of([("a", I32, 1)])
        with pytest.raises(KeyError):
            v["b"]

    def test_restrict_keeps_order(self):
        v = Valuation.of([("a", I32, 1), ("b", I32, 2), ("c", I32, 3)])
        r = v.restrict({"c", "a"})
        assert r.signature.names == ("a", "c")
        assert r.values == (1, 3)

    def test_round_vector(self):
        out = round_vector([1.7, 1.7], [I32, F64])
        assert out == [2.0, 1.7] and [type(x) for x in out] == [float, float]
