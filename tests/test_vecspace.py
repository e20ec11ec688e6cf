import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsolve.vecspace import (
    BOOL, F32, F64, I8, I16, I32, I64, U8, U16, U32, U64,
    Comparator, ExtractionError, ScalarType, Signature, Valuation,
    embed, extract, round_vector,
)

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
        assert extract([1e40], Signature.of([("a", F32)])).values[0] == pytest.approx(
            float(np.finfo(np.float32).max))

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

    def test_round_trip_identity_simple(self):
        v = Valuation.of([("x1", I32, 2), ("x2", I32, -3)])
        assert extract(embed(v), v.signature) == v


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


def _full_range_strategy(typ: ScalarType):
    """Any value of ``typ``, integers often at an end of their range."""
    if typ.is_integer:
        return st.one_of(st.sampled_from([typ.min_value, typ.max_value]),
                         st.integers(min_value=typ.min_value, max_value=typ.max_value))
    return _value_strategy(typ)


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
        # on the grid: u64's maximum embeds to 2**64 and rounds back to it
        vec = embed(valuation)
        assert np.array_equal(round_vector(vec, valuation.signature), vec)

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

    def test_float_sum_on_a_midpoint_rounds_away_from_zero(self):
        # 2**50 + 0.375 is not a float; the sum rounds to the tie 2**50 + 0.5
        sig = Signature.of([("x", I64)])
        vec = embed(Valuation(sig, (2**50,))) + 0.375
        assert vec[0] == 2**50 + 0.5
        assert extract(vec, sig).values == (2**50 + 1,)


class TestValuation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Signature.of([("a", I32), ("a", I32)])

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
        sig = Signature.of([("a", I32), ("b", F64)])
        out = round_vector(np.array([1.7, 1.7]), sig)
        assert np.array_equal(out, np.array([2.0, 1.7]))
