"""Scalar types, comparators, valuations, and their embedding into real vectors.

Input variables carry one of ten machine scalar types (signed/unsigned
integers of 8..64 bits, 32/64-bit floats).  A valuation assigns each
variable a concrete value of its type.  Valuations embed into a real
vector space of dimension equal to the variable count, modelled with
64-bit floats; the reverse direction rounds every coordinate to the
nearest representable value of its declared type.

A comparator is one row of a table, the signs of a for which a P 0 holds,
and every comparator rule of the search is read from that row here.

Scalars are plain Python ints and floats, and numpy is used only for
vectors and blocks of them: a scalar's float32 rounding is one standard-size
``struct`` round trip.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class ExtractionError(ValueError):
    """A vector coordinate could not be converted back to a typed value."""


_FLOAT32_MAX = (2.0 - 2.0**-23) * 2.0**127
_F32 = struct.Struct("<f")  # standard size: overflow raises, where native "f" gives inf
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class ScalarType:
    """A machine scalar type: integer (signed or unsigned) or IEEE float."""

    name: str
    is_integer: bool
    bit_width: int
    min_value: int | float
    max_value: int | float

    def contains(self, value: int | float) -> bool:
        """Whether ``value`` is exactly representable in this type; a ``bool`` is not."""
        if self.is_integer:
            return (type(value) is not bool and isinstance(value, int)
                    and self.min_value <= value <= self.max_value)
        return isinstance(value, float) and math.isfinite(value) and self.nearest(value) == value

    def nearest(self, x: float) -> int | float:
        """The representable value closest to ``x`` (ties round away from zero).

        Out-of-range inputs clamp to the type bounds, which are the nearest
        members of the value set.  Non-finite inputs are rejected.
        """
        if not math.isfinite(x):
            raise ExtractionError(f"cannot convert non-finite {x!r} to {self}")
        if self.is_integer:
            v = _round_half_away(x)
            # compared, not min(max(...)), which takes twice as long: line steps round here
            if v < self.min_value:
                return self.min_value
            return v if v <= self.max_value else self.max_value
        if self.bit_width == 64:
            return x
        return _nearest_float32(x)

    def next_value(self, value: float, direction: float) -> float | None:
        """The next representable value after ``value`` toward ``direction``'s sign.

        Returns None at the end of the type's range.  ``value`` must already
        be representable (it comes from a rounded coordinate).
        """
        if direction == 0.0:
            return None
        target = math.copysign(math.inf, direction)
        if self.is_integer:
            nxt = value + math.copysign(1.0, direction)
            if nxt == value:  # past 2**53 one unit is below the float spacing
                nxt = math.nextafter(value, target)
            if nxt < self.min_value or nxt > self.max_value:
                return None
            return nxt
        if self.bit_width == 64:
            nxt = math.nextafter(value, target)
            return nxt if math.isfinite(nxt) else None
        if value == 0.0:
            return math.copysign(2.0**-149, direction)  # the smallest subnormal
        # float32 is sign-magnitude: a bit-pattern step moves away from zero or toward it
        step = 1 if (value > 0.0) == (direction > 0.0) else -1
        nxt = _F32.unpack(_U32.pack(_U32.unpack(_F32.pack(value))[0] + step))[0]
        return nxt if math.isfinite(nxt) else None

    def __str__(self) -> str:
        return self.name


def _round_half_away(x: float) -> int:
    # not floor(x + 0.5): that addition rounds for |x| near 2**52 and up
    f = math.floor(x)
    frac = x - f  # exact: both operands are multiples of ulp(x)
    if frac > 0.5:
        return f + 1
    if frac < 0.5:
        return f
    return f + 1 if x > 0.0 else f


def round_float32(x: float) -> float:
    """``x`` rounded to float32, ties to even; OverflowError from 2**128 - 2**103 on."""
    return _F32.unpack(_F32.pack(x))[0]


def _nearest_float32(x: float) -> float:
    try:
        c = round_float32(x)
    except OverflowError:
        return math.copysign(_FLOAT32_MAX, x)
    # x is a tie exactly when c's mirror image through x is a float32: x - c
    # is exact (Sterbenz), and so is the sum then.  Ties go away from zero.
    mirror = x + (x - c)
    if abs(c) < abs(mirror) <= _FLOAT32_MAX and round_float32(mirror) == mirror:
        return mirror
    return c


I8 = ScalarType("i8", True, 8, -(1 << 7), (1 << 7) - 1)
I16 = ScalarType("i16", True, 16, -(1 << 15), (1 << 15) - 1)
I32 = ScalarType("i32", True, 32, -(1 << 31), (1 << 31) - 1)
I64 = ScalarType("i64", True, 64, -(1 << 63), (1 << 63) - 1)
U8 = ScalarType("u8", True, 8, 0, (1 << 8) - 1)
U16 = ScalarType("u16", True, 16, 0, (1 << 16) - 1)
U32 = ScalarType("u32", True, 32, 0, (1 << 32) - 1)
U64 = ScalarType("u64", True, 64, 0, (1 << 64) - 1)
F32 = ScalarType("f32", False, 32, -_FLOAT32_MAX, _FLOAT32_MAX)
F64 = ScalarType("f64", False, 64, -math.inf, math.inf)

#: The Boolean type: ``U8`` itself, so it holds every value 0..255.
BOOL = U8

TYPES_BY_NAME = {t.name: t for t in (I8, I16, I32, I64, U8, U16, U32, U64, F32, F64)}


class Comparator(enum.Enum):
    """``a <comparator> 0`` for a real ``a``, stated as the signs of ``a`` where it holds.

    Every comparator rule of the search reads ``signs``: ``holds``, the
    ``opposite`` (the other signs), the ``side`` a value moves toward to make
    it hold (the last nonzero sign: +1 for NEQ, and 0 for EQ, which no
    half-space holds), the descent step's ``landing`` points, and whether a
    value ``improves`` on another.
    """

    EQ = "==", (0,)
    NEQ = "!=", (-1, 1)
    LT = "<", (-1,)
    LE = "<=", (-1, 0)
    GT = ">", (1,)
    GE = ">=", (0, 1)

    def __new__(cls, symbol: str, signs: tuple[int, ...]):
        member = object.__new__(cls)
        member._value_ = symbol
        member.signs = signs
        member.side = signs[-1] or signs[0]
        return member

    @property
    def symbol(self) -> str:
        return self.value

    @classmethod
    def from_symbol(cls, sym: str) -> "Comparator":
        try:
            return cls(sym)
        except ValueError:
            raise ValueError(f"unknown comparator {sym!r}") from None

    @property
    def opposite(self) -> "Comparator":
        """The comparator that holds for exactly the other signs."""
        rest = tuple(s for s in (-1, 0, 1) if s not in self.signs)
        return next(c for c in Comparator if c.signs == rest)

    def holds(self, a: float) -> bool:
        """Truth of ``a <comparator> 0``; rejects non-finite operands."""
        if not math.isfinite(a):
            raise ValueError(f"comparator applied to non-finite value {a!r}")
        return ((a > 0.0) - (a < 0.0)) in self.signs

    def landing(self, t: float, eps: float) -> tuple[float, ...]:
        """``t`` moved by ``eps`` toward each sign of the table in order, and ``t`` itself for 0."""
        return tuple(t + s * eps if s else t for s in self.signs)

    def improves(self, old: float, new: float) -> bool:
        """Whether ``new`` is strictly closer than ``old`` to making the comparison hold: nearer
        0 for EQ (no side), farther from 0 for NEQ (both sides), else farther toward ``side``."""
        if not self.side:
            return abs(new) < abs(old)
        if -self.side in self.signs:
            return abs(new) > abs(old)
        return self.side * new > self.side * old


@dataclass(frozen=True)
class Signature:
    """Ordered variable declarations: distinct names with scalar types."""

    names: tuple[str, ...]
    types: tuple[ScalarType, ...]
    positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.names) != len(self.types):
            raise ValueError("names and types differ in length")
        object.__setattr__(self, "positions", dict(zip(self.names, range(len(self.names)))))
        if len(self.positions) != len(self.names):
            # positions keeps each name's last index, so an earlier one is a repeat
            repeated = dict.fromkeys(n for i, n in enumerate(self.names) if self.positions[n] != i)
            raise ValueError(f"variable(s) {', '.join(repeated)} declared twice")

    @classmethod
    def of(cls, decls: Iterable[tuple[str, ScalarType]]) -> "Signature":
        decls = list(decls)
        if not decls:
            return cls((), ())
        names, types = zip(*decls)
        return cls(tuple(names), tuple(types))

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Valuation:
    """A typed assignment of concrete values to input variables."""

    signature: Signature
    values: tuple[int | float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.signature):
            raise ValueError("value count does not match signature")
        for name, typ, val in zip(self.signature.names, self.signature.types, self.values):
            if not typ.contains(val):
                raise ValueError(f"{val!r} is not a {typ} value (variable {name})")

    @classmethod
    def _rounded(cls, signature: Signature, values: tuple[int | float, ...]) -> "Valuation":
        """A valuation of values each type's ``nearest`` returned: not checked again.

        The fields are written to the instance's ``__dict__``, as the frozen
        ``__init__`` writes them, without its ``object.__setattr__`` calls.
        """
        valuation = object.__new__(cls)
        fields = valuation.__dict__
        fields["signature"] = signature
        fields["values"] = values
        return valuation

    @classmethod
    def of(cls, entries: Iterable[tuple[str, ScalarType, int | float]]) -> "Valuation":
        entries = list(entries)
        sig = Signature.of([(n, t) for n, t, _ in entries])
        return cls(sig, tuple(v for _, _, v in entries))

    def __getitem__(self, name: str) -> int | float:
        return self.values[self.signature.positions[name]]

    def items(self):
        return zip(self.signature.names, self.values)

    def restrict(self, keep: Iterable[str]) -> "Valuation":
        keep = set(keep)
        sub = [(n, t, v) for n, t, v in zip(
            self.signature.names, self.signature.types, self.values) if n in keep]
        return Valuation.of(sub)


def embed(valuation: Valuation) -> np.ndarray:
    """Embed a valuation as a vector: coordinate i is the real value of x_i.

    Integers of magnitude above 2**53 lose precision here; callers accept
    that, matching the real-valued model of the search.
    """
    return np.array([float(v) for v in valuation.values], dtype=np.float64)


def extract(vector: Sequence[float] | np.ndarray, signature: Signature) -> Valuation:
    """Round each coordinate to the nearest value of its declared type.

    The rounding is the check: the result is built without ``Valuation``'s
    validation, which is for values from outside.
    """
    vec = np.asarray(vector, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != len(signature):
        raise ExtractionError(
            f"vector of dimension {vec.shape} does not match signature of {len(signature)}")
    return Valuation._rounded(signature, tuple(
        [t.nearest(x) for t, x in zip(signature.types, vec.tolist())]))


def extract_rows(block: np.ndarray, signature: Signature) -> list[tuple]:
    """``extract`` of every row of ``block`` whose coordinates are all finite, in row order.

    Each entry is a row's values, ``extract(row).values``, rounded column by
    column through ``ScalarType.nearest``.  A row ``extract`` would refuse,
    one with a non-finite coordinate, is left out.
    """
    finite = np.isfinite(block)
    if not finite.all():
        block = block[finite.all(axis=1)]
    return list(zip(*[map(t.nearest, column)
                      for t, column in zip(signature.types, block.T.tolist())]))


def round_vector(values: Sequence[float], types: Sequence[ScalarType]) -> list[float]:
    """Round each coordinate through its type and re-embed (the <.> operator)."""
    if len(values) != len(types):
        raise ExtractionError(f"{len(values)} coordinates do not match {len(types)} types")
    return [float(t.nearest(x)) for t, x in zip(types, values)]
