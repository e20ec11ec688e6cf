"""Scalar types, comparators, valuations, and their embedding into real vectors.

Input variables carry one of ten machine scalar types (signed/unsigned
integers of 8..64 bits, 32/64-bit floats).  A valuation assigns each
variable a concrete value of its type.  Valuations embed into a real
vector space of dimension equal to the variable count, modelled with
64-bit floats; the reverse direction rounds every coordinate to the
nearest representable value of its declared type.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class ExtractionError(ValueError):
    """A vector coordinate could not be converted back to a typed value."""


_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class ScalarType:
    """A machine scalar type: integer (signed or unsigned) or IEEE float."""

    name: str
    is_integer: bool
    bit_width: int
    min_value: int | float
    max_value: int | float

    def contains(self, value: int | float) -> bool:
        """Whether ``value`` is exactly representable in this type."""
        if self.is_integer:
            return isinstance(value, int) and self.min_value <= value <= self.max_value
        if not isinstance(value, float) or not math.isfinite(value):
            return False
        if self.bit_width == 64:
            return True
        return float(np.float32(value)) == value

    def nearest(self, x: float) -> int | float:
        """The representable value closest to ``x`` (ties round away from zero).

        Out-of-range inputs clamp to the type bounds, which are the nearest
        members of the value set.  Non-finite inputs are rejected.
        """
        if not math.isfinite(x):
            raise ExtractionError(f"cannot convert non-finite {x!r} to {self}")
        if self.is_integer:
            v = _round_half_away(x)
            return min(max(v, self.min_value), self.max_value)
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
        nxt = float(np.nextafter(np.float32(value), np.float32(target)))
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


def _nearest_float32(x: float) -> float:
    # np.float32 rounds ties to even; re-check the other bracketing neighbour
    # so that exact midpoints round away from zero instead.
    with np.errstate(over="ignore"):
        c = float(np.float32(x))
    if math.isinf(c):
        return math.copysign(_FLOAT32_MAX, x)
    if c == x:
        return c
    with np.errstate(over="ignore"):  # stepping past the largest float32
        other = float(np.nextafter(np.float32(c), np.float32(math.copysign(math.inf, x - c))))
    if math.isinf(other):
        return c
    if abs(other - x) == abs(c - x):
        return c if abs(c) > abs(other) else other
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

#: The Boolean type: an 8-bit unsigned integer restricted to {0, 1}.
BOOL = U8

TYPES_BY_NAME = {t.name: t for t in (I8, I16, I32, I64, U8, U16, U32, U64, F32, F64)}


class Comparator(enum.Enum):
    EQ = "=="
    NEQ = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def opposite(self) -> "Comparator":
        return _OPPOSITE[self]

    def holds(self, a: float) -> bool:
        """Truth of ``a <comparator> 0``; rejects non-finite operands."""
        if not math.isfinite(a):
            raise ValueError(f"comparator applied to non-finite value {a!r}")
        return _HOLDS[self](a)

    @property
    def symbol(self) -> str:
        return self.value

    @classmethod
    def from_symbol(cls, sym: str) -> "Comparator":
        try:
            return cls(sym)
        except ValueError:
            raise ValueError(f"unknown comparator {sym!r}") from None


_OPPOSITE = {
    Comparator.EQ: Comparator.NEQ,
    Comparator.NEQ: Comparator.EQ,
    Comparator.LT: Comparator.GE,
    Comparator.LE: Comparator.GT,
    Comparator.GT: Comparator.LE,
    Comparator.GE: Comparator.LT,
}

_HOLDS = {
    Comparator.EQ: lambda a: a == 0.0,
    Comparator.NEQ: lambda a: a != 0.0,
    Comparator.LT: lambda a: a < 0.0,
    Comparator.LE: lambda a: a <= 0.0,
    Comparator.GT: lambda a: a > 0.0,
    Comparator.GE: lambda a: a >= 0.0,
}


@dataclass(frozen=True)
class Signature:
    """Ordered variable declarations: distinct names with scalar types."""

    names: tuple[str, ...]
    types: tuple[ScalarType, ...]
    positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.names) != len(self.types):
            raise ValueError("names and types differ in length")
        object.__setattr__(self, "positions", {n: i for i, n in enumerate(self.names)})
        if len(self.positions) != len(self.names):
            raise ValueError("duplicate variable names")

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
    """Round each coordinate to the nearest value of its declared type."""
    vec = np.asarray(vector, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != len(signature):
        raise ExtractionError(
            f"vector of dimension {vec.shape} does not match signature of {len(signature)}")
    values = tuple(t.nearest(float(x)) for t, x in zip(signature.types, vec))
    return Valuation(signature, values)


def round_vector(vector: np.ndarray, signature: Signature) -> np.ndarray:
    """Round coordinates through their types and re-embed (the <.> operator)."""
    vec = np.asarray(vector, dtype=np.float64)
    return np.array(
        [float(t.nearest(float(x))) for t, x in zip(signature.types, vec)],
        dtype=np.float64)
