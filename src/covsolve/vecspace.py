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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class ExtractionError(ValueError):
    """A vector coordinate could not be converted back to a typed value."""


class Kind(enum.Enum):
    SIGNED = "signed-int"
    UNSIGNED = "unsigned-int"
    FLOAT = "float"


_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class ScalarType:
    """A machine scalar type: integer (signed or unsigned) or IEEE float."""

    kind: Kind
    bit_width: int

    def __post_init__(self):
        if self.kind is Kind.FLOAT:
            if self.bit_width not in (32, 64):
                raise ValueError(f"float width must be 32 or 64, got {self.bit_width}")
        elif self.bit_width not in (8, 16, 32, 64):
            raise ValueError(f"integer width must be 8..64, got {self.bit_width}")

    @property
    def is_integer(self) -> bool:
        return self.kind is not Kind.FLOAT

    @property
    def min_value(self) -> int | float:
        if self.kind is Kind.SIGNED:
            return -(1 << (self.bit_width - 1))
        if self.kind is Kind.UNSIGNED:
            return 0
        return -_FLOAT32_MAX if self.bit_width == 32 else -math.inf

    @property
    def max_value(self) -> int | float:
        if self.kind is Kind.SIGNED:
            return (1 << (self.bit_width - 1)) - 1
        if self.kind is Kind.UNSIGNED:
            return (1 << self.bit_width) - 1
        return _FLOAT32_MAX if self.bit_width == 32 else math.inf

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
        if self.is_integer:
            nxt = value + math.copysign(1.0, direction)
            if nxt < self.min_value or nxt > self.max_value:
                return None
            return nxt
        target = math.copysign(math.inf, direction)
        if self.bit_width == 64:
            nxt = math.nextafter(value, target)
            return nxt if math.isfinite(nxt) else None
        nxt = float(np.nextafter(np.float32(value), np.float32(target)))
        return nxt if math.isfinite(nxt) else None

    def __str__(self) -> str:
        prefix = {Kind.SIGNED: "i", Kind.UNSIGNED: "u", Kind.FLOAT: "f"}[self.kind]
        return f"{prefix}{self.bit_width}"


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
    dc, do = abs(c - x), abs(other - x)
    if do < dc:
        return other
    if do == dc:
        return c if abs(c) > abs(other) else other
    return c


I8 = ScalarType(Kind.SIGNED, 8)
I16 = ScalarType(Kind.SIGNED, 16)
I32 = ScalarType(Kind.SIGNED, 32)
I64 = ScalarType(Kind.SIGNED, 64)
U8 = ScalarType(Kind.UNSIGNED, 8)
U16 = ScalarType(Kind.UNSIGNED, 16)
U32 = ScalarType(Kind.UNSIGNED, 32)
U64 = ScalarType(Kind.UNSIGNED, 64)
F32 = ScalarType(Kind.FLOAT, 32)
F64 = ScalarType(Kind.FLOAT, 64)

#: The Boolean type: an 8-bit unsigned integer restricted to {0, 1}.
BOOL = U8

TYPES_BY_NAME = {
    "i8": I8, "i16": I16, "i32": I32, "i64": I64,
    "u8": U8, "u16": U16, "u32": U32, "u64": U64,
    "f32": F32, "f64": F64,
}


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

    def __post_init__(self):
        if len(self.names) != len(self.types):
            raise ValueError("names and types differ in length")
        if len(set(self.names)) != len(self.names):
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

    def index_of(self, name: str) -> int:
        return self.names.index(name)


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
        try:
            return self.values[self.signature.index_of(name)]
        except ValueError:
            raise KeyError(name) from None

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
