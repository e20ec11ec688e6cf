"""A small expression language for defining coverage problems in text files.

A ``.prob`` file declares typed input variables, their initial values, and
an ordered list of atomic Boolean expressions written as signed distances
compared against zero::

    # comment
    var x1 : f64
    var x2 : f64
    init x1 = 0
    init x2 = 0
    abe x1 - x2 == 0
    abe x1 - 10 >= 0

The expressions admit +, -, *, /, unary minus, abs, min, max and the
widening cast f64(...); they compile to black-box functions whose calls
fail on division by zero or any non-finite intermediate.  The last listed
expression is the one the solver tries to flip.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .problem import BlackBoxFn, CoverageProblem, InvalidProblemError
from .vecspace import Comparator, ScalarType, TYPES_BY_NAME, Valuation


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CompileError(ValueError):
    pass


# --- expression trees ----------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Neg:
    operand: "DistExpr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "DistExpr"
    right: "DistExpr"


@dataclass(frozen=True)
class Call:
    fn: str  # abs, min, max, f64
    args: tuple["DistExpr", ...]


DistExpr = Var | Lit | Neg | BinOp | Call

_FUNCTIONS = {"abs": 1, "min": 2, "max": 2, "f64": 1}


def _left_spine(expr: DistExpr) -> tuple[list[BinOp], DistExpr]:
    """The BinOp chain down ``expr``'s left operands (outermost first) and
    the operand below it.

    A sum or product parses into a left-deep chain as long as its line, so
    the walks below loop down this spine and recurse only into right
    operands, ``Neg`` and call arguments, whose nesting the parser caps.
    """
    spine = []
    while isinstance(expr, BinOp):
        spine.append(expr)
        expr = expr.left
    return spine, expr


def free_vars(expr: DistExpr) -> set[str]:
    spine, leaf = _left_spine(expr)
    out: set[str] = set()
    for node in spine:
        out |= free_vars(node.right)
    match leaf:
        case Var(name):
            out.add(name)
        case Lit(_):
            pass
        case Neg(operand):
            out |= free_vars(operand)
        case Call(_, args):
            for a in args:
                out |= free_vars(a)
        case _:
            raise TypeError(f"not an expression: {leaf!r}")
    return out


def eval_expr(expr: DistExpr, valuation: Valuation) -> float | None:
    """Evaluate over 64-bit floats; None signals a failed (out-of-domain) call.

    Division by zero and any non-finite intermediate fail the whole call,
    realising black-box functions that are partial on their inputs.
    """
    spine, leaf = _left_spine(expr)
    match leaf:
        case Var(name):
            a = float(valuation[name])
        case Lit(value):
            a = value
        case Neg(operand):
            v = eval_expr(operand, valuation)
            if v is None:
                return None
            a = -v
        case Call(fn, args):
            vals = []
            for arg in args:
                v = eval_expr(arg, valuation)
                if v is None:
                    return None
                vals.append(v)
            if fn == "abs":
                a = abs(vals[0])
            elif fn == "min":
                a = min(vals)
            elif fn == "max":
                a = max(vals)
            else:
                a = vals[0]  # f64: already wide
        case _:
            raise TypeError(f"not an expression: {leaf!r}")
    for node in reversed(spine):
        b = eval_expr(node.right, valuation)
        if b is None:
            return None
        if node.op == "+":
            a = a + b
        elif node.op == "-":
            a = a - b
        elif node.op == "*":
            a = a * b
        else:
            if b == 0.0:
                return None
            a = a / b
        if not math.isfinite(a):
            return None
    return a


# --- parsing --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>==|!=|<=|>=|[-+*/(),<>])"
)

_COMPARATORS = {"==", "!=", "<", "<=", ">", ">="}


class _Tokens:
    def __init__(self, text: str, line: int):
        self.line = line
        self.items: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(line, f"unexpected character {text[pos]!r}")
            kind = m.lastgroup
            self.items.append((kind, m.group()))
            pos = m.end()
        self.index = 0

    def peek(self) -> tuple[str, str] | None:
        return self.items[self.index] if self.index < len(self.items) else None

    def next(self) -> tuple[str, str]:
        item = self.peek()
        if item is None:
            raise ParseError(self.line, "unexpected end of line")
        self.index += 1
        return item

    def expect_op(self, op: str) -> None:
        kind, text = self.next()
        if kind != "op" or text != op:
            raise ParseError(self.line, f"expected {op!r}, found {text!r}")

    def at_end(self) -> bool:
        return self.index >= len(self.items)


def _parse_expr(toks: _Tokens) -> DistExpr:
    node = _parse_term(toks)
    while (item := toks.peek()) and item[0] == "op" and item[1] in "+-":
        toks.next()
        node = BinOp(item[1], node, _parse_term(toks))
    return node


def _parse_term(toks: _Tokens) -> DistExpr:
    node = _parse_unary(toks)
    while (item := toks.peek()) and item[0] == "op" and item[1] in "*/":
        toks.next()
        node = BinOp(item[1], node, _parse_unary(toks))
    return node


def _parse_unary(toks: _Tokens) -> DistExpr:
    item = toks.peek()
    if item and item == ("op", "-"):
        toks.next()
        return Neg(_parse_unary(toks))
    return _parse_atom(toks)


def _parse_atom(toks: _Tokens) -> DistExpr:
    kind, text = toks.next()
    if kind == "num":
        return Lit(float(text))
    if kind == "name":
        nxt = toks.peek()
        if nxt == ("op", "("):
            if text not in _FUNCTIONS:
                raise ParseError(toks.line, f"unknown function {text!r}")
            toks.next()
            args = [_parse_expr(toks)]
            while toks.peek() == ("op", ","):
                toks.next()
                args.append(_parse_expr(toks))
            toks.expect_op(")")
            if len(args) != _FUNCTIONS[text]:
                raise ParseError(
                    toks.line,
                    f"{text} takes {_FUNCTIONS[text]} argument(s), got {len(args)}")
            return Call(text, tuple(args))
        return Var(text)
    if kind == "op" and text == "(":
        node = _parse_expr(toks)
        toks.expect_op(")")
        return node
    raise ParseError(toks.line, f"unexpected token {text!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """Declarations, initial values, and the trace-ordered ABE list."""

    variables: tuple[tuple[str, ScalarType], ...]
    inits: tuple[tuple[str, int | float], ...]
    abes: tuple[tuple[DistExpr, Comparator], ...]


def parse_spec(text: str) -> ProblemSpec:
    """Parse a ``.prob`` document; errors carry 1-based line numbers."""
    variables: list[tuple[str, ScalarType]] = []
    declared: dict[str, ScalarType] = {}
    inits: dict[str, int | float] = {}
    abes: list[tuple[DistExpr, Comparator]] = []
    abe_lines: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        if keyword == "var":
            name, typ = _parse_var_line(rest, lineno)
            if name in declared:
                raise ParseError(lineno, f"variable {name!r} declared twice")
            declared[name] = typ
            variables.append((name, typ))
        elif keyword == "init":
            name, literal = _parse_init_line(rest, lineno)
            if name not in declared:
                raise ParseError(lineno, f"init of undeclared variable {name!r}")
            if name in inits:
                raise ParseError(lineno, f"variable {name!r} initialised twice")
            inits[name] = _coerce_literal(literal, declared[name], lineno)
        elif keyword == "abe":
            abes.append(_parse_abe_line(rest, lineno))
            abe_lines.append(lineno)
        else:
            raise ParseError(lineno, f"unknown directive {keyword!r}")

    if not abes:
        raise ParseError(len(text.splitlines()) + 1, "no abe lines: nothing to flip")
    missing = [n for n, _ in variables if n not in inits]
    if missing:
        raise ParseError(len(text.splitlines()) + 1,
                         f"missing init for variable(s) {', '.join(missing)}")
    for (expr, _), lineno in zip(abes, abe_lines):
        unknown = free_vars(expr) - set(declared)
        if unknown:
            raise ParseError(lineno, f"undeclared variable(s) {', '.join(sorted(unknown))}")

    ordered_inits = tuple((name, inits[name]) for name, _ in variables)
    return ProblemSpec(tuple(variables), ordered_inits, tuple(abes))


def _parse_var_line(rest: str, lineno: int) -> tuple[str, ScalarType]:
    m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)\s*:\s*([a-z0-9]+)", rest.strip())
    if not m:
        raise ParseError(lineno, "expected: var <name> : <type>")
    name, type_name = m.groups()
    if type_name not in TYPES_BY_NAME:
        raise ParseError(lineno, f"unknown type {type_name!r}")
    return name, TYPES_BY_NAME[type_name]


def _parse_init_line(rest: str, lineno: int) -> tuple[str, str]:
    m = re.fullmatch(
        r"([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)",
        rest.strip())
    if not m:
        raise ParseError(lineno, "expected: init <name> = <literal>")
    return m.group(1), m.group(2)


# the midpoint between float32's largest value and 2**128: from here on
# rounding to float32 overflows
_F32_OVERFLOW = 2.0**128 - 2.0**103


def _coerce_literal(literal: str, typ: ScalarType, lineno: int) -> int | float:
    too_big = ParseError(lineno, f"initial value {literal} does not fit {typ}")
    if typ.is_integer and re.fullmatch(r"-?\d+", literal):
        # exact, so 64-bit values past 2**53 keep every digit
        try:
            value = int(literal)
        except ValueError:  # more digits than int() converts
            raise too_big from None
    else:
        real = float(literal)
        if not math.isfinite(real):
            raise too_big
        if not typ.is_integer:
            if typ.bit_width == 32 and abs(real) >= _F32_OVERFLOW:
                raise too_big
            return typ.nearest(real)  # float literals round like a compiler would
        if real != int(real):
            raise ParseError(lineno, f"non-integer initial value {real} for {typ} variable")
        value = int(real)
    if not typ.contains(value):
        raise too_big
    return value


def _parse_abe_line(rest: str, lineno: int) -> tuple[DistExpr, Comparator]:
    toks = _Tokens(rest, lineno)
    try:
        expr = _parse_expr(toks)
    except RecursionError:
        raise ParseError(lineno, "expression nested too deeply") from None
    kind, text = toks.next()
    if kind != "op" or text not in _COMPARATORS:
        raise ParseError(lineno, f"expected a comparator, found {text!r}")
    comp = Comparator.from_symbol(text)
    zero_kind, zero_text = toks.next()
    if zero_kind != "num" or float(zero_text) != 0.0:
        raise ParseError(lineno, "abe lines must compare against 0")
    if not toks.at_end():
        raise ParseError(lineno, "trailing tokens after abe")
    return expr, comp


# --- printing -------------------------------------------------------------

_ADD, _MUL, _UNARY, _ATOM = 1, 2, 3, 4


def format_expr(expr: DistExpr) -> str:
    text, _ = _fmt(expr)
    return text


def _fmt(expr: DistExpr) -> tuple[str, int]:
    spine, leaf = _left_spine(expr)
    match leaf:
        case Var(name):
            text, prec = name, _ATOM
        case Lit(value):
            text, prec = repr(value), _ATOM
        case Neg(operand):
            text, prec = _fmt(operand)
            if prec < _UNARY:
                text = f"({text})"
            text, prec = f"-{text}", _UNARY
        case Call(fn, args):
            text, prec = f"{fn}({', '.join(format_expr(a) for a in args)})", _ATOM
        case _:
            raise TypeError(f"not an expression: {leaf!r}")
    for node in reversed(spine):
        op_prec = _ADD if node.op in "+-" else _MUL
        if prec < op_prec:
            text = f"({text})"
        rtext, rprec = _fmt(node.right)
        if rprec <= op_prec:
            rtext = f"({rtext})"
        text, prec = f"{text} {node.op} {rtext}", op_prec
    return text, prec


def format_spec(spec: ProblemSpec) -> str:
    """Render a spec as ``.prob`` text that parses back to an equal spec."""
    lines = [f"var {name} : {typ}" for name, typ in spec.variables]
    for name, value in spec.inits:
        lines.append(f"init {name} = {value!r}" if isinstance(value, float)
                     else f"init {name} = {value}")
    for expr, comp in spec.abes:
        lines.append(f"abe {format_expr(expr)} {comp.symbol} 0")
    return "\n".join(lines) + "\n"


# --- compilation ----------------------------------------------------------

def compile_spec(spec: ProblemSpec) -> CoverageProblem:
    """Build the coverage problem a spec denotes.

    Raises CompileError when the initial valuation does not execute the
    trace (a prefix predicate fails) or already satisfies the last
    predicate, naming the offending ABE index.
    """
    declared = dict(spec.variables)
    order = [name for name, _ in spec.variables]
    init = Valuation.of(
        (name, declared[name], value) for name, value in spec.inits)

    fns = []
    comps = []
    for idx, (expr, comp) in enumerate(spec.abes, start=1):
        names = free_vars(expr)
        params = tuple(n for n in order if n in names)
        fns.append(BlackBoxFn(
            params,
            lambda v, _expr=expr: eval_expr(_expr, v),
            name=f"abe {idx}"))
        comps.append(comp)

    try:
        return CoverageProblem(tuple(fns), tuple(comps), init)
    except InvalidProblemError as exc:
        raise CompileError(str(exc)) from exc


def prefix_spec(spec: ProblemSpec, k: int) -> ProblemSpec:
    """The coverage problem for the first k ABEs of the trace.

    For k below the trace length the k-th ABE held during the original
    execution, so it is flipped to become the failing target.
    """
    if not 1 <= k <= len(spec.abes):
        raise ValueError(f"prefix length {k} outside 1..{len(spec.abes)}")
    abes = list(spec.abes[:k])
    if k < len(spec.abes):
        expr, comp = abes[-1]
        abes[-1] = (expr, comp.opposite)
    return ProblemSpec(spec.variables, spec.inits, tuple(abes))
