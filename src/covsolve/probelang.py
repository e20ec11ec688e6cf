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
fail on division by zero or any non-finite result of + - * /.  The last
listed expression is the one the solver tries to flip.

Each expression is held as a flat program: a tuple of postfix steps
``(op, arg)``, namely ``("var", name)``, ``("lit", value)``, ``("neg", None)``,
``("+" | "-" | "*" | "/", None)`` and ``("abs" | "min" | "max" | "f64", None)``.
``x1 - 10`` is ``(("var", "x1"), ("lit", 10.0), ("-", None))``.  Evaluating,
printing and listing variables are single loops over the steps, and
programs compare, hash and print as plain tuples, so a sum as long as its
line needs no recursion anywhere.
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


# --- distance programs ---------------------------------------------------

#: One postfix step: ("var", name), ("lit", value), or an operator with arg None.
Step = tuple[str, str | float | None]

#: A distance expression as postfix steps, evaluated over one value stack.
Program = tuple[Step, ...]

_FUNCTIONS = {"abs": 1, "min": 2, "max": 2, "f64": 1}


def free_vars(program: Program) -> set[str]:
    return {arg for op, arg in program if op == "var"}


def eval_expr(program: Program, valuation: Valuation) -> float | None:
    """Evaluate over 64-bit floats; None signals a failed (out-of-domain) call.

    Division by zero and any non-finite result of + - * / fail the whole
    call, realising black-box functions that are partial on their inputs.
    """
    stack: list[float] = []
    for op, arg in program:
        if op == "var":
            stack.append(float(valuation[arg]))
        elif op == "lit":
            stack.append(arg)
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "abs":
            stack[-1] = abs(stack[-1])
        elif op == "f64":
            pass  # already wide
        else:
            b = stack.pop()
            a = stack[-1]
            if op == "+":
                a = a + b
            elif op == "-":
                a = a - b
            elif op == "*":
                a = a * b
            elif op == "/":
                if b == 0.0:
                    return None
                a = a / b
            else:
                stack[-1] = min(a, b) if op == "min" else max(a, b)
                continue
            if not math.isfinite(a):
                return None
            stack[-1] = a
    return stack[-1]


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


def _parse_expr(toks: _Tokens, out: list[Step]) -> None:
    _parse_term(toks, out)
    while (item := toks.peek()) and item[0] == "op" and item[1] in "+-":
        toks.next()
        _parse_term(toks, out)
        out.append((item[1], None))


def _parse_term(toks: _Tokens, out: list[Step]) -> None:
    _parse_unary(toks, out)
    while (item := toks.peek()) and item[0] == "op" and item[1] in "*/":
        toks.next()
        _parse_unary(toks, out)
        out.append((item[1], None))


def _parse_unary(toks: _Tokens, out: list[Step]) -> None:
    item = toks.peek()
    if item and item == ("op", "-"):
        toks.next()
        _parse_unary(toks, out)
        out.append(("neg", None))
    else:
        _parse_atom(toks, out)


def _parse_atom(toks: _Tokens, out: list[Step]) -> None:
    kind, text = toks.next()
    if kind == "num":
        value = float(text)
        if not math.isfinite(value):  # no literal prints back as infinity
            raise ParseError(toks.line, f"literal {text} is out of range")
        out.append(("lit", value))
    elif kind == "name":
        if toks.peek() != ("op", "("):
            out.append(("var", text))
            return
        if text not in _FUNCTIONS:
            raise ParseError(toks.line, f"unknown function {text!r}")
        toks.next()
        _parse_expr(toks, out)
        n_args = 1
        while toks.peek() == ("op", ","):
            toks.next()
            _parse_expr(toks, out)
            n_args += 1
        toks.expect_op(")")
        if n_args != _FUNCTIONS[text]:
            raise ParseError(
                toks.line,
                f"{text} takes {_FUNCTIONS[text]} argument(s), got {n_args}")
        out.append((text, None))
    elif kind == "op" and text == "(":
        _parse_expr(toks, out)
        toks.expect_op(")")
    else:
        raise ParseError(toks.line, f"unexpected token {text!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """Declarations, initial values, and the trace-ordered ABE list."""

    variables: tuple[tuple[str, ScalarType], ...]
    inits: tuple[tuple[str, int | float], ...]
    abes: tuple[tuple[Program, Comparator], ...]


def parse_spec(text: str) -> ProblemSpec:
    """Parse a ``.prob`` document; errors carry 1-based line numbers."""
    variables: list[tuple[str, ScalarType]] = []
    declared: dict[str, ScalarType] = {}
    inits: dict[str, int | float] = {}
    abes: list[tuple[Program, Comparator]] = []
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


def _parse_abe_line(rest: str, lineno: int) -> tuple[Program, Comparator]:
    toks = _Tokens(rest, lineno)
    steps: list[Step] = []
    try:
        _parse_expr(toks, steps)
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
    return tuple(steps), comp


# --- printing -------------------------------------------------------------

_ADD, _MUL, _UNARY, _ATOM = 1, 2, 3, 4


def format_expr(program: Program) -> str:
    """Infix text for ``program``, parenthesised only where precedence needs it."""
    stack: list[tuple[str, int]] = []  # (text, precedence) per pending operand
    for op, arg in program:
        if op == "var":
            stack.append((arg, _ATOM))
        elif op == "lit":
            stack.append((repr(arg), _ATOM))
        elif op == "neg":
            text, prec = stack.pop()
            if prec < _UNARY:
                text = f"({text})"
            stack.append((f"-{text}", _UNARY))
        elif op in _FUNCTIONS:
            first = len(stack) - _FUNCTIONS[op]
            args = ", ".join(text for text, _ in stack[first:])
            del stack[first:]
            stack.append((f"{op}({args})", _ATOM))
        else:
            op_prec = _ADD if op in "+-" else _MUL
            rtext, rprec = stack.pop()
            text, prec = stack.pop()
            if prec < op_prec:
                text = f"({text})"
            if rprec <= op_prec:
                rtext = f"({rtext})"
            stack.append((f"{text} {op} {rtext}", op_prec))
    return stack[-1][0]


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
