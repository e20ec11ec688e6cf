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
``x1 - 10`` is ``(("var", "x1"), ("lit", 10.0), ("-", None))``.  Parsing is
one operator-precedence loop over a line's tokens; evaluating, printing and
listing variables are single loops over the steps; and programs compare,
hash and print as plain tuples.  Nothing recurses, so neither a sum as long
as its line nor parentheses nested to any depth hit Python's stack limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .problem import BlackBoxFn, CoverageProblem, InvalidProblemError
from .vecspace import Comparator, ScalarType, TYPES_BY_NAME, Valuation, round_float32


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
    values, positions = valuation.values, valuation.signature.positions
    for op, arg in program:
        if op == "var":
            stack.append(float(values[positions[arg]]))
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

_NUMBER = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"

# finditer skips only whitespace: every other character starts a token or is bad
_TOKEN_RE = re.compile(
    rf"(?P<num>{_NUMBER})"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>==|!=|<=|>=|[-+*/(),<>])"
    r"|(?P<bad>\S)"
)

_END = ("end", "")  # closes every token list, so a parser never reads past it

#: Precedences; all operators are left-associative, and unary minus binds tightest.
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2}
_NEG = 3


def _tokenize(text: str, line: int) -> list[tuple[str, str]]:
    """The (kind, text) tokens of ``text``, closed by the end marker ``_END``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(line, f"unexpected character {m.group()!r}")
        tokens.append((kind, m.group()))
    tokens.append(_END)
    return tokens

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
        rf"([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(-?{_NUMBER})",
        rest.strip())
    if not m:
        raise ParseError(lineno, "expected: init <name> = <literal>")
    return m.group(1), m.group(2)


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
            if typ.bit_width == 32:
                try:
                    round_float32(real)
                except OverflowError:
                    raise too_big from None
            return typ.nearest(real)  # float literals round like a compiler would
        if real != int(real):
            raise ParseError(lineno, f"non-integer initial value {real} for {typ} variable")
        value = int(real)
    if not typ.contains(value):
        raise too_big
    return value


def _parse_abe_line(rest: str, lineno: int) -> tuple[Program, Comparator]:
    """Parse ``<expr> <comparator> 0`` in one operator-precedence loop.

    The stack holds pending operators as (precedence, op) and open groups as
    (0, name, argument count), with name "(" for a parenthesis, so every pop
    stops at the innermost open group.
    """
    tokens = _tokenize(rest, lineno)
    out: list[Step] = []
    stack: list[tuple] = []
    operand = True  # whether the next token starts an operand
    pos = 0
    while True:
        kind, text = tokens[pos]
        pos += 1
        if kind == "end":
            raise ParseError(lineno, "unexpected end of line")
        if operand:
            if text == "-":
                stack.append((_NEG, "neg"))
            elif text == "(":
                stack.append((0, "(", 1))
            elif kind == "name" and tokens[pos] == ("op", "("):
                if text not in _FUNCTIONS:
                    raise ParseError(lineno, f"unknown function {text!r}")
                stack.append((0, text, 1))
                pos += 1
            elif kind == "num":
                value = float(text)
                if not math.isfinite(value):  # no literal prints back as infinity
                    raise ParseError(lineno, f"literal {text} is out of range")
                out.append(("lit", value))
                operand = False
            elif kind == "name":
                out.append(("var", text))
                operand = False
            else:
                raise ParseError(lineno, f"unexpected token {text!r}")
            continue
        # after an operand: emit the pending operators that bind at least as
        # tightly as a binary operator here, or all of them before a closer
        floor = _BINARY.get(text, 1)
        while stack and stack[-1][0] >= floor:
            out.append((stack.pop()[1], None))
        if text in _BINARY:
            stack.append((floor, text))
            operand = True
        elif not stack:
            break  # the expression is complete
        else:
            _, name, n_args = stack[-1]
            if text == "," and name != "(":
                stack[-1] = (0, name, n_args + 1)
                operand = True
            elif text != ")":
                raise ParseError(lineno, f"expected ')', found {text!r}")
            elif name == "(":
                stack.pop()
            elif n_args != _FUNCTIONS[name]:
                raise ParseError(
                    lineno, f"{name} takes {_FUNCTIONS[name]} argument(s), got {n_args}")
            else:
                stack.pop()
                out.append((name, None))

    try:
        comp = Comparator.from_symbol(text)
    except ValueError:
        raise ParseError(lineno, f"expected a comparator, found {text!r}") from None
    zero_kind, zero_text = tokens[pos]
    if zero_kind == "end":
        raise ParseError(lineno, "unexpected end of line")
    if zero_kind != "num" or float(zero_text) != 0.0:
        raise ParseError(lineno, "abe lines must compare against 0")
    if tokens[pos + 1] != _END:
        raise ParseError(lineno, "trailing tokens after abe")
    return tuple(out), comp


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
