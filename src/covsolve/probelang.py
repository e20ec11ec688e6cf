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
one ``findall`` scan of a line into token texts and one operator-precedence
loop over them; evaluating, printing and listing variables are single loops
over the steps; and programs compare, hash and print as plain tuples.
Programs share their steps: every operator has one step object, and within
a line so has every distinct variable and literal text, so a program of n
steps holds n pointers rather than n fresh tuples.  Nothing recurses, so
neither a sum as long as its line nor parentheses nested to any depth hit
Python's stack limit.  A line ends at ``\r\n``, ``\r`` or ``\n``, and any
other character ``str.split`` splits on is whitespace, after a keyword too.
"""

from __future__ import annotations

import io
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


def _check_program(program: Program) -> None:
    """Raise ValueError unless ``program`` computes one value.

    Each step must be an ``(op, arg)`` step of the language and find its
    operands on the value stack, a variable must be named by a string and a
    literal must be a float, and one value must be left at the end.
    ``parse_spec`` builds only such programs; a hand-built one is checked
    before it is printed or compiled.
    """
    depth = 0
    for index, step in enumerate(program, start=1):
        if not (isinstance(step, tuple) and len(step) == 2 and isinstance(step[0], str)):
            raise ValueError(f"step {index} {step!r} is not an (op, arg) pair")
        op, arg = step
        if op == "var" and not isinstance(arg, str):
            raise ValueError(f"variable {arg!r} is not a name")
        if op == "lit" and not isinstance(arg, float):
            raise ValueError(f"literal {arg!r} is not a float")
        if op in ("var", "lit"):
            operands = 0
        elif op in _OP_STEPS:
            operands = 1 if op == "neg" else _FUNCTIONS.get(op, 2)
        else:
            raise ValueError(f"step {step!r} has no .prob spelling")
        if depth < operands:
            raise ValueError(f"step {index} {step!r} finds {depth} of its {operands} operands")
        depth += 1 - operands
    if depth != 1:
        raise ValueError(f"program leaves {depth} values, not one")


def free_vars(program: Program) -> set[str]:
    return {arg for op, arg in program if op == "var"}


def eval_expr(program: Program, valuation: Valuation) -> float | None:
    """Evaluate over 64-bit floats; None signals a failed (out-of-domain) call.

    Division by zero and any non-finite result of + - * / fail the whole
    call, realising black-box functions that are partial on their inputs.
    """
    stack: list[float] = []
    push, pop, isfinite = stack.append, stack.pop, math.isfinite
    values, positions = valuation.values, valuation.signature.positions
    for op, arg in program:
        if op == "var":
            push(float(values[positions[arg]]))
        elif op == "lit":
            push(arg)
        elif op == "+":
            b = pop()
            a = stack[-1] + b
            if not isfinite(a):
                return None
            stack[-1] = a
        elif op == "-":
            b = pop()
            a = stack[-1] - b
            if not isfinite(a):
                return None
            stack[-1] = a
        elif op == "*":
            b = pop()
            a = stack[-1] * b
            if not isfinite(a):
                return None
            stack[-1] = a
        elif op == "/":
            b = pop()
            if b == 0.0:
                return None
            a = stack[-1] / b
            if not isfinite(a):
                return None
            stack[-1] = a
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "abs":
            stack[-1] = abs(stack[-1])
        elif op == "f64":
            pass  # already wide
        else:
            b = pop()
            stack[-1] = min(stack[-1], b) if op == "min" else max(stack[-1], b)
    return stack[-1]


# --- parsing --------------------------------------------------------------

_NUMBER = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"

# no groups, so findall returns the token texts; a character that starts no
# token is skipped, and the parser finds it by length
_TOKEN_RE = re.compile(rf"{_NUMBER}|[A-Za-z_][A-Za-z_0-9]*|==|!=|<=|>=|[-+*/(),<>]")

#: Precedences; all operators are left-associative, and unary minus binds tightest.
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2}
_NEG = 3

#: The one step of each operator, shared by every program.
_OP_STEPS = {op: (op, None) for op in ("neg", *_BINARY, *_FUNCTIONS)}


@dataclass(frozen=True)
class ProblemSpec:
    """(name, type, initial value) per variable, and the trace-ordered ABE list."""

    variables: tuple[tuple[str, ScalarType, int | float], ...]
    abes: tuple[tuple[Program, Comparator], ...]


def parse_spec(text: str) -> ProblemSpec:
    """Parse a ``.prob`` document; errors carry 1-based line numbers."""
    # name -> [type, initial value], the value None until its init line
    declared: dict[str, list] = {}
    abes: list[tuple[Program, Comparator]] = []
    abe_lines: list[int] = []

    # universal newlines: text.splitlines() also breaks at \f, \v, \x1c-\x1e, \x85, \u2028, \u2029
    lines = io.StringIO(text, newline=None).readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]  # any whitespace, a tab too, ends the keyword
        rest = line[len(keyword):]
        if keyword == "var":
            name, typ = _parse_var_line(rest, lineno)
            if name in declared:
                raise ParseError(lineno, f"variable {name!r} declared twice")
            declared[name] = [typ, None]
        elif keyword == "init":
            name, literal = _parse_init_line(rest, lineno)
            if name not in declared:
                raise ParseError(lineno, f"init of undeclared variable {name!r}")
            if declared[name][1] is not None:
                raise ParseError(lineno, f"variable {name!r} initialised twice")
            declared[name][1] = _coerce_literal(literal, declared[name][0], lineno)
        elif keyword == "abe":
            abes.append(_parse_abe_line(rest, lineno))
            abe_lines.append(lineno)
        else:
            raise ParseError(lineno, f"unknown directive {keyword!r}")

    if not abes:
        raise ParseError(len(lines) + 1, "no abe lines: nothing to flip")
    missing = [name for name, (_, value) in declared.items() if value is None]
    if missing:
        raise ParseError(len(lines) + 1,
                         f"missing init for variable(s) {', '.join(missing)}")
    for (expr, _), lineno in zip(abes, abe_lines):
        unknown = free_vars(expr) - declared.keys()
        if unknown:
            raise ParseError(lineno, f"undeclared variable(s) {', '.join(sorted(unknown))}")

    return ProblemSpec(tuple((name, typ, value) for name, (typ, value) in declared.items()),
                       tuple(abes))


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

    One findall scan gives the line's token texts, closed by the end marker
    "", and the loop classifies each where it reads it: a number starts with
    a digit or ".", a name is an identifier, and any other token is an
    operator.  The stack holds pending operators as (precedence, step) and
    open groups as (0, name, argument count), with name "(" for a
    parenthesis, so every pop stops at the innermost open group.  Each
    distinct variable and literal text gets one step per line, and each
    operator its step in ``_OP_STEPS``, so programs share their steps.
    """
    tokens = _TOKEN_RE.findall(rest)
    if sum(map(len, tokens)) != len("".join(rest.split())):
        # the pieces between tokens hold the characters that start none
        bad = "".join(_TOKEN_RE.split(rest)).split()[0][0]
        raise ParseError(lineno, f"unexpected character {bad!r}")
    tokens.append("")
    variables: dict[str, Step] = {}  # name -> its ("var", name) step
    literals: dict[str, Step] = {}  # literal text -> its ("lit", value) step
    out: list[Step] = []
    stack: list[tuple] = []
    operand = True  # whether the next token starts an operand
    pos = 0
    while True:
        text = tokens[pos]
        pos += 1
        if not text:
            raise ParseError(lineno, "unexpected end of line")
        if operand:
            if text == "-":
                stack.append((_NEG, _OP_STEPS["neg"]))
            elif text == "(":
                stack.append((0, "(", 1))
            elif text[0].isdigit() or text[0] == ".":
                step = literals.get(text)
                if step is None:
                    value = float(text)
                    if not math.isfinite(value):  # no literal prints back as infinity
                        raise ParseError(lineno, f"literal {text} is out of range")
                    step = literals[text] = ("lit", value)
                out.append(step)
                operand = False
            elif not text.isidentifier():
                raise ParseError(lineno, f"unexpected token {text!r}")
            elif tokens[pos] == "(":
                if text not in _FUNCTIONS:
                    raise ParseError(lineno, f"unknown function {text!r}")
                stack.append((0, text, 1))
                pos += 1
            else:
                step = variables.get(text)
                if step is None:
                    step = variables[text] = ("var", text)
                out.append(step)
                operand = False
            continue
        # after an operand: emit the pending operators that bind at least as
        # tightly as a binary operator here, or all of them before a closer
        floor = _BINARY.get(text, 1)
        while stack and stack[-1][0] >= floor:
            out.append(stack.pop()[1])
        if text in _BINARY:
            stack.append((floor, _OP_STEPS[text]))
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
                out.append(_OP_STEPS[name])

    try:
        comp = Comparator.from_symbol(text)
    except ValueError:
        raise ParseError(lineno, f"expected a comparator, found {text!r}") from None
    zero = tokens[pos]
    if not zero:
        raise ParseError(lineno, "unexpected end of line")
    if not (zero[0].isdigit() or zero[0] == ".") or float(zero) != 0.0:
        raise ParseError(lineno, "abe lines must compare against 0")
    if tokens[pos + 1]:
        raise ParseError(lineno, "trailing tokens after abe")
    return tuple(out), comp


# --- printing -------------------------------------------------------------


def format_expr(program: Program) -> str:
    """Infix text for ``program``, parenthesised only where the parser's precedences need it.

    Raises ValueError for a program that ``_check_program`` refuses, and for
    a literal that no ``.prob`` number spells: a negative one or -0.0, which
    would parse back as a negation, or a non-finite one.  A literal prints
    as the ``repr`` of its plain float, so a numpy float prints as a number.
    """
    _check_program(program)
    stack: list[tuple[str, int]] = []  # (text, precedence) per pending operand
    for op, arg in program:
        if op == "var":  # an atom, like a negation, is never parenthesised as an operand
            stack.append((arg, _NEG))
        elif op == "lit":
            if not (math.isfinite(arg) and math.copysign(1.0, arg) > 0.0):
                raise ValueError(f"literal {arg!r} has no .prob spelling")
            stack.append((repr(float(arg)), _NEG))
        elif op == "neg":
            text, prec = stack.pop()
            if prec < _NEG:
                text = f"({text})"
            stack.append((f"-{text}", _NEG))
        elif op in _FUNCTIONS:
            first = len(stack) - _FUNCTIONS[op]
            args = ", ".join(text for text, _ in stack[first:])
            del stack[first:]
            stack.append((f"{op}({args})", _NEG))
        else:
            op_prec = _BINARY[op]
            rtext, rprec = stack.pop()
            text, prec = stack.pop()
            if prec < op_prec:
                text = f"({text})"
            if rprec <= op_prec:
                rtext = f"({rtext})"
            stack.append((f"{text} {op} {rtext}", op_prec))
    return stack[-1][0]


def format_spec(spec: ProblemSpec) -> str:
    """Render a spec as ``.prob`` text that parses back to an equal spec.

    Raises ValueError, naming what is at fault, for a spec whose text ``parse_spec`` rejects.
    """
    declared = Valuation.of(spec.variables).signature.positions
    for name in declared:
        if not (name.isidentifier() and name.isascii()):
            raise ValueError(f"variable name {name!r} is not a .prob name")
    if not spec.abes:
        raise ValueError("no abes: nothing to flip")
    lines = [f"var {name} : {typ}" for name, typ, _ in spec.variables]
    lines += [f"init {name} = {(float(value) if isinstance(value, float) else value)!r}"
              for name, _, value in spec.variables]
    for idx, (expr, comp) in enumerate(spec.abes, start=1):
        text = format_expr(expr)
        if unknown := free_vars(expr) - declared.keys():
            raise ValueError(f"abe {idx} uses undeclared variable(s) {', '.join(sorted(unknown))}")
        lines.append(f"abe {text} {comp.symbol} 0")
    return "\n".join(lines) + "\n"


# --- compilation ----------------------------------------------------------

def compile_spec(spec: ProblemSpec) -> CoverageProblem:
    """Build the coverage problem a spec denotes.

    Raises CompileError when the initial valuation is invalid (a variable
    declared twice, or an init value its type does not hold), when an ABE's
    program is malformed (see ``_check_program``) or uses an undeclared
    variable, or when the initial valuation does not
    execute the trace (a prefix predicate fails) or already satisfies the
    last predicate, naming the offending ABE index.
    """
    try:
        init = Valuation.of(spec.variables)
    except ValueError as exc:
        raise CompileError(f"initial valuation: {exc}") from exc
    declared = init.signature.positions  # name -> position, in declared order

    fns = []
    for idx, (expr, _) in enumerate(spec.abes, start=1):
        try:
            _check_program(expr)
        except ValueError as exc:
            raise CompileError(f"abe {idx}: {exc}") from exc
        names = free_vars(expr)
        # undeclared names stay, last, for CoverageProblem to name
        params = tuple(n for n in declared if n in names) + tuple(sorted(names - declared.keys()))
        fns.append(BlackBoxFn(
            params,
            lambda v, _expr=expr: eval_expr(_expr, v),
            name=f"abe {idx}"))

    try:
        return CoverageProblem(tuple(fns), tuple(comp for _, comp in spec.abes), init)
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
    return ProblemSpec(spec.variables, tuple(abes))
