"""Seeded workloads for the covsolve benchmark, with an independent oracle.

Every problem is a ``Problem`` record: the ``.prob`` text the solver gets,
plus the same declarations and distance formulas as expression trees.  The
oracle evaluates those trees with plain Python floats, in the order the text
writes them, without touching ``covsolve.probelang``.  Generated formulas are
rendered with every binary operation in parentheses, so the text fixes the
operation order; problems read from files go through this module's own
parser, which follows the same precedence rules.

Expression trees are tuples:

    ("var", name)           a variable, read as float(value)
    ("lit", text, value)    a literal; value is float(text)
    ("neg", expr)
    ("bin", op, left, right)        op in + - * /
    ("call", fn, (args...))         fn in abs min max f64

A call fails (evaluates to None) on division by zero and on any non-finite
intermediate, as the text format specifies.  The module imports no numpy so
that a caller can pin math-library threads before numpy loads.
"""

from __future__ import annotations

import math
import random
import re
import struct
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("chain-scale", "hard-search", "costly-calls")

#: Types of chain variables; one type per problem, rotated over problems.
CHAIN_TYPES = ("f64", "i32", "u32", "f32", "i64")

#: chain-scale sizes as (dimension, prefix length); 40 problems.  The line
#: step costs about dim**3 * (prefix + 1) per iteration, so the prefix
#: shrinks as the dimension grows, which keeps a pass to a few seconds.
#: Prefixes stay at most two thirds of the dimension: denser integer chains
#: stall for thousands of evaluations.
CHAIN_SCALE_SIZES = (
    *((12, n % 9) for n in range(25)),
    *((16, n) for n in range(8)),
    (24, 0), (24, 1), (24, 2), (24, 0), (24, 1),
    (32, 1), (48, 0),
)

#: chain-scale problems from this dimension up are f64: one of their
#: iterations costs a second or more, and on integer and f32 grids the
#: number of iterations varies from seed to seed.
BIG_DIM = 24

#: Share of chain links that are equalities.
EQ_SHARE = 0.2

#: costly-calls sizes: dimension 6..8 and prefix length 2..4 on a 3x3 grid,
#: each distance padded with this many cancelling terms.  Compiling costs
#: about dimension * padding per distance, so larger chains would make one
#: set-up take longer than a pass.
COSTLY_COUNT = 40
COSTLY_PADDING = 200

#: hard-search families, generated round-robin after the bundled suite.
HARD_PER_FAMILY = 32

_INT_RANGES = {
    "i8": (-(1 << 7), (1 << 7) - 1),
    "i16": (-(1 << 15), (1 << 15) - 1),
    "i32": (-(1 << 31), (1 << 31) - 1),
    "i64": (-(1 << 63), (1 << 63) - 1),
    "u8": (0, (1 << 8) - 1),
    "u16": (0, (1 << 16) - 1),
    "u32": (0, (1 << 32) - 1),
    "u64": (0, (1 << 64) - 1),
}

_HOLDS = {
    "==": lambda a: a == 0.0,
    "!=": lambda a: a != 0.0,
    "<": lambda a: a < 0.0,
    "<=": lambda a: a <= 0.0,
    ">": lambda a: a > 0.0,
    ">=": lambda a: a >= 0.0,
}


@dataclass(frozen=True)
class Problem:
    """One benchmark problem: its text and its formulas for the oracle."""

    name: str
    text: str
    variables: tuple[tuple[str, str], ...]    # (name, type name), declared order
    abes: tuple[tuple[tuple, str], ...]        # (expression tree, comparator)


# --- expression trees -----------------------------------------------------

def var(name: str) -> tuple:
    return ("var", name)


def lit(value: int | float) -> tuple:
    """A non-negative literal; negative constants are written as subtraction."""
    if value < 0:
        raise ValueError("literals are non-negative")
    text = str(value) if isinstance(value, int) else repr(float(value))
    return ("lit", text, float(text))


def bin_(op: str, left: tuple, right: tuple) -> tuple:
    return ("bin", op, left, right)


def call(fn: str, *args: tuple) -> tuple:
    return ("call", fn, tuple(args))


def add_const(expr: tuple, c: int) -> tuple:
    """``expr + c`` written with a non-negative literal."""
    return bin_("+", expr, lit(c)) if c >= 0 else bin_("-", expr, lit(-c))


def balanced_sum(terms: list[tuple]) -> tuple:
    """Sum of ``terms`` as a balanced tree, so its depth is logarithmic."""
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return bin_("+", balanced_sum(terms[:mid]), balanced_sum(terms[mid:]))


def render(expr: tuple) -> str:
    """``.prob`` syntax for ``expr``; binary operations are parenthesised."""
    tag = expr[0]
    if tag == "var":
        return expr[1]
    if tag == "lit":
        return expr[1]
    if tag == "neg":
        return f"(-{render(expr[1])})"
    if tag == "bin":
        return f"({render(expr[2])} {expr[1]} {render(expr[3])})"
    return f"{expr[1]}({', '.join(render(a) for a in expr[2])})"


def evaluate(expr: tuple, values: dict) -> float | None:
    """The oracle: evaluate over 64-bit floats; None when the call fails."""
    tag = expr[0]
    if tag == "var":
        return float(values[expr[1]])
    if tag == "lit":
        return expr[2]
    if tag == "neg":
        v = evaluate(expr[1], values)
        return None if v is None else -v
    if tag == "bin":
        a = evaluate(expr[2], values)
        if a is None:
            return None
        b = evaluate(expr[3], values)
        if b is None:
            return None
        op = expr[1]
        if op == "+":
            r = a + b
        elif op == "-":
            r = a - b
        elif op == "*":
            r = a * b
        else:
            if b == 0.0:
                return None
            r = a / b
        return r if math.isfinite(r) else None
    args = []
    for arg in expr[2]:
        v = evaluate(arg, values)
        if v is None:
            return None
        args.append(v)
    fn = expr[1]
    if fn == "abs":
        return abs(args[0])
    if fn == "min":
        return min(args)
    if fn == "max":
        return max(args)
    return args[0]


def oracle_value(expr: tuple, values: dict) -> float | None:
    """The value a black-box call returns: failures and non-finite give None."""
    v = evaluate(expr, values)
    return v if v is not None and math.isfinite(v) else None


# --- the independent solution check --------------------------------------

def _is_float32(x: float) -> bool:
    try:
        return struct.unpack("f", struct.pack("f", x))[0] == x
    except OverflowError:
        return False


def check_solution(problem: Problem, values: dict) -> str | None:
    """Why ``values`` does not solve ``problem``, or None when it does.

    Checks every declared variable's value against its type (integral and in
    range for integers, finite and representable for floats), then that every
    predicate, the last one included, holds under the oracle.
    """
    for name, typ in problem.variables:
        if name not in values:
            return f"variable {name} has no value"
        v = values[name]
        if typ in _INT_RANGES:
            lo, hi = _INT_RANGES[typ]
            if type(v) is not int:
                return f"{name} : {typ} holds non-integral {v!r}"
            if not lo <= v <= hi:
                return f"{name} : {typ} holds {v} outside [{lo}, {hi}]"
        else:
            if type(v) is not float or not math.isfinite(v):
                return f"{name} : {typ} holds non-finite or non-float {v!r}"
            if typ == "f32" and not _is_float32(v):
                return f"{name} : f32 holds {v!r}, not a 32-bit float"
    for index, (expr, comp) in enumerate(problem.abes, start=1):
        v = oracle_value(expr, values)
        if v is None:
            return f"abe {index} fails"
        if not _HOLDS[comp](v):
            return f"abe {index} is false: {v!r} {comp} 0"
    return None


# --- an independent reader for .prob files -------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>==|!=|<=|>=|[-+*/(),<>]))")


class _Reader:
    def __init__(self, text: str):
        self.toks = []
        pos = 0
        text = text.rstrip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise ValueError(f"cannot read {text[pos:]!r}")
            self.toks.append((m.lastgroup, m.group(m.lastgroup)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-") and self.peek()[0] == "op":
            node = bin_(self.take()[1], node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/") and self.peek()[0] == "op":
            node = bin_(self.take()[1], node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.unary())
        return self.atom()

    def atom(self):
        kind, text = self.take()
        if kind == "num":
            return ("lit", text, float(text))
        if kind == "name":
            if self.peek() == ("op", "("):
                self.take()
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.take()
                    args.append(self.expr())
                self.take()
                return ("call", text, tuple(args))
            return var(text)
        if (kind, text) == ("op", "("):
            node = self.expr()
            self.take()
            return node
        raise ValueError(f"unexpected token {text!r}")


def read_problem(name: str, text: str) -> Problem:
    """A Problem from ``.prob`` text, read without covsolve."""
    variables = []
    abes = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        keyword, _, rest = line.partition(" ")
        if keyword == "var":
            vname, typ = (part.strip() for part in rest.split(":"))
            variables.append((vname, typ))
        elif keyword == "abe":
            reader = _Reader(rest)
            expr = reader.expr()
            comp = reader.take()[1]
            abes.append((expr, comp))
    return Problem(name, text, tuple(variables), tuple(abes))


# --- building problems ----------------------------------------------------

def _problem(name, variables, inits, abes) -> Problem:
    lines = [f"# {name}"]
    lines += [f"var {n} : {t}" for n, t in variables]
    lines += [f"init {n} = {v}" for n, v in inits]
    lines += [f"abe {render(e)} {c} 0" for e, c in abes]
    return Problem(name, "\n".join(lines) + "\n", tuple(variables), tuple(abes))


def _padding(rng: random.Random, names: list[str], count: int) -> tuple:
    """``count`` terms ``k*x - k*x`` over ``names``; each is exactly 0.0."""
    terms = []
    for _ in range(count):
        k = lit(rng.randint(2, 9))
        x = var(rng.choice(names))
        terms.append(bin_("-", bin_("*", k, x), bin_("*", k, x)))
    return balanced_sum(terms)


def chain_problem(rng: random.Random, name: str, dim: int, prefix: int,
                  typ: str, padding: int = 0) -> Problem:
    """A linear chain of one type over ``dim`` variables with ``prefix`` links.

    The target is ``sum(A) - sum(B) - K > 0`` over a split of all variables
    into halves A and B, so every link shares variables with it and reduction
    keeps everything; K puts the target a multiple of ``dim`` below zero.
    Each link ``a*xi - b*xj + c`` is oriented so that moving along the
    target's gradient keeps it true.  In integer chains some links are
    equalities between two variables of one half with equal coefficients,
    which that direction leaves unchanged too.  Initial values lie in
    600..900: away from unsigned zero, and within one f32 binade.  With
    ``padding`` every distance gets that many cancelling terms over its own
    variables added.
    """
    names = [f"x{i + 1}" for i in range(dim)]
    order = list(range(dim))
    rng.shuffle(order)
    sign = [0] * dim
    for pos, i in enumerate(order):
        sign[i] = 1 if pos < dim // 2 else -1
    init = [rng.randint(600, 900) for _ in range(dim)]

    links = []  # (i, j, a, b, comp)
    in_eq: set[int] = set()
    for _ in range(prefix):
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)
                 if typ in _INT_RANGES and sign[i] == sign[j] and not {i, j} & in_eq]
        if pairs and rng.random() < EQ_SHARE:
            i, j = rng.choice(pairs)
            in_eq |= {i, j}
            init[j] = init[i]
            a = rng.randint(1, 2)
            links.append((i, j, a, a, "=="))
            continue
        i, j = rng.sample(range(dim), 2)
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        slope = a * sign[i] - b * sign[j]
        comp = ">=" if slope > 0 else "<=" if slope < 0 else rng.choice(("<=", ">="))
        links.append((i, j, a, b, comp))

    abes = []  # (expression, comparator, variables it reads)
    for i, j, a, b, comp in links:
        expr = bin_("-", bin_("*", lit(a), var(names[i])), bin_("*", lit(b), var(names[j])))
        if comp != "==":
            margin = rng.randint(1, 20)
            at_init = a * init[i] - b * init[j]
            expr = add_const(expr, (margin if comp == ">=" else -margin) - at_init)
        abes.append((expr, comp, sorted({names[i], names[j]})))
    plus = [var(names[i]) for i in range(dim) if sign[i] > 0]
    minus = [var(names[i]) for i in range(dim) if sign[i] < 0]
    gap = dim * rng.randint(1, 4)
    offset = sum(init[i] * sign[i] for i in range(dim)) + gap
    target = add_const(bin_("-", balanced_sum(plus), balanced_sum(minus)), -offset)
    abes.append((target, ">", sorted(names)))

    if padding:
        abes = [(bin_("+", expr, _padding(rng, used, padding)), comp, used)
                for expr, comp, used in abes]
    return _problem(name, [(n, typ) for n in names], list(zip(names, init)),
                    [(expr, comp) for expr, comp, _ in abes])


# --- hard-search families (dimension at most 8) --------------------------
#
# Each builder takes its variant number, which fixes the problem's shape
# (types, sizes, comparators), and draws only constants from the seed, so
# every seed yields the same mix of shapes.

def _gate(rng: random.Random, name: str, variant: int) -> Problem:
    """A non-smooth min/max gate; max gates creep up on the threshold."""
    fn = ("max", "min")[variant % 2]
    typ = ("f64", "i32")[variant // 2 % 2]
    d = 2 + variant // 4 % 2
    names = [f"x{i + 1}" for i in range(d)]
    gate = var(names[0])
    for n in names[1:]:
        gate = call(fn, gate, var(n))
    target = bin_("-", gate, lit(rng.randint(3, 500)))
    return _problem(name, [(n, typ) for n in names], [(n, 0) for n in names],
                    [(target, ">=")])


def _big_int(rng: random.Random, name: str, variant: int) -> Problem:
    """An i64 or u64 target beyond 2**53, guarded by a prefix bound."""
    typ = ("i64", "u64")[variant % 2]
    threshold = rng.randint((1 << 53) + 1, 1 << 62)
    prefix = (bin_("-", var("x1"), lit(2 * threshold)), "<=")
    target = (bin_("-", bin_("+", var("x1"), var("x2")), lit(threshold)), ">=")
    return _problem(name, [("x1", typ), ("x2", typ)], [("x1", 0), ("x2", 0)],
                    [prefix, target])


def _eq_chain(rng: random.Random, name: str, variant: int) -> Problem:
    """Equality links x1 == x2 == ... == xd, then push the last one up."""
    typ = ("i32", "i64", "u32")[variant % 3]
    d = 4 + variant % 5
    names = [f"x{i + 1}" for i in range(d)]
    abes = [(bin_("-", var(names[i]), var(names[i + 1])), "==") for i in range(d - 1)]
    abes.append((bin_("-", var(names[-1]), lit(rng.randint(10, 10000))), ">="))
    return _problem(name, [(n, typ) for n in names], [(n, 0) for n in names], abes)


def _mixed(rng: random.Random, name: str, variant: int) -> Problem:
    """f32 variables bounded by u32 ones; the target pushes their sum up.

    Thresholds stay at most 10**4: beyond that one pair takes 1 to 26
    iterations depending on the seed, and the workload's time with it.
    """
    pairs = 1 + variant % 3
    variables, abes = [], []
    for k in range(1, pairs + 1):
        variables += [(f"a{k}", "f32"), (f"b{k}", "u32")]
        abes.append((bin_("-", var(f"a{k}"), var(f"b{k}")), "<="))
    total = balanced_sum([var(f"a{k}") for k in range(1, pairs + 1)])
    abes.append((bin_("-", total, lit(rng.randint(100, 10000))), ">="))
    return _problem(name, variables, [(n, 0) for n, _ in variables], abes)


def _dead_end(rng: random.Random, name: str, variant: int) -> Problem:
    """No solution, and no candidate improves: every candidate gets tried."""
    typ = ("f64", "i32")[variant // 3 % 2]
    c = rng.randint(1, 100)
    if variant % 3 == 0:    # flat target
        abes = [(bin_("-", bin_("-", var("x1"), var("x1")), lit(c)), ">=")]
    elif variant % 3 == 1:  # prefix and target contradict each other
        abes = [(bin_("-", var("x1"), var("x2")), "<="),
                (bin_("-", bin_("-", var("x1"), var("x2")), lit(c)), ">=")]
    else:                   # already at the target's minimum
        abes = [(bin_("+", call("abs", bin_("-", var("x1"), var("x2"))), lit(c)), "<=")]
    names = ["x1", "x2"]
    return _problem(name, [(n, typ) for n in names], [(n, 0) for n in names], abes)


HARD_FAMILIES = (("gate", _gate), ("bigint", _big_int), ("eqchain", _eq_chain),
                 ("mixed", _mixed), ("deadend", _dead_end))


# --- workloads --------------------------------------------------------------

def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def generate(workload: str, seed: int, bundled_dir: Path | None = None) -> list[Problem]:
    """The problems of ``workload`` for ``seed``; equal seeds give equal problems.

    ``hard-search`` starts with the ``.prob`` files of ``bundled_dir`` in
    name order.
    """
    problems: list[Problem] = []
    if workload == "chain-scale":
        for index, (dim, prefix) in enumerate(CHAIN_SCALE_SIZES):
            typ = CHAIN_TYPES[index % len(CHAIN_TYPES)] if dim < BIG_DIM else "f64"
            problems.append(chain_problem(
                _rng(workload, seed, index), f"chain_{typ}_d{dim}_n{prefix}_{index}",
                dim, prefix, typ))
    elif workload == "costly-calls":
        for index in range(COSTLY_COUNT):
            dim, prefix = 6 + index % 3, 2 + (index // 3) % 3
            typ = CHAIN_TYPES[index % len(CHAIN_TYPES)]
            problems.append(chain_problem(
                _rng(workload, seed, index), f"costly_{typ}_d{dim}_n{prefix}_{index}",
                dim, prefix, typ, padding=COSTLY_PADDING))
    elif workload == "hard-search":
        if bundled_dir is None:
            raise ValueError("hard-search needs the bundled suite directory")
        for path in sorted(Path(bundled_dir).glob("*.prob")):
            problems.append(read_problem(path.stem, path.read_text()))
        for index in range(HARD_PER_FAMILY * len(HARD_FAMILIES)):
            family, build = HARD_FAMILIES[index % len(HARD_FAMILIES)]
            problems.append(build(_rng(workload, seed, index), f"{family}_{index}",
                                  index // len(HARD_FAMILIES)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return problems
