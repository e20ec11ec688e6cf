import math
import random
import re
import sys
import tracemalloc
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsolve import cli, probelang
from covsolve.probelang import (
    CompileError,
    ParseError,
    ProblemSpec,
    compile_spec,
    eval_expr,
    format_spec,
    parse_spec,
    prefix_spec,
)
from covsolve.problem import is_solution, reduce_problem
from covsolve.vecspace import (
    F32, F64, I32, TYPES_BY_NAME, U8, Comparator, Valuation,
)

EQ_GE_TRACE = """\
# trace (x1 = x2, x1 >= 10)
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 0
abe x1 - x2 == 0
abe x1 - 10 >= 0
"""

SPLITTABLE_TRACE = """\
var x1 : f64
var x2 : f64
var x3 : f64
init x1 = 0
init x2 = 0
init x3 = 0
abe x1 - x2 == 0
abe x3 - 10 >= 0
"""


# Builders of postfix distance programs, named after the grammar's node kinds.

def Var(name):
    return (("var", name),)


def Lit(value):
    return (("lit", value),)


def Neg(operand):
    return operand + (("neg", None),)


def BinOp(op, left, right):
    return left + right + ((op, None),)


def Call(fn, args):
    return sum(args, ()) + ((fn, None),)


def vv(**values):
    return Valuation.of([(k, F64, float(v)) for k, v in values.items()])


class TestEvalExpr:
    def test_subtraction(self):
        expr = BinOp("-", Var("x1"), Var("x2"))
        assert eval_expr(expr, vv(x1=2, x2=-3)) == 5.0

    def test_division_by_zero_fails(self):
        expr = BinOp("/", Var("x1"), Var("x2"))
        assert eval_expr(expr, vv(x1=1, x2=0)) is None

    def test_constant_offset_distance(self):
        expr = BinOp("-", Var("x1"), Lit(10.0))
        assert eval_expr(expr, vv(x1=0)) == -10.0

    def test_overflow_fails(self):
        expr = BinOp("*", Lit(1e308), Lit(1e308))
        assert eval_expr(expr, vv(x1=0)) is None

    def test_builtins(self):
        v = vv(a=-3, b=7)
        assert eval_expr(Call("abs", (Var("a"),)), v) == 3.0
        assert eval_expr(Call("min", (Var("a"), Var("b"))), v) == -3.0
        assert eval_expr(Call("max", (Var("a"), Var("b"))), v) == 7.0
        assert eval_expr(Call("f64", (Var("a"),)), v) == -3.0
        assert eval_expr(Neg(Var("b")), v) == -7.0

    def test_failure_propagates(self):
        expr = BinOp("+", BinOp("/", Lit(1.0), Var("a")), Lit(5.0))
        assert eval_expr(expr, vv(a=0)) is None

    def test_deterministic(self):
        expr = BinOp("*", BinOp("+", Var("a"), Lit(0.1)), Var("b"))
        v = vv(a=1.37, b=-2.21)
        assert eval_expr(expr, v) == eval_expr(expr, v)

    def test_integer_variables_widen(self):
        expr = BinOp("-", Var("a"), Lit(0.5))
        v = Valuation.of([("a", I32, 3)])
        assert eval_expr(expr, v) == 2.5

    def test_leaves_are_read_by_position_not_by_name(self, monkeypatch):
        names = [f"x{i}" for i in range(200)]
        values = [i if i % 2 else i / 7 for i in range(200)]
        types = [I32 if i % 2 else F64 for i in range(200)]
        text = "".join(f"var {x} : {t.name}\ninit {x} = 0\n" for x, t in zip(names, types))
        fn = compile_spec(parse_spec(text + "abe " + " + ".join(names) + " - 5 >= 0\n")).fns[-1]
        valuation = Valuation.of(zip(names, types, values))
        expected = 0.0
        for v in values:  # the sum is left-associative: x0 + x1 first
            expected += float(v)
        expected -= 5.0
        reads = []
        by_name = Valuation.__getitem__
        monkeypatch.setattr(Valuation, "__getitem__",
                            lambda self, name: reads.append(name) or by_name(self, name))
        assert fn.call(valuation) == expected
        assert reads == []


class TestParsing:
    def test_basic_document(self):
        spec = parse_spec(EQ_GE_TRACE)
        assert [n for n, _, _ in spec.variables] == ["x1", "x2"]
        assert spec.variables == (("x1", F64, 0.0), ("x2", F64, 0.0))
        assert spec.abes[0][1] is Comparator.EQ
        assert spec.abes[1][1] is Comparator.GE

    def test_precedence(self):
        spec = parse_spec("""
var a : f64
init a = 0
abe a + 2 * a - 1 >= 0
""")
        expr = spec.abes[0][0]
        assert expr == BinOp("-", BinOp("+", Var("a"),
                                        BinOp("*", Lit(2.0), Var("a"))), Lit(1.0))

    def test_parens_and_unary(self):
        spec = parse_spec("""
var a : f64
init a = 0
abe -(a + 1) * 2 < 0
""")
        expr = spec.abes[0][0]
        assert expr == BinOp("*", Neg(BinOp("+", Var("a"), Lit(1.0))), Lit(2.0))

    def test_f32_literal_rounds_like_a_compiler(self):
        import numpy as np
        spec = parse_spec("""
var a : f32
init a = 0.1
abe a - 1 >= 0
""")
        assert spec.variables == (("a", F32, float(np.float32(0.1))),)

    @pytest.mark.parametrize("typ,literal", [
        ("i64", "9007199254740993"),
        ("u64", "18446744073709551615"),
    ])
    def test_64_bit_inits_are_exact(self, typ, literal):
        spec = parse_spec(f"var a : {typ}\ninit a = {literal}\nabe a == 0\n")
        assert spec.variables == (("a", TYPES_BY_NAME[typ], int(literal)),)
        assert parse_spec(format_spec(spec)) == spec

    def test_f32_max_literal_parses_without_warnings(self):
        import numpy as np
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = parse_spec("var a : f32\ninit a = 3.4028235e38\nabe a > 0\n")
        assert spec.variables == (("a", F32, float(np.finfo(np.float32).max)),)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_f32_literal_overflow_boundary(self, sign):
        import numpy as np
        # 2**128 - 2**103, the midpoint between float32's largest value and
        # 2**128, is the first literal whose float32 rounding overflows
        with pytest.raises(ParseError, match="does not fit"):
            parse_spec(f"var a : f32\ninit a = {sign}3.4028235677973366e+38\nabe a > 0\n")
        spec = parse_spec(f"var a : f32\ninit a = {sign}3.4028235677973362e+38\nabe a > 0\n")
        flt_max = float(np.finfo(np.float32).max)
        assert spec.variables == (("a", F32, -flt_max if sign else flt_max),)

    def test_comments_and_blank_lines(self):
        spec = parse_spec("""

# leading comment
var a : i32   # trailing comment
init a = -5
abe a + 5 == 0   # distance
""")
        assert spec.variables == (("a", I32, -5),)

    @pytest.mark.parametrize("text,fragment", [
        ("var a :\n", "line 1"),
        ("var a : q17\n", "unknown type"),
        ("var a : i32\nvar a : i32\n", "declared twice"),
        ("init b = 0\n", "undeclared"),
        ("var a : i32\ninit a = 1.5\n", "non-integer"),
        ("var a : u8\ninit a = 300\n", "does not fit"),
        ("var a : i32\ninit a = 1e400\n", "does not fit"),
        ("var a : u64\ninit a = 18446744073709551616\n", "does not fit"),
        ("var a : f32\ninit a = 1e39\n", "does not fit"),
        ("var a : f32\ninit a = -1e39\n", "does not fit"),
        ("var a : i32\ninit a = 0\n", "no abe"),
        ("var a : i32\nabe a == 0\n", "missing init"),
        ("var a : i32\ninit a = 0\nabe b == 0\n", "undeclared"),
        ("var a : i32\ninit a = 0\nabe a == 1\n", "against 0"),
        ("var a : i32\ninit a = 0\nabe a ** 2 == 0\n", ""),
        ("var a : i32\ninit a = 0\nabe sin(a) == 0\n", "unknown function"),
        ("var a : f64\ninit a = 0\nabe min(1e400, a) - 1 > 0\n",
         "line 3: literal 1e400 is out of range"),
        ("frob a\n", "unknown directive"),
        ("var\n", "line 1: expected: var <name> : <type>"),
        ("var \t\n", "line 1: expected: var <name> : <type>"),
        ("var a : i32\ninit\n", "line 2: expected: init <name> = <literal>"),
        ("var a : i32\ninit a = 0\nabe\n", "line 3: unexpected end of line"),
        # the first character that starts no token, before any other error
        ("var a : i32\ninit a = 0\nabe ) a \u2003! b = $ >= 1\n",
         "line 3: unexpected character '!'"),
        # only \r\n, \r and \n end a line: a form feed in a comment leaves it on its line,
        # and every other character str.splitlines breaks at is whitespace in its line
        ("# a\x0cb\nfrob\n", "line 2: unknown directive 'frob'"),
        ("var x : f64\ninit x = 0\nabe x - 1 >= 0 # \x1c\nfrob\n",
         "line 4: unknown directive 'frob'"),
        ("var x : f64 # \x0binit x = 0\nfrob\n", "line 2: unknown directive 'frob'"),
        ("var x : f64\ninit x = 0\nabe x\x85-\u2028 1\u2029>= 0\x1d\x1e\nfrob\n",
         "line 4: unknown directive 'frob'"),
        ("var x : f64\r\ninit x = 0\r\nabe x - 1 >= 0\r\nfrob\r\n",
         "line 4: unknown directive 'frob'"),
        ("var x : f64\rinit x = 0\r\rfrob\n", "line 4: unknown directive 'frob'"),
        # an end-of-file error names the line after the last
        ("", "line 1: no abe"),
        ("var a : i32\ninit a = 0", "line 3: no abe"),
        ("var a : i32\ninit a = 0\n", "line 3: no abe"),
        ("var a : i32\r\ninit a = 0\r\n\r\n", "line 4: no abe"),
        ("var a : i32\ninit a = 0\n\x0c\n", "line 4: no abe"),
        ("var a : i32\n\x85abe a == 0\n", "line 3: missing init"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_spec("var a : i32\ninit a = 0\nabe a $ 0\n")
        assert err.value.line == 3

    def test_crlf_line_ends_parse_as_newlines(self):
        assert parse_spec(EQ_GE_TRACE.replace("\n", "\r\n")) == parse_spec(EQ_GE_TRACE)

    @pytest.mark.parametrize("directive", ["var", "init", "abe"])
    def test_a_tab_ends_a_directive(self, directive):
        text = EQ_GE_TRACE.replace(f"\n{directive} ", f"\n{directive}\t")
        assert text != EQ_GE_TRACE
        assert parse_spec(text) == parse_spec(EQ_GE_TRACE)

    @pytest.mark.parametrize("text,expected", [
        ("abe x\t-\t1 >= 0", BinOp("-", Var("x"), Lit(1.0))),
        ("abe x\xa0-\u20031 >= 0", BinOp("-", Var("x"), Lit(1.0))),
        ("abe x - \u0663 >= 0", BinOp("-", Var("x"), Lit(3.0))),  # ARABIC-INDIC DIGIT THREE
    ])
    def test_unicode_whitespace_and_digits(self, text, expected):
        spec = parse_spec(f"var x : f64\ninit x = 0\n{text}\n")
        assert spec.abes[0][0] == expected


class TestNesting:
    """Nesting depth has no limit, and the verdict does not depend on the caller's stack."""

    @staticmethod
    def _abe(expr):
        return parse_spec(f"var a : i32\ninit a = 0\nabe {expr} == 0\n")

    def test_3000_parentheses(self):
        spec = self._abe("(" * 3000 + "a" + ")" * 3000)
        assert spec.abes[0][0] == (("var", "a"),)
        assert parse_spec(format_spec(spec)) == spec

    def test_3000_nested_calls(self):
        spec = self._abe("abs(" * 3000 + "a" + ")" * 3000)
        assert spec.abes[0][0] == (("var", "a"),) + (("abs", None),) * 3000

    def test_3000_unary_minuses(self):
        spec = self._abe("-" * 3000 + "a")
        assert spec.abes[0][0] == (("var", "a"),) + (("neg", None),) * 3000

    def test_deep_abe_parses_far_down_the_stack(self):
        expr = "(" * 200 + "a - 1" + ")" * 200

        def parse_from_below(frames):
            return self._abe(expr) if frames == 0 else parse_from_below(frames - 1)

        assert parse_from_below(300) == self._abe(expr)


# hand-built programs that compute no single value, or hold a variable or literal of
# the wrong kind
MALFORMED_PROGRAMS = [
    pytest.param((("var", "x"), ("+", None)), "step 2 ('+', None) finds 1 of its 2 operands",
                 id="plus-of-one"),
    pytest.param((("var", "x"), ("min", None)), "step 2 ('min', None) finds 1 of its 2 operands",
                 id="min-of-one"),
    pytest.param((("neg", None),), "step 1 ('neg', None) finds 0 of its 1 operands",
                 id="neg-of-none"),
    pytest.param((), "program leaves 0 values, not one", id="empty"),
    pytest.param((("var", "x"), ("var", "x")), "program leaves 2 values, not one",
                 id="two-values"),
    pytest.param((("lit", "1"),), "literal '1' is not a float", id="text-literal"),
    pytest.param((("lit", True),), "literal True is not a float", id="bool-literal"),
    pytest.param((("var", 3),), "variable 3 is not a name", id="int-variable"),
    pytest.param((("var", "x"), 5), "step 2 5 is not an (op, arg) pair", id="bare-step"),
    pytest.param((("var",),), "step 1 ('var',) is not an (op, arg) pair", id="short-step"),
    pytest.param(((["+"], None),), "step 1 (['+'], None) is not an (op, arg) pair",
                 id="list-op"),
]


class TestRoundTrip:
    def test_basic_document(self):
        spec = parse_spec(EQ_GE_TRACE)
        assert parse_spec(format_spec(spec)) == spec

    def test_formatting_preserves_structure(self):
        text = """
var a : f64
var b : i16
init a = -1.5
init b = 3
abe (a + b) * (a - b) <= 0
abe a - (b - 1) / 2 != 0
abe abs(min(a, b) - max(a, -b)) > 0
"""
        spec = parse_spec(text)
        assert parse_spec(format_spec(spec)) == spec

    def test_1000_term_sum(self):
        text = "var x : f64\ninit x = 0.0\nabe " + " + ".join(["x"] * 1000) + " - 1.0 > 0\n"
        spec = parse_spec(text)
        assert format_spec(spec) == text
        assert parse_spec(format_spec(spec)) == spec

    def test_5000_term_spec_compares_hashes_and_prints(self):
        text = "var x : f64\ninit x = 0.0\nabe " + " + ".join(["x"] * 5000) + " - 1.0 > 0\n"
        spec, again = parse_spec(text), parse_spec(text)
        assert spec == again
        assert hash(spec) == hash(again)
        assert repr(spec).startswith("ProblemSpec(")

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_random_expressions(self, seed):
        import numpy as np
        rng = np.random.default_rng(seed)

        def gen(depth):
            kind = rng.integers(0, 6 if depth < 4 else 2)
            if kind == 0:
                return Lit(float(round(rng.uniform(0, 100), 3)))
            if kind == 1:
                return Var(("a", "b")[rng.integers(0, 2)])
            if kind == 2:
                return Neg(gen(depth + 1))
            if kind == 3:
                op = "+-*/"[rng.integers(0, 4)]
                return BinOp(op, gen(depth + 1), gen(depth + 1))
            if kind == 4:
                return Call("abs", (gen(depth + 1),))
            return Call(("min", "max")[rng.integers(0, 2)],
                        (gen(depth + 1), gen(depth + 1)))

        expr = gen(0)
        spec = ProblemSpec(
            (("a", F64, 0.0), ("b", F64, 0.0)),
            ((expr, Comparator.LT),))
        reparsed = parse_spec(format_spec(spec))
        assert reparsed.abes[0][0] == expr

    @pytest.mark.parametrize("value", [-3.0, -0.0, -5e-324, math.inf, -math.inf, math.nan])
    def test_literal_without_a_spelling_is_refused(self, value):
        # "x - -3.0" would parse back as a negation of 3.0, and "inf" as a variable
        spec = ProblemSpec((("x", F64, 0.0),),
                           (((("var", "x"), ("lit", value), ("-", None)), Comparator.GE),))
        with pytest.raises(ValueError, match="literal"):
            format_spec(spec)

    @pytest.mark.parametrize("value", [0.0, 5e-324, 3.0, 1e300, sys.float_info.max])
    def test_every_other_literal_parses_back(self, value):
        spec = ProblemSpec((("x", F64, 0.0),),
                           (((("var", "x"), ("lit", value), ("-", None)), Comparator.GE),))
        reparsed = parse_spec(format_spec(spec))
        assert reparsed == spec
        assert math.copysign(1.0, reparsed.abes[0][0][1][1]) == 1.0

    @pytest.mark.parametrize("typ, value", [
        (F64, math.inf), (F64, -math.inf), (F64, math.nan), (F32, math.nan),
        (F32, 1e39), (F32, 0.1), (I32, 0.5), (I32, 0.0), (I32, 2**31), (U8, 300), (U8, -1),
        (U8, True), (I32, False),
    ])
    def test_init_its_type_does_not_hold_is_refused(self, typ, value):
        # "init x = inf" would not parse back, nor "init x = 300" for a u8, nor "init x = True"
        spec = ProblemSpec((("w", F64, 0.0), ("x", typ, value)),
                           (((("var", "w"),), Comparator.GE),))
        with pytest.raises(ValueError, match=r"\(variable x\)"):
            format_spec(spec)

    @pytest.mark.parametrize("variables, abes, fragment", [
        ((("x", F64, 0.0), ("x", F64, 0.0)), (((("var", "x"),), Comparator.GE),),
         "variable(s) x declared twice"),
        ((("x", F64, 0.0),), (((("var", "x"),), Comparator.GE), ((("var", "y"),), Comparator.GE)),
         "abe 2 uses undeclared variable(s) y"),
        ((("x", F64, 0.0),), (), "no abes"),
        ((("1x", F64, 0.0),), (((("var", "1x"),), Comparator.GE),), "variable name '1x'"),
        ((("x y", F64, 0.0),), (((("var", "x y"),), Comparator.GE),), "variable name 'x y'"),
        ((("x", F64, 0.0),), (((("var", "x"), ("var", "x"), ("pow", None)), Comparator.GE),),
         "step ('pow', None)"),
    ])
    def test_spec_that_would_not_parse_back_is_refused(self, variables, abes, fragment):
        # parse_spec would reject the text of each, so format_spec refuses it by name
        with pytest.raises(ValueError, match=re.escape(fragment)):
            format_spec(ProblemSpec(variables, abes))

    @pytest.mark.parametrize("program, fragment", MALFORMED_PROGRAMS)
    def test_malformed_program_is_refused(self, program, fragment):
        # each would print text that fails to parse, or parses back to another spec
        spec = ProblemSpec((("x", F64, 0.0),), ((program, Comparator.GE),))
        with pytest.raises(ValueError, match=re.escape(fragment)):
            format_spec(spec)

    def test_numpy_floats_print_as_numbers(self):
        # their repr is np.float64(...), which parse_spec rejects
        import numpy as np
        spec = ProblemSpec((("x", F64, np.float64(1.5)),),
                           (((("var", "x"), ("lit", np.float64(2.0)), ("-", None)),
                             Comparator.GE),))
        text = format_spec(spec)
        assert text == "var x : f64\ninit x = 1.5\nabe x - 2.0 >= 0\n"
        assert parse_spec(text) == spec

    @pytest.mark.parametrize("type_name", sorted(TYPES_BY_NAME))
    def test_edge_inits_parse_back(self, type_name):
        typ = TYPES_BY_NAME[type_name]
        if typ.is_integer:
            values = [0, typ.min_value, typ.max_value]
            values += [2**53 + 1] if typ.bit_width == 64 else []
        else:
            largest = typ.max_value if typ is F32 else sys.float_info.max
            smallest_f32_subnormal = 2.0**-149
            values = [0.0, -0.0, -largest, largest, smallest_f32_subnormal]
            values += [5e-324] if typ is F64 else []
        spec = ProblemSpec(tuple((f"x{i}", typ, v) for i, v in enumerate(values)),
                           (((("var", "x0"),), Comparator.GE),))
        reparsed = parse_spec(format_spec(spec))
        assert reparsed == spec
        # repr tells -0.0 from 0.0 and an int from an equal float
        assert [repr(v) for _, _, v in reparsed.variables] == [repr(v) for v in values]


def _padded_line(count, names, rng):
    """An abe like the costly-calls workload's: ``count`` terms k*x - k*x in a balanced sum."""
    terms = []
    for _ in range(count):
        k, x = rng.randint(2, 9), rng.choice(names)
        terms.append(f"(({k} * {x}) - ({k} * {x}))")
    while len(terms) > 1:
        pairs = [f"({a} + {b})" for a, b in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[len(terms) // 2 * 2:]
    return f"abe ((x0 - x1) + {terms[0]}) >= 0\n"


class TestSharedSteps:
    """A program holds one step object per distinct variable, literal text and operator."""

    def test_one_object_per_distinct_step(self):
        spec = parse_spec("var a : f64\nvar abs : f64\ninit a = 0\ninit abs = 0\n"
                          "abe abs(a) * 2 - -abs / 2.0 + min(a, abs * 2) - 2.0 / a > 0\n")
        program = spec.abes[0][0]
        # a, abs; "2", "2.0"; abs, *, -, neg, /, +, min
        assert len({id(step) for step in program}) == 2 + 2 + 7
        assert len(set(program)) == 2 + 1 + 7  # the literals 2 and 2.0 are equal

    def test_operators_share_one_step_across_lines(self):
        spec = parse_spec("var a : f64\ninit a = 0\nabe a - 1 < 0\nabe 2 - a * a > 0\n")
        first, second = (expr for expr, _ in spec.abes)
        assert first[-1] is second[-1] == ("-", None)

    def test_a_padded_line_holds_one_pointer_per_step(self):
        names = [f"x{i}" for i in range(8)]
        text = "".join(f"var {x} : f64\ninit {x} = 0\n" for x in names)
        text += _padded_line(200, names, random.Random(0))
        parse_spec(text)  # fills re's pattern cache
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            spec = parse_spec(text)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(spec.abes[0][0]) == 1603
        # 1603 pointers take 12.9 kB; a fresh (op, arg) tuple per step
        # would hold about 199 kB
        assert held < 32_000


class TestCompile:
    def test_basic_document(self):
        problem = compile_spec(parse_spec(EQ_GE_TRACE))
        assert problem.size == 2
        assert problem.fns[0].params == ("x1", "x2")
        assert problem.fns[1].params == ("x1",)
        assert is_solution(problem, vv(x1=10, x2=10))

    def test_disjoint_prefix_reduces(self):
        problem = compile_spec(parse_spec(SPLITTABLE_TRACE))
        reduction = reduce_problem(problem)
        assert reduction.problem.size == 1
        assert reduction.problem.init.signature.names == ("x3",)
        solution = Valuation.of([("x3", F64, 10.0)])
        assert is_solution(problem, reduction.extend(solution))

    def test_already_true_rejected_with_index(self):
        with pytest.raises(CompileError) as err:
            compile_spec(parse_spec("""
var a : f64
init a = 5
abe a >= 0
"""))
        assert "abe 1" in str(err.value)

    def test_diverging_prefix_rejected_with_index(self):
        with pytest.raises(CompileError) as err:
            compile_spec(parse_spec("""
var a : f64
init a = 5
abe a < 0
abe a - 9 >= 0
"""))
        assert "abe 1" in str(err.value)

    def test_failed_call_at_init_rejected(self):
        with pytest.raises(CompileError):
            compile_spec(parse_spec("""
var a : f64
init a = 0
abe 1 / a > 0
abe a - 1 >= 0
"""))

    def test_constant_last_abe_rejected(self):
        with pytest.raises(CompileError) as err:
            compile_spec(parse_spec("""
var a : f64
init a = 0
abe 1 - 2 >= 0
"""))
        assert "no variables" in str(err.value)


class TestCompileHandBuiltSpecs:
    """A spec built without ``parse_spec`` skips its checks; compiling still names the fault."""

    X = (("x", F64, 0.0),)
    TARGET = ((("var", "x"), ("lit", 5.0), ("-", None)), Comparator.GE)

    @staticmethod
    def compile_error(spec: ProblemSpec) -> str:
        with pytest.raises(CompileError) as err:
            compile_spec(spec)
        return str(err.value)

    def test_abe_naming_an_undeclared_variable(self):
        uses_y = ((("var", "x"), ("var", "y"), ("+", None)), Comparator.GE)
        message = self.compile_error(ProblemSpec(self.X, (uses_y, self.TARGET)))
        assert "abe 1" in message and "'y'" in message

    def test_target_naming_only_undeclared_variables(self):
        prefix = ((("var", "x"),), Comparator.LE)
        only_y = ((("var", "y"), ("lit", 1.0), ("-", None)), Comparator.GE)
        message = self.compile_error(ProblemSpec(self.X, (prefix, only_y)))
        assert "abe 2" in message and "'y'" in message and "no variables" not in message

    def test_variable_declared_twice(self):
        message = self.compile_error(ProblemSpec(self.X * 2, (self.TARGET,)))
        assert "declared twice" in message and "variable(s) x " in message

    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("program, fragment", MALFORMED_PROGRAMS)
    def test_malformed_program(self, program, fragment, at):
        abes = [self.TARGET, self.TARGET]
        abes[at] = (program, Comparator.LE)
        message = self.compile_error(ProblemSpec(self.X, tuple(abes)))
        assert message.startswith(f"abe {at + 1}: ") and fragment in message

    @pytest.mark.parametrize("typ, value", [(F64, 0), (I32, 0.5), (I32, 2**31), (F64, math.inf)])
    def test_init_value_of_the_wrong_type(self, typ, value):
        message = self.compile_error(ProblemSpec((("x", typ, value),), (self.TARGET,)))
        assert "variable x" in message


class TestPrefix:
    def test_prefix_flips_new_target(self):
        spec = parse_spec(EQ_GE_TRACE)
        shortened = prefix_spec(spec, 1)
        assert shortened.abes[0][1] is Comparator.NEQ  # flipped EQ
        problem = compile_spec(shortened)  # x1 != x2 must fail at (0,0)
        assert problem.size == 1

    def test_full_prefix_unchanged(self):
        spec = parse_spec(EQ_GE_TRACE)
        assert prefix_spec(spec, 2) == spec

    def test_out_of_range(self):
        spec = parse_spec(EQ_GE_TRACE)
        with pytest.raises(ValueError):
            prefix_spec(spec, 0)
        with pytest.raises(ValueError):
            prefix_spec(spec, 3)


# --- the recursive-descent parser that preceded the operator-precedence loop --

_ORACLE_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>==|!=|<=|>=|[-+*/(),<>])"
)

_ORACLE_FUNCTIONS = {"abs": 1, "min": 2, "max": 2, "f64": 1}

_ORACLE_COMPARATORS = {"==", "!=", "<", "<=", ">", ">="}


def _scan(text, line):
    """The (kind, text) tokens of ``text``, matched one at a time between spaces."""
    items = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(line, f"unexpected character {text[pos]!r}")
        items.append((m.lastgroup, m.group()))
        pos = m.end()
    return items


class _Tokens:
    def __init__(self, items, line):
        self.line = line
        self.items = items
        self.index = 0

    def peek(self):
        return self.items[self.index] if self.index < len(self.items) else None

    def next(self):
        item = self.peek()
        if item is None:
            raise ParseError(self.line, "unexpected end of line")
        self.index += 1
        return item

    def expect_op(self, op):
        kind, text = self.next()
        if kind != "op" or text != op:
            raise ParseError(self.line, f"expected {op!r}, found {text!r}")

    def at_end(self):
        return self.index >= len(self.items)


def _parse_expr(toks, out):
    _parse_term(toks, out)
    while (item := toks.peek()) and item[0] == "op" and item[1] in "+-":
        toks.next()
        _parse_term(toks, out)
        out.append((item[1], None))


def _parse_term(toks, out):
    _parse_unary(toks, out)
    while (item := toks.peek()) and item[0] == "op" and item[1] in "*/":
        toks.next()
        _parse_unary(toks, out)
        out.append((item[1], None))


def _parse_unary(toks, out):
    item = toks.peek()
    if item and item == ("op", "-"):
        toks.next()
        _parse_unary(toks, out)
        out.append(("neg", None))
    else:
        _parse_atom(toks, out)


def _parse_atom(toks, out):
    kind, text = toks.next()
    if kind == "num":
        value = float(text)
        if not math.isfinite(value):
            raise ParseError(toks.line, f"literal {text} is out of range")
        out.append(("lit", value))
    elif kind == "name":
        if toks.peek() != ("op", "("):
            out.append(("var", text))
            return
        if text not in _ORACLE_FUNCTIONS:
            raise ParseError(toks.line, f"unknown function {text!r}")
        toks.next()
        _parse_expr(toks, out)
        n_args = 1
        while toks.peek() == ("op", ","):
            toks.next()
            _parse_expr(toks, out)
            n_args += 1
        toks.expect_op(")")
        if n_args != _ORACLE_FUNCTIONS[text]:
            raise ParseError(
                toks.line,
                f"{text} takes {_ORACLE_FUNCTIONS[text]} argument(s), got {n_args}")
        out.append((text, None))
    elif kind == "op" and text == "(":
        _parse_expr(toks, out)
        toks.expect_op(")")
    else:
        raise ParseError(toks.line, f"unexpected token {text!r}")


def _recursive_descent(scan):
    """A recursive-descent ``_parse_abe_line`` over the tokens ``scan`` gives."""

    def parse_abe_line(rest, lineno):
        toks = _Tokens(scan(rest, lineno), lineno)
        steps = []
        try:
            _parse_expr(toks, steps)
        except RecursionError:
            raise ParseError(lineno, "expression nested too deeply") from None
        kind, text = toks.next()
        if kind != "op" or text not in _ORACLE_COMPARATORS:
            raise ParseError(lineno, f"expected a comparator, found {text!r}")
        comp = Comparator.from_symbol(text)
        zero_kind, zero_text = toks.next()
        if zero_kind != "num" or float(zero_text) != 0.0:
            raise ParseError(lineno, "abe lines must compare against 0")
        if not toks.at_end():
            raise ParseError(lineno, "trailing tokens after abe")
        return tuple(steps), comp

    return parse_abe_line


# --- the finditer tokenizer that preceded the one findall scan ---------------

_FINDITER_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>==|!=|<=|>=|[-+*/(),<>])"
    r"|(?P<bad>\S)"
)


def _tokenize(text, line):
    """The (kind, text) tokens of ``text``; finditer skips only whitespace."""
    tokens = []
    for m in _FINDITER_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(line, f"unexpected character {m.group()!r}")
        tokens.append((kind, m.group()))
    return tokens


def _outcome(text):
    """The spec ``text`` parses to, or its error's message and line."""
    try:
        return parse_spec(text)
    except ParseError as exc:
        return str(exc), exc.line


def _oracle_outcomes(text):
    """The outcomes under recursive descent, over each oracle's tokens."""
    outcomes = []
    for scan in (_scan, _tokenize):
        with mock.patch.object(probelang, "_parse_abe_line", _recursive_descent(scan)):
            outcomes.append(_outcome(text))
    return outcomes


def assert_parsers_agree(text):
    expected = _oracle_outcomes(text)
    assert expected[0] == expected[1]
    if isinstance(expected[0], tuple) and "nested too deeply" in expected[0][0]:
        return
    assert _outcome(text) == expected[0]


_SOUP_TOKENS = (
    "a", "b", "abs", "min", "max", "f64", "sin", "0", "1", "2.5", ".5", "1e400", "0.0",
    "(", "(", ")", ")", ",", "+", "-", "-", "*", "/",
    "==", "!=", "<", "<=", ">", ">=", "$", ".",
    "\t", "\xa0", "\u2003", "\u0663", "!", "=",
)

#: Whitespace, ASCII or not, that ``str.split`` and ``re``'s ``\s`` both skip.
_SEPARATORS = (" ", "", "\t", "\xa0", "\u2003")

_ATOM_TOKENS = ("a", "b", "0", "1", "2.5", ".5", "1e400")


def _call(fn_args):
    fn, args = fn_args
    tokens = ([fn] if fn else []) + ["("]
    for k, arg in enumerate(args):
        tokens += ([","] if k else []) + arg
    return tokens + [")"]


_WELL_FORMED = st.recursive(
    st.sampled_from(_ATOM_TOKENS).map(lambda t: [t]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: t[0] + [t[1]] + t[2]),
        inner.map(lambda e: ["-"] + e),
        inner.map(lambda e: ["("] + e + [")"]),
        st.tuples(st.sampled_from(("abs", "min", "max", "f64", "sin", "")),
                  st.lists(inner, max_size=3)).map(_call),
    ),
    max_leaves=12,
)


def _with_tail(expr_and_tail):
    expr, comp, zero = expr_and_tail
    return expr + [comp, zero]


def _spliced(tokens_index_token):
    tokens, index, token, drop = tokens_index_token
    index %= len(tokens) + 1
    return tokens[:index] + ([] if drop else [token]) + tokens[index + drop:]


_ABE_TOKENS = st.tuples(
    _WELL_FORMED, st.sampled_from(("==", "<", ">=", "!=")),
    st.sampled_from(("0", "0.0", "1", "\u0660")),
).map(_with_tail)

_SOUP = st.one_of(
    st.lists(st.sampled_from(_SOUP_TOKENS), max_size=30),
    _ABE_TOKENS,
    st.tuples(_ABE_TOKENS, st.integers(0, 60), st.sampled_from(_SOUP_TOKENS),
              st.integers(0, 1)).map(_spliced),
)


class TestParserAgainstRecursiveDescent:
    """The operator-precedence loop against the recursive-descent parser it replaced.

    The parser runs over two oracle tokenizers: its own scan, and the
    finditer tokenizer that the one findall scan replaced.
    """

    def test_bundled_files(self):
        paths = sorted(cli.bundled_suite_dir().glob("*.prob"))
        assert len(paths) == 40
        for path in paths:
            text = path.read_text()
            assert all(isinstance(o, ProblemSpec) for o in _oracle_outcomes(text))
            assert_parsers_agree(text)

    @given(st.lists(st.tuples(_SOUP, st.sampled_from(_SEPARATORS)), min_size=1, max_size=2))
    @settings(max_examples=2000, derandomize=True, deadline=None)
    def test_token_soup(self, lines):
        text = "var a : f64\nvar b : i32\ninit a = 0\ninit b = 0\n" + "".join(
            "abe " + sep.join(tokens) + "\n" for tokens, sep in lines)
        assert_parsers_agree(text)
