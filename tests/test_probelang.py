import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from covsolve.vecspace import F64, I32, Comparator, Valuation

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


class TestParsing:
    def test_basic_document(self):
        spec = parse_spec(EQ_GE_TRACE)
        assert [n for n, _ in spec.variables] == ["x1", "x2"]
        assert spec.inits == (("x1", 0.0), ("x2", 0.0))
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
        assert spec.inits == (("a", float(np.float32(0.1))),)

    @pytest.mark.parametrize("typ,literal", [
        ("i64", "9007199254740993"),
        ("u64", "18446744073709551615"),
    ])
    def test_64_bit_inits_are_exact(self, typ, literal):
        spec = parse_spec(f"var a : {typ}\ninit a = {literal}\nabe a == 0\n")
        assert spec.inits == (("a", int(literal)),)
        assert parse_spec(format_spec(spec)) == spec

    def test_f32_max_literal_parses_without_warnings(self):
        import numpy as np
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = parse_spec("var a : f32\ninit a = 3.4028235e38\nabe a > 0\n")
        assert spec.inits == (("a", float(np.finfo(np.float32).max)),)

    def test_comments_and_blank_lines(self):
        spec = parse_spec("""

# leading comment
var a : i32   # trailing comment
init a = -5
abe a + 5 == 0   # distance
""")
        assert spec.inits == (("a", -5),)

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
        pytest.param(
            "var a : i32\ninit a = 0\nabe " + "(" * 3000 + "a" + ")" * 3000 + " == 0\n",
            "line 3: expression nested too deeply", id="3000-parentheses"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_spec("var a : i32\ninit a = 0\nabe a $ 0\n")
        assert err.value.line == 3


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
            (("a", F64), ("b", F64)),
            (("a", 0.0), ("b", 0.0)),
            ((expr, Comparator.LT),))
        reparsed = parse_spec(format_spec(spec))
        assert reparsed.abes[0][0] == expr


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
