import math
from fractions import Fraction

import numpy as np
import pytest

from covsolve.problem import (
    BlackBoxFn,
    CoverageProblem,
    InvalidProblemError,
    Outcome,
    TraceAbe,
    dependency_closure,
    eval_prefix,
    from_trace,
    is_solution,
    reduce_problem,
)
from covsolve.vecspace import F64, U8, Comparator, Valuation


def fn(params, func, name=""):
    return BlackBoxFn(tuple(params), lambda v, _f=func: _f(v), name=name)


def eq_ge_pair(init=(0.0, 0.0)):
    """Trace (x1 = x2, x1 >= 10) over 64-bit floats."""
    fns = (
        fn(("x1", "x2"), lambda v: v["x1"] - v["x2"], "f1"),
        fn(("x1",), lambda v: v["x1"] - 10.0, "f2"),
    )
    comps = (Comparator.EQ, Comparator.GE)
    valuation = Valuation.of([("x1", F64, init[0]), ("x2", F64, init[1])])
    return fns, comps, valuation


def val(x1, x2):
    return Valuation.of([("x1", F64, float(x1)), ("x2", F64, float(x2))])


def attempted(record):
    """Calls ``eval_prefix`` made: up to the diverging one, else all of them."""
    return record.diverged_at or len(record.values)


class TestEvalPrefix:
    def test_diverges_on_false_prefix_predicate(self):
        fns, comps, _ = eq_ge_pair()
        record = eval_prefix(fns, comps, val(0, 1))
        assert record.outcome is Outcome.DIVERGED
        assert record.diverged_at == 1
        assert record.values == (-1.0,)
        assert attempted(record) == 1

    def test_full_true(self):
        fns, comps, _ = eq_ge_pair()
        record = eval_prefix(fns, comps, val(10, 10))
        assert record.outcome is Outcome.FULL_TRUE
        assert record.values == (0.0, 0.0)

    def test_last_false(self):
        fns, comps, _ = eq_ge_pair()
        record = eval_prefix(fns, comps, val(0, 0))
        assert record.outcome is Outcome.LAST_FALSE
        assert record.values == (0.0, -10.0)

    def test_no_call_after_divergence(self):
        calls = []

        def recording(name, func):
            def wrapped(v):
                calls.append(name)
                return func(v)
            return fn(("x1",), wrapped, name)

        fns = (recording("a", lambda v: 1.0),  # GT holds
               recording("b", lambda v: 1.0),  # LT fails -> diverge
               recording("c", lambda v: 0.0))
        comps = (Comparator.GT, Comparator.LT, Comparator.EQ)
        record = eval_prefix(fns, comps, Valuation.of([("x1", F64, 0.0)]))
        assert record.outcome is Outcome.DIVERGED
        assert record.diverged_at == 2
        assert calls == ["a", "b"]
        assert attempted(record) == len(calls)

    def test_call_count_equals_reached(self):
        fns, comps, _ = eq_ge_pair()
        counter = {"n": 0}

        def counted(f):
            def wrapped(v, _f=f.eval):
                counter["n"] += 1
                return _f(v)
            return BlackBoxFn(f.params, wrapped, f.name)

        record = eval_prefix(tuple(counted(f) for f in fns), comps, val(0, 0))
        assert counter["n"] == attempted(record) == 2

    def test_failed_call_diverges(self):
        fns = (fn(("x1",), lambda v: None, "fail"),
               fn(("x1",), lambda v: 0.0))
        comps = (Comparator.EQ, Comparator.EQ)
        record = eval_prefix(fns, comps, Valuation.of([("x1", F64, 0.0)]))
        assert record.outcome is Outcome.DIVERGED
        assert record.diverged_at == 1
        assert attempted(record) == 1
        assert record.values == ()  # the attempted call produced no value

    def test_failed_last_call_diverges(self):
        fns = (fn(("x1",), lambda v: 1.0),
               fn(("x1",), lambda v: None, "fail"))
        comps = (Comparator.GT, Comparator.EQ)
        record = eval_prefix(fns, comps, Valuation.of([("x1", F64, 0.0)]))
        assert record.outcome is Outcome.DIVERGED
        assert record.diverged_at == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_results_count_as_failures(self, bad):
        fns = (fn(("x1",), lambda v: bad),)
        record = eval_prefix(fns, (Comparator.EQ,), Valuation.of([("x1", F64, 0.0)]))
        assert record.outcome is Outcome.DIVERGED

    def test_size_mismatch(self):
        fns, comps, init = eq_ge_pair()
        with pytest.raises(InvalidProblemError):
            eval_prefix(fns, comps[:1], init)


class TestCallResultType:
    """``BlackBoxFn.call`` takes real numbers and rejects everything else by name."""

    AT = Valuation.of([("x1", F64, 2.0)])

    @pytest.mark.parametrize("result, expected", [
        (1.5, 1.5),
        (-3, -3.0),
        (2**70, float(2**70)),
        (np.float32(0.25), 0.25),
        (np.float64(-7.5), -7.5),
        (np.int64(-4), -4.0),
        (np.uint64(2**63), float(2**63)),
        (Fraction(3, 4), 0.75),
    ])
    def test_real_numbers_are_floats(self, result, expected):
        value = fn(("x1",), lambda v: result).call(self.AT)
        assert type(value) is float and value == expected

    @pytest.mark.parametrize("result", [
        True, False, np.bool_(True), "1.0", b"1", np.array(1.0), np.array([1.0]),
        np.zeros(3), 1 + 0j, np.complex128(1.0), [1.0],
    ], ids=lambda r: type(r).__name__)
    def test_other_results_raise_naming_the_function(self, result):
        with pytest.raises(TypeError, match=r"^distance f7 returned .*not a real number"):
            fn(("x1",), lambda v: result, "distance f7").call(self.AT)

    def test_unnamed_function_is_named_by_its_callable(self):
        def gap(v):
            return "far"

        with pytest.raises(TypeError, match="gap returned str 'far'"):
            BlackBoxFn(("x1",), gap).call(self.AT)

    def test_failures_stay_none(self):
        for result in (None, math.nan, -math.inf, np.float32("inf"), 10**400):
            assert fn(("x1",), lambda v: result).call(self.AT) is None


class TestValidate:
    """Construction of a CoverageProblem is the one validity check."""

    def test_valid_at_origin(self):
        fns, comps, init = eq_ge_pair()
        assert CoverageProblem(fns, comps, init).init == init

    def test_solution_is_not_valid_start(self):
        fns, comps, _ = eq_ge_pair()
        with pytest.raises(InvalidProblemError, match="f2 already holds"):
            CoverageProblem(fns, comps, val(10, 10))

    def test_diverging_prefix_is_invalid(self):
        fns, comps, _ = eq_ge_pair()
        with pytest.raises(InvalidProblemError, match="f1 fails"):
            CoverageProblem(fns, comps, val(0, 1))

    def test_last_fn_needs_params(self):
        fns = (fn((), lambda v: 1.0),)
        with pytest.raises(InvalidProblemError, match="function 1 .* uses no variables"):
            CoverageProblem(fns, (Comparator.LT,), Valuation.of([("x1", F64, 0.0)]))

    def test_size_mismatch_raises(self):
        fns, comps, init = eq_ge_pair()
        with pytest.raises(InvalidProblemError):
            CoverageProblem(fns, comps[:1], init)
        with pytest.raises(InvalidProblemError):
            CoverageProblem((), comps, init)


class TestCoverageProblem:
    def test_construction_checks_validity(self):
        fns, comps, init = eq_ge_pair()
        CoverageProblem(fns, comps, init)  # fine
        with pytest.raises(InvalidProblemError):
            CoverageProblem(fns, comps, val(10, 10))

    def test_undeclared_params_rejected(self):
        fns, comps, _ = eq_ge_pair()
        init = Valuation.of([("x1", F64, 0.0)])
        with pytest.raises(InvalidProblemError):
            CoverageProblem(fns, comps, init)

    def test_is_solution(self):
        fns, comps, init = eq_ge_pair()
        problem = CoverageProblem(fns, comps, init)
        assert is_solution(problem, val(10, 10))
        assert not is_solution(problem, init)
        assert not is_solution(problem, val(5, 5))


class TestInitValues:
    """The prefix values construction obtains at ``init``, where ``solve`` starts."""

    def test_equal_the_prefix_values_at_init(self):
        fns, comps, init = eq_ge_pair(init=(3.0, 3.0))
        problem = CoverageProblem(fns, comps, init)
        assert problem.init_values == eval_prefix(fns, comps, init).values
        assert problem.init_values == (0.0, -7.0)

    def test_reduced_problem_keeps_the_kept_functions_values(self):
        fns = (fn(("x1", "x2"), lambda v: v["x1"] - v["x2"] - 4.0, "f1"),
               fn(("x3",), lambda v: v["x3"] + 1.0, "f2"),
               fn(("x3",), lambda v: v["x3"] - 10.0, "f3"))
        init = Valuation.of([("x1", F64, 0.0), ("x2", F64, 0.0), ("x3", F64, 0.0)])
        problem = CoverageProblem(fns, (Comparator.LE, Comparator.GT, Comparator.GE), init)
        reduced = reduce_problem(problem).problem
        assert [f.name for f in reduced.fns] == ["f2", "f3"]
        assert problem.init_values == (-4.0, 1.0, -10.0)
        assert reduced.init_values == problem.init_values[1:]

    def test_neither_compared_nor_shown(self):
        # an impure box: each construction sees a different value at init
        calls = []
        box = fn(("x1",), lambda v: calls.append(v) or -float(len(calls)), "f1")
        init = Valuation.of([("x1", F64, 0.0)])
        first = CoverageProblem((box,), (Comparator.GE,), init)
        second = CoverageProblem((box,), (Comparator.GE,), init)
        assert (first.init_values, second.init_values) == ((-1.0,), (-2.0,))
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second)
        assert "init_values" not in repr(first)


class TestTrace:
    def test_true_false_outcomes_keep_comparators(self):
        # first ABE evaluated true, last evaluated false: comparators kept
        fns, comps, init = eq_ge_pair()
        trace = (TraceAbe(fns[0], Comparator.EQ, True),
                 TraceAbe(fns[1], Comparator.GE, False))
        problem = from_trace(trace, init)
        assert problem.comps == comps

    def test_flips(self):
        # prefix ABE evaluated false and last evaluated true both flip
        f1 = fn(("x1",), lambda v: v["x1"])          # 5 > 0: LT is false
        f2 = fn(("x1",), lambda v: v["x1"] - 5.0)    # 0 == 0 is true
        init = Valuation.of([("x1", F64, 5.0)])
        trace = (TraceAbe(f1, Comparator.LT, False),
                 TraceAbe(f2, Comparator.EQ, True))
        problem = from_trace(trace, init)
        assert problem.comps == (Comparator.GE, Comparator.NEQ)

    def test_empty_trace(self):
        with pytest.raises(InvalidProblemError):
            from_trace((), Valuation.of([("x1", F64, 0.0)]))


class TestDependencyClosure:
    def test_shared_variables(self):
        fns, comps, init = eq_ge_pair()
        problem = CoverageProblem(fns, comps, init)
        assert dependency_closure(problem) == {"x1", "x2"}

    def test_disjoint_prefix(self):
        fns = (fn(("x1", "x2"), lambda v: v["x1"] - v["x2"]),
               fn(("x3",), lambda v: v["x3"] - 10.0))
        init = Valuation.of([("x1", F64, 0.0), ("x2", F64, 0.0), ("x3", F64, 0.0)])
        problem = CoverageProblem(fns, (Comparator.EQ, Comparator.GE), init)
        assert dependency_closure(problem) == {"x3"}

    def test_single_abe(self):
        fns = (fn(("x1",), lambda v: v["x1"] - 10.0),)
        init = Valuation.of([("x1", F64, 0.0), ("x2", F64, 7.0)])
        problem = CoverageProblem(fns, (Comparator.GE,), init)
        assert dependency_closure(problem) == {"x1"}

    def test_transitive_growth(self):
        fns = (fn(("x1", "x2"), lambda v: v["x1"] - v["x2"]),
               fn(("x2", "x3"), lambda v: v["x2"] - v["x3"]),
               fn(("x3",), lambda v: v["x3"] - 10.0))
        init = Valuation.of([("x1", F64, 0.0), ("x2", F64, 0.0), ("x3", F64, 0.0)])
        problem = CoverageProblem(
            fns, (Comparator.EQ, Comparator.EQ, Comparator.GE), init)
        assert dependency_closure(problem) == {"x1", "x2", "x3"}


class TestReduce:
    def _splittable_pair(self):
        fns = (fn(("x1", "x2"), lambda v: v["x1"] - v["x2"], "f1"),
               fn(("x3",), lambda v: v["x3"] - 10.0, "f2"))
        init = Valuation.of([("x1", F64, 0.0), ("x2", F64, 0.0), ("x3", F64, 0.0)])
        return CoverageProblem(fns, (Comparator.EQ, Comparator.GE), init)

    def test_splittable_pair(self):
        reduction = reduce_problem(self._splittable_pair())
        reduced = reduction.problem
        assert reduced.size == 1
        assert reduced.fns[0].name == "f2"
        assert reduced.comps == (Comparator.GE,)
        assert reduced.init.signature.names == ("x3",)
        assert reduced.init.values == (0.0,)
        assert {n for n, _, _ in reduction.dropped} == {"x1", "x2"}

    def test_extension_solves_original(self):
        problem = self._splittable_pair()
        reduction = reduce_problem(problem)
        solution = Valuation.of([("x3", F64, 10.0)])
        assert is_solution(reduction.problem, solution)
        extended = reduction.extend(solution)
        assert extended.signature.names == ("x1", "x2", "x3")
        assert extended.values == (0.0, 0.0, 10.0)
        assert is_solution(problem, extended)

    def test_already_reduced_unchanged(self):
        fns, comps, init = eq_ge_pair()
        problem = CoverageProblem(fns, comps, init)
        reduction = reduce_problem(problem)
        assert reduction.problem is problem
        assert reduction.dropped == ()
        assert reduction.extend(val(10, 10)) == val(10, 10)

    def test_idempotent(self):
        once = reduce_problem(self._splittable_pair())
        twice = reduce_problem(once.problem)
        assert twice.problem is once.problem
        assert twice.dropped == ()

    def test_empty_param_prefix_fn_dropped(self):
        fns = (fn((), lambda v: 1.0, "const"),
               fn(("x1",), lambda v: v["x1"] - 10.0))
        init = Valuation.of([("x1", F64, 0.0)])
        problem = CoverageProblem(fns, (Comparator.GT, Comparator.GE), init)
        reduction = reduce_problem(problem)
        assert reduction.problem.size == 1

    def test_unused_variable_dropped(self):
        fns = (fn(("x1",), lambda v: v["x1"] - 10.0),)
        init = Valuation.of([("x1", F64, 0.0), ("spare", U8, 3)])
        problem = CoverageProblem(fns, (Comparator.GE,), init)
        reduction = reduce_problem(problem)
        assert reduction.problem.signature.names == ("x1",)
        extended = reduction.extend(Valuation.of([("x1", F64, 10.0)]))
        assert extended["spare"] == 3
