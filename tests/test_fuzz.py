"""Fuzz of the text front end, the CLI flags and library black boxes.

Any input ends in a defined outcome.
"""

import contextlib
import io
import math
import random
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covsolve import cli
from covsolve.probelang import ParseError, format_spec, parse_spec
from covsolve.problem import BlackBoxFn, CoverageProblem, is_solution
from covsolve.solver import SolverConfig, SolverResult, Status, solve
from covsolve.vecspace import F32, F64, I32, I64, TYPES_BY_NAME, U8, Comparator, Valuation

_TYPES = st.sampled_from(sorted(TYPES_BY_NAME))
# mostly literals every type takes, sometimes ones that some types reject
_LITERALS = st.one_of(
    st.sampled_from(["0", "1", "3", "0.5"]),
    st.sampled_from(["-1", "-7", "255", "2.5e3", "1e39", "1e400",
                     "9007199254740993", "18446744073709551615"]))
_COMPARATORS = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])
_CONSTANTS = st.sampled_from(["0", "1", "2.5", "10", "0.1", "1e400"])


def _expressions(names):
    return st.recursive(
        st.one_of(st.sampled_from(names), _CONSTANTS),
        lambda sub: st.one_of(
            st.builds("{} {} {}".format, sub, st.sampled_from("+-*/"), sub),
            st.builds("-{}".format, sub),
            st.builds("({})".format, sub),
            st.builds("{}({})".format, st.sampled_from(["abs", "f64"]), sub),
            st.builds("{}({}, {})".format, st.sampled_from(["min", "max"]), sub, sub),
        ),
        max_leaves=6)


_TOKEN_SOUP = st.lists(st.sampled_from([
    "var", "init", "abe", "x", "y", ":", "=", "f32", "u8", "0", "1e400", "+", "-",
    "*", "/", "(", ")", ",", "abs", "min", "sin", "==", "<", ">=", "#"]),
    max_size=8).map(" ".join)


@st.composite
def documents(draw):
    """A well-formed document, then arbitrary lines spliced in."""
    names = draw(st.lists(st.sampled_from(["x", "y", "z"]),
                          min_size=1, max_size=3, unique=True))
    exprs = _expressions(names)
    lines = [f"var {name} : {draw(_TYPES)}" for name in names]
    lines += [f"init {name} = {draw(_LITERALS)}" for name in names]
    lines += [f"abe {draw(exprs)} {draw(_COMPARATORS)} 0"
              for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        noise = draw(st.one_of(_TOKEN_SOUP, st.text(max_size=20)))
        lines.insert(draw(st.integers(0, len(lines))), noise)
    return "\n".join(lines)


DOCUMENTS = documents()


def _run_cli(argv):
    """cli.main's exit code and stderr text, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@given(DOCUMENTS)
@settings(max_examples=200, deadline=None)
def test_parse_spec_returns_a_round_tripping_spec_or_raises_parse_error(text):
    try:
        spec = parse_spec(text)
    except ParseError:
        return
    assert parse_spec(format_spec(spec)) == spec


@given(DOCUMENTS)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_solve_exits_0_1_or_2_without_a_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.prob"
        path.write_text(text, encoding="utf-8")
        code, err = _run_cli(["solve", str(path), "--max-evals", "500"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# both bundled problems have two abes
_FLAG_PROBLEMS = ("affine_mix.prob", "chain_d2_n2.prob")
_NEAR = st.integers(-1, 3)  # each side of the lower bounds, zero included
_WIDE = st.integers(-2**70, 2**70)


@st.composite
def flag_values(draw):
    """(seed, max_iterations, max_evals, prefix); evals capped when iterations are many."""
    seed = draw(st.one_of(_NEAR, _WIDE, st.integers(2**64, 2**70)))
    iterations = draw(st.one_of(_NEAR, _WIDE, st.integers(4, 1000)))
    evals = draw(st.one_of(_NEAR, _WIDE, st.integers(4, 1000)))
    prefix = draw(st.one_of(st.integers(1, 2), _NEAR, _WIDE))
    if iterations > 10:
        evals = min(evals, 500)
    return seed, iterations, evals, prefix


@given(flag_values(), st.booleans())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_flag_values_end_in_exit_0_1_or_2(flags, bench):
    seed, iterations, evals, prefix = flags
    argv = [f"--seed={seed}", f"--max-iterations={iterations}", f"--max-evals={evals}"]
    invalid = seed < 0 or iterations < 1 or evals < 1
    suite = cli.bundled_suite_dir()
    with tempfile.TemporaryDirectory() as tmp:
        for name in _FLAG_PROBLEMS if bench else _FLAG_PROBLEMS[:1]:
            (Path(tmp) / name).write_text(
                suite.joinpath(name).read_text(encoding="utf-8"), encoding="utf-8")
        if bench:
            code, err = _run_cli(["bench", tmp, *argv])
        else:
            invalid = invalid or not 1 <= prefix <= 2
            path = Path(tmp) / _FLAG_PROBLEMS[0]
            code, err = _run_cli(["solve", str(path), f"--prefix={prefix}", *argv])
    assert "Traceback" not in err
    if invalid:
        assert code == 2
        assert err.startswith("error: ")
    else:
        assert code in (0, 1)


class BlackBoxBug(Exception):
    """An exception a black box raises that marks no failed call."""


def _raise(exc):
    raise exc


# what a misbehaving black box returns or raises instead of its distance
_FAILED_CALLS = {
    "none": lambda: None,
    "nan": lambda: math.nan,
    "inf": lambda: math.inf,
    "-inf": lambda: -math.inf,
    "int-past-float": lambda: 10**400,
    "zero-division": lambda: _raise(ZeroDivisionError("division by zero")),
    "value-error": lambda: _raise(ValueError("math domain error")),
}
_WRONG_TYPES = {
    "str": lambda: "1.0",
    "bool": lambda: True,
    "array": lambda: np.array([1.0]),
}
_MISBEHAVIOURS = {
    **_FAILED_CALLS,
    **_WRONG_TYPES,
    "big-int": lambda: 2**70,  # a real number: a valid, if large, result
    "bug": lambda: _raise(BlackBoxBug()),
}


def _black_box(init, coefs, shift, trigger, bad, k):
    """An affine distance that misbehaves as ``trigger`` says, with ``bad``.

    ``pure`` misbehaves at a fixed set of values of its ``params`` other
    than ``init``'s, and so keeps both ``BlackBoxFn`` contracts;
    ``unlisted`` misbehaves at a fixed set of whole valuations other than
    ``init``, and so reads variables it does not list; ``after`` misbehaves
    on every call after the k-th; ``noise`` adds a different random offset
    to every call after the first.  The first call, which the problem's
    construction makes at ``init``, is always clean.
    """
    calls = 0
    offsets = random.Random(k)
    at_init = tuple(init[name] for name in coefs)

    def evaluate(v):
        nonlocal calls
        calls += 1
        value = sum(c * float(v[name]) for name, c in coefs.items()) - shift
        if trigger == "noise" and calls > 1:
            return value + offsets.uniform(-k, k)
        read, start = ((tuple(v[name] for name in coefs), at_init) if trigger == "pure"
                       else (v.values, init.values))
        if ((trigger == "after" and calls > k)
                or (trigger in ("pure", "unlisted") and read != start
                    and hash(read) % k == 0)):
            return _MISBEHAVIOURS[bad]()
        return value

    return evaluate


@st.composite
def misbehaving_problems(draw):
    """(problem, triggers and misbehaviours per function, pure)."""
    types = draw(st.lists(st.sampled_from([F64, F32, I32, U8, I64]), min_size=1, max_size=3))
    values = [draw(st.integers(0, 20)) for _ in types]
    init = Valuation.of([(f"x{i}", typ, v if typ.is_integer else float(v))
                         for i, (typ, v) in enumerate(zip(types, values))])
    names = init.signature.names
    n = draw(st.integers(1, 3))
    fns, comps, kinds = [], [], []
    for i in range(n):
        params = sorted(draw(st.sets(st.sampled_from(names), min_size=1)))
        coefs = {name: draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0])) for name in params}
        margin = draw(st.sampled_from([0.5, 3.0, 40.0])) * draw(st.sampled_from([-1.0, 1.0]))
        shift = sum(c * float(init[name]) for name, c in coefs.items()) + margin
        comp = draw(st.sampled_from([c for c in Comparator if c.holds(-margin) == (i < n - 1)]))
        trigger = draw(st.sampled_from(["clean", "pure", "unlisted", "after", "noise"]))
        bad = draw(st.sampled_from(sorted(_MISBEHAVIOURS)))
        k = draw(st.integers(1, 4))
        fns.append(BlackBoxFn(tuple(params), _black_box(init, coefs, shift, trigger, bad, k),
                              name=f"f{i + 1}"))
        comps.append(comp)
        kinds.append((trigger, bad))
    pure = all(trigger in ("clean", "pure") for trigger, _ in kinds)
    return CoverageProblem(tuple(fns), tuple(comps), init), kinds, pure


@given(misbehaving_problems(), st.integers(1, 6), st.integers(1, 300), st.integers(0, 3))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_misbehaving_black_boxes_end_in_a_result_or_a_documented_error(
        drawn, iterations, evals, seed):
    problem, kinds, pure = drawn
    config = SolverConfig(max_iterations=iterations, max_evaluations=evals, rng_seed=seed)
    misbehaving = {bad for trigger, bad in kinds if trigger in ("pure", "unlisted", "after")}
    try:
        result = solve(problem, config)
    except TypeError as exc:  # a result that is not a real number
        assert misbehaving & set(_WRONG_TYPES)
        assert re.match(r"f\d returned .*, not a real number$", str(exc))
        return
    except BlackBoxBug:
        assert "bug" in misbehaving
        return
    assert isinstance(result, SolverResult)
    assert result.evaluations_used <= config.max_evaluations
    assert result.iterations_used <= config.max_iterations
    if result.status is not Status.SOLVED:
        assert result.solution is None
    elif pure:
        assert is_solution(problem, result.solution)


def test_black_box_turning_true_after_its_first_call_is_solved():
    """The problem's construction sees -1.0; every call of the solve sees 1.0.

    The search starts from construction's value, so its first candidate
    already holds.  Construction's call is the only one not charged.
    """
    calls = []

    def evaluate(v):
        calls.append(v.values)
        return -1.0 if len(calls) == 1 else 1.0

    problem = CoverageProblem((BlackBoxFn(("x",), evaluate),), (Comparator.GE,),
                              Valuation.of([("x", F64, 0.0)]))
    result = solve(problem)
    assert result.status is Status.SOLVED
    assert result.iterations_used == 1
    assert result.evaluations_used == len(calls) - 1
    assert problem.init.values not in calls[1:]  # solve makes no call at init
