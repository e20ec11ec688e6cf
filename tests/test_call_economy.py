"""Black-box calls the solver saves, and the search it must keep.

``finite_diff_gradient`` skips basis rows that move none of a function's
``params``; ``solve`` starts from the prefix values the problem's
construction obtained at ``init``, hands each accepted candidate's prefix
values to the next iteration, and tries each random sample once, raw.
None of this changed the search at the tested seeds: the full gradient
loop, a ``build_spaces`` that evaluates the prefix at every entry and a
candidate loop that lifts every candidate on its own stay here as oracles.

The candidate loop skips a candidate that extracts, bit for bit, to the
current valuation or to one already tried in the iteration.  With the skip
switched off the search must be the same, at no fewer calls.  The oracle
loop rounds each candidate with ``extract`` and keys it with ``bits_key``,
one value at a time.

``finite_diff_gradient`` also retakes a partial its step left absorbed in a
large value.  That does change searches, so the gradient loop without the
retake stays here as an oracle row by row: every other row must get the
same calls and the same partial.
"""

import math
import random

import numpy as np
import pytest

from covsolve import solver
from covsolve.constraints import clip
from covsolve.localspace import dot
from covsolve.numerics import NoStepError, epsilon_along_line
from covsolve.probelang import compile_spec, parse_spec
from covsolve.problem import BlackBoxFn, CoverageProblem, eval_prefix
from covsolve.solver import (
    BIT_MUT, GRAD_STEP, PATTERN, RANDOM, SolverConfig, bit_mutation_candidates,
    build_spaces, grad_step_candidates, random_candidates, solve,
)
from covsolve.vecspace import (
    F32, F64, I8, I16, I32, I64, U8, U16, U32, U64, Comparator, ExtractionError,
    Valuation, embed, extract, extract_rows,
)
from helpers import bits_key, dense_step, record_levels

TYPES = (I8, I16, I32, I64, U8, U16, U32, U64, F32, F64)


def full_loop_gradient(fn, origin, origin_value, lifted, eps_seed):
    """``solver.finite_diff_gradient`` as it was before blind rows were skipped."""
    signature, vec = origin.signature, embed(origin)
    grad = np.zeros(lifted.shape[0], dtype=np.float64)
    for j, row in enumerate(lifted):
        try:
            eps = epsilon_along_line(origin, row, eps_seed)
        except NoStepError:
            continue
        if eps == 0.0:
            continue
        for step in (eps, -eps):
            try:
                valuation = extract(vec + step * row, signature)
            except ExtractionError:
                continue
            value = fn.call(valuation)
            if value is None:
                continue
            partial = (value - origin_value) / step
            if math.isfinite(partial):
                grad[j] = partial
                break
    return grad


def single_step_gradient(fn, origin, origin_value, lifted, eps_seed):
    """``solver.finite_diff_gradient`` as it was before absorbed partials were retaken,
    each step extracted whole but for the coordinates the row does not move."""
    signature, vec = origin.signature, embed(origin)
    grad = np.zeros(lifted.shape[0], dtype=np.float64)
    cols = [signature.positions[name] for name in fn.params]
    for j in np.flatnonzero(lifted[:, cols].any(axis=1)):
        row = lifted[j]
        try:
            eps = epsilon_along_line(origin, row, eps_seed)
        except NoStepError:
            continue
        if eps == 0.0:
            continue
        for step in (eps, -eps):
            try:
                valuation = dense_step(origin, vec + step * row, row)
            except ExtractionError:
                continue
            value = fn.call(valuation)
            if value is None:
                continue
            partial = (value - origin_value) / step
            if math.isfinite(partial):
                grad[j] = partial
                break
    return grad


def reevaluating_build_spaces(problem, valuation, values, *, fns=None):
    """``solver.build_spaces`` ignoring ``values``: the prefix is evaluated again."""
    values = eval_prefix(fns or problem.fns, problem.comps, valuation).values
    return build_spaces(problem, valuation, values, fns=fns)


def every_raw_candidates(state, rng, move=None):
    """``solver._candidates`` with every candidate lifted and extracted on its own,
    and keyed by ``bits_key``.

    Pattern and grad-step candidates are clipped first; the backtracked
    landings are walked again for each halving, their line steps taken
    afresh.  Bit mutations and the first ``SAMPLES_TRIED`` random samples
    are tried once each, raw.  A point ``extract`` refuses is passed over.
    """
    constraints = state.constraints

    def points():
        def point(u):
            return state.vec + state.chain.lift(u)

        if move is not None:
            yield PATTERN, point(clip(dot(state.chain.rows, move), constraints))
        for scale in [2.0 ** -k for k in range(solver.BACKTRACK_HALVINGS + 1)]:
            for axis in grad_step_candidates(state):
                for u in solver._landings(state, axis):
                    yield GRAD_STEP, point(clip(scale * u, constraints))
        for u in bit_mutation_candidates(state):
            yield BIT_MUT, point(u)
        for u in random_candidates(state, rng)[:solver.SAMPLES_TRIED]:
            yield RANDOM, point(u)

    for source, p in points():
        try:
            values = extract(p, state.valuation.signature).values
        except ExtractionError:
            continue
        yield source, values, bits_key(values)


def unkeyed(candidates):
    """``candidates`` with every key a new object, so no candidate is a repeat."""
    def each_new(state, rng, move=None):
        for source, values, _ in candidates(state, rng, move):
            yield source, values, object()
    return each_new


def _random_value(rand, typ):
    if typ is F32:
        return float(np.float32(rand.uniform(-100.0, 100.0)))
    if typ is F64:
        return rand.choice([0.0, -0.0, rand.uniform(-1e3, 1e3)])
    if typ.bit_width == 64:
        if rand.random() < 0.3:  # past 2**53, where ``embed`` may round
            value = rand.randint(2**53, 2**62)
            return value if typ.min_value == 0 or rand.random() < 0.5 else -value
    elif rand.random() < 0.2:  # at an end of the range, where one step leaves it
        return rand.choice([typ.min_value, typ.max_value])
    return rand.randint(max(typ.min_value, -1000), min(typ.max_value, 1000))


def _distance(rand, params):
    """A pure function of ``params`` only: affine, or with one square or abs term.

    It reads every input through ``float()``, which rounds a 64-bit integer
    past 2**53 as ``embed`` does, so the full gradient loop agrees with the
    skip there; exact integer arithmetic is the one case they differ in.
    """
    coefs = {name: rand.choice([-3.0, -1.0, 0.5, 1.0, 2.0]) for name in params}
    kind = rand.choice(["affine", "square", "abs"])
    bent = rand.choice(params)

    def evaluate(v):
        total = sum(c * float(v[name]) for name, c in coefs.items())
        if kind == "square":
            total += 1e-3 * float(v[bent]) ** 2
        elif kind == "abs":
            total += abs(float(v[bent]))
        return total

    return evaluate


def random_problem(rand, *, calls=None, margin=(0.5, 20.0)):
    """1-10 variables of every type, prefixes of length 0-6 on random subsets.

    Each prefix predicate holds at the initial valuation (an equality when
    its function is shifted to 0 there) and the last one fails, each by a
    distance drawn uniformly from ``margin``.  With ``calls`` a list, every
    black-box call appends (function index, values).
    """
    dim = rand.randint(1, 10)
    types = [rand.choice(TYPES) for _ in range(dim)]
    init = Valuation.of([(f"x{k}", typ, _random_value(rand, typ))
                         for k, typ in enumerate(types)])
    names = init.signature.names
    fns, comps = [], []
    n = rand.randint(0, 6) + 1
    for i in range(n):
        params = tuple(sorted(rand.sample(names, rand.randint(1, dim))))
        base = _distance(rand, params)
        at_init = base(init)
        last = i == n - 1
        if not last and rand.random() < 0.25:
            shift, comp = at_init, Comparator.EQ
        else:
            shift = at_init + rand.choice([-1.0, 1.0]) * rand.uniform(*margin)
            holds = [c for c in Comparator
                     if c is not Comparator.EQ and c.holds(at_init - shift)]
            fails = [c for c in Comparator if not c.holds(at_init - shift)]
            comp = rand.choice(fails if last else holds)

        def evaluate(v, _base=base, _shift=shift, _i=i):
            if calls is not None:
                calls.append((_i, v.values))
            return _base(v) - _shift

        fns.append(BlackBoxFn(params, evaluate, name=f"f{i + 1}"))
        comps.append(comp)
    problem = CoverageProblem(tuple(fns), tuple(comps), init)
    if calls is not None:
        calls.clear()  # the constructor's own check of the initial valuation
    return problem


def _levels_bytes(levels):
    return [rows.tobytes() for rows in levels]


def _constraint_key(c):
    return c.normal.tobytes(), np.float64(c.bound).tobytes(), c.comp, c.direction.tobytes()


class TestBlindPartialSkip:
    def test_build_spaces_matches_full_loop(self, monkeypatch):
        rand = random.Random(2018)
        levels = record_levels(monkeypatch)
        skipped = 0
        for _ in range(300):
            problem = random_problem(rand)
            ours = build_spaces(problem, problem.init, problem.init_values)
            our_levels = _levels_bytes(levels)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "finite_diff_gradient", full_loop_gradient)
                theirs = build_spaces(problem, problem.init, problem.init_values)
            assert ours.grad_n.tobytes() == theirs.grad_n.tobytes()
            assert our_levels == _levels_bytes(levels)
            assert ours.chain.rows.tobytes() == our_levels[-1]
            assert ([_constraint_key(c) for c in ours.constraints]
                    == [_constraint_key(c) for c in theirs.constraints])
            assert ours.prefix_values == theirs.prefix_values
            positions = problem.signature.positions
            cols = [positions[name] for name in problem.fns[-1].params]
            last = ours.chain.rows
            skipped += not last[:, cols].any(axis=1).all()
        assert skipped >= 50

    def test_blind_rows_make_no_call(self):
        calls = []
        fn = BlackBoxFn(("x2",), lambda v: calls.append(v.values) or 3.0 * v["x2"])
        init = Valuation.of([("x1", F64, 1.0), ("x2", F64, 2.0), ("x3", I32, 0)])
        grad = solver.finite_diff_gradient(fn, init, 6.0, np.eye(3), 2**-26)
        assert grad[0] == 0.0 and grad[2] == 0.0
        assert grad[1] == pytest.approx(3.0)
        assert len(calls) == 1  # the x2 row only

    def test_blind_row_past_2_53_reads_0_not_the_rounding(self):
        """The one place the skip and the full loop differ.

        ``embed`` rounds the i64 value 2**53 + 1 to 2**53, so every step
        extracts 2**53.  A callable doing exact integer arithmetic then
        differs from its value at the initial valuation along the x1 row,
        which moves only the unread x2: the full loop reads that rounding
        as a partial, and the skip reads 0.
        """
        fn = BlackBoxFn(("x1",), lambda v: v["x1"] - 2**53)
        init = Valuation.of([("x1", I64, 2**53 + 1), ("x2", F64, 0.0)])
        assert embed(init)[0] == 2.0**53
        lifted = np.array([[0.0, 1.0], [1.0, 0.0]])
        args = (fn, init, 1.0, lifted, 2**-26)
        ours = solver.finite_diff_gradient(*args)
        theirs = full_loop_gradient(*args)
        assert ours[0] == 0.0 and theirs[0] < 0.0
        assert ours[1] == theirs[1]


def _recording(fn, calls):
    """``fn``, appending (values, result) to ``calls`` at every call."""
    def evaluate(v):
        result = fn.eval(v)
        calls.append((v.values, result))
        return result

    return BlackBoxFn(fn.params, evaluate, fn.name)


def _absorbed(calls, origin, origin_value, row, eps_seed):
    """Whether a call of the single-step loop read ``origin_value`` at a step
    below its ulp."""
    try:
        eps = epsilon_along_line(origin, row, eps_seed)
    except NoStepError:
        return False
    return (any(value == origin_value for _, value in calls)
            and abs(eps) < math.ulp(origin_value))


class TestAbsorbedRetake:
    def test_only_absorbed_rows_change(self, monkeypatch):
        """Row by row against the single-step loop, in every gradient of short
        searches whose distances sit 1e15-1e20 from their thresholds.

        A row that is not absorbed makes the same calls and gets the same
        partial bit for bit; an absorbed one makes the same calls first and
        at most two more.
        """
        gradient = solver.finite_diff_gradient
        absorbed = moved = 0

        def compared(fn, origin, origin_value, lifted, eps_seed):
            nonlocal absorbed, moved
            for j in range(lifted.shape[0]):
                row = lifted[j:j + 1]
                ours_calls, theirs_calls = [], []
                ours = gradient(_recording(fn, ours_calls), origin, origin_value, row,
                                eps_seed)
                theirs = single_step_gradient(_recording(fn, theirs_calls), origin,
                                              origin_value, row, eps_seed)
                assert ours_calls[:len(theirs_calls)] == theirs_calls
                if _absorbed(theirs_calls, origin, origin_value, row[0], eps_seed):
                    absorbed += 1
                    moved += ours[0] != 0.0
                    assert len(ours_calls) - len(theirs_calls) <= 2
                else:
                    assert ours.tobytes() == theirs.tobytes()
                    assert ours_calls == theirs_calls
            return gradient(fn, origin, origin_value, lifted, eps_seed)

        rand = random.Random(1915)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "finite_diff_gradient", compared)
            for seed in range(60):
                problem = random_problem(rand, margin=(1e15, 1e20))
                solve(problem, SolverConfig(rng_seed=seed, max_iterations=3))
        assert absorbed >= 50
        assert moved >= 25  # the retake reads a slope the first step missed


# x1 <= x2 from (0, 1), as in test_solver's LE_EQ_TRACE, but the last
# function is flat at the start: no grad-step candidate exists, the random
# samples are reached, and some of them leave x1 <= x2
LE_FLAT_TRACE = """
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 1
abe x1 - x2 <= 0
abe max(x2, 3) - 5 >= 0
"""


class TestSearchUnchanged:
    def test_full_loop_solve_gives_the_same_search(self, monkeypatch):
        """Only the count changes, and only downwards.

        The oracle takes every partial by a call, evaluates the prefix at
        the start of every iteration and lifts every candidate on its own.
        The evaluation budget is large enough that it is never reached.
        """
        def both(problem, config):
            ours = solve(problem, config)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "finite_diff_gradient", full_loop_gradient)
                patch.setattr(solver, "build_spaces", reevaluating_build_spaces)
                patch.setattr(solver, "_candidates", every_raw_candidates)
                patch.setattr(solver, "_key", bits_key)
                theirs = solve(problem, config)
            assert theirs.evaluations_used < config.max_evaluations
            assert (ours.status, ours.solution, ours.iterations_used, ours.log) \
                == (theirs.status, theirs.solution, theirs.iterations_used, theirs.log)
            assert ours.evaluations_used <= theirs.evaluations_used
            return ours.evaluations_used < theirs.evaluations_used

        rand = random.Random(11)
        saved = sum(both(random_problem(rand), SolverConfig(
            rng_seed=seed, max_iterations=8, max_evaluations=100_000)) for seed in range(80))
        assert saved >= 40
        flat = compile_spec(parse_spec(LE_FLAT_TRACE))
        saved = [both(flat, SolverConfig(rng_seed=seed, max_iterations=8))
                 for seed in range(10)]
        assert any(saved)  # the oracle's gradients and prefix evaluations cost calls

    def test_carried_values_save_one_prefix_per_iteration(self, monkeypatch):
        """The first iteration starts from the values construction obtained at
        ``init``, and each later one from its accepted candidate's.

        At least 60 problems are drawn, and more, up to a cap, until 20 of
        them take more than one iteration, so a faster search still tries
        the carried values often enough.
        """
        rand = random.Random(5)
        carried = 0
        for seed in range(240):
            if seed >= 60 and carried >= 20:
                break
            problem = random_problem(rand)
            config = SolverConfig(rng_seed=seed, max_iterations=8)
            ours = solve(problem, config)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "build_spaces", reevaluating_build_spaces)
                theirs = solve(problem, config)
            assert (ours.status, ours.solution, ours.iterations_used, ours.log) \
                == (theirs.status, theirs.solution, theirs.iterations_used, theirs.log)
            saved = theirs.evaluations_used - ours.evaluations_used
            assert saved == len(problem.fns) * ours.iterations_used
            carried += ours.iterations_used > 1
        assert carried >= 20


def _exact(valuation):
    """``valuation``'s values as exact text: ``repr`` tells -0.0 from 0.0."""
    return tuple(map(repr, valuation.values))


class TestRepeatSkip:
    def test_no_candidate_is_evaluated_twice_in_an_iteration(self, monkeypatch):
        """Each iteration's candidate evaluations are distinct and none is the
        current valuation; switching the skip off changes only the count."""
        iterations = []  # per iteration: the current valuation, then each candidate evaluated
        build, evaluate = solver.build_spaces, solver.eval_prefix

        def marking_build(problem, valuation, values, *, fns=None):
            iterations.append([_exact(valuation)])
            return build(problem, valuation, values, fns=fns)

        def recording_eval(fns, comps, valuation):
            iterations[-1].append(_exact(valuation))
            return evaluate(fns, comps, valuation)

        rand = random.Random(21)
        saved = 0
        for seed in range(60):
            problem = random_problem(rand)
            config = SolverConfig(rng_seed=seed, max_iterations=8)
            iterations.clear()
            with monkeypatch.context() as patch:
                patch.setattr(solver, "build_spaces", marking_build)
                patch.setattr(solver, "eval_prefix", recording_eval)
                ours = solve(problem, config)
            assert iterations
            for keys in iterations:
                assert len(set(keys)) == len(keys)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_key", lambda values: object())
                patch.setattr(solver, "_candidates", unkeyed(solver._candidates))
                theirs = solve(problem, config)
            assert (ours.status, ours.solution, ours.iterations_used, ours.log) \
                == (theirs.status, theirs.solution, theirs.iterations_used, theirs.log)
            assert ours.evaluations_used <= theirs.evaluations_used
            saved += ours.evaluations_used < theirs.evaluations_used
        assert saved >= 10

    def test_signed_zeros_are_different_candidates(self):
        """A black box may tell -0.0 from 0.0, so the key keeps the sign."""
        def at(x):
            return Valuation.of([("x", F64, x), ("k", I32, 0)])

        assert solver._key(at(-0.0).values) != solver._key(at(0.0).values)
        assert solver._key(at(0.0).values) == solver._key(at(0.0).values)
        # a block's keys, from extract_rows, are the scalar keys of its rows
        values, zeros = extract_rows(np.array([[-0.0, 0.0], [0.0, -0.0]]), at(0.0).signature)
        keys = [v + z for v, z in zip(values, zeros)]
        assert keys == [solver._key(at(-0.0).values), solver._key(at(0.0).values)]
        assert keys[0] != keys[1]


class TestCallAccounting:
    def test_evaluations_count_every_call_made(self):
        rand = random.Random(7)
        for seed in range(40):
            calls = []
            problem = random_problem(rand, calls=calls)
            result = solve(problem, SolverConfig(rng_seed=seed, max_iterations=8))
            assert len(calls) == result.evaluations_used
