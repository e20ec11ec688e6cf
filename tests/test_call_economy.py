"""Black-box calls the solver saves, and the search it must keep.

``finite_diff_gradient`` skips basis rows that move none of a function's
``params``; ``solve`` starts from the prefix values the problem's
construction obtained at ``init``, hands each accepted candidate's prefix
values to the next iteration, and tries each random sample once, clipped.
None of this changed the search at the tested seeds: the full gradient
loop, a ``build_spaces`` that evaluates the prefix at every entry and a
candidate loop that also tries every raw sample stay here as oracles.
The raw samples are the one part that could change a search, had one of
them been accepted.

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
from covsolve.numerics import NoStepError, epsilon_along_line
from covsolve.probelang import compile_spec, parse_spec
from covsolve.problem import BlackBoxFn, CoverageProblem, eval_prefix
from covsolve.solver import (
    BIT_MUT, GRAD_STEP, RANDOM, SolverConfig, bit_mutation_candidates,
    build_spaces, grad_step_candidates, random_candidates, solve,
)
from covsolve.vecspace import (
    F32, F64, I8, I16, I32, I64, U8, U16, U32, U64, Comparator, ExtractionError,
    Valuation, embed, extract,
)

TYPES = (I8, I16, I32, I64, U8, U16, U32, U64, F32, F64)


def full_loop_gradient(fn, origin_value, vec, lifted, signature, eps_seed):
    """``solver.finite_diff_gradient`` as it was before blind rows were skipped."""
    grad = np.zeros(lifted.shape[0], dtype=np.float64)
    for j, row in enumerate(lifted):
        try:
            eps = epsilon_along_line(vec, row, eps_seed, signature)
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


def single_step_gradient(fn, origin_value, vec, lifted, signature, eps_seed):
    """``solver.finite_diff_gradient`` as it was before absorbed partials were retaken."""
    grad = np.zeros(lifted.shape[0], dtype=np.float64)
    cols = [signature.positions[name] for name in fn.params]
    for j in np.flatnonzero(lifted[:, cols].any(axis=1)):
        row = lifted[j]
        try:
            eps = epsilon_along_line(vec, row, eps_seed, signature)
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


def reevaluating_build_spaces(problem, valuation, values, *, fns=None):
    """``solver.build_spaces`` ignoring ``values``: the prefix is evaluated again."""
    values = eval_prefix(fns or problem.fns, problem.comps, valuation).values
    return build_spaces(problem, valuation, values, fns=fns)


def every_raw_candidates(state, rng):
    """``solver._candidates`` also trying every random sample raw after its clipped form."""
    constraints, grad = state.constraints, state.grad_n
    for u in grad_step_candidates(state):
        yield GRAD_STEP, clip(u, constraints, grad)
    for u in bit_mutation_candidates(state):
        yield BIT_MUT, u
    for u in random_candidates(state, rng):
        yield RANDOM, clip(u, constraints, grad)
        yield RANDOM, u


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


def _chain_bytes(state):
    return [state.chain.lifted(level).tobytes() for level in range(1, len(state.chain) + 1)]


def _constraint_key(c):
    return c.normal.tobytes(), np.float64(c.bound).tobytes(), c.comp


class TestBlindPartialSkip:
    def test_build_spaces_matches_full_loop(self, monkeypatch):
        rand = random.Random(2018)
        skipped = 0
        for _ in range(300):
            problem = random_problem(rand)
            ours = build_spaces(problem, problem.init, problem.init_values)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "finite_diff_gradient", full_loop_gradient)
                theirs = build_spaces(problem, problem.init, problem.init_values)
            assert ours.grad_n.tobytes() == theirs.grad_n.tobytes()
            assert _chain_bytes(ours) == _chain_bytes(theirs)
            assert ([_constraint_key(c) for c in ours.constraints]
                    == [_constraint_key(c) for c in theirs.constraints])
            assert ours.prefix_values == theirs.prefix_values
            positions = problem.signature.positions
            cols = [positions[name] for name in problem.fns[-1].params]
            last = ours.chain.lifted(len(ours.chain))
            skipped += not last[:, cols].any(axis=1).all()
        assert skipped >= 50

    def test_blind_rows_make_no_call(self):
        calls = []
        fn = BlackBoxFn(("x2",), lambda v: calls.append(v.values) or 3.0 * v["x2"])
        init = Valuation.of([("x1", F64, 1.0), ("x2", F64, 2.0), ("x3", I32, 0)])
        vec = np.array([1.0, 2.0, 0.0])
        grad = solver.finite_diff_gradient(fn, 6.0, vec, np.eye(3), init.signature, 2**-26)
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
        vec = embed(init)
        assert vec[0] == 2.0**53
        lifted = np.array([[0.0, 1.0], [1.0, 0.0]])
        args = (fn, 1.0, vec, lifted, init.signature, 2**-26)
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


def _absorbed(calls, origin_value, vec, row, signature, eps_seed):
    """Whether a call of the single-step loop read ``origin_value`` at a step
    below its ulp."""
    try:
        eps = epsilon_along_line(vec, row, eps_seed, signature)
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

        def compared(fn, origin_value, vec, lifted, signature, eps_seed):
            nonlocal absorbed, moved
            for j in range(lifted.shape[0]):
                row = lifted[j:j + 1]
                ours_calls, theirs_calls = [], []
                ours = gradient(_recording(fn, ours_calls), origin_value, vec, row,
                                signature, eps_seed)
                theirs = single_step_gradient(_recording(fn, theirs_calls), origin_value,
                                              vec, row, signature, eps_seed)
                assert ours_calls[:len(theirs_calls)] == theirs_calls
                if _absorbed(theirs_calls, origin_value, vec, row[0], signature, eps_seed):
                    absorbed += 1
                    moved += ours[0] != 0.0
                    assert len(ours_calls) - len(theirs_calls) <= 2
                else:
                    assert ours.tobytes() == theirs.tobytes()
                    assert ours_calls == theirs_calls
            return gradient(fn, origin_value, vec, lifted, signature, eps_seed)

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
# samples are reached, and clipping moves those that leave x1 <= x2
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
        the start of every iteration and tries every random sample raw
        after its clipped form.  The evaluation budget is large enough
        that it is never reached.
        """
        def both(problem, config):
            ours = solve(problem, config)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "finite_diff_gradient", full_loop_gradient)
                patch.setattr(solver, "build_spaces", reevaluating_build_spaces)
                patch.setattr(solver, "_candidates", every_raw_candidates)
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
        assert any(saved)  # the raw samples the oracle tries cost calls

    def test_carried_values_save_one_prefix_per_iteration(self, monkeypatch):
        """The first iteration starts from the values construction obtained at
        ``init``, and each later one from its accepted candidate's."""
        rand = random.Random(5)
        carried = 0
        for seed in range(60):
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


class TestCallAccounting:
    def test_evaluations_count_every_call_made(self):
        rand = random.Random(7)
        for seed in range(40):
            calls = []
            problem = random_problem(rand, calls=calls)
            result = solve(problem, SolverConfig(rng_seed=seed, max_iterations=8))
            assert len(calls) == result.evaluations_used
