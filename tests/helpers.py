"""Checks shared by several test modules."""

import math

import numpy as np

from covsolve import solver
from covsolve.localspace import BasisChain, dot, rescaled
from covsolve.numerics import NoStepError
from covsolve.pcg64 import PCG64
from covsolve.problem import BlackBoxFn, Outcome, eval_prefix
from covsolve.solver import PIVOT_GUARD, IterationRecord, SolverResult, Status
from covsolve.vecspace import ExtractionError, ScalarType, Valuation, embed, extract, round_vector


def orthonormality_error(vectors: np.ndarray) -> float:
    """Largest deviation of the rows from pairwise orthonormality."""
    if vectors.shape[0] == 0:
        return 0.0
    gram = vectors @ vectors.T
    return float(np.max(np.abs(gram - np.eye(vectors.shape[0]))))


def record_levels(monkeypatch) -> list:
    """The root-space rows of every level, level 1 first, of the chain built last.

    A ``BasisChain`` keeps only its current level, so a test that reads the
    earlier ones records each as it is built.  The list fills as chains are
    built after this call.
    """
    levels = []
    init, extend = BasisChain.__init__, BasisChain.extend

    def recording_init(self, dim):
        init(self, dim)
        levels[:] = [self.rows]

    def recording_extend(self, basis):
        extend(self, basis)
        levels.append(self.rows)

    monkeypatch.setattr(BasisChain, "__init__", recording_init)
    monkeypatch.setattr(BasisChain, "extend", recording_extend)
    return levels


def bits_key(values) -> tuple:
    """The candidate loop's repeat key as it was: each float by ``hex``, so -0.0 and 0.0 differ."""
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def dense_step(origin: Valuation, point: np.ndarray, row: np.ndarray) -> Valuation:
    """A finite-difference step as the dense oracles take it: ``point`` extracted whole,
    then ``origin``'s own value wherever ``row`` is zero.

    Raises ``ExtractionError`` where ``extract`` does.
    """
    stepped = extract(point, origin.signature).values
    return Valuation(origin.signature, tuple(
        kept if g == 0.0 else moved
        for kept, moved, g in zip(origin.values, stepped, row.tolist())))


def min_coordinate_step(rounded, direction, types: list[ScalarType]) -> float | None:
    """Smallest line step advancing some coordinate to its next typed value, as the
    dense walks take it; ``epsilon_along_line`` takes it inline over the moved ones."""
    best = None
    for j, g_j in enumerate(direction):
        if g_j == 0.0:
            continue
        nxt = types[j].next_value(float(rounded[j]), math.copysign(1.0, g_j))
        if nxt is None:
            continue
        step = (nxt - float(rounded[j])) / g_j
        if best is None or step < best:
            best = step
    return best


def dense_epsilon_along_line(origin: Valuation, direction: np.ndarray, eps1: float) -> float:
    """``epsilon_along_line`` as it was when its origin was an array and every
    sample rounded every coordinate."""
    types, vec = origin.signature.types, embed(origin)
    direction = np.asarray(direction, dtype=np.float64)
    w, ww, scale = rescaled(direction)
    if ww == 0.0:
        raise ValueError("line direction must be nonzero")
    if not math.isfinite(ww):
        raise ValueError("line direction is not finite")
    if eps1 <= 0.0:
        raise ValueError("initial epsilon must be positive")

    with np.errstate(over="ignore", invalid="ignore"):
        point = vec + eps1 * direction
        for _ in range(2 * vec.shape[0]):
            try:
                rounded = np.array(round_vector(point, types))
            except ExtractionError:
                break
            if not np.array_equal(rounded, vec):
                eps = float(dot(point - vec, w)) / (scale * ww)
                if math.isfinite(eps * scale * math.sqrt(ww)):
                    return eps
                break
            increment = min_coordinate_step(rounded, direction, types)
            if increment is None or increment <= 0.0 or not math.isfinite(increment):
                break
            point = point + increment * direction

    raise NoStepError("no sample along the line changes the rounded vector")


def bit_mutation_block(state) -> np.ndarray:
    """Every bit mutation of the last function's integer parameters as one block, one per row,
    as ``solver.bit_mutation_candidates`` built them before it returned one entry per variable.

    A variable's rows are ``np.outer(ys, u) + 0.0`` over its ``(u, ys)``,
    variable after variable; the oracle of the rows the candidate loop lifts.
    """
    signature = state.valuation.signature
    lifted = state.chain.rows
    params = set(state.problem.fns[-1].params)
    out: list[np.ndarray] = []

    for i, (name, typ) in enumerate(zip(signature.names, signature.types)):
        if name not in params or not typ.is_integer:
            continue
        coords = lifted[:, i]
        if float(np.abs(coords).max(initial=0.0)) < PIVOT_GUARD:
            continue  # no basis vector reaches this variable's axis
        u = coords / float(dot(coords, coords))
        width = typ.bit_width
        raw = int(state.valuation.values[i]) & ((1 << width) - 1)
        ys = [float((1 - 2 * ((raw >> j) & 1)) * (1 << j)) for j in range(width)]
        out.append(np.outer(ys, u) + 0.0)  # a negative y makes -0.0 of a zero; + 0.0 undoes it
    return np.concatenate(out) if out else np.empty((0, lifted.shape[0]))


def record_generators(monkeypatch) -> tuple[list, list]:
    """``(seeds, draws)``: the seed of every ``PCG64`` that ``solver`` builds after this
    call, and every ``uniform`` draw from them as ``((low, high, size), block)``."""
    seeds, draws = [], []

    class Recorded(PCG64):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

        def uniform(self, low, high, size):
            draws.append(((low, high, size), super().uniform(low, high, size)))
            return draws[-1][1]

    monkeypatch.setattr(solver, "PCG64", Recorded)
    return seeds, draws


def counted_solve(problem, config) -> SolverResult:
    """``solver.solve`` as it was before the call ledger: the oracle of its calls.

    Every function is wrapped to charge each call it makes.  The prefix
    values at ``init`` and at each accepted candidate are carried, and a
    candidate whose values, by ``bits_key``, equal the current valuation's
    or an earlier candidate's of the iteration is skipped without a call;
    every other call is charged, repeats included.
    """
    budget = solver._Budget(config.max_evaluations)

    def counted(fn):
        def charged_eval(valuation):
            if budget.used >= budget.limit:
                raise solver._BudgetExhausted
            budget.used += 1
            return fn.eval(valuation)

        return BlackBoxFn(fn.params, charged_eval, fn.name)

    fns = tuple(counted(fn) for fn in problem.fns)
    comps = problem.comps
    rng = np.random.default_rng(config.rng_seed)
    current, current_values = problem.init, problem.init_values
    move = None
    log = []
    iteration = 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while iteration < config.max_iterations:
                iteration += 1
                state = solver.build_spaces(problem, current, current_values, fns=fns)
                accepted = None
                tried = {bits_key(current.values)}
                for source, candidate in solver._candidates(state, lambda: rng, move):
                    key = bits_key(candidate.values)
                    if key in tried:
                        continue
                    tried.add(key)
                    record = eval_prefix(fns, comps, candidate)
                    if record.outcome is Outcome.DIVERGED:
                        continue
                    value = record.values[-1]
                    if record.outcome is Outcome.FULL_TRUE:
                        log.append(IterationRecord(iteration, source, value))
                        return SolverResult(Status.SOLVED, candidate, iteration,
                                            budget.used, tuple(log))
                    if comps[-1].improves(state.f_n, value):
                        log.append(IterationRecord(iteration, source, value))
                        accepted, current_values = candidate, record.values
                        move = solver._doubled_move(state.vec, candidate, source)
                        break
                if accepted is None:
                    return SolverResult(Status.FAILED_NO_PROGRESS, None, iteration,
                                        budget.used, tuple(log))
                current = accepted
        except solver._BudgetExhausted:
            pass
    return SolverResult(Status.FAILED_BUDGET, None, iteration, budget.used, tuple(log))
