"""Iterative search for a solution of a coverage problem.

Each iteration rebuilds the chain of local spaces and the prefix constraints
at the current valuation, generates candidate vectors in the last local space by
three strategies (a gradient-descent step, bit mutations aimed in closed
form at the nearest point of each bit's plane, random samples), and
accepts the first candidate that either solves the problem or brings the
last function's value strictly closer to satisfying its comparator.  The
generators only propose vectors; the candidate loop tries each once,
clipping pattern and grad-step candidates into the prefix constraints and
lifting candidates to root space only when it reaches them.  The pattern
and grad-step candidates are clipped and lifted one at a time, and a
grad-step candidate's line step waits for the loop too: the first one
usually solves or improves, and the loop stops there.  The bit mutations
and the random samples are each lifted as one block, unclipped, once the
loop reaches their generator: the search tries them only when nothing
before them was accepted, and then often all of them.

Ahead of the paper's three generators comes a pattern move (Korel,
"Automated Software Test Data Generation", IEEE TSE 1990): when the last
iteration accepted a grad-step or pattern candidate, its root-space move is
tried again, doubled, projected onto the last local space and clipped.  A
gradient step that closes only part of the gap, as on ``max(x1, x2) - 5``
from (0, 0), then doubles instead of creeping.

Black-box calls are the search's cost.  A gradient skips the directions
that move none of a function's ``params``, and retakes a partial only when
its step vanished in the function's value, once and with at most two more
calls.  The first iteration starts from
the prefix values the problem's construction obtained at ``init``, and each
later one from those its accepted candidate obtained, so no iteration calls
the prefix at its start.  A candidate that extracts, bit for bit, to the
current valuation or to one already tried in the iteration is skipped: under
``BlackBoxFn``'s purity contract its call could only repeat a result that
was not accepted.
"""

from __future__ import annotations

import enum
import math
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .constraints import Constraint, clip, transform_constraint
from .localspace import BasisChain, dot, next_basis, rescaled, vector_norm
from .numerics import NoStepError, epsilon_along_line, epsilon_from_value
from .problem import BlackBoxFn, CoverageProblem, Outcome, eval_prefix
from .vecspace import ExtractionError, Valuation, embed, extract

#: A variable whose root coordinates in the last local space all lie below
#: this magnitude is out of reach of bit mutations.
PIVOT_GUARD = 1e-12

#: Weight of |F_n| against the landing point's magnitude in the grad-step epsilon.
ALPHA = 0.01

#: Random samples drawn from the cube in each iteration.
SAMPLES_PER_CUBE = 100

#: Random cube half-edge per unit of log(|F_n| + 1).
CUBE_SCALE = 100.0

PATTERN = "pattern"
GRAD_STEP = "grad-step"
BIT_MUT = "bit-mut"
RANDOM = "random"


@dataclass(frozen=True)
class SolverConfig:
    """Budgets and seed of the search."""

    max_iterations: int = 100
    max_evaluations: int = 100_000
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("max_iterations", "max_evaluations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


class Status(enum.Enum):
    SOLVED = "SOLVED"
    FAILED_NO_PROGRESS = "FAILED_NO_PROGRESS"
    FAILED_BUDGET = "FAILED_BUDGET"


@dataclass(frozen=True)
class IterationRecord:
    """The candidate accepted in one iteration and its last-function value."""

    iteration: int
    source: str
    value: float


@dataclass(frozen=True)
class SolverResult:
    status: Status
    solution: Valuation | None
    iterations_used: int
    evaluations_used: int
    log: tuple[IterationRecord, ...]

    @property
    def solved(self) -> bool:
        return self.status is Status.SOLVED


@dataclass(frozen=True)
class IterationState:
    """Everything one iteration derives from the current valuation."""

    problem: CoverageProblem
    valuation: Valuation
    vec: np.ndarray
    chain: BasisChain
    constraints: tuple[Constraint, ...]  # in the last local space, newest first
    grad_n: np.ndarray
    prefix_values: tuple[float, ...]

    @property
    def f_n(self) -> float:
        return self.prefix_values[-1]


class _BudgetExhausted(Exception):
    pass


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self) -> None:
        if self.used >= self.limit:
            raise _BudgetExhausted
        self.used += 1


def _counted(fn: BlackBoxFn, budget: _Budget) -> BlackBoxFn:
    def charged_eval(valuation: Valuation) -> float | None:
        budget.charge()
        return fn.eval(valuation)

    return BlackBoxFn(fn.params, charged_eval, fn.name)


def finite_diff_gradient(fn: BlackBoxFn, origin: Valuation, origin_value: float,
                         lifted: np.ndarray, eps_seed: float) -> np.ndarray:
    """Forward-difference gradient of ``fn`` at ``origin`` along each row of ``lifted``.

    ``origin_value`` is the already-known value at ``origin``.  Row j's step
    is the line step from ``origin`` along the row, seeded with
    ``eps_seed``.  A failing call at ``origin + eps*row``, or one whose
    difference quotient overflows, is retried at ``origin - eps*row``; with
    no step, or both attempts failing, the partial derivative is zero.  A
    row with no component on any of ``fn.params`` moves no input ``fn``
    reads, so its partial is zero without a step or a call.

    A partial is *absorbed* when its call returned exactly ``origin_value``
    and its step lies below ``math.ulp(origin_value)``: the value is too
    large for that step to register in it, as with x1 + x2 - 3.2e18 moved
    by 1.  An absorbed partial is retaken once, with the same two calls,
    at the line step seeded with ``epsilon_from_value(origin_value)``, so
    that the step is scaled to the function's value rather than to the
    point's.  A partial that is not absorbed costs nothing more.

    A step rounds only the row's nonzero coordinates, each from its value
    as a float.  Every other coordinate keeps ``origin``'s value exactly.
    """
    signature, values = origin.signature, origin.values
    types, starts = signature.types, [float(v) for v in values]
    grad = np.zeros(lifted.shape[0], dtype=np.float64)
    cols = [signature.positions[name] for name in fn.params]
    for j in np.flatnonzero(lifted[:, cols].any(axis=1)):
        row = lifted[j]
        moved = np.flatnonzero(row)
        moves, moved = row[moved].tolist(), moved.tolist()
        seed = eps_seed
        for _ in range(2):  # the first step, then at most one retake
            try:
                eps = epsilon_along_line(origin, row, seed)
            except NoStepError:
                break
            if eps == 0.0:
                break
            value = None
            for step in (eps, -eps):
                stepped = list(values)
                try:
                    for i, g in zip(moved, moves):
                        stepped[i] = types[i].nearest(starts[i] + step * g)
                except ExtractionError:
                    continue
                valuation = Valuation._rounded(signature, tuple(stepped))
                value = fn.call(valuation)
                if value is None:
                    continue
                partial = (value - origin_value) / step
                if math.isfinite(partial):
                    grad[j] = partial
                    break
            if value != origin_value or abs(eps) >= math.ulp(origin_value):
                break
            seed = epsilon_from_value(origin_value)
    return grad


def build_spaces(problem: CoverageProblem, valuation: Valuation,
                 values: tuple[float, ...], *,
                 fns: Sequence[BlackBoxFn] | None = None) -> IterationState:
    """Local bases, prefix constraints, and the last function's gradient at ``valuation``.

    Level 1 is the axis basis.  For every prefix function the gradient in
    its local space is estimated numerically and the next basis is built,
    with the gradient axis appended unless the comparator is equality or
    the gradient is zero.  An appended axis, lifted to root coordinates, is
    the normal of the predicate's constraint, bounded where the linearised
    function crosses zero.  Once the chain is built and the last function's
    gradient taken, each constraint is projected into the last space, newest
    first, with its clipping direction along that gradient's tangent.

    ``values`` are the prefix values at ``valuation``, which the caller
    already has: no function is called at ``valuation`` itself.
    """
    fns = tuple(fns) if fns is not None else problem.fns
    comps = problem.comps
    signature = valuation.signature
    vec = embed(valuation)

    eps_seed = epsilon_from_value(float(np.max(np.abs(vec))))
    chain = BasisChain(len(signature))
    rooted: list[Constraint] = []  # in root coordinates, oldest first

    for fn, comp, value in zip(fns[:-1], comps, values):
        grad = finite_diff_gradient(fn, valuation, value, chain.rows, eps_seed)
        grad_norm = vector_norm(grad)
        append = comp.side != 0 and grad_norm > 0.0
        chain.extend(next_basis(grad, append_gradient=append))
        if append and math.isfinite(bound := -value / grad_norm):
            rooted.append(Constraint(chain.rows[-1], bound, comp, chain.rows[-1]))

    grad_n = finite_diff_gradient(fns[-1], valuation, values[-1], chain.rows, eps_seed)
    moved = (transform_constraint(c, chain.rows, grad_n) for c in reversed(rooted))
    constraints = tuple(c for c in moved if c is not None)
    return IterationState(problem, valuation, vec, chain, constraints, grad_n, values)


def _landing_point(state: IterationState, t: float, k: int, axis: int | None,
                   entry: float) -> np.ndarray:
    """The k-th landing point of the step t along one grad-step direction, times the direction.

    ``axis`` None is the full gradient, as ``rescaled`` gives it; otherwise
    the direction is zero but for ``entry`` at ``axis``.  A landing at t
    itself (sign 0) takes no line step and no lift.
    """
    comp = state.problem.comps[-1]
    if axis is None:
        w = rescaled(state.grad_n)[0]
    else:
        w = np.zeros(len(state.grad_n))
        w[axis] = entry
    eps = 0.0
    if comp.signs[k]:
        # a single axis lifts to its one row; + 0.0 makes a zero +0.0, as the sum does
        d_root = state.chain.lift(w) if axis is None else entry * state.chain.rows[axis] + 0.0
        z = (1.0 - ALPHA) * float(np.max(np.abs(state.vec + t * d_root))) + ALPHA * abs(state.f_n)
        if math.isfinite(z):
            with suppress(NoStepError):
                eps = epsilon_along_line(state.valuation, d_root, epsilon_from_value(z))
    return comp.landing(t, eps)[k] * w


def grad_step_candidates(state: IterationState) -> list[Callable[[], np.ndarray]]:
    """Unclipped candidates from one linearised descent step of the last function.

    The step length t solves the linear model F[I + t*w] = 0 along w, the
    direction as ``rescaled`` gives it, so t is finite wherever t*w is;
    the comparator's landing points decide which of t, t-eps, t+eps are
    tried.  Besides the full gradient direction, a step is taken along
    every single axis with a nonzero partial derivative, which helps
    escaping local minima.

    Each candidate is a zero-argument callable that builds its vector from
    scratch when called, so that, like clipping, its lift and line step wait
    until the candidate loop reaches it.  The list has one entry per
    candidate, in trial order, and no two candidates share any work.
    """
    grad, f_n = state.grad_n, state.f_n
    steps = []  # (t, axis, entry) per direction
    _, ww, scale = rescaled(grad)
    if 0.0 < ww < math.inf and math.isfinite(t := -f_n / (scale * ww)):
        steps.append((t, None, 0.0))
    axes = np.flatnonzero(grad)
    for j, g in zip(axes.tolist(), grad[axes].tolist()):
        # the same step along the one-hot direction, in plain floats: ``rescaled``
        # keeps g*g in the normal range and otherwise divides by |g|
        gg = g * g
        if 2.0 ** -1022 <= gg < math.inf:
            entry, t = g, -f_n / gg
        else:
            entry, t = g / abs(g), -f_n / abs(g)
        if math.isfinite(t):
            steps.append((t, j, entry))
    points = range(len(state.problem.comps[-1].signs))
    return [partial(_landing_point, state, t, k, axis, entry)
            for t, axis, entry in steps for k in points]


def bit_mutation_candidates(state: IterationState) -> np.ndarray:
    """One candidate per bit of each integer parameter of the last function, one per row.

    Flipping bit j of a value changes it by y = +-2**(j-1) (in unsigned
    arithmetic), so the mutated inputs lie on the root-space plane where
    coordinate i moved by exactly y.  With c the root-space i-th
    coordinates of the basis vectors, every local vector u with u . c = y
    lifts onto that plane, and since the lifted rows are orthonormal the
    one lifting closest to y*e_i is the least-norm solution y*c/(c . c).
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


def random_candidates(state: IterationState, rng: np.random.Generator) -> np.ndarray:
    """``SAMPLES_PER_CUBE`` uniform samples from a cube around the origin, one per row.

    The cube half-edge grows logarithmically with the last function's
    magnitude.  The paper samples a second cube, around the linearised
    descent target; the grad-step candidates already try that target, and
    no sample of that cube was ever accepted in the benchmark.  A level of
    size 0 draws nothing.
    """
    dim_local = state.chain.rows.shape[0]
    if dim_local == 0:
        return np.empty((0, 0))
    half_edge = CUBE_SCALE * math.log(abs(state.f_n) + 1.0)
    return rng.uniform(-half_edge, half_edge, size=(SAMPLES_PER_CUBE, dim_local))


def _candidates(state: IterationState, rng: np.random.Generator,
                move: np.ndarray | None = None) -> Iterable[tuple[str, np.ndarray]]:
    """Every generator's proposals in trial order, each tried once, as root-space points.

    ``move``, when given, is a root-space step: twice the move of the last
    accepted grad-step or pattern candidate.  Its projection onto the last
    local space, whose rows are orthonormal, comes first as the pattern
    candidate.  The loop stops at the first accepted candidate, so the work
    on a candidate waits until the loop reaches it.  The pattern candidate
    and each grad-step candidate are clipped and lifted one at a time, and a
    grad-step candidate's line step waits with them: each one is called
    here, when its turn comes.  The bit mutations and the random samples
    are each lifted as one block once the loop reaches their generator:
    dead ends try every sample, and a block's arithmetic is each row's, bit
    for bit.  The pattern and grad-step candidates are clipped along the
    gradient's tangent in the first round, so that the prefix predicates
    keep holding at the descent target.  Bit mutations and random samples
    are tried as drawn: clipping either solved no more problems in the
    benchmark and cost extra evaluations.  A sample that breaks the first
    prefix predicate costs one call, since ``eval_prefix`` stops there.
    """
    constraints, vec, chain = state.constraints, state.vec, state.chain
    if move is not None:
        yield PATTERN, vec + chain.lift(clip(dot(chain.rows, move), constraints))
    for candidate in grad_step_candidates(state):
        yield GRAD_STEP, vec + chain.lift(clip(candidate(), constraints))
    for point in vec + chain.lift_rows(bit_mutation_candidates(state)):
        yield BIT_MUT, point
    for point in vec + chain.lift_rows(random_candidates(state, rng)):
        yield RANDOM, point


def _bits(valuation: Valuation) -> tuple:
    """``valuation``'s values, keyed bit for bit: -0.0 and 0.0 differ."""
    return tuple(v.hex() if isinstance(v, float) else v for v in valuation.values)


def _doubled_move(origin: np.ndarray, accepted: Valuation, source: str) -> np.ndarray | None:
    """Twice the root-space move from ``origin`` to a grad-step or pattern candidate.

    Any other source, or a move that overflows, carries nothing.  Runs under
    ``solve``'s float policy.
    """
    if source not in (GRAD_STEP, PATTERN):
        return None
    move = 2.0 * (embed(accepted) - origin)
    return move if np.all(np.isfinite(move)) else None


def solve(problem: CoverageProblem,
          config: SolverConfig | None = None) -> SolverResult:
    """Search for a solution of ``problem``.

    The problem should be reduced first (see ``problem.reduce_problem``);
    solving works on unreduced problems too, just in more dimensions.
    Identical problem, configuration and seed give an identical result.
    Each call runs the search, black-box calls included, under one float
    policy: numpy does not warn about overflow or invalid results, which the
    search expects and checks for itself.
    """
    config = config or SolverConfig()
    budget = _Budget(config.max_evaluations)
    fns = tuple(_counted(fn, budget) for fn in problem.fns)
    comps = problem.comps
    comp_last = comps[-1]
    rng = np.random.default_rng(config.rng_seed)

    current, current_values = problem.init, problem.init_values
    move: np.ndarray | None = None  # twice the last grad-step or pattern move
    log: list[IterationRecord] = []
    iteration = 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while iteration < config.max_iterations:
                iteration += 1
                state = build_spaces(problem, current, current_values, fns=fns)
                accepted: Valuation | None = None
                tried = {_bits(current)}
                for source, point in _candidates(state, rng, move):
                    try:
                        candidate = extract(point, current.signature)
                    except ExtractionError:
                        continue
                    key = _bits(candidate)
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
                    if comp_last.improves(state.f_n, value):
                        log.append(IterationRecord(iteration, source, value))
                        accepted, current_values = candidate, record.values
                        move = _doubled_move(state.vec, candidate, source)
                        break
                if accepted is None:
                    return SolverResult(Status.FAILED_NO_PROGRESS, None, iteration,
                                        budget.used, tuple(log))
                current = accepted
        except _BudgetExhausted:
            pass
    return SolverResult(Status.FAILED_BUDGET, None, iteration, budget.used,
                        tuple(log))
