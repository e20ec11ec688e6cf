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
and grad-step candidates are clipped and lifted one at a time, and the
grad-step generator hands the loop plain directions, whose landing points
and the one line step each direction's landings share wait for the loop
too: the first candidate usually solves or improves, and the loop stops
there.  After the full landings the loop backtracks, as an Armijo line
search does (Nocedal & Wright, *Numerical Optimization*, ch. 3): it walks
the same landings again, scaled by 1/2, 1/4 and 1/8, so that a full step
that leaves a rounded prefix link by a few ulps lands inside it.
The bit mutations and the random samples are each lifted and rounded to
typed values as one block, unclipped, once the loop reaches their
generator: the search tries them only when nothing before them was
accepted, and then often all of them.  Of the random block only the first
``SAMPLES_TRIED`` rows are tried, since an accepted sample comes early; all
``SAMPLES_PER_CUBE`` are drawn, so later iterations draw the same.

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
was not accepted.  Its key is its values tuple with the positions of any
-0.0 appended, since ``==`` does not tell -0.0 from 0.0.

Per black-box call, the search's own work mostly sits in two loops over
rows.  A gradient reads its live basis rows once, as plain floats, and a
line step along one axis takes its epsilon in plain floats; a block of
candidates is rounded by type columns in numpy and keyed from its rows,
with no work per value.
"""

from __future__ import annotations

import enum
import math
from contextlib import suppress
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Sequence

import numpy as np

from .constraints import Constraint, clip, transform_constraint
from .localspace import BasisChain, dot, next_basis, rescaled, vector_norm
from .numerics import NoStepError, epsilon_along_line, epsilon_from_value
from .problem import BlackBoxFn, CoverageProblem, Outcome, eval_prefix
from .vecspace import ExtractionError, Signature, Valuation, embed, extract, extract_rows

#: A variable whose root coordinates in the last local space all lie below
#: this magnitude is out of reach of bit mutations.
PIVOT_GUARD = 1e-12

#: Weight of |F_n| against the landing point's magnitude in the grad-step epsilon.
ALPHA = 0.01

#: Random samples drawn from the cube in each iteration.
SAMPLES_PER_CUBE = 100

#: The first drawn samples that are tried; the rest are drawn, never tried.
SAMPLES_TRIED = 48

#: Grad-step landings are tried again scaled by 2**-k, k = 1 .. this.
BACKTRACK_HALVINGS = 3

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
    The live rows are read once, as plain floats: each row's nonzero
    coordinates and entries, and its square, taken by ``dot`` only where the
    row moves several axes.  ``rescaled`` is called only for a square
    outside the normal range.  Each line step takes them as its ``line``.
    """
    signature, values = origin.signature, origin.values
    types, starts = signature.types, [float(v) for v in values]
    grad = np.zeros(lifted.shape[0], dtype=np.float64)
    cols = [signature.positions[name] for name in fn.params]
    live = np.flatnonzero(lifted[:, cols].any(axis=1))
    axes = range(lifted.shape[1])
    for j, entries in zip(live.tolist(), lifted[live].tolist()):
        row = lifted[j]
        moved, moves = list(compress(axes, entries)), list(compress(entries, entries))
        # numpy's sum of one nonzero product is that product
        square = moves[0] * moves[0] if len(moves) == 1 else float(dot(row, row))
        scale = 1.0
        if not 2.0 ** -1022 <= square < math.inf:  # rescaled's own test
            _, square, scale = rescaled(row)
        line = (moved, moves, square, scale)
        seed = eps_seed
        for _ in range(2):  # the first step, then at most one retake
            try:
                eps = epsilon_along_line(origin, row, seed, line)
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


def grad_step_candidates(state: IterationState) -> list[int | None]:
    """The directions of one linearised descent step of the last function, in trial order.

    None stands for the full gradient; it is followed by the index of every
    axis with a nonzero partial derivative, whose single-axis step helps
    escaping local minima.  A zero gradient gives no direction.  The list
    holds no vector: ``_landings`` builds a direction's candidates when the
    candidate loop reaches it.
    """
    axes = np.flatnonzero(state.grad_n).tolist()
    return [None, *axes] if axes else []


def _landings(state: IterationState, axis: int | None) -> Iterator[np.ndarray]:
    """Unclipped grad-step candidates along one direction, one per landing point.

    The direction is the gradient for ``axis`` None, and otherwise zero but
    for the gradient's entry at ``axis``.  The step length t solves the
    linear model F[I + t*w] = 0 along w, the direction as ``rescaled``
    gives it, so t is finite wherever t*w is; a direction without a finite
    t yields nothing.  The comparator's landing points decide which of t,
    t-eps, t+eps are tried, in its order.  A landing at t itself takes no
    line step; the first one that moves off t takes the direction's line
    step, and every later landing reuses it.
    """
    grad = state.grad_n
    if axis is None:
        direction = grad
    else:
        direction = np.zeros(len(grad))
        direction[axis] = grad[axis]
    w, ww, scale = rescaled(direction)
    if not (0.0 < ww < math.inf and math.isfinite(t := -state.f_n / (scale * ww))):
        return
    comp = state.problem.comps[-1]
    eps, stepped = 0.0, False
    for k, sign in enumerate(comp.signs):
        if sign and not stepped:
            stepped = True
            d_root = state.chain.lift(w)
            z = (1.0 - ALPHA) * float(np.max(np.abs(state.vec + t * d_root))) + ALPHA * abs(state.f_n)
            if math.isfinite(z):
                with suppress(NoStepError):
                    eps = epsilon_along_line(state.valuation, d_root, epsilon_from_value(z))
        yield comp.landing(t, eps)[k] * w


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

    The candidate loop tries the first ``SAMPLES_TRIED`` rows.  All are
    drawn, so the generator's stream, and every later iteration's draw, does
    not depend on how many are tried.  The cube half-edge grows
    logarithmically with the last function's magnitude.  The paper samples
    a second cube, around the linearised descent target; the grad-step
    candidates already try that target, and no sample of that cube was ever
    accepted in the benchmark.  A level of size 0 draws nothing.
    """
    dim_local = state.chain.rows.shape[0]
    if dim_local == 0:
        return np.empty((0, 0))
    half_edge = CUBE_SCALE * math.log(abs(state.f_n) + 1.0)
    return rng.uniform(-half_edge, half_edge, size=(SAMPLES_PER_CUBE, dim_local))


def _candidates(state: IterationState, rng: np.random.Generator,
                move: np.ndarray | None = None) -> Iterator[tuple[str, tuple, tuple]]:
    """Every generator's proposals in trial order, each tried once, as typed values.

    Each candidate comes as (source, values, key): the values its root-space
    point extracts to, and their repeat key (see ``_key``); a point that
    does not extract is passed over.
    ``move``, when given, is a root-space step: twice the move of the last
    accepted grad-step or pattern candidate.  Its projection onto the last
    local space, whose rows are orthonormal, comes first as the pattern
    candidate.  The loop stops at the first accepted candidate, so the work
    on a candidate waits until the loop reaches it.  The pattern candidate
    and each grad-step candidate are clipped, lifted and extracted one at a
    time.  The grad-step directions are walked here, each by ``_landings``,
    so a direction's line step waits until the loop reaches the first
    landing that needs it.  The walk keeps every landing, and the loop then
    backtracks: for k = 1 .. ``BACKTRACK_HALVINGS``, every kept landing
    scaled by 2**-k is clipped, lifted and extracted, labelled ``grad-step``
    too, so no line step is taken twice.  The bit mutations and the first
    ``SAMPLES_TRIED`` random samples are each lifted and extracted as one
    block once the loop reaches their generator: dead ends try every row,
    and a block's arithmetic and rounding are each row's, bit for bit.
    The pattern and grad-step candidates are clipped along the gradient's
    tangent in the first round, so that the prefix predicates keep holding
    at the descent target.  Bit mutations and random samples are tried as
    drawn: clipping either solved no more problems in the benchmark and
    cost extra evaluations.  A sample that breaks the first prefix
    predicate costs one call, since ``eval_prefix`` stops there.
    """
    constraints, vec, chain = state.constraints, state.vec, state.chain
    signature = state.valuation.signature
    if move is not None:
        yield from _extracted(PATTERN, vec + chain.lift(clip(dot(chain.rows, move), constraints)),
                              signature)
    landings: list[np.ndarray] = []  # every direction's, in the first walk's order
    for axis in grad_step_candidates(state):
        for u in _landings(state, axis):
            landings.append(u)
            yield from _extracted(GRAD_STEP, vec + chain.lift(clip(u, constraints)), signature)
    for k in range(1, BACKTRACK_HALVINGS + 1):
        for u in landings:
            yield from _extracted(GRAD_STEP, vec + chain.lift(clip(2.0 ** -k * u, constraints)),
                                  signature)
    for values, zeros in zip(*extract_rows(
            vec + chain.lift_rows(bit_mutation_candidates(state)), signature)):
        yield BIT_MUT, values, values + zeros
    for values, zeros in zip(*extract_rows(
            vec + chain.lift_rows(random_candidates(state, rng)[:SAMPLES_TRIED]), signature)):
        yield RANDOM, values, values + zeros


def _extracted(source: str, point: np.ndarray,
               signature: Signature) -> Iterator[tuple[str, tuple, tuple]]:
    """``point``'s candidate as ``_candidates`` yields it, or nothing if it does not extract."""
    try:
        values = extract(point, signature).values
    except ExtractionError:
        return
    yield source, values, _key(values)


def _key(values: tuple) -> tuple:
    """``values`` keyed bit for bit: the tuple, then the positions of any -0.0 in it.

    ``==`` does not tell -0.0 from 0.0, so two keys are equal exactly when
    the values are, bit for bit.  ``extract_rows`` gives a block's positions.
    """
    return values + tuple(i for i, v in enumerate(values)
                          if v == 0 and math.copysign(1.0, v) < 0.0)


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
    signature = problem.init.signature

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
                tried = {_key(current.values)}
                for source, values, key in _candidates(state, rng, move):
                    if key in tried:
                        continue
                    tried.add(key)
                    candidate = Valuation._rounded(signature, values)
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
