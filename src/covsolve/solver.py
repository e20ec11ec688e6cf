"""The search for a solution of a coverage problem.

README.md ("The problem and the search") states one iteration's steps in
trial order.  ``build_spaces`` derives an iteration's state from the
current valuation.  The generators hand the candidate loop plain data, and
``_candidates`` clips, lifts and extracts each candidate to a valuation only
when the loop reaches it, so nothing after the accepted candidate is built.

The tests pin these invariants:

- the same problem and ``SolverConfig`` give the same ``SolverResult``;
- a block of candidates is lifted, bit for bit, as its rows would be one
  at a time;
- an iteration that reaches the random samples draws its whole block of
  ``SAMPLES_PER_CUBE``, and a solve that draws none builds no generator;
- the samples are numpy's ``default_rng(rng_seed)`` uniform stream, bit for
  bit, computed by ``pcg64.PCG64``, so no solve imports ``numpy.random``;
- a solve calls each function once per distinct valuation of its
  ``params``, bit for bit, and never at ``init`` (``_Ledger``): under
  ``BlackBoxFn``'s contracts a repeat could only return a known result.
"""

from __future__ import annotations

import enum
import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from itertools import compress
from operator import index, itemgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from .constraints import Constraint, clip, transform_constraint
from .localspace import BasisChain, dot, next_basis, rescaled, vector_norm
from .numerics import NoStepError, epsilon_along_line, epsilon_from_value
from .pcg64 import PCG64
from .problem import BlackBoxFn, CoverageProblem, Outcome, eval_prefix
from .vecspace import ExtractionError, Signature, Valuation, embed, extract, extract_rows

#: A variable whose root coordinates in the last local space all lie below
#: this magnitude is out of reach of bit mutations.
PIVOT_GUARD = 1e-12

#: Weight of |F_n| against the landing point's magnitude in the grad-step epsilon.
ALPHA = 0.01

#: Random samples drawn from the cube, and tried, in each iteration.
SAMPLES_PER_CUBE = 48

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
    """Budgets and seed of the search, each an integer (a bool is not one)."""

    max_iterations: int = 100
    max_evaluations: int = 100_000
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("max_iterations", 1), ("max_evaluations", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            try:
                index(value)
            except TypeError:
                raise TypeError(f"{name} must be an integer, not {value!r}") from None
            if isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, not a bool")
            if value < least:
                raise ValueError(f"{name} must be at least {least}")


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


_MISS = object()  # a key the ledger holds no result for


class _Ledger:
    """One black-box function's calls in one solve: one call per distinct ``params`` valuation.

    Under ``BlackBoxFn``'s contracts a result depends only on the ``params``
    values, bit for bit, so a repeat is answered from the ledger without a
    call or a charge.  A call is keyed by the ``params`` columns, followed
    by the positions of any -0.0 among them.  A run of consecutive columns
    is taken as one slice; the whole valuation's slice is its own tuple, so
    that key costs no copy.  A miss is charged to the budget, then called,
    and its result is stored, None included; a call that raises is not
    stored.  ``origin``'s key holds ``value`` from the start.  ``floats``
    holds the positions of the float variables.
    """

    __slots__ = ("params", "call")

    def __init__(self, fn: BlackBoxFn, budget: _Budget, origin: Valuation, value: float,
                 floats: set[int]):
        positions = origin.signature.positions
        cols = [positions[name] for name in fn.params]
        start = cols[0] if cols else 0
        if cols == list(range(start, start + len(cols))):
            columns = itemgetter(slice(start, start + len(cols)))
        else:
            columns = itemgetter(*cols)
        signed = not floats.isdisjoint(cols)  # a key may hold -0.0
        key = columns(origin.values)
        if signed and not all(key):
            key += _negative_zeros(key)
        results = {key: value}
        known, evaluate = results.get, fn.call

        def call(valuation: Valuation) -> float | None:
            key = columns(valuation.values)
            if signed and not all(key):  # a zero, which may be -0.0
                key += _negative_zeros(key)
            result = known(key, _MISS)
            if result is _MISS:
                if budget.used >= budget.limit:
                    raise _BudgetExhausted
                budget.used += 1
                result = results[key] = evaluate(valuation)
            return result

        self.params, self.call = fn.params, call


def _negative_zeros(key: tuple) -> tuple[int, ...]:
    """The positions of -0.0 in ``key``: neither ``==`` nor ``hash`` tells it from 0.0."""
    return tuple(k for k, v in enumerate(key) if v == 0.0 and math.copysign(1.0, v) < 0.0)


def _ledgers(problem: CoverageProblem, budget: _Budget) -> tuple[_Ledger, ...]:
    """A ledger for each of ``problem``'s functions, holding its value at ``init``."""
    init = problem.init
    floats = {i for i, typ in enumerate(init.signature.types) if not typ.is_integer}
    return tuple(_Ledger(fn, budget, init, value, floats)
                 for fn, value in zip(problem.fns, problem.init_values))


def finite_diff_gradient(fn: BlackBoxFn, origin: Valuation, origin_value: float,
                         lifted: np.ndarray, eps_seed: float) -> np.ndarray:
    """Forward-difference gradient of ``fn`` at ``origin`` along each row of ``lifted``.

    ``origin_value`` is the already-known value at ``origin``.  Row j's step
    is the line step from ``origin`` along the row, seeded with
    ``eps_seed``; it rounds only the row's nonzero coordinates, and every
    other coordinate keeps ``origin``'s value exactly.  A failing call at
    ``origin + eps*row``, or one whose difference quotient overflows, is
    retried at ``origin - eps*row``; with no step, or both attempts
    failing, the partial derivative is zero.  A row with no component on
    any of ``fn.params`` has partial zero without a step or a call.

    A partial is *absorbed* when its call returned exactly ``origin_value``
    and its step lies below ``math.ulp(origin_value)``.  It is retaken once,
    with the same two calls, at the line step seeded with
    ``epsilon_from_value(origin_value)``.
    """
    signature, values = origin.signature, origin.values
    types, starts = signature.types, [float(v) for v in values]
    grad = np.zeros(lifted.shape[0], dtype=np.float64)
    cols = [signature.positions[name] for name in fn.params]
    if len(set(cols)) == lifted.shape[1]:  # fn reads every variable: no column mask
        rows = enumerate(lifted.tolist())
    else:
        live = np.flatnonzero(lifted[:, cols].any(axis=1))
        rows = zip(live.tolist(), lifted[live].tolist())
    axes = range(lifted.shape[1])
    for j, entries in rows:
        moves = list(compress(entries, entries))
        if not moves:  # a zero row moves nothing
            continue
        row, moved = lifted[j], list(compress(axes, entries))
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
    axis with a nonzero partial derivative.  A gradient with one nonzero
    partial and no -0.0 is its own axis direction, bit for bit, and gives
    None alone.  A zero gradient gives no direction.  ``_landings`` builds
    a direction's candidates when the candidate loop reaches it.
    """
    grad = state.grad_n
    axes = np.flatnonzero(grad).tolist()
    if len(axes) == 1 and not np.signbit(grad[grad == 0.0]).any():
        return [None]
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


def bit_mutation_candidates(state: IterationState) -> list[tuple[np.ndarray, list[float]]]:
    """The bit mutations of each integer parameter of the last function, one entry per variable.

    Flipping bit j of variable i changes it by y = +-2**j (in unsigned
    arithmetic).  With c the root-space i-th coordinates of the basis rows,
    the local vector whose lift moves coordinate i by exactly y and lies
    closest to y*e_i is the least-norm solution y*c/(c . c).  An entry is
    ``(u, ys)`` with u = c/(c . c) and each bit's y in bit order: bit j's
    candidate is the row ``ys[j] * u + 0.0``.  A variable whose coordinates
    all lie below ``PIVOT_GUARD`` in magnitude gets no entry.
    """
    signature = state.valuation.signature
    lifted = state.chain.rows
    params = set(state.problem.fns[-1].params)
    out: list[tuple[np.ndarray, list[float]]] = []

    for i, (name, typ) in enumerate(zip(signature.names, signature.types)):
        if name not in params or not typ.is_integer:
            continue
        coords = lifted[:, i]
        if float(np.abs(coords).max(initial=0.0)) < PIVOT_GUARD:
            continue  # no basis vector reaches this variable's axis
        width = typ.bit_width
        raw = int(state.valuation.values[i]) & ((1 << width) - 1)
        ys = [float((1 - 2 * ((raw >> j) & 1)) * (1 << j)) for j in range(width)]
        out.append((coords / float(dot(coords, coords)), ys))
    return out


def _lifted_bit_mutations(state: IterationState) -> Iterator[np.ndarray]:
    """Each variable's bit mutations in root coordinates, one variable's rows at a time."""
    for u, ys in bit_mutation_candidates(state):
        # a negative y makes -0.0 of a zero; + 0.0 undoes it
        yield state.chain.lift_rows(np.outer(ys, u) + 0.0)


def random_candidates(state: IterationState, rng: Callable[[], PCG64]) -> np.ndarray:
    """``SAMPLES_PER_CUBE`` uniform samples from a cube around the origin, one per row.

    The cube's half-edge is ``CUBE_SCALE * log(|F_n| + 1)``.  ``rng`` is a
    zero-argument factory of the generator, called only for a draw: ``solve``
    makes a ``PCG64``, and a numpy ``Generator`` serves as well.  A level of
    size 0 draws nothing.
    """
    dim_local = state.chain.rows.shape[0]
    if dim_local == 0:
        return np.empty((0, 0))
    half_edge = CUBE_SCALE * math.log(abs(state.f_n) + 1.0)
    return rng().uniform(-half_edge, half_edge, size=(SAMPLES_PER_CUBE, dim_local))


def _candidates(state: IterationState, rng: Callable[[], PCG64],
                move: np.ndarray | None = None) -> Iterator[tuple[str, Valuation]]:
    """Every generator's proposals in trial order, each tried once, as valuations.

    Each candidate comes as (source, valuation), the valuation its root-space
    point extracts to; a point that does not extract is passed over.
    ``move``, when given, is twice the last accepted grad-step or pattern
    move in root space; its projection onto the last local space comes
    first.  Then come every direction's grad-step landings, all of them
    again scaled by 2**-k for k = 1 .. ``BACKTRACK_HALVINGS`` with no line
    step taken twice, the bit mutations one variable at a time, and the
    random samples.  Pattern and grad-step candidates are clipped; the
    others are not.  A candidate may repeat an earlier one: the ledgers
    answer its calls.
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
    for rows in _lifted_bit_mutations(state):
        for values in extract_rows(vec + rows, signature):
            yield BIT_MUT, Valuation._rounded(signature, values)
    for values in extract_rows(vec + chain.lift_rows(random_candidates(state, rng)), signature):
        yield RANDOM, Valuation._rounded(signature, values)


def _extracted(source: str, point: np.ndarray,
               signature: Signature) -> Iterator[tuple[str, Valuation]]:
    """``point``'s candidate as ``_candidates`` yields it, or nothing if it does not extract."""
    try:
        valuation = extract(point, signature)
    except ExtractionError:
        return
    yield source, valuation


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
    The random generator, a ``PCG64`` seeded with ``config.rng_seed``, draws
    numpy's ``default_rng(rng_seed)`` stream without importing
    ``numpy.random``; it is made through a cached factory at the solve's
    first random draw, so a solve that draws nothing builds none.
    Each call runs the search, black-box calls included, under one float
    policy: numpy does not warn about overflow or invalid results, which the
    search expects and checks for itself.
    """
    config = config or SolverConfig()
    budget = _Budget(config.max_evaluations)
    fns = _ledgers(problem, budget)
    comps = problem.comps
    comp_last = comps[-1]
    rng = cache(lambda: PCG64(index(config.rng_seed)))

    current, current_values = problem.init, problem.init_values
    move: np.ndarray | None = None  # twice the last grad-step or pattern move
    log: list[IterationRecord] = []
    iteration = 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while iteration < config.max_iterations:
                iteration += 1
                state = build_spaces(problem, current, current_values, fns=fns)
                for source, candidate in _candidates(state, rng, move):
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
                        current, current_values = candidate, record.values
                        move = _doubled_move(state.vec, candidate, source)
                        break
                else:
                    return SolverResult(Status.FAILED_NO_PROGRESS, None, iteration,
                                        budget.used, tuple(log))
        except _BudgetExhausted:
            pass
    return SolverResult(Status.FAILED_BUDGET, None, iteration, budget.used,
                        tuple(log))
