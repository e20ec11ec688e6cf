"""Iterative search for a solution of a coverage problem.

Each iteration rebuilds the chain of local spaces and the prefix constraints
at the current valuation, generates candidate vectors in the last local space by
three strategies (a gradient-descent step, bit mutations aimed in closed
form at the nearest point of each bit's plane, random samples), and
accepts the first candidate that either solves the problem or brings the
last function's value strictly closer to satisfying its comparator.  The
generators only propose vectors; the candidate loop tries each once,
clipping grad-step and random candidates into the prefix constraints
only when it reaches them.

Black-box calls are the search's cost.  A gradient skips the directions
that move none of a function's ``params``, and retakes a partial only when
its step vanished in the function's value, once and with at most two more
calls.  The first iteration starts from
the prefix values the problem's construction obtained at ``init``, and each
later one from those its accepted candidate obtained, so no iteration calls
the prefix at its start.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .constraints import Constraint, clip, transform_constraint
from .localspace import BasisChain, next_basis, vector_norm
from .numerics import NoStepError, epsilon_along_line, epsilon_from_value
from .problem import BlackBoxFn, CoverageProblem, Outcome, eval_prefix
from .vecspace import Comparator, ExtractionError, Signature, Valuation, embed, extract

logger = logging.getLogger(__name__)

#: A variable whose root coordinates in the last local space all lie below
#: this magnitude is out of reach of bit mutations.
PIVOT_GUARD = 1e-12

#: Weight of |F_n| against the landing point's magnitude in the grad-step epsilon.
ALPHA = 0.01

#: Random samples drawn per cube.
SAMPLES_PER_CUBE = 100

#: Random cube half-edge per unit of log(|F_n| + 1).
CUBE_SCALE = 100.0

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


def finite_diff_gradient(fn: BlackBoxFn, origin_value: float, vec: np.ndarray,
                         lifted: np.ndarray, signature: Signature,
                         eps_seed: float) -> np.ndarray:
    """Forward-difference gradient of ``fn`` at ``vec`` along each row of ``lifted``.

    ``origin_value`` is the already-known value at ``vec``.  Row j's step is
    the line step from ``vec`` along the row, seeded with ``eps_seed``.  A
    failing call at ``vec + eps*row``, or one whose difference quotient
    overflows, is retried at ``vec - eps*row``; with no step, or both
    attempts failing, the partial derivative is zero.  A row with no
    component on any of ``fn.params`` moves no input ``fn`` reads, so its
    partial is zero without a step or a call.  Calling there would differ
    from ``origin_value`` only where ``embed`` rounded a 64-bit integer
    parameter past 2**53, and then measure that rounding, not the row.

    A partial is *absorbed* when its call returned exactly ``origin_value``
    and its step lies below ``math.ulp(origin_value)``: the value is too
    large for that step to register in it, as with x1 + x2 - 3.2e18 moved
    by 1.  An absorbed partial is retaken once, with the same two calls,
    at the line step seeded with ``epsilon_from_value(origin_value)``, so
    that the step is scaled to the function's value rather than to the
    point's.  A partial that is not absorbed costs nothing more.
    """
    grad = np.zeros(lifted.shape[0], dtype=np.float64)
    cols = [signature.positions[name] for name in fn.params]
    for j in np.flatnonzero(lifted[:, cols].any(axis=1)):
        row = lifted[j]
        seed = eps_seed
        for _ in range(2):  # the first step, then at most one retake
            try:
                eps = epsilon_along_line(vec, row, seed, signature)
            except NoStepError:
                break
            if eps == 0.0:
                break
            value = None
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
    function crosses zero.  Once the chain is built, each constraint is
    projected into the last space, newest first.

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

    n = len(fns)
    for i in range(1, n):
        grad = finite_diff_gradient(fns[i - 1], values[i - 1], vec,
                                    chain.lifted(i), signature, eps_seed)
        grad_norm = vector_norm(grad)
        append = comps[i - 1] is not Comparator.EQ and grad_norm > 0.0
        chain.extend(next_basis(grad, chain.dim_at(i), append_gradient=append))
        if append and math.isfinite(bound := -values[i - 1] / grad_norm):
            rooted.append(Constraint(chain.lifted(i + 1)[-1], bound, comps[i - 1]))

    last = chain.lifted(n)
    moved = (transform_constraint(c, last) for c in reversed(rooted))
    constraints = tuple(c for c in moved if c is not None)
    grad_n = finite_diff_gradient(fns[n - 1], values[n - 1], vec,
                                  last, signature, eps_seed)
    return IterationState(problem, valuation, vec, chain, constraints, grad_n, values)


_P_VALUES = {
    Comparator.EQ: lambda t, e: (t,),
    Comparator.NEQ: lambda t, e: (t - e, t + e),
    Comparator.LT: lambda t, e: (t - e,),
    Comparator.LE: lambda t, e: (t - e, t),
    Comparator.GT: lambda t, e: (t + e,),
    Comparator.GE: lambda t, e: (t, t + e),
}


def grad_step_candidates(state: IterationState) -> list[np.ndarray]:
    """Unclipped candidates from one linearised descent step of the last function.

    The step length t solves the linear model F[I + t*grad] = 0; the
    comparator decides which of t, t-eps, t+eps are useful landing points.
    Besides the full gradient direction, a step is taken along every single
    axis with a nonzero partial derivative, which helps escaping local
    minima.
    """
    grad = state.grad_n
    with np.errstate(over="ignore"):
        gg = float(grad @ grad)
    if gg == 0.0:
        return []
    comp = state.problem.comps[-1]
    f_n = state.f_n
    signature = state.valuation.signature
    out: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for direction in [grad, *(row for row in np.diag(grad) if row.any())]:
            dd = float(direction @ direction)
            if dd == 0.0 or not math.isfinite(dd):
                continue
            t = -f_n / dd
            if not math.isfinite(t):
                continue
            d_root = state.chain.lift(direction)
            z = ((1.0 - ALPHA) * float(np.max(np.abs(state.vec + t * d_root)))
                 + ALPHA * abs(f_n))
            try:
                eps = epsilon_along_line(state.vec, d_root, epsilon_from_value(z),
                                         signature) if math.isfinite(z) else 0.0
            except NoStepError:
                eps = 0.0
            out.extend(p * direction for p in _P_VALUES[comp](t, eps))
    return out


def bit_mutation_candidates(state: IterationState) -> list[np.ndarray]:
    """One candidate per bit of each integer parameter of the last function.

    Flipping bit j of a value changes it by y = +-2**(j-1) (in unsigned
    arithmetic), so the mutated inputs lie on the root-space plane where
    coordinate i moved by exactly y.  With c the root-space i-th
    coordinates of the basis vectors, every local vector u with u . c = y
    lifts onto that plane, and since the lifted rows are orthonormal the
    one lifting closest to y*e_i is the least-norm solution y*c/(c . c).
    """
    signature = state.valuation.signature
    lifted = state.chain.lifted(len(state.chain))
    if lifted.shape[0] == 0:
        return []
    params = set(state.problem.fns[-1].params)
    out: list[np.ndarray] = []

    for i, (name, typ) in enumerate(zip(signature.names, signature.types)):
        if name not in params:
            continue
        if not typ.is_integer:
            logger.debug("bit mutations skip float-typed variable %s", name)
            continue
        coords = lifted[:, i]
        if float(np.max(np.abs(coords))) < PIVOT_GUARD:
            continue  # no basis vector reaches this variable's axis
        u = coords / float(coords @ coords)
        width = typ.bit_width
        raw = int(state.valuation.values[i]) & ((1 << width) - 1)
        ys = [float((1 - 2 * ((raw >> j) & 1)) * (1 << j)) for j in range(width)]
        out.extend(np.outer(ys, u) + 0.0)  # a negative y makes -0.0 of a zero; + 0.0 undoes it
    return out


def random_candidates(state: IterationState, rng: np.random.Generator) -> list[np.ndarray]:
    """Uniform samples from cubes around the origin and the descent target.

    The cube half-edge grows logarithmically with the last function's
    magnitude.
    """
    dim_local = state.chain.dim_at(len(state.chain))
    if dim_local == 0:
        return []
    half_edge = CUBE_SCALE * math.log(abs(state.f_n) + 1.0)

    centers = [np.zeros(dim_local, dtype=np.float64)]
    with np.errstate(over="ignore", invalid="ignore"):
        gg = float(state.grad_n @ state.grad_n)
        if math.isfinite(gg) and gg > 0.0:
            target = (-state.f_n / gg) * state.grad_n
            if np.all(np.isfinite(target)):
                centers.append(target)

    out: list[np.ndarray] = []
    for center in centers:
        out.extend(center + rng.uniform(-half_edge, half_edge,
                                        size=(SAMPLES_PER_CUBE, dim_local)))
    return out


def improves(comp: Comparator, old_value: float, new_value: float) -> bool:
    """Whether ``new_value`` is strictly closer to satisfying ``comp`` against 0."""
    if comp is Comparator.EQ:
        return abs(new_value) < abs(old_value)
    if comp is Comparator.NEQ:
        return abs(new_value) > abs(old_value)
    if comp in (Comparator.LT, Comparator.LE):
        return new_value < old_value
    return new_value > old_value


def _candidates(state: IterationState,
                rng: np.random.Generator) -> Iterable[tuple[str, np.ndarray]]:
    """Every generator's proposals in trial order, each tried once.

    The loop stops at the first accepted candidate, so clipping waits until
    a candidate is reached.  Grad-step candidates are clipped, along the
    gradient's tangent in the first round, so that the prefix predicates
    keep holding at the descent target, and random samples are clipped
    too.  Bit mutations stay unclipped: clipping them solved no more
    problems in the benchmark and cost extra evaluations.
    """
    constraints, grad = state.constraints, state.grad_n
    for u in grad_step_candidates(state):
        yield GRAD_STEP, clip(u, constraints, grad)
    for u in bit_mutation_candidates(state):
        yield BIT_MUT, u
    for u in random_candidates(state, rng):
        yield RANDOM, clip(u, constraints, grad)


def solve(problem: CoverageProblem,
          config: SolverConfig | None = None) -> SolverResult:
    """Search for a solution of ``problem``.

    The problem should be reduced first (see ``problem.reduce_problem``);
    solving works on unreduced problems too, just in more dimensions.
    Identical problem, configuration and seed give an identical result.
    """
    config = config or SolverConfig()
    budget = _Budget(config.max_evaluations)
    fns = tuple(_counted(fn, budget) for fn in problem.fns)
    comps = problem.comps
    comp_last = comps[-1]
    rng = np.random.default_rng(config.rng_seed)

    current, current_values = problem.init, problem.init_values
    log: list[IterationRecord] = []
    iteration = 0
    try:
        while iteration < config.max_iterations:
            iteration += 1
            state = build_spaces(problem, current, current_values, fns=fns)
            accepted: Valuation | None = None
            for source, u in _candidates(state, rng):
                with np.errstate(over="ignore", invalid="ignore"):
                    point = state.vec + state.chain.lift(u)
                try:
                    candidate = extract(point, current.signature)
                except ExtractionError:
                    continue
                record = eval_prefix(fns, comps, candidate)
                if record.outcome is Outcome.DIVERGED:
                    continue
                value = record.values[-1]
                if record.outcome is Outcome.FULL_TRUE:
                    log.append(IterationRecord(iteration, source, value))
                    return SolverResult(Status.SOLVED, candidate, iteration,
                                        budget.used, tuple(log))
                if improves(comp_last, state.f_n, value):
                    log.append(IterationRecord(iteration, source, value))
                    accepted, current_values = candidate, record.values
                    break
            if accepted is None:
                return SolverResult(Status.FAILED_NO_PROGRESS, None, iteration,
                                    budget.used, tuple(log))
            current = accepted
    except _BudgetExhausted:
        pass
    return SolverResult(Status.FAILED_BUDGET, None, iteration, budget.used,
                        tuple(log))
