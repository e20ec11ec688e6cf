"""Coverage problems: black-box distance functions, traces, and reduction.

A coverage problem is a vector of black-box signed-distance functions, a
comparator per function, and an initial valuation at which every prefix
predicate holds and the last one fails.  Solving it means finding a
valuation that keeps the prefix true and flips the last predicate.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .vecspace import Comparator, ScalarType, Signature, Valuation


class InvalidProblemError(ValueError):
    """The given functions, comparators and valuation form no coverage problem."""


@dataclass(frozen=True)
class BlackBoxFn:
    """A black-box function from input variables to a 64-bit float.

    ``eval`` receives a valuation covering at least ``params`` and returns
    the value (an ``int``, a ``float`` or a numpy real scalar), or None when
    the parameters fall outside the function's domain.  Raising
    ``ArithmeticError`` (such as ``ZeroDivisionError``) or ``ValueError``
    (such as a math domain error) also marks the call as failed.

    Two contracts let the solver save calls:

    - ``params`` lists every variable ``eval`` reads.  A partial derivative
      along a direction that moves none of them is taken as 0 without a
      call, so a variable read but not listed is silently ignored.
    - ``eval`` is pure: equal valuations yield equal results.  The only
      results kept are the prefix values that construction obtains at
      ``init``, where the search starts, and those of each accepted
      candidate, where the next iteration starts; the prefix is not called
      again at either.  A box that is not pure still ends ``solve`` in a
      result, but a solution it reports may fail a later check.
    """

    params: tuple[str, ...]
    eval: Callable[[Valuation], float | None]
    name: str = ""

    def call(self, valuation: Valuation) -> float | None:
        """Evaluate at ``valuation``; None when the call fails.

        NaN and infinite results, and integers beyond the float range,
        count as failures too.  Exceptions other than ``ArithmeticError``
        and ``ValueError`` propagate, and a result that is not a real
        number (a ``bool``, a ``str``, an array, a ``complex``) raises
        ``TypeError``.
        """
        try:
            result = self.eval(valuation)
        except (ArithmeticError, ValueError):
            return None
        if type(result) is not float:
            if result is None:
                return None
            if isinstance(result, bool) or not isinstance(result, numbers.Real):
                name = self.name or getattr(self.eval, "__qualname__", "a black box")
                raise TypeError(f"{name} returned {type(result).__name__} "
                                f"{result!r}, not a real number")
            try:
                result = float(result)
            except OverflowError:  # an integer beyond the float range
                return None
        if not math.isfinite(result):
            return None
        return result


class Outcome(enum.Enum):
    FULL_TRUE = "full-true"        # all n predicates hold
    DIVERGED = "diverged"          # an earlier predicate failed, or a call failed
    LAST_FALSE = "last-false"      # prefix holds, last predicate fails


@dataclass(frozen=True)
class PrefixEvalRecord:
    """Result of calling F_1..F_n in order at one valuation.

    ``values`` holds the obtained results; when the final attempted call
    failed it yields no value, so ``diverged_at`` (or, without divergence,
    ``len(values)``) counts the attempted calls.
    """

    outcome: Outcome
    values: tuple[float, ...]
    diverged_at: int | None = None  # 1-based index of the failing step


def eval_prefix(fns: Sequence[BlackBoxFn], comps: Sequence[Comparator],
                valuation: Valuation) -> PrefixEvalRecord:
    """Evaluate the functions in order, stopping at the first failure or false predicate."""
    if len(fns) != len(comps):
        raise InvalidProblemError(
            f"{len(fns)} functions but {len(comps)} comparators")
    n = len(fns)
    values: list[float] = []
    for i, (fn, comp) in enumerate(zip(fns, comps), start=1):
        value = fn.call(valuation)
        if value is None:
            return PrefixEvalRecord(Outcome.DIVERGED, tuple(values), diverged_at=i)
        values.append(value)
        if not comp.holds(value):
            if i < n:
                return PrefixEvalRecord(Outcome.DIVERGED, tuple(values), diverged_at=i)
            return PrefixEvalRecord(Outcome.LAST_FALSE, tuple(values))
    return PrefixEvalRecord(Outcome.FULL_TRUE, tuple(values))


@dataclass(frozen=True)
class CoverageProblem:
    """A validated coverage problem (F, P, I) of size n = len(fns).

    Construction is the one validity check; errors name the offending function.
    The prefix values it obtains at ``init`` are kept as ``init_values``.
    """

    fns: tuple[BlackBoxFn, ...]
    comps: tuple[Comparator, ...]
    init: Valuation
    init_values: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.fns) != len(self.comps):
            raise InvalidProblemError(
                f"{len(self.fns)} functions but {len(self.comps)} comparators")
        if not self.fns:
            raise InvalidProblemError("a coverage problem needs at least one function")
        n = len(self.fns)
        if not self.fns[-1].params:
            raise InvalidProblemError(
                f"{self._fn_name(n)} (the flip target) uses no variables")
        declared = set(self.init.signature.names)
        for i, fn in enumerate(self.fns, start=1):
            missing = set(fn.params) - declared
            if missing:
                raise InvalidProblemError(
                    f"{self._fn_name(i)} uses undeclared variables {sorted(missing)}")
        record = eval_prefix(self.fns, self.comps, self.init)
        if record.outcome is Outcome.FULL_TRUE:
            raise InvalidProblemError(
                f"not a coverage problem: {self._fn_name(n)} already holds "
                "at the initial valuation")
        if record.outcome is Outcome.DIVERGED:
            raise InvalidProblemError(
                f"not a coverage problem: {self._fn_name(record.diverged_at)} "
                "fails at the initial valuation")
        object.__setattr__(self, "init_values", record.values)

    def _fn_name(self, index: int) -> str:
        """The 1-based ``index``-th function's name, for error messages."""
        return self.fns[index - 1].name or f"function {index}"

    @property
    def size(self) -> int:
        return len(self.fns)

    @property
    def signature(self):
        return self.init.signature


def is_solution(problem: CoverageProblem, valuation: Valuation) -> bool:
    """Whether ``valuation`` makes every predicate, including the last, true."""
    record = eval_prefix(problem.fns, problem.comps, valuation)
    return record.outcome is Outcome.FULL_TRUE


@dataclass(frozen=True)
class TraceAbe:
    """One executed atomic Boolean expression: distance, comparator, outcome."""

    fn: BlackBoxFn
    comp: Comparator
    outcome: bool


def from_trace(trace: Sequence[TraceAbe], init: Valuation) -> CoverageProblem:
    """Build a coverage problem from executed ABEs.

    Prefix ABEs that evaluated false are stored with the opposite comparator,
    so every prefix predicate reads true at ``init``; the last ABE is flipped
    when it evaluated true, so that it reads false.
    """
    if not trace:
        raise InvalidProblemError("empty trace")
    fns = []
    comps = []
    last = len(trace) - 1
    for i, abe in enumerate(trace):
        flip = (not abe.outcome) if i < last else abe.outcome
        fns.append(abe.fn)
        comps.append(abe.comp.opposite if flip else abe.comp)
    return CoverageProblem(tuple(fns), tuple(comps), init)


def dependency_closure(problem: CoverageProblem) -> frozenset[str]:
    """Variables transitively sharing functions with the last function's parameters."""
    closure = set(problem.fns[-1].params)
    changed = True
    while changed:
        changed = False
        for fn in problem.fns[:-1]:
            params = set(fn.params)
            if closure & params and not params <= closure:
                closure |= params
                changed = True
    return frozenset(closure)


@dataclass(frozen=True)
class Reduction:
    """A reduced coverage problem plus the data to undo the reduction.

    ``dropped`` maps each removed variable to its initial value; extending a
    solution of the reduced problem with those values solves the original.
    """

    problem: CoverageProblem
    original_signature: Signature
    dropped: tuple[tuple[str, ScalarType, int | float], ...]

    def extend(self, solution: Valuation) -> Valuation:
        """Rebuild a valuation over the original variables, in original order."""
        dropped_values = {name: value for name, _, value in self.dropped}
        values = []
        for name in self.original_signature.names:
            if name in dropped_values:
                values.append(dropped_values[name])
            else:
                values.append(solution[name])
        return Valuation(self.original_signature, tuple(values))


def reduce_problem(problem: CoverageProblem) -> Reduction:
    """Drop prefix functions sharing no variables with the dependency closure.

    The reduced problem restricts the initial valuation to the closure; the
    returned extension data reproduces the dropped variables' initial values
    so any solution of the reduced problem extends to one of the original.
    """
    closure = dependency_closure(problem)
    keep_fns = []
    keep_comps = []
    for fn, comp in zip(problem.fns[:-1], problem.comps[:-1]):
        if closure & set(fn.params):
            keep_fns.append(fn)
            keep_comps.append(comp)
    keep_fns.append(problem.fns[-1])
    keep_comps.append(problem.comps[-1])

    sig = problem.signature
    if len(keep_fns) == len(problem.fns) and set(sig.names) <= closure:
        return Reduction(problem, sig, ())

    init = problem.init.restrict(closure)
    dropped = tuple(
        (name, typ, value)
        for (name, typ), value in zip(zip(sig.names, sig.types), problem.init.values)
        if name not in closure)
    reduced = CoverageProblem(tuple(keep_fns), tuple(keep_comps), init)
    return Reduction(reduced, sig, dropped)
