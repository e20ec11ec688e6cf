"""covsolve: search for program inputs that flip the last branch of a path.

The package models an executed path as a vector of black-box signed
distances with comparators (a coverage problem), and searches for a new
input valuation keeping every prefix predicate true while flipping the
last one.  The search works in a chain of orthonormal local spaces that
factor out prefix gradients, with half-space constraints approximating the
prefix predicates and three candidate generators per iteration.
"""

from .vecspace import (
    BOOL, F32, F64, I8, I16, I32, I64, U8, U16, U32, U64,
    Comparator, ExtractionError, ScalarType, Signature, Valuation,
    embed, extract, round_vector,
)
from .problem import (
    BlackBoxFn, CoverageProblem, InvalidProblemError, Outcome,
    PrefixEvalRecord, Reduction, TraceAbe,
    dependency_closure, eval_prefix, from_trace, is_solution,
    reduce_problem,
)
from .numerics import NoStepError, epsilon_along_line, epsilon_from_value
from .localspace import BasisChain, next_basis
from .constraints import (
    Constraint, clip, satisfies, satisfies_all, transform_constraint,
)
from .solver import (
    IterationRecord, IterationState, SolverConfig, SolverResult, Status,
    bit_mutation_candidates, build_spaces, finite_diff_gradient,
    grad_step_candidates, random_candidates, solve,
)
from .probelang import (
    CompileError, ParseError, ProblemSpec,
    compile_spec, eval_expr, format_spec, parse_spec, prefix_spec,
)

__version__ = "0.1.0"
