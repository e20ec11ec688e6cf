"""covsolve: search for program inputs that flip the last branch of a path.

The package models an executed path as a vector of black-box signed
distances with comparators (a coverage problem), and searches for a new
input valuation keeping every prefix predicate true while flipping the
last one.  The search works in a chain of orthonormal local spaces that
factor out prefix gradients, with half-space constraints approximating the
prefix predicates; each iteration tries a pattern move that doubles the
last accepted step, then three candidate generators.

The package root exports the user API: the typed grid, coverage problems,
``solve`` with its result types, and the text format; the search's stages
are imported from their modules.
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
from .solver import IterationRecord, SolverConfig, SolverResult, Status, solve
from .probelang import (
    CompileError, ParseError, ProblemSpec,
    compile_spec, format_spec, parse_spec, prefix_spec,
)

__version__ = "0.1.0"
