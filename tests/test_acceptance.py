"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Golden tests pin the worked examples; property tests pin
the randomized guarantees at their stated tolerances; the final tests pin
the bundled benchmark suite's solved fraction and runtime.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from covsolve import cli, constraints as constraints_module
from covsolve.constraints import Constraint, clip, satisfies_all
from covsolve.localspace import BasisChain, next_basis
from covsolve.numerics import NoStepError, epsilon_along_line, epsilon_from_value
from covsolve.probelang import compile_spec, parse_spec
from covsolve.problem import (
    BlackBoxFn,
    TraceAbe,
    eval_prefix,
    from_trace,
    is_solution,
    reduce_problem,
)
from covsolve.solver import (
    SolverConfig,
    Status,
    bit_mutation_candidates,
    build_spaces,
    solve,
)
from covsolve.vecspace import (
    F32,
    F64,
    I8,
    I32,
    U8,
    Comparator,
    Signature,
    Valuation,
    extract,
    round_vector,
)
from helpers import bit_mutation_block, orthonormality_error

SQ2 = math.sqrt(2.0)

EQ_GE_TRACE = """
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 0
abe x1 - x2 == 0
abe x1 - 10 >= 0
"""

LE_EQ_TRACE = """
var x1 : f64
var x2 : f64
init x1 = 0
init x2 = 1
abe x1 - x2 <= 0
abe x1 - 1 == 0
"""

LE_EQ_EQ_TRACE = """
var x1 : f64
var x2 : f64
init x1 = 1
init x2 = 1
abe x1 - x2 <= 0
abe x1 - 1 == 0
abe x2 - x1 - 3 == 0
"""

SPLITTABLE_TRACE = """
var x1 : f64
var x2 : f64
var x3 : f64
init x1 = 0
init x2 = 0
init x3 = 0
abe x1 - x2 == 0
abe x3 - 10 >= 0
"""


def problem_of(text):
    return compile_spec(parse_spec(text))


# --- worked-example goldens -------------------------------------------------

class TestGoldenExamples:
    def test_basis_construction_drops_gradient_direction(self):
        problem = problem_of(EQ_GE_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        basis = state.chain.rows  # level 2, the last
        assert basis.shape[0] == 1
        assert np.max(np.abs(basis[0] - np.array([1 / SQ2, 1 / SQ2]))) <= 1e-9

    def test_half_space_constraint_for_inequality_prefix(self):
        problem = problem_of(LE_EQ_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        (constraint,) = state.constraints
        assert np.max(np.abs(constraint.normal - np.array([0.0, 1.0]))) <= 1e-9
        assert abs(constraint.bound - 1 / SQ2) <= 1e-9
        assert constraint.comp is Comparator.LE

    def test_constraint_transformation_into_deeper_space(self):
        problem = problem_of(LE_EQ_EQ_TRACE)
        state = build_spaces(problem, problem.init, problem.init_values)
        assert np.max(np.abs(state.chain.rows[0] - np.array([0.0, 1.0]))) <= 1e-9  # level 3
        (constraint,) = state.constraints
        assert np.max(np.abs(constraint.normal - np.array([-1 / SQ2]))) <= 1e-9
        assert abs(constraint.bound) <= 1e-9
        assert constraint.comp is Comparator.LE

    def test_reduction_drops_independent_prefix(self):
        problem = problem_of(SPLITTABLE_TRACE)
        reduction = reduce_problem(problem)
        reduced = reduction.problem
        assert reduced.size == 1
        assert reduced.comps == (Comparator.GE,)
        assert reduced.init.signature.names == ("x3",)
        assert reduced.init.values == (0.0,)
        record = eval_prefix(reduced.fns, reduced.comps,
                             Valuation.of([("x3", F64, 0.0)]))
        assert record.values == (-10.0,)
        solution = Valuation.of([("x3", F64, 10.0)])
        extended = reduction.extend(solution)
        assert extended.values == (0.0, 0.0, 10.0)
        assert is_solution(problem, extended)


# --- solver end-to-end ------------------------------------------------------

class TestSolverEndToEnd:
    def test_two_abe_problem_solved_within_budgets(self):
        problem = problem_of(EQ_GE_TRACE)
        started = time.perf_counter()
        result = solve(problem, SolverConfig(rng_seed=0, max_iterations=20,
                                             max_evaluations=10_000))
        elapsed = time.perf_counter() - started
        assert result.status is Status.SOLVED
        assert result.iterations_used <= 20
        assert result.evaluations_used <= 10_000
        assert is_solution(problem, result.solution)
        assert elapsed < 1.0


# --- property suites --------------------------------------------------------

class TestOrthonormalityProperty:
    def test_500_random_chains(self):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(500):
            dim = int(rng.integers(1, 17))
            chain = BasisChain(dim)
            assert orthonormality_error(chain.rows) <= 1e-9
            for _ in range(int(rng.integers(1, 5))):
                size = chain.rows.shape[0]
                if size == 0:
                    break
                grad = rng.normal(size=size)
                if rng.uniform() < 0.1:
                    grad = np.zeros(size)
                basis = next_basis(grad, append_gradient=bool(rng.integers(0, 2)))
                assert orthonormality_error(basis) <= 1e-9
                chain.extend(basis)
                assert orthonormality_error(chain.rows) <= 1e-9
        assert time.perf_counter() - started < 30.0


def _consistent_constraint_set(rng, dim, count):
    """Half-space constraints with pairwise normal angles >= 30 degrees,
    all satisfied at a common witness point."""
    comps = (Comparator.LE, Comparator.GE, Comparator.LT, Comparator.GT)
    limit = math.cos(math.radians(30.0))
    normals = []
    while len(normals) < count:
        n = rng.normal(size=dim)
        n /= np.linalg.norm(n)
        if all(float(n @ m) <= limit for m in normals):
            normals.append(n)
        else:
            normals = []
    witness = rng.normal(size=dim) * 2.0
    constraints = []
    for n in normals:
        comp = comps[int(rng.integers(0, 4))]
        margin = float(rng.uniform(0.1, 2.0))
        if comp in (Comparator.LE, Comparator.LT):
            s = float(n @ witness) + margin
        else:
            s = float(n @ witness) - margin
        constraints.append(Constraint(n, s, comp, n))
    return constraints


class TestClipProperty:
    def test_satisfaction_rate_on_consistent_sets(self):
        started = time.perf_counter()
        rng = np.random.default_rng(99)
        satisfied = 0
        trials = 1000
        for _ in range(trials):
            dim = int(rng.integers(2, 9))
            constraints = _consistent_constraint_set(rng, dim, int(rng.integers(1, 4)))
            u = rng.normal(size=dim) * 5.0
            if satisfies_all(clip(u, constraints), constraints):
                satisfied += 1
        assert satisfied / trials >= 0.99
        assert time.perf_counter() - started < 30.0

    def test_single_constraint_satisfied_in_round_one_always(self, monkeypatch):
        monkeypatch.setattr(constraints_module, "CLIP_ROUNDS", 1)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            (constraint,) = _consistent_constraint_set(rng, dim, 1)
            u = rng.normal(size=dim) * 5.0
            out = clip(u, (constraint,))
            assert satisfies_all(out, (constraint,))


class TestEpsilonProperties:
    def test_value_step_changes_value_100k(self):
        started = time.perf_counter()
        rng = np.random.default_rng(314)
        exponents = rng.uniform(-300, 300, size=100_000)
        mantissas = rng.uniform(0.5, 1.0, size=100_000)
        signs = rng.choice([-1.0, 1.0], size=100_000)
        for e, m, s in zip(exponents, mantissas, signs):
            a = s * math.ldexp(m, int(e))
            assert a + epsilon_from_value(a) != a
        assert time.perf_counter() - started < 30.0

    def test_line_step_changes_extraction(self):
        started = time.perf_counter()
        rng = np.random.default_rng(271)
        type_pool = [I8, I32, F32, F64, U8]
        checked = 0
        for _ in range(400):
            dim = int(rng.integers(1, 7))
            types = [type_pool[int(rng.integers(0, len(type_pool)))] for _ in range(dim)]
            sig = Signature.of([(f"x{i}", t) for i, t in enumerate(types)])
            origin = np.array(round_vector(rng.uniform(-40, 40, size=dim), types))
            direction = rng.uniform(-3, 3, size=dim)
            if float(direction @ direction) == 0.0:
                continue
            seed = epsilon_from_value(float(np.max(np.abs(origin))))
            try:
                eps = epsilon_along_line(extract(origin, sig), direction, seed)
            except NoStepError:
                continue
            checked += 1
            assert extract(origin + eps * direction, sig) != extract(origin, sig)
        assert checked >= 300
        assert time.perf_counter() - started < 30.0


class TestBitMutationTargetProperty:
    def test_matches_kkt_solution_200_instances(self):
        """Each bit's candidate is the nearest point on its plane.

        The candidate u for bit j of x_i minimises |B^T u - y*e_i|^2 subject
        to (B^T u)_i = y; the reference solves that problem's KKT system
        [[2 B B^T, c], [c^T, 0]] [u; lambda] = [2 y c; y] with c = B e_i.
        A random point of the plane must lift no closer to y*e_i.
        """
        started = time.perf_counter()
        rng = np.random.default_rng(606)
        instances = 0
        worst = 0.0
        while instances < 200:
            dim_root = int(rng.integers(2, 9))
            dim_local = int(rng.integers(2, dim_root + 1))
            basis = np.linalg.qr(rng.normal(size=(dim_root, dim_root)))[0][:dim_local]
            i = int(rng.integers(0, dim_root))
            coords = basis[:, i]
            if np.max(np.abs(coords)) < 1e-3:
                continue
            instances += 1
            j = int(rng.integers(1, 17))
            sign = 1 - 2 * int(rng.integers(0, 2))
            free_u = rng.normal(size=dim_local) * 2 ** (j - 1)

            value = (1 << (j - 1)) if sign < 0 else 0
            valuation = Valuation.of(
                [(f"x{k}", I32, value if k == i else 0) for k in range(dim_root)])
            chain = BasisChain(dim_root)
            chain.extend(basis)
            fn = BlackBoxFn((f"x{i}",), lambda v: 0.0)
            state = SimpleNamespace(valuation=valuation, chain=chain,
                                    problem=SimpleNamespace(fns=(fn,)))
            # the variable's rows as the old block held them; the entry
            # bit_mutation_candidates returns builds them (test_bit_mutation_rows.py)
            assert len(bit_mutation_candidates(state)) == 1
            candidates = bit_mutation_block(state)
            assert len(candidates) == 32

            kkt = np.zeros((dim_local + 1, dim_local + 1))
            kkt[:dim_local, :dim_local] = 2.0 * basis @ basis.T
            kkt[:dim_local, dim_local] = coords
            kkt[dim_local, :dim_local] = coords
            for bit, u in enumerate(candidates):
                y = float((1 - 2 * ((value >> bit) & 1)) * 2 ** bit)
                rhs = np.append(2.0 * y * coords, y)
                expected = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:dim_local]
                diff = float(np.max(np.abs(u - expected)))
                worst = max(worst, diff / float(np.max(np.abs(expected))))
            y = sign * 2.0 ** (j - 1)
            assert candidates[j - 1] @ coords == pytest.approx(y, rel=1e-12)
            target = np.zeros(dim_root)
            target[i] = y
            on_plane = free_u + ((y - float(free_u @ coords))
                                 / float(coords @ coords)) * coords
            assert (np.linalg.norm(candidates[j - 1] @ basis - target)
                    <= np.linalg.norm(on_plane @ basis - target) + 1e-9 * abs(y))
        assert worst <= 1e-12
        assert time.perf_counter() - started < 30.0


def _random_8bit_problem(rng):
    """A random valid coverage problem over 8-bit variables.

    Affine distances with small coefficients: calls never fail, so the
    vectorized grid oracle below matches prefix semantics exactly.
    Returns (problem, abe descriptions) with each description a
    (coefficient dict, constant) pair indexed like the problem functions.
    """
    n_vars = int(rng.integers(2, 5))
    decls = []
    for i in range(n_vars):
        typ = U8 if rng.integers(0, 2) else I8
        value = int(rng.integers(0, 6)) if typ is U8 else int(rng.integers(-5, 6))
        decls.append((f"x{i + 1}", typ, value))
    init = Valuation.of(decls)

    n_abes = int(rng.integers(2, 5))
    comps = list(Comparator)
    trace = []
    descriptions = []
    for idx in range(n_abes):
        support = rng.choice(n_vars, size=int(rng.integers(1, 3)), replace=False)
        coefs = {}
        for v in support:
            c = int(rng.integers(-3, 4)) or 1
            coefs[f"x{v + 1}"] = c
        const = int(rng.integers(-8, 9))
        comp = comps[int(rng.integers(0, 6))]

        def evaluate(valuation, _coefs=dict(coefs), _const=const):
            return float(sum(c * float(valuation[n]) for n, c in _coefs.items()) + _const)

        fn = BlackBoxFn(tuple(sorted(coefs)), evaluate, name=f"abe{idx}")
        outcome = comp.holds(evaluate(init))
        trace.append(TraceAbe(fn, comp, outcome))
        descriptions.append((coefs, const))
    return from_trace(trace, init), descriptions


_COMP_NUMPY = {
    Comparator.EQ: lambda a: a == 0.0,
    Comparator.NEQ: lambda a: a != 0.0,
    Comparator.LT: lambda a: a < 0.0,
    Comparator.LE: lambda a: a <= 0.0,
    Comparator.GT: lambda a: a > 0.0,
    Comparator.GE: lambda a: a >= 0.0,
}


class TestReductionOracle:
    def test_200_random_problems_equivalent_under_extension(self):
        started = time.perf_counter()
        rng = np.random.default_rng(808)
        for _ in range(200):
            problem, descriptions = _random_8bit_problem(rng)
            reduction = reduce_problem(problem)
            reduced = reduction.problem
            sig = reduced.init.signature

            axes = []
            for typ in sig.types:
                full = np.arange(int(typ.min_value), int(typ.max_value) + 1,
                                 dtype=np.float64)
                if len(sig) <= 2:
                    axes.append(full)
                else:  # keep the grid tractable; equivalence must hold pointwise
                    picks = np.unique(np.concatenate([
                        full[:: max(1, len(full) // 14)], full[-1:], [0.0]]))
                    axes.append(picks)
            grids = np.meshgrid(*axes, indexing="ij")
            coords = {name: g.ravel() for name, g in zip(sig.names, grids)}
            dropped = {name: float(value) for name, _, value in reduction.dropped}

            def abe_values(index):
                coefs, const = descriptions[index]
                total = np.full(coords[sig.names[0]].shape, float(const))
                for name, c in coefs.items():
                    term = coords[name] if name in coords else dropped[name]
                    total = total + c * term
                return total

            retained = [int(fn.name[3:]) for fn in reduced.fns]
            solves_reduced = np.ones_like(coords[sig.names[0]], dtype=bool)
            for position, index in enumerate(retained):
                solves_reduced &= _COMP_NUMPY[reduced.comps[position]](abe_values(index))

            solves_original = np.ones_like(solves_reduced)
            for index in range(len(problem.fns)):
                solves_original &= _COMP_NUMPY[problem.comps[index]](abe_values(index))

            assert np.array_equal(solves_reduced, solves_original)

            # cross-check a few grid points against the real evaluator
            total = solves_reduced.shape[0]
            for flat in rng.choice(total, size=min(8, total), replace=False):
                values = tuple(
                    int(coords[name][flat]) for name in sig.names)
                candidate = Valuation(sig, values)
                lib_reduced = is_solution(reduced, candidate)
                lib_original = is_solution(problem, reduction.extend(candidate))
                assert lib_reduced == bool(solves_reduced[flat])
                assert lib_original == bool(solves_original[flat])
        assert time.perf_counter() - started < 30.0


# --- bundled suite ----------------------------------------------------------

def _bundled_reports():
    reports = []
    entries = sorted(
        (item for item in cli.bundled_suite_dir().iterdir()
         if item.name.endswith(".prob")),
        key=lambda item: item.name)
    for index, entry in enumerate(entries):
        config = SolverConfig(rng_seed=index, max_iterations=100,
                              max_evaluations=100_000)
        reports.append(cli.run_problem(entry.name[: -len(".prob")],
                                       entry.read_text(), config))
    return reports


@pytest.fixture(scope="module")
def bundled_reports():
    return _bundled_reports()


class TestMonotoneImprovementProperty:
    def test_every_solver_log_strictly_improves(self, bundled_reports):
        assert bundled_reports
        for report in bundled_reports:
            problem = compile_spec(parse_spec(
                cli.bundled_suite_dir().joinpath(report.name + ".prob").read_text()))
            comp = problem.comps[-1]
            previous = eval_prefix(problem.fns, problem.comps, problem.init).values[-1]
            for record in report.result.log:
                assert comp.improves(previous, record.value)
                previous = record.value


class TestDeterminismProperty:
    def test_identical_seed_identical_json(self, tmp_path, capsys):
        path = tmp_path / "det.prob"
        path.write_text(EQ_GE_TRACE)
        assert cli.main(["solve", str(path), "--json", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["solve", str(path), "--json", "--seed", "5"]) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)  # well-formed machine output


class TestBundledSuite:
    def test_at_least_30_problems_and_90_percent_solved(self, bundled_reports):
        assert len(bundled_reports) >= 30
        solved = sum(1 for r in bundled_reports if r.result.solved)
        assert solved / len(bundled_reports) >= 0.90

    def test_total_runtime_under_60s(self, bundled_reports):
        assert sum(r.wall_time for r in bundled_reports) < 60.0

    def test_reported_solutions_reverify(self, bundled_reports):
        for report in bundled_reports:
            if not report.result.solved:
                continue
            problem = compile_spec(parse_spec(
                cli.bundled_suite_dir().joinpath(report.name + ".prob").read_text()))
            assert is_solution(problem, report.result.solution)
