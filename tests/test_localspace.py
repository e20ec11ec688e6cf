import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsolve import cli, localspace, solver
from covsolve.localspace import ZERO_NORM, BasisChain, dot, next_basis, vector_norm
from covsolve.probelang import compile_spec, parse_spec
from covsolve.problem import reduce_problem
from covsolve.solver import SolverConfig, solve
from helpers import orthonormality_error

SQ2 = math.sqrt(2.0)


def gram_schmidt_basis(grad, prev_dim, *, append_gradient):
    """The former ``next_basis``: a two-pass Gram-Schmidt loop, kept as an oracle.

    Each axis is reduced against the unit gradient and the vectors emitted
    so far, twice, and emitted when its residual is at least ``ZERO_NORM``.
    The norm is the former ``vector_norm``, rescaled on overflow only.
    """
    grad = np.asarray(grad, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(grad))
    if math.isinf(norm):
        scale = float(np.max(np.abs(grad)))
        norm = scale * float(np.linalg.norm(grad / scale))
    if norm == 0.0:
        return np.eye(prev_dim, dtype=np.float64)
    if math.isinf(norm):
        grad = grad / float(np.max(np.abs(grad)))
        norm = float(np.linalg.norm(grad))
    unit_grad = grad / norm
    emitted = []
    for j in range(prev_dim):
        w = np.zeros(prev_dim, dtype=np.float64)
        w[j] = 1.0
        for _ in range(2):
            w = w - (w @ unit_grad) * unit_grad
            for v in emitted:
                w = w - (w @ v) * v
        w_norm = float(np.linalg.norm(w))
        if w_norm >= ZERO_NORM:
            emitted.append(w / w_norm)
    if append_gradient:
        emitted.append(unit_grad)
    return np.array(emitted, dtype=np.float64).reshape(len(emitted), prev_dim)


def dense_next_basis(grad, *, append_gradient):
    """The former ``next_basis``: the closed form over every axis, zero or not, kept as
    an oracle.  Its norms run ``np.hypot.accumulate`` over the whole gradient."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.ndim != 1:
        raise ValueError(f"gradient of shape {grad.shape} is not a vector")
    prev_dim = len(grad)
    scale = float(np.abs(grad).max(initial=0.0))
    if scale == 0.0:
        return np.eye(prev_dim, dtype=np.float64)
    r = np.hypot.accumulate(np.abs(grad[::-1]) / scale)[::-1]
    dropped = int(np.argmax(np.append(r[1:] <= ZERO_NORM * r[:-1], True)))
    order = np.arange(prev_dim) + (np.arange(prev_dim) >= dropped)
    order[-1] = dropped
    a = grad[order] / scale
    r = np.hypot.accumulate(np.abs(a[::-1]))[::-1]
    after = np.arange(prev_dim) > np.arange(prev_dim - 1)[:, None]
    rows = np.where(after, np.multiply.outer(-a[:-1] / r[:-1], a), 0.0) / r[1:, None]
    np.fill_diagonal(rows, r[1:] / r[:-1])
    basis = np.empty((prev_dim - 1 + append_gradient, prev_dim))
    basis[:prev_dim - 1, order] = rows
    if append_gradient:
        basis[-1, order] = a / r[0]
    return basis


class MultiLevelChain:
    """The former ``BasisChain``, which kept every level, as an oracle.

    ``rows`` is its top level, so it can stand in for the one-level chain.
    """

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self._lifted = [np.eye(dim, dtype=np.float64)]

    def __len__(self):
        return len(self._lifted)

    def lifted(self, level):
        return self._lifted[level - 1]

    def dim_at(self, level):
        return self._lifted[level - 1].shape[0]

    @property
    def rows(self):
        return self._lifted[-1]

    def extend(self, basis):
        top_size = self._lifted[-1].shape[0]
        if basis.shape[1] != top_size:
            raise ValueError(
                f"basis over dimension {basis.shape[1]} cannot follow level of size {top_size}")
        self._lifted.append(dot(basis[:, :, None], self._lifted[-1], axis=1))
        return basis

    def lift(self, u):
        u = np.asarray(u, dtype=np.float64)
        lifted = self._lifted[-1]
        if u.shape != (lifted.shape[0],):
            raise ValueError(
                f"vector of dimension {u.shape} at top level of size {lifted.shape[0]}")
        return dot(u[:, None], lifted, axis=0)

    def lift_rows(self, V):
        """Each row lifted on its own."""
        return np.array([self.lift(v) for v in V]).reshape(len(V), self.rows.shape[1])


def three_level_chain():
    """B_1 axes, B_2 = {(1,1)/sqrt2, (1,-1)/sqrt2}, B_3 = {(1,-1)/sqrt2}.

    Returns the chain and B_3, whose rows live in the level-2 space.
    """
    chain = BasisChain(2)
    chain.extend(next_basis(np.array([1.0, -1.0]), append_gradient=True))
    basis3 = next_basis(np.array([1.0, 1.0]) / SQ2, append_gradient=False)
    chain.extend(basis3)
    return chain, basis3


class TestRootBasis:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_axes(self, dim):
        chain = BasisChain(dim)
        assert np.array_equal(chain.rows, np.eye(dim))  # the axis basis is level 1

    def test_dim_positive(self):
        with pytest.raises(ValueError):
            BasisChain(0)


class TestNextBasis:
    def test_equality_case_drops_gradient_direction(self):
        basis = next_basis(np.array([1.0, -1.0]), append_gradient=False)
        assert basis.shape[0] == 1
        assert basis[0] == pytest.approx([1 / SQ2, 1 / SQ2], abs=1e-12)
        # exactly symmetric on every kernel, so a step along it keeps x == y
        assert basis[0, 0] == basis[0, 1]

    def test_inequality_case_appends_gradient(self):
        basis = next_basis(np.array([1.0, -1.0]), append_gradient=True)
        assert basis.shape[0] == 2
        assert basis[0] == pytest.approx([1 / SQ2, 1 / SQ2], abs=1e-12)
        assert basis[1] == pytest.approx([1 / SQ2, -1 / SQ2], abs=1e-12)

    def test_zero_gradient_keeps_space(self):
        basis = next_basis(np.zeros(2), append_gradient=True)
        assert np.array_equal(basis, np.eye(2))

    def test_dimension_law(self):
        rng = np.random.default_rng(7)
        for dim in range(1, 9):
            grad = rng.normal(size=dim)
            eq_case = next_basis(grad, append_gradient=False)
            ineq_case = next_basis(grad, append_gradient=True)
            assert eq_case.shape[0] == dim - 1
            assert ineq_case.shape[0] == dim

    def test_orthonormal_over_random_gradients(self):
        rng = np.random.default_rng(11)
        for dim in range(1, 17):
            grad = rng.normal(size=dim)
            basis = next_basis(grad, append_gradient=True)
            assert orthonormality_error(basis) <= 1e-9

    def test_gradient_must_be_a_vector(self):
        with pytest.raises(ValueError):
            next_basis(np.ones((2, 2)), append_gradient=True)

    def test_deterministic_bitwise(self):
        grad = np.array([0.3, -1.7, 0.0, 2.5])
        a = next_basis(grad, append_gradient=True)
        b = next_basis(grad, append_gradient=True)
        assert a.tobytes() == b.tobytes()


def seeded_gradients():
    """Dense, sparse and small-integer gradients of dimension 1 to 49."""
    rng = np.random.default_rng(17)
    for k in range(2400):
        dim = int(rng.integers(1, 50 if k % 24 == 0 else 13))
        grad = rng.normal(size=dim) * 10.0 ** rng.integers(-100, 100)
        if k % 3 == 1:
            grad = grad * (rng.random(dim) < 0.3)
        elif k % 3 == 2:
            grad = rng.integers(-3, 4, size=dim).astype(np.float64)
        yield grad


EDGE_GRADIENTS = [
    # a negligible tail after an axis drops that axis, not the last nonzero one
    [1.0, 1e-13, 1.0], [1.0, 1.0, 1e-13], [1.0, 1e-13, 1e-13], [1e-13, 1.0],
    [1.0, 1e-200, 1e-200],
    # squares past the float range, zeros around the only nonzero entry
    [1e300, -1e308, 3.0], [1.5e308, 1.5e308], [4.0], [-1e-150],
    [0.0, 0.0, 2.5], [0.0, -7.0, 0.0, 0.0], [3.0, 4.0, 0.0, 0.0, 0.0],
]


class TestAgainstGramSchmidt:
    """The closed form builds the basis the Gram-Schmidt loop built, to rounding."""

    @staticmethod
    def assert_matches(grad):
        grad = np.asarray(grad, dtype=np.float64)
        for append in (False, True):
            want = gram_schmidt_basis(grad, grad.size, append_gradient=append)
            got = next_basis(grad, append_gradient=append)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-15, grad

    def test_seeded_gradients(self):
        for grad in seeded_gradients():
            self.assert_matches(grad)

    @pytest.mark.parametrize("grad", EDGE_GRADIENTS)
    def test_edge_gradients(self, grad):
        self.assert_matches(grad)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_single_axis_gradients(self, dim):
        for axis in range(dim):
            for value in (1.0, -3.5, 1e-150, 1e300):
                grad = np.zeros(dim)
                grad[axis] = value
                self.assert_matches(grad)

    def test_geometric_gradient_stays_orthonormal(self):
        # entries from 1 down past 2**-1074: their squares would underflow
        for ratio in (1e-5, 1e-11, 1e-20):
            grad = ratio ** np.arange(40.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                basis = next_basis(grad, append_gradient=True)
            assert orthonormality_error(basis) <= 1e-15
            want = gram_schmidt_basis(grad, 40, append_gradient=True)
            assert np.max(np.abs(basis - want)) <= 1e-15


class TestUnderflowingGradients:
    """Squares of these underflow, so the Gram-Schmidt oracle saw a zero gradient."""

    def test_same_basis_as_the_gradient_scaled_up(self):
        rng = np.random.default_rng(23)
        seeded = [rng.normal(size=int(rng.integers(1, 9))) * 1e-170 for _ in range(200)]
        for grad in [[3e-170, 4e-170], [1e-320, 0.0, -5e-324], [2e-160, -1e-170, 7e-165],
                     [-1e-300], [0.0, 1e-300, 0.0], *seeded]:
            grad = np.array(grad)
            for append in (False, True):
                small = next_basis(grad, append_gradient=append)
                big = next_basis(grad * 2.0 ** 600, append_gradient=append)
                assert small.tobytes() == big.tobytes()
                assert small.shape[0] == grad.size - 1 + append


#: Entries where the order of the support is delicate: signed zeros, a
#: negligible tail that drops an axis before the last nonzero one, subnormals,
#: and magnitudes whose squares leave the float range.
DELICATE_ENTRIES = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 1e-13, -1e-13, 1e-200, 5e-324, -1e-310,
                    2.0**-1022, 1e300, -1e300, 1.7e308, 3.0, -0.5]


def sparse_gradient(rng, size):
    """A gradient of ``size`` entries, most of them signed zeros, the rest drawn from
    ``DELICATE_ENTRIES`` or at random over 600 decades."""
    grad = rng.choice([0.0, -0.0], size=size)
    count = int(rng.integers(1, min(size, 4) + 1)) if rng.random() < 0.8 else size
    for i in rng.choice(size, size=count, replace=False):
        if rng.random() < 0.5:
            grad[i] = DELICATE_ENTRIES[int(rng.integers(len(DELICATE_ENTRIES)))]
        else:
            grad[i] = rng.normal() * 10.0 ** float(rng.integers(-300, 300))
    return grad


class TestAgainstDenseClosedForm:
    """The sparse norms and the rows built in axis order give the dense form's bytes."""

    @staticmethod
    def assert_same_bytes(grad):
        for append in (False, True):
            want = dense_next_basis(grad, append_gradient=append)
            got = next_basis(grad, append_gradient=append)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (grad.tolist(), append)

    def test_drawn_sparse_gradients(self):
        rng = np.random.default_rng(38)
        dropped_early = 0
        for size in range(1, 65):
            for _ in range(60):
                grad = sparse_gradient(rng, size)
                self.assert_same_bytes(grad)
                support = np.flatnonzero(grad)
                if support.size > 1:
                    r = np.hypot.accumulate(np.abs(grad[::-1]) / np.abs(grad).max())[::-1]
                    dropped_early += bool(
                        np.any(r[support[:-1] + 1] <= ZERO_NORM * r[support[:-1]]))
        # the axis dropped before the last nonzero one, where the order moves past it
        assert dropped_early >= 100

    def test_seeded_and_edge_gradients(self):
        for grad in [*seeded_gradients(), *map(np.array, EDGE_GRADIENTS)]:
            self.assert_same_bytes(np.asarray(grad, dtype=np.float64))

    @given(st.lists(st.one_of(st.sampled_from(DELICATE_ENTRIES),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=64))
    @settings(max_examples=400, deadline=None)
    def test_hypothesis_gradients(self, entries):
        self.assert_same_bytes(np.array(entries))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_gradient_raises(self, bad):
        for grad in ([bad], [0.0, bad, 1.0], [1e308, 0.0, bad]):
            with pytest.raises(ValueError, match="not finite"):
                next_basis(np.array(grad), append_gradient=True)


#: next_basis of a few fixed gradients, as float.hex of each entry.  The
#: basis uses no BLAS call, so these hold under every OpenBLAS kernel.
PINNED_BASES = {
    ((0.3, -1.7, 0.0, 2.5), True): [
        ['0x1.fd7f67c48891cp-1', '0x1.c6de6b34c859bp-5', '-0x0.0p+0',
         '-0x1.4e765de30bc98p-4'],
        ['0x0.0p+0', '0x1.a762e9152b295p-1', '0x0.0p+0',
         '0x1.1fe71960508cbp-1'],
        ['0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
         '-0x0.0p+0'],
        ['0x1.9476e5fa2f883p-4', '-0x1.1e7ee2e68c55cp-1', '0x0.0p+0',
         '0x1.a5512f8f46d89p-1'],
    ],
    ((1.0, 1e-13, 1.0), False): [
        ['0x1.6a09e667f3bccp-1', '-0x1.3e73dc85419d6p-44', '-0x1.6a09e667f3bccp-1'],
        ['0x0.0p+0', '0x1.0000000000000p+0', '-0x1.c25c268497682p-44'],
    ],
    ((1e+300, -1e+308, 3.0), True): [
        ['0x1.0000000000000p+0', '0x1.5798ee2308c3ap-27', '-0x0.00000039e8624p-1022'],
        ['0x0.0p+0', '0x1.59283684dba76p-1022', '0x1.0000000000000p+0'],
        ['0x1.5798ee2308c3ap-27', '-0x1.0000000000000p+0', '0x1.59283684dba76p-1022'],
    ],
    ((2.0, -1.0, 3.0, 1.0, -2.0), False): [
        ['0x1.c6ec8735648f3p-1', '0x1.e5409038f3cbep-4', '-0x1.6bf06c2ab6d8fp-2',
         '-0x1.e5409038f3cbep-4', '0x1.e5409038f3cbep-3'],
        ['0x0.0p+0', '0x1.eea3950a8511ep-1', '0x1.a7f9ed76bb33ep-3',
         '0x1.1aa69e4f2777fp-4', '-0x1.1aa69e4f2777fp-3'],
        ['0x0.0p+0', '0x0.0p+0', '0x1.31fa808c55b44p-1',
         '-0x1.6f2c9a420071ep-2', '0x1.6f2c9a420071ep-1'],
        ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
         '0x1.c9f25c5bfedd9p-1', '0x1.c9f25c5bfedd8p-2'],
    ],
}


class TestPinnedBytes:
    @pytest.mark.parametrize("key", sorted(PINNED_BASES))
    def test_bytes(self, key):
        grad, append = key
        basis = next_basis(np.array(grad), append_gradient=append)
        assert [[x.hex() for x in row] for row in basis.tolist()] == PINNED_BASES[key]


def assert_within_ulps(got, expected, magnitude, ulps):
    """``got`` and ``expected`` differ by at most ``ulps`` units in the last place of ``magnitude``."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    bound = ulps * np.spacing(np.abs(np.asarray(magnitude, dtype=float)))
    assert np.all(np.abs(got - expected) <= bound)


class TestDotAgainstMatmul:
    """``dot`` sums in numpy's order; ``@`` (BLAS) in the kernel's, so they agree within ulps.

    The bound is in ulps of the sum of |a_i b_i|, since the two orders may
    round a cancelling sum differently.
    """

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(18)
        for d in range(1, 50):
            for _ in range(4):
                scale = 10.0 ** float(rng.integers(-100, 100))
                yield (rng.normal(size=d) * scale, rng.normal(size=d),
                       rng.normal(size=(int(rng.integers(1, 50)), d)),
                       rng.normal(size=(d, int(rng.integers(1, 50)))))

    def test_vector_form(self):
        for a, b, _, _ in self._inputs():
            assert_within_ulps(dot(a, b), a @ b, np.abs(a) @ np.abs(b), 4)

    def test_matrix_vector_forms(self):
        for a, _, m, n in self._inputs():
            assert_within_ulps(dot(m, a), m @ a, np.abs(m) @ np.abs(a), 4)
            assert_within_ulps(dot(a[:, None], n, axis=0), a @ n, np.abs(a) @ np.abs(n), 4)

    def test_matrix_matrix_form(self):
        for _, _, m, n in self._inputs():
            assert_within_ulps(dot(m[:, :, None], n, axis=1), m @ n,
                               np.abs(m) @ np.abs(n), 4)


class TestPinnedChainProducts:
    def test_extend_and_lift_bytes(self):
        # 11 rows: numpy sums a contiguous axis of 8 or more terms in eight
        # interleaved partial sums and a strided axis term by term, so a
        # product summed over a contiguous copy would change these bytes
        rng = np.random.default_rng(12)
        chain = BasisChain(12)
        for append in (False, True):
            d = chain.rows.shape[0]
            chain.extend(next_basis(rng.normal(size=d), append_gradient=append))
        u = rng.normal(size=chain.rows.shape[0])
        digest = hashlib.sha256(chain.rows.tobytes() + chain.lift(u).tobytes()).hexdigest()
        assert digest == "3ee65f8b95d61afe1a4f6f542f35b92d4e15a9aad7ceda52bc8c2fc0f4e1cf05"

    def test_lift_rows_bytes(self):
        # the chain above, and a block of rows lifted as one product
        rng = np.random.default_rng(12)
        chain = BasisChain(12)
        for append in (False, True):
            d = chain.rows.shape[0]
            chain.extend(next_basis(rng.normal(size=d), append_gradient=append))
        V = rng.normal(size=(9, chain.rows.shape[0]))
        lifted = chain.lift_rows(V)
        assert lifted.tobytes() == b"".join(chain.lift(v).tobytes() for v in V)
        digest = hashlib.sha256(lifted.tobytes()).hexdigest()
        assert digest == "8ef1ffb486557e770dd18b7abc4180b23c5a4f17c4d415a36ee9305de447285c"


class TestVectorNorm:
    def test_ordinary_vectors_match_plain_norm_within_ulps(self):
        rng = np.random.default_rng(3)
        for dim in range(1, 50):
            v = rng.normal(size=dim) * 10.0 ** rng.integers(-150, 150)
            expected = float(np.linalg.norm(v))
            assert_within_ulps(vector_norm(v), expected, expected, 4)

    def test_entries_past_the_square_range_stay_finite(self):
        with np.errstate(over="ignore"):  # solve's float policy: the plain square overflows
            assert vector_norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
            assert vector_norm(np.array([1e300, 0.0])) == 1e300

    def test_zero_vector(self):
        assert vector_norm(np.zeros(3)) == 0.0

    def test_entries_whose_squares_underflow(self):
        assert vector_norm(np.array([3e-170, 4e-170])) == pytest.approx(5e-170, rel=1e-15)
        assert vector_norm(np.array([-5e-324])) == 5e-324
        assert vector_norm(np.array([1e-160, 0.0])) == 1e-160


class TestNextBasisOfHugeGradients:
    @pytest.mark.parametrize("scale", [1e154, 1e300, 1.5e308])
    def test_orthonormal_with_unit_gradient_axis(self, scale):
        grad = np.array([1.0, 1.0, 0.0]) * scale
        basis = next_basis(grad, append_gradient=True)
        assert orthonormality_error(basis) <= 1e-12
        assert basis[-1] == pytest.approx([1 / SQ2, 1 / SQ2, 0.0], abs=1e-15)


class TestLift:
    def test_level2_scaling(self):
        chain = BasisChain(2)
        chain.extend(next_basis(np.array([1.0, -1.0]), append_gradient=False))
        t = 3.7
        lifted = chain.lift(np.array([t]))
        assert lifted == pytest.approx([t / SQ2, t / SQ2], abs=1e-12)

    def test_level1_identity(self):
        chain = BasisChain(3)
        u = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(chain.lift(u), u)

    def test_third_level_lifts_to_root_axis(self):
        chain, _ = three_level_chain()
        assert chain.rows[0] == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        chain = BasisChain(5)
        grad = rng.normal(size=5)
        chain.extend(next_basis(grad, append_gradient=True))
        chain.extend(next_basis(rng.normal(size=5), append_gradient=False))
        u = rng.normal(size=chain.rows.shape[0])
        assert np.linalg.norm(chain.lift(u)) == pytest.approx(
            np.linalg.norm(u), rel=1e-12)

    def test_dimension_mismatch(self):
        chain = BasisChain(2)
        with pytest.raises(ValueError):
            chain.lift(np.zeros(3))


class TestProjectToLevel:
    def test_gradient_into_level2(self):
        basis = next_basis(np.array([1.0, -1.0]), append_gradient=True)
        projected = basis @ np.array([1.0, 0.0])
        assert projected == pytest.approx([1 / SQ2, 1 / SQ2], abs=1e-9)

    def test_own_basis_vector_projects_to_axis(self):
        basis = next_basis(np.array([0.3, 0.4, -1.0]), append_gradient=True)
        projected = basis @ basis[1]
        expected = np.zeros(basis.shape[0])
        expected[1] = 1.0
        assert projected == pytest.approx(expected, abs=1e-12)

    def test_normal_projected_into_third_level(self):
        _, basis3 = three_level_chain()
        projected = basis3 @ np.array([0.0, 1.0])
        assert projected == pytest.approx([-1 / SQ2], abs=1e-9)

    def test_project_then_lift_recovers_in_subspace_component(self):
        rng = np.random.default_rng(5)
        basis = next_basis(rng.normal(size=4), append_gradient=False)
        inside = basis.T @ rng.normal(size=basis.shape[0])
        projected = basis @ inside
        back = basis.T @ projected
        assert back == pytest.approx(inside, abs=1e-9)


class TestBasisChain:
    def test_chain_orthonormal_in_root_coordinates(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            dim = int(rng.integers(1, 10))
            chain = BasisChain(dim)
            assert orthonormality_error(chain.rows) <= 1e-9
            for _ in range(int(rng.integers(1, 5))):
                size = chain.rows.shape[0]
                grad = rng.normal(size=size)
                chain.extend(next_basis(grad, append_gradient=bool(rng.integers(0, 2))))
                assert orthonormality_error(chain.rows) <= 1e-9

    def test_extend_checks_dimensions(self):
        chain = BasisChain(3)
        with pytest.raises(ValueError):
            chain.extend(np.eye(2))

    def test_matches_every_level_chain_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            dim = int(rng.integers(1, 14))
            ours, theirs = BasisChain(dim), MultiLevelChain(dim)
            for _ in range(int(rng.integers(1, 6))):
                size = ours.rows.shape[0]
                if size == 0:
                    break
                basis = next_basis(rng.normal(size=size), append_gradient=bool(rng.integers(0, 2)))
                ours.extend(basis)
                theirs.extend(basis)
                assert ours.rows.tobytes() == theirs.lifted(len(theirs)).tobytes()
                u = rng.normal(size=basis.shape[0])
                assert ours.lift(u).tobytes() == theirs.lift(u).tobytes()

    def test_bundled_solves_match_every_level_chain(self, monkeypatch):
        entries = sorted(p for p in cli.bundled_suite_dir().iterdir() if p.name.endswith(".prob"))
        for index, entry in enumerate(entries):
            problem = reduce_problem(compile_spec(parse_spec(entry.read_text()))).problem
            config = SolverConfig(rng_seed=index)
            ours = solve(problem, config)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "BasisChain", MultiLevelChain)
                theirs = solve(problem, config)
            assert repr(ours) == repr(theirs)


class TestLiftRows:
    """``lift_rows`` is ``lift`` row by row, bit for bit, in memory bounded by blocks."""

    def test_rows_match_per_row_lift(self, monkeypatch):
        rng = np.random.default_rng(41)
        lifted_rows = 0
        for _ in range(300):
            dim = int(rng.integers(1, 30))
            chain = BasisChain(dim)
            for _ in range(int(rng.integers(0, 4))):
                size = chain.rows.shape[0]
                if size == 0:
                    break
                chain.extend(next_basis(rng.normal(size=size),
                                        append_gradient=bool(rng.integers(0, 2))))
            size = chain.rows.shape[0]
            V = rng.normal(size=(int(rng.integers(0, 40)), size)) * 10.0 ** float(rng.uniform(-5, 5))
            V[rng.random(size=V.shape) < 0.2] = -0.0
            expected = b"".join(chain.lift(v).tobytes() for v in V)
            for block in (1, 3, None):
                if block is not None:
                    monkeypatch.setattr(localspace, "_PRODUCT_ELEMENTS", block * size * dim)
                got = chain.lift_rows(V)
                assert got.shape == (len(V), dim) and got.tobytes() == expected
            monkeypatch.undo()
            lifted_rows += len(V)
        assert lifted_rows >= 5000

    def test_checks_the_level_size(self):
        chain = BasisChain(3)
        with pytest.raises(ValueError):
            chain.lift_rows(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            chain.lift_rows(np.zeros(3))

    def test_a_wide_dead_end_stays_small(self):
        # one iteration over 300 f64 variables that no point satisfies: the
        # first 48 random samples are lifted, and that block lifted in one
        # (48, 299, 300) product would take 34 MB at once; its calls are 600
        # for the two gradients, 16 for the two directions' landings, full and
        # halved three times, and 72 for the samples, 24 of which keep the
        # prefix and call the target too
        names = [f"x{i}" for i in range(300)]
        total = " + ".join(names)
        text = "\n".join([*(f"var {n} : f64" for n in names), *(f"init {n} = 0" for n in names),
                          f"abe {total} <= 0", f"abe {total} - 5 >= 0"])
        problem = reduce_problem(compile_spec(parse_spec(text))).problem
        tracemalloc.start()
        try:
            result = solve(problem, SolverConfig(max_iterations=1, rng_seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.status is solver.Status.FAILED_NO_PROGRESS
        assert (result.iterations_used, result.evaluations_used) == (1, 600 + 16 + 72)
        assert peak < 10e6


class TestExtendFromTheAxisBasis:
    """The first ``extend`` takes no product with the axis basis: its bytes are the product's."""

    def test_random_bases_match_the_product(self):
        rng = np.random.default_rng(24)
        negative_zeros = 0
        for case in range(3000):
            dim = int(rng.integers(1, 30))
            basis = (rng.normal(size=(int(rng.integers(0, dim + 2)), dim))
                     * 10.0 ** rng.integers(-300, 300, size=(1, dim)))
            basis[rng.random(size=basis.shape) < 0.3] = 0.0
            basis[rng.random(size=basis.shape) < 0.3] = -0.0
            if case % 4 == 0:  # rows with no positive entry sum only -0.0 products
                basis = -np.abs(basis)
            negative_zeros += int(np.count_nonzero(np.signbit(basis) & (basis == 0.0)))
            expected = dot(basis[:, :, None], np.eye(dim), axis=1)
            chain = BasisChain(dim)
            assert chain.extend(basis) is None
            assert chain.rows is not basis
            assert chain.rows.tobytes() == expected.tobytes()
        assert negative_zeros > 1000


class TestExtendInBlocks:
    """``extend`` sums its product over blocks of output rows, so its memory
    stays bounded in the dimension; the bytes are the one product's."""

    def test_blocks_of_rows_match_one_product(self, monkeypatch):
        rng = np.random.default_rng(22)
        for _ in range(400):
            size, dim = (int(n) for n in rng.integers(1, 24, size=2))
            rows = rng.normal(size=(size, dim)) * 10.0 ** rng.integers(-8, 9, size=(size, 1))
            rows[rng.random(size=rows.shape) < 0.2] = 0.0
            basis = rng.normal(size=(int(rng.integers(0, size + 2)), size))
            expected = dot(basis[:, :, None], rows, axis=1)
            for block in (1, 3, 8):
                monkeypatch.setattr(localspace, "_PRODUCT_ELEMENTS", block * size * dim)
                chain = BasisChain(dim)
                chain.rows = rows
                chain.extend(basis)
                assert chain.rows.tobytes() == expected.tobytes()

    def test_a_wide_iteration_stays_small(self):
        # one iteration over 300 f64 variables with one prefix link: the
        # whole (300, 300, 300) product would take 216 MB at once
        names = [f"x{i}" for i in range(300)]
        text = "\n".join([*(f"var {n} : f64" for n in names), *(f"init {n} = 0" for n in names),
                          "abe x0 - x1 <= 0", "abe " + " + ".join(names) + " - 5 >= 0"])
        problem = reduce_problem(compile_spec(parse_spec(text))).problem
        tracemalloc.start()
        try:
            result = solve(problem, SolverConfig(max_iterations=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.solved
        assert peak <= 40e6
