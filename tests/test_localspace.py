import math

import numpy as np
import pytest

from covsolve.localspace import BasisChain, next_basis, orthonormality_error, vector_norm

SQ2 = math.sqrt(2.0)


def three_level_chain():
    """B_1 axes, B_2 = {(1,1)/sqrt2, (1,-1)/sqrt2}, B_3 = {(1,-1)/sqrt2}.

    Returns the chain and B_3, whose rows live in the level-2 space.
    """
    chain = BasisChain(2)
    chain.extend(next_basis(np.array([1.0, -1.0]), 2, append_gradient=True))
    basis3 = chain.extend(next_basis(np.array([1.0, 1.0]) / SQ2, 2, append_gradient=False))
    return chain, basis3


class TestRootBasis:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_axes(self, dim):
        chain = BasisChain(dim)
        assert len(chain) == 1  # the axis basis is level 1
        assert np.array_equal(chain.lifted(1), np.eye(dim))

    def test_dim_positive(self):
        with pytest.raises(ValueError):
            BasisChain(0)


class TestNextBasis:
    def test_equality_case_drops_gradient_direction(self):
        basis = next_basis(np.array([1.0, -1.0]), 2, append_gradient=False)
        assert basis.shape[0] == 1
        assert basis[0] == pytest.approx([1 / SQ2, 1 / SQ2], abs=1e-12)

    def test_inequality_case_appends_gradient(self):
        basis = next_basis(np.array([1.0, -1.0]), 2, append_gradient=True)
        assert basis.shape[0] == 2
        assert basis[0] == pytest.approx([1 / SQ2, 1 / SQ2], abs=1e-12)
        assert basis[1] == pytest.approx([1 / SQ2, -1 / SQ2], abs=1e-12)

    def test_zero_gradient_keeps_space(self):
        basis = next_basis(np.zeros(2), 2, append_gradient=True)
        assert np.array_equal(basis, np.eye(2))

    def test_dimension_law(self):
        rng = np.random.default_rng(7)
        for dim in range(1, 9):
            grad = rng.normal(size=dim)
            eq_case = next_basis(grad, dim, append_gradient=False)
            ineq_case = next_basis(grad, dim, append_gradient=True)
            assert eq_case.shape[0] == dim - 1
            assert ineq_case.shape[0] == dim

    def test_orthonormal_over_random_gradients(self):
        rng = np.random.default_rng(11)
        for dim in range(1, 17):
            grad = rng.normal(size=dim)
            basis = next_basis(grad, dim, append_gradient=True)
            assert orthonormality_error(basis) <= 1e-9

    def test_deterministic_bitwise(self):
        grad = np.array([0.3, -1.7, 0.0, 2.5])
        a = next_basis(grad, 4, append_gradient=True)
        b = next_basis(grad, 4, append_gradient=True)
        assert a.tobytes() == b.tobytes()


class TestVectorNorm:
    def test_ordinary_vectors_match_plain_norm_bitwise(self):
        rng = np.random.default_rng(3)
        for dim in range(1, 12):
            v = rng.normal(size=dim) * 10.0 ** rng.integers(-150, 150)
            assert vector_norm(v) == float(np.linalg.norm(v))

    def test_entries_past_the_square_range_stay_finite(self):
        assert vector_norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
        assert vector_norm(np.array([1e300, 0.0])) == 1e300

    def test_zero_vector(self):
        assert vector_norm(np.zeros(3)) == 0.0


class TestNextBasisOfHugeGradients:
    @pytest.mark.parametrize("scale", [1e154, 1e300, 1.5e308])
    def test_orthonormal_with_unit_gradient_axis(self, scale):
        grad = np.array([1.0, 1.0, 0.0]) * scale
        basis = next_basis(grad, 3, append_gradient=True)
        assert orthonormality_error(basis) <= 1e-12
        assert basis[-1] == pytest.approx([1 / SQ2, 1 / SQ2, 0.0], abs=1e-15)


class TestLift:
    def test_level2_scaling(self):
        chain = BasisChain(2)
        chain.extend(next_basis(np.array([1.0, -1.0]), 2, append_gradient=False))
        t = 3.7
        lifted = chain.lift(np.array([t]))
        assert lifted == pytest.approx([t / SQ2, t / SQ2], abs=1e-12)

    def test_level1_identity(self):
        chain = BasisChain(3)
        u = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(chain.lift(u), u)

    def test_third_level_lifts_to_root_axis(self):
        chain, _ = three_level_chain()
        lifted = chain.lifted(3)
        assert lifted[0] == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        chain = BasisChain(5)
        grad = rng.normal(size=5)
        chain.extend(next_basis(grad, 5, append_gradient=True))
        chain.extend(next_basis(rng.normal(size=5), 5, append_gradient=False))
        u = rng.normal(size=chain.dim_at(3))
        assert np.linalg.norm(chain.lift(u)) == pytest.approx(
            np.linalg.norm(u), rel=1e-12)

    def test_dimension_mismatch(self):
        chain = BasisChain(2)
        with pytest.raises(ValueError):
            chain.lift(np.zeros(3))


class TestProjectToLevel:
    def test_gradient_into_level2(self):
        basis = next_basis(np.array([1.0, -1.0]), 2, append_gradient=True)
        projected = basis @ np.array([1.0, 0.0])
        assert projected == pytest.approx([1 / SQ2, 1 / SQ2], abs=1e-9)

    def test_own_basis_vector_projects_to_axis(self):
        basis = next_basis(np.array([0.3, 0.4, -1.0]), 3, append_gradient=True)
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
        basis = next_basis(rng.normal(size=4), 4, append_gradient=False)
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
            for _ in range(int(rng.integers(1, 5))):
                size = chain.dim_at(len(chain))
                grad = rng.normal(size=size)
                chain.extend(next_basis(grad, size,
                                        append_gradient=bool(rng.integers(0, 2))))
            for level in range(1, len(chain) + 1):
                assert orthonormality_error(chain.lifted(level)) <= 1e-9

    def test_extend_checks_dimensions(self):
        chain = BasisChain(3)
        with pytest.raises(ValueError):
            chain.extend(np.eye(2))
