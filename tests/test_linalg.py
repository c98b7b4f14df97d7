import warnings

import numpy as np
import pytest

from otasec.errors import ContractError, SingularMatrixError
from otasec.linalg import _back, _forward, cholesky


def cn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def det_by_cofactors(M):
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1) ** j * M[0, j] * det_by_cofactors(minor)
    return total


def inverse_by_adjugate(M):
    n = M.shape[0]
    det = det_by_cofactors(M)
    adj = np.zeros_like(M)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(M, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * det_by_cofactors(minor)
    return adj / det


def solve(B, rhs):
    """``B x = rhs`` through the two substitution kernels."""
    C = cholesky(B)
    return _back(C, _forward(C, rhs))


class TestSolve:
    def test_identity(self):
        rhs = np.array([1.0, 2.0j, -1.0])
        assert np.allclose(solve(np.eye(3), rhs), rhs, atol=1e-15)

    def test_diagonal(self):
        B = np.diag([2.0, 4.0]).astype(complex)
        x = solve(B, np.array([2.0, 2.0]))
        assert np.allclose(x, [1.0, 0.5], atol=1e-15)

    def test_matches_adjugate_inverse(self, rng):
        for _ in range(5):
            M = cn(rng, 5, 5)
            B = M @ M.conj().T + np.eye(5)
            rhs = cn(rng, 5)
            expected = inverse_by_adjugate(B) @ rhs
            assert np.linalg.norm(solve(B, rhs) - expected) <= 1e-9 * np.linalg.norm(
                expected
            )

    def test_residual_bound(self, rng):
        for n in (1, 2, 3, 8, 20):
            M = cn(rng, n, n)
            B = M @ M.conj().T + np.eye(n)
            rhs = cn(rng, n)
            x = solve(B, rhs)
            resid = np.linalg.norm(B @ x - rhs)
            bound = 1e-9 * (np.linalg.norm(B) * np.linalg.norm(x) + np.linalg.norm(rhs))
            assert resid <= bound

    def test_rejects_non_hermitian(self, rng):
        B = cn(rng, 3, 3)
        B = B + B.conj().T
        B[0, 1] += 1.0  # break the symmetry well beyond tolerance
        with pytest.raises(ContractError):
            cholesky(B)

    def test_rejects_indefinite(self):
        B = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(SingularMatrixError, match="not positive definite"):
            cholesky(B)

    def test_rejects_a_pivot_below_the_floor(self):
        # Positive definite, so LAPACK factors it, but the last pivot is below 1e-12 of the mean diagonal.
        with pytest.raises(SingularMatrixError, match="pivot 1.000e-13 at column 1 is at or below its floor"):
            cholesky(np.diag([1.0, 1e-13]))

    def test_rejects_singular(self, rng):
        v = cn(rng, 3)
        B = np.outer(v, v.conj())  # rank one
        with pytest.raises(SingularMatrixError):
            cholesky(B)


class TestCholesky:
    def test_factor_reconstructs(self, rng):
        for n in (1, 2, 5, 16, 40):
            M = cn(rng, n, n)
            B = M @ M.conj().T + np.eye(n)
            L = cholesky(B)
            assert np.allclose(np.triu(L, 1), 0.0)
            assert np.linalg.norm(L @ L.conj().T - B) <= 1e-9 * np.linalg.norm(B)

    def test_well_conditioned_near_singular_scale(self, rng):
        # Tiny uniform scaling must not trip the relative pivot floor.
        M = cn(rng, 4, 4)
        B = 1e-20 * (M @ M.conj().T + np.eye(4))
        L = cholesky(B)
        assert np.linalg.norm(L @ L.conj().T - B) <= 1e-9 * np.linalg.norm(B)

    def test_hermitian_test_holds_where_a_norm_would_underflow(self, rng):
        # Squared entries of 1e-200 underflow to 0, so a Frobenius norm would reject this matrix.
        M = cn(rng, 4, 4)
        B = M @ M.conj().T + np.eye(4)
        B[0, 1] *= 1.0 + 1e-14  # Hermitian to 1e-14
        L = cholesky(1e-200 * B)
        np.testing.assert_allclose(1e100 * L, cholesky(B), rtol=1e-12)

    def test_hermitian_test_holds_where_a_norm_would_overflow(self, rng):
        # Squared entries of 1e200 overflow, so a Frobenius norm would be inf and accept any skew.
        M = cn(rng, 4, 4)
        B = M @ M.conj().T + np.eye(4)
        B[0, 1] *= 1.0 + 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="not Hermitian"):
                cholesky(1e200 * B)


def spd_stack(rng, batch, n):
    M = cn(rng, *batch, n, n + 1)
    return M @ M.conj().swapaxes(-2, -1) + np.eye(n)


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_single_matrix(self, value):
        B = np.eye(3, dtype=complex)
        B[1, 2] = value
        with pytest.raises(ContractError, match="non-finite"):
            cholesky(B)

    def test_rejects_nan_on_the_diagonal(self):
        # NaN compares false, so without the check it would pass the pivot floor.
        B = np.eye(3, dtype=complex)
        B[0, 0] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            cholesky(B)

    def test_names_the_offending_matrix(self, rng):
        B = spd_stack(rng, (2, 3), 4)
        B[1, 2, 3, 0] = np.nan
        with pytest.raises(ContractError, match=r"in matrix \(1, 2\)"):
            cholesky(B)


class TestStack:
    @pytest.mark.parametrize("batch", [(1,), (6,), (2, 3)])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_each_element_equals_the_single_call(self, rng, batch, n):
        B = spd_stack(rng, batch, n)
        rhs = cn(rng, *batch, n)
        L = cholesky(B)
        x = solve(B, rhs)
        assert L.shape == B.shape and x.shape == rhs.shape
        for idx in np.ndindex(*batch):
            assert np.array_equal(L[idx], cholesky(B[idx]))
            assert np.array_equal(x[idx], solve(B[idx], rhs[idx]))

    def test_vector_rhs_broadcasts_across_the_stack(self, rng):
        B = spd_stack(rng, (4,), 5)
        rhs = cn(rng, 5)
        x = solve(B, rhs)
        assert x.shape == (4, 5)
        for b in range(4):
            assert np.array_equal(x[b], solve(B[b], rhs))

    def test_rejects_one_non_hermitian_element(self, rng):
        B = spd_stack(rng, (5,), 3)
        B[3, 0, 1] += 1.0
        with pytest.raises(ContractError, match=r"not Hermitian in matrix \(3,\)"):
            cholesky(B)

    def test_rejects_one_singular_element(self, rng):
        B = spd_stack(rng, (2, 2), 3)
        v = cn(rng, 3)
        B[0, 1] = np.outer(v, v.conj())
        with pytest.raises(SingularMatrixError, match=r"in matrix \(0, 1\)"):
            cholesky(B)

    @pytest.mark.parametrize(
        "block, message",
        [
            ([1.0, -1.0], r"not positive definite in matrix \(1, 2\)"),  # LAPACK fails
            ([1.0, 1e-13], r"at column 1 in matrix \(1, 2\) is at or below its floor"),  # LAPACK factors it
        ],
    )
    def test_each_failure_path_names_the_offending_matrix(self, rng, block, message):
        B = spd_stack(rng, (2, 3), 2)
        B[1, 2] = np.diag(block)
        with pytest.raises(SingularMatrixError, match=message):
            cholesky(B)

    def test_single_matrix_messages_carry_no_index(self):
        with pytest.raises(SingularMatrixError) as info:
            cholesky(np.diag([1.0, -1.0]))
        assert "in matrix" not in str(info.value)
