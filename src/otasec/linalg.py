"""Dense complex linear algebra kernels used by the rest of the package.

Every matrix in the system model is tiny (tens of rows at most), so all
storage is dense ``complex128`` and the one factorization we need is written
out explicitly.  That keeps full control over the failure modes: the
Hermitian-ness check and the pivot breakdown threshold are part of the
contract here, not an implementation detail of a backend library.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ShapeError, SingularMatrixError

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-10
# A Cholesky pivot at or below this fraction of the mean diagonal is treated
# as a breakdown (the input was not positive definite for our purposes).
PIVOT_RTOL = 1e-12


def cholesky(B: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with ``L @ L.conj().T == B``.

    ``B`` must be square, Hermitian to within ``HERMITIAN_RTOL`` relative to
    its Frobenius norm, and positive definite.  A pivot at or below
    ``PIVOT_RTOL * trace(B) / n`` raises :class:`SingularMatrixError`.
    """
    B = np.asarray(B, dtype=np.complex128)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {B.shape}")
    n = B.shape[0]
    fro = np.linalg.norm(B)
    dev = np.max(np.abs(B - B.conj().T))
    if dev > HERMITIAN_RTOL * max(fro, np.finfo(float).tiny):
        raise ContractError(
            f"matrix is not Hermitian: max deviation {dev:.3e} vs norm {fro:.3e}"
        )
    pivot_floor = PIVOT_RTOL * np.trace(B).real / n
    L = np.zeros_like(B)
    for j in range(n):
        d = B[j, j].real - np.real(L[j, :j] @ L[j, :j].conj())
        if d <= pivot_floor:
            raise SingularMatrixError(
                f"non-positive pivot {d:.3e} at column {j} (floor {pivot_floor:.3e})"
            )
        L[j, j] = math.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (B[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j].conj()) / L[j, j]
    return L


def hermitian_solve(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``B x = rhs`` for Hermitian positive-definite ``B``.

    Uses the Cholesky factor from :func:`cholesky` followed by forward and
    backward substitution.
    """
    rhs = np.asarray(rhs, dtype=np.complex128)
    if rhs.ndim != 1:
        raise ShapeError(f"expected a vector right-hand side, got shape {rhs.shape}")
    L = cholesky(B)
    n = L.shape[0]
    if rhs.shape[0] != n:
        raise ShapeError(f"matrix is {n}x{n} but right-hand side has length {rhs.shape[0]}")
    y = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        y[i] = (rhs[i] - L[i, :i] @ y[:i]) / L[i, i]
    x = np.zeros(n, dtype=np.complex128)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - L[i + 1 :, i].conj() @ x[i + 1 :]) / L[i, i].real
    return x
