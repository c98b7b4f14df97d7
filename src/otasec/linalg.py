"""Dense complex linear algebra kernels used by the rest of the package.

Every matrix in the system model is tiny (tens of rows at most), so all
storage is dense ``complex128`` and the one factorization we need is written
out explicitly.  That keeps full control over the failure modes: the
finiteness check, the Hermitian-ness check and the pivot breakdown threshold
are part of the contract here, not an implementation detail of a backend
library.

:func:`cholesky` takes a stack of matrices ``B`` of shape ``(..., n, n)``: the
leading axes are a batch, and the contract holds per matrix of the stack.
A non-finite or non-Hermitian matrix raises :class:`ContractError`, a pivot
at or below its matrix's floor raises :class:`SingularMatrixError`, and for a
stack each message names the index of the offending matrix.  Every dot
product is a ``@`` on ``[..., None]`` views, which runs the same BLAS dot or
gemv per matrix as the 2-D loops did, so each matrix of a stack is factored
and solved with exactly the rounding of a 2-D call on that matrix alone.

``_forward`` solves ``L y = rhs`` and ``_back`` solves ``L^H x = y``.  A security
level needs only ``y`` (``sweep_L`` reads its prefixes: the first ``j`` entries use
only the leading ``j x j`` block of the factor); the combiner is ``_back`` on it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError, SingularMatrixError

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-10
# A Cholesky pivot at or below this fraction of the mean diagonal is treated
# as a breakdown (the input was not positive definite for our purposes).
PIVOT_RTOL = 1e-12


def _where(bad: np.ndarray) -> tuple[tuple, str]:
    """Index of the first offending matrix of a stack and its message suffix."""
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    return idx, f" in matrix {idx}" if idx else ""


def cholesky(B: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with ``L @ L.conj().T == B``, per matrix of a stack.

    ``B`` has shape ``(..., n, n)``.  Each matrix must be finite, Hermitian to
    within ``HERMITIAN_RTOL`` relative to its Frobenius norm, and positive
    definite.  A pivot at or below ``PIVOT_RTOL * trace(B) / n`` raises
    :class:`SingularMatrixError`.
    """
    B = np.asarray(B, dtype=np.complex128)
    if B.ndim < 2 or B.shape[-2] != B.shape[-1]:
        raise ShapeError(f"expected a square matrix, got shape {B.shape}")
    n = B.shape[-1]
    if not np.isfinite(B).all():
        _, at = _where(~np.isfinite(B).all(axis=(-2, -1)))
        raise ContractError(f"matrix has a non-finite entry{at}")
    fro = np.linalg.norm(B, axis=(-2, -1))
    dev = np.abs(B - B.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    skew = dev > HERMITIAN_RTOL * np.maximum(fro, np.finfo(float).tiny)
    if skew.any():
        idx, at = _where(skew)
        raise ContractError(
            f"matrix is not Hermitian{at}: max deviation {dev[idx]:.3e} vs norm {fro[idx]:.3e}"
        )
    diag = B.diagonal(axis1=-2, axis2=-1).real
    pivot_floor = PIVOT_RTOL * diag.sum(axis=-1) / n
    L = np.zeros_like(B)
    for j in range(n):
        row, col = L[..., j, None, :j], L[..., j, :j, None].conj()
        d = diag[..., j] - (row @ col)[..., 0, 0].real
        low = d <= pivot_floor
        if low.any():
            idx, at = _where(low)
            raise SingularMatrixError(
                f"non-positive pivot {d[idx]:.3e} at column {j}{at} "
                f"(floor {pivot_floor[idx]:.3e})"
            )
        root = np.sqrt(d)
        L[..., j, j] = root
        if j + 1 < n:
            update = B[..., j + 1 :, j] - (L[..., j + 1 :, :j] @ col)[..., 0]
            L[..., j + 1 :, j] = update / root[..., None]
    return L


def _forward(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L y = rhs`` for a factor from :func:`cholesky`; leading axes broadcast."""
    diag = L.diagonal(axis1=-2, axis2=-1)
    y = np.zeros(np.broadcast(L[..., 0], rhs).shape, dtype=np.complex128)
    for i in range(L.shape[-1]):
        dot = (L[..., i, None, :i] @ y[..., :i, None])[..., 0, 0]
        y[..., i] = (rhs[..., i] - dot) / diag[..., i]
    return y


def _back(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve ``L^H x = y`` for a factor from :func:`cholesky`: ``_back(L, _forward(L, b))`` solves ``B x = b``."""
    pivots = L.diagonal(axis1=-2, axis2=-1).real
    x = np.zeros(y.shape, dtype=np.complex128)
    for i in range(L.shape[-1] - 1, -1, -1):
        dot = (L[..., i + 1 :, i].conj()[..., None, :] @ x[..., i + 1 :, None])[..., 0, 0]
        x[..., i] = (y[..., i] - dot) / pivots[..., i]
    return x
