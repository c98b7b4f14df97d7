"""Dense complex linear algebra kernels used by the rest of the package.

Every matrix in the system model is tiny (tens of rows at most), so all
storage is dense ``complex128``.  The one factorization is LAPACK's
(``np.linalg.cholesky``), with the documented contract enforced by checks
around the call.  :func:`cholesky` takes a stack of matrices ``B`` of shape
``(..., n, n)``: the leading axes are a batch, the contract holds per matrix
of the stack, and each error message names the offending matrix.  numpy
factors each matrix of a stack with its own LAPACK call, and each
substitution step is a ``@`` on ``[..., None]`` views, the same BLAS dot or
gemv per matrix as a 2-D call, so each matrix of a stack is factored and
solved with exactly the rounding of a 2-D call on that matrix alone.

``_forward`` solves ``L y = rhs`` and ``_back`` solves ``L^H x = y`` (numpy has no
triangular solve).  A security level needs only ``y`` (``sweep_L`` reads its
prefixes: the first ``j`` entries use only the leading ``j x j`` block of the
factor); the combiner is ``_back`` on it.
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
    within ``HERMITIAN_RTOL`` relative to its largest entry, and positive
    definite: a pivot at or below ``PIVOT_RTOL * trace(B) / n``, checked on
    ``|L_jj|^2`` after LAPACK's factor, or a pivot LAPACK rejects (at most 0)
    raises :class:`SingularMatrixError`.  No ``LinAlgError`` escapes.
    """
    B = np.asarray(B, dtype=np.complex128)
    if B.ndim < 2 or B.shape[-2] != B.shape[-1]:
        raise ShapeError(f"expected a square matrix, got shape {B.shape}")
    if not np.isfinite(B).all():
        _, at = _where(~np.isfinite(B).all(axis=(-2, -1)))
        raise ContractError(f"matrix has a non-finite entry{at}")
    # Against the largest entry, not a norm: squaring the entries would overflow or underflow.
    big = np.abs(B).max(axis=(-2, -1))
    dev = np.abs(B - B.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    skew = dev > HERMITIAN_RTOL * np.maximum(big, np.finfo(float).tiny)
    if skew.any():
        idx, at = _where(skew)
        raise ContractError(
            f"matrix is not Hermitian{at}: max deviation {dev[idx]:.3e} vs max entry {big[idx]:.3e}"
        )
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        # LAPACK met a pivot <= 0.  Factor the matrices one at a time to name the first that fails.
        failed = np.zeros(B.shape[:-2], dtype=bool)
        for idx in np.ndindex(failed.shape):
            try:
                np.linalg.cholesky(B[idx])
            except np.linalg.LinAlgError:
                failed[idx] = True
                break
        raise SingularMatrixError(f"matrix is not positive definite{_where(failed)[1]}") from None
    pivot_floor = PIVOT_RTOL * B.diagonal(axis1=-2, axis2=-1).real.mean(axis=-1)
    pivots = np.square(L.diagonal(axis1=-2, axis2=-1).real)
    low = pivots <= pivot_floor[..., None]
    if low.any():
        idx, at = _where(low.any(axis=-1))
        j = int(np.argmax(low[idx]))
        raise SingularMatrixError(
            f"pivot {pivots[idx][j]:.3e} at column {j}{at} is at or below its floor {pivot_floor[idx]:.3e}"
        )
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
