"""Small dense linear programs whose origin is feasible.

Solves ``maximize c^T x`` subject to ``M x <= b`` and ``x >= 0`` with
``b >= 0``, via a single-phase dense simplex with Bland's anti-cycling rule.
A nonnegative right-hand side makes ``x = 0`` feasible, so the slack basis
starts the search and no phase 1 is needed.  The programs produced by the
noise optimizer have at most a few dozen variables and a few hundred rows, so
a dense tableau is the simplest thing that is obviously correct, and it is
bit-for-bit deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

PIVOT_TOL = 1e-9
MAX_VARS = 128
MAX_CONSTRAINTS = 512
_MAX_ITER = 50_000
_RATIO_TIE_TOL = 1e-12


@dataclass
class LpProblem:
    """``maximize objective @ x`` s.t. ``ineq_matrix @ x <= ineq_rhs``, ``x >= 0``.

    Every entry of ``ineq_rhs`` must be nonnegative, so that ``x = 0`` is
    feasible.
    """

    num_vars: int
    objective: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray


@dataclass
class LpSolution:
    """The optimum, or ``status == "unbounded"`` with ``x = 0``."""

    status: str  # "optimal" | "unbounded"
    x: np.ndarray
    objective_value: float


def _validate(problem: LpProblem):
    n = int(problem.num_vars)
    c = np.asarray(problem.objective, dtype=float)
    M = np.atleast_2d(np.asarray(problem.ineq_matrix, dtype=float))
    b = np.asarray(problem.ineq_rhs, dtype=float)
    if c.shape != (n,):
        raise ContractError("objective length must equal num_vars")
    if M.shape != (b.shape[0], n):
        raise ContractError(f"constraint shapes disagree: {M.shape} vs rhs {b.shape}")
    if n > MAX_VARS or M.shape[0] > MAX_CONSTRAINTS:
        raise ContractError(f"problem too large: {n} vars, {M.shape[0]} constraints")
    if not (np.isfinite(c).all() and np.isfinite(M).all() and np.isfinite(b).all()):
        raise ContractError("non-finite coefficient in LP data")
    if np.any(b < 0.0):
        raise ContractError("negative right-hand side: the origin must be feasible")
    return c, M, b


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    T[rows] -= factors[rows, np.newaxis] * T[row]


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP to optimality, or report it unbounded."""
    c, M, b = _validate(problem)
    m, n = M.shape
    # Tableau: constraint rows over [x, slacks | rhs], then the objective row.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = M
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)
    for _ in range(_MAX_ITER):
        improving = (T[m, :-1] < -PIVOT_TOL).nonzero()[0]
        if not improving.size:
            break
        enter = improving[0]  # Bland: lowest improving index enters
        column = T[:m, enter]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return LpSolution("unbounded", np.zeros(n), 0.0)
        ratios = T[rows, -1] / column[rows]
        ties = rows[ratios <= ratios.min() + _RATIO_TIE_TOL]
        leave = ties[basis[ties].argmin()]  # tie broken by lowest basic index
        _pivot(T, leave, enter)
        basis[leave] = enter
    else:
        raise RuntimeError("simplex iteration limit exceeded")

    xs = np.zeros(n + m)
    xs[basis] = T[:m, -1]
    x = xs[:n]
    x[(x < 0.0) & (x > -1e-11)] = 0.0  # scrub rounding dust
    return LpSolution("optimal", x, float(c @ x))
