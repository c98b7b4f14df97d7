"""Small dense linear programs whose origin is feasible, stacked or alone.

Solves ``maximize c^T x`` subject to ``M x <= b`` and ``x >= 0`` with
``b >= 0``, via a single-phase dense simplex with Bland's anti-cycling rule.
A nonnegative right-hand side makes ``x = 0`` feasible, so the slack basis
starts the search and no phase 1 is needed.  The condensed tableau keeps the
nonbasic columns, with the variable in each slot, and the rhs: ``(m+1) x (n+1)``.
A pivot puts the leaving variable's unit column into the entering slot before
the row division, so each entry gets the IEEE operations of the full
``(m+1) x (n+m+1)`` tableau; only a zero's sign may differ, which no comparison
sees, so the answers are bitwise equal.

A problem whose arrays carry a leading stack axis, ``M`` of shape
``(B, m, n)``, is ``B`` independent LPs of one shape.  They run Bland's rule
in lockstep: each iteration makes one pivot in every LP still working, as
array operations over the stack, and an LP leaves the working set when it is
optimal or turns out unbounded.  Each LP takes the pivots it would take
alone, so its answer is bitwise equal to solving it alone.  LPs of different
shapes can share a stack after padding: a zero row with rhs 0 is never a
pivot row, a zero column at the right with objective 0 never enters, and
the real variables keep their order, so padding changes no answer's bits.
This is the one simplex path: a two-dimensional problem runs as a stack of
one and gets plain Python ``str``, ``float`` and ``int`` fields back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

PIVOT_TOL = 1e-9
MAX_VARS = 128
MAX_CONSTRAINTS = 512
_MAX_ITER = 50_000  # per LP
_RATIO_TIE_TOL = 1e-12


@dataclass
class LpProblem:
    """``maximize objective @ x`` s.t. ``ineq_matrix @ x <= ineq_rhs``, ``x >= 0``.

    Every entry of ``ineq_rhs`` must be nonnegative, so that ``x = 0`` is
    feasible.  A stack of ``B`` LPs has ``objective`` of shape ``(B, n)``,
    ``ineq_matrix`` of shape ``(B, m, n)`` and ``ineq_rhs`` of shape ``(B, m)``.
    """

    num_vars: int
    objective: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray


@dataclass
class LpSolution:
    """The optimum, or ``status == "unbounded"`` with ``x = 0``.

    ``pivots`` counts the simplex pivots made.  For a stack every field is an
    array over the stack: ``status`` of strings, ``x`` of shape ``(B, n)``.
    """

    status: str | np.ndarray  # "optimal" | "unbounded"
    x: np.ndarray
    objective_value: float | np.ndarray
    pivots: int | np.ndarray = 0


def _validate(problem: LpProblem):
    n = int(problem.num_vars)
    c = np.asarray(problem.objective, dtype=float)
    M = np.asarray(problem.ineq_matrix, dtype=float)
    M = M if M.ndim == 3 else np.atleast_2d(M)
    b = np.asarray(problem.ineq_rhs, dtype=float)
    if M.ndim > 3:
        raise ContractError(f"an LP stack has one leading axis, got shape {M.shape}")
    if c.shape != M.shape[:-2] + (n,):
        raise ContractError("objective length must equal num_vars")
    if M.shape != b.shape + (n,):
        raise ContractError(f"constraint shapes disagree: {M.shape} vs rhs {b.shape}")
    if n > MAX_VARS or M.shape[-2] > MAX_CONSTRAINTS:
        raise ContractError(f"problem too large: {n} vars, {M.shape[-2]} constraints")
    if not (np.isfinite(c).all() and np.isfinite(M).all() and np.isfinite(b).all()):
        raise ContractError("non-finite coefficient in LP data")
    if np.any(b < 0.0):
        raise ContractError("negative right-hand side: the origin must be feasible")
    return c, M, b


def _basic_x(T: np.ndarray, basis: np.ndarray, n: int) -> np.ndarray:
    """The structural part of each basic solution of a stack, rounding dust scrubbed."""
    xs = np.zeros(basis.shape[:-1] + (n + basis.shape[-1],))
    xs[np.arange(len(basis))[:, np.newaxis], basis] = T[:, :-1, -1]
    x = xs[:, :n]
    x[(x < 0.0) & (x > -1e-11)] = 0.0
    return x


def _solve_stack(c: np.ndarray, M: np.ndarray, b: np.ndarray) -> LpSolution:
    B, m, n = M.shape
    unbounded = np.zeros(B, dtype=bool)
    x = np.zeros((B, n))
    pivots = np.zeros(B, dtype=int)
    # The working set: the condensed tableaux over [nonbasic columns | rhs], the variables
    # in their basis rows and nonbasic column slots, and the stack indices of unfinished LPs.
    T = np.zeros((B, m + 1, n + 1))
    T[:, :m, :n], T[:, :m, -1], T[:, m, :n] = M, b, -c
    basis = np.tile(np.arange(n, n + m), (B, 1))
    nonbasic = np.tile(np.arange(n), (B, 1))
    ids = np.arange(B)
    work = np.arange(B)  # positions in the working set
    for it in range(_MAX_ITER):
        improving = T[:, m, :-1] < -PIVOT_TOL
        enter = np.where(improving, nonbasic, n + m).argmin(axis=1)  # Bland: lowest improving variable
        column = T[work, :m, enter]
        eligible = column > PIVOT_TOL
        better = improving[work, enter]
        going = better & eligible.any(axis=1)
        if not (going.all() and ids.size):  # some LP optimal or unbounded, or none left
            finished, optimal = ~going, ~better
            pivots[ids[finished]] = it
            unbounded[ids[finished & better]] = True
            x[ids[optimal]] = _basic_x(T[optimal], basis[optimal], n)
            T, basis, nonbasic, ids = T[going], basis[going], nonbasic[going], ids[going]
            enter, column, eligible = enter[going], column[going], eligible[going]
            work = work[: ids.size]
            if not ids.size:
                break
        ratios = np.divide(T[:, :m, -1], column, out=np.full(column.shape, np.inf), where=eligible)
        ties = ratios <= ratios.min(axis=1, keepdims=True) + _RATIO_TIE_TOL
        leave = np.where(ties, basis, n + m).argmin(axis=1)  # lowest basic index
        factors = T[work, :, enter]
        factors[work, leave] = 0.0
        # The leaving variable's unit column takes the entering slot before the row division,
        # so every entry gets the IEEE operations it would get in the full tableau.
        T[work, :, enter] = np.arange(m + 1) == leave[:, np.newaxis]
        T[work, leave] /= column[work, leave][:, np.newaxis]
        # Rows with a zero factor are left alone: x - 0*y would turn -0.0 into +0.0.
        update = factors[:, :, np.newaxis] * T[work, leave][:, np.newaxis, :]
        np.subtract(T, update, out=T, where=(factors != 0.0)[:, :, np.newaxis])
        nonbasic[work, enter], basis[work, leave] = basis[work, leave], nonbasic[work, enter]
    else:
        raise RuntimeError("simplex iteration limit exceeded")
    value = (c[:, np.newaxis, :] @ x[:, :, np.newaxis])[:, 0, 0]
    status = np.where(unbounded, "unbounded", "optimal")
    return LpSolution(status, x, np.where(unbounded, 0.0, value), pivots)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP, or each LP of a stack, to optimality, or report it unbounded."""
    c, M, b = _validate(problem)
    if M.ndim == 3:
        return _solve_stack(c, M, b)
    one = _solve_stack(c[np.newaxis], M[np.newaxis], b[np.newaxis])
    return LpSolution(str(one.status[0]), one.x[0], float(one.objective_value[0]), int(one.pivots[0]))
