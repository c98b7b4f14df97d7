"""Small dense linear programs whose origin is feasible, stacked or alone.

Solves ``maximize c^T x`` subject to ``M x <= b`` and ``0 <= x <= u`` with
``b >= 0``, via a single-phase dense bounded-variable simplex (Dantzig, 1955)
with Bland's anti-cycling rule.  A nonnegative right-hand side makes ``x = 0``
feasible, so the slack basis starts the search and no phase 1 is needed.  The
condensed tableau keeps the nonbasic columns, with the variable in each slot,
and the rhs, over the ``m`` rows, the objective row and a scratch row:
``(m+2) x (n+1)``.  A pivot puts the leaving variable's unit column into the
entering slot before the row division, so each entry gets the IEEE operations
of the full ``(m+1) x (n+m+1)`` tableau; only a zero's sign may differ, which
no comparison and no rhs entry sees, so the answers are bitwise equal.

The upper bounds ``u`` (``+inf`` by default) are kept out of the rows.  Every
nonbasic variable sits at 0 or at its bound, and one at its bound is held
complemented, as ``u - x``, so the tableau sees every nonbasic variable at 0.
Bland's rule enters the lowest improving variable, a complemented one moving
down from its bound; a variable whose bound is 0 never enters.  The ratio test
stops a basic variable at 0, or at its bound when its column entry is below
``-PIVOT_TOL``; ties go to the lowest basic index, as without bounds, and a
variable stopped at its bound leaves complemented.  When the entering
variable's own bound is the binding ratio (ties go to it), it flips to that
bound without a pivot: the rhs takes its column times the bound, the column
changes sign, and the basis stays.  The flip is carried out as a pivot on the
variable's bound row ``x + s = u``, written into the scratch row with pivot
element 1, after which the slot holds the bound's slack ``s = u - x``.
:class:`LpSolution` counts pivots and flips apart.  An LP with no finite bound
takes the pivots of the plain simplex, with the same arithmetic.

A problem whose arrays carry a leading stack axis, ``M`` of shape
``(B, m, n)``, is ``B`` independent LPs of one shape.  They run Bland's rule
in lockstep: each iteration makes one pivot or flip in every LP still working,
as array operations over the stack.  An LP that is optimal or turns out
unbounded is parked: it runs along with zero factors, which change no rhs,
basis or complement flag, until the parked LPs make up half the working set;
then their answers are read off and they leave it.  Each LP takes the steps it
would take alone, so its answer is bitwise equal to solving it alone.  LPs of
different shapes can share a stack after padding: a zero row with rhs 0 is
never a pivot row, a zero column at the right with objective 0 never enters
whatever its bound, and the real variables keep their order, so padding
changes no answer's bits.  This is the one simplex path: a two-dimensional
problem runs as a stack of one and gets plain Python ``str``, ``float`` and
``int`` fields back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

PIVOT_TOL = 1e-9
MAX_VARS = 128
MAX_CONSTRAINTS = 512
_MAX_ITER = 50_000  # pivots and flips, per LP
_RATIO_TIE_TOL = 1e-12


@dataclass
class LpProblem:
    """``maximize objective @ x`` s.t. ``ineq_matrix @ x <= ineq_rhs``, ``0 <= x <= upper``.

    Every entry of ``ineq_rhs`` must be nonnegative, so that ``x = 0`` is
    feasible.  ``upper`` is ``+inf`` (no bound) or an array shaped like
    ``objective`` of nonnegative bounds, ``+inf`` allowed.  A stack of ``B``
    LPs has ``objective`` of shape ``(B, n)``, ``ineq_matrix`` of shape
    ``(B, m, n)`` and ``ineq_rhs`` of shape ``(B, m)``.
    """

    num_vars: int
    objective: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    upper: float | np.ndarray = np.inf


@dataclass
class LpSolution:
    """The optimum, or ``status == "unbounded"`` with ``x = 0``.

    ``pivots`` counts the basis changes and ``flips`` the bound flips, which
    change no basis; their sum is the LP's simplex iterations.  For a stack
    every field is an array over the stack: ``status`` of strings, ``x`` of
    shape ``(B, n)``.
    """

    status: str | np.ndarray  # "optimal" | "unbounded"
    x: np.ndarray
    objective_value: float | np.ndarray
    pivots: int | np.ndarray = 0
    flips: int | np.ndarray = 0


def _validate(problem: LpProblem):
    n = int(problem.num_vars)
    c = np.asarray(problem.objective, dtype=float)
    M = np.asarray(problem.ineq_matrix, dtype=float)
    M = M if M.ndim == 3 else np.atleast_2d(M)
    b = np.asarray(problem.ineq_rhs, dtype=float)
    u = np.asarray(problem.upper, dtype=float)
    if M.ndim > 3:
        raise ContractError(f"an LP stack has one leading axis, got shape {M.shape}")
    if c.shape != M.shape[:-2] + (n,):
        raise ContractError("objective length must equal num_vars")
    if M.shape != b.shape + (n,):
        raise ContractError(f"constraint shapes disagree: {M.shape} vs rhs {b.shape}")
    if u.shape not in ((), c.shape):
        raise ContractError(f"upper bounds must be a scalar or shaped like the objective, got {u.shape}")
    if n > MAX_VARS or M.shape[-2] > MAX_CONSTRAINTS:
        raise ContractError(f"problem too large: {n} vars, {M.shape[-2]} constraints")
    if not (np.isfinite(c).all() and np.isfinite(M).all() and np.isfinite(b).all()):
        raise ContractError("non-finite coefficient in LP data")
    if np.any(b < 0.0):
        raise ContractError("negative right-hand side: the origin must be feasible")
    if not np.all(u >= 0.0):  # NaN fails too
        raise ContractError("upper bounds must be nonnegative, +inf allowed")
    return c, M, b, np.broadcast_to(u, c.shape)


def _basic_x(T: np.ndarray, basis: np.ndarray, u: np.ndarray, flipped: np.ndarray, n: int) -> np.ndarray:
    """The structural part of each basic solution of a stack, rounding dust scrubbed."""
    m = basis.shape[-1]
    xs = np.zeros(basis.shape[:-1] + (n + m,))
    xs[np.arange(len(basis))[:, np.newaxis], basis] = T[:, :m, -1]
    # A complemented variable is held as its distance below the bound.
    x = np.where(flipped[:, :n], u - xs[:, :n], xs[:, :n])
    x[(x < 0.0) & (x > -1e-11)] = 0.0
    return x


def _solve_stack(c: np.ndarray, M: np.ndarray, b: np.ndarray, u: np.ndarray) -> LpSolution:
    B, m, n = M.shape
    if not (m and n):  # a zero row at the bottom never pivots, a zero column at the right never enters
        column, row = ((0, 0), (0, 1)), ((0, 0), (0, 1), (0, 1))
        padded = _solve_stack(np.pad(c, column), np.pad(M, row), np.pad(b, column), np.pad(u, column))
        return LpSolution(padded.status, padded.x[:, :n], padded.objective_value, padded.pivots, padded.flips)
    unbounded = np.zeros(B, dtype=bool)
    x = np.zeros((B, n))
    pivots, flips = np.zeros(B, dtype=int), np.zeros(B, dtype=int)
    # A variable with bound 0 never enters: a zero column with price 0 never improves, and
    # no other entry depends on a column that never enters.
    frozen = u == 0.0
    # The working set: the condensed tableaux over [nonbasic columns | rhs], with row m the
    # objective and row m + 1 the scratch row for a flip; the variables in their basis rows
    # (one entry per tableau row; variable n + m + 1 is a dummy) and nonbasic column slots;
    # each variable's bound and complement flag; the flips made; and per LP whether it is
    # parked, since which iteration and whether unbounded, with its stack index.
    T = np.zeros((B, m + 2, n + 1))
    T[:, :m, :n], T[:, :m, -1] = np.where(frozen[:, np.newaxis], 0.0, M), b
    T[:, m, :n] = -np.where(frozen, 0.0, c)
    basis = np.tile(np.arange(n, n + m + 2), (B, 1))
    nonbasic = np.tile(np.arange(n), (B, 1))
    cap = np.concatenate([u, np.full((B, m + 2), np.inf)], axis=1)
    flipped = np.zeros((B, n + m + 2), dtype=bool)
    made, ended = np.zeros(B, dtype=int), np.zeros(B, dtype=int)
    parked, stuck = np.zeros(B, dtype=bool), np.zeros(B, dtype=bool)
    ids = np.arange(B)
    work = np.arange(B)  # positions in the working set
    waiting = 0  # parked LPs

    def settle() -> None:
        """Read off the parked LPs."""
        at = ids[parked]
        flips[at] = made[parked]
        pivots[at] = ended[parked] - made[parked]  # one pivot or flip per iteration before parking
        unbounded[at] = stuck[parked]
        read = parked & ~stuck
        x[ids[read]] = _basic_x(T[read], basis[read, :m], cap[read, :n], flipped[read], n)

    for it in range(_MAX_ITER):
        if 2 * waiting >= ids.size:  # drop the parked LPs once they are half the set
            settle()
            keep = ~parked
            T, basis, nonbasic, cap, flipped = T[keep], basis[keep], nonbasic[keep], cap[keep], flipped[keep]
            made, ended, parked, stuck, ids = made[keep], ended[keep], parked[keep], stuck[keep], ids[keep]
            work, waiting = work[: ids.size], 0
            if not ids.size:
                break
        improving = T[:, m, :-1] < -PIVOT_TOL
        enter = np.where(improving, nonbasic, n + m).argmin(axis=1)  # Bland: lowest improving variable
        entering = nonbasic[work, enter]
        factors = T[work, :, enter]
        column = factors[:, :m]
        # A basic variable stops at 0 where its column entry is positive, at its bound where negative.
        upper = column < -PIVOT_TOL
        span = T[:, :m, -1] - np.where(upper, cap[work[:, np.newaxis], basis[:, :m]], 0.0)
        ratios = np.divide(span, column, out=np.full(column.shape, np.inf), where=upper | (column > PIVOT_TOL))
        limit = ratios[work, ratios.argmin(axis=1)] + _RATIO_TIE_TOL
        bound = cap[work, entering]
        better = improving[work, enter]
        done = ~((better & (np.minimum(limit, bound) < np.inf)) | parked)  # optimal or unbounded
        # A done LP is parked: it runs along until it is dropped, each step flipping a unit bound
        # with zero factors, which leaves its rhs, basis and complement flags as they are.
        np.copyto(ended, it, where=done)
        stuck |= done & better
        parked |= done
        waiting = np.count_nonzero(parked)
        if waiting == ids.size:
            settle()
            break
        bound[parked] = 1.0
        flip = (bound <= limit) | parked  # the entering variable's own bound binds first, or ties
        row = np.where(ratios <= limit[:, np.newaxis], basis[:, :m], n + m).argmin(axis=1)  # lowest basic index
        stop = upper[work, row] & ~flip  # the leaving variable stops at its bound
        leave = np.where(flip, m + 1, row)
        # A flip pivots on the entering variable's bound row, x + s = u, in the scratch row, and
        # s = u - x, the variable complemented, takes its slot.  A variable leaving at its bound
        # leaves complemented: its row's rhs is measured from the bound (span), and its unit
        # column is negated.
        T[:, m + 1] = 0.0
        T[work, leave, -1] = np.where(flip, bound, span[work, row])
        basis[:, m + 1] = np.where(parked, n + m + 1, entering)
        factors[:, m + 1] = 1.0
        pivot = factors[work, leave]
        factors[work, leave] = 0.0
        factors[parked] = 0.0
        # The leaving variable's unit column takes the entering slot before the row division,
        # so every entry gets the IEEE operations it would get in the full tableau.
        T[work, :, enter] = 0.0
        T[work, leave, enter] = np.where(stop, -1.0, 1.0)
        prow = T[work, leave] / pivot[:, np.newaxis]
        T[work, leave] = prow
        # One product per entry, as in the full tableau, though einsum adds each to +0.0: a -0.0
        # product becomes +0.0.  Then a row with a zero factor subtracts +0.0 from its rhs, which
        # keeps even a -0.0.  A zero's sign in the other columns reaches no rhs entry, but a
        # zero rhs in the pivot row needs the signed products there.
        update = np.einsum("wr,wc->wrc", factors, prow)
        if not prow[:, -1].all():
            np.multiply(factors, prow[:, -1:], out=update[:, :, -1])
            np.copyto(update[:, :, -1], 0.0, where=factors == 0.0)
        T -= update
        leaving = basis[work, leave]
        nonbasic[work, enter], basis[work, leave] = leaving, entering
        flipped[work, leaving] ^= flip | stop
        made += flip & ~parked  # a parked LP's flips have zero factors
    else:
        raise RuntimeError("simplex iteration limit exceeded")
    value = (c[:, np.newaxis, :] @ x[:, :, np.newaxis])[:, 0, 0]
    status = np.where(unbounded, "unbounded", "optimal")
    return LpSolution(status, x, np.where(unbounded, 0.0, value), pivots, flips)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP, or each LP of a stack, to optimality, or report it unbounded."""
    c, M, b, u = _validate(problem)
    if M.ndim == 3:
        return _solve_stack(c, M, b, u)
    one = _solve_stack(c[np.newaxis], M[np.newaxis], b[np.newaxis], u[np.newaxis])
    return LpSolution(
        str(one.status[0]), one.x[0], float(one.objective_value[0]), int(one.pivots[0]), int(one.flips[0])
    )
