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

A problem's arrays may carry leading axes, ``M`` of shape ``(..., m, n)``:
one LP per entry.  :func:`solve_lp` puts every LP of all its problems into
one ``(B, m, n)`` stack, which runs Bland's rule in lockstep: each iteration
makes one pivot or flip in every LP still working, as array operations over
the stack.  An LP that is optimal or turns out unbounded is parked: it runs
along with zero factors, which change no rhs, basis or complement flag,
until the parked LPs make up half the working set; then their answers are
read off and they leave it.  Each LP takes the steps it would take alone, so
its answer is bitwise equal to solving it alone.  LPs of different shapes
share the stack after padding: a zero row with rhs 0 at the bottom is never
a pivot row, a zero column at the right with objective 0 and bound 0 never
enters, and the real variables keep their order, so padding changes no
answer's bits.  This is the one simplex path: each problem gets one
:class:`LpSolution` back, over its own leading axes (none for one LP).

An LP may carry further right-hand sides (a private :class:`_Ranging`
problem): extra rhs columns of its tableau, which take the same pivots,
flips and bound-stop writes as its own rhs and never enter the ratio test,
so its own answer, pivots and flips are bitwise those without them.  At the
LP's optimal basis each gives a basic solution, which one step of iterative
refinement polishes (the pivots were chosen for another rhs).  It is
accepted only when the basis is provably its unique optimum (rhs ranging,
Bertsimas & Tsitsiklis, 1997, section 5.1): every basic value lies in its
bounds, compared exactly, and every live nonbasic reduced cost of the final
tableau is non-improving by more than ``PIVOT_TOL``, so the cold simplex
would reach the same vertex.  A parked LP's steps overwrite its slot 0, so
that slot is kept when the LP parks.
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
    ``objective`` of nonnegative bounds, ``+inf`` allowed.  Leading axes make
    an array of LPs: ``objective`` of shape ``(..., n)``, ``ineq_matrix``
    ``(..., m, n)`` and ``ineq_rhs`` ``(..., m)``.
    """

    objective: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    upper: float | np.ndarray = np.inf


@dataclass
class LpSolution:
    """The optimum, or ``status == "unbounded"`` with ``x = 0``, of each LP of a problem.

    ``pivots`` counts the basis changes and ``flips`` the bound flips, which
    change no basis; their sum is the LP's simplex iterations.  Every field is
    an array over the problem's leading axes (0-d for a lone LP): ``status``
    of strings, ``x`` with the variables last.  The optimizer's allocation and
    tie-break LPs are bounded by construction, so "unbounded" from one of them
    can only be numerical.
    """

    status: np.ndarray  # "optimal" | "unbounded"
    x: np.ndarray
    objective_value: np.ndarray
    pivots: np.ndarray | int = 0
    flips: np.ndarray | int = 0


@dataclass
class _Ranging(LpProblem):
    """A problem whose LPs carry further right-hand sides ``ranges`` ``(..., m, E)`` through their pivots.

    Each is read off at its LP's optimal basis (rhs ranging) into a :class:`_Ranged` solution.
    """

    ranges: np.ndarray | None = None


@dataclass
class _Ranged(LpSolution):
    """The solution of a :class:`_Ranging` problem: ``ranged_x`` ``(..., E, n)``, the basic solution at each further
    rhs, and ``accepted`` ``(..., E)``, true where it is proven the unique optimum of its LP."""

    ranged_x: np.ndarray | None = None
    accepted: np.ndarray | None = None


def _validate(problems) -> tuple[tuple, list]:
    """Every problem's LPs in one padded ``(B, m, n)`` stack ``(c, M, b, u, ranges)``, checked, and each problem's slice.

    Zero rows go at the bottom and zero columns, objective 0 and bound 0, at the right (at least one of each);
    the further rhs columns of a :class:`_Ranging` problem go first in ``ranges`` ``(B, m, E)``, zeros after them.
    The data checks then scan the stack once.
    """
    arrays = [[np.asarray(a) for a in (p.objective, p.ineq_matrix, p.ineq_rhs, p.upper)] for p in problems]
    extras = [np.asarray(p.ranges) if isinstance(p, _Ranging) else np.zeros(np.shape(p.ineq_rhs) + (0,))
              for p in problems]
    for (obj, mat, rhs, upper), more in zip(arrays, extras):
        if mat.ndim < 2 or (obj.shape, rhs.shape) != (mat.shape[:-2] + mat.shape[-1:], mat.shape[:-1]):
            raise ContractError(f"LP shapes disagree: objective {obj.shape}, rhs {rhs.shape}, constraints {mat.shape}")
        if upper.shape not in ((), obj.shape):
            raise ContractError(f"upper bounds must be a scalar or shaped like the objective, got {upper.shape}")
        if mat.shape[-1] > MAX_VARS or mat.shape[-2] > MAX_CONSTRAINTS:
            raise ContractError(f"problem too large: {mat.shape[-1]} vars, {mat.shape[-2]} constraints")
        if more.shape[:-1] != rhs.shape:
            raise ContractError(f"further right-hand sides must be shaped rhs + (E,), got {more.shape}")
    m, n = (max([1] + [mat.shape[axis] for _, mat, _, _ in arrays]) for axis in (-2, -1))
    E = max(more.shape[-1] for more in extras) if extras else 0
    stops = np.cumsum([0] + [np.prod(mat.shape[:-2], dtype=int) for _, mat, _, _ in arrays])
    c, M, b, u, ranges = (np.zeros((stops[-1],) + shape) for shape in ((n,), (m, n), (m,), (n,), (m, E)))
    spans = [slice(start, stop) for start, stop in zip(stops[:-1], stops[1:])]
    for (obj, mat, rhs, upper), more, at in zip(arrays, extras, spans):
        size, rows, cols = at.stop - at.start, *mat.shape[-2:]
        M[at, :rows, :cols] = mat.reshape(size, rows, cols)
        c[at, :cols], b[at, :rows] = obj.reshape(size, cols), rhs.reshape(size, rows)
        u[at, :cols] = upper.reshape(size, cols) if upper.ndim else upper
        ranges[at, :rows, : more.shape[-1]] = more.reshape(size, rows, more.shape[-1])
    if not (np.isfinite(c).all() and np.isfinite(M).all() and np.isfinite(b).all() and np.isfinite(ranges).all()):
        raise ContractError("non-finite coefficient in LP data")
    if np.any(b < 0.0):
        raise ContractError("negative right-hand side: the origin must be feasible")
    if not np.all(u >= 0.0):  # NaN fails too
        raise ContractError("upper bounds must be nonnegative, +inf allowed")
    return (c, M, b, u, ranges), spans


def _values(rhs: np.ndarray, basis: np.ndarray, cap: np.ndarray, flipped: np.ndarray, n: int) -> np.ndarray:
    """Every variable's value ``(B, E, n + m)``, structural then slack, in each basic solution of a stack at its rhs
    columns ``rhs`` ``(B, m, E)``."""
    B, m, E = rhs.shape
    xs = np.zeros((B, E, n + m))
    xs[np.arange(B)[:, np.newaxis, np.newaxis], np.arange(E)[:, np.newaxis], basis[:, np.newaxis]] = rhs.swapaxes(1, 2)
    # A complemented variable is held as its distance below the bound.
    return np.where(flipped[:, np.newaxis, : n + m], cap[:, np.newaxis, : n + m] - xs, xs)


def _basic_x(rhs: np.ndarray, basis: np.ndarray, cap: np.ndarray, flipped: np.ndarray, n: int) -> np.ndarray:
    """The structural part ``(B, E, n)`` of :func:`_values`, rounding dust scrubbed."""
    x = _values(rhs, basis, cap, flipped, n)[..., :n]
    x[(x < 0.0) & (x > -1e-11)] = 0.0
    return x


def _refined(T, basis, nonbasic, cap, flipped, M, ranges) -> np.ndarray:
    """The basic values ``(B, m, E)`` at the further rhs of a stack of final tableaux, after one step of iterative
    refinement.

    The further rhs ride a path of pivots chosen for another rhs, whose rounding reached 2e-12 of the answer.
    So take the residual ``r = ranges - M x - s`` of the original rows at the values the tableau holds, and add
    ``B^-1 r`` to the basic values: a nonbasic slack's tableau column is its column of ``B^-1``, and a basic
    slack's is a unit column.
    """
    B, m, n = M.shape
    values = T[:, :m, n + 1 :]
    z = _values(values, basis, cap, flipped, n).swapaxes(1, 2)
    residual = ranges - M @ z[:, :n] - z[:, n:]
    slacks = [np.where(held[..., np.newaxis] >= n, np.take_along_axis(residual, np.maximum(held - n, 0)[..., np.newaxis],
                                                                        axis=1), 0.0) for held in (nonbasic, basis)]
    return values + T[:, :m, :n] @ slacks[0] + slacks[1]


def _solve_stack(c: np.ndarray, M: np.ndarray, b: np.ndarray, u: np.ndarray, ranges: np.ndarray) -> tuple:
    """``(unbounded, x, pivots, flips, ranged_x, accepted)`` per LP of a stack with at least one row and one column.

    ``ranges`` ``(B, m, E)`` holds further right-hand sides, carried through the same pivots and flips: ``ranged_x``
    ``(B, E, n)`` is the basic solution at each, and ``accepted`` ``(B, E)`` marks the ones proven optimal.
    """
    B, m, n = M.shape
    E = ranges.shape[-1]
    unbounded = np.zeros(B, dtype=bool)
    x, ranged_x = np.zeros((B, n)), np.zeros((B, E, n))
    pivots, flips = np.zeros(B, dtype=int), np.zeros(B, dtype=int)
    accepted = np.zeros((B, E), dtype=bool)
    # A variable with bound 0 never enters: a zero column with price 0 never improves, and
    # no other entry depends on a column that never enters.  So it keeps its slot.
    frozen = u == 0.0
    # The working set: the condensed tableaux over [nonbasic columns | rhs | further rhs], with row m
    # the objective and row m + 1 the scratch row for a flip; the variables in their basis rows
    # (one entry per tableau row; variable n + m + 1 is a dummy) and nonbasic column slots;
    # each variable's bound and complement flag; the flips made; and per LP whether it is
    # parked, since which iteration and whether unbounded, with its stack index.
    T = np.zeros((B, m + 2, n + 1 + E))
    T[:, :m, :n], T[:, :m, n], T[:, :m, n + 1 :] = np.where(frozen[:, np.newaxis], 0.0, M), b, ranges
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

    finals = []  # per drop, the LPs read off: stack indices, final tableaux, basis rows, slots, bounds and flags
    kept, kept_var = np.zeros((B, m + 1)), np.zeros(B, dtype=int)  # slot 0 of each LP as it parked

    def settle() -> None:
        """Count the parked LPs' steps and keep what the answers are read from."""
        at = ids[parked]
        flips[at] = made[parked]
        pivots[at] = ended[parked] - made[parked]  # one pivot or flip per iteration before parking
        unbounded[at] = stuck[parked]
        read = parked & ~stuck
        finals.append((ids[read], T[read], basis[read, :m], nonbasic[read], cap[read], flipped[read]))

    for it in range(_MAX_ITER):
        if 2 * waiting >= ids.size:  # drop the parked LPs once they are half the set
            settle()
            keep = ~parked
            T, basis, nonbasic, cap, flipped = T[keep], basis[keep], nonbasic[keep], cap[keep], flipped[keep]
            made, ended, parked, stuck, ids = made[keep], ended[keep], parked[keep], stuck[keep], ids[keep]
            work, waiting = work[: ids.size], 0
            if not ids.size:
                break
        improving = T[:, m, :n] < -PIVOT_TOL
        enter = np.where(improving, nonbasic, n + m).argmin(axis=1)  # Bland: lowest improving variable
        entering = nonbasic[work, enter]
        factors = T[work, :, enter]
        column = factors[:, :m]
        # A basic variable stops at 0 where its column entry is positive, at its bound where negative.
        upper = column < -PIVOT_TOL
        span = T[:, :m, n] - np.where(upper, cap[work[:, np.newaxis], basis[:, :m]], 0.0)
        ratios = np.divide(span, column, out=np.full(column.shape, np.inf), where=upper | (column > PIVOT_TOL))
        limit = ratios[work, ratios.argmin(axis=1)] + _RATIO_TIE_TOL
        bound = cap[work, entering]
        better = improving[work, enter]
        done = ~((better & (np.minimum(limit, bound) < np.inf)) | parked)  # optimal or unbounded
        # A done LP is parked: it runs along until it is dropped, each step flipping a unit bound
        # with zero factors, which leaves its rhs, basis and complement flags as they are.  The
        # steps do overwrite slot 0, so its column and variable are kept for the further rhs.
        if E and done.any():
            kept[ids[done]], kept_var[ids[done]] = T[done, : m + 1, 0], nonbasic[done, 0]
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
        # leaves complemented: its row's rhs, and each further rhs, is measured from the bound,
        # and its unit column is negated.
        T[:, m + 1] = 0.0
        T[work, leave, n] = np.where(flip, bound, span[work, row])
        if E:  # the scratch row is the pivot row of a flip only
            T[:, m + 1, n + 1 :] = bound[:, np.newaxis]
            if stop.any():
                T[work, row, n + 1 :] -= np.where(stop, cap[work, basis[work, row]], 0.0)[:, np.newaxis]
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
        if not prow[:, n:].all():
            rhs = update[:, :, n:]
            np.multiply(factors[:, :, np.newaxis], prow[:, np.newaxis, n:], out=rhs)
            np.copyto(rhs, 0.0, where=(factors == 0.0)[:, :, np.newaxis])
        T -= update
        leaving = basis[work, leave]
        nonbasic[work, enter], basis[work, leave] = leaving, entering
        flipped[work, leaving] ^= flip | stop
        made += flip & ~parked  # a parked LP's flips have zero factors
    else:
        raise RuntimeError("simplex iteration limit exceeded")
    at, final, rows, slots, bounds, flags = (np.concatenate(part) for part in zip(*finals))
    rhs = final[:, :m, n:]
    if E:
        final[:, : m + 1, 0], slots[:, 0] = kept[at], kept_var[at]
        # The basis of an optimal LP stays optimal at a further rhs where every basic value lies within its
        # bounds, exactly, if every live reduced cost is strictly non-improving: the optimum is then unique,
        # the vertex the cold simplex would reach.
        rhs[..., 1:] = _refined(final, rows, slots, bounds, flags, M[at], ranges[at])
        firm = ((final[:, m, :n] > PIVOT_TOL) | frozen[at]).all(axis=1)
        inside = (rhs[..., 1:] >= 0.0) & (rhs[..., 1:] <= np.take_along_axis(bounds, rows, axis=1)[..., np.newaxis])
        accepted[at] = inside.all(axis=1) & firm[:, np.newaxis]
    xs = _basic_x(rhs, rows, bounds, flags, n)
    x[at], ranged_x[at] = xs[:, 0], xs[:, 1:]
    return unbounded, x, pivots, flips, ranged_x, accepted


def solve_lp(*problems: LpProblem) -> list[LpSolution]:
    """Solve every LP of every problem to optimality, or report it unbounded, in one stack.

    Returns one :class:`LpSolution` per problem, over its leading axes; a :class:`_Ranging` problem gets a
    :class:`_Ranged` one.
    """
    (c, M, b, u, ranges), spans = _validate(problems)
    unbounded, x, pivots, flips, ranged_x, accepted = _solve_stack(c, M, b, u, ranges)
    status = np.where(unbounded, "unbounded", "optimal")
    solutions = []
    for p, at in zip(problems, spans):
        lead, cols = np.shape(p.objective)[:-1], np.shape(p.objective)[-1]
        own_c, own_x = np.ascontiguousarray(c[at, :cols]), np.ascontiguousarray(x[at, :cols])
        value = np.where(unbounded[at], 0.0, (own_c[:, np.newaxis, :] @ own_x[:, :, np.newaxis])[:, 0, 0])
        fields = [status[at], own_x, value, pivots[at], flips[at]]
        if isinstance(p, _Ranging):
            E = np.shape(p.ranges)[-1]
            fields += [ranged_x[at, :E, :cols], accepted[at, :E]]
        fields = [field.reshape(lead + field.shape[1:]) for field in fields]
        solutions.append(_Ranged(*fields) if isinstance(p, _Ranging) else LpSolution(*fields))
    return solutions
