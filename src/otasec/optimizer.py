"""Optimized zero-forcing noise designs via linear programming.

The structured precoder gives every non-zero-forcing user its own noise
column at power ``lambda_i``, while a designated set ``Z`` of zero-forcing
users transmits the compensating signal ``-sqrt(lambda_i) (h_i / h_k) d_k``
that cancels the aggregate noise at the server (``h^T A = 0`` by
construction, since the weights ``d_k`` over ``Z`` sum to one).

For a single eavesdropper ``l`` the inverse of its estimation advantage is an
affine function of the noise powers,

    objective_l(lambda) = alpha_l + sum_i beta_{l,i} * lambda_i,

with ``alpha_l = (eta^2 sum_k |g_{l,k}/h_k|^2 + sigma_z^2) /
|sum_k g_{l,k}/h_k|^2`` and ``beta_{l,i} = |g_{l,i} - sum_{j in Z} g_{l,j}
(h_i/h_j) d_j|^2 / |sum_k g_{l,k}/h_k|^2``.  Maximizing the worst
(minimum) objective over eavesdroppers subject to the per-user power budgets
is then a small linear program in ``(t, lambda)``: a noise user's budget is
the upper bound of its ``lambda_i``, which the bounded-variable simplex keeps
out of the rows, and each zero-forcing user's budget is one row.  An LP has
``L + N`` rows.

Eavesdroppers whose channel sums cancel (``|sum_k g_{l,k}/h_k|^2`` below
1e-12 of ``sum_k |g_{l,k}/h_k|^2``) already observe nothing useful about the
sum; they are dropped from the constraint set (``alpha_l = +inf``).  So is
every eavesdropper at ``eta = 0``, where the mean it sees is zero.  When no
informative eavesdropper remains, or the objective does not depend on
``lambda`` at all, the tie is broken by maximizing the total noise power
under the same budgets.

The work splits in two.  Per realization and ``eta``: the row budgets,
``alpha``, ``|sum_k g_{l,k}/h_k|^2`` and the drop mask, none of which
depends on ``Z``.  So every candidate subset gives an LP of the same shape,
and the per-subset work is stacked over the candidates: the weights,
``beta``, the zero-forcing users' budget rows ``|d_k h_i/h_k|^2`` and the LPs
(tie-breaks included).  Each subset is scored from its own LP rows, as
``S_noncoop = 1 - (eta^2/K) / min_l(alpha_l + beta_l . lambda)`` at its
solution (1 when every eavesdropper is dropped), and only the winner's
precoder is built.  Per-SNR noise gives ``alpha`` an SNR axis, and an ``eta``
array (one entry per power-control fraction) gives all that depends on
``eta`` its axes, before the SNR's: each eta and SNR ranks its own subsets,
bitwise the design at that scalar ``eta`` and SNR.  A dropped eavesdropper
keeps an all-zero row, so the LPs of a design form one array over eta, SNR
and subset.  A subset out of residual power at an ``eta`` gets its LP too:
its zero-forcing rows have rhs 0, so ``lambda = 0``, and it cannot win.

:func:`optimize_designs` designs many requests at once.  Requests that share
``K``, ``N``, the selection rule and the shapes of ``eta`` and of the noise
variances form a stack, designed in one pass over a request axis: ``h`` is
``(R, K)``, ``G`` ``(R, L, K)`` and ``P`` per request, and the request axis
comes after eta's and the SNR's axes, next to the subsets'.  A realization
with fewer eavesdroppers than the stack's largest ``L`` gets all-zero rows of
``G``; their channel sums are 0, so the drop test (``<=``) drops them and they
change no bit of the design.  Each request's candidates are user orders, the
noise users and then the zero-forcing users (:func:`_subsets`): the exhaustive
rule's are shared by the stack's requests, and a best-channel subset is each
request's own.

Only ``alpha``, an LP's rhs, depends on the SNR: in units of the LP's
``scale``, its matrix, objective and bounds are the same at every SNR.  So a
design over an SNR axis solves one LP per (eta, request, subset) family, at
the middle SNR of the axis, and carries the other SNRs' rhs, in that LP's
units, through its pivots (:func:`_solve_along_snr`).  A member whose basic
solution is not proven optimal there is solved cold, as its own LP, in one
more stack: so the middle SNR and every such member are bitwise the design
at that SNR alone, and an accepted member is within 1e-12 relative of it.
The families of all stacks go to one :func:`~otasec.lp.solve_lp` call, which
solves them in one padded stack, and the cold members to one more (per group
of preset trials, by the same driver, ``_gather``).  It is the
one way into a design: a single design is its one-request case, and
:func:`~otasec.encoding.build_precoder` builds the ``"proposed"`` kinds
through it.  One subset's ``alpha``, ``beta`` and matrix are the stacked
helpers' at a leading axis of length one.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .channel import SystemRealization, _stack
from .encoding import NoisePrecoder, row_budgets
from .errors import ContractError
from .lp import LpProblem, _Ranging, solve_lp
from . import metrics

DROP_RTOL = 1e-12
# Subsets whose S_noncoop lies within TIE_ATOL of the best tie, and the first wins.  Absolute, as S_noncoop
# lies in [0, 1]; it covers LP rounding, which moved lambda up to 1.8e-12 relative between equivalent LPs.
TIE_ATOL = 1e-12
# The optimized precoder kinds, as the (N, selection) of their design: build_precoder's and the presets'.
LP_DESIGNS = {"proposed": (1, "best_channel"), "proposed_shared": (2, "exhaustive")}


def _eavesdropper_terms(real: SystemRealization, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``alpha`` per eta and SNR (+inf where dropped), ``|sum_k g_{l,k}/h_k|^2``, the live mask per eta.

    ``real`` is one realization or a :class:`~otasec.channel._Stack` of them; only its ``h``, ``G`` and
    ``sigma_z_sq`` are read.
    """
    sigma = np.asarray(real.sigma_z_sq)
    sum_sq, power_sq = metrics._ratio_sums(real.G, real.h[..., np.newaxis, :])
    # At eta = 0 every eavesdropper's mean is zero: none learns anything.
    live = ~((sum_sq <= DROP_RTOL * power_sq) | (np.asarray(eta)[..., np.newaxis] == 0.0))
    num = np.square(eta)[..., np.newaxis] * power_sq + sigma[..., np.newaxis]
    return np.divide(num, sum_sq, out=np.full(num.shape, np.inf), where=live), sum_sq, live


def _take(x: np.ndarray, users: np.ndarray) -> np.ndarray:
    """``x`` ``(..., R, K)`` at each request's candidate user orders ``users`` ``(R, C, K)``: ``(..., R, C, K)``."""
    return x[..., np.arange(len(users))[:, np.newaxis, np.newaxis], users]


def _beta(G: np.ndarray, h: np.ndarray, weights: np.ndarray, sum_sq: np.ndarray, live: np.ndarray) -> np.ndarray:
    """``beta`` of shape ``(..., C, L, K - N)`` for ``C`` subsets, zero on dropped eavesdroppers.

    ``G`` ``(..., L, C, K)`` and ``h`` ``(..., C, K)`` hold each subset's channels in its user order (noise users,
    then zero-forcing users: :func:`_subsets`); ``weights`` ``(..., C, N)`` and ``live`` carry eta's axes.
    """
    M = h.shape[-1] - weights.shape[-1]
    # Residual channel seen by eavesdropper l in noise column i after the
    # zero-forcing users' compensation; the eavesdropper axis comes before the subsets.
    comp = (G[..., M:] * (weights / h[..., M:])[..., np.newaxis, :, :]).sum(axis=-1)
    resid = G[..., :M] - comp[..., np.newaxis] * h[..., np.newaxis, :, :M]
    beta = np.zeros(resid.shape)
    np.divide(np.abs(resid) ** 2, sum_sq[..., :, None, None], out=beta, where=live[..., :, None, None])
    return beta.swapaxes(-3, -2)


def _zf_matrices(users: np.ndarray, h: np.ndarray, weights: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Zero-forcing matrices ``(..., K, K - N)`` at noise powers lam >= 0 ``(..., K - N)``.

    ``users`` ``(..., K)`` lists each matrix's noise users, then its zero-forcing users, and ``h`` their
    channels in that order; ``weights`` ``(..., N)``.
    """
    M = lam.shape[-1]
    roots = np.sqrt(lam)
    A = np.zeros(lam.shape[:-1] + (users.shape[-1], M), dtype=np.complex128)
    *lead, _, cols = np.indices(lam.shape[:-1] + (1, M), sparse=True)  # row indices go along axis -2
    A[(*lead, users[..., np.newaxis, :M], cols)] = roots[..., np.newaxis, :]
    ratio = h[..., np.newaxis, :M] / h[..., M:, np.newaxis]
    A[(*lead, users[..., M:, np.newaxis], cols)] = -roots[..., np.newaxis, :] * ratio * weights[..., np.newaxis]
    return A


def _allocation_lp(
    alpha: np.ndarray, beta: np.ndarray, load: np.ndarray, budgets: np.ndarray
) -> tuple[LpProblem, np.ndarray]:
    """The LPs ``max t  s.t.  alpha_l + beta_l . lam >= t,  load . lam <= zf budgets,  0 <= lam <= caps,  t >= 0.

    ``alpha`` has shape ``(..., L)``, +inf on dropped eavesdroppers; ``beta``
    shape ``(..., L, K - N)``; ``load``, the zero-forcing users' budget rows
    ``|d_k h_i/h_k|^2``, shape ``(..., N, K - N)``; ``budgets`` shape
    ``(..., K)``, noise users first.  The noise users' budgets are the
    lambdas' upper bounds (caps), not rows, so each LP has ``L + N`` rows.
    The four broadcast their leading axes to the stack's shape, one LP per
    entry.  A dropped eavesdropper keeps its row, all zeros with rhs 0,
    which never pivots, so LPs that drop different eavesdroppers share a
    stack.  Every live alpha is positive, so ``t >= 0``
    cuts off no optimum.  The raw coefficients inherit the physical scales
    of channel and power, while the simplex's tolerances are absolute, so the
    LP is posed in units of its own: ``lam = caps * x`` with ``0 <= x <= 1``
    (a zero cap bounds its ``x`` by 0), each zero-forcing row and its rhs are
    divided by that row's budget where it is positive, and ``t`` and the
    eavesdropper rows are in units of an upper bound on each LP's optimum:
    ``beta >= 0``, so ``t* <= min over live l of (alpha_l + beta_l . caps)``,
    and ``t* <= 1`` in LP units.  Scaling the power unit (``P`` and the noise
    variances together) then leaves every LP's data unchanged up to rounding.

    An LP in which no live row depends on lambda breaks the tie instead: its
    objective is the total noise power, over the largest cap.  Its objective
    rows then hold zeros in every ``x`` column, so they never pivot and
    ``t``, priced at zero, never enters: the simplex takes the steps of the
    same LP over ``x``, its bounds and the zero-forcing rows alone.

    Every such LP is bounded by construction: ``t <= 1`` in LP units and
    ``x <= 1``, and a tie-break LP is bounded by the caps.  So an
    "unbounded" status can only be numerical, and the design raises on it.

    Returns the LPs and each one's ``scale`` ``(..., 1)``, the unit of ``t``.
    """
    live = np.isfinite(alpha)
    stack = np.broadcast_shapes(alpha.shape[:-1], beta.shape[:-2], load.shape[:-2], budgets.shape[:-1])
    L, n_cols = alpha.shape[-1], beta.shape[-1]
    caps, zf_budgets = budgets[..., :n_cols], budgets[..., n_cols:]
    gain = beta * caps[..., np.newaxis, :]  # the eavesdropper rows per unit of x
    scale = (alpha + gain.sum(axis=-1)).min(axis=-1, keepdims=True, initial=np.inf)  # over live rows; unused if none
    rows = np.zeros(stack + (L + load.shape[-2], 1 + n_cols))
    rows[..., :L, 0] = live  # t is unbudgeted
    np.divide(gain, -scale[..., np.newaxis], out=rows[..., :L, 1:])  # -gain / scale, bit for bit
    funded = zf_budgets > 0.0
    rows[..., L:, 1:] = load * caps[..., np.newaxis, :] / np.where(funded, zf_budgets, 1.0)[..., np.newaxis]
    rhs = np.zeros(stack + (L + load.shape[-2],))
    np.divide(alpha, scale, out=rhs[..., :L], where=live)
    rhs[..., L:] = funded
    upper = np.empty(stack + (1 + n_cols,))
    upper[..., 0], upper[..., 1:] = np.inf, caps > 0.0  # t is unbounded
    tie = ~beta.any(axis=(-2, -1))  # beta >= 0, and zero on dropped rows
    top = caps.max(axis=-1, keepdims=True)
    objective = np.empty(stack + (1 + n_cols,))
    objective[..., 0] = ~tie
    objective[..., 1:] = tie[..., np.newaxis] * np.divide(caps, top, out=np.zeros(caps.shape), where=top > 0.0)
    return LpProblem(objective, rows, rhs, upper), scale


def optimize_designs(requests) -> list[NoisePrecoder]:
    """One optimized zero-forcing design per request ``(real, eta, N, selection)``: the one way into a design.

    ``N`` users share the zero-forcing, each weighted by its residual power; the other users' noise powers solve
    the max-min LP.  ``selection="exhaustive"`` solves every size-N subset's LP and keeps the subset whose optimum
    gives the highest non-cooperative security; ``"best_channel"`` takes the N strongest channels (with ``N = 1``
    the paper's proposed design, :data:`LP_DESIGNS`).  Subsets within ``TIE_ATOL`` of the best score tie, and the
    lexicographically smallest wins; a subset out of residual power cannot win, and if all are, the zero precoder
    is returned, marked degenerate and naming the first candidate.  A negative or non-finite ``eta``, ``N``
    outside ``[1, K-1]`` or an unknown ``selection`` raises :class:`ContractError`.  An ``eta`` array gives
    every field eta's axes before the SNR's, ``degenerate`` eta's alone.

    Requests that share ``K``, ``N``, ``selection``, the shapes of ``eta`` and of both noise variances and the
    channels' dtypes make one stack, designed at once over a request axis (:class:`~otasec.channel._Stack`).
    Every stack's LP families go to one :func:`~otasec.lp.solve_lp` call, which solves them all in one padded
    stack, and the members they do not answer to one more (:func:`_solve_along_snr`); padding changes no LP's
    answer, so each design is bitwise the one made alone.  Where a stack fails, each request is made alone in
    turn, so the first request that fails raises what it raises alone.
    """
    requests = list(requests)
    try:
        stacks = {}
        for at, (real, eta, N, selection) in enumerate(requests):
            shapes = np.shape(eta), np.shape(real.sigma_y_sq), np.shape(real.sigma_z_sq), real.h.dtype, real.G.dtype
            stacks.setdefault((real.num_users, N, selection, *shapes), []).append(at)
        started = [(design, next(design)) for design in (_design([requests[at] for at in s]) for s in stacks.values())]
        designs = [None] * len(requests)
        for stack, made in zip(stacks.values(), _gather(started, lambda problems: solve_lp(*problems))):
            for at, design in zip(stack, made):
                designs[at] = design
        return designs
    except Exception:
        if len(requests) > 1:
            for request in requests:  # the first request that fails alone raises what it raises alone
                optimize_designs([request])
        raise


def _gather(started, *answer) -> list:
    """What each coroutine of the ``(coroutine, asks)`` pairs returns, its asks answered by one ``answer`` call a round.

    Round ``i`` is answered by ``answer[i]``, and every round after the last by the last.  An answer takes every
    ask of its round in order and returns one answer each; each coroutine is sent its own slice, and those that
    ask again make the next round.
    """
    results = [None] * len(started)
    waiting = list(enumerate(started))
    rounds = itertools.chain(answer, itertools.repeat(answer[-1]))
    while waiting:
        respond = next(rounds)
        asks = [ask for _, (_, some) in waiting for ask in some]
        answers = iter(respond(asks) if asks else [])
        asking = []
        for at, (coroutine, some) in waiting:
            try:
                asking.append((at, (coroutine, coroutine.send([next(answers) for _ in some]))))
            except StopIteration as done:
                results[at] = done.value
        waiting = asking
    return results


def _subsets(h: np.ndarray, N: int, selection: str) -> np.ndarray:
    """The ``(R, C, K)`` candidates whose LPs a stack of ``h`` ``(R, K)`` solves, after the checks on ``N`` and
    ``selection``: each lists its noise users, then its ``N`` zero-forcing users, both increasing.  The exhaustive
    subsets, in ``itertools.combinations`` order, are one read-only view shared by the requests; a best-channel
    subset is each request's own."""
    R, K = h.shape
    if not 1 <= N <= K - 1:
        raise ContractError("N must lie in [1, K-1]")
    if selection == "exhaustive":
        return np.broadcast_to(_combinations(K, N), (R,) + _combinations(K, N).shape)
    if selection == "best_channel":
        return _orders(np.argsort(-np.abs(h) ** 2, axis=-1, kind="stable")[:, np.newaxis, :N], K)
    raise ContractError(f"unknown selection rule {selection!r}")


def _orders(zf: np.ndarray, K: int) -> np.ndarray:
    """The user orders of the zero-forcing sets ``zf`` ``(..., N)``: ``(..., K)``."""
    chosen = (np.arange(K) == zf[..., np.newaxis]).any(axis=-2)  # a stable sort puts them last
    return np.argsort(chosen, axis=-1, kind="stable")


@functools.cache
def _combinations(K: int, N: int) -> np.ndarray:
    """The exhaustive rule's ``(C, K)`` user orders, built once per ``(K, N)`` and read-only."""
    orders = _orders(np.array(list(itertools.combinations(range(K), N))), K)
    orders.flags.writeable = False
    return orders


def _lp_total(requests) -> int:
    """How many LPs ``optimize_designs(requests)`` puts in its first simplex stack: per design, one per subset, eta
    and SNR, the SNRs that share a basis counted once (:func:`_snrs`)."""
    return sum(
        _subsets(real.h[np.newaxis], N, selection).shape[-2] * np.broadcast(eta, real.sigma_z_sq).size
        // _snrs(np.shape(eta), np.shape(real.sigma_z_sq))
        for real, eta, N, selection in requests
    )


def _snrs(eta_shape: tuple, noise_shape: tuple) -> int:
    """How many SNRs of a design share each LP's basis: the noise variances' last axis, unless eta varies along it."""
    return noise_shape[-1] if noise_shape and eta_shape[-1:] in ((), (1,)) else 1


def _design(requests):
    """A coroutine for ``_gather``: yields ``[problem]`` and takes ``[solution]``, for the LP array of a stack of
    requests (see :class:`~otasec.channel._Stack`) and then its cold fallbacks (:func:`_solve_along_snr`), and
    returns each request's precoder."""
    stack = _stack([real for real, *_ in requests], [eta for _, eta, *_ in requests])
    eta = stack.eta
    _, _, N, selection = requests[0]
    K = stack.h.shape[-1]
    users = _subsets(stack.h, N, selection)
    for real, own_eta, *_ in requests:  # each request's own values name its error
        metrics._check_eta(own_eta)
        metrics._check_noise(real, positive_noise=True)
    budgets = row_budgets(stack, eta)
    alpha, sum_sq, live = _eavesdropper_terms(stack, eta)
    axes = alpha.shape[:-1]  # eta's axes, then the SNR's, then the requests'

    M = K - N
    rhs = _take(budgets, users)  # the caps, then the zero-forcing budgets
    h = _take(stack.h, users)
    r = rhs[..., M:]
    total = r.sum(axis=-1)
    able = total > 0.0  # a set with no residual power can compensate nothing
    # Weights 1/N where a set is out of power: its zero-forcing rows have rhs 0, so lambda = 0.
    weights = np.divide(r, total[..., None], out=np.full(r.shape, 1.0 / N), where=able[..., None])
    G = _take(stack.G.swapaxes(0, 1), users).swapaxes(0, 1)  # (R, L, C, K): the request axis meets users'
    beta = _beta(G, h, weights, sum_sq, live)
    load = np.abs(weights[..., None] * h[..., None, :M] / h[..., M:, None]) ** 2
    problem, scale = _allocation_lp(alpha[..., np.newaxis, :], beta, load, rhs)  # per eta, SNR, request and subset
    x = yield from _solve_along_snr(problem, scale, alpha, _snrs(eta.shape[:-1], stack.sigma_z_sq.shape[:-1]))
    lam = np.maximum(x[..., 1:], 0.0) * rhs[..., :M]  # x times the caps
    # Each subset's S_noncoop at its optimum (worst is +inf when every eavesdropper is dropped), -inf
    # out of power; the first subset within TIE_ATOL of the best wins, and with none in power, the first.
    worst = (alpha[..., np.newaxis, :] + np.einsum("...li,...i->...l", beta, lam)).min(axis=-1)
    score = np.where(able, 1.0 - (np.square(eta)[..., np.newaxis] / K) / worst, -np.inf)
    best = np.argmax(score >= score.max(axis=-1, keepdims=True) - TIE_ATOL, axis=-1)
    pick = (*np.indices(axes, sparse=True), best)  # the winning subset at each eta, SNR and request
    each = np.arange(len(requests))
    users, h = users[each, best], h[each, best]
    lam, weights = lam[pick], np.broadcast_to(weights, axes + weights.shape[-2:])[pick]
    degenerate = ~able.any(axis=-1)
    A = np.where(degenerate[..., np.newaxis, np.newaxis], 0.0, _zf_matrices(users, h, weights, lam))  # +0.0
    return [
        NoisePrecoder(
            A=np.ascontiguousarray(A[..., at, :, :]),
            kind="proposed" if N == 1 else "proposed_shared",
            eta=own_eta,
            zf_users=tuple(users[..., at, M:].tolist()),
            lam=np.ascontiguousarray(lam[..., at, :]),
            zf_weights=np.ascontiguousarray(weights[..., at, :]),
            degenerate=bool(degenerate[..., at]) if degenerate.ndim == 1 else np.ascontiguousarray(degenerate[..., at]),
        )
        for at, (_, own_eta, *_) in enumerate(requests)
    ]


def _solve_along_snr(problem: LpProblem, scale: np.ndarray, alpha: np.ndarray, S: int):
    """A sub-coroutine of :func:`_design`: the ``x`` of every LP of ``problem``, its LPs over ``(..., S, R, C)``.

    Only ``alpha`` varies along the SNR axis (length ``S``, or 1 for none), and ``t`` in units of its ``scale``: so
    an LP at one SNR, in the LP units of the reference SNR ``S // 2``, is that SNR's LP but for its rhs.  Each
    (eta, request, subset) family yields its reference LP, with the other SNRs' rhs riding along
    (:class:`~otasec.lp._Ranging`); a member whose basic solution the simplex does not accept is then solved cold,
    as its own LP, in one more stack.
    """
    shape = problem.objective.shape[:-1]
    family = shape[:-3] + shape[-2:] if S > 1 else shape  # without the SNR axis
    Q, L = shape[-2] * shape[-1], alpha.shape[-1]
    ref, others = S // 2, np.flatnonzero(np.arange(S) != S // 2)
    # Each field as (the families before the SNR axis, SNR, the families after it, ...).
    fields = [f.reshape((-1, S, Q) + f.shape[len(shape) :]) for f in (problem.objective, problem.ineq_matrix,
                                                                       problem.ineq_rhs, problem.upper)]
    # The other SNRs' rhs in the reference's LP units; the zero-forcing rows' do not depend on the SNR.
    ranges = np.repeat(fields[2][:, ref, np.newaxis], len(others), axis=1)
    far = np.broadcast_to(alpha[..., np.newaxis, :], shape + (L,)).reshape(-1, S, Q, L)[:, others]
    np.divide(far, scale.reshape(-1, S, Q, 1)[:, ref, np.newaxis], out=ranges[..., :L], where=np.isfinite(far))
    ranging = _Ranging(*(f[:, ref].reshape(family + f.shape[3:]) for f in fields),
                       np.moveaxis(ranges, 1, -1).reshape(family + ranges.shape[-1:] + (len(others),)))
    (solution,) = yield [ranging]
    _check(ranging, solution)
    x = np.empty(fields[0].shape)
    P, n = x.shape[0], x.shape[-1]
    x[:, ref] = solution.x.reshape(P, Q, n)
    x[:, others] = np.moveaxis(solution.ranged_x.reshape(P, Q, len(others), n), 2, 1)
    p, s, q = np.nonzero(~np.moveaxis(solution.accepted.reshape(P, Q, len(others)), 2, 1))
    if p.size:
        cold = LpProblem(*(f[p, others[s], q] for f in fields))
        (solution,) = yield [cold]
        _check(cold, solution)
        x[p, others[s], q] = solution.x
    return x.reshape(problem.objective.shape)


def _check(problem: LpProblem, solution) -> None:
    """Raise on the first LP of ``problem`` that ``solution`` does not report optimal."""
    failed = solution.status != "optimal"
    if np.any(failed):
        first = np.argmax(failed)  # a flat index
        what = "noise allocation" if problem.objective[..., 0].flat[first] else "tie-break"
        raise RuntimeError(f"{what} LP reported {solution.status.flat[first]}")
