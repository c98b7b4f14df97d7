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
:func:`optimize_designs` hands the LP arrays of several designs to one
:func:`~otasec.lp.solve_lp` call, which solves them in one padded stack (one
call per group of preset trials, by the same driver, ``_gather``).  It is the
one way into a design: :func:`optimize_shared_zf` is its one-design case and
the paper's single-user :func:`optimize_proposed` the one-candidate case of
that.  One subset's ``alpha``, ``beta`` and matrix are the stacked helpers' at
a leading axis of length one.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channel import SystemRealization
from .encoding import NoisePrecoder, row_budgets
from .errors import ContractError
from .lp import LpProblem, solve_lp
from . import metrics

DROP_RTOL = 1e-12
# Subsets whose S_noncoop lies within TIE_ATOL of the best tie, and the first wins.  Absolute, as S_noncoop
# lies in [0, 1]; it covers LP rounding, which moved lambda up to 1.8e-12 relative between equivalent LPs.
TIE_ATOL = 1e-12
# The optimized precoder kinds, as the (N, selection) of their design: build_precoder's and the presets'.
LP_DESIGNS = {"proposed": (1, "best_channel"), "proposed_shared": (2, "exhaustive")}


def _eavesdropper_terms(real: SystemRealization, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``alpha`` per eta and SNR (+inf where dropped), ``|sum_k g_{l,k}/h_k|^2``, the live mask per eta."""
    metrics._check_noise(real, positive_noise=True)
    sigma = np.asarray(real.sigma_z_sq)
    sum_sq, power_sq = metrics._ratio_sums(real.G, real.h)
    # At eta = 0 every eavesdropper's mean is zero: none learns anything.
    live = ~((sum_sq <= DROP_RTOL * power_sq) | (np.asarray(eta)[..., np.newaxis] == 0.0))
    num = np.square(eta)[..., np.newaxis] * power_sq + sigma[..., np.newaxis]
    return np.divide(num, sum_sq, out=np.full(num.shape, np.inf), where=live), sum_sq, live


def _beta(
    real: SystemRealization,
    zf: np.ndarray,
    noise: np.ndarray,
    weights: np.ndarray,
    sum_sq: np.ndarray,
    live: np.ndarray,
) -> np.ndarray:
    """``beta`` of shape ``(..., C, L, K - N)`` for ``C`` subsets, zero on dropped eavesdroppers.

    ``zf`` and ``noise`` have shape ``(C, *)``; ``weights`` ``(..., C, N)`` and ``live`` carry eta's axes.
    """
    G, h = real.G, real.h
    # Residual channel seen by eavesdropper l in noise column i after the
    # zero-forcing users' compensation; the eavesdropper axis comes before the subsets.
    comp = (G[:, zf] * (weights / h[zf])[..., np.newaxis, :, :]).sum(axis=-1)
    resid = G[:, noise] - comp[..., np.newaxis] * h[noise]
    beta = np.zeros(resid.shape)
    np.divide(np.abs(resid) ** 2, sum_sq[:, None, None], out=beta, where=live[..., :, None, None])
    return beta.swapaxes(-3, -2)


def _noise_columns(K: int, zf_users) -> tuple[np.ndarray, np.ndarray]:
    """The zero-forcing users and the noise users (one column each), as index arrays.

    ``zf_users`` is one subset or a ``(C, N)`` array of them.
    """
    zf = np.asarray(zf_users, dtype=int)
    noise = (np.arange(K) != zf[..., np.newaxis]).all(axis=-2)
    return zf, np.nonzero(noise)[-1].reshape(zf.shape[:-1] + (-1,))


def _zf_matrices(
    h: np.ndarray, zf: np.ndarray, noise: np.ndarray, weights: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Zero-forcing matrices ``(..., K, K - N)``: ``zf``, weights ``(..., N)``; ``noise``, lam >= 0 ``(..., K - N)``."""
    roots = np.sqrt(lam)
    A = np.zeros(lam.shape[:-1] + (h.size, lam.shape[-1]), dtype=np.complex128)
    *lead, _, cols = np.indices(lam.shape[:-1] + (1, lam.shape[-1]), sparse=True)  # row indices go along axis -2
    A[(*lead, noise[..., np.newaxis, :], cols)] = roots[..., np.newaxis, :]
    ratio = h[noise][..., np.newaxis, :] / h[zf][..., np.newaxis]
    A[(*lead, zf[..., np.newaxis], cols)] = -roots[..., np.newaxis, :] * ratio * weights[..., np.newaxis]
    return A


def _allocation_lp(
    alpha: np.ndarray, beta: np.ndarray, load: np.ndarray, budgets: np.ndarray
) -> LpProblem:
    """max t  s.t.  alpha_l + beta_l . lam >= t,  load . lam <= zf budgets,  0 <= lam <= caps,  t >= 0.

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
    """
    live = np.isfinite(alpha)
    stack = np.broadcast_shapes(alpha.shape[:-1], beta.shape[:-2], load.shape[:-2], budgets.shape[:-1])
    L, n_cols = alpha.shape[-1], beta.shape[-1]
    caps, zf_budgets = budgets[..., :n_cols], budgets[..., n_cols:]
    gain = beta * caps[..., np.newaxis, :]  # the eavesdropper rows per unit of x
    scale = (alpha + gain.sum(axis=-1)).min(axis=-1, keepdims=True, initial=np.inf)  # over live rows; unused if none
    rows = np.zeros(stack + (L + load.shape[-2], 1 + n_cols))
    rows[..., :L, 0] = live  # t is unbudgeted
    rows[..., :L, 1:] = -gain / scale[..., np.newaxis]
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
    return LpProblem(objective, rows, rhs, upper)


def optimize_proposed(real: SystemRealization, eta) -> NoisePrecoder:
    """Optimized single-user zero-forcing design.

    The user with the best channel takes the whole zero-forcing
    responsibility; the remaining users' noise powers solve the max-min LP.
    """
    return optimize_shared_zf(real, eta, *LP_DESIGNS["proposed"])


def optimize_shared_zf(
    real: SystemRealization,
    eta,
    N: int,
    selection: str = "exhaustive",
) -> NoisePrecoder:
    """Zero-forcing shared by ``N`` users, with the best user selection.

    Each zero-forcing user's weight is proportional to its residual power.
    ``selection="exhaustive"`` solves every size-N subset's LP and keeps the
    one whose optimum gives the highest non-cooperative security;
    ``"best_channel"`` just takes the N strongest channels.  Subsets within
    ``TIE_ATOL`` of the best score tie, and ties go to the lexicographically
    smallest subset; a subset out of residual power cannot win.  If every
    candidate subset is out of residual power the zero precoder is returned,
    marked degenerate and naming the first candidate.  A negative or
    non-finite ``eta`` raises :class:`ContractError`.
    An ``eta`` array gives every field eta's axes before the SNR's, ``degenerate`` eta's alone.
    """
    return optimize_designs([(real, eta, N, selection)])[0]


def optimize_designs(requests) -> list[NoisePrecoder]:
    """``[optimize_shared_zf(*request) for request in requests]``, with one LP call for them all.

    Each request is ``(real, eta, N, selection)``.  Every design's LP array goes to one
    :func:`~otasec.lp.solve_lp` call, which solves them all in one padded stack; padding
    changes no LP's answer, so each design is bitwise the one made alone.
    """
    designs = [_design(*request) for request in requests]
    return _gather([(design, next(design)) for design in designs], lambda problems: solve_lp(*problems))


def _gather(started, answer) -> list:
    """What each coroutine of the ``(coroutine, asks)`` pairs returns, its asks answered by one ``answer`` call.

    ``answer`` takes every ask in order and returns one answer each; each coroutine is sent its own slice.
    """
    asks = [ask for _, some in started for ask in some]
    answers = iter(answer(asks) if asks else [])
    results = []
    for coroutine, some in started:
        try:
            coroutine.send([next(answers) for _ in some])
        except StopIteration as done:
            results.append(done.value)
    return results


def _candidates(real: SystemRealization, N: int, selection: str) -> list[tuple]:
    """The zero-forcing subsets whose LPs a design solves, after the checks on ``N`` and ``selection``."""
    K = real.num_users
    if not 1 <= N <= K - 1:
        raise ContractError("N must lie in [1, K-1]")
    if selection == "exhaustive":
        return list(itertools.combinations(range(K), N))
    if selection == "best_channel":
        return [tuple(sorted(int(i) for i in np.argsort(-np.abs(real.h) ** 2, kind="stable")[:N]))]
    raise ContractError(f"unknown selection rule {selection!r}")


def _lp_total(requests) -> int:
    """How many LPs ``optimize_designs(requests)`` solves: per design, one per subset, eta and SNR."""
    return sum(len(_candidates(real, *rule)) * np.broadcast(eta, real.sigma_z_sq).size for real, eta, *rule in requests)


def _design(real: SystemRealization, eta, N: int, selection: str):
    """A coroutine for ``_gather``: yields ``[problem]``, its LP array, takes ``[solution]``, returns the precoder."""
    K = real.num_users
    candidates = _candidates(real, N, selection)
    metrics._check_eta(eta)
    budgets = row_budgets(real, eta)
    alpha, sum_sq, live = _eavesdropper_terms(real, eta)
    axes = alpha.shape[:-1]  # eta's axes, then the SNR's

    zf, noise = _noise_columns(K, candidates)
    r = budgets[..., zf]
    total = r.sum(axis=-1)
    able = total > 0.0  # a set with no residual power can compensate nothing
    # Weights 1/N where a set is out of power: its zero-forcing rows have rhs 0, so lambda = 0.
    weights = np.divide(r, total[..., None], out=np.full(r.shape, 1.0 / N), where=able[..., None])
    beta = _beta(real, zf, noise, weights, sum_sq, live)
    load = np.abs(weights[..., None] * real.h[noise][:, None, :] / real.h[zf][:, :, None]) ** 2
    rhs = budgets[..., np.concatenate([noise, zf], axis=1)]
    problem = _allocation_lp(alpha[..., np.newaxis, :], beta, load, rhs)  # one LP per eta, SNR and subset
    (solution,) = yield [problem]
    failed = solution.status != "optimal"
    if np.any(failed):
        first = np.argmax(failed)  # a flat index
        what = "noise allocation" if problem.objective[..., 0].flat[first] else "tie-break"
        raise RuntimeError(f"{what} LP reported {solution.status.flat[first]}")
    lam = np.maximum(solution.x[..., 1:], 0.0) * rhs[..., : noise.shape[-1]]  # x times the caps
    # Each subset's S_noncoop at its optimum (worst is +inf when every eavesdropper is dropped), -inf
    # out of power; the first subset within TIE_ATOL of the best wins, and with none in power, the first.
    worst = (alpha[..., np.newaxis, :] + np.einsum("...li,...i->...l", beta, lam)).min(axis=-1)
    score = np.where(able, 1.0 - (np.square(eta)[..., np.newaxis] / K) / worst, -np.inf)
    best = np.argmax(score >= score.max(axis=-1, keepdims=True) - TIE_ATOL, axis=-1)
    pick = (*np.indices(axes, sparse=True), best)  # the winning subset at each eta and SNR
    zf, lam, weights = zf[best], lam[pick], np.broadcast_to(weights, axes + weights.shape[-2:])[pick]
    degenerate = ~able.any(axis=-1)
    A = _zf_matrices(real.h, zf, noise[best], weights, lam)
    return NoisePrecoder(
        A=np.where(degenerate[..., np.newaxis, np.newaxis], 0.0, A),  # +0.0, not -0.0
        kind="proposed" if N == 1 else "proposed_shared",
        eta=eta,
        zf_users=tuple(zf.tolist()),
        lam=lam,
        zf_weights=weights,
        degenerate=bool(degenerate) if degenerate.ndim == 0 else degenerate,
    )
