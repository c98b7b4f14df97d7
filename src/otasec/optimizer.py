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
is then a small linear program in ``(t, lambda)``.

Eavesdroppers whose channel sums cancel (``|sum_k g_{l,k}/h_k|^2`` below
1e-12 of ``sum_k |g_{l,k}/h_k|^2``) already observe nothing useful about the
sum; they are dropped from the constraint set.  When no informative
eavesdropper remains, or the objective does not depend on ``lambda`` at all,
the tie is broken by maximizing the total noise power under the same budgets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import SystemRealization
from .encoding import NoisePrecoder, row_budgets
from .errors import ContractError
from .lp import LpProblem, solve_lp
from . import metrics

DROP_RTOL = 1e-12


@dataclass
class EavesdropperObjective:
    """Affine per-eavesdropper objective coefficients for a fixed design."""

    alpha: np.ndarray  # (L,); +inf on dropped eavesdroppers
    beta: np.ndarray  # (L, K - N); zero rows on dropped eavesdroppers
    dropped_eavs: tuple[int, ...]
    t_star: float | None = None


@dataclass
class ZeroForcingDesign:
    """Which users cancel the noise, with what weights and column powers."""

    zf_users: tuple[int, ...]
    weights: np.ndarray  # (N,) nonnegative, summing to 1
    eta: float
    lam: np.ndarray | None = None  # (K - N,) per-column noise powers


def _noise_users(num_users: int, zf_users: tuple[int, ...]) -> list[int]:
    zf = set(zf_users)
    return [i for i in range(num_users) if i not in zf]


def compute_alpha_beta(
    real: SystemRealization, eta: float, design: ZeroForcingDesign
) -> EavesdropperObjective:
    """Objective coefficients of the max-min noise allocation problem."""
    if real.sigma_z_sq <= 0.0:
        raise ContractError("sigma_z_sq must be positive")
    h = real.h
    G = real.G
    R = G / h[np.newaxis, :]
    sum_sq = np.abs(R.sum(axis=1)) ** 2
    power_sq = np.sum(np.abs(R) ** 2, axis=1)
    dropped = sum_sq < DROP_RTOL * power_sq

    zf = np.asarray(design.zf_users, dtype=int)
    noise_users = _noise_users(real.num_users, design.zf_users)
    # Residual channel seen by eavesdropper l in noise column i after the
    # zero-forcing users' compensation.
    comp = (G[:, zf] * (np.asarray(design.weights) / h[zf])[np.newaxis, :]).sum(axis=1)
    resid = G[:, noise_users] - np.outer(comp, h[noise_users])

    alpha = np.full(G.shape[0], np.inf)
    beta = np.zeros((G.shape[0], len(noise_users)))
    live = ~dropped
    alpha[live] = (eta**2 * power_sq[live] + real.sigma_z_sq) / sum_sq[live]
    beta[live] = np.abs(resid[live]) ** 2 / sum_sq[live, np.newaxis]
    return EavesdropperObjective(
        alpha=alpha, beta=beta, dropped_eavs=tuple(np.nonzero(dropped)[0].tolist())
    )


def assemble_precoder(real: SystemRealization, design: ZeroForcingDesign) -> NoisePrecoder:
    """Build the K x (K - N) zero-forcing matrix for a completed design."""
    if design.lam is None:
        raise ContractError("design has no noise powers assigned")
    K = real.num_users
    noise_users = _noise_users(K, design.zf_users)
    lam = np.maximum(np.asarray(design.lam, dtype=float), 0.0)
    if lam.shape != (len(noise_users),):
        raise ContractError("lambda length must equal the number of noise columns")
    roots = np.sqrt(lam)
    A = np.zeros((K, len(noise_users)), dtype=np.complex128)
    for col, i in enumerate(noise_users):
        A[i, col] = roots[col]
        for k, d_k in zip(design.zf_users, design.weights):
            A[k, col] = -roots[col] * (real.h[i] / real.h[k]) * d_k
    kind = "proposed" if len(design.zf_users) == 1 else "proposed_shared"
    return NoisePrecoder(
        A=A,
        noise_dim=A.shape[1],
        kind=kind,
        eta=design.eta,
        zf_users=tuple(design.zf_users),
        lam=lam,
        zf_weights=np.asarray(design.weights, dtype=float),
    )


def _budget_rows(
    budgets: np.ndarray, design: ZeroForcingDesign, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Power budgets over the column powers: noise users, then zero-forcing users."""
    noise_users = _noise_users(h.shape[0], design.zf_users)
    rows = [np.eye(len(noise_users))]
    rhs = [budgets[noise_users]]
    for k, d_k in zip(design.zf_users, design.weights):
        rows.append([np.abs(d_k * h[noise_users] / h[k]) ** 2])
        rhs.append([budgets[k]])
    return np.vstack(rows), np.concatenate(rhs)


def _allocation_lp(
    obj: EavesdropperObjective,
    budgets: np.ndarray,
    design: ZeroForcingDesign,
    h: np.ndarray,
) -> tuple[LpProblem, float]:
    """max t  s.t.  alpha_l + beta_l . lam >= t,  budgets,  lam >= 0.

    The raw alpha/beta coefficients inherit the physical channel scale, which
    can sit below the simplex pivot tolerance, so the epigraph variable and
    the objective rows are expressed in units of the smallest live alpha.
    Returns the problem together with that scale (t = scale * x[0]).
    """
    n_cols = obj.beta.shape[1]
    live = [l for l in range(obj.alpha.shape[0]) if l not in obj.dropped_eavs]
    scale = float(np.min(obj.alpha[live]))
    budget_rows, budget_rhs = _budget_rows(budgets, design, h)
    objective_rows = np.column_stack([np.ones(len(live)), -obj.beta[live] / scale])
    budget_rows = np.column_stack([np.zeros(len(budget_rows)), budget_rows])  # t is unbudgeted
    rows = np.vstack([objective_rows, budget_rows])
    rhs = np.concatenate([obj.alpha[live] / scale, budget_rhs])
    objective = np.zeros(1 + n_cols)
    objective[0] = 1.0
    mask = np.ones(1 + n_cols, dtype=bool)
    mask[0] = False  # t is free
    return LpProblem(1 + n_cols, objective, rows, rhs, mask), scale


def _total_power_lp(
    budgets: np.ndarray, design: ZeroForcingDesign, h: np.ndarray
) -> LpProblem:
    """Tie-break allocation: maximize total noise power under the budgets."""
    rows, rhs = _budget_rows(budgets, design, h)
    n_cols = rows.shape[1]
    return LpProblem(n_cols, np.ones(n_cols), rows, rhs, np.ones(n_cols, dtype=bool))


def optimize_design(
    real: SystemRealization, eta: float, design: ZeroForcingDesign
) -> tuple[ZeroForcingDesign, EavesdropperObjective]:
    """Fill in the optimal noise powers for a fixed user selection.

    Returns the completed design together with the objective coefficients;
    ``objective.t_star`` carries the solved worst-eavesdropper value (None
    when every eavesdropper was dropped).
    """
    budgets = row_budgets(real, eta)
    obj = compute_alpha_beta(real, eta, design)
    live = [l for l in range(obj.alpha.shape[0]) if l not in obj.dropped_eavs]
    if live and np.any(obj.beta[live] > 0.0):
        problem, scale = _allocation_lp(obj, budgets, design, real.h)
        solution = solve_lp(problem)
        if solution.status != "optimal":
            raise RuntimeError(f"noise allocation LP reported {solution.status}")
        design.lam = np.maximum(solution.x[1:], 0.0)
        obj.t_star = float(scale * solution.x[0])
    else:
        # Constant objective: push total noise power to the budget instead.
        solution = solve_lp(_total_power_lp(budgets, design, real.h))
        if solution.status != "optimal":
            raise RuntimeError(f"tie-break LP reported {solution.status}")
        design.lam = np.maximum(solution.x, 0.0)
        obj.t_star = float(np.min(obj.alpha[live])) if live else None
    return design, obj


def optimize_proposed(real: SystemRealization, eta: float) -> NoisePrecoder:
    """Optimized single-user zero-forcing design.

    The user with the best channel takes the whole zero-forcing
    responsibility; the remaining users' noise powers solve the max-min LP.
    """
    zf_user = int(np.argmax(np.abs(real.h) ** 2))
    design = ZeroForcingDesign(zf_users=(zf_user,), weights=np.array([1.0]), eta=eta)
    design, _ = optimize_design(real, eta, design)
    return assemble_precoder(real, design)


def optimize_shared_zf(
    real: SystemRealization,
    eta: float,
    N: int,
    selection: str = "exhaustive",
) -> NoisePrecoder:
    """Zero-forcing shared by ``N`` users, with the best user selection.

    Each zero-forcing user's weight is proportional to its residual power.
    ``selection="exhaustive"`` tries every size-N subset and keeps the one
    whose optimized precoder achieves the highest non-cooperative security;
    ``"best_channel"`` just takes the N strongest channels.  Ties go to the
    lexicographically smallest subset.  If every candidate subset is out of
    residual power the zero precoder is returned.
    """
    K = real.num_users
    if not 1 <= N <= K - 1:
        raise ContractError("N must lie in [1, K-1]")
    if selection not in ("exhaustive", "best_channel"):
        raise ContractError(f"unknown selection rule {selection!r}")
    budgets = row_budgets(real, eta)
    if selection == "exhaustive":
        candidates = itertools.combinations(range(K), N)
    else:
        order = np.argsort(-np.abs(real.h) ** 2, kind="stable")
        candidates = [tuple(sorted(int(i) for i in order[:N]))]

    best: tuple[float, tuple[int, ...], NoisePrecoder] | None = None
    for Z in candidates:
        r = budgets[list(Z)]
        total = float(r.sum())
        if total <= 0.0:
            continue  # nobody in this set can compensate anything
        design = ZeroForcingDesign(zf_users=Z, weights=r / total, eta=eta)
        design, _ = optimize_design(real, eta, design)
        precoder = assemble_precoder(real, design)
        value, _ = metrics.noncoop_security(real, precoder.A, eta)
        if best is None or value > best[0]:
            best = (value, Z, precoder)
    if best is None:
        # Every candidate degenerate: fall back to no noise.
        Z = tuple(range(N))
        return NoisePrecoder(
            A=np.zeros((K, K - N), dtype=np.complex128),
            noise_dim=K - N,
            kind="proposed_shared",
            eta=eta,
            zf_users=Z,
            lam=np.zeros(K - N),
            zf_weights=np.full(N, 1.0 / N),
            degenerate=True,
        )
    return best[2]
