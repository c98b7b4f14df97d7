"""Power control and artificial-noise precoder construction.

Each user transmits ``x_k = eta * gamma_k / h_k + w_k``: channel-inverted
data scaled by a common amplitude factor ``eta``, plus artificial noise
``w = A v`` with ``v`` a shared standard complex Gaussian vector.  The
per-user power constraint ``E|x_k|^2 <= P`` splits the budget between data
(``eta^2 / |h_k|^2``) and noise (``||a_k||^2``, the squared norm of row k of
``A``), which is where every bound in this module comes from.

Precoder families
-----------------
``none``
    No artificial noise (``A = 0``, kept as a K x 1 zero matrix).
``signal_level``
    Independent per-user noise using all residual power: ``A`` diagonal with
    entries ``sqrt(P - eta^2 / |h_k|^2)``.
``data_level``
    Noise added to the data before channel inversion, i.e. ``A`` diagonal
    with entries ``eta * sigma_w / h_k``, at the largest common variance
    ``sigma_w^2`` that keeps every user within power.
``random_zf``
    Random matrix spanning the orthogonal complement of the conjugate server
    channel (so the noise cancels at the server), globally scaled to the
    tightest row budget.
``proposed`` / ``proposed_shared``
    Structured zero-forcing designs optimized by :mod:`otasec.optimizer`.
``mixture``
    Convex combination ``(1 - theta) * A_zf + theta * A_random`` of a fresh
    zero-forced and a fresh unconstrained draw, rescaled to feasibility.
    :func:`mixture_precoders` builds a whole stack of shape
    ``(seeds, thetas, K, K - 1)`` from one draw per seed; ``build_precoder``
    takes its one-seed, one-theta slice.  The stack feeds the metrics of
    :mod:`otasec.metrics`, which accept precoders of shape ``(..., K, M)``.

:func:`eta_from_delta` and :func:`row_budgets` also take arrays, one entry per power-control fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SystemRealization, _complex_out, _stream, _streams
from .errors import ContractError, InfeasibleError, ShapeError

PRECODER_KINDS = (
    "none",
    "signal_level",
    "data_level",
    "random_zf",
    "proposed",
    "proposed_shared",
    "mixture",
)

_BUDGET_SLACK = 1e-9  # relative slack when checking eta against its bound


@dataclass
class NoisePrecoder:
    """A K x noise_dim precoding matrix with its design provenance."""

    A: np.ndarray
    kind: str
    eta: float
    zf_users: tuple[int, ...] | None = None
    lam: np.ndarray | None = None  # per-column noise powers of structured designs
    zf_weights: np.ndarray | None = None
    degenerate: bool = False  # set when a requested design had no power left

    @property
    def noise_dim(self) -> int:
        return self.A.shape[-1]

    def row_powers(self) -> np.ndarray:
        return np.sum(np.abs(self.A) ** 2, axis=-1)


def _no_noise(K: int, eta: float, degenerate: bool = False) -> NoisePrecoder:
    """The ``none`` design: a K x 1 zero matrix."""
    A = np.zeros((K, 1), dtype=np.complex128)
    return NoisePrecoder(A, "none", eta, degenerate=degenerate)


def _check_scalar_eta(eta) -> None:
    if np.ndim(eta) != 0:
        raise ContractError(f"expected a scalar eta, not an array of shape {np.shape(eta)}")


def row_budgets(real: SystemRealization, eta) -> np.ndarray:
    """Residual noise power ``P - eta^2 / |h_k|^2`` per user (clipped at 0), shape ``eta.shape + (K,)``.

    Only ``real.h`` and ``real.P`` are read; a stack of them with leading axes broadcasts against eta's.
    """
    budgets = real.P - np.square(eta)[..., np.newaxis] / np.abs(real.h) ** 2
    if np.any(budgets < -_BUDGET_SLACK * real.P):
        raise InfeasibleError("eta exceeds the power budget of at least one user")
    return np.maximum(budgets, 0.0)


def eta_upper_bound(real: SystemRealization, A: np.ndarray) -> float:
    """Largest feasible amplitude factor for a given precoder.

    Equals ``sqrt(min_k |h_k|^2 (P - ||a_k||^2))``; raises
    :class:`InfeasibleError` when some row already exceeds the power budget.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != real.num_users:
        raise ShapeError(f"precoder must have {real.num_users} rows, got shape {A.shape}")
    residual = real.P - np.sum(np.abs(A) ** 2, axis=1)
    if np.any(residual < -_BUDGET_SLACK * real.P):
        raise InfeasibleError("a precoder row exceeds the per-user power budget")
    residual = np.maximum(residual, 0.0)
    return math.sqrt(float(np.min(np.abs(real.h) ** 2 * residual)))


def eta_bounds_given_mu(real: SystemRealization, A: np.ndarray, mu) -> tuple:
    """Feasible eta interval under an accuracy requirement ``D <= mu``.

    Returns ``(lower, upper)`` where the lower bound keeps the server error
    at or below ``mu`` and the upper bound is :func:`eta_upper_bound`.  Both
    are returned even when ``lower > upper`` (empty design space).  An array
    ``mu`` gives ``lower`` its shape; a scalar ``mu`` gives two floats.
    """
    mu = np.asarray(mu, dtype=float)
    if not np.all((mu > 0.0) & (mu <= 1.0)):
        raise ContractError("mu must lie in (0, 1]")
    upper = eta_upper_bound(real, A)
    hA_sq = float(np.sum(np.abs(real.h @ np.asarray(A)) ** 2))
    lower = np.sqrt((1.0 - mu) * (hA_sq + real.sigma_y_sq) / (mu * real.num_users))
    return (float(lower) if lower.ndim == 0 else lower), upper


def eta_from_delta(real: SystemRealization, delta):
    """Fraction ``delta`` of the no-noise maximum ``sqrt(min_k P |h_k|^2)``; one per entry of an array."""
    delta = np.asarray(delta, dtype=float)
    if not np.all((delta >= 0.0) & (delta <= 1.0)):
        raise ContractError("delta must lie in [0, 1]")
    eta = delta * math.sqrt(float(np.min(real.P * np.abs(real.h) ** 2)))
    return float(eta) if eta.ndim == 0 else eta


def _scale_to_budgets(A: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Scale each matrix of ``A`` in place by the largest scalar keeping its rows within budget."""
    budgets = np.asarray(budgets, dtype=float)
    row_sq = np.sum(np.abs(A) ** 2, axis=-1)
    live = np.any(A != 0.0, axis=-1)  # also a row whose squared norm underflows to 0
    with np.errstate(over="ignore"):  # a ratio past the float range is +inf, like an idle row
        ratio = np.divide(budgets, row_sq, out=np.full(row_sq.shape, np.inf), where=row_sq > 0.0)
    ratio[live & (budgets == 0.0)] = 0.0  # only zero power keeps such a row within budget
    c = np.sqrt(np.min(ratio, axis=-1, initial=np.inf))
    huge = np.isinf(c) & live.any(axis=-1)
    if huge.any():
        # Every live row's ratio overflowed: bring those matrices to unit size and rescale.
        # 1 / peak overflows for a subnormal peak: first scale both, exactly, to put the peak in [0.5, 1).
        peak = np.max(np.abs(A[huge]), axis=(-2, -1), keepdims=True)
        up = -np.frexp(peak)[1]
        A[huge] = np.ldexp(A[huge].view(np.float64), up).view(np.complex128) / np.ldexp(peak, up)
        return _scale_to_budgets(A, budgets)
    A *= np.where(live.any(axis=-1), c, 0.0)[..., None, None]
    return A


def _project_out(A: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Project the columns of each matrix onto the orthogonal complement of ``conj(h)``."""
    coeff = h @ A / np.sum(np.abs(h) ** 2)
    return A - h.conj()[:, None] * coeff[..., None, :]


def _draws(rngs, K: int) -> np.ndarray:
    """One K x (K - 1) standard complex Gaussian matrix per generator, drawn as ``channel._cn`` draws it."""
    draws = np.empty((len(rngs), 2, K, K - 1))
    for rng, out in zip(rngs, draws):
        rng.standard_normal(out=out)
    return (draws[:, 0] + 1j * draws[:, 1]) / math.sqrt(2.0)


def _random_zf(rngs, real: SystemRealization, budgets: np.ndarray) -> np.ndarray:
    """Random K x (K - 1) matrices orthogonal to ``conj(h)``, one per generator."""
    return _scale_to_budgets(_project_out(_draws(rngs, real.num_users), real.h), budgets)


def mixture_precoders(real: SystemRealization, eta: float, seeds, thetas) -> np.ndarray:
    """Mixture precoders for every seed and theta, shape ``(len(seeds), len(thetas), K, K - 1)``.

    Each seed draws its zero-forced and unconstrained matrices once; every
    theta is the convex combination ``(1 - theta) * A_zf + theta * A_rand``
    of those draws, rescaled to the row budgets.
    """
    _check_scalar_eta(eta)
    thetas = np.asarray(thetas, dtype=float)
    if not np.all((thetas >= 0.0) & (thetas <= 1.0)):
        raise ContractError("theta must lie in [0, 1]")
    budgets = row_budgets(real, eta)
    A_zf = _random_zf(_streams(seeds, 0), real, budgets)
    A_rand = _draws(_streams(seeds, 1), real.num_users)
    w = thetas[:, None, None]
    A = (1.0 - w) * A_zf[:, None]
    A += w * A_rand[:, None]
    return _scale_to_budgets(A, budgets)


def build_precoder(
    kind: str,
    real: SystemRealization,
    eta: float,
    seed: int = 0,
    params: dict | None = None,
) -> NoisePrecoder:
    """Construct an artificial-noise precoder of the requested family.

    ``seed`` drives the random families; ``params`` carries ``theta`` for
    ``mixture`` and ``N``/``selection`` for ``proposed_shared``.
    """
    if kind not in PRECODER_KINDS:
        raise ContractError(f"unknown precoder kind {kind!r}")
    _check_scalar_eta(eta)
    params = params or {}
    K = real.num_users
    eta_max = eta_from_delta(real, 1.0)
    if eta > eta_max * (1.0 + _BUDGET_SLACK):
        raise InfeasibleError(f"eta={eta:.6g} exceeds the no-noise maximum {eta_max:.6g}")

    if kind == "none":
        return _no_noise(K, eta)

    if kind == "signal_level":
        budgets = row_budgets(real, eta)
        if not np.any(budgets > 0.0):
            return _no_noise(K, eta, degenerate=True)
        A = np.diag(np.sqrt(budgets)).astype(np.complex128)
        return NoisePrecoder(A, "signal_level", eta)

    if kind == "data_level":
        # Common pre-scaling noise variance at the largest feasible value:
        # E|x_k|^2 = (eta^2/|h_k|^2)(1 + sigma_w^2) <= P for every user.  The residual is eta^2 sigma_w^2,
        # taken without dividing by eta^2, which overflows where eta^2 is subnormal.
        residual = float(np.min(real.P * np.abs(real.h) ** 2)) - eta**2
        if eta**2 <= 0.0 or residual <= 0.0:  # eta = 0, or so small that eta^2 underflows; or no power left
            return _no_noise(K, eta, degenerate=True)
        A = np.diag(math.sqrt(residual) / real.h)
        return NoisePrecoder(A, "data_level", eta)

    if kind == "random_zf":
        A = _random_zf([_stream(seed)], real, row_budgets(real, eta))[0]
        return NoisePrecoder(A, "random_zf", eta)

    if kind == "mixture":
        if "theta" not in params:
            raise ContractError("mixture precoder requires params['theta']")
        A = mixture_precoders(real, eta, [seed], [float(params["theta"])])[0, 0]
        return NoisePrecoder(A, "mixture", eta)

    from . import optimizer  # deferred: optimizer builds on this module

    N, selection = optimizer.LP_DESIGNS[kind]
    if kind == "proposed_shared":
        N, selection = int(params.get("N", N)), params.get("selection", selection)
    return optimizer.optimize_designs([(real, eta, N, selection)])[0]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def precoder_to_dict(precoder: NoisePrecoder) -> dict:
    out = {
        "A": _complex_out(precoder.A),
        "noise_dim": precoder.noise_dim,
        "kind": precoder.kind,
        "eta": precoder.eta,
        "degenerate": precoder.degenerate,
    }
    if precoder.zf_users is not None:
        out["zf_users"] = list(precoder.zf_users)
    if precoder.lam is not None:
        out["lambda"] = np.asarray(precoder.lam, dtype=float).tolist()
    if precoder.zf_weights is not None:
        out["zf_weights"] = np.asarray(precoder.zf_weights, dtype=float).tolist()
    return out
