"""Closed-form accuracy and security metrics, with Monte Carlo oracles.

All quantities are normalized mean-squared errors of estimating the sum
``s = sum_k gamma_k`` from the received signal(s), divided by ``Var(s) = K``,
so they live in [0, 1]: 0 means perfect recovery, 1 means the observation is
useless beyond the prior.

* ``approximation_error`` (D): the server estimates ``s`` from
  ``y = eta * s + (h^T A) v + n_y``.  Because everything is jointly Gaussian
  the optimum is linear and ``D = 1 - eta^2 K / (eta^2 K + ||h^T A||^2 +
  sigma_y^2)``.
* ``eavesdropper_moments``: the covariance ``B`` and mean ``m`` used below.
* ``coop_security`` (S_coop): L eavesdroppers pool their observations
  ``z = eta G D_h^{-1} gamma + G A v + n_z`` and apply the best linear
  combiner ``p_opt = B^{-1} m``, where ``B = Cov(z)`` and ``m = E[z conj(s)]``;
  then ``S = 1 - m^H B^{-1} m / K``.
* ``noncoop_security`` (S_noncoop): the best single eavesdropper, evaluated
  per receiver from the scalar analogue of the same expression.
* ``effective_channel_security``: the cooperative MSE written through the
  combined channel ``g_tilde = p^H G`` of an arbitrary (not necessarily
  optimal) combiner ``p``.

Two kernels carry them.  ``_receiver`` scores one receiver with channel row
``g`` and noise power ``n``: ``1 - (eta^2 / K) |sum_k g_k/h_k|^2 / (eta^2 sum_k
|g_k/h_k|^2 + ||g A||^2 + n)``, taken at ``g = h``, ``n = sigma_y^2`` for D, on
each row of ``G`` with ``n = sigma_z^2`` and on ``p^H G`` with ``n = sigma_z^2
||p||^2``.  ``_whitened`` gives the pooled eavesdroppers' Cholesky factor ``C``
of ``B`` and ``y = C^{-1} m``, so ``S_coop = 1 - ||y||^2 / K`` and ``p_opt`` is
``y``'s back substitution.  Each is 1 minus a nonnegative quantity, so never
above 1.  Every closed form and oracle checks its inputs once, in ``_checked``:
a non-finite ``A``, or an ``eta`` or noise variance entry that is not finite and
nonnegative, raises ``ContractError``, and so does ``sigma_z^2 <= 0`` for
``coop_security`` and ``noncoop_security``.

The first four take a precoder ``A`` of shape ``(K, M)`` or a stack of
precoders of shape ``(..., K, M)``.  One precoder gives Python ``float``
values; a stack gives arrays over its leading axes, each entry bitwise equal
to the single-precoder call on that precoder.  Noise variances with one entry
per SNR broadcast against those axes (a stack ``(S, K, M)`` pairs precoder ``s``
with SNR ``s``), each entry bitwise equal to the call at that SNR's noise.
So does an ``eta`` array (one entry per power-control fraction), its axes leading: ``(D, 1)``
with per-SNR noise pairs a ``(D, S, K, M)`` stack entry by entry; ``m`` gains eta's axes.

The ``mc_oracle`` estimates D and S_coop from simulated transmissions alone:
it fits linear estimator coefficients from sample second moments on one half
of the draws and reports held-out normalized MSE on the other half, so it
shares no algebra with the closed forms above.  ``mc_combiner_mse`` scores
a given combiner the same way.  Each phase of ``n`` transmissions (the fit,
the held-out half, the combiner's run) splits into ``_LANES = 4`` seeded
lanes: lane ``i`` simulates ``n // 4 + (i < n % 4)`` transmissions from
``_stream(seed, key, i)``, with key 0 for the fit, 1 for the held-out half,
4 for ``mc_combiner_mse`` and 9 for ``statistical_csi_check`` (below); the
other streams take ``()``, ``(0,)``, ``(1,)``, ``(2, l)``, ``(3, d, pair)``
and ``(17, design)``, so no lane reuses a realization's draws.  A
lane draws its full 64-transmission blocks in ``standard_normal((c, K + M +
1 + L, 64, 2))`` calls of at most ``c = _LANE_CHUNK // 64 = 64`` blocks,
then one ``(1, K + M + 1 + L, r, 2)`` call for a remainder ``r``.  Scaled by
``sqrt(1/2)`` and viewed as complex, each 64-transmission block has rows
``gamma``, ``v``, ``n_y``, ``n_z`` and goes through the encoder and the
channels by two stacked matrix products.  The blocks keep each product at
most 16 x 32 x 64 multiply-adds, so OpenBLAS runs it on the calling thread:
a larger product starts OpenBLAS's own threads, which keep spinning and take
the cores from the lanes.  Each lane returns its sums, which are added in
lane order; the lanes run on up to ``_LANES`` threads, one per core, so the
reports are bitwise the same on any core count.  They take scalar noise
variances, a scalar ``eta`` and a single ``(K, M)`` precoder.
``statistical_csi_check`` verifies the phase-scrambling argument: when the
eavesdropper channel phases are uniformly random (and unknown), the received
signals carry no linear information about ``s``, i.e. their cross-covariance
vanishes; its phase ensemble runs on the same lanes, ``_LANE_CHUNK`` draws a call.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass

import numpy as np

from .channel import ScenarioConfig, SystemRealization, _cn, _stream, sample_realization
from .encoding import _check_scalar_eta, eta_from_delta
from .errors import ContractError
from .linalg import _back, _forward, _where, cholesky

_LANES = 4
_LANE_CHUNK = 1 << 12  # most transmissions, or phase draws, a lane draws in one call
_BLOCK = 64  # transmissions per matrix product
_MIN_SAMPLES = 10**4


@dataclass
class SecurityReport:
    """Accuracy and security summary for one realization and precoder."""

    D: float
    S_coop: float
    S_noncoop: float
    p_opt: np.ndarray
    per_eav_security: np.ndarray


@dataclass
class OracleReport:
    """Split-sample Monte Carlo estimates of D and S_coop."""

    D_hat: float
    S_hat: float
    num_samples: int
    std_err_D: float
    std_err_S: float


@dataclass
class CrossCovarianceReport:
    """Pooled sample cross-covariance between ``s`` and each eavesdropper signal."""

    crosscov: np.ndarray  # (L,) complex, mean of z_l * conj(s)
    std_err: np.ndarray  # (L,) real, standard error of each entry
    num_draws: int

    @property
    def max_abs_crosscov(self) -> float:
        return float(np.max(np.abs(self.crosscov)))


def _cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scalar(x) -> float | np.ndarray:
    """A 0-d result as a Python ``float``; a stacked result unchanged."""
    return float(x) if np.ndim(x) == 0 else x


def _check_eta(eta) -> None:
    if not (np.isfinite(eta) & (np.asarray(eta) >= 0.0)).all():
        raise ContractError(f"eta must be finite and nonnegative, got {eta!r}")


def _check_noise(real: SystemRealization, positive_noise: bool = False) -> None:
    """Every entry of both noise variances finite and nonnegative; ``sigma_z_sq > 0`` with ``positive_noise``."""
    for name, sigma in (("sigma_y_sq", real.sigma_y_sq), ("sigma_z_sq", real.sigma_z_sq)):
        if not (np.isfinite(sigma) & (sigma >= 0.0)).all():
            raise ContractError(f"{name} must be finite and nonnegative, got {sigma!r}")
    if positive_noise and not np.all(real.sigma_z_sq):  # a zero entry is all that can fail now
        raise ContractError("sigma_z_sq must be positive")


def _checked(real: SystemRealization, A, eta: float, positive_noise: bool = False) -> np.ndarray:
    """``A`` as an array after the input checks; a non-finite entry is named by its matrix in a stack."""
    _check_eta(eta)
    _check_noise(real, positive_noise)
    A = np.asarray(A)
    if not np.isfinite(A).all():
        _, at = _where(~np.isfinite(A).all(axis=(-2, -1)))
        raise ContractError(f"precoder has a non-finite entry{at}")
    return A


def _combiner(real: SystemRealization, p) -> np.ndarray:
    """The combiner ``p`` as an array; anything but ``L`` finite values raises."""
    p = np.asarray(p, dtype=np.complex128)
    if p.shape != (real.num_eavesdroppers,) or not np.isfinite(p).all():
        raise ContractError(f"p must be {real.num_eavesdroppers} finite values, got shape {p.shape}")
    return p


def _ratio_sums(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``|sum_k g_k/h_k|^2`` and ``sum_k |g_k/h_k|^2`` for each row ``g`` of shape ``(..., K)``."""
    r = g / h
    return np.abs(r.sum(axis=-1)) ** 2, np.sum(np.abs(r) ** 2, axis=-1)


def _receiver(g: np.ndarray, h: np.ndarray, A: np.ndarray, eta_sq, noise) -> np.ndarray:
    """Normalized MSE of the receiver on each row ``g``; 1 where it observes nothing."""
    sum_sq, power_sq = _ratio_sums(g, h)
    den = eta_sq * power_sq + np.sum(np.abs(g @ A) ** 2, axis=-1) + noise
    # den == 0 forces sum_sq == 0 (Cauchy-Schwarz), so the ratio is 0 and the MSE 1.
    return 1.0 - (eta_sq / h.size) * sum_sq / np.where(den == 0.0, 1.0, den)


def approximation_error(
    real: SystemRealization, A: np.ndarray, eta: float
) -> float | np.ndarray:
    """Normalized server MSE ``D`` for precoder ``A`` at amplitude ``eta``.

    ``A`` has shape ``(..., K, M)``; a single ``(K, M)`` precoder gives a
    ``float``, a stack, per-SNR noise or an ``eta`` array an array over the broadcast axes.
    """
    A = _checked(real, A, eta)
    return _scalar(_receiver(real.h, real.h, A, np.square(eta), real.sigma_y_sq))


def eavesdropper_moments(
    real: SystemRealization, A: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Covariance ``B`` of the pooled eavesdropper signal and mean ``m = E[z conj(s)]``.

    ``A`` has shape ``(..., K, M)`` and ``B`` shape ``(..., L, L)`` (per SNR and eta for
    arrays of them); ``m`` depends on neither ``A`` nor the noise: shape ``eta.shape + (L,)``.
    """
    return _moments(real, _checked(real, A, eta), eta)


def _moments(real: SystemRealization, A: np.ndarray, eta) -> tuple[np.ndarray, np.ndarray]:
    """``B`` and ``m`` of :func:`eavesdropper_moments` for inputs already checked."""
    GA = real.G @ A
    R = real.G / real.h[np.newaxis, :]  # entries g_{l,k} / h_k
    noise = np.multiply.outer(real.sigma_z_sq, np.eye(real.num_eavesdroppers))
    B = GA @ GA.conj().swapaxes(-2, -1) + np.square(eta)[..., None, None] * (R @ R.conj().T) + noise
    m = np.asarray(eta)[..., None] * R.sum(axis=1)
    return B, m


def _whitened(real: SystemRealization, A, eta) -> tuple[np.ndarray, np.ndarray]:
    """The Cholesky factor ``C`` of ``B`` and ``y = C^{-1} m``, so ``m^H B^{-1} m = ||y||^2``."""
    B, m = _moments(real, _checked(real, A, eta, positive_noise=True), eta)
    C = cholesky(B)
    return C, _forward(C, m)


def coop_security(
    real: SystemRealization, A: np.ndarray, eta: float
) -> tuple[float | np.ndarray, np.ndarray]:
    """Security level against jointly-combining eavesdroppers, with the combiner.

    Returns ``(S, p_opt)`` where ``p_opt = B^{-1} m`` is the MSE-optimal
    linear combining vector and ``S = 1 - m^H B^{-1} m / K``.  For ``A`` of
    shape ``(..., K, M)``, ``p_opt`` has shape ``(..., L)`` and ``S`` is a
    ``float`` for one precoder or an array for a stack or per-SNR noise.
    """
    C, y = _whitened(real, A, eta)
    S = 1.0 - np.sum(np.abs(y) ** 2, axis=-1) / real.num_users
    return _scalar(S), _back(C, y)


def noncoop_security(
    real: SystemRealization, A: np.ndarray, eta: float
) -> tuple[float | np.ndarray, np.ndarray]:
    """Security level of the best isolated eavesdropper, plus all per-receiver values.

    For ``A`` of shape ``(..., K, M)`` the per-receiver values have shape
    ``(..., L)`` and the minimum is a ``float`` for one precoder or an array
    for a stack or per-SNR noise.
    """
    A = _checked(real, A, eta, positive_noise=True)
    per_eav = _receiver(real.G, real.h, A, np.square(eta)[..., None], np.asarray(real.sigma_z_sq)[..., None])
    return _scalar(np.min(per_eav, axis=-1)), per_eav


def effective_channel_security(
    real: SystemRealization, A: np.ndarray, eta: float, p: np.ndarray
) -> float:
    """Normalized MSE of the virtual eavesdropper using combiner ``p``.

    Evaluates the single-receiver expression on the effective channel
    ``g_tilde = p^H G`` with noise power ``sigma_z^2 ||p||^2``; ``p = 0``
    observes nothing and gives 1.  For ``p = p_opt`` this reproduces
    :func:`coop_security`.
    """
    _check_scalar_eta(eta)
    A = _checked(real, A, eta)
    p = _combiner(real, p)
    noise = real.sigma_z_sq * float(np.sum(np.abs(p) ** 2))
    return _scalar(_receiver(p.conj() @ real.G, real.h, A, np.square(eta), noise))


def evaluate(real: SystemRealization, A: np.ndarray, eta: float) -> SecurityReport:
    """Full accuracy/security report; values below 0 by rounding are clamped to 0.

    A non-finite value raises :class:`ContractError` instead of being clamped.
    """
    _check_scalar_eta(eta)
    D = approximation_error(real, A, eta)
    S_coop, p_opt = coop_security(real, A, eta)
    _, per_eav = noncoop_security(real, A, eta)
    if not (np.isfinite([D, S_coop]).all() and np.isfinite(per_eav).all()):
        raise ContractError("accuracy or security value is not finite")
    per_eav = np.maximum(per_eav, 0.0)
    return SecurityReport(
        D=max(D, 0.0),
        S_coop=max(S_coop, 0.0),
        S_noncoop=float(np.min(per_eav)),
        p_opt=p_opt,
        per_eav_security=per_eav,
    )


# ---------------------------------------------------------------------------
# Monte Carlo oracles
# ---------------------------------------------------------------------------


def _oracle_inputs(real: SystemRealization, A, eta: float, num_samples: int) -> np.ndarray:
    """``A`` as a ``(K, M)`` array; inputs no oracle can simulate raise first."""
    if num_samples < _MIN_SAMPLES:
        raise ContractError(f"num_samples must be at least {_MIN_SAMPLES}")
    if np.ndim(real.sigma_y_sq) != 0 or np.ndim(real.sigma_z_sq) != 0:
        raise ContractError("the oracles take scalar noise variances, not one per SNR")
    _check_scalar_eta(eta)
    A = _checked(real, A, eta)
    if A.ndim != 2 or A.shape[0] != real.num_users:
        raise ContractError(f"precoder must have shape ({real.num_users}, M), got {A.shape}")
    return A


def _simulate_blocks(rng, real, A, eta, count: int, width: int) -> np.ndarray:
    """Draw ``count`` blocks of ``width`` transmissions through the actual encoding chain.

    One ``standard_normal((count, K + M + 1 + L, width, 2))`` call, scaled by
    ``sqrt(1/2)``, is viewed as complex ``(count, K + M + 1 + L, width)``
    blocks whose rows are, in order, ``gamma`` (K), ``v`` (M), ``n_y`` (1) and
    ``n_z`` (L).  Per block, ``x = [diag(eta / h) | A] @ [gamma; v]`` and
    ``[y; z] = [h^T; G] @ x`` plus the scaled noise rows.  Returns ``u`` of
    shape ``(count, L + 2, width)`` whose rows are ``y``, ``z`` (L) and
    ``s = sum_k gamma_k``.
    """
    K, M = A.shape
    L = real.num_eavesdroppers
    draw = rng.standard_normal((count, K + M + 1 + L, width, 2))
    draw *= math.sqrt(0.5)
    w = draw.view(np.complex128)[..., 0]
    x = np.hstack([np.diag(eta / real.h), A]) @ w[:, : K + M]
    u = np.empty((count, L + 2, width), np.complex128)
    np.matmul(np.vstack([real.h, real.G]), x, out=u[:, : L + 1])
    noise = w[:, K + M :]
    noise[:, 0] *= math.sqrt(real.sigma_y_sq)
    noise[:, 1:] *= math.sqrt(real.sigma_z_sq)
    u[:, : L + 1] += noise
    np.sum(w[:, :K], axis=1, out=u[:, L + 1])
    return u


def _chunk_sizes(total: int, chunk: int):
    """``total`` draws as chunks of at most ``chunk``."""
    return (min(chunk, total - start) for start in range(0, total, chunk))


def _lane_blocks(rng, real, A, eta, n: int):
    """``u`` of one lane's ``n`` transmissions, one draw call's blocks at a time.

    The ``n // _BLOCK`` full blocks come in calls of at most ``_LANE_CHUNK //
    _BLOCK`` blocks, then the remainder in one call.  ``_LANE_CHUNK`` sets only
    the call size, and so how the lane's sums are grouped, not the blocks.
    """
    for count in _chunk_sizes(n // _BLOCK, _LANE_CHUNK // _BLOCK):
        yield _simulate_blocks(rng, real, A, eta, count, _BLOCK)
    if n % _BLOCK:
        yield _simulate_blocks(rng, real, A, eta, 1, n % _BLOCK)


def _lane_sums(lane, num_samples: int, seed: int, key: int):
    """The sum over lanes ``i`` of ``lane(_stream(seed, key, i), n)``, added in lane order.

    Lane ``i`` takes ``n = num_samples // _LANES + (i < num_samples % _LANES)``
    of the draws and returns their sums; the oracles reduce each draw call's
    blocks before they add across calls.  The lanes run on up to ``_LANES``
    threads, one per core, and the result does not depend on how many.  Each
    lane runs in a copy of the caller's context, so numpy's error state holds.
    """

    def run(i: int, context):
        return context.run(lane, _stream(seed, key, i), num_samples // _LANES + (i < num_samples % _LANES))

    with ThreadPoolExecutor(max_workers=min(_LANES, _cores())) as pool:
        sums = list(pool.map(run, range(_LANES), [copy_context() for _ in range(_LANES)]))
    return sum(sums[1:], sums[0])


def _gram(blocks) -> np.ndarray:
    """``sum u u^H`` over the transmissions of ``blocks``."""
    total = 0.0
    for u in blocks:
        total = total + np.sum(u @ u.conj().swapaxes(-2, -1), axis=0)
    return total


def _heldout_mse(real, A, eta, num_samples, seed, key, W):
    """Mean and standard error of each estimator's normalized squared error.

    Row ``e`` of ``W`` holds estimator ``e``'s coefficients on ``[y; z]``.
    """
    K = real.num_users

    def errors(rng, n: int) -> np.ndarray:
        sums = np.zeros((2, len(W)))
        for u in _lane_blocks(rng, real, A, eta, n):
            err = np.abs(W @ u[:, :-1] - u[:, -1:]) ** 2 / K
            sums += err.sum(axis=(0, 2)), np.sum(err**2, axis=(0, 2))
        return sums

    sums, sums_sq = _lane_sums(errors, num_samples, seed, key)
    means = sums / num_samples
    variances = np.maximum(sums_sq / num_samples - means**2, 0.0)
    return means, np.sqrt(variances / num_samples)


def mc_oracle(
    real: SystemRealization,
    A: np.ndarray,
    eta: float,
    num_samples: int,
    seed: int,
) -> OracleReport:
    """Estimate D and S_coop from simulated transmissions alone.

    The first half of the draws fits the linear estimators from sample second
    moments (a scalar coefficient for the server, an L-vector combiner for
    the pooled eavesdroppers); the second half reports their held-out
    normalized MSE with standard errors from the per-sample variance.
    """
    A = _oracle_inputs(real, A, eta, num_samples)
    L = real.num_eavesdroppers
    n_fit = num_samples // 2
    gram = _lane_sums(lambda rng, n: _gram(_lane_blocks(rng, real, A, eta, n)), n_fit, seed, 0)  # rows y, z, s
    W = np.zeros((2, L + 1), dtype=np.complex128)
    W[0, 0] = gram[-1, 0] / gram[0, 0].real  # sum s conj(y) / sum |y|^2
    # Independent generic solve: the oracle must not share the Cholesky path.
    W[1, 1:] = np.linalg.solve(gram[1:-1, 1:-1], gram[1:-1, -1]).conj()
    means, std_errs = _heldout_mse(real, A, eta, num_samples - n_fit, seed, 1, W)
    return OracleReport(
        D_hat=float(means[0]),
        S_hat=float(means[1]),
        num_samples=num_samples,
        std_err_D=float(std_errs[0]),
        std_err_S=float(std_errs[1]),
    )


def mc_combiner_mse(
    real: SystemRealization,
    A: np.ndarray,
    eta: float,
    p: np.ndarray,
    num_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Simulated normalized MSE of a fixed combiner ``p``, with standard error.

    Unlike the closed-form security value, this is sensitive to the sign and
    phase of ``p``, so it pins down the combiner itself and not only the MSE
    it is claimed to achieve.
    """
    A = _oracle_inputs(real, A, eta, num_samples)
    W = np.concatenate([[0.0], _combiner(real, p).conj()])[np.newaxis]
    means, std_errs = _heldout_mse(real, A, eta, num_samples, seed, 4, W)
    return float(means[0]), float(std_errs[0])


def statistical_csi_check(
    config: ScenarioConfig,
    num_realizations: int,
    seed: int,
    eta: float | None = None,
    randomize_phases: bool = True,
) -> CrossCovarianceReport:
    """Sample cross-covariance between ``s`` and ``z`` over a phase ensemble.

    Holds the legitimate channel fixed, redraws the eavesdropper channel
    phases uniformly for every draw (keeping the sampled magnitudes), and
    pools ``z_l * conj(s)``.  With uniform phases the true cross-covariance
    is zero, so the best linear estimator over the ensemble is the prior mean
    and the ensemble security level is 1; the returned standard errors supply
    the matching CLT acceptance threshold.  With ``randomize_phases=False``
    the channel is deterministic and the cross-covariance converges to
    ``eta * sum_k g_{l,k} / h_k`` instead.  ``eta`` defaults to the no-noise
    maximum ``eta_from_delta(real, 1.0)``; an explicit one must be a finite,
    nonnegative scalar, as for the oracles.
    """
    if num_realizations < 1:
        raise ContractError(f"num_realizations must be at least 1, got {num_realizations}")
    if config.fading_mode != "complex":
        raise ContractError("the phase ensemble requires complex fading")
    if eta is not None:
        _check_scalar_eta(eta)
        _check_eta(eta)
    real = sample_realization(config, seed)
    if eta is None:
        eta = eta_from_delta(real, 1.0)
    L, K = real.num_eavesdroppers, real.num_users

    def phase_sums(rng, n: int) -> np.ndarray:  # sum z conj(s) and sum |z conj(s)|^2
        sums = np.zeros((2, L), dtype=np.complex128)
        for count in _chunk_sizes(n, _LANE_CHUNK):
            gamma = _cn(rng, (count, K))
            w = gamma / real.h[np.newaxis, :]
            if randomize_phases:
                phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (count, L, K)))
                z = eta * np.einsum("lk,nlk,nk->nl", real.G, phases, w)
            else:
                z = eta * w @ real.G.T
            z += math.sqrt(real.sigma_z_sq) * _cn(rng, (count, L))
            x = z * gamma.sum(axis=1).conj()[:, np.newaxis]
            sums += x.sum(axis=0), np.sum(np.abs(x) ** 2, axis=0)
        return sums

    sum_x, sum_abs_sq = _lane_sums(phase_sums, num_realizations, seed, 9)
    mean = sum_x / num_realizations
    var = np.maximum(sum_abs_sq.real / num_realizations - np.abs(mean) ** 2, 0.0)
    return CrossCovarianceReport(
        crosscov=mean,
        std_err=np.sqrt(var / num_realizations),
        num_draws=num_realizations,
    )
