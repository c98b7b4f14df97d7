"""Built-in cross-validation of the closed forms against simulation.

These checks re-derive every headline number from an independent route:
Monte Carlo estimates of the server and eavesdropper MSE, a direct
simulation of the claimed optimal combiner (which is sensitive to sign and
phase errors that cancel inside the closed-form MSE), the virtual-channel
identity, and a brute-force grid search against the noise-allocation LP.
They run in a few seconds and are wired to ``otasec selftest``.
"""

from __future__ import annotations

import numpy as np

from .channel import ScenarioConfig, sample_realization
from .encoding import build_precoder, eta_from_delta, row_budgets
from . import metrics

_KINDS = ("none", "signal_level", "random_zf", "data_level", "mixture", "proposed")
_DELTAS = (0.5, 0.7, 0.9)


def _grid_best_worst_objective(real, eta, resolution=100):
    """Grid-search the max-min objective of the single-ZF design, K = 3 only.

    Re-derives the per-eavesdropper objective directly from the security
    formula and the precoder structure, independent of the LP assembly.
    """
    h, G = real.h, real.G
    assert h.shape[0] == 3
    zf = int(np.argmax(np.abs(h) ** 2))
    others = [i for i in range(3) if i != zf]
    budgets = row_budgets(real, eta)
    r = G / h[np.newaxis, :]
    denom = np.abs(r.sum(axis=1)) ** 2
    base = eta**2 * np.sum(np.abs(r) ** 2, axis=1) + real.sigma_z_sq
    gain = np.abs(G[:, others] - np.outer(G[:, zf] / h[zf], h[others])) ** 2
    l1 = np.linspace(0.0, budgets[others[0]], resolution + 1)
    l2 = np.linspace(0.0, budgets[others[1]], resolution + 1)
    L1, L2 = np.meshgrid(l1, l2, indexing="ij")
    w = np.abs(h[others] / h[zf]) ** 2
    feasible = w[0] * L1 + w[1] * L2 <= budgets[zf] + 1e-15
    live = denom > 1e-12 * np.sum(np.abs(r) ** 2, axis=1)
    if not live.any():
        return None
    worst = np.full(L1.shape, np.inf)
    for ell in np.nonzero(live)[0]:
        obj = (base[ell] + gain[ell, 0] * L1 + gain[ell, 1] * L2) / denom[ell]
        worst = np.minimum(worst, obj)
    worst[~feasible] = -np.inf
    return float(worst.max())


def run_selftest(trials: int = 20, seed: int = 1, samples: int = 10**5, log=print) -> int:
    """Run the suite; returns 0 when every check passes, 3 otherwise."""
    failures = 0

    def check(ok: bool, label: str, detail: str) -> None:
        nonlocal failures
        log(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
        if not ok:
            failures += 1

    for i in range(trials):
        K = 2 + i % 5
        L = 1 + i % 3
        config = ScenarioConfig(num_users=K, num_eavesdroppers=L)
        real = sample_realization(config, seed + i)
        eta = eta_from_delta(real, _DELTAS[i % len(_DELTAS)])
        kind = _KINDS[i % len(_KINDS)]
        prec = build_precoder(kind, real, eta, seed=seed + 1000 + i, params={"theta": 0.5})
        A = prec.A

        oracle = metrics.mc_oracle(real, A, eta, samples, seed=seed + 2000 + i)
        D = metrics.approximation_error(real, A, eta)
        s_coop, p_opt = metrics.coop_security(real, A, eta)
        tag = f"trial {i} (K={K} L={L} {kind})"
        check(
            abs(D - oracle.D_hat) <= 4.0 * oracle.std_err_D,
            f"{tag} server MSE vs simulation",
            f"|{D:.6f} - {oracle.D_hat:.6f}| <= {4.0 * oracle.std_err_D:.2e}",
        )
        check(
            abs(s_coop - oracle.S_hat) <= 4.0 * oracle.std_err_S,
            f"{tag} eavesdropper MSE vs simulation",
            f"|{s_coop:.6f} - {oracle.S_hat:.6f}| <= {4.0 * oracle.std_err_S:.2e}",
        )
        mse, se = metrics.mc_combiner_mse(real, A, eta, p_opt, samples, seed=seed + 3000 + i)
        check(
            abs(s_coop - mse) <= 4.0 * se,
            f"{tag} analytic combiner on simulated data",
            f"|{s_coop:.6f} - {mse:.6f}| <= {4.0 * se:.2e}",
        )
        ident = abs(metrics.effective_channel_security(real, A, eta, p_opt) - s_coop)
        check(ident <= 1e-10, f"{tag} virtual-channel identity", f"gap {ident:.2e}")
        if L == 1:
            s_non, _ = metrics.noncoop_security(real, A, eta)
            check(
                abs(s_non - s_coop) <= 1e-12,
                f"{tag} single-eavesdropper consistency",
                f"gap {abs(s_non - s_coop):.2e}",
            )

    for i in range(5):
        config = ScenarioConfig(num_users=3, num_eavesdroppers=2)
        real = sample_realization(config, seed + 5000 + i)
        eta = eta_from_delta(real, 0.7)
        prec = build_precoder("proposed", real, eta)
        t_grid = _grid_best_worst_objective(real, eta)
        s_non, _ = metrics.noncoop_security(real, prec.A, eta)
        # The worst-eavesdropper objective and the achieved security are two
        # views of the same quantity: objective = (eta^2 / K) / (1 - S).
        t_lp = eta**2 / (real.num_users * (1.0 - s_non))
        ok = t_grid is not None and s_non < 1.0 and abs(t_lp - t_grid) <= 0.01 * abs(t_grid)
        check(ok, f"LP {i} vs grid search", f"lp {t_lp:.6g} grid {t_grid:.6g}")

    log(f"selftest: {failures} failure(s)")
    return 0 if failures == 0 else 3
