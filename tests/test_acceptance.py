"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The statistical checks use pre-committed seeds (base seed 1 throughout); with
those seeds every test is fully deterministic.  Paired comparisons follow the
seed-sharing design of the experiment harness: realization r uses seed
base_seed + r in every arm being compared.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from otasec import ScenarioConfig, sample_realization
from otasec.encoding import build_precoder, eta_from_delta
from otasec.experiments import default_preset, collect_trials
from otasec.lp import LpProblem, solve_lp
from otasec.metrics import (
    approximation_error,
    coop_security,
    eavesdropper_moments,
    effective_channel_security,
    mc_oracle,
    noncoop_security,
    statistical_csi_check,
)
from otasec.selftest import _grid_best_worst_objective

from otasec.cli import main as cli_main

from conftest import one_design


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def zero_A(K):
    return np.zeros((K, 1), dtype=np.complex128)


# ---------------------------------------------------------------------------
# Criteria 1-2: closed forms vs the split-sample Monte Carlo oracle
# ---------------------------------------------------------------------------

ORACLE_KINDS = ("none", "signal_level", "data_level", "random_zf", "proposed", "mixture")
ORACLE_DELTAS = (0.5, 0.7, 0.9)


@pytest.fixture(scope="module")
def oracle_runs():
    started = time.monotonic()
    runs = []
    for i in range(20):
        K = 2 + i % 5
        L = 1 + i % 3
        config = ScenarioConfig(num_users=K, num_eavesdroppers=L)
        real = sample_realization(config, 1 + i)
        eta = eta_from_delta(real, ORACLE_DELTAS[i % 3])
        prec = build_precoder(
            ORACLE_KINDS[i % 6], real, eta, seed=1000 + i, params={"theta": 0.5}
        )
        report = mc_oracle(real, prec.A, eta, 10**6, seed=2000 + i)
        runs.append((real, prec.A, eta, report))
    return runs, time.monotonic() - started


def test_criterion_1_server_error_matches_oracle(oracle_runs):
    runs, elapsed = oracle_runs
    worst = 0.0
    for real, A, eta, report in runs:
        z = abs(approximation_error(real, A, eta) - report.D_hat) / report.std_err_D
        worst = max(worst, z)
    _report(
        1,
        worst <= 3.0 and elapsed <= 60.0,
        f"max |D - D_hat| = {worst:.2f} std errs over 20 instances in {elapsed:.0f}s",
    )


def test_criterion_2_coop_security_matches_oracle(oracle_runs):
    runs, _ = oracle_runs
    worst_z = 0.0
    worst_ident = 0.0
    for real, A, eta, report in runs:
        S, p_opt = coop_security(real, A, eta)
        worst_z = max(worst_z, abs(S - report.S_hat) / report.std_err_S)
        worst_ident = max(
            worst_ident, abs(effective_channel_security(real, A, eta, p_opt) - S)
        )
    _report(
        2,
        worst_z <= 3.0 and worst_ident <= 1e-10,
        f"max |S - S_hat| = {worst_z:.2f} std errs, max combiner identity gap = {worst_ident:.1e}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: optimality of the closed-form combiner
# ---------------------------------------------------------------------------


def test_criterion_3_combiner_optimality():
    rng = np.random.default_rng(33)
    worst = 0.0
    for i in range(20):
        config = ScenarioConfig(num_users=3 + i % 4, num_eavesdroppers=2 + i % 2)
        real = sample_realization(config, 100 + i)
        eta = eta_from_delta(real, 0.8)
        A = build_precoder("signal_level", real, eta).A
        S, p_opt = coop_security(real, A, eta)
        L = real.num_eavesdroppers
        for _ in range(100):
            q = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            p = p_opt + 1e-3 * q / np.linalg.norm(q)
            worst = max(worst, S - effective_channel_security(real, A, eta, p))
    _report(3, worst <= 1e-12, f"best perturbation improvement = {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 4: single-eavesdropper consistency of the two security routes
# ---------------------------------------------------------------------------


def test_criterion_4_single_eavesdropper_consistency():
    worst = 0.0
    for i in range(100):
        config = ScenarioConfig(num_users=2 + i % 6, num_eavesdroppers=1)
        real = sample_realization(config, 200 + i)
        eta = eta_from_delta(real, ORACLE_DELTAS[i % 3])
        A = build_precoder(ORACLE_KINDS[i % 6], real, eta, seed=i, params={"theta": 0.5}).A
        s_coop, _ = coop_security(real, A, eta)
        s_non, _ = noncoop_security(real, A, eta)
        worst = max(worst, abs(s_coop - s_non))
    _report(4, worst <= 1e-12, f"max |coop - noncoop| = {worst:.2e} over 100 instances")


# ---------------------------------------------------------------------------
# Criterion 5: perfect recovery by as many eavesdroppers as users
# ---------------------------------------------------------------------------


def test_criterion_5_perfect_recovery_limit():
    worst = 0.0
    for K in (2, 4):
        for seed in (1, 2, 3, 4, 5):
            config = ScenarioConfig(num_users=K, num_eavesdroppers=K)
            real = sample_realization(config, seed)
            eta = eta_from_delta(real, 1.0)
            noiseless = dataclasses.replace(real, sigma_z_sq=0.0)
            B_sig, _ = eavesdropper_moments(noiseless, zero_A(K), eta)
            scale = float(np.trace(B_sig).real) / K
            tiny = dataclasses.replace(real, sigma_z_sq=1e-12 * scale)
            S, _ = coop_security(tiny, zero_A(K), eta)
            worst = max(worst, S)
    _report(5, worst <= 1e-6, f"max S_coop = {worst:.2e} as receiver noise vanishes")


# ---------------------------------------------------------------------------
# Criterion 6: uniform channel phases carry no linear information
# ---------------------------------------------------------------------------


def test_criterion_6_statistical_csi_security():
    started = time.monotonic()
    config = ScenarioConfig(num_users=4, num_eavesdroppers=2)
    report = statistical_csi_check(config, 10**5, seed=6)
    elapsed = time.monotonic() - started
    ratios = np.abs(report.crosscov) / report.std_err
    _report(
        6,
        bool(np.all(ratios <= 4.0)) and elapsed <= 30.0,
        f"per-eavesdropper |crosscov| = {np.round(ratios, 2)} std errs (limit 4), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 7: zero-forcing designs leave the server untouched
# ---------------------------------------------------------------------------


def test_criterion_7_zero_forcing_neutrality():
    worst_d = 0.0
    worst_zf = 0.0
    for i in range(100):
        K = 4 + i % 3
        config = ScenarioConfig(num_users=K, num_eavesdroppers=1 + i % 3)
        real = sample_realization(config, 300 + i)
        eta = eta_from_delta(real, 0.7)
        base = approximation_error(real, zero_A(K), eta)
        precoders = [
            one_design(real, eta),
            one_design(real, eta, 2, "exhaustive"),
            build_precoder("random_zf", real, eta, seed=i),
            build_precoder("mixture", real, eta, seed=i, params={"theta": 0.0}),
        ]
        for prec in precoders:
            worst_d = max(worst_d, abs(approximation_error(real, prec.A, eta) - base))
            norm_A = np.linalg.norm(prec.A)
            if norm_A > 0:
                leak = np.linalg.norm(real.h @ prec.A) / (np.linalg.norm(real.h) * norm_A)
                worst_zf = max(worst_zf, leak)
    _report(
        7,
        worst_d <= 1e-12 and worst_zf <= 1e-10,
        f"max |D - D_0| = {worst_d:.2e}, max relative leakage = {worst_zf:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: LP route against brute-force oracles
# ---------------------------------------------------------------------------


def _enumerate_vertices(c, M, b):
    n = len(c)
    rows = [np.asarray(row, dtype=float) for row in M] + [-e for e in np.eye(n)]
    rhs = list(b) + [0.0] * n
    A = np.array(rows)
    bb = np.array(rhs)
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, bb[list(combo)])
        if np.all(A @ x <= bb + 1e-9):
            value = float(c @ x)
            if best is None or value > best:
                best = value
    return best


def test_criterion_8_lp_correctness():
    worst_rel = 0.0
    for seed in range(20):
        config = ScenarioConfig(num_users=3, num_eavesdroppers=2)
        real = sample_realization(config, 400 + seed)
        eta = eta_from_delta(real, 0.7)
        prec = one_design(real, eta)
        s_non, _ = noncoop_security(real, prec.A, eta)
        t_lp = eta**2 / (3 * (1.0 - s_non))
        t_grid = _grid_best_worst_objective(real, eta, resolution=200)
        worst_rel = max(worst_rel, abs(t_lp - t_grid) / abs(t_grid))

    rng = np.random.default_rng(88)
    worst_abs = 0.0
    for _ in range(50):
        M = np.vstack([rng.standard_normal((3, 3)), np.eye(3)])
        b = np.concatenate([rng.uniform(0.5, 2.0, 3), np.full(3, 3.0)])
        c = rng.standard_normal(3)
        (sol,) = solve_lp(LpProblem(c, M, b))
        assert sol.status == "optimal"
        best = _enumerate_vertices(c, M, b)
        worst_abs = max(worst_abs, abs(sol.objective_value - best))
    _report(
        8,
        worst_rel <= 0.01 and worst_abs <= 1e-7,
        f"max grid deviation = {100 * worst_rel:.3f}%, max vertex deviation = {worst_abs:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 9: figure-shape reproduction (100 realizations, K = 10, SNR 10 dB)
# ---------------------------------------------------------------------------


def _paired_z(diff):
    return float(diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.shape[0])))


@pytest.fixture(scope="module")
def sweep_l_trials():
    started = time.monotonic()
    preset = default_preset("sweep_L", num_realizations=100, base_seed=1)
    trials = collect_trials(preset, threads=2)
    return trials, time.monotonic() - started


def test_criterion_9_fig3a_cooperation_erodes_security(sweep_l_trials):
    trials, elapsed = sweep_l_trials
    s_coop = trials[:, :, 1]
    step_z = [_paired_z(s_coop[:, j] - s_coop[:, j + 1]) for j in range(9)]
    ok = min(step_z) >= 3.0 and elapsed <= 120.0
    _report(
        "9/fig3a-decrease",
        ok,
        f"weakest consecutive-L decrease z = {min(step_z):.1f} over L = 1..10, {elapsed:.1f}s",
    )


def test_criterion_9_fig3a_noncoop_stays_flat(sweep_l_trials):
    """Known red: the 0.05 target is unattainable under this channel model.

    The per-eavesdropper security behaves like 1 - w*Z/K with Z effectively
    exponential given the channel magnitudes, so the minimum over 15
    eavesdroppers degrades by roughly (E[max of 15 draws] - 1) * w / K ~ 0.12
    at K = 10 when the eavesdroppers are effectively noise-free, for every
    power-control fraction (measured 0.114..0.129 over delta in [0.25, 1]
    and across seeds; the closed forms themselves are oracle-verified).
    """
    trials, _ = sweep_l_trials
    s_non = trials[:, :, 2]
    drift = abs(s_non[:, 14].mean() - s_non[:, 0].mean())
    _report(
        "9/fig3a-noncoop-flat",
        drift <= 0.05,
        f"|S_noncoop(L=15) - S_noncoop(L=1)| = {drift:.3f} (limit 0.05)",
    )


def test_criterion_9_fig3a_server_beats_eavesdroppers(sweep_l_trials):
    trials, _ = sweep_l_trials
    margin = float(np.min(trials[:, :, 2].mean(0) - trials[:, :, 0].mean(0)))
    _report(
        "9/fig3a-server-advantage",
        margin > 0.0,
        f"min_L (S_noncoop - D) = {margin:.3f}",
    )


def test_criterion_9_fig3b_real_channels_are_less_secure(sweep_l_trials):
    """Known red: correct direction, but under-powered at 100 realizations.

    With signed real Gaussian fading the contrast against complex fading is
    real but small (paired mean ~ 0.023, sd ~ 0.09, z ~ 1.6-2.9 across
    seeds, even with common-random-number coupling of the two modes), so a
    3-sigma paired test at this effect size needs ~140+ realizations.
    """
    trials, _ = sweep_l_trials
    preset = default_preset("sweep_L", num_realizations=100, base_seed=1, fading_mode="real")
    real_trials = collect_trials(preset, threads=2)
    z = _paired_z(trials[:, 4, 2] - real_trials[:, 4, 2])
    _report(
        "9/fig3b-real-vs-complex",
        z >= 3.0,
        f"paired z = {z:.2f} for complex-minus-real S_noncoop at L = 5",
    )


def test_criterion_9_fig45_proposed_design_shapes():
    preset = default_preset(
        "sweep_snr_designs",
        num_realizations=100,
        base_seed=1,
        designs=("none", "random_zf", "proposed"),
    )
    trials = collect_trials(preset, threads=2)
    # Columns per design block: D, S_coop, S_noncoop.
    noncoop_margin = float(np.min(trials[:, :, 8].mean(0) - trials[:, :, 5].mean(0)))
    gap_none = trials[:, :, 2] - trials[:, :, 1]
    gap_prop = trials[:, :, 8] - trials[:, :, 7]
    viol_z = max(_paired_z(gap_prop[:, j] - gap_none[:, j]) for j in range(gap_none.shape[1]))
    _report(
        "9/fig45-gap-closure",
        noncoop_margin >= 0.0 and viol_z <= -3.0,
        f"min mean S_noncoop(proposed - random_zf) = {noncoop_margin:.2e}; "
        f"gap(proposed) below gap(none) with worst one-sided z = {viol_z:.1f}",
    )


def test_criterion_9_fig6_distributed_is_harder():
    preset = default_preset("collocated", num_realizations=100, base_seed=1)
    trials = collect_trials(preset, threads=2)
    diffs = trials[:, :, 0] - trials[:, :, 2]  # distributed minus collocated S_coop
    worst_violation = max(_paired_z(diffs[:, j]) for j in range(diffs.shape[1]))
    confirm = max(_paired_z(-diffs[:, j]) for j in range(diffs.shape[1]))
    _report(
        "9/fig6-collocated",
        worst_violation <= 3.0 and confirm >= 3.0,
        f"worst violation z = {worst_violation:.2f} (limit 3), "
        f"strongest confirmation z = {confirm:.1f}",
    )


# ---------------------------------------------------------------------------
# Criterion 10: determinism of every preset, independent of threading
# ---------------------------------------------------------------------------


def test_criterion_10_preset_determinism(tmp_path):
    shrink = {
        "eta_design_space": ["--set", "sweep_values=[0.2,0.4,0.6,0.8,1.0]"],
        "sweep_L": ["--set", "sweep_values=[1,2,3]"],
        "sweep_snr_designs": ["--set", "sweep_values=[0,10]"],
        "security_gap": ["--set", "sweep_values=[0,10]"],
        "collocated": ["--set", "sweep_values=[0,10]"],
        "shared_zf": ["--set", "sweep_values=[0,10]", "--set", "l_values=[2]",
                      "--set", "num_users=5"],
        "power_control": ["--set", "sweep_values=[0,10]", "--set", "delta_grid=[0.5,1.0]"],
        "tradeoff": ["--set", "sweep_values=[0.3,0.7]", "--set", "mixture_pairs=3",
                     "--set", "mixture_thetas=3"],
    }
    all_ok = True
    details = []
    for name, extra in shrink.items():
        outputs = []
        trials = "1" if name in ("eta_design_space", "tradeoff") else "3"  # one realization each
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{name}_{tag}.dat"
            code = cli_main(
                ["run", name, "--seed", "9", "--trials", trials, "--threads", threads,
                 "--out", str(out)] + extra
            )
            assert code == 0
            outputs.append(out.read_bytes())
        same = outputs[0] == outputs[1] == outputs[2]
        all_ok = all_ok and same
        details.append(f"{name}:{'ok' if same else 'MISMATCH'}")
    _report(10, all_ok, ", ".join(details))
