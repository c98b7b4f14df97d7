import dataclasses

import numpy as np
import pytest

from otasec.encoding import build_precoder, eta_from_delta, row_budgets
from otasec.errors import ContractError
from otasec.metrics import approximation_error, noncoop_security
from otasec.optimizer import (
    ZeroForcingDesign,
    assemble_precoder,
    compute_alpha_beta,
    optimize_design,
    optimize_proposed,
    optimize_shared_zf,
)
from otasec.selftest import _grid_best_worst_objective

from conftest import make_realization, synthetic_realization


def zero_A(K):
    return np.zeros((K, 1), dtype=np.complex128)


def design_for(real, eta, zf_users, weights=None):
    if weights is None:
        weights = np.full(len(zf_users), 1.0 / len(zf_users))
    return ZeroForcingDesign(zf_users=tuple(zf_users), weights=np.asarray(weights), eta=eta)


class TestAlphaBeta:
    def test_aligned_pair(self):
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, 1.0]], sigma_z_sq=2.0)
        obj = compute_alpha_beta(real, 1.0, design_for(real, 1.0, (1,), [1.0]))
        assert obj.dropped_eavs == ()
        assert obj.alpha[0] == pytest.approx(1.0, abs=1e-15)
        assert obj.beta[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_cancelling_channel_dropped(self):
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, -1.0]], sigma_z_sq=2.0)
        obj = compute_alpha_beta(real, 1.0, design_for(real, 1.0, (1,), [1.0]))
        assert obj.dropped_eavs == (0,)
        assert np.isinf(obj.alpha[0])

    def test_consistent_with_security_formula(self, rng):
        # alpha + beta . lam must reproduce the per-eavesdropper security of
        # the assembled precoder at arbitrary noise powers.
        for seed in range(5):
            real = make_realization(seed, K=3, L=2)
            eta = eta_from_delta(real, 0.6)
            zf = int(np.argmax(np.abs(real.h) ** 2))
            design = design_for(real, eta, (zf,), [1.0])
            obj = compute_alpha_beta(real, eta, design)
            budgets = row_budgets(real, eta)
            others = [i for i in range(3) if i != zf]
            for _ in range(5):
                lam = rng.uniform(0.0, 1.0, 2) * budgets[others] * 0.5
                probe = dataclasses.replace(design, lam=lam)
                A = assemble_precoder(real, probe).A
                _, per = noncoop_security(real, A, eta)
                predicted = obj.alpha + obj.beta @ lam
                for ell in range(2):
                    expected = (eta**2 / 3) / (1.0 - per[ell])
                    assert predicted[ell] == pytest.approx(expected, rel=1e-9)


class TestAssemble:
    def test_single_zf_structure(self):
        real = make_realization(1, K=4, L=2)
        eta = eta_from_delta(real, 0.5)
        lam = np.array([0.4, 0.1, 0.2])
        zf = 3
        design = dataclasses.replace(design_for(real, eta, (zf,), [1.0]), lam=lam)
        A = assemble_precoder(real, design).A
        expected = np.zeros((4, 3), dtype=complex)
        for col, i in enumerate([0, 1, 2]):
            expected[i, col] = np.sqrt(lam[col])
            expected[zf, col] = -np.sqrt(lam[col]) * real.h[i] / real.h[zf]
        assert np.allclose(A, expected, atol=1e-15)

    def test_zero_lambda_is_zero_matrix(self):
        real = make_realization(2, K=4, L=1)
        design = dataclasses.replace(design_for(real, 0.0, (0,), [1.0]), lam=np.zeros(3))
        assert not assemble_precoder(real, design).A.any()

    def test_always_zero_forcing(self, rng):
        for seed in range(10):
            real = make_realization(seed, K=5, L=2)
            eta = eta_from_delta(real, 0.4)
            shared = optimize_shared_zf(real, eta, 2)
            lam = rng.uniform(0.0, 0.1, 3)
            design = dataclasses.replace(
                design_for(real, eta, shared.zf_users, shared.zf_weights), lam=lam
            )
            A = assemble_precoder(real, design).A
            assert np.linalg.norm(real.h @ A) <= 1e-12 * np.linalg.norm(
                real.h
            ) * np.linalg.norm(A)

    def test_missing_lambda_rejected(self):
        real = make_realization(3, K=4, L=1)
        with pytest.raises(ContractError):
            assemble_precoder(real, design_for(real, 0.0, (0,), [1.0]))


class TestOptimizeProposed:
    def test_constant_objective_fills_budget(self):
        # The single eavesdropper cannot see the zero-forced direction, so
        # every allocation is optimal and the tie-break fills the budgets.
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, 1.0]], P=2.0, sigma_z_sq=1.0)
        prec = optimize_proposed(real, 1.0)
        budgets = row_budgets(real, 1.0)
        nonzf = [i for i in range(2) if i != prec.zf_users[0]]
        # One noise column; its power is capped by both the own-row budget and
        # the zero-forcing user's compensation budget.
        cap = min(
            budgets[nonzf[0]],
            budgets[prec.zf_users[0]] / abs(real.h[nonzf[0]] / real.h[prec.zf_users[0]]) ** 2,
        )
        assert prec.lam[0] == pytest.approx(cap, rel=1e-9)

    def test_zero_residual_power_yields_no_noise(self):
        real = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[0.3, 1.0, 0.1]], P=1.0)
        eta = eta_from_delta(real, 1.0)
        prec = optimize_proposed(real, eta)
        assert np.allclose(prec.lam, 0.0)
        assert not prec.A.any()
        s_with, _ = noncoop_security(real, prec.A, eta)
        s_without, _ = noncoop_security(real, zero_A(3), eta)
        assert s_with == pytest.approx(s_without, abs=1e-15)

    def test_matches_grid_search(self):
        for seed in range(5):
            real = make_realization(seed, K=3, L=2)
            eta = eta_from_delta(real, 0.7)
            prec = optimize_proposed(real, eta)
            s_non, _ = noncoop_security(real, prec.A, eta)
            t_lp = eta**2 / (3 * (1.0 - s_non))
            t_grid = _grid_best_worst_objective(real, eta, resolution=200)
            assert t_lp == pytest.approx(t_grid, rel=0.01)

    def test_uses_best_channel_for_zero_forcing(self):
        real = make_realization(9, K=6, L=3)
        eta = eta_from_delta(real, 0.6)
        prec = optimize_proposed(real, eta)
        assert prec.zf_users == (int(np.argmax(np.abs(real.h) ** 2)),)
        assert prec.kind == "proposed"

    def test_monotone_in_added_eavesdropper(self, rng):
        for seed in range(5):
            real = make_realization(seed, K=4, L=2)
            eta = eta_from_delta(real, 0.7)
            t_small = achieved_objective(real, eta)
            extra = 1e-4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            bigger = dataclasses.replace(
                real,
                G=np.vstack([real.G, extra]),
                eav_positions=np.vstack([real.eav_positions, [0.0, 1.0]]),
            )
            t_big = achieved_objective(bigger, eta)
            assert t_big <= t_small + 1e-9 * abs(t_small)

    def test_noise_never_helps_eavesdroppers(self):
        for seed in range(15):
            real = make_realization(seed, K=5, L=3)
            eta = eta_from_delta(real, 0.8)
            prec = optimize_proposed(real, eta)
            s_opt, _ = noncoop_security(real, prec.A, eta)
            s_none, _ = noncoop_security(real, zero_A(5), eta)
            assert s_opt >= s_none - 1e-12

    def test_worst_eavesdropper_constraint_tight(self):
        # The LP-reported optimum must be consistent with a direct
        # re-evaluation of the objective at the returned allocation.
        for seed in range(10):
            real = make_realization(seed, K=4, L=3)
            eta = eta_from_delta(real, 0.7)
            zf = int(np.argmax(np.abs(real.h) ** 2))
            design, obj = optimize_design(
                real, eta, design_for(real, eta, (zf,), [1.0])
            )
            assert obj.t_star is not None
            live = [l for l in range(3) if l not in obj.dropped_eavs]
            values = obj.alpha[live] + obj.beta[live] @ design.lam
            assert np.all(values >= obj.t_star - 1e-8)
            budgets = row_budgets(real, eta)
            nonzf = [i for i in range(4) if i != zf]
            own_bind = np.abs(design.lam - budgets[nonzf]) <= 1e-6 * (1.0 + budgets[nonzf])
            zf_load = float(np.sum(design.lam * np.abs(real.h[nonzf] / real.h[zf]) ** 2))
            zf_bind = abs(zf_load - budgets[zf]) <= 1e-6 * (1.0 + budgets[zf])
            all_budgets_bind = bool(np.all(own_bind)) or zf_bind
            some_tight = np.any(np.abs(values - obj.t_star) <= 1e-6 * (1.0 + abs(obj.t_star)))
            assert some_tight or all_budgets_bind


def achieved_objective(real, eta):
    prec = optimize_proposed(real, eta)
    s_non, _ = noncoop_security(real, prec.A, eta)
    return eta**2 / (real.num_users * (1.0 - s_non))


class TestSharedZeroForcing:
    def test_weights_proportional_to_residual_power(self):
        real = make_realization(4, K=5, L=2)
        eta = eta_from_delta(real, 0.5)
        prec = optimize_shared_zf(real, eta, 2)
        w = prec.zf_weights
        Z = prec.zf_users
        budgets = row_budgets(real, eta)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[0] / w[1] == pytest.approx(budgets[Z[0]] / budgets[Z[1]], rel=1e-12)

    def test_single_user_exhaustive_contains_proposed(self):
        found_match = False
        for seed in range(8):
            real = make_realization(seed, K=4, L=2)
            eta = eta_from_delta(real, 0.7)
            shared = optimize_shared_zf(real, eta, 1, selection="exhaustive")
            proposed = optimize_proposed(real, eta)
            s_shared, _ = noncoop_security(real, shared.A, eta)
            s_proposed, _ = noncoop_security(real, proposed.A, eta)
            assert s_shared >= s_proposed - 1e-9
            if shared.zf_users == proposed.zf_users:
                assert s_shared == pytest.approx(s_proposed, abs=1e-9)
                found_match = True
        assert found_match  # the best channel wins on at least some instances

    def test_single_noise_column_matches_ratio_test(self):
        # N = K-1 leaves one column; the optimum is a closed-form ratio test.
        real = make_realization(6, K=4, L=2)
        eta = eta_from_delta(real, 0.6)
        prec = optimize_shared_zf(real, eta, 3, selection="best_channel")
        Z = prec.zf_users
        i = [k for k in range(4) if k not in Z][0]
        budgets = row_budgets(real, eta)
        w = prec.zf_weights
        cap = budgets[i]
        for k, d_k in zip(Z, w):
            coeff = abs(d_k * real.h[i] / real.h[k]) ** 2
            if coeff > 0:
                cap = min(cap, budgets[k] / coeff)
        obj = compute_alpha_beta(
            real, eta, ZeroForcingDesign(zf_users=Z, weights=w, eta=eta)
        )
        live = [l for l in range(2) if l not in obj.dropped_eavs]
        # The objective is nondecreasing in the single power, so the cap wins.
        assert prec.lam[0] == pytest.approx(cap, rel=1e-8)
        assert np.all(obj.beta[live] >= 0.0)

    def test_tied_candidates_take_lowest_index_set(self):
        # Both eavesdroppers see cancelling channels, so every subset ties.
        real = synthetic_realization(
            h=[1.0, 1.0, 1.0],
            G=[[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]],
            P=2.0,
            sigma_z_sq=1.0,
        )
        prec = optimize_shared_zf(real, 1.0, 1, selection="exhaustive")
        assert prec.zf_users == (0,)
        prec2 = optimize_shared_zf(real, 1.0, 2, selection="exhaustive")
        assert prec2.zf_users == (0, 1)

    def test_all_candidates_degenerate_falls_back_to_zero(self):
        real = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[1.0, 0.5, 0.2]], P=1.0)
        eta = eta_from_delta(real, 1.0)  # all residual budgets are exactly zero
        prec = optimize_shared_zf(real, eta, 2)
        assert prec.degenerate and not prec.A.any()

    def test_invalid_arguments(self):
        real = make_realization(1, K=4, L=1)
        with pytest.raises(ContractError):
            optimize_shared_zf(real, 0.0, 0)
        with pytest.raises(ContractError):
            optimize_shared_zf(real, 0.0, 4)
        with pytest.raises(ContractError):
            optimize_shared_zf(real, 0.0, 2, selection="random")

    def test_returned_precoders_satisfy_budgets(self):
        for seed in range(6):
            real = make_realization(seed, K=5, L=3)
            for delta in (0.5, 1.0):
                eta = eta_from_delta(real, delta)
                for N in (1, 2):
                    prec = optimize_shared_zf(real, eta, N)
                    slack = prec.row_powers() - (real.P - eta**2 / np.abs(real.h) ** 2)
                    assert np.max(slack) <= 1e-12 * real.P
                    assert np.linalg.norm(real.h @ prec.A) <= 1e-10 * np.linalg.norm(
                        real.h
                    ) * max(np.linalg.norm(prec.A), 1e-300)


class TestDelegationThroughBuilder:
    def test_build_precoder_dispatch(self):
        real = make_realization(8, K=4, L=2)
        eta = eta_from_delta(real, 0.5)
        a = build_precoder("proposed", real, eta)
        b = optimize_proposed(real, eta)
        assert np.array_equal(a.A, b.A)
        c = build_precoder("proposed_shared", real, eta, params={"N": 2})
        d = optimize_shared_zf(real, eta, 2)
        assert np.array_equal(c.A, d.A)

    def test_zero_forcing_neutrality_for_optimized_designs(self):
        for seed in range(10):
            real = make_realization(seed, K=4, L=2)
            eta = eta_from_delta(real, 0.7)
            base = approximation_error(real, zero_A(4), eta)
            for prec in (optimize_proposed(real, eta), optimize_shared_zf(real, eta, 2)):
                assert abs(approximation_error(real, prec.A, eta) - base) <= 1e-12
