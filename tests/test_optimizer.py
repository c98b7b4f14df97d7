import dataclasses
import itertools
import time

import numpy as np
import pytest

from otasec import optimizer
from otasec.encoding import NoisePrecoder, build_precoder, eta_from_delta, row_budgets
from otasec.errors import ContractError
from otasec.lp import LpProblem, solve_lp
from otasec.metrics import approximation_error, noncoop_security
from otasec.optimizer import (
    TIE_ATOL,
    _beta,
    _eavesdropper_terms,
    _subsets,
    _zf_matrices,
    optimize_designs,
)
from otasec.selftest import _grid_best_worst_objective

from conftest import (
    ILL_SCALED_DESIGNS,
    assert_within,
    first_rounds,
    make_realization,
    one_design,
    over_noise,
    synthetic_realization,
)


def zero_A(K):
    return np.zeros((K, 1), dtype=np.complex128)


def user_order(K, Z):
    """Subset ``Z``'s noise users, then ``Z``, as ``_subsets`` orders a candidate; ``Z`` may carry leading axes."""
    Z = np.asarray(Z, dtype=int)
    noise = [np.setdiff1d(np.arange(K), z) for z in Z.reshape(-1, Z.shape[-1])]
    return np.concatenate([np.reshape(noise, Z.shape[:-1] + (K - Z.shape[-1],)), Z], axis=-1)


def alpha_beta(real, eta, Z, w):
    """One subset's ``(alpha, beta)``: the stacked helpers at a subset axis of length one.

    ``alpha`` has shape ``(L,)`` and is +inf on dropped eavesdroppers; ``beta``
    has shape ``(L, K - N)`` with zero rows on them.
    """
    alpha, sum_sq, live = _eavesdropper_terms(real, eta)
    order = user_order(real.num_users, [Z])
    return alpha, _beta(real.G[:, order], real.h[order], np.asarray([w], dtype=float), sum_sq, live)[0]


def zf_matrix(real, Z, w, lam):
    """One subset's K x (K - N) zero-forcing matrix at noise powers ``lam``."""
    users = user_order(real.num_users, [Z])
    return _zf_matrices(users, real.h[users], np.asarray([w], dtype=float), np.asarray([lam], dtype=float))[0]


def objectives(real, A, eta):
    """Each eavesdropper's max-min objective ``(eta^2/K) / (1 - S_l)``, from ``noncoop_security``."""
    _, per = noncoop_security(real, A, eta)
    return (eta**2 / real.num_users) / (1.0 - per)


class TestAlphaBeta:
    def test_aligned_pair(self):
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, 1.0]], sigma_z_sq=2.0)
        alpha, beta = alpha_beta(real, 1.0, (1,), [1.0])
        assert np.isfinite(alpha).all()
        assert alpha[0] == pytest.approx(1.0, abs=1e-15)
        assert beta[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_cancelling_channel_dropped(self):
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, -1.0]], sigma_z_sq=2.0)
        alpha, beta = alpha_beta(real, 1.0, (1,), [1.0])
        assert np.isinf(alpha[0])
        assert not beta[0].any()

    def test_consistent_with_security_formula(self, rng):
        # alpha + beta . lam must reproduce the per-eavesdropper security of
        # the assembled precoder at arbitrary noise powers.
        for seed in range(5):
            real = make_realization(seed, K=3, L=2)
            eta = eta_from_delta(real, 0.6)
            zf = int(np.argmax(np.abs(real.h) ** 2))
            alpha, beta = alpha_beta(real, eta, (zf,), [1.0])
            budgets = row_budgets(real, eta)
            others = [i for i in range(3) if i != zf]
            for _ in range(5):
                lam = rng.uniform(0.0, 1.0, 2) * budgets[others] * 0.5
                A = zf_matrix(real, (zf,), [1.0], lam)
                assert alpha + beta @ lam == pytest.approx(objectives(real, A, eta), rel=1e-9)


class TestAssemble:
    def test_single_zf_structure(self):
        real = make_realization(1, K=4, L=2)
        eta = eta_from_delta(real, 0.5)
        lam = np.array([0.4, 0.1, 0.2])
        zf = 3
        A = zf_matrix(real, (zf,), [1.0], lam)
        expected = np.zeros((4, 3), dtype=complex)
        for col, i in enumerate([0, 1, 2]):
            expected[i, col] = np.sqrt(lam[col])
            expected[zf, col] = -np.sqrt(lam[col]) * real.h[i] / real.h[zf]
        assert np.allclose(A, expected, atol=1e-15)

    def test_equals_the_per_entry_loop(self, rng):
        # Reference: the loop that built one subset's matrix before it was vectorized.
        real = make_realization(4, K=6, L=2)
        for Z in ((2,), (0, 4), (1, 3, 5)):
            w = rng.dirichlet(np.ones(len(Z)))
            lam = rng.uniform(0.0, 0.2, 6 - len(Z))
            noise = [i for i in range(6) if i not in Z]
            roots = np.sqrt(lam)
            expected = np.zeros((6, len(noise)), dtype=complex)
            for col, i in enumerate(noise):
                expected[i, col] = roots[col]
                for k, d_k in zip(Z, w):
                    expected[k, col] = -roots[col] * (real.h[i] / real.h[k]) * d_k
            A = zf_matrix(real, Z, w, lam)
            assert A.shape == expected.shape and np.array_equal(A, expected)

    @staticmethod
    def put_along_axis_matrices(h, zf, noise, weights, lam):
        """The reference: ``_zf_matrices`` as two ``np.put_along_axis`` writes along the row axis."""
        roots = np.sqrt(lam)
        A = np.zeros(lam.shape[:-1] + (h.size, lam.shape[-1]), dtype=np.complex128)
        np.put_along_axis(A, noise[..., np.newaxis, :], roots[..., np.newaxis, :], axis=-2)
        ratio = h[noise][..., np.newaxis, :] / h[zf][..., np.newaxis]
        comp = -roots[..., np.newaxis, :] * ratio * weights[..., np.newaxis]
        np.put_along_axis(A, zf[..., np.newaxis], comp, axis=-2)
        return A

    @pytest.mark.parametrize("N, selection", [(1, "best_channel"), (2, "exhaustive"), (3, "exhaustive")])
    @pytest.mark.parametrize("axes", ["scalar", "eta", "snr", "eta and snr"])
    def test_equals_the_put_along_axis_writes(self, N, selection, axes):
        for seed in range(4):
            real = make_realization(seed, K=6, L=3)
            deltas = {"scalar": 0.6, "eta": np.array([0.0, 0.5, 1.0]), "snr": 0.6}.get(axes, np.array([[0.3], [1.0]]))
            if "snr" in axes:
                real, _ = over_noise(real, real.sigma_z_sq * np.array([10.0, 1.0, 0.1]))
            design = one_design(real, eta_from_delta(real, deltas), N, selection)
            zf = np.asarray(design.zf_users)
            users = user_order(real.num_users, zf)
            noise = users[..., : real.num_users - N]
            A = _zf_matrices(users, real.h[users], design.zf_weights, design.lam)
            assert A.shape == design.A.shape
            reference = self.put_along_axis_matrices(real.h, zf, noise, design.zf_weights, design.lam)
            assert A.tobytes() == reference.tobytes()

    def test_zero_lambda_is_zero_matrix(self):
        real = make_realization(2, K=4, L=1)
        assert not zf_matrix(real, (0,), [1.0], np.zeros(3)).any()

    def test_always_zero_forcing(self, rng):
        for seed in range(10):
            real = make_realization(seed, K=5, L=2)
            eta = eta_from_delta(real, 0.4)
            shared = one_design(real, eta, 2, "exhaustive")
            lam = rng.uniform(0.0, 0.1, 3)
            A = zf_matrix(real, shared.zf_users, shared.zf_weights, lam)
            assert np.linalg.norm(real.h @ A) <= 1e-12 * np.linalg.norm(
                real.h
            ) * np.linalg.norm(A)


class TestOptimizeProposed:
    def test_constant_objective_fills_budget(self):
        # The single eavesdropper cannot see the zero-forced direction, so
        # every allocation is optimal and the tie-break fills the budgets.
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, 1.0]], P=2.0, sigma_z_sq=1.0)
        prec = one_design(real, 1.0)
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
        prec = one_design(real, eta)
        assert np.allclose(prec.lam, 0.0)
        assert not prec.A.any()
        s_with, _ = noncoop_security(real, prec.A, eta)
        s_without, _ = noncoop_security(real, zero_A(3), eta)
        assert s_with == pytest.approx(s_without, abs=1e-15)

    def test_matches_grid_search(self):
        for seed in range(5):
            real = make_realization(seed, K=3, L=2)
            eta = eta_from_delta(real, 0.7)
            prec = one_design(real, eta)
            s_non, _ = noncoop_security(real, prec.A, eta)
            t_lp = eta**2 / (3 * (1.0 - s_non))
            t_grid = _grid_best_worst_objective(real, eta, resolution=200)
            assert t_lp == pytest.approx(t_grid, rel=0.01)

    def test_uses_best_channel_for_zero_forcing(self):
        real = make_realization(9, K=6, L=3)
        eta = eta_from_delta(real, 0.6)
        prec = one_design(real, eta)
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
            prec = one_design(real, eta)
            s_opt, _ = noncoop_security(real, prec.A, eta)
            s_none, _ = noncoop_security(real, zero_A(5), eta)
            assert s_opt >= s_none - 1e-12

    def test_worst_eavesdropper_constraint_tight(self):
        # The LP-reported optimum must be consistent with a direct
        # re-evaluation of the objective at the returned allocation.
        for seed in range(10):
            real = make_realization(seed, K=4, L=3)
            eta = eta_from_delta(real, 0.7)
            prec = one_design(real, eta)
            (zf,) = prec.zf_users
            alpha, beta = alpha_beta(real, eta, prec.zf_users, prec.zf_weights)
            live = np.isfinite(alpha)
            assert live.any()
            values = objectives(real, prec.A, eta)[live]
            t_star = values.min()
            budgets = row_budgets(real, eta)
            nonzf = [i for i in range(4) if i != zf]
            own_bind = np.abs(prec.lam - budgets[nonzf]) <= 1e-6 * (1.0 + budgets[nonzf])
            zf_load = float(np.sum(prec.lam * np.abs(real.h[nonzf] / real.h[zf]) ** 2))
            zf_bind = abs(zf_load - budgets[zf]) <= 1e-6 * (1.0 + budgets[zf])
            # Every objective is nondecreasing in lambda, so at the optimum either the
            # zero-forcing budget binds or some worst eavesdropper gains nothing from
            # the columns whose own budget is slack.
            tight = np.abs(values - t_star) <= 1e-6 * (1.0 + abs(t_star))
            blocked = np.all(beta[live][tight][:, ~own_bind] <= 0.0, axis=1)
            assert zf_bind or blocked.any()


def achieved_objective(real, eta):
    prec = one_design(real, eta)
    s_non, _ = noncoop_security(real, prec.A, eta)
    return eta**2 / (real.num_users * (1.0 - s_non))


class TestSharedZeroForcing:
    def test_weights_proportional_to_residual_power(self):
        real = make_realization(4, K=5, L=2)
        eta = eta_from_delta(real, 0.5)
        prec = one_design(real, eta, 2, "exhaustive")
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
            shared = one_design(real, eta, 1, "exhaustive")
            proposed = one_design(real, eta)
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
        prec = one_design(real, eta, 3, "best_channel")
        Z = prec.zf_users
        i = [k for k in range(4) if k not in Z][0]
        budgets = row_budgets(real, eta)
        w = prec.zf_weights
        cap = budgets[i]
        for k, d_k in zip(Z, w):
            coeff = abs(d_k * real.h[i] / real.h[k]) ** 2
            if coeff > 0:
                cap = min(cap, budgets[k] / coeff)
        # The objective is nondecreasing in the single power, so the cap wins.
        assert prec.lam[0] == pytest.approx(cap, rel=1e-8)
        alpha, beta = alpha_beta(real, eta, Z, w)
        live = np.isfinite(alpha)
        assert np.all(beta[live] >= 0.0)
        below = objectives(real, zf_matrix(real, Z, w, prec.lam / 2), eta)
        assert np.all(objectives(real, prec.A, eta)[live] >= below[live] * (1.0 - 1e-9))

    @pytest.mark.parametrize("seed", [8, 14])
    def test_zero_eta_takes_the_tie_break(self, seed):
        # At eta = 0 the allocation LP's alpha is about sigma_z^2, so beta/alpha
        # reached 1e11: seed 14 spun to the iteration limit, seed 8 read unbounded.
        real = make_realization(seed, K=10, L=15, snr_db=20.0)
        alpha, _, live = _eavesdropper_terms(real, 0.0)
        assert not live.any() and not np.isfinite(alpha).any()
        prec = one_design(real, 0.0, 3, "exhaustive")
        assert not prec.degenerate
        assert np.max(np.abs(real.h @ prec.A)) <= 1e-12
        row_power = np.sum(np.abs(prec.A) ** 2, axis=1)
        assert np.all(row_power <= row_budgets(real, 0.0) * (1.0 + 1e-12))
        assert row_power.max() > 0.0

    def test_tied_candidates_take_lowest_index_set(self):
        # Both eavesdroppers see cancelling channels, so every subset ties.
        real = synthetic_realization(
            h=[1.0, 1.0, 1.0],
            G=[[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]],
            P=2.0,
            sigma_z_sq=1.0,
        )
        prec = one_design(real, 1.0, 1, "exhaustive")
        assert prec.zf_users == (0,)
        prec2 = one_design(real, 1.0, 2, "exhaustive")
        assert prec2.zf_users == (0, 1)
        # At delta = 1 one user's budget is 0, and subsets that leave the same noise directions
        # tie in exact arithmetic; rounding used to pick among them.
        for L, fading_mode, snr_db, seed, N in (
            (15, "complex", 0.0, 1, 1),
            (15, "complex", 0.0, 1, 2),
            (1, "real", 20.0, 9, 1),
            (1, "complex", 0.0, 6, 2),
        ):
            real = make_realization(seed, K=3, L=L, snr_db=snr_db, fading_mode=fading_mode)
            assert one_design(real, eta_from_delta(real, 1.0), N, "exhaustive").zf_users == tuple(range(N))

    def test_all_candidates_degenerate_falls_back_to_zero(self):
        real = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[1.0, 0.5, 0.2]], P=1.0)
        eta = eta_from_delta(real, 1.0)  # all residual budgets are exactly zero
        for N, kind in ((1, "proposed"), (2, "proposed_shared")):
            for prec in (
                one_design(real, eta, N, "exhaustive"),
                one_design(real, eta, N, "best_channel"),
            ):
                assert prec.degenerate and not prec.A.any()
                assert prec.A.shape == (3, 3 - N)
                assert prec.zf_users == tuple(range(N))  # the first candidate
                assert prec.kind == kind
                assert np.array_equal(prec.lam, np.zeros(3 - N)) and not np.signbit(prec.lam).any()
                assert prec.zf_weights.tolist() == [1.0 / N] * N  # [0.5, 0.5] at N = 2
        prec = one_design(real, eta)
        assert prec.degenerate and prec.zf_users == (0,) and prec.kind == "proposed"

    def test_proposed_is_the_best_channel_case_of_shared(self):
        for seed, K, L, delta, fading_mode in itertools.product(
            range(3), (3, 6), (1, 4), (0.0, 0.4, 1.0), ("complex", "real")
        ):
            real = make_realization(seed, K=K, L=L, fading_mode=fading_mode)
            eta = eta_from_delta(real, delta)
            a = one_design(real, eta)
            b = one_design(real, eta, 1, "best_channel")
            assert np.array_equal(a.A, b.A) and np.array_equal(a.lam, b.lam)
            assert np.array_equal(a.zf_weights, b.zf_weights)
            assert (a.zf_users, a.kind, a.degenerate) == (b.zf_users, b.kind, b.degenerate)

    def test_lp_failure_names_the_lp(self, monkeypatch):
        from otasec import optimizer
        from otasec.lp import LpSolution

        def unbounded(*problems):
            return [LpSolution(np.full(p.objective.shape[:-1], "unbounded"), np.zeros(p.objective.shape),
                               np.zeros(p.objective.shape[:-1])) for p in problems]

        monkeypatch.setattr(optimizer, "solve_lp", unbounded)
        real = make_realization(2, K=4, L=2)
        with pytest.raises(RuntimeError, match="noise allocation LP reported unbounded"):
            one_design(real, eta_from_delta(real, 0.5))
        with pytest.raises(RuntimeError, match="tie-break LP reported unbounded"):
            one_design(real, 0.0)

    @pytest.mark.parametrize("N", [1, 2])
    def test_zero_eavesdropper_row_is_dropped(self, N):
        # An all-zero row of G learns nothing: the design is bitwise the one made without that eavesdropper.
        for seed in range(4):
            real = make_realization(seed, K=5, L=4)
            eta = eta_from_delta(real, 0.6)
            for l in range(4):
                kept = np.arange(4) != l
                without = dataclasses.replace(real, G=real.G[kept], eav_positions=real.eav_positions[kept])
                zeroed = dataclasses.replace(real, G=np.where(kept[:, np.newaxis], real.G, 0.0))
                a, b = one_design(zeroed, eta, N, "exhaustive"), one_design(without, eta, N, "exhaustive")
                assert (a.kind, a.eta, a.zf_users, a.degenerate) == (b.kind, b.eta, b.zf_users, b.degenerate)
                for field in ("A", "lam", "zf_weights"):
                    assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_invalid_arguments(self):
        real = make_realization(1, K=4, L=1)
        with pytest.raises(ContractError):
            one_design(real, 0.0, 0, "exhaustive")
        with pytest.raises(ContractError):
            one_design(real, 0.0, 4, "exhaustive")
        with pytest.raises(ContractError):
            one_design(real, 0.0, 2, "random")

    @pytest.mark.parametrize("eta", [-1e-5, np.nan, np.inf])
    @pytest.mark.parametrize("selection", ["exhaustive", "best_channel"])
    def test_eta_must_be_finite_and_nonnegative(self, eta, selection):
        # -1e-5 squares to a feasible eta^2, so only the check stops it.
        real = make_realization(1, K=5, L=2)
        with pytest.raises(ContractError, match="eta must be finite and nonnegative"):
            one_design(real, eta, 1, selection)
        with pytest.raises(ContractError, match="eta must be finite and nonnegative"):
            one_design(real, np.array([0.0, eta]), 2, selection)

    def test_returned_precoders_satisfy_budgets(self):
        for seed in range(6):
            real = make_realization(seed, K=5, L=3)
            for delta in (0.5, 1.0):
                eta = eta_from_delta(real, delta)
                for N in (1, 2):
                    prec = one_design(real, eta, N, "exhaustive")
                    slack = prec.row_powers() - (real.P - eta**2 / np.abs(real.h) ** 2)
                    assert np.max(slack) <= 1e-12 * real.P
                    assert np.linalg.norm(real.h @ prec.A) <= 1e-10 * np.linalg.norm(
                        real.h
                    ) * max(np.linalg.norm(prec.A), 1e-300)


class TestWellScaledAllocation:
    """t is scaled by an upper bound on the optimum, so tiny eta or high SNR cannot blow up beta / scale."""

    @pytest.mark.parametrize("K, L, snr_db, delta, fading, seed, N", ILL_SCALED_DESIGNS)
    def test_returns_fast_within_a_pivot_budget(self, monkeypatch, K, L, snr_db, delta, fading, seed, N):
        from otasec import optimizer

        solutions, solve = [], optimizer.solve_lp
        monkeypatch.setattr(optimizer, "solve_lp", lambda *problems: solutions.extend(solve(*problems)) or solutions)
        real = make_realization(seed, K=K, L=L, snr_db=snr_db, fading_mode=fading)
        eta = eta_from_delta(real, delta)
        start = time.perf_counter()
        prec = one_design(real, eta, N, "exhaustive")
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # about 0.01 s; the old scale ran 50,000 pivots in 2.5-3 s, or failed
        (solution,) = solutions
        assert np.all(solution.status == "optimal") and solution.pivots.max() <= 50
        assert not prec.degenerate and prec.lam.any()
        assert np.max(prec.row_powers() - row_budgets(real, eta)) <= 1e-12 * real.P
        h_norm = np.linalg.norm(real.h) * np.linalg.norm(prec.A)
        assert np.linalg.norm(real.h @ prec.A) <= 1e-9 * h_norm
        # The worst eavesdropper gains from the design's noise, as the LP promises.
        assert noncoop_security(real, prec.A, eta)[0] > noncoop_security(real, zero_A(K), eta)[0]


def looped_design_search(real, eta, N, selection):
    """The design search one subset at a time.

    Per subset: ``alpha_beta``, one 2-D LP (the max-min allocation, or the
    tie-break over lambda alone when no live row depends on lambda),
    ``zf_matrix`` and ``noncoop_security``; the first subset within
    ``TIE_ATOL`` of the best wins.  None when every subset is out of residual
    power.
    """
    K = real.num_users
    budgets = row_budgets(real, eta)
    if selection == "exhaustive":
        candidates = list(itertools.combinations(range(K), N))
    else:
        order = np.argsort(-np.abs(real.h) ** 2, kind="stable")
        candidates = [tuple(sorted(int(i) for i in order[:N]))]
    scored = []
    for Z in candidates:
        zf, noise = list(Z), [i for i in range(K) if i not in Z]
        r = budgets[zf]
        if r.sum() <= 0.0:
            continue
        w = r / r.sum()
        alpha, beta = alpha_beta(real, eta, Z, w)
        live = np.isfinite(alpha)
        load = np.abs(w[:, None] * real.h[noise] / real.h[zf, None]) ** 2
        caps = budgets[noise]  # the noise users' budgets bound lambda; the rows are the zf users'
        # In cap units, lambda = caps * x with 0 <= x <= 1, and each funded zf row and its rhs over its budget.
        funded = budgets[zf] > 0.0
        zf_rows = load * caps
        zf_rows[funded] /= budgets[zf][funded, None]
        if np.any(beta[live] > 0.0):
            gain = beta[live] * caps
            scale = np.min(alpha[live] + gain.sum(axis=-1))
            rows = np.vstack(
                [
                    np.column_stack([np.ones(live.sum()), -gain / scale]),
                    np.column_stack([np.zeros(len(load)), zf_rows]),
                ]
            )
            c = np.zeros(1 + len(noise))
            c[0] = 1.0
            rhs = np.concatenate([alpha[live] / scale, funded])
            (sol,) = solve_lp(LpProblem(c, rows, rhs, np.concatenate([[np.inf], caps > 0.0])))
            x = sol.x[1:]
        else:
            c = caps / caps.max() if caps.max() > 0.0 else np.zeros(len(noise))
            (sol,) = solve_lp(LpProblem(c, zf_rows, funded.astype(float), (caps > 0.0).astype(float)))
            x = sol.x
        assert sol.status == "optimal"
        kind = "proposed" if N == 1 else "proposed_shared"
        lam = np.maximum(x, 0.0) * caps
        prec = NoisePrecoder(zf_matrix(real, Z, w, lam), kind, eta, zf_users=Z, lam=lam, zf_weights=w)
        scored.append((noncoop_security(real, prec.A, eta)[0] if len(candidates) > 1 else 0.0, prec))
    top = max((value for value, _ in scored), default=None)
    return next((prec for value, prec in scored if value >= top - TIE_ATOL), None)


class TestDesignSearch:
    """The stacked search over subsets must equal the looped one bitwise."""

    @staticmethod
    def assert_equals_looped(real, eta, N, selection):
        design = one_design(real, eta, N, selection)
        reference = looped_design_search(real, eta, N, selection)
        if reference is None:
            assert design.degenerate and not design.A.any()
            return design
        assert design.A.shape == reference.A.shape and design.A.tobytes() == reference.A.tobytes()
        assert design.lam.tobytes() == reference.lam.tobytes()
        assert design.zf_weights.tobytes() == reference.zf_weights.tobytes()
        assert (design.zf_users, design.kind, design.degenerate) == (
            reference.zf_users,
            reference.kind,
            reference.degenerate,
        )
        return design

    def test_sampled_realizations(self):
        skipped = 0
        for seed, K, L, fading_mode, delta in itertools.product(
            range(2), (4, 6), (1, 3), ("complex", "real"), (0.0, 0.5, 1.0)
        ):
            real = make_realization(seed, K=K, L=L, fading_mode=fading_mode)
            eta = eta_from_delta(real, delta)  # delta = 0: every LP is a tie-break
            skipped += np.count_nonzero(row_budgets(real, eta) <= 0.0)  # zero-budget subsets
            for N, selection in itertools.product(range(1, 4), ("exhaustive", "best_channel")):
                self.assert_equals_looped(real, eta, N, selection)
        assert skipped > 0

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("K", range(3, 9))
    def test_subsets_are_each_candidates_user_order(self, K, R):
        rng = np.random.default_rng(10 * K + R)
        h = rng.integers(1, 4, (R, K)) * rng.choice([-1.0, 1.0], (R, K)) + 0j  # |h| ties, each |h|^2 exact
        for N, selection in itertools.product(range(1, K), ("exhaustive", "best_channel")):
            users = _subsets(h, N, selection)
            combinations = np.array(list(itertools.combinations(range(K), N)))
            assert users.shape == (R, len(combinations) if selection == "exhaustive" else 1, K)
            assert (np.sort(users, axis=-1) == np.arange(K)).all()  # each row is a permutation
            assert (np.diff(users[..., : K - N]) > 0).all() and (np.diff(users[..., K - N :]) > 0).all()
            if selection == "exhaustive":
                assert (users[..., K - N :] == combinations).all()
            else:  # the N strongest channels, the lower index first among equal ones
                strongest = [sorted(sorted(range(K), key=lambda k: -abs(row[k]))[:N]) for row in h]
                assert users[:, 0, K - N :].tolist() == strongest

    def test_some_subsets_tie_break_and_others_do_not(self):
        # Z = (0, 1) leaves the live eavesdropper a zero residual, so only its
        # LP is a tie-break; Z = (0, 2) and (1, 2) allocate max-min.
        real = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[0.0, 1.0, 0.5]], P=2.0)
        alpha, beta = alpha_beta(real, 0.5, (0, 1), [0.5, 0.5])
        assert np.isfinite(alpha).all() and not beta.any()
        for N, selection in itertools.product((1, 2), ("exhaustive", "best_channel")):
            self.assert_equals_looped(real, 0.5, N, selection)

    def test_every_eavesdropper_dropped_at_positive_eta(self):
        # The eavesdropper's channel sum cancels to 1e-8, so it is dropped at every eta and each
        # subset scores exactly 1: every LP is a tie-break, and the first subset wins.
        real = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[1.0, -1.0 + 1e-8, 0.0]])
        eta = eta_from_delta(real, 0.5)
        assert eta > 0.0 and not _eavesdropper_terms(real, eta)[2].any()
        for N in (1, 2):
            assert self.assert_equals_looped(real, eta, N, "exhaustive").zf_users == tuple(range(N))

    def test_subsets_tied_but_for_rounding_take_the_first(self):
        # User 0 has no budget at delta = 1, so subsets (1,) and (2,) leave the same noise
        # direction; their scores differ in the last bits only.
        real = make_realization(2, K=3, L=5, snr_db=20.0)
        eta = eta_from_delta(real, 1.0)
        assert row_budgets(real, eta)[0] == 0.0
        assert self.assert_equals_looped(real, eta, 1, "exhaustive").zf_users == (1,)

    def test_every_subset_out_of_power(self):
        real = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[1.0, 0.5, 0.2]], P=1.0)
        eta = eta_from_delta(real, 1.0)
        for N in (1, 2):
            assert self.assert_equals_looped(real, eta, N, "exhaustive").degenerate


class TestNoiseOverSnr:
    """A design over an SNR axis equals, at each SNR, the design at that SNR's scalar noise: bitwise with every SNR
    solved cold; with the other SNRs riding the reference SNR's basis, bitwise at the reference and within 1e-12
    relative elsewhere."""

    @pytest.fixture(autouse=True, params=[True, False], ids=["ranging", "cold"])
    def ranging(self, request, monkeypatch):
        if not request.param:
            monkeypatch.setattr(optimizer, "_snrs", lambda eta_shape, noise_shape: 1)
        type(self).exact = not request.param

    @classmethod
    def assert_equals_per_snr(cls, real, eta, N, selection, factors=(100.0, 1.0, 0.01)):
        noisy, per_snr = over_noise(real, real.sigma_z_sq * np.asarray(factors))
        design = one_design(noisy, eta, N, selection)
        assert design.A.shape == (len(factors), real.num_users, real.num_users - N)
        for s, one in enumerate(per_snr):
            ref = one_design(one, eta, N, selection)
            if cls.exact or s == len(factors) // 2:
                assert design.A[s].tobytes() == ref.A.tobytes()
                assert design.lam[s].tobytes() == ref.lam.tobytes()
            else:
                assert_within(design.A[s].ravel(), ref.A.ravel())
                assert_within(design.lam[s], ref.lam)
            assert design.zf_weights[s].tobytes() == ref.zf_weights.tobytes()
            assert tuple(design.zf_users[s]) == ref.zf_users
            assert (design.kind, design.degenerate) == (ref.kind, ref.degenerate)
        return design

    def test_sampled_realizations(self):
        skipped = 0
        for seed, K, L, fading_mode, delta in itertools.product(
            range(2), (4, 6), (1, 3), ("complex", "real"), (0.0, 0.5, 1.0)
        ):
            real = make_realization(seed, K=K, L=L, fading_mode=fading_mode)
            eta = eta_from_delta(real, delta)  # delta = 0: every LP is a tie-break
            skipped += np.count_nonzero(row_budgets(real, eta) <= 0.0)  # zero-budget subsets
            for N, selection in itertools.product(range(1, 4), ("exhaustive", "best_channel")):
                self.assert_equals_per_snr(real, eta, N, selection)
        assert skipped > 0

    def test_selection_can_change_with_the_snr(self):
        changed = 0
        for seed in range(8):
            real = make_realization(seed, K=5, L=3)
            eta = eta_from_delta(real, 0.7)
            design = self.assert_equals_per_snr(real, eta, 1, "exhaustive", (1e4, 1.0, 1e-4))
            changed += len(set(map(tuple, design.zf_users))) > 1
        assert changed > 0

    def test_tie_breaks_and_the_degenerate_fallback(self):
        real = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[0.0, 1.0, 0.5]], P=2.0)
        for N, selection in itertools.product((1, 2), ("exhaustive", "best_channel")):
            self.assert_equals_per_snr(real, 0.5, N, selection)
        real = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[1.0, 0.5, 0.2]], P=1.0)
        for N in (1, 2):
            assert self.assert_equals_per_snr(real, eta_from_delta(real, 1.0), N, "exhaustive").degenerate

    def test_proposed_and_the_builder_carry_the_snr_axis(self):
        real = make_realization(3, K=6, L=4)
        noisy, per_snr = over_noise(real, real.sigma_z_sq * np.array([10.0, 0.1]))
        eta = eta_from_delta(real, 0.8)
        for design in (one_design(noisy, eta), build_precoder("proposed", noisy, eta)):
            for s, one in enumerate(per_snr):
                assert design.A[s].tobytes() == one_design(one, eta).A.tobytes()


class TestEtaAxis:
    """A design over an eta axis equals, at each eta, the design at that scalar eta, bitwise."""

    DELTAS = np.array([0.0, 0.5, 1.0])

    @staticmethod
    def assert_equals_per_eta(real, etas, N, selection, factors=None):
        snr = ()
        if factors is not None:
            real, _ = over_noise(real, real.sigma_z_sq * np.asarray(factors))
            snr, etas = (len(factors),), etas[:, np.newaxis]
        design = one_design(real, etas, N, selection)
        assert design.A.shape == (len(etas),) + snr + (real.num_users, real.num_users - N)
        assert design.degenerate.shape == etas.shape
        for d, eta in enumerate(etas.ravel()):
            ref = one_design(real, float(eta), N, selection)
            assert design.A[d].tobytes() == ref.A.tobytes()
            assert design.lam[d].tobytes() == ref.lam.tobytes()
            assert design.zf_weights[d].tobytes() == ref.zf_weights.tobytes()
            assert np.array_equal(design.zf_users[d], ref.zf_users)
            assert design.degenerate.ravel()[d] == ref.degenerate and type(ref.degenerate) is bool
            assert design.kind == ref.kind
        return design

    @pytest.mark.parametrize("factors", [None, (100.0, 1.0, 0.01)], ids=["scalar_noise", "snr_axis"])
    def test_sampled_realizations(self, factors):
        skipped = 0
        for seed, K, L, fading_mode in itertools.product(range(2), (4, 6), (1, 3), ("complex", "real")):
            real = make_realization(seed, K=K, L=L, fading_mode=fading_mode)
            etas = eta_from_delta(real, self.DELTAS)  # delta = 0: every LP is a tie-break
            skipped += np.count_nonzero(row_budgets(real, etas) <= 0.0)  # zero-budget subsets
            for N, selection in itertools.product(range(1, 4), ("exhaustive", "best_channel")):
                self.assert_equals_per_eta(real, etas, N, selection, factors)
        assert skipped > 0

    @pytest.mark.parametrize("factors", [None, (100.0, 1.0, 0.01)], ids=["scalar_noise", "snr_axis"])
    def test_tie_breaks_and_the_degenerate_fallback(self, factors):
        real = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[0.0, 1.0, 0.5]], P=2.0)
        for N, selection in itertools.product((1, 2), ("exhaustive", "best_channel")):
            self.assert_equals_per_eta(real, np.array([0.0, 0.5, 1.0]), N, selection, factors)
        # Every budget is zero at delta = 1 only: one eta falls back, the others design.
        real = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[1.0, 0.5, 0.2]], P=1.0)
        for N in (1, 2):
            design = self.assert_equals_per_eta(real, eta_from_delta(real, self.DELTAS), N, "exhaustive", factors)
            assert design.degenerate.ravel().tolist() == [False, False, True]
            assert not design.A[2].any() and not np.signbit(design.A[2].view(float)).any()

    def test_a_subset_out_of_power_at_one_eta_cannot_win_there(self):
        # User 0 has the weakest channel, so its budget runs out first as eta grows.
        real = synthetic_realization(h=[0.5, 1.0, 1.0, 1.0], G=[[1.0, 0.2, 0.3, 0.4], [0.3, 1.0, 0.1, 0.6]], P=4.0)
        etas = np.array([0.2, 0.5, 1.0])  # the last leaves user 0 exactly 0 power
        assert row_budgets(real, etas)[:, 0].tolist()[-1] == 0.0
        design = self.assert_equals_per_eta(real, etas, 1, "exhaustive")
        assert design.zf_users[-1] != [0] and not design.degenerate.any()

    def test_proposed_and_the_builder_take_deltas_against_the_snr_axis(self):
        real = make_realization(3, K=6, L=4)
        noisy, per_snr = over_noise(real, real.sigma_z_sq * np.array([10.0, 0.1]))
        etas = eta_from_delta(real, np.array([[0.2], [0.8]]))
        design = one_design(noisy, etas)
        assert design.A.shape == (2, 2, 6, 5) and design.kind == "proposed"
        for d, s in np.ndindex(2, 2):
            ref = one_design(per_snr[s], float(etas[d, 0]))
            assert design.A[d, s].tobytes() == ref.A.tobytes()

    def test_noise_dim_and_row_powers_read_the_last_axis(self):
        real = make_realization(3, K=6, L=4)
        noisy, per_snr = over_noise(real, real.sigma_z_sq * np.array([10.0, 1.0, 0.1]))
        etas = eta_from_delta(real, np.array([0.2, 0.5, 0.8, 1.0]))
        for design, refs in (
            (one_design(noisy, float(etas[1])), [one_design(one, float(etas[1])) for one in per_snr]),
            (one_design(real, etas), [one_design(real, float(eta)) for eta in etas]),
            (one_design(noisy, etas[:, None], 2, "exhaustive"), None),
        ):
            assert design.noise_dim == design.A.shape[-1] == real.num_users - (1 if refs else 2)
            assert design.row_powers().shape == design.A.shape[:-1]
            for ref, powers in zip(refs or (), design.row_powers()):
                assert ref.noise_dim == design.noise_dim
                assert powers.tobytes() == ref.row_powers().tobytes()

    def test_solves_at_most_one_lp_stack_per_side_of_eta_zero(self, monkeypatch):
        from otasec import optimizer

        calls = []

        def counting(*problems):  # the LPs of a call
            calls.append(sum(p.objective[..., 0].size for p in problems))
            return solve_lp(*problems)

        monkeypatch.setattr(optimizer, "solve_lp", counting)
        real = make_realization(5, K=5, L=3)
        # A dropped eavesdropper keeps a zero row, so eta = 0 shares the stack of the other etas,
        # and a subset out of power (at delta = 1, N = 1) keeps its LP: C subsets give C LPs per eta.
        assert np.count_nonzero(row_budgets(real, eta_from_delta(real, 1.0)) == 0.0) == 1
        for deltas, N, C in (
            ((0.3, 0.6, 1.0), 2, 10),
            ((0.0, 0.6, 0.0, 1.0), 2, 10),
            ((0.0,), 2, 10),
            ((0.3, 1.0), 1, 5),
            ((1.0, 0.0, 1.0), 1, 5),
        ):
            calls.clear()
            one_design(real, eta_from_delta(real, np.array(deltas)), N, "exhaustive")
            assert calls == [C * len(deltas)]


class TestDesignBatch:
    """Designs made together share one padded LP stack and equal the designs made alone, bitwise."""

    @staticmethod
    def requests():
        # Realizations of different K and L, so the LPs differ in rows and columns; eta = 0,
        # eta arrays, per-SNR noise and a realization with every subset out of power at delta = 1.
        reals = [make_realization(seed, K=K, L=L) for seed, K, L in ((0, 4, 1), (1, 6, 3), (2, 5, 15))]
        noisy, _ = over_noise(reals[1], reals[1].sigma_z_sq * np.array([10.0, 0.1]))
        flat = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[1.0, 0.5, 0.2]], P=1.0)
        out = []
        for real in reals + [noisy, flat]:
            deltas = np.array([[0.0], [0.5], [1.0]]) if real is noisy else np.array([0.0, 1.0])
            etas = eta_from_delta(real, deltas)
            for eta, N, selection in itertools.product(
                (float(etas.flat[1]), 0.0, etas), (1, 2), ("exhaustive", "best_channel")
            ):
                out.append((real, eta, N, selection))
        return out

    def test_each_design_equals_the_design_made_alone(self, monkeypatch):
        from otasec import optimizer

        requests, calls = self.requests(), []

        def counting(*problems):
            calls.append(problems)
            return solve_lp(*problems)

        monkeypatch.setattr(optimizer, "solve_lp", counting)
        designs = optimize_designs(requests)
        stacks = {(real.num_users, N, selection, np.shape(eta), np.shape(real.sigma_z_sq))
                  for real, eta, N, selection in requests}
        # One problem per stack, then the members not accepted, of every stack, in one more call.
        assert len(calls) == 2 and len(calls[0]) == len(stacks) < len(requests)
        monkeypatch.undo()
        degenerate = 0
        for request, design in zip(requests, designs):
            ref = one_design(*request)
            for field in ("A", "lam", "zf_weights"):
                assert getattr(design, field).tobytes() == getattr(ref, field).tobytes()
            assert np.array_equal(design.zf_users, ref.zf_users) and design.kind == ref.kind
            assert np.array_equal(design.degenerate, ref.degenerate)
            degenerate += np.count_nonzero(ref.degenerate)
        assert degenerate > 0
        assert optimize_designs([]) == []

    def test_a_failing_lp_names_its_own_design(self, monkeypatch):
        from otasec import optimizer
        from otasec.lp import LpSolution

        def unbounded(*problems):  # fields are arrays over each problem's leading axes, as solve_lp's are
            return [LpSolution(np.full(p.objective.shape[:-1], "unbounded"), np.zeros(p.objective.shape),
                               np.zeros(p.objective.shape[:-1])) for p in problems]

        monkeypatch.setattr(optimizer, "solve_lp", unbounded)
        real = make_realization(2, K=4, L=2)
        allocation = (real, eta_from_delta(real, 0.5), 2, "exhaustive")
        tie_break = (real, 0.0, 1, "exhaustive")
        with pytest.raises(RuntimeError, match="noise allocation LP reported unbounded"):
            optimize_designs([allocation, tie_break])
        with pytest.raises(RuntimeError, match="tie-break LP reported unbounded"):
            optimize_designs([tie_break, allocation])


class TestRequestAxis:
    """Requests that share K, N, the selection and the shapes of eta and the noise are designed as one
    stack over a request axis; each design is bitwise the one made alone."""

    @staticmethod
    def requests():
        # K = 6 throughout.  L = 2 and 5 share stacks through zero rows of G; P differs between
        # realizations, and so do the best-channel subsets; a flat channel leaves every subset out of
        # power at delta = 1.  Scalar, (D, 1) and zero eta, at one and at two SNRs.
        rng = np.random.default_rng(3)
        flat = synthetic_realization(h=np.ones(6), G=rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6)))
        reals = [make_realization(seed, K=6, L=L) for seed, L in ((0, 2), (1, 5), (2, 2), (3, 5))]
        reals[1] = dataclasses.replace(reals[1], P=2.5 * reals[1].P)
        reals[2] = dataclasses.replace(reals[2], P=0.4 * reals[2].P)
        out = []
        for snrs, real in itertools.product((1, 2), reals + [flat]):
            if snrs == 2:
                real, _ = over_noise(real, real.sigma_z_sq * np.array([10.0, 0.1]))
            for delta, (N, selection) in itertools.product(
                (0.6, 1.0, np.array([[0.3], [1.0]]), 0.0), ((1, "best_channel"), (1, "exhaustive"), (2, "exhaustive"))
            ):
                out.append((real, eta_from_delta(real, delta) if np.any(delta) else 0.0, N, selection))
        return out

    def test_stacked_designs_equal_the_designs_made_alone(self, monkeypatch):
        from otasec import optimizer

        requests, stacks, design = self.requests(), [], optimizer._design
        monkeypatch.setattr(optimizer, "_design", lambda some: stacks.append(some) or design(some))
        designs = optimize_designs(requests)
        monkeypatch.undo()
        # 3 rules x 2 eta shapes x 2 noise shapes; every stack mixes L = 2 and 5.
        assert len(stacks) == 12 and all({len(real.G) for real, *_ in some} == {2, 5} for some in stacks)
        degenerate = 0
        for request, made in zip(requests, designs):
            ref = one_design(*request)
            for field in ("A", "lam", "zf_weights"):
                assert getattr(made, field).shape == getattr(ref, field).shape
                assert getattr(made, field).tobytes() == getattr(ref, field).tobytes()
            assert made.zf_users == ref.zf_users and made.kind == ref.kind and made.eta is request[1]
            assert type(made.degenerate) is type(ref.degenerate)
            assert np.array_equal(made.degenerate, ref.degenerate)
            degenerate += np.count_nonzero(ref.degenerate)
        assert degenerate > 0
        picked = {made.zf_users for (real, eta, *rule), made in zip(requests, designs)
                  if rule == [1, "best_channel"] and np.ndim(eta) == np.ndim(real.sigma_z_sq) == 0}
        assert len(picked) > 1  # the best-channel subsets differ within a stack

    def test_a_benchmark_shaped_group_makes_three_stacks_and_two_lp_calls(self, monkeypatch):
        from otasec import experiments

        stacks, calls, design, solve = [], [], optimizer._design, optimizer.solve_lp
        monkeypatch.setattr(optimizer, "_design", lambda some: stacks.append(len(some)) or design(some))
        monkeypatch.setattr(optimizer, "solve_lp", lambda *problems: calls.append(problems) or solve(*problems))
        # Benchmark shared_zf's shape: two trials, L = 3 and 7, two SNRs; proposed, N = 1 and N = 2.
        preset = experiments.default_preset(
            "shared_zf", base_seed=1, num_realizations=2, sweep_values=(0.0, 20.0), l_values=(3, 7)
        )
        experiments.collect_trials(preset)
        assert stacks == [4, 4, 4]
        ranging, cold = calls  # the 20 dB LPs with the 0 dB rhs riding along, then the 0 dB LPs not accepted
        assert len(ranging) == 3 and sum(p.objective[..., 0].size for p in ranging) == 224
        rejected = sum(np.count_nonzero(~solution.accepted) for solution in solve(*ranging))
        assert 0 < sum(p.objective[..., 0].size for p in cold) == rejected < 224

    def test_the_first_failing_request_raises_what_it_raises_alone(self):
        real = make_realization(4, K=5, L=3)
        good = (real, eta_from_delta(real, 0.5), 1, "best_channel")
        infeasible = (real, 2.0 * eta_from_delta(real, 1.0), 2, "exhaustive")
        negative = (real, -1e-5, 1, "best_channel")  # in the stack of the first request
        for requests, failing in (([good, infeasible, negative], infeasible), ([good, negative, infeasible], negative)):
            with pytest.raises(Exception) as alone:
                one_design(*failing)
            with pytest.raises(type(alone.value)) as stacked:
                optimize_designs(requests)
            assert str(stacked.value) == str(alone.value)


class TestDelegationThroughBuilder:
    def test_build_precoder_dispatch(self):
        real = make_realization(8, K=4, L=2)
        eta = eta_from_delta(real, 0.5)
        a = build_precoder("proposed", real, eta)
        b = one_design(real, eta)
        assert np.array_equal(a.A, b.A)
        c = build_precoder("proposed_shared", real, eta, params={"N": 2})
        d = one_design(real, eta, 2, "exhaustive")
        assert np.array_equal(c.A, d.A)

    def test_zero_forcing_neutrality_for_optimized_designs(self):
        for seed in range(10):
            real = make_realization(seed, K=4, L=2)
            eta = eta_from_delta(real, 0.7)
            base = approximation_error(real, zero_A(4), eta)
            for prec in (one_design(real, eta), one_design(real, eta, 2, "exhaustive")):
                assert abs(approximation_error(real, prec.A, eta) - base) <= 1e-12


class TestSnrRanging:
    """Each (eta, request, subset) family solves its reference SNR's LP, the other SNRs riding its basis.  Every LP's
    ``x`` is bitwise the cold solve's at the reference SNR and where a member falls back, and within 1e-12
    relative of it where a member is accepted."""

    @staticmethod
    def designs_x(monkeypatch, preset, ranging):
        """The ``x`` of every design's LPs over the preset's trials, one trial at a time."""
        from otasec import experiments

        xs, along = [], optimizer._solve_along_snr

        def recording(*args):
            x = yield from along(*args)
            xs.append(x)
            return x

        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_solve_along_snr", recording)
            patch.setattr(experiments, "_GROUP_LPS", 1)
            if not ranging:
                patch.setattr(optimizer, "_snrs", lambda eta_shape, noise_shape: 1)
            experiments.collect_trials(preset, threads=1)
        return xs

    @pytest.mark.parametrize(
        "name, overrides, snrs",
        [
            ("shared_zf", dict(num_users=10, sweep_values=(0.0, 20.0), l_values=(3, 7)), 2),  # the benchmark's
            ("shared_zf", dict(num_users=7, l_values=(2, 5)), 6),
            ("power_control", {}, 9),  # eta's axis before the SNR's
            ("sweep_snr_designs", dict(designs=("proposed", "proposed_shared")), 9),
        ],
    )
    def test_accepted_members_equal_the_cold_solves(self, monkeypatch, lp_calls, name, overrides, snrs):
        from otasec import experiments

        preset = experiments.default_preset(name, num_realizations=30, **overrides)
        warm = self.designs_x(monkeypatch, preset, ranging=True)
        families = sum(first_rounds(lp_calls))
        rejected = sum(r for _, r in lp_calls if r is not None)
        cold = self.designs_x(monkeypatch, preset, ranging=False)
        assert len(warm) == len(cold)
        for a, b in zip(warm, cold):
            assert a.shape == b.shape and a.shape[-4] == snrs  # (..., SNR, request, subset, 1 + K - N)
            assert a[..., snrs // 2, :, :, :].tobytes() == b[..., snrs // 2, :, :, :].tobytes()
            assert_within(a[..., 1:], b[..., 1:])  # t is in the reference's LP units
        assert rejected < 0.3 * families * (snrs - 1)

    def test_the_degenerate_lps_of_a_100_trial_shared_zf_go_cold(self, monkeypatch):
        # Its degenerate max-min LPs have several optimal lambda, and S_coop depends on which one the simplex
        # returns: one answered from another SNR's basis would move S_coop by far more than 1e-12.
        from otasec import experiments

        preset = experiments.default_preset("shared_zf", num_realizations=100)
        warm = experiments.collect_trials(preset)
        monkeypatch.setattr(optimizer, "_snrs", lambda eta_shape, noise_shape: 1)
        cold = experiments.collect_trials(preset)
        assert np.all(np.abs(warm - cold) <= 1e-12 * np.abs(cold))
