import math

import numpy as np
import pytest

from otasec.channel import ScenarioConfig, _cn, sample_realization
from otasec.encoding import (
    _project_out,
    _scale_to_budgets,
    build_precoder,
    eta_bounds_given_mu,
    eta_from_delta,
    eta_upper_bound,
    mixture_precoders,
    precoder_to_dict,
    row_budgets,
)
from otasec.errors import ContractError, InfeasibleError
from otasec.metrics import approximation_error

from conftest import make_realization, synthetic_realization


def zero_A(K):
    return np.zeros((K, 1), dtype=np.complex128)


class TestEtaBounds:
    def test_upper_bound_no_noise(self):
        real = synthetic_realization(h=[1.0, 2.0], G=[[1.0, 1.0]], P=4.0)
        assert eta_upper_bound(real, zero_A(2)) == pytest.approx(2.0, abs=1e-12)

    def test_upper_bound_zero_residual(self):
        real = synthetic_realization(h=[1.0, 2.0], G=[[1.0, 1.0]], P=4.0)
        A = np.diag([2.0, 0.0]).astype(complex)  # first row uses the full budget
        assert eta_upper_bound(real, A) == 0.0

    def test_upper_bound_matches_per_user_evaluation(self, rng):
        for seed in range(10):
            real = make_realization(seed, K=5, L=2)
            A = 1e-4 * (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
            expected = np.sqrt(
                min(
                    abs(real.h[k]) ** 2 * (real.P - np.sum(np.abs(A[k]) ** 2))
                    for k in range(5)
                )
            )
            assert eta_upper_bound(real, A) == pytest.approx(expected, rel=1e-12)

    def test_upper_bound_rejects_overdrawn_row(self):
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, 1.0]], P=1.0)
        with pytest.raises(InfeasibleError):
            eta_upper_bound(real, np.diag([2.0, 0.0]).astype(complex))

    def test_mu_one_allows_any_accuracy(self):
        real = make_realization(0, K=4, L=1)
        lower, upper = eta_bounds_given_mu(real, zero_A(4), 1.0)
        assert lower == 0.0
        assert upper == eta_upper_bound(real, zero_A(4))

    def test_zero_forced_noiseless_lower_bound_is_zero(self):
        real = synthetic_realization(h=[1.0, 2.0], G=[[1.0, 1.0]], P=4.0, sigma_y_sq=0.0)
        # Any matrix with h^T A = 0 keeps the lower bound at zero.
        A = np.array([[2.0], [-1.0]], dtype=complex) * 0.1
        assert real.h @ A == pytest.approx(0.0, abs=1e-15)
        for mu in (0.01, 0.3, 0.9):
            lower, _ = eta_bounds_given_mu(real, A, mu)
            assert lower == 0.0

    def test_feasibility_onset_matches_bisection(self):
        real = make_realization(3, K=10, L=2)
        A = zero_A(10)
        upper = eta_upper_bound(real, A)

        def gap(mu):
            lower, up = eta_bounds_given_mu(real, A, mu)
            return lower - up

        # The design space opens where the accuracy bound meets the power bound.
        lo, hi = 1e-9, 1.0
        assert gap(lo) > 0 and gap(hi) < 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        mu_star = 0.5 * (lo + hi)
        expected = 1.0 / (1.0 + real.num_users * upper**2 / real.sigma_y_sq)
        assert mu_star == pytest.approx(expected, rel=1e-6)

    def test_mu_out_of_range(self):
        real = make_realization(1)
        for mu in (0.0, -0.5, 1.5, np.nan, np.array([0.5, 0.0])):
            with pytest.raises(ContractError):
                eta_bounds_given_mu(real, zero_A(4), mu)

    def test_mu_array_is_the_scalar_formula_per_entry(self, rng):
        real = make_realization(5, K=6, L=2)
        A = 1e-4 * (rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        mu = np.linspace(0.005, 1.0, 200)
        lower, upper = eta_bounds_given_mu(real, A, mu)
        assert lower.shape == mu.shape and upper == eta_upper_bound(real, A)
        hA_sq = float(np.sum(np.abs(real.h @ A) ** 2))
        for m, low in zip(mu.tolist(), lower.tolist()):
            scalar = eta_bounds_given_mu(real, A, m)
            assert type(scalar[0]) is float and type(scalar[1]) is float
            assert scalar == (low, upper)
            # The scalar formula, as written before mu could be an array.
            assert low == math.sqrt((1.0 - m) * (hA_sq + real.sigma_y_sq) / (m * real.num_users))

    def test_eta_from_delta(self):
        real = make_realization(2, K=6, L=2)
        assert eta_from_delta(real, 0.0) == 0.0
        full = eta_from_delta(real, 1.0)
        assert full == pytest.approx(eta_upper_bound(real, zero_A(6)), rel=1e-12)
        assert eta_from_delta(real, 0.5) == pytest.approx(0.5 * full, rel=1e-12)
        with pytest.raises(ContractError):
            eta_from_delta(real, 1.2)

    def test_delta_array_gives_the_scalar_values(self):
        # Also the squares: libm pow, which a Python float's eta**2 calls, is not always
        # eta * eta, so the budgets of an eta array must be squared entry by entry.
        real = make_realization(2, K=6, L=2)
        deltas = np.linspace(0.0, 1.0, 101).reshape(101, 1)
        etas = eta_from_delta(real, deltas)
        budgets = row_budgets(real, etas)
        assert type(eta_from_delta(real, 0.5)) is float and etas.shape == (101, 1)
        assert budgets.shape == (101, 1, 6)
        for d, delta in enumerate(deltas.ravel().tolist()):
            eta = eta_from_delta(real, delta)
            assert etas[d, 0] == eta and budgets[d, 0].tobytes() == row_budgets(real, eta).tobytes()
        for bad in ([0.5, 1.2], [np.nan], [[-0.1]]):
            with pytest.raises(ContractError, match="delta must lie in"):
                eta_from_delta(real, np.array(bad))


class TestBuilders:
    def test_none_matches_zero_matrix_closed_form(self):
        real = make_realization(4, K=5, L=2)
        eta = eta_from_delta(real, 0.7)
        prec = build_precoder("none", real, eta)
        assert prec.noise_dim == 1 and not prec.A.any()
        assert approximation_error(real, prec.A, eta) == approximation_error(
            real, zero_A(5), eta
        )

    def test_signal_level_direct_budget(self):
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, 1.0]], P=2.0)
        prec = build_precoder("signal_level", real, 1.0)
        assert np.allclose(prec.A, np.eye(2), atol=1e-15)

    def test_random_zf_zero_forcing_and_rank(self):
        for seed in range(20):
            real = make_realization(seed, K=6, L=2)
            eta = eta_from_delta(real, 0.6)
            prec = build_precoder("random_zf", real, eta, seed=seed)
            assert prec.noise_dim == 6 - 1
            assert np.linalg.norm(real.h @ prec.A) <= 1e-10 * np.linalg.norm(
                real.h
            ) * np.linalg.norm(prec.A)
            sv = np.linalg.svd(prec.A, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0]

    def test_data_level_power_identity(self):
        for seed in range(10):
            real = make_realization(seed, K=5, L=2)
            eta = eta_from_delta(real, 0.8)
            prec = build_precoder("data_level", real, eta)
            assert prec.kind == "data_level"
            powers = eta**2 / np.abs(real.h) ** 2 + prec.row_powers()
            argmin = int(np.argmin(np.abs(real.h) ** 2))
            assert powers[argmin] == pytest.approx(real.P, rel=1e-12)
            assert np.all(powers <= real.P * (1.0 + 1e-12))

    def test_data_level_pollutes_server_uniformly(self):
        real = make_realization(1, K=4, L=2)
        eta = eta_from_delta(real, 0.8)
        prec = build_precoder("data_level", real, eta)
        received = real.h @ prec.A  # every entry equals eta * sigma_w
        assert np.allclose(received, received[0], rtol=1e-10)

    def test_mixture_endpoints(self):
        real = make_realization(5, K=5, L=3)
        eta = eta_from_delta(real, 0.5)
        zf = build_precoder("mixture", real, eta, seed=9, params={"theta": 0.0})
        assert np.linalg.norm(real.h @ zf.A) <= 1e-10 * np.linalg.norm(real.h) * np.linalg.norm(
            zf.A
        )
        rnd = build_precoder("mixture", real, eta, seed=9, params={"theta": 1.0})
        assert np.linalg.norm(real.h @ rnd.A) > 1e-6 * np.linalg.norm(real.h) * np.linalg.norm(
            rnd.A
        )
        with pytest.raises(ContractError):
            build_precoder("mixture", real, eta, seed=9)

    def test_mixture_is_a_slice_of_the_batched_builder(self):
        real = make_realization(6, K=6, L=3)
        eta = eta_from_delta(real, 0.7)
        seeds, thetas = [3, 4, 11], np.linspace(0.0, 1.0, 11)
        stack = mixture_precoders(real, eta, seeds, thetas)
        assert stack.shape == (3, 11, 6, 5)
        for i, seed in enumerate(seeds):
            for j, theta in enumerate(thetas):
                A = build_precoder("mixture", real, eta, seed=seed, params={"theta": theta}).A
                assert np.array_equal(A, stack[i, j])

    def test_batched_mixtures_keep_row_budgets(self):
        real = make_realization(7, K=5, L=2)
        eta = eta_from_delta(real, 0.8)
        stack = mixture_precoders(real, eta, range(4), [0.0, 0.25, 1.0])
        powers = np.sum(np.abs(stack) ** 2, axis=-1)
        assert np.max(powers - row_budgets(real, eta)) <= 1e-12 * real.P

    def test_batched_builder_without_pairs(self):
        real = make_realization(7, K=5, L=2)
        eta = eta_from_delta(real, 0.5)
        assert mixture_precoders(real, eta, [], [0.0, 1.0]).shape == (0, 2, 5, 4)

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0])
    def test_tiny_mixture_weight_scales_without_overflow(self, snr_db):
        # The zero-forced draw is zero (one budget is 0), so the mixture's row
        # powers are about theta^2 ~ 6e-309 and budget / power leaves the float range.
        real = make_realization(3, K=2, L=1, snr_db=snr_db)
        eta = eta_from_delta(real, 1.0)
        A = mixture_precoders(real, eta, [3], [7.6e-155])
        assert np.isfinite(A).all()
        assert np.all(np.sum(np.abs(A) ** 2, axis=-1) <= row_budgets(real, eta))

    @pytest.mark.parametrize("tiny", [1e-155, 1e-160])
    def test_matrix_whose_every_row_ratio_overflows_still_meets_its_budget(self, tiny):
        budgets = np.array([1.0, 0.5])
        A = np.array([[[1.0 + 1.0j], [0.5]], [[1.0], [1.0]]])
        scaled = _scale_to_budgets(A.copy(), budgets)
        small = A.copy()
        small[0] *= tiny
        out = _scale_to_budgets(small, budgets)
        assert np.array_equal(out[1], scaled[1])
        assert np.allclose(out[0], scaled[0], rtol=1e-14, atol=0.0)
        assert np.all(np.sum(np.abs(out) ** 2, axis=-1) <= budgets * (1.0 + 1e-15))

    def test_subnormal_mixture_weight_scales_without_nan(self):
        # The mixture's largest entry is the subnormal 5e-324, and complex division
        # by it takes a reciprocal that overflows: the matrix came back NaN.
        real = sample_realization(ScenarioConfig(num_users=2, num_eavesdroppers=1, snr_db=-10.0), 2)
        eta = eta_from_delta(real, 1.0)
        A = mixture_precoders(real, eta, [4301], [5e-324])
        assert np.isfinite(A).all() and A.any()
        assert np.all(np.sum(np.abs(A) ** 2, axis=-1) <= row_budgets(real, eta))

    def test_tiny_matrices_scale_as_before_wherever_that_was_finite(self):
        def reference(A, budgets):  # the scaling before the subnormal-peak fix
            budgets = np.asarray(budgets, dtype=float)
            row_sq = np.sum(np.abs(A) ** 2, axis=-1)
            live = np.any(A != 0.0, axis=-1)
            with np.errstate(over="ignore"):
                ratio = np.divide(budgets, row_sq, out=np.full(row_sq.shape, np.inf), where=row_sq > 0.0)
            ratio[live & (budgets == 0.0)] = 0.0
            c = np.sqrt(np.min(ratio, axis=-1, initial=np.inf))
            huge = np.isinf(c) & live.any(axis=-1)
            if huge.any():
                A[huge] /= np.max(np.abs(A[huge]), axis=(-2, -1), keepdims=True)
                return reference(A, budgets)
            A *= np.where(live.any(axis=-1), c, 0.0)[..., None, None]
            return A

        rng = np.random.default_rng(5)
        A = rng.standard_normal((300, 3, 2)) + 1j * rng.standard_normal((300, 3, 2))
        A *= 10.0 ** -rng.uniform(140.0, 330.0, (300, 1, 1))  # row powers from 1e-280 down to 0
        A[::4, 1] = 0.0
        A[::5, :, 0] = 5e-324 * rng.choice([-1.0, 1.0, 1j], (60, 3))
        A[1::6] = rng.choice([0.0, 5e-324, -1e-320, 3e-310j], (50, 3, 2))
        compared = rescued = 0
        for budgets in (np.array([1.0, 2.0, 0.5]), np.array([1.0, 0.0, 2.0])):
            for i in range(len(A)):
                new = _scale_to_budgets(A[i : i + 1].copy(), budgets)
                assert np.isfinite(new).all()
                assert np.all(np.sum(np.abs(new) ** 2, axis=-1) <= budgets * (1.0 + 1e-15))
                try:
                    with np.errstate(over="raise", invalid="raise"):
                        old = reference(A[i : i + 1].copy(), budgets)
                except FloatingPointError:
                    rescued += 1
                    continue
                assert new.tobytes() == old.tobytes()
                compared += 1
            assert _scale_to_budgets(A.copy(), budgets).tobytes() == np.concatenate(
                [_scale_to_budgets(A[i : i + 1].copy(), budgets) for i in range(len(A))]
            ).tobytes()
        assert compared > 400 and rescued > 20

    def test_underflowed_row_with_zero_budget_ends_at_zero_power(self):
        # The second row's squared norm (1e-340) underflows to 0, yet the row is live.
        out = _scale_to_budgets(np.array([[[1e-150], [1e-170]]]), [1.0, 0.0])
        assert np.all(out == 0.0)

    def test_matrix_whose_every_row_underflows_is_scaled_not_zeroed(self):
        budgets = np.array([1.0, 0.5])
        A = np.array([[[1.0], [0.1j]]])
        out = _scale_to_budgets(A * 1e-170, budgets)
        assert np.allclose(out, _scale_to_budgets(A.copy(), budgets), rtol=1e-14, atol=0.0)

    def test_rows_without_underflow_scale_as_before(self):
        def reference(A, budgets):  # the scaling before underflowed rows counted as live
            row_sq = np.sum(np.abs(A) ** 2, axis=-1)
            active = row_sq > 0.0
            with np.errstate(over="ignore"):
                ratio = np.divide(budgets, row_sq, out=np.full(row_sq.shape, np.inf), where=active)
            c = np.sqrt(np.min(ratio, axis=-1, initial=np.inf))
            return A * np.where(active.any(axis=-1), c, 0.0)[..., None, None]

        rng = np.random.default_rng(12)
        A = rng.standard_normal((40, 4, 3)) + 1j * rng.standard_normal((40, 4, 3))
        A[::3, 1] = 0.0  # idle rows
        A[::7] = 0.0  # idle matrices
        A[1::5] *= 1e-140  # tiny, but no squared norm underflows
        for budgets in (np.array([1.0, 2.0, 0.5, 3.0]), np.array([1.0, 0.0, 2.0, 0.0])):
            assert np.array_equal(_scale_to_budgets(A.copy(), budgets), reference(A, budgets))

    @pytest.mark.parametrize("theta", [-0.1, 1.5, np.nan])
    def test_theta_outside_unit_interval_rejected(self, theta):
        real = make_realization(5, K=5, L=3)
        eta = eta_from_delta(real, 0.5)
        with pytest.raises(ContractError):
            build_precoder("mixture", real, eta, seed=9, params={"theta": theta})
        with pytest.raises(ContractError):
            mixture_precoders(real, eta, [9], [0.5, theta])

    def test_row_budgets_respected_by_all_kinds(self):
        kinds = ("none", "signal_level", "data_level", "random_zf", "mixture", "proposed")
        for seed in range(6):
            real = make_realization(seed, K=5, L=2)
            for delta in (0.3, 0.7, 1.0):
                eta = eta_from_delta(real, delta)
                for kind in kinds:
                    prec = build_precoder(kind, real, eta, seed=seed, params={"theta": 0.4})
                    slack = prec.row_powers() - (real.P - eta**2 / np.abs(real.h) ** 2)
                    assert np.max(slack) <= 1e-12 * real.P

    def test_degenerate_budgets_fall_back_to_none(self):
        real = synthetic_realization(h=[1.0, 1.0, 1.0], G=[[1.0, 0.5, 0.2]], P=1.0)
        eta = eta_from_delta(real, 1.0)  # equal channels: zero residual everywhere
        for kind in ("signal_level", "data_level"):
            prec = build_precoder(kind, real, eta)
            assert prec.kind == "none" and prec.degenerate

    def test_data_level_degenerates_at_zero_eta(self):
        real = make_realization(2, K=4, L=1)
        prec = build_precoder("data_level", real, 0.0)
        assert prec.kind == "none" and prec.degenerate

    def test_data_level_degenerates_where_eta_squared_underflows(self):
        real = make_realization(2, K=4, L=1)
        eta = 1e-200
        assert eta > 0.0 and eta**2 == 0.0
        prec = build_precoder("data_level", real, eta)
        assert prec.kind == "none" and prec.degenerate

    def test_eta_above_maximum_rejected(self):
        real = make_realization(3, K=4, L=1)
        with pytest.raises(InfeasibleError):
            build_precoder("none", real, 2.0 * eta_from_delta(real, 1.0))

    @pytest.mark.parametrize("kind", ["none", "signal_level", "data_level", "proposed"])
    def test_eta_slack_is_relative_1e_9(self, kind):
        # The bound's relative slack lets 1e-10 over it pass and 1e-7 over it raise.
        real = make_realization(3, K=4, L=1)
        eta_max = eta_from_delta(real, 1.0)
        build_precoder(kind, real, eta_max * (1.0 + 1e-10))
        with pytest.raises(InfeasibleError):
            build_precoder(kind, real, eta_max * (1.0 + 1e-7))

    def test_unknown_kind_rejected(self):
        real = make_realization(3, K=4, L=1)
        with pytest.raises(ContractError):
            build_precoder("fancy", real, 0.0)

    def test_serialization_keys(self):
        real = make_realization(6, K=4, L=2)
        eta = eta_from_delta(real, 0.5)
        doc = precoder_to_dict(build_precoder("proposed", real, eta))
        assert {"A", "noise_dim", "kind", "eta", "lambda", "zf_users", "zf_weights"} <= set(doc)
        A = np.asarray(doc["A"], dtype=float)
        assert A.shape == (4, 3, 2)


    def test_average_power_matches_budget_split(self, rng):
        real = make_realization(8, K=4, L=1)
        eta = eta_from_delta(real, 0.6)
        prec = build_precoder("random_zf", real, eta, seed=2)
        n = 100_000
        gamma = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))) / np.sqrt(2)
        v = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) / np.sqrt(2)
        x = gamma * (eta / real.h) + v @ prec.A.T
        measured = np.mean(np.abs(x) ** 2, axis=0)
        expected = eta**2 / np.abs(real.h) ** 2 + prec.row_powers()
        assert measured == pytest.approx(expected, rel=0.03)


def spawned_zf(ss, real, budgets):
    """A random zero-forced matrix drawn from the ``SeedSequence`` ``ss``."""
    K = real.num_users
    return _scale_to_budgets(_project_out(_cn(np.random.default_rng(ss), (1, K, K - 1)), real.h), budgets)[0]


class TestStreams:
    """The random families keep the streams they drew with ``SeedSequence`` spelled out."""

    GRID = [(K, fading, seed) for K in (3, 4, 10) for fading in ("complex", "real") for seed in (0, 7)]

    @pytest.mark.parametrize("K, fading, seed", GRID)
    def test_random_zf_matches_the_seed_sequence_spelling(self, K, fading, seed):
        real = make_realization(seed, K=K, L=3, fading_mode=fading)
        eta = eta_from_delta(real, 0.6)
        expected = spawned_zf(np.random.SeedSequence(seed + 5), real, row_budgets(real, eta))
        assert build_precoder("random_zf", real, eta, seed=seed + 5).A.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("K, fading, seed", GRID)
    def test_mixtures_match_the_spawn_spelling(self, K, fading, seed):
        real = make_realization(seed, K=K, L=3, fading_mode=fading)
        eta = eta_from_delta(real, 0.6)
        budgets = row_budgets(real, eta)
        seeds, thetas = [seed, seed + 1, 12345], np.array([0.0, 0.3, 1.0])
        w = thetas[:, None, None]
        expected = []
        for pair in seeds:
            zf_ss, rand_ss = np.random.SeedSequence(pair).spawn(2)
            A = (1.0 - w) * spawned_zf(zf_ss, real, budgets)
            A += w * _cn(np.random.default_rng(rand_ss), (K, K - 1))
            expected.append(_scale_to_budgets(A, budgets))
        assert mixture_precoders(real, eta, seeds, thetas).tobytes() == np.array(expected).tobytes()
