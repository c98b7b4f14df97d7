import dataclasses

import numpy as np
import pytest

from otasec import metrics
from otasec.channel import ScenarioConfig, _stream
from otasec.encoding import build_precoder, eta_from_delta, mixture_precoders
from otasec.errors import ContractError
from otasec.metrics import (
    _LANE_CHUNK,
    _LANES,
    _lane_blocks,
    approximation_error,
    coop_security,
    eavesdropper_moments,
    effective_channel_security,
    evaluate,
    mc_combiner_mse,
    mc_oracle,
    noncoop_security,
    statistical_csi_check,
)

from conftest import make_realization, one_design, over_noise, synthetic_realization


def zero_A(K):
    return np.zeros((K, 1), dtype=np.complex128)


def unit(rng, n):
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return q / np.linalg.norm(q)


class TestApproximationError:
    def test_noiseless_perfect_aggregation(self):
        real = synthetic_realization(h=[1.0, 2.0], G=[[1.0, 1.0]], sigma_y_sq=0.0)
        assert approximation_error(real, zero_A(2), 1.0) == 0.0

    def test_signal_equals_noise(self):
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, 1.0]], sigma_y_sq=2.0)
        assert approximation_error(real, zero_A(2), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_observation_returns_prior(self):
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, 1.0]], sigma_y_sq=0.0)
        assert approximation_error(real, zero_A(2), 0.0) == 1.0

    def test_negative_eta_rejected(self):
        real = make_realization(0)
        with pytest.raises(ContractError):
            approximation_error(real, zero_A(4), -1.0)


class TestCoopSecurity:
    def test_scalar_case(self):
        real = synthetic_realization(h=[1.0], G=[[1.0]], sigma_z_sq=1.0)
        S, p = coop_security(real, zero_A(1), 1.0)
        assert S == pytest.approx(0.5, abs=1e-12)
        assert p[0] == pytest.approx(0.5, abs=1e-12)

    def test_perfect_recovery_when_channels_invertible(self, rng):
        # As many eavesdroppers as users and negligible receiver noise.
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        real = synthetic_realization(h=[1.0, 1.0 + 0.5j], G=G, sigma_z_sq=1e-9)
        S, _ = coop_security(real, zero_A(2), 1.0)
        assert S <= 1e-8

    def test_matches_oracle(self):
        real = make_realization(10, K=4, L=2)
        eta = eta_from_delta(real, 0.7)
        A = build_precoder("signal_level", real, eta).A
        S, _ = coop_security(real, A, eta)
        rep = mc_oracle(real, A, eta, 10**5, seed=77)
        assert abs(S - rep.S_hat) <= 4.0 * rep.std_err_S

    def test_monotone_in_receiver_noise(self):
        real = make_realization(11, K=5, L=3)
        eta = eta_from_delta(real, 0.9)
        values = []
        for scale in np.linspace(1.0, 10.0, 10):
            noisy = dataclasses.replace(real, sigma_z_sq=real.sigma_z_sq * scale)
            values.append(coop_security(noisy, zero_A(5), eta)[0])
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_requires_positive_noise(self):
        real = dataclasses.replace(make_realization(1), sigma_z_sq=0.0)
        with pytest.raises(ContractError):
            coop_security(real, zero_A(4), 1e-6)


class TestNoncoopSecurity:
    def test_aligned_single_eavesdropper(self):
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, 1.0]], sigma_z_sq=2.0)
        S, per = noncoop_security(real, zero_A(2), 1.0)
        assert S == pytest.approx(0.5, abs=1e-15)
        assert per.shape == (1,)

    def test_cancelling_channel_gives_full_security(self):
        real = synthetic_realization(h=[1.0, 1.0], G=[[1.0, -1.0]], sigma_z_sq=2.0)
        S, _ = noncoop_security(real, zero_A(2), 1.0)
        assert S == 1.0

    def test_single_eavesdropper_equals_cooperative(self):
        for seed in range(25):
            real = make_realization(seed, K=4, L=1)
            eta = eta_from_delta(real, 0.8)
            A = build_precoder("random_zf", real, eta, seed=seed).A
            s_non, _ = noncoop_security(real, A, eta)
            s_coop, _ = coop_security(real, A, eta)
            assert abs(s_non - s_coop) <= 1e-12

    def test_cooperation_never_hurts(self):
        for seed in range(20):
            real = make_realization(seed, K=5, L=3)
            eta = eta_from_delta(real, 0.7)
            A = build_precoder("signal_level", real, eta).A
            s_coop, _ = coop_security(real, A, eta)
            s_non, per = noncoop_security(real, A, eta)
            assert s_coop <= s_non + 1e-10
            assert s_non == np.min(per)

    def test_per_eavesdropper_values_match_scalar_oracle(self, rng):
        # Fit one scalar estimator per eavesdropper from simulated receptions,
        # then score it on held-out draws: an oracle independent of both the
        # per-eavesdropper formula and the joint-combining route.
        real = make_realization(12, K=5, L=3)
        eta = eta_from_delta(real, 0.8)
        A = build_precoder("random_zf", real, eta, seed=3).A
        _, per = noncoop_security(real, A, eta)

        def draw(n):
            gamma = (rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))) / np.sqrt(2)
            v = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))) / np.sqrt(2)
            x = gamma * (eta / real.h) + v @ A.T
            noise = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) / np.sqrt(2)
            z = x @ real.G.T + np.sqrt(real.sigma_z_sq) * noise
            return gamma.sum(axis=1), z

        n = 200_000
        s, z = draw(n)
        coeff = (s[:, None] * z.conj()).mean(axis=0) / np.mean(np.abs(z) ** 2, axis=0)
        s2, z2 = draw(n)
        err = np.abs(coeff[None, :] * z2 - s2[:, None]) ** 2 / 5
        for ell in range(3):
            se = err[:, ell].std(ddof=1) / np.sqrt(n)
            assert abs(err[:, ell].mean() - per[ell]) <= 4.0 * se


class TestEffectiveChannel:
    def test_identity_at_optimal_combiner(self):
        for seed in range(10):
            real = make_realization(seed, K=4, L=3)
            eta = eta_from_delta(real, 0.6)
            A = build_precoder("random_zf", real, eta, seed=seed).A
            S, p_opt = coop_security(real, A, eta)
            assert abs(effective_channel_security(real, A, eta, p_opt) - S) <= 1e-10

    def test_zero_combiner_sees_nothing(self):
        real = make_realization(2, K=4, L=2)
        assert effective_channel_security(real, zero_A(4), 1e-5, np.zeros(2)) == 1.0

    def test_optimal_combiner_beats_random(self, rng):
        real = make_realization(3, K=4, L=2)
        eta = eta_from_delta(real, 0.8)
        A = build_precoder("signal_level", real, eta).A
        S, _ = coop_security(real, A, eta)
        for _ in range(100):
            p = unit(rng, 2)
            assert effective_channel_security(real, A, eta, p) >= S - 1e-10

    def test_optimal_combiner_is_local_minimum(self, rng):
        real = make_realization(4, K=5, L=3)
        eta = eta_from_delta(real, 0.7)
        A = build_precoder("random_zf", real, eta, seed=1).A
        S, p_opt = coop_security(real, A, eta)
        for _ in range(100):
            p = p_opt + 1e-3 * unit(rng, 3)
            assert effective_channel_security(real, A, eta, p) >= S - 1e-12


class TestZeroForcingNeutrality:
    def test_zero_forced_noise_keeps_server_error(self):
        for seed in range(20):
            real = make_realization(seed, K=5, L=2)
            eta = eta_from_delta(real, 0.6)
            A = build_precoder("random_zf", real, eta, seed=seed).A
            assert abs(
                approximation_error(real, A, eta) - approximation_error(real, zero_A(5), eta)
            ) <= 1e-12


class TestEvaluate:
    def test_report_invariants(self):
        for seed in range(10):
            real = make_realization(seed, K=4, L=3)
            eta = eta_from_delta(real, 0.8)
            A = build_precoder("signal_level", real, eta).A
            rep = evaluate(real, A, eta)
            assert 0.0 <= rep.D <= 1.0
            assert 0.0 <= rep.S_coop <= 1.0
            assert 0.0 <= rep.S_noncoop <= 1.0
            assert rep.S_coop <= rep.S_noncoop + 1e-10
            assert rep.S_noncoop == np.min(rep.per_eav_security)
            assert rep.p_opt.shape == (3,)

    def test_nan_precoder_raises(self):
        real = make_realization(3, K=4, L=3)
        eta = eta_from_delta(real, 0.8)
        A = build_precoder("signal_level", real, eta).A
        A[2, 2] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            evaluate(real, A, eta)

    def test_non_finite_value_is_not_clamped(self, monkeypatch):
        from otasec import metrics

        monkeypatch.setattr(metrics, "approximation_error", lambda real, A, eta: float("nan"))
        real = make_realization(3, K=4, L=3)
        with pytest.raises(ContractError, match="not finite"):
            evaluate(real, zero_A(4), eta_from_delta(real, 0.8))


def test_values_are_at_most_one_on_a_seeded_grid():
    # evaluate clamps only below 0: D, S_coop and each receiver's value are 1 minus a
    # nonnegative quantity, so rounding must not carry any of them above 1.
    rng = np.random.default_rng(23)
    for case in range(160):
        K, L = int(rng.integers(2, 17)), int(rng.integers(1, 16))
        fading, collocated = ("complex", "real")[case % 2], bool(case // 2 % 2)
        snr_db = float(rng.choice([0.0, 20.0, 40.0, 60.0]))
        real = make_realization(case, K, L, snr_db, fading, collocated_eavesdroppers=collocated)
        eta = eta_from_delta(real, float(rng.uniform(0.05, 1.0)))
        mixtures = mixture_precoders(real, eta, [case], [0.0, 0.5, 1.0])[0]
        stack = np.concatenate([mixtures, np.zeros((1, K, K - 1))])
        D, S_coop = approximation_error(real, stack, eta), coop_security(real, stack, eta)[0]
        values = np.concatenate([D, S_coop, noncoop_security(real, stack, eta)[1].ravel()])
        assert np.isfinite(values).all() and (values <= 1.0).all(), (case, K, L)


def high_precision_reference(real, A, eta):
    """``S_coop = 1 - Re(m^H B^{-1} m) / K`` and ``D = q / (eta^2 K + q)``, ``q = ||hA||^2 + sigma_y^2``, at 50 digits.

    Built from the float inputs, with ``B`` solved by ``mp.lu_solve``.
    """
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        h, eta_mp = mp.matrix(real.h.tolist()), mp.mpf(float(eta))
        G, A_mp = mp.matrix(real.G.tolist()), mp.matrix(A.tolist())
        K, L = G.cols, G.rows
        R = mp.matrix([[G[l, k] / h[k] for k in range(K)] for l in range(L)])
        GA = G * A_mp
        B = GA * GA.H + eta_mp**2 * (R * R.H) + mp.mpf(float(real.sigma_z_sq)) * mp.eye(L)
        m = mp.matrix([eta_mp * mp.fsum(R[l, k] for k in range(K)) for l in range(L)])
        S = 1 - mp.re((m.H * mp.lu_solve(B, m))[0]) / K
        q = mp.fsum(abs(v) ** 2 for v in h.T * A_mp) + mp.mpf(float(real.sigma_y_sq))
        return float(S), float(q / (eta_mp**2 * K + q))


# K = 10, L = 5, complex fading: (kind, delta, collocated, snr_db, seed); the precoder seed is the realization's.
HIGH_PRECISION_CASES = [
    ("none", 1.0, collocated, snr_db, seed)
    for collocated in (False, True)
    for snr_db in (0.0, 10.0, 20.0)
    for seed in range(1, 21)
] + [(kind, 0.7, False, 20.0, seed) for kind in ("random_zf", "proposed") for seed in range(1, 7)]


@pytest.mark.parametrize("kind, delta, collocated, snr_db, seed", HIGH_PRECISION_CASES)
def test_closed_forms_match_a_high_precision_reference(kind, delta, collocated, snr_db, seed):
    real = make_realization(seed, K=10, L=5, snr_db=snr_db, collocated_eavesdroppers=collocated)
    eta = eta_from_delta(real, delta)
    A = build_precoder(kind, real, eta, seed=seed).A
    S_ref, D_ref = high_precision_reference(real, A, eta)
    assert coop_security(real, A, eta)[0] == pytest.approx(S_ref, rel=1e-9, abs=0.0)
    assert approximation_error(real, A, eta) == pytest.approx(D_ref, rel=1e-9, abs=0.0)


def precoder_stack(real, eta):
    """A (2, 3, K, K - 1) stack of mixture precoders plus a zero-forced one."""
    stack = mixture_precoders(real, eta, [5, 6], [0.0, 0.5, 1.0])
    stack[1, 2] = build_precoder("random_zf", real, eta, seed=8).A
    return stack


class TestStackedPrecoders:
    @pytest.mark.parametrize("seed, L", [(20, 1), (21, 3), (22, 7)])
    def test_each_element_equals_the_single_call(self, seed, L):
        real = make_realization(seed, K=5, L=L)
        eta = eta_from_delta(real, 0.6)
        stack = precoder_stack(real, eta)
        D = approximation_error(real, stack, eta)
        B, m = eavesdropper_moments(real, stack, eta)
        S, p_opt = coop_security(real, stack, eta)
        S_non, per_eav = noncoop_security(real, stack, eta)
        assert D.shape == S.shape == S_non.shape == (2, 3)
        assert B.shape == (2, 3, L, L) and p_opt.shape == per_eav.shape == (2, 3, L)
        for idx in np.ndindex(2, 3):
            A = stack[idx]
            assert np.array_equal(D[idx], approximation_error(real, A, eta))
            B1, m1 = eavesdropper_moments(real, A, eta)
            assert np.array_equal(B[idx], B1) and np.array_equal(m, m1)
            S1, p1 = coop_security(real, A, eta)
            assert np.array_equal(S[idx], S1) and np.array_equal(p_opt[idx], p1)
            S_non1, per1 = noncoop_security(real, A, eta)
            assert np.array_equal(S_non[idx], S_non1) and np.array_equal(per_eav[idx], per1)

    @pytest.mark.parametrize("seed, L", [(26, 1), (27, 4)])
    def test_noise_over_snr_equals_the_per_snr_calls(self, seed, L):
        # One precoder for every SNR, one per SNR, and a stack broadcast against the SNR axis.
        real = make_realization(seed, K=5, L=L)
        eta = eta_from_delta(real, 0.6)
        noisy, per_snr = over_noise(real, real.sigma_z_sq * np.array([100.0, 1.0, 0.01]))
        stack = precoder_stack(real, eta)
        for A, pick in (
            (stack[1, 0], lambda idx, s: stack[1, 0]),
            (stack[0], lambda idx, s: stack[0, s]),
            (stack[:, :, None], lambda idx, s: stack[idx]),
        ):
            D = approximation_error(noisy, A, eta)
            B, m = eavesdropper_moments(noisy, A, eta)
            S, p_opt = coop_security(noisy, A, eta)
            S_non, per_eav = noncoop_security(noisy, A, eta)
            for at in np.ndindex(D.shape):
                idx, s = at[:-1], at[-1]
                one, A1 = per_snr[s], pick(idx, s)
                assert D[at].tobytes() == np.float64(approximation_error(one, A1, eta)).tobytes()
                B1, m1 = eavesdropper_moments(one, A1, eta)
                assert B[at].tobytes() == B1.tobytes() and m.tobytes() == m1.tobytes()
                S1, p1 = coop_security(one, A1, eta)
                assert S[at].tobytes() == np.float64(S1).tobytes() and p_opt[at].tobytes() == p1.tobytes()
                S_non1, per1 = noncoop_security(one, A1, eta)
                assert S_non[at].tobytes() == np.float64(S_non1).tobytes()
                assert per_eav[at].tobytes() == per1.tobytes()
        bad, _ = over_noise(real, [1.0, 0.0])
        for fn in (coop_security, noncoop_security):
            with pytest.raises(ContractError, match="sigma_z_sq must be positive"):
                fn(bad, stack[0, 0], eta)

    @pytest.mark.parametrize("seed, L", [(26, 1), (27, 4)])
    def test_eta_axis_equals_the_per_eta_calls(self, seed, L):
        # An eta per power-control fraction against one precoder, against a stack that pairs
        # precoder d with eta d, and, shaped (D, 1), against a (D, 1) stack and per-SNR noise.
        real = make_realization(seed, K=5, L=L)
        etas = eta_from_delta(real, np.array([0.0, 0.3, 0.6]))
        stack = precoder_stack(real, float(etas[1]))[0]
        noisy, per_snr = over_noise(real, real.sigma_z_sq * np.array([100.0, 1.0, 0.01]))
        for case, eta, A, pick in (
            (real, etas, stack[1], lambda at: (real, stack[1])),
            (real, etas, stack, lambda at: (real, stack[at[0]])),
            (noisy, etas[:, None], stack[:, None], lambda at: (per_snr[at[1]], stack[at[0]])),
        ):
            D = approximation_error(case, A, eta)
            B, m = eavesdropper_moments(case, A, eta)
            S, p_opt = coop_security(case, A, eta)
            S_non, per_eav = noncoop_security(case, A, eta)
            assert m.shape == eta.shape + (L,) and D.shape == S.shape == S_non.shape
            for at in np.ndindex(D.shape):
                one, A1 = pick(at)
                eta1 = float(etas[at[0]])
                assert D[at].tobytes() == np.float64(approximation_error(one, A1, eta1)).tobytes()
                B1, m1 = eavesdropper_moments(one, A1, eta1)
                assert B[at].tobytes() == B1.tobytes() and m[at[0]].tobytes() == m1.tobytes()
                S1, p1 = coop_security(one, A1, eta1)
                assert S[at].tobytes() == np.float64(S1).tobytes() and p_opt[at].tobytes() == p1.tobytes()
                S_non1, per1 = noncoop_security(one, A1, eta1)
                assert S_non[at].tobytes() == np.float64(S_non1).tobytes()
                assert per_eav[at].tobytes() == per1.tobytes()

    def test_single_precoder_gives_python_floats(self):
        real = make_realization(23, K=4, L=2)
        eta = eta_from_delta(real, 0.5)
        A = build_precoder("mixture", real, eta, seed=1, params={"theta": 0.3}).A
        assert type(approximation_error(real, A, eta)) is float
        assert type(coop_security(real, A, eta)[0]) is float
        assert type(noncoop_security(real, A, eta)[0]) is float
        assert type(approximation_error(real, A, 0.0)) is float

    def test_one_nan_element_raises(self):
        real = make_realization(24, K=4, L=2)
        eta = eta_from_delta(real, 0.5)
        stack = precoder_stack(real, eta)
        stack[0, 1, 0, 0] = np.nan
        with pytest.raises(ContractError, match=r"in matrix \(0, 1\)"):
            coop_security(real, stack, eta)


def noncoop_reference(real, A, eta):
    """Per-eavesdropper security of one ``(K, M)`` precoder at one noise variance, as first written."""
    R = real.G / real.h[np.newaxis, :]
    K = real.num_users
    num = (eta**2 / K) * np.abs(R.sum(axis=1)) ** 2
    den = (
        eta**2 * np.sum(np.abs(R) ** 2, axis=1)
        + np.sum(np.abs(real.G @ A) ** 2, axis=-1)
        + np.asarray(real.sigma_z_sq)[..., np.newaxis]
    )
    return 1.0 - num / den


class TestReceiverKernel:
    """The one single-receiver kernel reproduces the per-eavesdropper formula bit for bit."""

    @pytest.mark.parametrize("seed, L", [(20, 1), (21, 3), (22, 7), (26, 1), (27, 4)])
    @pytest.mark.parametrize("delta", [0.0, 0.6])
    def test_noncoop_equals_the_looped_reference(self, seed, L, delta):
        real = make_realization(seed, K=5, L=L)
        eta = eta_from_delta(real, delta)
        stack = precoder_stack(real, eta)
        noisy, per_snr = over_noise(real, real.sigma_z_sq * np.array([100.0, 1.0, 0.01]))
        _, per = noncoop_security(real, stack, eta)
        _, per_noisy = noncoop_security(noisy, stack[:, :, None], eta)
        for idx in np.ndindex(2, 3):
            assert per[idx].tobytes() == noncoop_reference(real, stack[idx], eta).tobytes()
            for s, one in enumerate(per_snr):
                assert per_noisy[idx + (s,)].tobytes() == noncoop_reference(one, stack[idx], eta).tobytes()

    def test_ratio_sums_feed_the_optimizer(self):
        from otasec.optimizer import _eavesdropper_terms

        real = make_realization(21, K=5, L=3)
        R = real.G / real.h[np.newaxis, :]
        sum_sq, power_sq = metrics._ratio_sums(real.G, real.h)
        assert sum_sq.tobytes() == (np.abs(R.sum(axis=1)) ** 2).tobytes()
        assert power_sq.tobytes() == np.sum(np.abs(R) ** 2, axis=1).tobytes()
        assert _eavesdropper_terms(real, 0.5)[1].tobytes() == sum_sq.tobytes()


CLOSED_FORMS = [
    approximation_error,
    eavesdropper_moments,
    coop_security,
    noncoop_security,
    effective_channel_security,
]


class TestBadEta:
    """Every closed form rejects an ``eta`` that is not finite and nonnegative."""

    @pytest.mark.parametrize("fn", CLOSED_FORMS)
    @pytest.mark.parametrize("eta", [np.nan, np.inf, -0.5])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_raises_contract_error(self, fn, eta, stacked):
        real = make_realization(25, K=4, L=2)
        A = precoder_stack(real, eta_from_delta(real, 0.5))
        extra = (np.ones(2),) if fn is effective_channel_security else ()
        with pytest.raises(ContractError, match="eta must be finite and nonnegative"):
            fn(real, A if stacked else A[1, 2], eta, *extra)

    @pytest.mark.parametrize("fn", [f for f in CLOSED_FORMS if f is not effective_channel_security])
    @pytest.mark.parametrize("eta", [np.array([0.1, np.nan]), np.array([[np.inf], [0.1]]), np.array([0.0, -0.5])])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_an_eta_array_is_checked_entry_by_entry(self, fn, eta, stacked):
        real = make_realization(25, K=4, L=2)
        A = precoder_stack(real, eta_from_delta(real, 0.5))
        with pytest.raises(ContractError, match="eta must be finite and nonnegative"):
            fn(real, A if stacked else A[1, 2], eta)

    @pytest.mark.parametrize(
        "call",
        [
            lambda real, A, eta: effective_channel_security(real, A, eta, np.ones(2)),
            evaluate,
            lambda real, A, eta: build_precoder("signal_level", real, eta),
            lambda real, A, eta: mixture_precoders(real, eta, [1], [0.5]),
        ],
        ids=["effective_channel_security", "evaluate", "build_precoder", "mixture_precoders"],
    )
    def test_scalar_eta_callers_reject_an_eta_array(self, call):
        real = make_realization(25, K=4, L=2)
        eta = eta_from_delta(real, np.array([0.2, 0.5]))
        with pytest.raises(ContractError, match=r"a scalar eta, not an array of shape \(2,\)"):
            call(real, precoder_stack(real, float(eta[0]))[0, 0], eta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_effective_channel_rejects_non_finite_combiner(self, bad):
        real = make_realization(25, K=4, L=2)
        with pytest.raises(ContractError, match="p must be 2 finite values"):
            effective_channel_security(real, zero_A(4), 0.1, np.array([1.0, bad]))


# Every closed form, the oracle and the optimized design, as calls on (real, A, eta).
NOISE_CALLS = {
    "approximation_error": approximation_error,
    "eavesdropper_moments": eavesdropper_moments,
    "coop_security": coop_security,
    "noncoop_security": noncoop_security,
    "effective_channel_security": lambda real, A, eta: effective_channel_security(real, A, eta, np.ones(2)),
    "mc_oracle": lambda real, A, eta: mc_oracle(real, A, eta, 10**4, seed=1),
    "optimize_designs": lambda real, A, eta: one_design(real, eta),
}


class TestBadNoise:
    """A noise variance, or one entry of a per-SNR one, that is not finite and nonnegative raises."""

    @pytest.mark.parametrize("name", NOISE_CALLS)
    @pytest.mark.parametrize(
        "fields", [("sigma_y_sq",), ("sigma_z_sq",), ("sigma_y_sq", "sigma_z_sq")], ids=["y", "z", "both"]
    )
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -1.0, np.array([1e-9, np.nan])], ids=["nan", "inf", "negative", "nan_entry"]
    )
    def test_raises_contract_error(self, monkeypatch, name, fields, bad):
        def draw(*args):
            raise AssertionError("the oracle drew samples")

        monkeypatch.setattr(metrics, "_lane_blocks", draw)
        real = make_realization(25, K=4, L=2)
        eta = eta_from_delta(real, 0.5)
        A = build_precoder("random_zf", real, eta, seed=1).A
        real = dataclasses.replace(real, **{field: bad for field in fields})
        match = f"{fields[0]} must be finite and nonnegative"
        if name == "mc_oracle" and np.ndim(bad):
            match = "scalar noise"  # the oracle takes scalar noise only, and says so first
        with pytest.raises(ContractError, match=match):
            NOISE_CALLS[name](real, A, eta)


class TestNonFinitePrecoder:
    """A NaN or inf entry in ``A`` raises before any arithmetic can warn."""

    @pytest.mark.parametrize(
        "fn", [approximation_error, eavesdropper_moments, noncoop_security, effective_channel_security]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_raises_contract_error(self, fn, bad, stacked):
        real = make_realization(25, K=4, L=2)
        eta = eta_from_delta(real, 0.5)
        A = precoder_stack(real, eta)
        A[1, 2, 3, 0] = bad
        extra = (np.ones(2),) if fn is effective_channel_security else ()
        if stacked:
            with pytest.raises(ContractError, match=r"non-finite entry in matrix \(1, 2\)"):
                fn(real, A, eta, *extra)
        else:
            with pytest.raises(ContractError, match=r"non-finite entry$"):
                fn(real, A[1, 2], eta, *extra)


def lane_samples(blocks) -> np.ndarray:
    """A lane's ``u`` blocks as one ``(L + 2, n)`` array, in draw order."""
    return np.concatenate([np.concatenate(u, axis=1) for u in blocks], axis=1)


class TestMcOracle:
    def test_near_perfect_channel(self):
        real = make_realization(5, K=3, L=1)
        quiet = dataclasses.replace(real, sigma_y_sq=1e-30, sigma_z_sq=1e-12)
        eta = eta_from_delta(quiet, 1.0)
        rep = mc_oracle(quiet, zero_A(3), eta, 10**5, seed=3)
        assert rep.D_hat <= 1e-3

    def test_self_consistency(self):
        real = make_realization(6, K=4, L=2)
        eta = eta_from_delta(real, 0.75)
        A = build_precoder("mixture", real, eta, seed=5, params={"theta": 0.3}).A
        rep = mc_oracle(real, A, eta, 2 * 10**5, seed=8)
        assert abs(approximation_error(real, A, eta) - rep.D_hat) <= 4.0 * rep.std_err_D
        S, _ = coop_security(real, A, eta)
        assert abs(S - rep.S_hat) <= 4.0 * rep.std_err_S

    def test_sample_floor_enforced(self):
        real = make_realization(6)
        with pytest.raises(ContractError):
            mc_oracle(real, zero_A(4), 1e-5, 10**3, seed=1)

    def test_deterministic_in_seed(self):
        real = make_realization(7, K=3, L=2)
        eta = eta_from_delta(real, 0.5)
        a = mc_oracle(real, zero_A(3), eta, 10**4, seed=21)
        b = mc_oracle(real, zero_A(3), eta, 10**4, seed=21)
        assert a == b

    @pytest.mark.parametrize("K", [2, 10])
    @pytest.mark.parametrize("kind", ["none", "random_zf"])
    def test_chunk_matches_per_sample_reference(self, K, kind):
        real = make_realization(31, K=K, L=3)
        eta = eta_from_delta(real, 0.6)
        A = build_precoder(kind, real, eta, seed=4).A
        M, L = A.shape[1], real.num_eavesdroppers
        R, n, lane = K + M + 1 + L, 4096 + 2 * 64 + 50, 2  # a full chunk, then two blocks and 50 more
        u = lane_samples(_lane_blocks(_stream(9, 0, lane), real, A, eta, n))
        assert u.shape == (L + 2, n)
        # The lane's draws, block by block: rows gamma (K), v (M), n_y (1), n_z (L), sample axis next.
        rng = _stream(9, 0, lane)
        draws = [rng.standard_normal(shape) for shape in ((64, R, 64, 2), (2, R, 64, 2), (1, R, 50, 2))]
        draw = np.concatenate([np.concatenate(d, axis=1) for d in draws], axis=1) * np.sqrt(0.5)
        w = draw[..., 0] + 1j * draw[..., 1]
        gamma, v, n_y, n_z = w[:K], w[K : K + M], w[K + M], w[K + M + 1 :]
        for t in (0, 1, 63, 64, 4095, 4096, 4096 + 127, 4096 + 128, n - 1):
            x = [eta * gamma[k, t] / real.h[k] + sum(A[k, m] * v[m, t] for m in range(M)) for k in range(K)]
            y_ref = sum(real.h[k] * x[k] for k in range(K)) + np.sqrt(real.sigma_y_sq) * n_y[t]
            z_ref = [
                sum(real.G[l, k] * x[k] for k in range(K)) + np.sqrt(real.sigma_z_sq) * n_z[l, t]
                for l in range(L)
            ]
            assert u[0, t] == pytest.approx(y_ref, rel=1e-12)
            assert u[1 : L + 1, t] == pytest.approx(np.array(z_ref), rel=1e-12)
            assert u[L + 1, t] == pytest.approx(sum(gamma[k, t] for k in range(K)), rel=1e-12)

    def test_lanes_split_each_phase(self, monkeypatch):
        real = make_realization(32, K=3, L=2)
        eta = eta_from_delta(real, 0.7)
        A = build_precoder("random_zf", real, eta, seed=2).A
        lanes = []

        def spy(rng, real, A, eta, n):
            lanes.append((rng.bit_generator.state, n))
            return lane_blocks(rng, real, A, eta, n)

        lane_blocks = metrics._lane_blocks
        monkeypatch.setattr(metrics, "_cores", lambda: 1)
        monkeypatch.setattr(metrics, "_lane_blocks", spy)
        mc_oracle(real, A, eta, 10_003, seed=5)  # a fit of 5,001 and a held-out half of 5,002
        mc_combiner_mse(real, A, eta, np.ones(2), 10_001, seed=5)
        sizes = [1251, 1250, 1250, 1250, 1251, 1251, 1250, 1250, 2501, 2500, 2500, 2500]
        keys = [(key, i) for key in (0, 1, 4) for i in range(4)]
        assert lanes == [(_stream(5, *key).bit_generator.state, n) for key, n in zip(keys, sizes)]

    def test_lanes_never_reuse_a_realizations_streams(self, monkeypatch):
        # Called with a realization's own seed, no oracle lane draws what the realization drew.
        real = make_realization(5, K=3, L=2)
        eta = eta_from_delta(real, 0.7)
        keys, stream = set(), metrics._stream
        monkeypatch.setattr(metrics, "_stream", lambda seed, *key: keys.add(key) or stream(seed, *key))
        mc_oracle(real, zero_A(3), eta, 10_000, seed=5)
        mc_combiner_mse(real, zero_A(3), eta, np.ones(2), 10_000, seed=5)
        statistical_csi_check(ScenarioConfig(num_users=3, num_eavesdroppers=2), 1000, seed=5)
        assert keys == {(key, i) for key in (0, 1, 4, 9) for i in range(4)}
        realization = [(0,), (1,)] + [(2, ell) for ell in range(16)]
        first = {key: _stream(5, *key).random(4).tobytes() for key in [*keys, *realization]}
        assert not {first[key] for key in keys} & {first[key] for key in realization}

    @pytest.mark.parametrize("num_samples", [10_001, 4 * 4 * 4096 + 7])
    def test_reports_do_not_depend_on_the_core_count(self, monkeypatch, num_samples):
        real = make_realization(35, K=6, L=3)
        eta = eta_from_delta(real, 0.6)
        A = build_precoder("mixture", real, eta, seed=3, params={"theta": 0.5}).A
        p = coop_security(real, A, eta)[1]
        started = []

        class Pool(metrics.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(metrics, "ThreadPoolExecutor", Pool)
        reports = []
        for cores in (1, 2, 4, 16):
            monkeypatch.setattr(metrics, "_cores", lambda: cores)
            reports.append(
                (mc_oracle(real, A, eta, num_samples, seed=6), mc_combiner_mse(real, A, eta, p, num_samples, seed=6))
            )
        assert reports[1:] == reports[:1] * 3
        assert started == [1, 1, 1, 2, 2, 2, 4, 4, 4, 4, 4, 4]  # two phases of mc_oracle, one of mc_combiner_mse

    def test_sample_count_off_the_chunk_grid(self):
        real = make_realization(32, K=3, L=2)
        eta = eta_from_delta(real, 0.7)
        A = build_precoder("random_zf", real, eta, seed=2).A
        num_samples = 3 * _LANES * _LANE_CHUNK + 7
        a = mc_oracle(real, A, eta, num_samples, seed=5)
        assert a == mc_oracle(real, A, eta, num_samples, seed=5)
        assert a.num_samples == num_samples
        assert np.isfinite([a.D_hat, a.S_hat, a.std_err_D, a.std_err_S]).all()

    def test_lane_blocks_do_not_depend_on_the_chunk_size(self, monkeypatch):
        real = make_realization(34, K=5, L=3)
        eta = eta_from_delta(real, 0.6)
        A = build_precoder("random_zf", real, eta, seed=3).A
        n = 2 * 12288 + 3 * 64 + 17  # off the block grid and every chunk grid below
        lanes, calls = [], []
        for chunk in (64, 4096, 12288):
            monkeypatch.setattr(metrics, "_LANE_CHUNK", chunk)
            blocks = list(_lane_blocks(_stream(6, 1, 2), real, A, eta, n))
            calls.append([len(u) for u in blocks])
            lanes.append(lane_samples(blocks))
        assert calls == [[1] * 388, [64] * 6 + [3, 1], [192, 192, 3, 1]]
        assert lanes[0].shape == (real.num_eavesdroppers + 2, n)
        assert all(np.array_equal(u, lanes[0]) for u in lanes[1:])

    # float.hex of (D_hat, S_hat, std_err_D, std_err_S) and of mc_combiner_mse at the optimal combiner.
    PINNED = {
        (36, 5, 3, "random_zf", 0.6, 2 * 4 * 2 * 4096): (
            ("0x1.a3a09b47e4d88p-5", "0x1.b974775db6ce1p-1", "0x1.29501a34f8660p-12", "0x1.3a64f39003a3ap-8"),
            ("0x1.be6d4710271d4p-1", "0x1.bea816b6b5996p-9"),
        ),
        (37, 7, 4, "mixture", 0.8, 4 * 3 * 4096 + 4 * 3 * 64 + 23): (  # off the block and chunk grids
            ("0x1.f9620d8adea31p-1", "0x1.6637d5fcde2bfp-1", "0x1.9308b037dd173p-8", "0x1.20c4a0f26cea7p-8"),
            ("0x1.666592892d03ap-1", "0x1.9adc5b517c818p-9"),
        ),
    }

    @pytest.mark.parametrize("case", PINNED, ids=["on_grid", "off_grid"])
    def test_reports_are_pinned(self, case):
        # Any change to the lanes' draws or to the order of their sums moves these bits.
        seed, K, L, kind, delta, num_samples = case
        real = make_realization(seed, K=K, L=L)
        eta = eta_from_delta(real, delta)
        A = build_precoder(kind, real, eta, seed=seed, params={"theta": 0.4} if kind == "mixture" else None).A
        p = coop_security(real, A, eta)[1]
        rep = mc_oracle(real, A, eta, num_samples, seed=seed)
        combiner = mc_combiner_mse(real, A, eta, p, num_samples, seed=seed)
        oracle = (rep.D_hat, rep.S_hat, rep.std_err_D, rep.std_err_S)
        assert (tuple(map(float.hex, oracle)), tuple(map(float.hex, combiner))) == self.PINNED[case]

    def test_combiner_simulation_detects_sign_flip(self):
        real = make_realization(8, K=4, L=2)
        eta = eta_from_delta(real, 0.8)
        S, p_opt = coop_security(real, zero_A(4), eta)
        good, se = mc_combiner_mse(real, zero_A(4), eta, p_opt, 10**5, seed=4)
        assert abs(good - S) <= 4.0 * se
        bad, se_bad = mc_combiner_mse(real, zero_A(4), eta, -p_opt, 10**5, seed=4)
        assert bad - S > 10.0 * se_bad  # the flipped combiner is visibly worse


class TestOracleInputs:
    """Inputs no oracle can simulate raise before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def draw(*args):
            raise AssertionError("the oracle drew samples")

        monkeypatch.setattr(metrics, "_lane_blocks", draw)

    @staticmethod
    def case(name):
        real = make_realization(33, K=4, L=2)
        eta = eta_from_delta(real, 0.5)
        A, p, num_samples = build_precoder("random_zf", real, eta, seed=1).A, np.ones(2), 10**4
        if name == "few_samples":
            num_samples = 10**4 - 1
        elif name == "snr_axis":
            real = over_noise(real, [0.1, 1.0])[0]
        elif name == "nan_A":
            A = A.copy()
            A[1, 2] = np.nan
        elif name == "inf_eta":
            eta = np.inf
        elif name == "nan_eta":
            eta = np.nan
        elif name == "negative_eta":
            eta = -0.5
        elif name == "short_A":
            A = A[:3]
        elif name == "stacked_A":
            A = np.stack([A, A])
        elif name == "eta_array":
            eta = np.array([eta, eta])
        return real, A, eta, p, num_samples

    BAD = [
        "few_samples", "snr_axis", "nan_A", "inf_eta", "nan_eta", "negative_eta", "short_A", "stacked_A", "eta_array"
    ]

    @pytest.mark.parametrize("name", BAD)
    def test_mc_oracle(self, name):
        real, A, eta, _, num_samples = self.case(name)
        with pytest.raises(ContractError):
            mc_oracle(real, A, eta, num_samples, seed=1)

    @pytest.mark.parametrize("name", BAD)
    def test_mc_combiner_mse(self, name):
        real, A, eta, p, num_samples = self.case(name)
        with pytest.raises(ContractError):
            mc_combiner_mse(real, A, eta, p, num_samples, seed=1)

    @pytest.mark.parametrize("p", [[1.0, np.nan], [np.inf, 1.0], [1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_mc_combiner_mse_bad_combiner(self, p):
        real, A, eta, _, _ = self.case("good")
        with pytest.raises(ContractError, match="p must be 2 finite values"):
            mc_combiner_mse(real, A, eta, p, 10**4, seed=1)


class TestStatisticalCsi:
    def test_uniform_phases_have_zero_crosscov(self):
        config = ScenarioConfig(num_users=4, num_eavesdroppers=2)
        rep = statistical_csi_check(config, 20_000, seed=13)
        assert np.all(np.abs(rep.crosscov) <= 4.0 * rep.std_err)
        assert rep.max_abs_crosscov <= 4.0 * np.max(rep.std_err)

    def test_deterministic_channel_recovers_mean_vector(self):
        config = ScenarioConfig(num_users=4, num_eavesdroppers=2)
        rep = statistical_csi_check(config, 50_000, seed=14, randomize_phases=False)
        from otasec.channel import sample_realization

        real = sample_realization(config, 14)
        eta = eta_from_delta(real, 1.0)
        _, m = eavesdropper_moments(real, zero_A(4), eta)
        assert np.all(np.abs(rep.crosscov - m) <= 5.0 * rep.std_err)

    def test_noise_only_signal_is_independent(self):
        config = ScenarioConfig(num_users=4, num_eavesdroppers=2)
        rep = statistical_csi_check(config, 20_000, seed=15, eta=0.0)
        assert np.all(np.abs(rep.crosscov) <= 4.0 * rep.std_err)

    @pytest.mark.parametrize("count", [0, -1])
    def test_rejects_an_empty_ensemble(self, count, monkeypatch):
        monkeypatch.setattr(metrics, "sample_realization", None)  # nothing may be drawn
        config = ScenarioConfig(num_users=4, num_eavesdroppers=2)
        with pytest.raises(ContractError, match="num_realizations must be at least 1"):
            statistical_csi_check(config, count, seed=1)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -1.0])
    def test_rejects_a_bad_eta(self, eta, monkeypatch):
        monkeypatch.setattr(metrics, "sample_realization", None)  # nothing may be drawn
        config = ScenarioConfig(num_users=4, num_eavesdroppers=2)
        with pytest.raises(ContractError, match="eta must be finite and nonnegative"):
            statistical_csi_check(config, 100, seed=1, eta=eta)

    def test_rejects_an_eta_array(self, monkeypatch):
        # An eta array would broadcast against the eavesdropper axis and mix the entries.
        monkeypatch.setattr(metrics, "sample_realization", None)  # nothing may be drawn
        config = ScenarioConfig(num_users=4, num_eavesdroppers=2)
        with pytest.raises(ContractError, match="a scalar eta"):
            statistical_csi_check(config, 100, seed=1, eta=np.array([0.1, 0.2]))

    def test_default_eta_is_the_no_noise_maximum(self):
        from otasec.channel import sample_realization

        config = ScenarioConfig(num_users=4, num_eavesdroppers=2)
        eta = eta_from_delta(sample_realization(config, 16), 1.0)
        default = statistical_csi_check(config, 1000, seed=16)
        explicit = statistical_csi_check(config, 1000, seed=16, eta=eta)
        assert default.crosscov.tobytes() == explicit.crosscov.tobytes()

    # float.hex of crosscov's real parts, its imaginary parts, then std_err.
    PINNED = (
        "-0x1.240cd44db3d6cp-17", "0x1.736352bf4c79ep-21", "0x1.edd7c10dd0dd8p-21",
        "-0x1.40262430fb97ep-18", "0x1.6dc2199652dfbp-21", "0x1.6b60a03c4bd43p-20",
        "0x1.a6cf83153bedbp-17", "0x1.822042da1be28p-20", "0x1.639805f618245p-19",
    )

    def test_report_is_pinned_on_any_core_count(self, monkeypatch):
        # Any change to the lanes' draws or to the order of their sums moves these bits.
        config = ScenarioConfig(num_users=5, num_eavesdroppers=3)
        num_draws = 2 * 4 * 4096 + 4 * 64 + 29  # off the 4,096-draw grid
        for cores in (1, 4):
            monkeypatch.setattr(metrics, "_cores", lambda: cores)
            rep = statistical_csi_check(config, num_draws, seed=17)
            values = np.concatenate([rep.crosscov.real, rep.crosscov.imag, rep.std_err])
            assert rep.num_draws == num_draws and tuple(map(float.hex, values.tolist())) == self.PINNED

    def test_requires_complex_fading(self):
        config = ScenarioConfig(num_users=4, num_eavesdroppers=2, fading_mode="real")
        with pytest.raises(ContractError):
            statistical_csi_check(config, 10_000, seed=1)
