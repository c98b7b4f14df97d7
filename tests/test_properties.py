"""Property tests of the stacked closed forms, the stacked LPs and the optimized designs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from otasec.encoding import build_precoder, eta_from_delta, mixture_precoders, row_budgets  # noqa: E402
from otasec.metrics import (  # noqa: E402
    approximation_error,
    coop_security,
    noncoop_security,
)
from otasec.lp import LpProblem, solve_lp  # noqa: E402

from conftest import make_realization, one_design, over_noise  # noqa: E402
from test_lp import looped_solve  # noqa: E402

cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "K": st.integers(2, 8),
        "L": st.integers(1, 6),
        "snr_db": st.sampled_from([-10.0, 0.0, 10.0, 20.0]),
        "fading_mode": st.sampled_from(["complex", "real"]),
        "delta": st.floats(0.05, 1.0),
        "seeds": st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        "thetas": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    }
)


def build(case):
    real = make_realization(
        case["seed"], K=case["K"], L=case["L"], snr_db=case["snr_db"],
        fading_mode=case["fading_mode"],
    )
    eta = eta_from_delta(real, case["delta"])
    return real, eta, mixture_precoders(real, eta, case["seeds"], case["thetas"])


noise_factors = st.lists(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e3]), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(cases, noise_factors)
@example(  # a subnormal theta: the mixture's rescale by its largest entry returned NaN
    dict(seed=2, K=2, L=1, snr_db=-10.0, fading_mode="complex", delta=1.0, seeds=[4301], thetas=[5e-324]),
    [1.0],
)
def test_stacked_metrics_equal_the_looped_calls(case, factors):
    real, eta, stack = build(case)
    D = approximation_error(real, stack, eta)
    S, p_opt = coop_security(real, stack, eta)
    S_non, per_eav = noncoop_security(real, stack, eta)
    for idx in np.ndindex(*stack.shape[:2]):
        A = stack[idx]
        assert np.array_equal(D[idx], approximation_error(real, A, eta))
        S1, p1 = coop_security(real, A, eta)
        assert np.array_equal(S[idx], S1) and np.array_equal(p_opt[idx], p1)
        S_non1, per1 = noncoop_security(real, A, eta)
        assert np.array_equal(S_non[idx], S_non1) and np.array_equal(per_eav[idx], per1)
    # A noise axis broadcast against the stack: entry (..., s) is the call at noise s.
    noisy, per_snr = over_noise(real, real.sigma_z_sq * np.asarray(factors))
    D = approximation_error(noisy, stack[..., None, :, :], eta)
    S, p_opt = coop_security(noisy, stack[..., None, :, :], eta)
    S_non, per_eav = noncoop_security(noisy, stack[..., None, :, :], eta)
    for at in np.ndindex(*D.shape):
        one, A = per_snr[at[-1]], stack[at[:-1]]
        assert np.array_equal(D[at], approximation_error(one, A, eta))
        S1, p1 = coop_security(one, A, eta)
        assert np.array_equal(S[at], S1) and np.array_equal(p_opt[at], p1)
        S_non1, per1 = noncoop_security(one, A, eta)
        assert np.array_equal(S_non[at], S_non1) and np.array_equal(per_eav[at], per1)


@settings(max_examples=40, deadline=None)
@given(cases)
def test_cooperation_never_raises_security(case):
    real, eta, stack = build(case)
    S, _ = coop_security(real, stack, eta)
    S_non, _ = noncoop_security(real, stack, eta)
    assert np.all(S <= S_non + 1e-12)


@settings(max_examples=40, deadline=None)
@given(cases)
def test_mixtures_stay_within_row_budgets(case):
    real, eta, stack = build(case)
    powers = np.sum(np.abs(stack) ** 2, axis=-1)
    assert np.all(powers <= row_budgets(real, eta) + 1e-12 * real.P)


@settings(max_examples=40, deadline=None)
@given(cases, st.sampled_from(["none", "signal_level", "data_level", "random_zf"]))
def test_unoptimized_precoders_stay_within_row_budgets(case, kind):
    real = make_realization(
        case["seed"], K=case["K"], L=case["L"], snr_db=case["snr_db"],
        fading_mode=case["fading_mode"],
    )
    eta = eta_from_delta(real, case["delta"])
    A = build_precoder(kind, real, eta, seed=case["seeds"][0]).A
    powers = np.sum(np.abs(A) ** 2, axis=-1)
    assert np.all(powers <= row_budgets(real, eta) + 1e-12 * real.P)


@settings(max_examples=40, deadline=None)
@given(cases, st.sampled_from([1, 2]), st.sampled_from(["exhaustive", "best_channel"]))
def test_optimized_designs_zero_force_within_budgets(case, N, selection):
    real = make_realization(
        case["seed"], K=max(case["K"], N + 1), L=case["L"], snr_db=case["snr_db"],
        fading_mode=case["fading_mode"],
    )
    eta = eta_from_delta(real, case["delta"])
    A = one_design(real, eta, N, selection).A
    powers = np.sum(np.abs(A) ** 2, axis=-1)
    assert np.all(powers <= row_budgets(real, eta) + 1e-12 * real.P)
    assert np.max(np.abs(real.h @ A)) <= 1e-10 * np.linalg.norm(real.h) * np.linalg.norm(A)
    no_noise = np.zeros((real.num_users, 1), dtype=np.complex128)
    assert abs(approximation_error(real, A, eta) - approximation_error(real, no_noise, eta)) <= 1e-12


lp_stacks = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "B": st.integers(2, 6),
        "m": st.integers(1, 6),
        "n": st.integers(1, 5),
        "sparsity": st.sampled_from([0.0, 0.3, 0.6]),
    }
)


@settings(max_examples=60, deadline=None)
@given(lp_stacks)
def test_stacked_lp_equals_the_looped_one(case):
    # Sparse rows and signed-zero right-hand sides make signed zeros, tied
    # ratios and degenerate pivots; columns with no positive entry make
    # unbounded LPs.
    rng = np.random.default_rng(case["seed"])
    B, m, n = case["B"], case["m"], case["n"]
    M = rng.standard_normal((B, m, n)) * (rng.random((B, m, n)) >= case["sparsity"])
    b = rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0], size=(B, m)) * rng.uniform(0.5, 1.0, (B, 1))
    c = rng.standard_normal((B, n))
    (stacked,) = solve_lp(LpProblem(c, M, b))
    for i in range(B):
        status, x, _, pivots = looped_solve(LpProblem(c[i], M[i], b[i]))
        assert stacked.status[i] == status
        assert stacked.x[i].tobytes() == x.tobytes()
        assert stacked.pivots[i] == pivots
