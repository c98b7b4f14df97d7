import dataclasses

import numpy as np
import pytest

from otasec import ScenarioConfig, sample_realization
from otasec.channel import SystemRealization
from otasec.optimizer import optimize_designs


# Exhaustive designs whose allocation LPs spun to the iteration limit or were reported
# unbounded while t was scaled by the smallest alpha alone:
# (K, L, snr_db, delta, fading_mode, seed, N).
ILL_SCALED_DESIGNS = [
    (10, 15, 20.0, 1e-6, "complex", 8, 3),
    (10, 15, 20.0, 1e-6, "complex", 14, 3),
    (10, 15, 20.0, 1e-6, "real", 8, 3),
    (12, 14, 20.0, 0.1, "real", 241, 1),
]


def make_realization(seed, K=4, L=2, snr_db=10.0, fading_mode="complex", **kwargs):
    config = ScenarioConfig(
        num_users=K, num_eavesdroppers=L, snr_db=snr_db, fading_mode=fading_mode, **kwargs
    )
    return sample_realization(config, seed)


def synthetic_realization(h, G, P=1.0, sigma_y_sq=1.0, sigma_z_sq=1.0):
    """Hand-crafted channels for closed-form corner cases."""
    h = np.asarray(h, dtype=np.complex128)
    G = np.atleast_2d(np.asarray(G, dtype=np.complex128))
    K = h.shape[0]
    L = G.shape[0]
    return SystemRealization(
        user_positions=np.zeros((K, 2)),
        eav_positions=np.zeros((L, 2)),
        h=h,
        G=G,
        P=float(P),
        sigma_y_sq=float(sigma_y_sq),
        sigma_z_sq=float(sigma_z_sq),
    )


def started_trial(preset, r):
    """Trial ``r`` of ``preset``, given its realizations drawn alone, and its design requests."""
    from otasec import experiments

    spec = experiments._PRESETS[preset.name]
    seed = preset.base_seed + r
    trial = spec.trial(preset, seed, *(sample_realization(config, seed) for config in spec.draws(preset)))
    return trial, next(trial)


def one_design(real, eta, N=1, selection="best_channel"):
    """One optimized design, ``optimize_designs``' one-request case; by default the proposed design."""
    return optimize_designs([(real, eta, N, selection)])[0]


def over_noise(real, sigmas):
    """``real`` with one noise variance per entry of ``sigmas``, and the scalar-noise realization of each."""
    sigmas = np.asarray(sigmas, dtype=float)
    stacked = dataclasses.replace(real, sigma_y_sq=sigmas, sigma_z_sq=sigmas)
    return stacked, [dataclasses.replace(real, sigma_y_sq=float(s), sigma_z_sq=float(s)) for s in sigmas]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def no_pool(monkeypatch):
    """Make any attempt to start a worker pool fail the test."""
    from otasec import experiments

    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", refuse)


@pytest.fixture
def lp_calls(monkeypatch):
    """The optimizer's ``solve_lp`` calls, each as ``(LPs, rejected)``: ``rejected`` counts the other SNRs' members
    that its ranging problems did not accept, and is None for a call of cold LPs alone."""
    from otasec import optimizer
    from otasec.lp import _Ranging

    calls, solve = [], optimizer.solve_lp

    def recording(*problems):
        solutions = solve(*problems)
        ranged = [solution for problem, solution in zip(problems, solutions) if isinstance(problem, _Ranging)]
        rejected = sum(np.count_nonzero(~solution.accepted) for solution in ranged) if ranged else None
        calls.append((sum(p.objective[..., 0].size for p in problems), rejected))
        return solutions

    monkeypatch.setattr(optimizer, "solve_lp", recording)
    return calls


def first_rounds(calls, complete=True):
    """The LPs of each first-round call of ``lp_calls``' record, in order.

    Checks that each cold call holds exactly the members that the call before it rejected, and, if ``complete``
    (no design raised), that every call that rejected some members is followed by their cold call.
    """
    firsts = []
    for at, (lps, rejected) in enumerate(calls):
        if rejected is None:
            assert at and calls[at - 1][1] == lps
        else:
            firsts.append(lps)
            assert not (complete and rejected) or calls[at + 1 : at + 2] == [(rejected, None)]
    return firsts


def assert_within(actual, expected, rtol=1e-12):
    """``actual`` equals ``expected`` within ``rtol`` of the largest magnitude along the last axis."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = np.abs(expected).max(axis=-1, keepdims=True, initial=0.0)
    assert np.all(np.abs(actual - expected) <= rtol * scale)
