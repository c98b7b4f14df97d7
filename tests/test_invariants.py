"""Cross-module invariants over a grid of parameter corners.

Each case runs the full pipeline (sample, build every precoder family,
evaluate all metrics, optimize) and asserts the contracts that must hold for
any input: power budgets, zero-forcing, metric ranges, cooperation dominance,
and that optimized noise never helps the eavesdroppers.  Then the tables and
metrics must not move under transformations that change no physics: the units
of power and of the channels, a per-user phase, a relabelling of users or eavesdroppers, and a
unitary mixing of the pooled eavesdroppers' observations.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from otasec import ScenarioConfig, sample_realization
from otasec.encoding import PRECODER_KINDS, build_precoder, eta_from_delta
from otasec.experiments import default_preset, run_preset
from otasec import optimizer
from otasec.metrics import approximation_error, coop_security, evaluate, noncoop_security
from otasec.optimizer import TIE_ATOL, optimize_designs

from conftest import one_design

CORNERS = list(
    itertools.product(
        [(2, 1), (3, 4), (10, 5)],  # (K, L)
        [-30.0, 10.0, 30.0],  # snr_db
        [0.0, 0.6, 1.0],  # delta
    )
)


@pytest.mark.parametrize("dims,snr_db,delta", CORNERS)
def test_pipeline_invariants(dims, snr_db, delta):
    K, L = dims
    config = ScenarioConfig(num_users=K, num_eavesdroppers=L, snr_db=snr_db)
    real = sample_realization(config, seed=K * 1000 + L * 100 + int(10 * delta))
    eta = eta_from_delta(real, delta)
    budgets = real.P - eta**2 / np.abs(real.h) ** 2
    base = evaluate(real, np.zeros((K, 1), dtype=complex), eta)
    for kind in PRECODER_KINDS:
        if kind == "proposed_shared" and K == 2:
            continue  # sharing needs N = 2 <= K - 1
        prec = build_precoder(kind, real, eta, seed=7, params={"theta": 0.5, "N": 2})
        assert prec.A.shape == (K, prec.noise_dim)
        assert 1 <= prec.noise_dim <= K
        assert np.max(prec.row_powers() - budgets) <= 1e-12 * real.P
        if prec.kind in ("random_zf", "proposed", "proposed_shared"):
            leak = np.linalg.norm(real.h @ prec.A)
            assert leak <= 1e-10 * np.linalg.norm(real.h) * max(
                np.linalg.norm(prec.A), 1e-300
            )
        report = evaluate(real, prec.A, eta)
        assert 0.0 <= report.D <= 1.0
        assert 0.0 <= report.S_coop <= report.S_noncoop + 1e-10
        assert report.S_noncoop <= 1.0
        assert report.S_noncoop == np.min(report.per_eav_security)
        if prec.kind in ("proposed", "proposed_shared"):
            s_prec, _ = noncoop_security(real, prec.A, eta)
            s_none, _ = noncoop_security(real, np.zeros((K, 1), dtype=complex), eta)
            assert s_prec >= s_none - 1e-12
            assert abs(report.D - base.D) <= 1e-12


@pytest.mark.parametrize("mode", ["complex", "real"])
@pytest.mark.parametrize("collocated", [False, True])
def test_pipeline_invariants_mode_corners(mode, collocated):
    config = ScenarioConfig(
        num_users=4,
        num_eavesdroppers=3,
        fading_mode=mode,
        collocated_eavesdroppers=collocated,
        snr_db=0.0,
    )
    real = sample_realization(config, seed=5)
    eta = eta_from_delta(real, 0.7)
    for N in (1, 2, 3):
        prec = one_design(real, eta, N, "exhaustive")
        assert len(prec.zf_users) == N
        assert abs(float(np.sum(prec.zf_weights)) - 1.0) <= 1e-12
        report = evaluate(real, prec.A, eta)
        assert report.S_coop <= report.S_noncoop + 1e-10


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("power_control", dict(num_realizations=3)),
        ("shared_zf", dict(num_realizations=2, sweep_values=(0.0, 20.0), l_values=(3, 5), num_users=6)),
    ],
)
def test_tables_do_not_depend_on_the_unit_of_power(name, sizes):
    # calibrate_noise makes the noise variances proportional to P, so the transmit power only sets a unit.
    tables = [run_preset(default_preset(name, transmit_power=p, **sizes)).rows for p in (1e-9, 1.0, 1e9)]
    for rows in (tables[0], tables[2]):
        np.testing.assert_allclose(rows, tables[1], rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# Metamorphic relations: transformations of the input that the system model says change no metric.  Each
# expectation is the same code at the untransformed input, never the algebra under test.
# ---------------------------------------------------------------------------

META_DESIGNS = ((1, "best_channel"), (2, "exhaustive"))
META_DELTA = 0.7


def meta_cases():
    """A seeded grid of (realization, fixed precoder): K 3-10, L 1-8, 0/20/40 dB, both fadings."""
    rng = np.random.default_rng(20261020)
    cases = []
    for i in range(12):
        K, L = int(rng.integers(3, 11)), int(rng.integers(1, 9))
        config = ScenarioConfig(num_users=K, num_eavesdroppers=L, snr_db=(0.0, 20.0, 40.0)[i % 3],
                                fading_mode=("complex", "real")[i % 2])
        real = sample_realization(config, seed=100 + i)
        cases.append((real, build_precoder("random_zf", real, eta_from_delta(real, META_DELTA), seed=i).A))
    return cases


def tied_subsets(real, eta, N, selection) -> bool:
    """Whether the design's two best subsets score within ``TIE_ATOL``: the pick may then follow the order."""
    if selection != "exhaustive":
        return False
    subsets = list(itertools.combinations(range(real.num_users), N))
    with pytest.MonkeyPatch.context() as patch:  # each request's selection names its one subset
        patch.setattr(optimizer, "_subsets", lambda h, N, Z: np.array([[[*np.setdiff1d(range(h.shape[-1]), Z), *Z]]]))
        designs = optimize_designs([(real, eta, N, Z) for Z in subsets])
    scores = np.sort(noncoop_security(real, np.stack([design.A for design in designs]), eta)[0])
    return scores[-1] - scores[-2] <= TIE_ATOL


def meta_metrics(real, A, eta) -> np.ndarray:
    """(D, S_coop, S_noncoop) of ``A``, then of each design of ``META_DESIGNS``."""
    precoders = [A] + [one_design(real, eta, N, selection).A for N, selection in META_DESIGNS]
    return np.array([[approximation_error(real, B, eta), coop_security(real, B, eta)[0],
                      noncoop_security(real, B, eta)[0]] for B in precoders])


def user_phase(real, A, rng):
    u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, real.num_users))
    return dataclasses.replace(real, h=real.h * u, G=real.G * u), A * u.conj()[:, np.newaxis]


def user_permutation(real, A, rng):
    order = rng.permutation(real.num_users)
    return dataclasses.replace(real, h=real.h[order], G=real.G[:, order]), A[order]


def eavesdropper_permutation(real, A, rng):
    return dataclasses.replace(real, G=real.G[rng.permutation(real.num_eavesdroppers)]), A


def power_unit(c):
    def scaled(real, A, rng):
        noise = dict(sigma_y_sq=real.sigma_y_sq * c, sigma_z_sq=real.sigma_z_sq * c)
        return dataclasses.replace(real, P=real.P * c, **noise), A * np.sqrt(c)

    return scaled


def channel_unit(c):
    def scaled(real, A, rng):
        noise = dict(sigma_y_sq=real.sigma_y_sq * c**2, sigma_z_sq=real.sigma_z_sq * c**2)
        return dataclasses.replace(real, h=real.h * c, G=real.G * c, **noise), A

    return scaled


RELATIONS = {
    "user_phase": (user_phase, 1e-12),
    "user_permutation": (user_permutation, 1e-12),
    "eavesdropper_permutation": (eavesdropper_permutation, 1e-12),
    "power_unit_1e-9": (power_unit(1e-9), 1e-9),
    "power_unit_1e9": (power_unit(1e9), 1e-9),
    "channel_unit_1e-100": (channel_unit(1e-100), 1e-12),
    "channel_unit_1e100": (channel_unit(1e100), 1e-12),
}


@pytest.fixture(scope="module")
def meta_grid():
    """Each case with its untransformed metrics, and which of its designs to leave out for tied subsets."""
    grid = []
    for real, A in meta_cases():
        eta = eta_from_delta(real, META_DELTA)
        keep = [True] + [not tied_subsets(real, eta, *design) for design in META_DESIGNS]
        grid.append((real, A, meta_metrics(real, A, eta), np.array(keep)))
    return grid


@pytest.mark.parametrize("relation", RELATIONS)
def test_metamorphic_relation(meta_grid, relation):
    transform, tol = RELATIONS[relation]
    rng = np.random.default_rng(7)
    kept = 0
    for real, A, expected, keep in meta_grid:
        moved, A_moved = transform(real, A, rng)
        got = meta_metrics(moved, A_moved, eta_from_delta(moved, META_DELTA))
        np.testing.assert_allclose(got[keep], expected[keep], rtol=0.0, atol=tol, err_msg=relation)
        kept += keep.sum()
    assert kept >= 0.9 * 3 * len(meta_grid)  # ties leave out only a few designs


def test_unitary_mixing_of_the_eavesdroppers_keeps_s_coop(meta_grid):
    # Pooled eavesdroppers that mix their observations by a unitary Q learn exactly as much: B -> Q B Q^H, m -> Q m.
    rng = np.random.default_rng(8)
    for real, A, expected, _ in meta_grid:
        L = real.num_eavesdroppers
        Q, _ = np.linalg.qr(rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L)))
        moved = dataclasses.replace(real, G=Q @ real.G)
        assert abs(coop_security(moved, A, eta_from_delta(moved, META_DELTA))[0] - expected[0, 1]) <= 1e-10
