import dataclasses
import inspect
import os

import numpy as np
import pytest

from otasec import errors, experiments, metrics, optimizer
from otasec.channel import calibrate_noise, sample_realization
from otasec.encoding import build_precoder, eta_bounds_given_mu, eta_from_delta
from otasec.errors import ConfigurationError, ContractError
from otasec.experiments import (
    PRESET_NAMES,
    TRADEOFF_KINDS,
    ResultTable,
    _map_trials,
    collect_trials,
    default_preset,
    read_table,
    run_preset,
    write_table,
)
from otasec.metrics import approximation_error, closed_forms, coop_security, noncoop_security
from otasec.optimizer import optimize_designs

from conftest import first_rounds, one_design, started_trial


def small(name, **overrides):
    """Shrunken preset for fast tests."""
    defaults = dict(num_realizations=4, base_seed=11)
    if name in ("sweep_snr_designs", "security_gap", "collocated", "power_control"):
        defaults["sweep_values"] = (-10.0, 0.0, 10.0)
    elif name == "sweep_L":
        defaults["sweep_values"] = tuple(range(1, 7))
    elif name == "shared_zf":
        defaults.update(sweep_values=(0.0, 10.0), l_values=(2, 3), num_users=5)
    elif name == "tradeoff":  # one realization, as for eta_design_space
        defaults.update(sweep_values=(0.2, 0.6, 1.0), mixture_pairs=3, mixture_thetas=5, num_realizations=1)
    elif name == "eta_design_space":
        defaults.update(sweep_values=tuple(np.linspace(0.01, 1.0, 25)), num_realizations=1)
    defaults.update(overrides)
    return default_preset(name, **defaults)


class TestPresetFactory:
    def test_all_names_construct(self):
        for name in PRESET_NAMES:
            preset = default_preset(name)
            assert preset.name == name
            assert len(preset.sweep_values) > 0

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            default_preset("nosuchpreset")

    def test_overrides_route_to_config_and_preset(self):
        preset = default_preset("sweep_L", num_users=6, num_realizations=7, base_seed=3)
        assert preset.config.num_users == 6
        assert preset.num_realizations == 7
        assert preset.base_seed == 3
        with pytest.raises(ConfigurationError):
            default_preset("sweep_L", not_a_field=1)


# A valid value, other than the default, of each preset-specific field.
PRESET_FIELDS = dict(
    designs=("none", "proposed"),
    delta=0.5,
    delta_grid=(0.5, 1.0),
    l_values=(2,),
    shared_n_values=(1,),
    power_levels=(2.0,),
    precoder_kind="proposed",
    mixture_pairs=2,
    mixture_thetas=3,
)
# A value, other than the default, of each scenario field that some preset does not use.
SWEPT_FIELDS = dict(snr_db=5.0, num_eavesdroppers=3, collocated_eavesdroppers=True)


class TestFieldsRead:
    """A preset reads exactly the fields its registry entry names, and default_preset rejects the others."""

    @pytest.fixture(scope="class")
    def tables(self):
        return {name: run_preset(small(name, num_realizations=1), threads=1) for name in PRESET_NAMES}

    @staticmethod
    def same(a, b):
        return (a.column_names, a.metadata, a.rows.tobytes()) == (b.column_names, b.metadata, b.rows.tobytes())

    @pytest.mark.parametrize("field", list(PRESET_FIELDS))
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_a_preset_field_changes_the_table_or_is_rejected(self, tables, name, field):
        value = PRESET_FIELDS[field]
        # Set around default_preset, the field changes the table exactly when the preset reads it.
        table = run_preset(dataclasses.replace(small(name, num_realizations=1), **{field: value}), threads=1)
        reads = field in experiments._PRESETS[name].reads
        assert self.same(table, tables[name]) != reads
        if reads:
            assert getattr(small(name, **{field: value}), field) == value
        else:
            with pytest.raises(ConfigurationError, match=f"^preset {name} ignores {field}: "):
                small(name, **{field: value})

    @pytest.mark.parametrize("field", list(SWEPT_FIELDS))
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_a_scenario_field_the_sweep_sets_is_rejected(self, tables, name, field):
        value = SWEPT_FIELDS[field]
        if field not in experiments._PRESETS[name].sets:
            assert getattr(small(name, **{field: value}).config, field) == value
            return
        base = small(name, num_realizations=1)
        table = run_preset(dataclasses.replace(base, config=dataclasses.replace(base.config, **{field: value})))
        table.metadata["config"] = tables[name].metadata["config"]  # the one line that moves
        assert self.same(table, tables[name])
        with pytest.raises(ConfigurationError, match=f"^preset {name} ignores {field}: "):
            small(name, **{field: value})


class TestDeterminism:
    @pytest.mark.parametrize("name", ["sweep_L", "sweep_snr_designs", "tradeoff"])
    def test_rerun_is_identical(self, name):
        a = run_preset(small(name))
        b = run_preset(small(name))
        assert a.column_names == b.column_names
        assert np.array_equal(a.rows, b.rows)

    def test_thread_count_does_not_change_results(self):
        preset = small("sweep_snr_designs", designs=("none", "proposed"))
        serial = run_preset(preset, threads=1)
        threaded = run_preset(preset, threads=4)
        assert np.array_equal(serial.rows, threaded.rows)

    def test_written_files_are_byte_identical(self, tmp_path):
        preset = small("sweep_L")
        pa, pb = tmp_path / "a.dat", tmp_path / "b.dat"
        write_table(run_preset(preset, threads=1), pa)
        write_table(run_preset(preset, threads=3), pb)
        assert pa.read_bytes() == pb.read_bytes()


ERROR_CLASSES = [
    obj for obj in vars(errors).values() if inspect.isclass(obj) and obj.__module__ == errors.__name__
]


class TestWorkers:
    def test_default_starts_no_pool(self, no_pool):
        preset = small("sweep_L")
        assert np.array_equal(run_preset(preset).rows[:, 1:], collect_trials(preset).mean(axis=0))

    @pytest.mark.parametrize("workers, n", [(1, 4), (4, 1), (None, 4)])
    def test_one_worker_or_one_trial_runs_serially(self, no_pool, workers, n):
        assert _map_trials(lambda r: r * r, n, workers) == [r * r for r in range(n)]

    @pytest.mark.parametrize("workers, n, cores, started", [(500, 3, 8, 3), (500, 50, 2, 2), (4, 50, None, 1)])
    def test_threads_capped_at_trials_and_cores(self, monkeypatch, workers, n, cores, started):
        seen = []

        class Pool(experiments.ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", Pool)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # cores as os.cpu_count() says
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert _map_trials(lambda r: r * r, n, workers) == [r * r for r in range(n)]
        assert seen == ([] if started == 1 else [started])

    def test_a_pinned_process_counts_its_affinity_mask(self, no_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _map_trials(lambda r: r * r, 4, 4) == [0, 1, 4, 9]

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_worker_errors_reach_the_caller_unchanged(self, cls):
        def fail(r):
            raise cls(f"trial {r} failed")

        with pytest.raises(cls) as info:
            _map_trials(fail, 2, 2)
        assert type(info.value) is cls
        assert str(info.value) == "trial 0 failed"


class TestSweepL:
    def test_shape_and_monotonicity(self):
        table = run_preset(small("sweep_L", num_realizations=20))
        assert table.column_names == ["L", "D", "S_coop", "S_noncoop"]
        l_col = table.rows[:, 0]
        assert np.array_equal(l_col, np.arange(1, 7))
        s_coop = table.rows[:, 2]
        assert np.all(np.diff(s_coop) < 0)  # joint processing improves with L
        assert np.all(table.rows[:, 1] < table.rows[:, 3])  # D below S_noncoop

    def test_per_trial_values_decrease_pointwise(self):
        for fading in ("complex", "real"):
            trials = collect_trials(small("sweep_L", sweep_values=tuple(range(1, 16)), fading_mode=fading))
            assert np.all(np.diff(trials[:, :, 1], axis=1) <= 0), fading  # S_coop
            assert np.all(np.diff(trials[:, :, 2], axis=1) <= 0), fading  # S_noncoop


def looped_sweep_L_trial(preset, r):
    """One sweep_L trial with a loop over L: both security levels on the first L eavesdroppers."""
    config = dataclasses.replace(preset.config, num_eavesdroppers=max(preset.sweep_values))
    full = sample_realization(config, preset.base_seed + r)
    eta = eta_from_delta(full, preset.delta)
    A = np.zeros((full.num_users, 1), dtype=np.complex128)
    D = approximation_error(full, A, eta)
    rows = []
    for L in preset.sweep_values:
        real = dataclasses.replace(full, eav_positions=full.eav_positions[:L], G=full.G[:L])
        rows.append([D, coop_security(real, A, eta)[0], noncoop_security(real, A, eta)[0]])
    return np.array(rows)


class TestSweepLPrefix:
    """Each trial scores every L from one evaluation at L_max; it must equal the per-L loop."""

    @pytest.mark.parametrize("K", [3, 10])
    @pytest.mark.parametrize("fading", ["complex", "real"])
    @pytest.mark.parametrize("sweep", [tuple(range(1, 16)), tuple(range(15, 0, -1)), (15, 7, 2)])
    def test_trials_equal_the_per_L_loop(self, K, fading, sweep):
        preset = small("sweep_L", num_realizations=3, num_users=K, fading_mode=fading, sweep_values=sweep)
        expected = np.stack([looped_sweep_L_trial(preset, r) for r in range(3)])
        trials = collect_trials(preset, threads=1)
        assert trials.shape == expected.shape == (3, len(sweep), 3)
        assert trials[..., [0, 2]].tobytes() == expected[..., [0, 2]].tobytes()  # D, S_noncoop
        # S_coop = 1 - q with q = ||C^{-1} m||^2 / K on both paths, but each per-L B comes from
        # its own matrix product and the loop's sum is not a cumsum, so q rounds differently.
        # Near q = 1 (K = 3) that rounding is over 1e-12 of S_coop, so compare q itself.
        np.testing.assert_allclose(1.0 - trials[..., 1], 1.0 - expected[..., 1], rtol=1e-12, atol=0.0)


class TestSnrSweep:
    def test_zero_forcing_matches_no_noise_accuracy(self):
        preset = small("sweep_snr_designs", designs=("none", "random_zf", "proposed"))
        table = run_preset(preset)
        cols = table.column_names
        d_none = table.rows[:, cols.index("D_none")]
        d_zf = table.rows[:, cols.index("D_random_zf")]
        d_prop = table.rows[:, cols.index("D_proposed")]
        assert np.max(np.abs(d_zf - d_none)) <= 1e-12
        assert np.max(np.abs(d_prop - d_none)) <= 1e-12

    def test_metric_columns_in_unit_interval(self):
        table = run_preset(small("sweep_snr_designs", designs=("none", "signal_level")))
        assert np.all(table.rows[:, 1:] >= 0.0)
        assert np.all(table.rows[:, 1:] <= 1.0)

    def test_security_gap_is_derived_difference(self):
        designs = ("none", "proposed")
        sweep = run_preset(small("sweep_snr_designs", designs=designs))
        gap = run_preset(small("security_gap", designs=designs))
        cols = sweep.column_names
        for d_idx, design in enumerate(designs):
            expected = (
                sweep.rows[:, cols.index(f"Snoncoop_{design}")]
                - sweep.rows[:, cols.index(f"Scoop_{design}")]
            )
            assert gap.rows[:, 1 + d_idx] == pytest.approx(expected, abs=1e-12)


class TestOtherPresets:
    def test_collocated_columns(self):
        table = run_preset(small("collocated"))
        assert table.column_names[0] == "snr_db"
        assert "Scoop_collocated" in table.column_names
        assert table.rows.shape == (3, 5)
        assert np.all(table.rows[:, 1:] >= 0.0) and np.all(table.rows[:, 1:] <= 1.0)

    def test_shared_zf_columns(self):
        table = run_preset(small("shared_zf", num_realizations=2))
        assert table.column_names[0] == "snr_db"
        assert "Scoop_proposed_L2" in table.column_names
        assert "Scoop_N2_L3" in table.column_names
        # Exhaustive single-user selection can only improve on the heuristic.
        for L in (2, 3):
            prop = table.rows[:, table.column_names.index(f"Scoop_proposed_L{L}")]
            n1 = table.rows[:, table.column_names.index(f"Scoop_N1_L{L}")]
            assert np.all(n1 >= prop - 1e-9)
        assert np.all(table.rows[:, 1:] >= 0.0) and np.all(table.rows[:, 1:] <= 1.0)

    def test_power_control_columns(self):
        table = run_preset(small("power_control", num_realizations=2))
        assert table.column_names == [
            "snr_db",
            "S_0.4",
            "D_0.4",
            "S_0.7",
            "D_0.7",
            "S_0.85",
            "D_0.85",
            "S_1",
            "D_1",
        ]
        # Less data power means more security and less accuracy, on average.
        assert np.all(table.rows[:, 1] >= table.rows[:, 7] - 1e-12)
        assert np.all(table.rows[:, 2] >= table.rows[:, 8] - 1e-12)
        assert np.all(table.rows[:, 1:] >= 0.0) and np.all(table.rows[:, 1:] <= 1.0)

    def test_eta_design_space(self):
        table = run_preset(small("eta_design_space"))
        assert table.column_names == [
            "mu",
            "eta_lower_P1",
            "eta_upper_P1",
            "eta_lower_P10",
            "eta_upper_P10",
        ]
        lower = table.rows[:, 1]
        assert np.all(np.diff(lower) < 0)  # accuracy slack widens the space
        assert np.all(table.rows[:, 4] >= table.rows[:, 2])  # more power, higher cap
        assert np.all(np.diff(table.rows[:, 2]) == 0)  # cap independent of mu

    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("kind", ["none", "signal_level", "data_level", "random_zf", "proposed"])
    def test_eta_design_space_equals_the_per_mu_loop(self, kind, seed):
        # Reference: the table as one scalar eta_bounds_given_mu call per mu and power level.
        preset = small("eta_design_space", precoder_kind=kind, base_seed=seed, power_levels=(1.0, 10.0, 2.5))
        real = sample_realization(preset.config, seed)
        A = build_precoder(kind, real, 0.0, seed=seed).A
        expected = []
        for mu in preset.sweep_values:
            row = [mu]
            for p in preset.power_levels:
                row += eta_bounds_given_mu(dataclasses.replace(real, P=float(p)), A, float(mu))
            expected.append(row)
        assert run_preset(preset).rows.tobytes() == np.array(expected).tobytes()

    def test_tradeoff_scatter(self):
        table = run_preset(small("tradeoff"))
        assert table.column_names == ["kind", "delta", "theta", "D", "S_coop"]
        kinds = set(table.rows[:, 0].astype(int))
        assert kinds == {0, 1, 2, 3}
        assert np.all(table.rows[:, 3] >= 0.0) and np.all(table.rows[:, 3] <= 1.0)
        assert np.all(table.rows[:, 4] >= 0.0) and np.all(table.rows[:, 4] <= 1.0)
        # Zero-forcing rows (proposed and theta=0 mixtures) keep the no-noise D.
        per_delta = {}
        for kind, delta, theta, D, S in table.rows:
            per_delta.setdefault(delta, {}).setdefault(int(kind), []).append(D)
        for delta, by_kind in per_delta.items():
            d_ref = by_kind[0][0]
            for d_zf in by_kind[2]:
                assert abs(d_zf - d_ref) <= 1e-12

    def test_tradeoff_rows_equal_the_per_precoder_loop(self):
        # Reference: one build and one score per precoder, as the stacked rows replace.
        preset = small("tradeoff", sweep_values=(0.0, 0.5, 1.0), mixture_pairs=3, mixture_thetas=11)
        real = sample_realization(preset.config, preset.base_seed)
        expected = []
        for d_idx, delta in enumerate(preset.sweep_values):
            eta = eta_from_delta(real, float(delta))
            A = one_design(real, eta).A
            S, _ = coop_security(real, A, eta)
            expected.append([0, delta, 0.0, approximation_error(real, A, eta), S])
            for pair in range(preset.mixture_pairs):
                seed = int(
                    np.random.SeedSequence(preset.base_seed, spawn_key=(3, d_idx, pair))
                    .generate_state(1)[0]
                )
                for theta in np.linspace(0.0, 1.0, preset.mixture_thetas):
                    A = build_precoder("mixture", real, eta, seed=seed, params={"theta": theta}).A
                    kind = {0.0: "random_zf", 1.0: "random"}.get(theta, "mixture")
                    S, _ = coop_security(real, A, eta)
                    D = approximation_error(real, A, eta)
                    expected.append([TRADEOFF_KINDS[kind], delta, theta, D, S])
        rows = run_preset(preset).rows
        assert rows.shape == (3 * (1 + 3 * 11), 5)
        assert np.array_equal(rows, np.array(expected))


def at_snr(real, config, snr_db):
    sigma, _ = calibrate_noise(dataclasses.replace(config, snr_db=snr_db))
    return dataclasses.replace(real, sigma_y_sq=sigma, sigma_z_sq=sigma)


def looped_trial(preset, r):
    """One trial with a loop over the SNRs and scalar noise: every design rebuilt at every SNR."""
    seed = preset.base_seed + r
    rows = []
    for snr in preset.sweep_values:
        row = []
        if preset.name in ("sweep_snr_designs", "security_gap"):
            real = at_snr(sample_realization(preset.config, seed), preset.config, snr)
            eta = eta_from_delta(real, preset.delta)
            for d_idx, design in enumerate(preset.designs):
                child = int(np.random.SeedSequence(seed, spawn_key=(17, d_idx)).generate_state(1)[0])
                A = build_precoder(design, real, eta, seed=child).A
                row += [approximation_error(real, A, eta), coop_security(real, A, eta)[0]]
                row.append(noncoop_security(real, A, eta)[0])
        elif preset.name == "collocated":
            for collocated in (False, True):
                config = dataclasses.replace(preset.config, collocated_eavesdroppers=collocated)
                real = at_snr(sample_realization(config, seed), preset.config, snr)
                eta = eta_from_delta(real, preset.delta)
                A = np.zeros((real.num_users, 1), dtype=np.complex128)
                row += [coop_security(real, A, eta)[0], noncoop_security(real, A, eta)[0]]
        elif preset.name == "shared_zf":
            config = dataclasses.replace(preset.config, num_eavesdroppers=max(preset.l_values))
            full = sample_realization(config, seed)
            eta = eta_from_delta(full, preset.delta)
            for L in preset.l_values:
                real = dataclasses.replace(full, eav_positions=full.eav_positions[:L], G=full.G[:L])
                real = at_snr(real, preset.config, snr)
                row.append(coop_security(real, one_design(real, eta).A, eta)[0])
                for n_share in preset.shared_n_values:
                    A = one_design(real, eta, n_share, "exhaustive").A
                    row.append(coop_security(real, A, eta)[0])
        else:  # power_control
            real = at_snr(sample_realization(preset.config, seed), preset.config, snr)
            for delta in preset.delta_grid:
                eta = eta_from_delta(real, delta)
                A = one_design(real, eta).A
                row += [coop_security(real, A, eta)[0], approximation_error(real, A, eta)]
        rows.append(row)
    return np.array(rows).reshape(len(preset.sweep_values), -1)


class TestSnrAxis:
    """Each trial scores every design over the whole SNR grid at once; it must equal the per-SNR loop: bitwise
    with every SNR's LP solved cold, and within 1e-12 relative where the other SNRs ride the reference basis."""

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("sweep_snr_designs", dict(designs=("none", "data_level", "proposed", "proposed_shared"))),
            ("sweep_snr_designs", dict(designs=("signal_level", "random_zf"), delta=0.0)),
            ("collocated", {}),
            ("power_control", dict(delta_grid=(0.0, 0.5, 1.0))),
            ("shared_zf", dict(shared_n_values=(1, 2, 3))),
        ],
    )
    def test_trials_equal_the_per_snr_loop(self, monkeypatch, name, overrides):
        preset = small(name, num_realizations=3, **overrides)
        expected = np.stack([looped_trial(preset, r) for r in range(3)])
        trials = collect_trials(preset, threads=1)
        assert trials.shape == expected.shape
        assert np.all(np.abs(trials - expected) <= 1e-12 * np.abs(expected))
        monkeypatch.setattr(optimizer, "_snrs", lambda eta_shape, noise_shape: 1)
        assert collect_trials(preset, threads=1).tobytes() == expected.tobytes()


class TestLpStacks:
    """Consecutive trials solve their LPs in one stack of at most ``_GROUP_LPS`` LPs, one per (eta, subset) family
    over the SNR axis, then the members the reference basis did not accept in one more; a tradeoff run in one."""

    @pytest.mark.parametrize("delta_grid", [(0.4, 0.7, 1.0), (1.0, 0.0, 0.3), (0.0,)])
    def test_power_control_trials_make_one_stack_on_both_sides_of_zero(self, lp_calls, delta_grid):
        # A dropped eavesdropper keeps a zero row, so eta = 0 shares the stack of the other deltas.
        collect_trials(small("power_control", num_realizations=3, delta_grid=delta_grid), threads=1)
        assert first_rounds(lp_calls) == [3 * len(delta_grid)]

    @pytest.mark.parametrize("sweep, expected", [((0.2, 0.6, 1.0), 1), ((0.0, 0.5, 1.0), 1)])
    def test_tradeoff_makes_at_most_two_calls(self, monkeypatch, lp_calls, sweep, expected):
        requests = []
        monkeypatch.setattr(experiments, "optimize_designs", lambda some: requests.append(some) or optimize_designs(some))
        run_preset(small("tradeoff", sweep_values=sweep))
        assert [len(some) for some in requests] == [1]  # the proposed design over the deltas, from collect_trials
        assert lp_calls == [(len(sweep), 0)] * expected  # no SNR axis: nothing rides along

    @pytest.mark.parametrize("delta, threads", [(0.0, 1), (0.5, 1), (0.5, 2)])
    def test_shared_zf_trials_make_one_stack(self, lp_calls, delta, threads):
        # Per trial: 2 eavesdropper counts x (1 proposed + 5 N = 1 + 10 N = 2 subsets), each over 2 SNRs.
        collect_trials(small("shared_zf", num_realizations=3, delta=delta), threads=threads)
        assert first_rounds(lp_calls) == [3 * 2 * 16]
        # One member a family.  At delta = 0 every LP is a tie-break, whose t is priced at zero: none is accepted.
        rejected = lp_calls[0][1]
        assert rejected == 3 * 2 * 16 if delta == 0.0 else 0 < rejected < 3 * 2 * 16

    @pytest.mark.parametrize(
        "name, overrides, n, expected",
        [
            # The benchmark's trial: 2 eavesdropper counts x (1 + 10 + 45 subsets), four trials a call.
            ("shared_zf", dict(num_users=10, sweep_values=(0.0, 20.0), l_values=(3, 7)), 5, [448, 112]),
            # 4 deltas, 128 trials a call.
            ("power_control", dict(sweep_values=experiments._SNR_GRID), 130, [512, 8]),
            # 1 + 45 subsets, 11 trials a call.
            ("sweep_snr_designs", dict(designs=("none", "proposed", "proposed_shared")), 12, [506, 46]),
        ],
    )
    def test_a_call_holds_at_most_512_lps(self, lp_calls, name, overrides, n, expected):
        collect_trials(small(name, num_realizations=n, **overrides), threads=1)
        assert first_rounds(lp_calls) == expected and max(expected) <= experiments._GROUP_LPS == 512
        assert all(lps <= 512 for lps, _ in lp_calls)

    @pytest.mark.parametrize(
        "name, overrides, lps",
        [
            ("sweep_snr_designs", {}, 1),  # 1 proposed subset, over 9 SNRs
            ("sweep_snr_designs", dict(designs=("none", "proposed", "proposed_shared")), 46),
            ("shared_zf", {}, 168),  # 3 eavesdropper counts x 56 subsets, over 6 SNRs
            ("power_control", {}, 4),  # 4 deltas, over 9 SNRs
            ("shared_zf", dict(sweep_values=(0.0, 20.0), l_values=(3, 7)), 112),  # the benchmark's arguments
        ],
    )
    def test_lp_total_counts_the_lps_of_the_first_stack(self, lp_calls, name, overrides, lps):
        preset = default_preset(name, num_realizations=1, **overrides)
        _, requests = started_trial(preset, 0)
        optimize_designs(requests)
        assert first_rounds(lp_calls) == [optimizer._lp_total(requests)] == [lps]

    def test_a_trial_with_more_lps_than_a_group_runs_alone(self, lp_calls):
        # 3 eavesdropper counts x (1 + 10 + 45 + 120 subsets) = 528 LPs, more than a group holds.
        collect_trials(default_preset("shared_zf", num_realizations=2, shared_n_values=(1, 2, 3)), threads=1)
        assert first_rounds(lp_calls) == [528, 528]

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("sweep_snr_designs", dict(designs=("none", "random_zf", "proposed", "proposed_shared"))),
            ("security_gap", dict(designs=("data_level", "proposed_shared", "signal_level", "proposed"))),
            ("shared_zf", {}),
            ("power_control", dict(delta_grid=(0.0, 0.5, 1.0))),
        ],
    )
    @pytest.mark.parametrize("n, groups", [(2, [2]), (6, [2, 2, 2]), (5, [2, 2, 1])])
    @pytest.mark.parametrize("ranging", [True, False])
    def test_grouped_trials_equal_the_per_trial_reference(self, monkeypatch, lp_calls, name, overrides, n, groups,
                                                          ranging):
        # The reference: the per-SNR loop, where every SNR is solved cold, else the trials run one at a time.
        preset = small(name, num_realizations=n, **overrides)
        if ranging:
            monkeypatch.setattr(experiments, "_GROUP_LPS", 1)
            expected = collect_trials(preset, threads=1)
        else:
            monkeypatch.setattr(optimizer, "_snrs", lambda eta_shape, noise_shape: 1)
            expected = np.stack([looped_trial(preset, r) for r in range(n)])
        lp_calls.clear()
        per_trial = optimizer._lp_total(started_trial(preset, 0)[1])
        monkeypatch.setattr(experiments, "_GROUP_LPS", 3 * per_trial - 1)  # two trials a group
        trials = collect_trials(preset, threads=1)
        assert first_rounds(lp_calls) == [size * per_trial for size in groups]
        assert trials.shape == expected.shape and trials.tobytes() == expected.tobytes()

    def test_an_lp_failure_inside_a_group_fails_as_alone(self, tmp_path, monkeypatch, lp_calls, capsys):
        from otasec.cli import main

        # 56 LPs a trial: three trials make one group.  The last LP of trial 2 (seed 3) reports unbounded.
        sizes = dict(sweep_values=(0.0, 20.0), l_values=(3,))
        marked, solve = [], optimizer.solve_lp
        monkeypatch.setattr(optimizer, "solve_lp", lambda *problems: marked.append(problems[-1]) or solve(*problems))
        collect_trials(default_preset("shared_zf", num_realizations=1, base_seed=3, **sizes))
        last = marked[0].ineq_rhs.reshape(-1, marked[0].ineq_rhs.shape[-1])[-1]
        lp_calls.clear()

        def sabotaged(*problems):
            solutions = solve(*problems)
            for problem, solution in zip(problems, solutions):
                if problem.ineq_rhs.shape[-1] == last.size:
                    solution.status[(problem.ineq_rhs == last).all(axis=-1)] = "unbounded"
            return solutions

        monkeypatch.setattr(optimizer, "solve_lp", sabotaged)
        argv = ["run", "shared_zf", "--seed", "1", "--trials", "3", "--set", "sweep_values=[0,20]",
                "--set", "l_values=[3]", "--out", str(tmp_path / "t.dat")]
        outcomes = []
        for group_lps in (experiments._GROUP_LPS, 1):  # grouped, then each trial alone
            monkeypatch.setattr(experiments, "_GROUP_LPS", group_lps)
            with pytest.raises(RuntimeError) as info:
                collect_trials(default_preset("shared_zf", num_realizations=3, **sizes))
            assert main(argv) == 3
            outcomes.append((type(info.value), str(info.value), capsys.readouterr().err))
        # Grouped: one stack, then, as it failed, each request alone (1, 10 and 45 LPs) up to the one that fails,
        # trial 2's N = 2.  Alone: trials 0 and 1 pass, trial 2 fails, then its requests run alone.
        rerun = [1, 10, 45]
        assert first_rounds(lp_calls, complete=False) == ([168] + rerun * 3) * 2 + ([56] * 3 + rerun) * 2
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is RuntimeError and outcomes[0][1].endswith("LP reported unbounded")
        assert outcomes[0][2] == f"error: code=3 message={outcomes[0][1]}\n"


BENCHMARK_SHARED_ZF = dict(num_users=10, sweep_values=(0.0, 20.0), l_values=(3, 7))


def score_triples(preset, n):
    """The score round's triples of trials 0 to n - 1, in the order a group asks them."""
    triples = []
    for r in range(n):
        trial, requests = started_trial(preset, r)
        triples += trial.send(optimize_designs(requests))
    return triples


class TestScoreRound:
    """After the design round, a group's trials yield their ``(real, A, eta)`` triples, scored in one
    ``closed_forms`` call per shape (``experiments._score``)."""

    def test_a_benchmark_shaped_group_makes_one_call_per_shape(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "closed_forms",
                            lambda real, A, eta: calls.append((real.G.shape, A.shape)) or closed_forms(real, A, eta))
        preset = default_preset("shared_zf", num_realizations=4, **BENCHMARK_SHARED_ZF)
        trials = collect_trials(preset, threads=1)
        # 4 trials x 2 eavesdropper counts x (proposed, N = 1, N = 2) at 2 SNRs; the N = 1 designs share a
        # shape, and no eavesdropper row is padded.
        assert sorted(calls) == [((4, 3, 10), (2, 4, 10, 8)), ((4, 7, 10), (2, 4, 10, 8)),
                                 ((8, 3, 10), (2, 8, 10, 9)), ((8, 7, 10), (2, 8, 10, 9))]
        monkeypatch.setattr(experiments, "_GROUP_LPS", 1)  # one trial a group
        assert collect_trials(preset, threads=1).tobytes() == trials.tobytes()

    def test_each_score_is_bitwise_its_triple_alone(self):
        # Mixed shapes: two users counts, per-SNR and scalar noise, scalar and (D, 1) eta.
        triples = score_triples(small("sweep_snr_designs", num_realizations=3), 3)
        triples += score_triples(small("power_control", num_realizations=2), 2)
        triples += score_triples(small("collocated", num_realizations=2, num_users=3), 2)
        real = sample_realization(small("sweep_L").config, 5)
        triples += [(real, np.zeros((10, 1)), 0.5), (real, np.zeros((10, 1)), 0.25)]
        for score, (real, A, eta) in zip(experiments._score(triples), triples, strict=True):
            alone = closed_forms(real, A, eta)
            assert [np.shape(v) for v in score] == [np.shape(v) for v in alone]
            assert all(np.asarray(v).tobytes() == np.asarray(w).tobytes() for v, w in zip(score, alone))

    @pytest.mark.parametrize("name", ["shared_zf", "sweep_snr_designs", "security_gap", "power_control", "collocated"])
    def test_the_grouped_presets_score_in_the_round(self, monkeypatch, name):
        for inline in ("approximation_error", "_coop", "noncoop_security", "_whitened"):
            monkeypatch.setattr(experiments, inline, None)  # no closed form may be called inline
        assert collect_trials(small(name, num_realizations=2), threads=1).shape[0] == 2

    @pytest.mark.parametrize("name", ["sweep_L", "tradeoff", "eta_design_space"])
    def test_the_inline_presets_ask_no_scores(self, monkeypatch, name):
        monkeypatch.setattr(experiments, "_score", None)
        assert collect_trials(small(name), threads=1).shape[0] == small(name).num_realizations

    def test_an_indefinite_trial_inside_a_group_fails_as_alone(self, tmp_path, monkeypatch, capsys):
        from otasec.cli import main

        # Trial 2 (seed 3) of a 4-trial group: every covariance of its realization is made indefinite.
        preset = default_preset("shared_zf", num_realizations=4, **BENCHMARK_SHARED_ZF)
        assert max(1, experiments._GROUP_LPS // optimizer._lp_total(started_trial(preset, 0)[1])) == 4
        target = sample_realization(dataclasses.replace(preset.config, num_eavesdroppers=7), 3).h
        moments = metrics._moments

        def indefinite(real, A, eta):
            B, m = moments(real, A, eta)
            return np.where((real.h == target).all(axis=-1)[..., None, None], -B, B), m

        monkeypatch.setattr(metrics, "_moments", indefinite)
        argv = ["run", "shared_zf", "--seed", "1", "--trials", "4", "--set", "sweep_values=[0,20]",
                "--set", "l_values=[3,7]", "--out", str(tmp_path / "t.dat")]
        outcomes = []
        for group_lps in (experiments._GROUP_LPS, 1):  # grouped, then each trial alone
            monkeypatch.setattr(experiments, "_GROUP_LPS", group_lps)
            with pytest.raises(errors.SingularMatrixError) as info:
                collect_trials(preset, threads=1)
            assert main(argv) == 3
            outcomes.append((str(info.value), capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        # The trial's first triple, at its first SNR: the stack would have named matrix (0, 2).
        assert outcomes[0][0] == "matrix is not positive definite in matrix (0,)"
        assert outcomes[0][1] == f"error: code=3 message={outcomes[0][0]}\n"

    def test_a_non_finite_precoder_names_its_own_matrix(self):
        triples = score_triples(small("shared_zf", num_realizations=2), 2)
        real, A, eta = triples[-1]  # trial 1's last design, second in its stack
        A = A.copy()
        A[1, 0, 0] = np.nan
        triples[-1] = real, A, eta
        with pytest.raises(ContractError, match=r"^precoder has a non-finite entry in matrix \(1,\)$"):
            experiments._score(triples)


class TestMetadata:
    def test_key_order_per_preset(self):
        extra = {
            "eta_design_space": ["precoder_kind"],
            "sweep_L": ["delta"],
            "sweep_snr_designs": ["designs", "delta"],
            "security_gap": ["designs", "delta"],
            "collocated": ["delta"],
            "shared_zf": ["delta", "l_values"],
            "power_control": ["delta_grid"],
            "tradeoff": ["kinds", "mixture_pairs"],
        }
        assert list(extra) == list(PRESET_NAMES)
        head = ["preset", "base_seed", "num_realizations", "sweep"]
        for name in PRESET_NAMES:
            preset = small(name, num_realizations=1)
            preset.sweep_values = preset.sweep_values[:2]
            table = run_preset(preset, threads=1)
            assert list(table.metadata) == head + extra[name] + ["config", "build"], name


class TestTableIo:
    def test_single_cell_round_trip(self, tmp_path):
        table = ResultTable(["x"], np.array([[1.5]]), {"preset": "demo", "seed": "1"})
        path = tmp_path / "t.dat"
        write_table(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# preset: demo"
        assert lines[1] == "# seed: 1"
        assert lines[2] == "x"
        assert lines[3] == "1.5"
        back = read_table(path)
        assert back.column_names == ["x"]
        assert back.rows[0, 0] == 1.5
        assert back.metadata["preset"] == "demo"

    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = rng.uniform(-1.0, 1.0, (7, 3))
        table = ResultTable(["a", "b", "c"], rows, {"k": "v"})
        path = tmp_path / "t.dat"
        write_table(table, path)
        back = read_table(path)
        assert back.rows == pytest.approx(rows, rel=1e-11, abs=1e-13)

    def test_bytes_equal_the_per_value_writer(self, tmp_path):
        special = [-0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, 123456789012.5, -123456789012.5, -2.5e-7,
                   0.0, 3.0, -17.0, 2.0**53, 1e22, -1e-5, 1.0 / 3.0, 123456789012345.0]
        rng = np.random.default_rng(8)
        spread = rng.standard_normal((9, 4)) * 10.0 ** rng.integers(-20, 20, (9, 4))
        rows = np.vstack([np.reshape(special, (4, 4)), spread])
        table = ResultTable(["a", "b", "c", "d"], rows, {"preset": "demo", "sweep": "0 1"})
        expected = "".join(f"# {key}: {value}\n" for key, value in table.metadata.items()) + "a b c d\n"
        for row in rows:  # the writer's former per-value loop
            expected += " ".join(f"{v:.12g}" for v in row) + "\n"
        path = tmp_path / "t.dat"
        write_table(table, path)
        assert path.read_bytes() == expected.encode()

    def test_loadable_by_generic_reader(self, tmp_path):
        pd = pytest.importorskip("pandas")
        path = tmp_path / "sweep.dat"
        table = run_preset(small("sweep_L"))
        write_table(table, path)
        frame = pd.read_csv(path, sep=r"\s+", comment="#")
        assert frame.columns.tolist() == ["L", "D", "S_coop", "S_noncoop"]
        assert frame["S_coop"].to_numpy() == pytest.approx(table.rows[:, 2], rel=1e-11)

    def test_rejects_non_finite(self, tmp_path):
        table = ResultTable(["x"], np.array([[np.nan]]), {})
        with pytest.raises(ContractError):
            write_table(table, tmp_path / "bad.dat")

    def test_io_error_is_reported(self, tmp_path):
        table = ResultTable(["x"], np.array([[1.0]]), {})
        with pytest.raises(OSError):
            write_table(table, tmp_path / "missing_dir" / "t.dat")


class TestValidation:
    def test_monotone_sweep_required(self):
        preset = small("sweep_L")
        preset.sweep_values = (1, 3, 2)
        with pytest.raises(ConfigurationError):
            run_preset(preset)

    def test_empty_sweep_rejected(self):
        preset = small("sweep_L")
        preset.sweep_values = ()
        with pytest.raises(ConfigurationError):
            run_preset(preset)

    @pytest.mark.parametrize(
        "name, overrides, message",
        [
            ("sweep_L", dict(sweep_values=(0, 1)), "sweep_values must list eavesdropper counts >= 1"),
            ("sweep_L", dict(sweep_values=(1.5, 3)), "sweep_values must list eavesdropper counts >= 1"),
            ("power_control", dict(delta_grid=(2.0,)), "delta_grid must lie in [0, 1]"),
        ],
        ids=["zero_count", "fractional_count", "delta_grid"],
    )
    def test_collect_trials_checks_fields_like_run_preset(self, monkeypatch, name, overrides, message):
        preset = small(name, **overrides)
        with pytest.raises(ConfigurationError) as from_run:
            run_preset(preset)
        monkeypatch.setattr(experiments, "sample_realizations", None)  # no trial may start
        with pytest.raises(ConfigurationError) as from_collect:
            collect_trials(preset)
        assert str(from_collect.value) == str(from_run.value)
        assert str(from_run.value).startswith(message)

    @pytest.mark.parametrize(
        "name, field",
        [
            ("power_control", "delta_grid"),
            ("sweep_snr_designs", "designs"),
            ("security_gap", "designs"),
            ("eta_design_space", "power_levels"),
        ],
    )
    def test_empty_list_field_rejected(self, monkeypatch, name, field):
        preset = small(name, **{field: ()})
        monkeypatch.setattr(experiments, "sample_realizations", None)  # no trial may start
        with pytest.raises(ConfigurationError, match=f"^{field} must be non-empty$"):
            run_preset(preset)

    @pytest.mark.parametrize(
        "name, overrides, repeated",
        [
            ("power_control", dict(delta_grid=(0.5, 0.5)), "S_0.5 D_0.5"),
            ("power_control", dict(delta_grid=(0.5, 0.5000001)), "S_0.5 D_0.5"),  # alike under %g
            ("shared_zf", dict(l_values=(3, 3)), "Scoop_proposed_L3 Scoop_N1_L3 Scoop_N2_L3"),
            ("shared_zf", dict(shared_n_values=(2, 2), l_values=(3,)), "Scoop_N2_L3"),
            ("eta_design_space", dict(power_levels=(1.0, 1.0)), "eta_lower_P1 eta_upper_P1"),
            ("sweep_snr_designs", dict(designs=("none", "none")), "D_none Scoop_none Snoncoop_none"),
            ("security_gap", dict(designs=("proposed", "none", "proposed")), "gap_proposed"),
        ],
        ids=["delta_grid", "delta_grid_alike", "l_values", "shared_n_values", "power_levels", "designs", "gap"],
    )
    def test_repeated_column_names_rejected(self, monkeypatch, name, overrides, repeated):
        preset = small(name, **overrides)
        monkeypatch.setattr(experiments, "sample_realizations", None)  # no trial may start
        with pytest.raises(ConfigurationError, match=f"^repeated list entries repeat column names: {repeated}$"):
            run_preset(preset)

    @pytest.mark.parametrize("sweep", [(0.5, 2.0), (-0.1, 0.5)])
    def test_tradeoff_sweep_values_are_deltas(self, monkeypatch, sweep):
        monkeypatch.setattr(experiments, "sample_realizations", None)  # no realization may be drawn
        with pytest.raises(ConfigurationError, match=r"^sweep_values \(delta\) must lie in \[0, 1\], got "):
            run_preset(small("tradeoff", sweep_values=sweep))

    @pytest.mark.parametrize("name", ["tradeoff", "eta_design_space"])
    @pytest.mark.parametrize("trials", [0, 2, 7])
    def test_scatter_presets_draw_one_realization(self, monkeypatch, name, trials):
        monkeypatch.setattr(experiments, "sample_realizations", None)  # no realization may be drawn
        with pytest.raises(ConfigurationError, match=f"^{name} draws one realization: num_realizations must be 1"):
            run_preset(small(name, num_realizations=trials))

    @pytest.mark.parametrize("name", ["tradeoff", "eta_design_space"])
    def test_collect_trials_holds_a_scatter_table_as_one_trial(self, name):
        preset = small(name)
        trials, rows = collect_trials(preset), run_preset(preset).rows
        assert trials.shape == (1,) + rows.shape and trials.tobytes() == rows.tobytes()
