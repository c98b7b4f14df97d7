import dataclasses
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import otasec
from otasec import cli, experiments, metrics
from otasec.channel import ScenarioConfig, realization_to_dict, sample_realization
from otasec.cli import main
from otasec.encoding import PRECODER_KINDS
from otasec.selftest import run_selftest


@pytest.fixture
def realization_file(tmp_path):
    real = sample_realization(ScenarioConfig(num_users=4, num_eavesdroppers=2), 21)
    path = tmp_path / "real.json"
    path.write_text(json.dumps(realization_to_dict(real)))
    return path


class TestRun:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "fig3.dat"
        code = main(
            [
                "run",
                "sweep_L",
                "--seed",
                "7",
                "--trials",
                "2",
                "--out",
                str(out),
                "--set",
                "sweep_values=[1,2,3]",
            ]
        )
        assert code == 0
        assert out.exists()
        text = out.read_text()
        assert text.splitlines()[0].startswith("# preset: sweep_L")
        assert "base_seed: 7" in text

    def test_unknown_preset_exits_2_with_usage(self, capsys):
        assert main(["run", "nosuchpreset"]) == 2
        err = capsys.readouterr().err
        assert "error: code=2" in err
        assert "usage:" in err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["run", "sweep_L", "--bogus"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_seed_determinism_and_thread_independence(self, tmp_path):
        args = ["run", "power_control", "--seed", "5", "--trials", "2"]
        extra = ["--set", "sweep_values=[0,10]", "--set", "delta_grid=[0.5,1.0]"]
        paths = []
        for tag, threads in (("a", "1"), ("b", "3"), ("c", "1")):
            out = tmp_path / f"{tag}.dat"
            code = main(args + extra + ["--threads", threads, "--out", str(out)])
            assert code == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_env_var_thread_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OTA_SIM_THREADS", "2")
        out = tmp_path / "t.dat"
        code = main(
            ["run", "sweep_L", "--trials", "1", "--set", "sweep_values=[1,2]", "--out", str(out)]
        )
        assert code == 0

    def test_default_runs_serially(self, tmp_path, monkeypatch, no_pool):
        monkeypatch.delenv("OTA_SIM_THREADS", raising=False)
        args = ["run", "sweep_L", "--trials", "3", "--set", "sweep_values=[1,2]"]
        assert main(args + ["--out", str(tmp_path / "t.dat")]) == 0

    def test_shared_zf_on_two_workers_matches_serial(self, tmp_path):
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.dat"
            assert main(["run", "shared_zf", "--trials", "2", "--threads", threads, "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_grouped_shared_zf_on_three_threads_matches_serial(self, tmp_path, lp_calls):
        # 2 eavesdropper counts x 56 LPs a trial, over 2 SNRs: 9 trials run in groups of 4, 4 and 1.
        args = ["run", "shared_zf", "--trials", "9", "--set", "sweep_values=[0,20]", "--set", "l_values=[3,7]"]
        tables = []
        for threads in ("1", "3"):
            lp_calls.clear()
            out = tmp_path / f"t{threads}.dat"
            assert main(args + ["--threads", threads, "--out", str(out)]) == 0
            tables.append(out.read_bytes())
            firsts = sorted(lps for lps, rejected in lp_calls if rejected is not None)
            rejected = sum(rejected for _, rejected in lp_calls if rejected is not None)
            assert firsts == [112, 448, 448] and sum(lps for lps, r in lp_calls if r is None) == rejected > 0
        assert tables[0] == tables[1]

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_users": 4, "snr_db": 0.0}))
        out = tmp_path / "out.dat"
        code = main(
            [
                "run",
                "sweep_L",
                "--trials",
                "1",
                "--config",
                str(cfg),
                "--set",
                "sweep_values=[1,2]",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert '"num_users":4' in out.read_text()

    @staticmethod
    def gap_table(tmp_path, delta: str) -> np.ndarray:
        out = tmp_path / "gap.dat"
        assert main(["run", "security_gap", "--trials", "2", "--set", f"delta={delta}", "--out", str(out)]) == 0
        rows = [line.split() for line in out.read_text().splitlines() if not line.startswith("#")]
        return np.array(rows[1:], dtype=float)

    def test_data_level_at_an_eta_whose_square_underflows(self, tmp_path):
        # delta = 1e-200 makes eta^2 underflow to 0: data_level then degenerates as at eta = 0.
        table = self.gap_table(tmp_path, "1e-200")
        assert table.shape == (9, 6) and np.isfinite(table).all()

    @pytest.mark.parametrize("delta", ["1e-155", "1e-156", "1e-157"])
    def test_data_level_at_an_eta_whose_square_is_subnormal(self, tmp_path, delta):
        # eta^2 is subnormal: min_k P|h_k|^2 / eta^2 overflowed, and data_level's precoder was not finite.
        table = self.gap_table(tmp_path, delta)
        assert table.shape == (9, 6) and np.isfinite(table).all()

    def test_set_reaches_only_its_own_call(self, tmp_path, monkeypatch):
        # One parser serves every call of the process: a --set, or the --seed and --trials it turns into, must not
        # reach the next call's overrides.
        seen, preset = [], cli.default_preset

        def recorded(name, **overrides):
            seen.append(overrides)
            return preset(name, **overrides)

        monkeypatch.setattr(cli, "default_preset", recorded)
        out = str(tmp_path / "t.dat")
        assert main(["run", "sweep_L", "--trials", "1", "--seed", "3", "--set", "delta=0.5", "--out", out]) == 0
        assert main(["run", "sweep_L", "--out", out, "--set", "sweep_values=[1,2]"]) == 0
        assert main(["run", "sweep_L", "--trials", "1", "--out", out, "--set", "sweep_values=[2]"]) == 0
        assert seen == [dict(delta=0.5, base_seed=3, num_realizations=1), dict(sweep_values=(1, 2), base_seed=1),
                        dict(sweep_values=(2,), base_seed=1, num_realizations=1)]
        assert cli._build_parser() is cli._build_parser()

    def test_invalid_override_value_exits_2(self, tmp_path, capsys):
        assert main(["run", "sweep_L", "--set", "num_users=1"]) == 2

    @pytest.mark.parametrize(
        "flag, env", [(["--threads", "-3"], None), (["--threads", "0"], None), ([], "abc"), ([], "0")]
    )
    def test_bad_worker_count_exits_2_before_work(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is None:
            monkeypatch.delenv("OTA_SIM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OTA_SIM_THREADS", env)
        out = tmp_path / "t.dat"
        assert main(["run", "sweep_L", "--trials", "1", "--out", str(out)] + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: code=2" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, override",
        [
            ("shared_zf", "l_values=[]"),
            ("shared_zf", "l_values=[0]"),
            ("shared_zf", "l_values=[2.5]"),
            ("shared_zf", "shared_n_values=[0]"),
            ("shared_zf", "shared_n_values=[10]"),
            ("shared_zf", "delta=2"),
            ("shared_zf", "delta=nan"),
            ("sweep_L", "delta=abc"),
            ("sweep_L", 'sweep_values=["a"]'),
            ("power_control", "delta_grid=[0.5,1.5]"),
            ("power_control", "delta_grid=[0.5,0.5]"),
            ("tradeoff", "mixture_pairs=-1"),
            ("tradeoff", "mixture_thetas=-2"),
            ("tradeoff", "sweep_values=[0.5,2]"),
            ("sweep_L", "sweep_values=[0,3]"),
            ("sweep_L", "sweep_values=[1.5,3]"),
            ("eta_design_space", "sweep_values=[0,0.5]"),
            ("eta_design_space", "precoder_kind=bogus"),
            ("sweep_snr_designs", 'designs=["bogus"]'),
            ("sweep_snr_designs", 'designs=["mixture"]'),
            ("eta_design_space", "power_levels=[-1]"),
            ("eta_design_space", "power_levels=[0]"),
            ("eta_design_space", "power_levels=[1,nan]"),
            ("sweep_snr_designs", 'designs=["proposed_shared"] num_users=2'),
            ("security_gap", 'designs=["none","proposed_shared"] num_users=2'),
            ("eta_design_space", "precoder_kind=proposed_shared num_users=2"),
            ("power_control", "delta=0.3"),
            ("sweep_snr_designs", "snr_db=5"),
            ("collocated", "collocated_eavesdroppers=true"),
            ("sweep_L", "num_eavesdroppers=3"),
            ("eta_design_space", "num_eavesdroppers=3 collocated_eavesdroppers=true"),
        ],
    )
    def test_bad_preset_field_exits_2_before_any_trial(
        self, tmp_path, monkeypatch, capsys, preset, override
    ):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        # The scatter presets draw their one realization without a trial map.
        monkeypatch.setattr(experiments, "_map_trials", no_trials)
        monkeypatch.setattr(experiments, "sample_realizations", no_trials)
        out = tmp_path / "t.dat"
        sets = [arg for item in override.split(" ") for arg in ("--set", item)]
        assert main(["run", preset, "--trials", "1", *sets, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: code=2" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["snr_db", "num_users"])
    @pytest.mark.parametrize("via", ["--set", "--config"])
    def test_non_numeric_scenario_field_exits_2_before_any_trial(
        self, tmp_path, monkeypatch, capsys, field, via
    ):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_map_trials", no_trials)
        if via == "--set":
            extra = ["--set", f"{field}=abc"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({field: "abc"}))
            extra = ["--config", str(cfg)]
        out = tmp_path / "t.dat"
        assert main(["run", "sweep_L", "--trials", "1", "--out", str(out)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: code=2" in captured.err and field in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("name", "collocated", "unknown preset field 'name'"),
            ("config", {"num_users": 3}, "unknown preset field 'config'"),
            ("base_seed", 5, "base_seed is set by --seed, not by --set or --config"),
            ("num_realizations", 3, "num_realizations is set by --trials, not by --set or --config"),
        ],
        ids=["name", "config", "base_seed", "num_realizations"],
    )
    @pytest.mark.parametrize("via", ["--set", "--config"])
    def test_a_key_that_is_no_settable_field_exits_2_before_any_trial(
        self, tmp_path, monkeypatch, capsys, key, value, message, via
    ):
        # name and config once crashed with a traceback; base_seed and num_realizations were
        # silently replaced by the values of --seed and --trials.
        monkeypatch.setattr(experiments, "_map_trials", None)  # no trial may run
        if via == "--set":
            extra = ["--set", f"{key}={json.dumps(value)}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            extra = ["--config", str(cfg)]
        out = tmp_path / "t.dat"
        assert main(["run", "sweep_L", "--trials", "1", "--out", str(out)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: code=2 message={message}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b'{"num_users": 4,', b"\xff\xfe{}"])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert main(["run", "sweep_L", "--config", str(cfg), "--out", str(tmp_path / "o.dat")]) == 2
        err = capsys.readouterr().err
        assert "error: code=2" in err and "--config" in err

    def test_jammed_geometry_exits_2_in_well_under_a_second(self, tmp_path, capsys):
        # Within the packing bound, so the random placement itself must give up fast.
        out = tmp_path / "t.dat"
        start = time.perf_counter()
        jammed = ["--set", "disk_radius=10", "--set", "min_separation=5"]
        code = main(["run", "collocated", "--trials", "2", *jammed, "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert "could not place a point" in capsys.readouterr().err
        assert elapsed < 5.0  # about 0.2 s; the old cap of 10^6 draws took 15-19 s
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["tradeoff", "eta_design_space"])
    def test_trials_on_a_scatter_preset_exit_2(self, tmp_path, monkeypatch, capsys, preset):
        # Both draw one realization at the base seed; --trials 7 used to print
        # num_realizations: 7 over the rows of that one realization.
        monkeypatch.setattr(experiments, "sample_realizations", None)  # no realization may be drawn
        out = tmp_path / "t.dat"
        assert main(["run", preset, "--trials", "7", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "num_realizations must be 1, got 7" in captured.err
        assert not out.exists()

    def test_ill_scaled_allocation_lps_run_to_a_table(self, tmp_path, capsys):
        # Real fading at K = 12, L = 14, delta = 0.1 and seed 241 once spun its allocation LP
        # to the iteration limit and exited 3 after about 4 s.
        out = tmp_path / "t.dat"
        fields = ["num_users=12", "l_values=[14]", "delta=0.1", "fading_mode=real", "shared_n_values=[1]"]
        start = time.perf_counter()
        code = main(
            ["run", "shared_zf", "--seed", "241", "--trials", "1", "--out", str(out)]
            + [arg for field in fields for arg in ("--set", field)]
        )
        assert code == 0, capsys.readouterr().err
        assert time.perf_counter() - start < 3.0  # about 0.1 s
        assert len(experiments.read_table(out).rows) == 6

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "sweep_L",
                "--trials",
                "1",
                "--set",
                "sweep_values=[1,2]",
                "--out",
                str(tmp_path / "no_dir" / "x.dat"),
            ]
        )
        assert code == 4
        assert "error: code=4" in capsys.readouterr().err


class TestMetricsCommand:
    def test_report_json(self, realization_file, capsys):
        code = main(["metrics", str(realization_file), "--kind", "proposed", "--delta", "0.8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "proposed"
        assert 0.0 <= doc["D"] <= 1.0
        assert 0.0 <= doc["S_coop"] <= doc["S_noncoop"] + 1e-10 <= 1.0 + 1e-10
        assert len(doc["p_opt"]) == 2 and len(doc["p_opt"][0]) == 2
        assert len(doc["per_eav_security"]) == 2

    def test_explicit_eta(self, realization_file, capsys):
        code = main(["metrics", str(realization_file), "--eta", "0.0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["D"] == 1.0 and doc["S_coop"] == 1.0

    def test_missing_file_exits_4(self, capsys):
        assert main(["metrics", "/nonexistent/realization.json"]) == 4

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["metrics", str(bad)]) == 2

    def test_output_to_file(self, realization_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["metrics", str(realization_file), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["kind"] == "none"


@pytest.mark.parametrize("command", ["metrics", "optimize"])
@pytest.mark.parametrize("bad", ["zero_h", "nan_G", "scalar_h"])
def test_bad_channel_document_exits_2(tmp_path, capsys, command, bad):
    doc = realization_to_dict(
        sample_realization(ScenarioConfig(num_users=4, num_eavesdroppers=2), 21)
    )
    if bad == "zero_h":
        doc["h"][1] = [0.0, 0.0]
    elif bad == "nan_G":
        doc["G"][0][2][0] = float("nan")
    else:
        doc["h"] = doc["h"][0]  # one complex number where a list of them belongs
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: code=2" in captured.err


@pytest.mark.parametrize("command", ["metrics", "optimize"])
def test_single_user_document_exits_2(tmp_path, capsys, command):
    doc = realization_to_dict(
        sample_realization(ScenarioConfig(num_users=2, num_eavesdroppers=2), 21)
    )
    doc["user_positions"] = doc["user_positions"][:1]
    doc["h"] = doc["h"][:1]
    doc["G"] = [row[:1] for row in doc["G"]]
    path = tmp_path / "one_user.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 2 users" in captured.err


@pytest.mark.parametrize("command", ["metrics", "optimize"])
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--eta", "nan"),
        ("--eta", "inf"),
        ("--eta", "-1"),
        ("--delta", "1.5"),
        ("--delta", "-0.1"),
        ("--delta", "nan"),
    ],
)
def test_bad_eta_or_delta_exits_2(realization_file, capsys, command, flag, value):
    assert main([command, str(realization_file), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: code=2" in captured.err


@pytest.mark.parametrize("theta", ["2", "nan", "-1", "inf"])
def test_bad_theta_exits_2(realization_file, capsys, theta):
    args = ["metrics", str(realization_file), "--kind", "mixture", "--theta", theta]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: code=2" in captured.err and "--theta" in captured.err


@pytest.mark.parametrize("theta", ["0", "1"])
def test_theta_endpoints_accepted(realization_file, capsys, theta):
    args = ["metrics", str(realization_file), "--kind", "mixture", "--theta", theta]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "mixture"


@pytest.mark.parametrize("command", ["metrics", "optimize"])
@pytest.mark.parametrize("n_share", ["0", "-1", "4", "5"])
def test_bad_shared_n_exits_2(realization_file, capsys, command, n_share):
    # The realization has K = 4 users, so N must lie in [1, 3].
    kind = ["--kind", "proposed"] if command == "metrics" else []
    assert main([command, str(realization_file), *kind, "--shared-n", n_share]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: code=2" in captured.err and "--shared-n" in captured.err


def no_load(path):
    raise AssertionError("the document was loaded")


@pytest.mark.parametrize("command, extra", [("metrics", ["--kind", "random_zf"]), ("metrics", ["--kind", "mixture"])])
def test_negative_seed_exits_2_before_loading(realization_file, monkeypatch, capsys, command, extra):
    monkeypatch.setattr(cli, "load_realization", no_load)
    assert main([command, str(realization_file), *extra, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: code=2" in captured.err and "--seed must be at least 0" in captured.err


def test_optimize_takes_no_seed(realization_file, capsys):
    assert main(["optimize", str(realization_file), "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err


def exits_2_before_loading(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(cli, "load_realization", no_load)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: code=2" in captured.err and message in captured.err


@pytest.mark.parametrize("kind", ["none", "mixture", "random_zf"])
def test_shared_n_with_another_kind_exits_2(realization_file, monkeypatch, capsys, kind):
    argv = ["metrics", str(realization_file), "--kind", kind, "--shared-n", "2"]
    exits_2_before_loading(monkeypatch, capsys, argv, "--shared-n needs --kind proposed or proposed_shared")


@pytest.mark.parametrize("command, extra", [("metrics", ["--kind", "proposed_shared"]), ("optimize", [])])
def test_selection_without_shared_n_exits_2(realization_file, monkeypatch, capsys, command, extra):
    argv = [command, str(realization_file), *extra, "--selection", "best_channel"]
    exits_2_before_loading(monkeypatch, capsys, argv, "--selection needs --shared-n")


@pytest.mark.parametrize("kind", ["none", "proposed"])
def test_theta_without_mixture_exits_2(realization_file, monkeypatch, capsys, kind):
    argv = ["metrics", str(realization_file), "--kind", kind, "--theta", "0.3"]
    exits_2_before_loading(monkeypatch, capsys, argv, "--theta needs --kind mixture")


@pytest.mark.parametrize("command, extra", [("metrics", ["--kind", "proposed_shared"]), ("optimize", [])])
def test_selection_reaches_the_shared_design(realization_file, capsys, command, extra):
    argv = [command, str(realization_file), *extra, "--shared-n", "2", "--selection", "best_channel"]
    # On this realization best_channel picks users (0, 1) and exhaustive (0, 2).
    real = otasec.realization_from_dict(json.loads(realization_file.read_text()))
    eta = otasec.eta_from_delta(real, 1.0)
    (expected,) = otasec.optimize_designs([(real, eta, 2, "best_channel")])
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "proposed_shared"
    if command == "optimize":
        assert doc["zf_users"] == list(expected.zf_users) == [0, 1]
    else:
        assert doc["S_coop"] == otasec.evaluate(real, expected.A, eta).S_coop


def test_non_finite_report_exits_3(realization_file, monkeypatch, capsys):
    from otasec import cli

    original = cli.evaluate

    def nan_report(real, A, eta):
        return dataclasses.replace(original(real, A, eta), D=float("nan"))

    monkeypatch.setattr(cli, "evaluate", nan_report)
    assert main(["metrics", str(realization_file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: code=3" in captured.err


@pytest.mark.parametrize("fault", [OverflowError, ZeroDivisionError])
def test_any_arithmetic_fault_exits_3(realization_file, monkeypatch, capsys, fault):
    from otasec import cli

    def failing(real, A, eta):
        raise fault("out of range")

    monkeypatch.setattr(cli, "evaluate", failing)
    assert main(["metrics", str(realization_file)]) == 3
    assert "error: code=3 message=out of range" in capsys.readouterr().err


def test_failed_factor_exits_3(realization_file, monkeypatch, capsys):
    # An indefinite pooled covariance makes LAPACK's Cholesky fail; that is a numeric error, not a crash.
    def indefinite(real, A, eta):
        return np.diag([1.0, -1.0]).astype(complex), np.ones(2, dtype=complex)

    monkeypatch.setattr(metrics, "_moments", indefinite)
    assert main(["metrics", str(realization_file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: code=3" in captured.err and "not positive definite" in captured.err


@pytest.mark.parametrize(
    "command", [["metrics", "--kind", "random_zf"], ["optimize", "--shared-n", "2"]], ids=["metrics", "optimize"]
)
def test_floating_point_fault_exits_3_without_a_warning(tmp_path, capsys, command):
    # h x 1e-300 makes |h|^2 underflow to 0: the budgets divide 0 by 0 and the ratio sums overflow.
    real = sample_realization(ScenarioConfig(num_users=4, num_eavesdroppers=3), 1)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(realization_to_dict(dataclasses.replace(real, h=real.h * 1e-300))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command[0], str(path), *command[1:]]) == 3
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: code=3 message=") and "encountered" in captured.err


def test_worker_threads_run_under_the_callers_errstate(monkeypatch):
    # The trial pool and the oracle lanes see the error state of the code that starts them, as serial code does.
    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    monkeypatch.setattr(metrics, "_cores", lambda: 4)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        states = experiments._map_trials(lambda r: np.geterr(), 4, 2)
        lanes = metrics._lane_sums(lambda rng, n: float(np.geterr()["divide"] == "raise"), 8, 1, 9)
    assert all(state["over"] == state["invalid"] == state["divide"] == "raise" for state in states)
    assert lanes == metrics._LANES


class TestOptimizeCommand:
    def test_emits_zero_forcing_precoder(self, realization_file, capsys):
        code = main(["optimize", str(realization_file), "--delta", "0.7"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "proposed"
        A = np.asarray(doc["A"], dtype=float)
        A = A[..., 0] + 1j * A[..., 1]
        assert A.shape == (4, 3)
        assert "lambda" in doc and len(doc["lambda"]) == 3

    def test_shared_variant(self, realization_file, capsys):
        code = main(["optimize", str(realization_file), "--delta", "0.7", "--shared-n", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "proposed_shared"
        assert len(doc["zf_users"]) == 2


class TestSelftest:
    def test_passes_on_correct_build(self, capsys):
        code = main(["selftest", "--trials", "4", "--samples", "20000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "0 failure(s)" in out

    def test_detects_sign_flip_in_eavesdropper_mean(self, monkeypatch, capsys):
        original = metrics._moments

        def flipped(real, A, eta):
            B, m = original(real, A, eta)
            return B, -m

        monkeypatch.setattr(metrics, "_moments", flipped)
        code = main(["selftest", "--trials", "4", "--samples", "20000"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args", [["--trials", "-3"], ["--seed", "-1"], ["--samples", "5"], ["--samples", "9999"]]
    )
    def test_bad_arguments_exit_2_before_any_check(self, monkeypatch, capsys, args):
        def no_checks(**kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "run_selftest", no_checks)
        assert main(["selftest", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: code=2" in captured.err and args[0] in captured.err

    def test_detects_silently_wrong_lp_answer(self, monkeypatch):
        # An "optimal" all-zero allocation must trip the grid comparison.
        from otasec import optimizer
        from otasec.lp import solve_lp

        def sabotaged(*problems):
            return [dataclasses.replace(sol, x=np.zeros_like(sol.x)) for sol in solve_lp(*problems)]

        monkeypatch.setattr(optimizer, "solve_lp", sabotaged)
        assert run_selftest(trials=0, seed=1, samples=20000, log=lambda *_: None) == 3


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "otasec" in capsys.readouterr().out

    def test_runs_as_a_module(self):
        src = str(Path(otasec.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "otasec", "--version"], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("otasec ")


class TestFuzzGrid:
    """A fixed grid of extreme inputs: each case exits 0, 2, 3 or 4, with no warning of any kind (an uncaught
    exception fails the case as a traceback would) and no nan or inf in what it prints or writes."""

    RUNS = [
        ("sweep_L", ["delta=1e-200"]),
        ("sweep_L", ["transmit_power=1e200"]),
        ("sweep_L", ["disk_radius=1e150"]),
        ("sweep_snr_designs", ["delta=1e-156"]),
        ("sweep_snr_designs", ["transmit_power=1e-200"]),
        ("sweep_snr_designs", ["delta=1e-200", "transmit_power=1e200"]),
        ("security_gap", ["delta=1e-200"]),
        ("security_gap", ["disk_radius=1e150", "transmit_power=1e200"]),
        ("collocated", ["transmit_power=1e-200"]),
        ("collocated", ["disk_radius=1e150"]),
        ("shared_zf", ["delta=1e-156"]),
        ("shared_zf", ["transmit_power=1e200", "disk_radius=1e150"]),
        ("power_control", ["transmit_power=1e200"]),
        ("power_control", ["delta_grid=[1e-200, 1e-156, 1]"]),
        ("tradeoff", ["transmit_power=1e-200", "mixture_pairs=2"]),
        ("tradeoff", ["disk_radius=1e150", "mixture_pairs=2"]),
        ("eta_design_space", ["power_levels=[1e300]"]),
        ("eta_design_space", ["power_levels=[1e-300, 1e300]", "transmit_power=1e-200"]),
    ]
    # Fields that ScenarioConfig.validate accepts, but whose calibrated noise variance overflows or underflows
    # to 0 (for sweep_snr_designs, at a sweep SNR): a configuration error that names the four fields.
    NOISE_OUT_OF_RANGE = [
        ("sweep_L", ["snr_db=4000"]),
        ("sweep_L", ["snr_db=-4000"]),
        ("sweep_L", ["disk_radius=1e-150", "min_separation=1e-151"]),
        ("sweep_snr_designs", ["sweep_values=[4000]"]),
        ("sweep_L", ["disk_radius=1e150"]),
        ("sweep_L", ["transmit_power=1e-320"]),
        ("sweep_L", ["pathloss_exponent=400"]),
    ]
    # A K = 4, L = 3 realization, and its variants.
    SCALES = {
        "plain": lambda real: real,
        "h_1e-300": lambda real: dataclasses.replace(real, h=real.h * 1e-300),
        "G_1e150": lambda real: dataclasses.replace(real, G=real.G * 1e150),
        "G_zero_row": lambda real: dataclasses.replace(real, G=real.G * np.array([[1.0], [0.0], [1.0]])),
        "noise_1e300": lambda real: dataclasses.replace(real, sigma_y_sq=1e300, sigma_z_sq=1e300),
        "P_1e300": lambda real: dataclasses.replace(real, P=1e300),
    }
    COMMANDS = [["metrics", "--kind", kind] for kind in PRECODER_KINDS] + [["optimize", "--shared-n", "2"]]

    @staticmethod
    def exits_cleanly(argv, capsys, out=None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        text = captured.out + captured.err + (out.read_text() if code == 0 and out else "")
        assert code in (0, 2, 3, 4)
        assert not re.search(r"\b(nan|inf|infinity)\b", text, re.IGNORECASE), text
        return code, text

    def runs_cleanly(self, tmp_path, capsys, name, sets):
        out = tmp_path / "t.dat"
        trials = "1" if name in ("tradeoff", "eta_design_space") else "2"
        argv = ["run", name, "--trials", trials, "--out", str(out)]
        return self.exits_cleanly(argv + [arg for field in sets for arg in ("--set", field)], capsys, out)

    @pytest.mark.parametrize("name, sets", RUNS, ids=[f"{name}-{'-'.join(sets)}" for name, sets in RUNS])
    def test_extreme_preset_fields(self, tmp_path, capsys, name, sets):
        self.runs_cleanly(tmp_path, capsys, name, sets)

    @pytest.mark.parametrize(
        "name, sets", NOISE_OUT_OF_RANGE, ids=[f"{name}-{'-'.join(sets)}" for name, sets in NOISE_OUT_OF_RANGE]
    )
    def test_noise_out_of_range_is_a_configuration_error(self, tmp_path, capsys, name, sets):
        code, text = self.runs_cleanly(tmp_path, capsys, name, sets)
        assert code == 2, text
        assert all(field in text for field in ("transmit_power", "disk_radius", "pathloss_exponent", "snr_db"))

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: f"{command[0]}-{command[-1]}")
    @pytest.mark.parametrize("scale", SCALES)
    def test_extreme_realizations(self, tmp_path, capsys, scale, command):
        real = self.SCALES[scale](sample_realization(ScenarioConfig(num_users=4, num_eavesdroppers=3), 21))
        path = tmp_path / "real.json"
        path.write_text(json.dumps(realization_to_dict(real)))
        self.exits_cleanly([command[0], str(path), *command[1:]], capsys)
