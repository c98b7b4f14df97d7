import dataclasses
import json

import numpy as np
import pytest

from otasec import metrics
from otasec.channel import ScenarioConfig, realization_to_dict, sample_realization
from otasec.cli import main
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
@pytest.mark.parametrize("bad", ["zero_h", "nan_G"])
def test_bad_channel_document_exits_2(tmp_path, capsys, command, bad):
    doc = realization_to_dict(
        sample_realization(ScenarioConfig(num_users=4, num_eavesdroppers=2), 21)
    )
    if bad == "zero_h":
        doc["h"][1] = [0.0, 0.0]
    else:
        doc["G"][0][2][0] = float("nan")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: code=2" in captured.err


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
        original = metrics.eavesdropper_moments

        def flipped(real, A, eta):
            B, m = original(real, A, eta)
            return B, -m

        monkeypatch.setattr(metrics, "eavesdropper_moments", flipped)
        code = main(["selftest", "--trials", "4", "--samples", "20000"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_detects_silently_wrong_lp_answer(self, monkeypatch):
        # An "optimal" all-zero allocation must trip the grid comparison.
        from otasec import optimizer
        from otasec.lp import LpSolution, solve_lp

        def sabotaged(problem):
            sol = solve_lp(problem)
            return LpSolution("optimal", np.zeros_like(sol.x), 0.0)

        monkeypatch.setattr(optimizer, "solve_lp", sabotaged)
        assert run_selftest(trials=0, seed=1, samples=20000, log=lambda *_: None) == 3


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "otasec" in capsys.readouterr().out
