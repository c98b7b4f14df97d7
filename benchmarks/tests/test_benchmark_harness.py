"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
NAMES = [w["name"] for w in SPEC["workloads"]]


def smoke(name, trace, **kwargs):
    return run.run(name, seed=5, seconds=0.1, trace=trace, smoke=True, probes=1, **kwargs)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_end_to_end_metric(name):
    result, record = smoke(name, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["errors"]
    assert set(result["metrics"]) == END_TO_END
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for metric, value in result["metrics"].items():
        assert value["unit"] == units[metric]
        assert value["value"] > 0
    assert record["timed_jobs"] >= run.MIN_JOBS


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_run_emits_every_per_layer_metric(name):
    result, record = smoke(name, trace=True)
    assert result["correct"], record["errors"]
    assert set(result["metrics"]) == PER_LAYER
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_traced_run_restores_the_original_functions():
    import otasec
    from otasec import experiments, metrics, optimizer

    before = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if module is not None and (name == "otasec" or name.startswith("otasec."))
    }
    result, _ = smoke("shared_zf", trace=True)
    assert result["metrics"]["lp.calls"]["value"] > 0  # the tracer did see calls
    assert experiments.coop_security is metrics.coop_security
    assert optimizer.solve_lp is otasec.lp.solve_lp
    assert experiments.ThreadPoolExecutor is spans.ThreadPoolExecutor
    for name, namespace in before.items():
        module = sys.modules[name]
        changed = [attr for attr, obj in namespace.items() if vars(module).get(attr) is not obj]
        assert not changed, f"{name} still has rebound attributes {changed}"


@pytest.fixture
def workdir():
    run.OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT_DIR))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_job_self_times_fit_within_wall_times_workers(workdir):
    workload = workloads.make_workload("shared_zf", smoke=True)
    assert workload.workers >= 1
    tracer = spans.Tracer()
    walls = {}
    with tracer.installed():
        for job, inp in enumerate(workload.build(3, workdir)):
            tracer.job = job
            elapsed, outcome = run.Runner(workload).job(inp)
            assert outcome is not None
            walls[job] = elapsed
    selfs = spans.self_times(tracer.spans)
    per_job = {job: 0.0 for job in walls}
    for span in tracer.spans:
        per_job[span.job] += selfs[span.id]
    assert all(v >= 0 for v in selfs.values())
    for job, wall in walls.items():
        assert 0 < per_job[job] <= wall * workload.workers


def test_calibration_kernels_do_not_touch_otasec():
    tracer = spans.Tracer()
    with tracer.installed():
        for name in NAMES:
            assert workloads.make_workload(name).kernel() > 0
    assert tracer.spans == []


def test_self_time_subtracts_the_union_of_children():
    def span(span_id, parent, start, end):
        s = spans.Span(span_id, parent, "lp", "f", 0, 0)
        s.start, s.end = start, end
        return s

    tree = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 4.0), span(3, 1, 3.0, 6.0), span(4, 2, 2.0, 3.0)]
    selfs = spans.self_times(tree)
    assert selfs == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_corrupted_reference_table_counts_as_a_failed_job(workdir):
    workload = workloads.make_workload("shared_zf", smoke=True)
    original = workload.reference_path(workloads.REFERENCE_DIR)
    lines = original.read_text().splitlines()
    row = len(lines) - 1
    values = lines[row].split()
    values[1] = repr(float(values[1]) * (1 + 1e-9))
    lines[row] = " ".join(values)
    workload.reference_path(workdir).write_text("\n".join(lines) + "\n")

    result, record = smoke("shared_zf", trace=False, reference_dir=workdir)
    assert result["failed"] == 1
    assert not result["correct"]
    assert record["failed_frac"] == 1 / result["attempted"]
    assert "differs from the reference" in record["errors"][0]


def test_reference_comparison_allows_a_last_digit_flip_only():
    reference = (workloads.REFERENCE_DIR / "shared_zf.dat").read_bytes()
    text = reference.decode()
    last = text.rstrip("\n").split()[-1]
    flipped = last[:-1] + str((int(last[-1]) + 1) % 10)
    workloads.compare_tables(text[: text.rfind(last)].encode() + flipped.encode() + b"\n", reference)
    with pytest.raises(workloads.CheckFailed):
        workloads.compare_tables(reference.replace(b"0.8", b"0.9", 1), reference)


def test_inputs_depend_only_on_the_seed():
    a = workloads.make_workload("tradeoff").build(7, Path("out"))
    b = workloads.make_workload("tradeoff").build(7, Path("out"))
    c = workloads.make_workload("tradeoff").build(8, Path("out"))
    assert [i.argv for i in a] == [i.argv for i in b]
    assert [i.argv for i in a] != [i.argv for i in c]
    assert len({i.key for i in a}) == workloads.POOL_SIZE


def test_spec_names_match_benchmark_json():
    spec = json.loads((BENCH / "spec.json").read_text())
    assert set(spec["workloads"]) == set(NAMES) == set(workloads.WORKLOAD_NAMES)
    assert END_TO_END <= set(spec["end_to_end"])
    for name in NAMES:
        workload = workloads.make_workload(name)
        per_job = spec["workloads"][name]["work_per_job"]
        assert per_job == {
            "trials": workload.trials_per_job,
            "precoders": workload.precoders_per_job,
            "samples": workload.samples_per_job,
        }


def test_exits_nonzero_without_the_program_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=workdir, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
