"""otasec benchmark: one closed-loop client sending jobs of one workload.

Usage, from the root of a source checkout (otasec is imported from ``src/``):

    python3 benchmarks/run.py --workload shared_zf --seed 7 --seconds 30 --trace 0

Workloads are ``shared_zf``, ``tradeoff`` and ``oracle`` (see ``workloads.py``
and ``spec.json``).  The client sends the next job only when the previous one
has finished.  Every run first runs the default-seed input once and checks it
against the stored reference; then:

* ``--trace 0`` times untraced jobs for ``--seconds`` and reports the
  end-to-end metrics: set-up time (median of fresh interpreters that import
  otasec and build the inputs), job time median and tail, throughput and peak
  memory.  Times are in reference seconds: each job and set-up probe is
  paired with a fixed calibration kernel shaped like it (see ``workloads.py``
  and ``setup_seconds``), and its wall time is scaled by the kernel's
  reference time over the kernel's measured time.  Wall times are in the
  record.
* ``--trace 1`` splits ``--seconds`` into untraced jobs at the default worker
  count, untraced serial jobs, and traced jobs, and reports each layer's calls
  and self time per job together with the parallel speed-up, trace coverage
  and tracing overhead.  The spans are written to ``.benchmarks_out/``.

A human-readable table and a ``record:`` line with the machine and inputs come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the
run completed; 1 that no job succeeded; 2 that otasec's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".benchmarks_out"

SETUP_PROBES = 5
# Set-up probes are paired with a fresh interpreter that imports only numpy,
# which drifts with the host the way a probe does; this is its reference time.
SETUP_KERNEL_REFERENCE_S = 0.17
# The tail percentile is the highest one with at least ten jobs beyond it.
TAIL_JOBS = 10
MIN_JOBS = TAIL_JOBS + 1
# Fewest jobs in each of the three phases of a traced run.
MIN_PHASE_JOBS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "trials_per_s": "1/s",
    "precoders_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


class Runner:
    """Runs and checks jobs, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.max_abs_z = 0.0
        self._digests: dict = {}

    def job(self, inp, serial: bool = False):
        """Run one job; returns ``(seconds, outcome)``, or ``(None, None)`` if it failed."""
        from workloads import CheckFailed

        self.attempted += 1
        try:
            start = perf_counter()
            result = self.workload.execute(inp, serial)
            elapsed = perf_counter() - start
            outcome = self.workload.verify(inp, result)
            first = self._digests.setdefault(inp.key, outcome.digest)
            if first != outcome.digest:
                raise CheckFailed(f"output for input {inp.key} changed between repeats")
        except Exception:  # a failed job is counted and the run goes on
            self.fail(traceback.format_exc())
            return None, None
        self.max_abs_z = max(self.max_abs_z, outcome.stats.get("max_abs_z", 0.0))
        return elapsed, outcome

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(message)
            print(f"job failed: {message}", file=sys.stderr)

    def loop(self, inputs: list, seconds: float, min_jobs: int, serial: bool = False, on_job=None) -> dict:
        """Closed loop for ``seconds`` (and at least ``min_jobs``).

        Returns job index -> (job seconds, mean seconds of the calibration
        kernel run just before and just after the job).
        """
        times = {}
        index = 0
        before = self.workload.kernel()
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or index < min_jobs:
            if on_job is not None:
                on_job(index)
            elapsed, _ = self.job(inputs[index % len(inputs)], serial)
            after = self.workload.kernel()
            if elapsed is not None:
                times[index] = (elapsed, (before + after) / 2)
            before = after
            index += 1
        return times


def tail(times: list) -> tuple[float, float]:
    """The highest percentile with ``TAIL_JOBS`` jobs beyond it, and that percentile."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_JOBS
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _timed_process(argv: list) -> float:
    start = perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed


def setup_seconds(workload, seed: int, probes: int) -> list:
    """Fresh interpreters that import otasec and build the inputs.

    Returns (wall seconds, mean seconds of the numpy-only interpreters just
    before and just after it) per probe.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload.name,
            "--seed", str(seed)]
    if workload.smoke:
        argv.append("--smoke")
    kernel = [sys.executable, "-c", "import numpy"]
    out = []
    before = _timed_process(kernel)
    for _ in range(probes):
        elapsed = _timed_process(argv)
        after = _timed_process(kernel)
        out.append((elapsed, (before + after) / 2))
        before = after
    return out


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, when it can be read."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = root / ".git" / "HEAD"
    try:
        head = head_path.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = root / ".git" / ref
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "commit": git_commit(ROOT),
    }


def reference_seconds(pairs, kernel_reference_s: float) -> list:
    """Wall seconds scaled by the kernel's reference time over its time around them."""
    return [wall * kernel_reference_s / kernel for wall, kernel in pairs]


def end_to_end(workload, times: dict, setup: list, rss_mb: float) -> tuple[dict, dict]:
    values = reference_seconds(times.values(), workload.kernel_reference_s)
    busy = sum(values)
    tail_s, tail_pct = tail(values)
    wall = [w for w, _ in times.values()]
    metrics = {
        "setup_s": statistics.median(reference_seconds(setup, SETUP_KERNEL_REFERENCE_S)),
        "job_p50_s": statistics.median(values),
        "job_tail_s": tail_s,
        "trials_per_s": workload.trials_per_job * len(values) / busy,
        "precoders_per_s": workload.precoders_per_job * len(values) / busy,
        "peak_rss_mb": rss_mb,
    }
    extra = {
        "job_tail_percentile": tail_pct,
        "timed_jobs": len(values),
        "samples_per_s": workload.samples_per_job * len(values) / busy,
        "job_p50_wall_s": statistics.median(wall),
        "setup_wall_s": statistics.median(w for w, _ in setup),
        "kernel_median_s": statistics.median(k for _, k in times.values()),
        "job_wall_s": wall,
        "job_reference_s": values,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, extra


def per_layer(workload, tracer, traced: dict, untraced: dict, serial: dict) -> tuple[dict, dict]:
    """Per-layer metrics from wall-clock times (the kernel times are not used)."""
    from spans import LAYERS, layer_totals, self_times

    walls = {job: wall for job, (wall, _) in traced.items()}
    untraced = [wall for wall, _ in untraced.values()]
    serial = [wall for wall, _ in serial.values()]

    spans = [s for s in tracer.spans if s.job in walls]
    selfs = self_times(spans)
    jobs = len(walls)
    totals = layer_totals(spans, selfs)
    metrics = {}
    for layer in LAYERS:
        calls, seconds = totals[layer]
        metrics[f"{layer}.calls"] = (calls / jobs, "count")
        metrics[f"{layer}.self_s"] = (seconds / jobs, "s")
        metrics[f"{layer}.us_per_call"] = (1e6 * seconds / calls if calls else 0.0, "us")

    by_id = {s.id: s for s in spans}
    designs = sum(
        1
        for s in spans
        if s.layer == "optimizer"
        and s.function in ("optimize_proposed", "optimize_shared_zf")
        and (s.parent is None or by_id[s.parent].layer != "optimizer")
    )
    lp_calls = totals["lp"][0]
    metrics["optimizer.lp_per_design"] = (lp_calls / designs if designs else 0.0, "count")
    metrics["experiments.parallel_speedup"] = (
        statistics.median(serial) / statistics.median(untraced), "x"
    )
    samples = workload.samples_per_job
    mc_seconds = totals["metrics_mc"][1] / jobs
    metrics["metrics_mc.ns_per_sample"] = (1e9 * mc_seconds / samples if samples else 0.0, "ns")

    job_self = {job: 0.0 for job in walls}
    for s in spans:
        job_self[s.job] += selfs[s.id]
    coverage = [job_self[j] / (walls[j] * workload.workers) for j in walls]
    metrics["trace.coverage"] = (statistics.median(coverage), "frac")
    metrics["trace.overhead_frac"] = (
        statistics.median(walls.values()) / statistics.median(untraced) - 1.0, "frac"
    )
    total_self = sum(seconds for _, seconds in totals.values())
    extra = {
        "traced_jobs": jobs,
        "spans": len(spans),
        "self_share": {layer: totals[layer][1] / total_self for layer in LAYERS},
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        reference_dir: Path | None = None, probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the run record."""
    import otasec  # noqa: F401  (set-up includes importing the package)
    from spans import Tracer
    from workloads import DEFAULT_SEED, REFERENCE_DIR, make_workload

    load_start = os.getloadavg()
    workload = make_workload(name, smoke)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        inputs = workload.build(seed, workdir)
        check_dir = workdir / "default-seed"
        check_dir.mkdir()
        check_input = workload.build(DEFAULT_SEED, check_dir)[0]

        runner = Runner(workload)
        reference = {}
        _, outcome = runner.job(check_input)
        if outcome is not None:
            try:
                reference = workload.check_reference(outcome, reference_dir or REFERENCE_DIR)
            except Exception:  # a mismatch counts against the check job
                runner.fail(traceback.format_exc())

        extra = {}
        if not trace:
            times = runner.loop(inputs, seconds, MIN_JOBS)
            if len(times) < MIN_JOBS:
                return _failed(runner), {"errors": runner.errors}
            rss_mb = peak_rss_mb()  # before the set-up probes add children
            setup = setup_seconds(workload, seed, probes)
            metrics, extra = end_to_end(workload, times, setup, rss_mb)
        else:
            phase = seconds / 3.0
            untraced = runner.loop(inputs, phase, MIN_PHASE_JOBS)
            serial = runner.loop(inputs, phase, MIN_PHASE_JOBS, serial=True)
            tracer = Tracer()
            with tracer.installed():
                traced = runner.loop(inputs, phase, MIN_PHASE_JOBS, on_job=lambda j: setattr(tracer, "job", j))
            if not (untraced and serial and traced):
                return _failed(runner), {"errors": runner.errors}
            metrics, extra = per_layer(workload, tracer, traced, untraced, serial)
            _write_json(OUT_DIR / f"{name}-spans.json", {
                "fields": ["id", "parent", "layer", "function", "job", "thread", "start", "end"],
                "spans": [s.as_list() for s in tracer.spans],
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "loop": "closed",
        "clients": 1,
        "workers": workload.workers,
        "inputs": workload.sizes(),
        "machine": machine_record(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "failed_frac": runner.failed / runner.attempted,
        "reference": reference,
        "errors": runner.errors,
        **extra,
    }
    if name == "oracle":
        record["max_abs_z"] = runner.max_abs_z
    return result, record


def _failed(runner) -> dict:
    return {"correct": False, "attempted": runner.attempted, "failed": runner.failed, "metrics": {}}


def _write_json(path: Path, document) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, separators=(",", ":"))


def report(result: dict, record: dict) -> None:
    """Print the metric table, the record line and the result line."""
    print(f"workload {record.get('workload')}  seed {record.get('seed')}  trace {record.get('trace')}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {metric['value']:<24.10g} {metric['unit']}")
    if result["attempted"]:
        print(f"  {'failed_frac':<30} {result['failed'] / result['attempted']:<24.10g} "
              f"({result['failed']} of {result['attempted']} jobs)")
    if "job_tail_percentile" in record:
        print(f"  job_tail_s is p{record['job_tail_percentile']:.1f} of {record['timed_jobs']} jobs")
        print(f"  times are reference seconds; wall job_p50 {record['job_p50_wall_s']:.6g} s, "
              f"wall setup {record['setup_wall_s']:.6g} s")
    print("record: " + json.dumps(record, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="otasec closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=("shared_zf", "tradeoff", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "otasec" / "__init__.py").is_file():
        print(f"error: otasec sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import otasec  # noqa: F401
        from workloads import make_workload

        make_workload(args.workload, args.smoke).build(args.seed, OUT_DIR / "probe")
        return 0
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    report(result, record)
    _write_json(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
