"""The benchmark's workloads: inputs derived from a seed, one job, its checks.

Each workload puts one group of otasec's layers at the centre of its job and
leaves the others nearly idle, so a change to one layer shows on one workload
while the other two serve as its "no change" control:

* ``shared_zf``: ``otasec run shared_zf`` through ``otasec.cli.main``.  The
  exhaustive group zero-forcing search makes the LP simplex and the
  optimizer's LP assembly dominate, and its trials go through the preset's
  worker pool.
* ``tradeoff``: ``otasec run tradeoff`` through ``otasec.cli.main``.  It
  builds and scores 2,200 mixture precoders on one realization, serially:
  precoder construction, Cholesky solves and the closed-form metrics.
* ``oracle``: one ``otasec.metrics.mc_oracle`` call at 10^6 samples on a
  precoder built during set-up.  Only the Monte Carlo oracle runs.

Only this module derives inputs from the workload seed; the program receives
generated arguments.  Every job's output is checked, and a failed check
raises :class:`CheckFailed`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Seed whose preset tables are stored under ``reference/``.
DEFAULT_SEED = 1
# Distinct inputs per run; jobs cycle through them, so every input repeats and
# its output bytes can be compared with the first time it ran.
POOL_SIZE = 8
# Largest |z| of an oracle estimate against the closed form that still passes.
ORACLE_Z_LIMIT = 5.0
# Relative tolerance of a table value against the reference.  A value printed
# with 12 significant digits may also differ by one unit in its last digit.
REFERENCE_RTOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Calibration kernels.  On a shared 2-vCPU host the speed of a core changed by
# up to 1.8x for tens of seconds at a time: identical tradeoff jobs took
# 0.49-1.17 s within five minutes.  Each job is therefore paired with a fixed
# computation shaped like it that does not touch otasec, and times are
# reported in reference seconds: wall seconds x the kernel's reference time /
# its time around the job.  Over ten 35-second runs per workload, wall-time
# medians spread by 5-27% (quartile distance over median) and reference-second
# medians by 3-5%.


def small_ops_kernel() -> float:
    """Seconds for Python loops over small complex matrices, like the presets'."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 9)) + 1j * rng.standard_normal((10, 9))
    h = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    start = time.perf_counter()
    for _ in range(150):
        B = A @ A.conj().T + np.eye(10)
        L = np.zeros_like(B)
        for j in range(10):
            d = B[j, j].real - np.real(L[j, :j] @ L[j, :j].conj())
            L[j, j] = math.sqrt(d)
            if j + 1 < 10:
                L[j + 1 :, j] = (B[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j].conj()) / L[j, j]
        float(np.sum(np.abs(h @ A) ** 2))
    return time.perf_counter() - start


def sampling_kernel() -> float:
    """Seconds for chunked complex Gaussian draws and products, like the oracle's."""
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 10)) + 1j * rng.standard_normal((5, 10))
    start = time.perf_counter()
    for _ in range(3):
        g = (rng.standard_normal((8192, 10)) + 1j * rng.standard_normal((8192, 10))) / math.sqrt(2.0)
        z = g @ M.T
        float((z.T @ z.conj()).real.sum()) + float(np.sum(np.abs(z) ** 2))
    return time.perf_counter() - start


class CheckFailed(Exception):
    """A job's output is missing, malformed, non-finite or wrong."""


def derive_seeds(seed: int, count: int, salt: int) -> list[int]:
    """``count`` program seeds in [1, 10^6] drawn from the workload seed."""
    state = np.random.SeedSequence(seed, spawn_key=(salt,)).generate_state(count)
    return [int(s) % 10**6 + 1 for s in state]


@dataclass
class PresetInput:
    key: str  # identifies the input: equal keys must give equal output bytes
    argv: list
    out: Path


@dataclass
class OracleInput:
    key: str
    kind: str
    real: object
    A: np.ndarray
    eta: float
    D: float  # closed form, computed during set-up
    S_coop: float
    oracle_seed: int


@dataclass
class Outcome:
    """What a checked job leaves for the run record."""

    digest: str
    output: bytes = b""
    stats: dict = field(default_factory=dict)


def _read_table(data: bytes) -> tuple[dict, list, np.ndarray]:
    meta, columns, rows = {}, [], []
    for line in data.decode("utf-8").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif not columns:
            columns = line.split()
        else:
            rows.append([float(tok) for tok in line.split()])
    return meta, columns, np.array(rows, dtype=float)


def compare_tables(data: bytes, reference: bytes) -> None:
    """Raise unless ``data`` matches ``reference`` to within the rounding bound."""
    meta, cols, rows = _read_table(data)
    ref_meta, ref_cols, ref_rows = _read_table(reference)
    meta.pop("build", None)
    ref_meta.pop("build", None)
    if meta != ref_meta:
        raise CheckFailed("table metadata differs from the reference")
    if cols != ref_cols or rows.shape != ref_rows.shape:
        raise CheckFailed(f"table shape {cols} {rows.shape} differs from the reference")
    magnitude = np.abs(ref_rows)
    with np.errstate(divide="ignore"):  # log10(0) = -inf gives a zero allowance
        last_digit = 10.0 ** (np.floor(np.log10(magnitude)) - 11)
    excess = np.abs(rows - ref_rows) - (REFERENCE_RTOL * magnitude + last_digit)
    if np.any(excess > 0):
        worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
        raise CheckFailed(
            f"table differs from the reference at row {worst[0]} column {cols[worst[1]]}: "
            f"{rows[worst]!r} vs {ref_rows[worst]!r}"
        )


class PresetWorkload:
    """A preset run through ``otasec.cli.main`` that writes its table to disk."""

    samples_per_job = 0
    kernel = staticmethod(small_ops_kernel)
    kernel_reference_s = 0.015

    def __init__(self, name: str, args: list, trials: int, precoders: int, pooled: bool, smoke: bool):
        self.name = name
        self.args = args
        self.trials_per_job = trials
        self.precoders_per_job = precoders
        self.pooled = pooled
        self.smoke = smoke

    @property
    def workers(self) -> int:
        """Worker threads the preset runs its trials on (the CLI's default)."""
        if not self.pooled:
            return 1
        threads = int(os.environ.get("OTA_SIM_THREADS") or os.cpu_count() or 1)
        return max(1, min(threads, self.trials_per_job))

    def sizes(self) -> dict:
        return {
            "argv": ["run", self.name, *self.args],
            "trials": self.trials_per_job,
            "precoders": self.precoders_per_job,
        }

    def build(self, seed: int, workdir: Path) -> list:
        inputs = []
        for i, base in enumerate(derive_seeds(seed, POOL_SIZE, salt=1)):
            out = workdir / f"{self.name}-{i}.dat"
            argv = ["run", self.name, "--seed", str(base), *self.args, "--out", str(out)]
            inputs.append(PresetInput(key=f"seed={base}", argv=argv, out=out))
        return inputs

    def execute(self, inp: PresetInput, serial: bool = False):
        from otasec import cli

        argv = inp.argv + ["--threads", "1"] if serial else inp.argv
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stderr.getvalue()

    def verify(self, inp: PresetInput, result) -> Outcome:
        code, stderr = result
        if code != 0:
            raise CheckFailed(f"otasec {' '.join(inp.argv)} exited {code}: {stderr.strip()}")
        try:
            data = inp.out.read_bytes()
            _, columns, rows = _read_table(data)
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            raise CheckFailed(f"cannot read {inp.out.name}: {exc}") from exc
        if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != len(columns):
            raise CheckFailed(f"{inp.out.name} has a malformed table of shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise CheckFailed(f"{inp.out.name} holds non-finite values")
        return Outcome(digest=hashlib.sha1(data).hexdigest(), output=data)

    def reference_path(self, reference_dir: Path) -> Path:
        suffix = "-smoke" if self.smoke else ""
        return reference_dir / f"{self.name}{suffix}.dat"

    def check_reference(self, outcome: Outcome, reference_dir: Path) -> dict:
        """Compare a default-seed table with the stored one."""
        path = self.reference_path(reference_dir)
        try:
            reference = path.read_bytes()
        except OSError as exc:
            raise CheckFailed(f"cannot read reference table {path.name}: {exc}") from exc
        compare_tables(outcome.output, reference)
        return {
            "table_sha1": outcome.digest,
            "reference_sha1": hashlib.sha1(reference).hexdigest(),
            "byte_identical": outcome.output == reference,
        }


class OracleWorkload:
    """One Monte Carlo oracle call per job, checked against the closed form."""

    name = "oracle"
    # Precoder kinds and power fractions rotate as in ``otasec selftest``.
    kinds = ("none", "signal_level", "random_zf", "data_level", "mixture", "proposed")
    deltas = (0.5, 0.7, 0.9)
    num_users = 10
    num_eavesdroppers = 5

    trials_per_job = 1
    precoders_per_job = 1
    workers = 1
    kernel = staticmethod(sampling_kernel)
    kernel_reference_s = 0.013

    def __init__(self, smoke: bool):
        self.smoke = smoke

    @property
    def samples_per_job(self) -> int:
        return 10**4 if self.smoke else 10**6

    def sizes(self) -> dict:
        return {
            "num_users": self.num_users,
            "num_eavesdroppers": self.num_eavesdroppers,
            "samples": self.samples_per_job,
            "kinds": list(self.kinds),
            "deltas": list(self.deltas),
        }

    def build(self, seed: int, workdir: Path) -> list:
        from otasec import ScenarioConfig, sample_realization
        from otasec.encoding import build_precoder, eta_from_delta
        from otasec.metrics import approximation_error, coop_security

        config = ScenarioConfig(num_users=self.num_users, num_eavesdroppers=self.num_eavesdroppers)
        count = len(self.kinds)
        seeds = zip(
            derive_seeds(seed, count, salt=2),
            derive_seeds(seed, count, salt=3),
            derive_seeds(seed, count, salt=4),
        )
        inputs = []
        for i, (real_seed, precoder_seed, oracle_seed) in enumerate(seeds):
            kind = self.kinds[i]
            real = sample_realization(config, real_seed)
            eta = eta_from_delta(real, self.deltas[i % len(self.deltas)])
            A = build_precoder(kind, real, eta, seed=precoder_seed, params={"theta": 0.5}).A
            s_coop, _ = coop_security(real, A, eta)
            inputs.append(
                OracleInput(
                    key=f"{kind} realization={real_seed} precoder={precoder_seed} oracle={oracle_seed}",
                    kind=kind,
                    real=real,
                    A=A,
                    eta=eta,
                    D=approximation_error(real, A, eta),
                    S_coop=s_coop,
                    oracle_seed=oracle_seed,
                )
            )
        return inputs

    def execute(self, inp: OracleInput, serial: bool = False):
        from otasec import metrics

        return metrics.mc_oracle(inp.real, inp.A, inp.eta, self.samples_per_job, inp.oracle_seed)

    def verify(self, inp: OracleInput, report) -> Outcome:
        values = (report.D_hat, report.S_hat, report.std_err_D, report.std_err_S)
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"oracle {inp.kind} returned non-finite values {values}")
        if report.num_samples != self.samples_per_job:
            raise CheckFailed(f"oracle {inp.kind} reports {report.num_samples} samples")
        z = []
        for estimate, closed, err in ((report.D_hat, inp.D, report.std_err_D),
                                      (report.S_hat, inp.S_coop, report.std_err_S)):
            if err > 0:
                z.append(abs(estimate - closed) / err)
            elif estimate != closed:
                raise CheckFailed(f"oracle {inp.kind} has zero standard error but differs")
        max_z = max(z, default=0.0)
        if max_z > ORACLE_Z_LIMIT:
            raise CheckFailed(f"oracle {inp.kind} lies {max_z:.2f} standard errors from the closed form")
        digest = hashlib.sha1(np.array(values).tobytes()).hexdigest()
        return Outcome(digest=digest, stats={"max_abs_z": max_z})

    def check_reference(self, outcome: Outcome, reference_dir: Path) -> dict:
        # The oracle's random stream may change by design; its check is the
        # z-score against the closed form, which every job already passed.
        return {}


WORKLOAD_NAMES = ("shared_zf", "tradeoff", "oracle")


def make_workload(name: str, smoke: bool = False):
    """The named workload at full size, or on tiny inputs with ``smoke``."""
    if name == "shared_zf":
        # K = 10, exhaustive group zero-forcing for N in {1, 2}: per trial,
        # 2 SNRs x 2 eavesdropper counts x (proposed, N=1, N=2) precoders.
        if smoke:
            args = ["--trials", "2", "--set", "sweep_values=[0]", "--set", "l_values=[3]",
                    "--set", "num_users=4"]
            return PresetWorkload(name, args, trials=2, precoders=2 * 3, pooled=True, smoke=True)
        args = ["--trials", "4", "--set", "sweep_values=[0,20]", "--set", "l_values=[3,7]"]
        return PresetWorkload(name, args, trials=4, precoders=4 * 2 * 2 * 3, pooled=True, smoke=False)
    if name == "tradeoff":
        # K = 10, L = 7: per delta, one proposed precoder and 50 pairs x 11
        # mixture weights, all on one realization.
        if smoke:
            args = ["--set", "sweep_values=[0.5]", "--set", "mixture_pairs=2",
                    "--set", "mixture_thetas=3"]
            return PresetWorkload(name, args, trials=1, precoders=1 + 2 * 3, pooled=False, smoke=True)
        args = ["--set", "sweep_values=[0.25,0.5,0.75,1]"]
        return PresetWorkload(name, args, trials=1, precoders=4 * (1 + 50 * 11), pooled=False, smoke=False)
    if name == "oracle":
        return OracleWorkload(smoke)
    raise ValueError(f"unknown workload {name!r}")
