"""Golden-table guard: one small run of every preset against a stored table.

Each preset runs at a small size (two realizations, two or three sweep
points) and its table must match ``tests/golden/<preset>.dat``: the metadata
lines (except ``build``) and the column header byte for byte, every value
within 1e-12 relative plus one unit in the 12th printed digit.  A change that
is meant to leave the tables alone is checked by this file; a change that
moves them on purpose regenerates the stored tables with

    PYTHONPATH=src python tests/test_golden.py

and says so in its change log.  The sha1 of each preset's full-size table at
seed 1, by the recipe in ROADMAP.md, of ``shared_zf --trials 100`` and of the
stdout of ``otasec selftest`` (default arguments) are printed and checked
against ``SHA1_EXPECTED`` (exit 1, naming each mismatch), after the OpenBLAS
core in use (the bytes hold for one core's kernels), with

    PYTHONPATH=src python tests/test_golden.py --sha1

and ROADMAP.md's preset-time table (serial, seed 1, min and median of 6 in-process runs), with a row for
benchmark ``shared_zf``'s job, its ``mc_oracle`` row (one call at 10^6 samples), its ``statistical_csi_check`` row (one call at 10^5
draws), its Cholesky/solve rows (``coop_security`` per call, in µs) and its ``optimize_designs`` rows
(one benchmark-shaped group of designs, then one lone design, per call, in µs) with

    PYTHONPATH=src python tests/test_golden.py --times
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from otasec.channel import ScenarioConfig, sample_realization
from otasec.cli import main
from otasec.encoding import build_precoder, eta_from_delta, mixture_precoders
from otasec.experiments import _DESIGNS, _trial_shared_zf, default_preset, run_preset, write_table
from otasec.metrics import coop_security, mc_oracle, statistical_csi_check
from otasec.optimizer import LP_DESIGNS, optimize_designs

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

SIZES = {
    "eta_design_space": dict(sweep_values=(0.1, 0.5, 1.0)),
    "sweep_L": dict(num_realizations=2, sweep_values=(1, 3, 5)),
    "sweep_snr_designs": dict(
        num_realizations=2,
        sweep_values=(-10.0, 10.0),
        designs=_DESIGNS + ("proposed_shared",),
        delta=0.7,
    ),
    "security_gap": dict(num_realizations=2, sweep_values=(-10.0, 10.0), delta=0.7),
    "collocated": dict(num_realizations=2, sweep_values=(-10.0, 10.0)),
    "shared_zf": dict(num_realizations=2, sweep_values=(0.0, 20.0), l_values=(3, 5), num_users=6),
    "power_control": dict(num_realizations=2, sweep_values=(-10.0, 10.0)),
    "tradeoff": dict(sweep_values=(0.0, 0.5, 1.0), mixture_pairs=2, mixture_thetas=3),
}


# The full-size recipe: presets in ROADMAP.md's order, each with its --trials (None: the default).
SHA1_TRIALS = {
    "sweep_L": 20,
    "sweep_snr_designs": 20,
    "security_gap": 20,
    "collocated": 20,
    "power_control": 20,
    "shared_zf": 2,
    "tradeoff": None,
    "eta_design_space": None,
}
# Printed after them as "shared_zf --trials 100".  Its degenerate max-min LPs have several optimal
# lambda, and S_coop depends on which one the simplex returns: a change of simplex moved this
# table while the 2- and 20-trial tables stayed the same.
SHA1_EXTRA = ("shared_zf", 100)
# The sha1 of each table of the recipe, by its printed label.  A change that moves a table on purpose updates it here.
SHA1_EXPECTED = {
    "sweep_L": "db30b6701948657eeb4f649dd233bdb839dc3f41",
    "sweep_snr_designs": "5955c36393fa77d25dad2e420dc0e9aec0e0e6c9",
    "security_gap": "8f354ef704328b0629f4538f71aeeb5966ee044c",
    "collocated": "49d84ced3b5eb25b38a78b407292123ad6cd2add",
    "power_control": "754e9b939eaf8ffaa62c51aabed1b83cf252e8bd",
    "shared_zf": "190da4c5f186019862757baed8b6cf97631ff96d",
    "tradeoff": "928e0274cc3543659eade482a6360f7299826435",
    "eta_design_space": "2083e168fffc2cd0c20f8732b20378d31c4e38db",
    "shared_zf --trials 100": "57a90962d6aa86ab30817d44f75014a6eae48ac7",
    "selftest": "3742b412c36b4aa0f138217745cfcda77a0f5b02",
}
# The sizes of ROADMAP.md's preset-time table: the sha1 recipe's, with shared_zf at 20 trials.
TIME_TRIALS = {**SHA1_TRIALS, "shared_zf": 20}
TIME_RUNS = 6


def _write(name, path):
    write_table(run_preset(default_preset(name, **SIZES[name]), threads=1), path)


def _split(path):
    """Metadata lines without ``build``, then the column header; and the rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    n_meta = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = [line for line in lines[: n_meta + 1] if not line.startswith("# build:")]
    rows = [[float(tok) for tok in line.split()] for line in lines[n_meta + 1 :]]
    return header, np.array(rows, dtype=float)


@pytest.mark.parametrize("name", sorted(SIZES))
def test_table_matches_golden(tmp_path, name):
    out = tmp_path / f"{name}.dat"
    _write(name, out)
    header, rows = _split(out)
    ref_header, ref_rows = _split(GOLDEN_DIR / f"{name}.dat")
    assert header == ref_header
    assert rows.shape == ref_rows.shape
    magnitude = np.abs(ref_rows)
    with np.errstate(divide="ignore"):  # log10(0) = -inf gives a zero allowance
        last_digit = 10.0 ** (np.floor(np.log10(magnitude)) - 11)
    excess = np.abs(rows - ref_rows) - (RTOL * magnitude + last_digit)
    assert not np.any(excess > 0), f"largest excess {excess.max():.3e}"


def _sha1s():
    """Run ``otasec run <preset> --seed 1`` for every preset, the extra run, then ``otasec selftest``.

    Yields ``(label, sha1)`` pairs; the selftest's sha1 is of its stdout.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for at, (name, trials) in enumerate([*SHA1_TRIALS.items(), SHA1_EXTRA]):
            out = Path(tmp) / f"{at}.dat"
            argv = ["run", name, "--seed", "1", "--out", str(out)]
            argv += ["--trials", str(trials)] if trials else []
            with contextlib.redirect_stdout(io.StringIO()):  # the "wrote N rows" line
                code = main(argv)
            if code:
                raise SystemExit(f"otasec {' '.join(argv)} exited {code}")
            label = name if at < len(SHA1_TRIALS) else f"{name} --trials {trials}"
            yield label, hashlib.sha1(out.read_bytes()).hexdigest()
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = main(["selftest"])
    if code:
        raise SystemExit(f"otasec selftest exited {code}")
    yield "selftest", hashlib.sha1(report.getvalue().encode()).hexdigest()


def _openblas_core() -> str:
    """The OpenBLAS core numpy's bundled library runs, as it names it, or "unknown" where it cannot say."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _check_sha1s() -> int:
    """Print ``label sha1`` lines, then one line on stderr per table whose sha1 is not ``SHA1_EXPECTED``'s; 1 if any."""
    mismatched = []
    for label, digest in _sha1s():
        print(label, digest)
        if digest != SHA1_EXPECTED.get(label):
            mismatched.append(label)
    for label in mismatched:
        print(f"sha1 mismatch: {label} (expected {SHA1_EXPECTED.get(label)})", file=sys.stderr)
    return 1 if mismatched else 0


def test_check_sha1s_names_each_mismatch(monkeypatch, capsys):
    digests = [(label, digest) for label, digest in SHA1_EXPECTED.items()]
    monkeypatch.setattr(sys.modules[__name__], "_sha1s", lambda: iter(digests))
    assert _check_sha1s() == 0 and capsys.readouterr().err == ""
    digests[1], digests[-1] = (digests[1][0], "0" * 40), (digests[-1][0], "1" * 40)
    assert _check_sha1s() == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" (")[0] for line in err] == [
        "sha1 mismatch: sweep_snr_designs",
        "sha1 mismatch: selftest",
    ]


def test_openblas_core_is_named_or_unknown(monkeypatch):
    core = _openblas_core()
    assert core and core.isprintable()
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())  # a library without the symbol
    assert _openblas_core() == "unknown"


def _min_median(run, calls=1) -> str:
    """``min (median) ms`` of ``TIME_RUNS`` calls of ``run``; with ``calls > 1``, each run times
    ``calls`` calls in a row and the figures are µs per call."""
    times = []
    for _ in range(TIME_RUNS):
        start = time.perf_counter()
        for _ in range(calls):
            run()
        times.append((time.perf_counter() - start) / calls)
    scale, unit = (1e3, "ms") if calls == 1 else (1e6, "µs")
    return f"{scale * min(times):.0f} ({scale * np.median(times):.0f}) {unit}"


def _print_times():
    """Print ROADMAP.md's preset-time table rows: each preset serial at seed 1, benchmark ``shared_zf``'s job
    (4 trials, 0 and 20 dB, L = 3 and 7), one ``mc_oracle`` call,
    one ``statistical_csi_check`` call, then the Cholesky/solve layer as ``coop_security`` calls.

    The oracle row is 10^6 samples on the seed-1 realization at K = 10, L = 5 with the ``proposed``
    precoder at delta 0.7, and the CSI row 10^5 phase draws at K = 10, L = 5 and seed 1; both run
    their lanes on the host's cores.  The ``coop_security`` rows score
    the default ``tradeoff`` realization's 50 x 11 mixture stack (K = 10, L = 7) at delta 0.5, and one
    ``none`` precoder on the seed-1 realization at K = 10, L = 15.  The ``optimize_designs`` row, in µs
    per call, designs one group of benchmark ``shared_zf``'s trials: the requests of the seed-1 and
    seed-2 trials at L = 3 and 7, 0 and 20 dB and the preset's delta (proposed, N = 1 and N = 2 each).
    The lone-design row designs one request: the default ``tradeoff`` realization's proposed design over
    benchmark ``tradeoff``'s four deltas.
    """
    print("| Preset | Size | Time |\n|---|---|---|")
    for name, trials in TIME_TRIALS.items():
        preset = default_preset(name, base_seed=1, **({"num_realizations": trials} if trials else {}))
        size = f"n = {trials}" if trials else "default"
        print(f"| `{name}` | {size} | {_min_median(lambda: run_preset(preset, threads=1))} |")
    job = default_preset("shared_zf", base_seed=1, num_realizations=4, sweep_values=(0.0, 20.0), l_values=(3, 7))
    print(f"| `shared_zf` | n = 4, 0 and 20 dB, L = 3 and 7 | {_min_median(lambda: run_preset(job, threads=1))} |")
    real = sample_realization(ScenarioConfig(num_users=10, num_eavesdroppers=5), 1)
    eta = eta_from_delta(real, 0.7)
    A = build_precoder("proposed", real, eta).A
    print(f"| `mc_oracle` | 10^6 samples | {_min_median(lambda: mc_oracle(real, A, eta, 10**6, seed=1))} |")
    csi = _min_median(lambda: statistical_csi_check(ScenarioConfig(num_users=10, num_eavesdroppers=5), 10**5, seed=1))
    print(f"| `statistical_csi_check` | 10^5 draws, K = 10, L = 5 | {csi} |")
    tradeoff = default_preset("tradeoff", base_seed=1)
    mixed = sample_realization(tradeoff.config, tradeoff.base_seed)
    eta = eta_from_delta(mixed, 0.5)
    thetas = np.linspace(0.0, 1.0, tradeoff.mixture_thetas)
    stack = mixture_precoders(mixed, eta, range(tradeoff.mixture_pairs), thetas)
    size = " x ".join(map(str, stack.shape))
    print(f"| `coop_security` | {size} stack | {_min_median(lambda: coop_security(mixed, stack, eta), calls=100)} |")
    real = sample_realization(ScenarioConfig(num_users=10, num_eavesdroppers=15), 1)
    eta = eta_from_delta(real, 1.0)
    A = build_precoder("none", real, eta).A
    print(f"| `coop_security` | K = 10, L = 15 | {_min_median(lambda: coop_security(real, A, eta), calls=1000)} |")
    preset = default_preset("shared_zf", base_seed=1, sweep_values=(0.0, 20.0), l_values=(3, 7))
    requests = [request for r in range(2) for request in next(_trial_shared_zf(preset, r))]
    group = _min_median(lambda: optimize_designs(requests), calls=20)
    print(f"| `optimize_designs` | {len(requests)} requests, K = 10, L = 3 and 7, 2 SNRs | {group} |")
    lone = [(mixed, eta_from_delta(mixed, np.array([0.25, 0.5, 0.75, 1.0])), *LP_DESIGNS["proposed"])]
    alone = _min_median(lambda: optimize_designs(lone), calls=100)
    print(f"| `optimize_designs` | 1 request, K = 10, L = 7, 4 deltas | {alone} |")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Regenerate tests/golden, or print the seed-1 preset sha1s or preset times."
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--sha1", action="store_true", help="print and check the sha1s instead of regenerating")
    mode.add_argument("--times", action="store_true", help="print the preset-time table instead of regenerating")
    args = parser.parse_args()
    if args.sha1:
        print("openblas-core", _openblas_core())
        raise SystemExit(_check_sha1s())
    elif args.times:
        _print_times()
    else:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for preset_name in sorted(SIZES):
            _write(preset_name, GOLDEN_DIR / f"{preset_name}.dat")
