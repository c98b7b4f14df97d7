"""Command-line front end.

Commands
--------
``run <preset>``
    Execute an experiment preset and write its table.
``metrics <realization.json>``
    Evaluate accuracy/security for a supplied channel realization and a
    chosen precoder, printing the report as JSON.
``optimize <realization.json>``
    Emit the optimized zero-forcing precoder for supplied channels as JSON.
``selftest``
    Cross-validate the closed forms against simulation; nonzero exit on
    failure.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric or contract
error (a floating-point overflow, invalid value or division by zero
included), 4 I/O error.  All randomness is determined by ``--seed``; ``optimize``
draws none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .channel import _complex_out, load_realization
from .encoding import build_precoder, eta_from_delta, precoder_to_dict
from .errors import ConfigurationError, ContractError, InfeasibleError, ShapeError
from .experiments import PRESET_NAMES, default_preset, run_preset, write_table
from .metrics import _MIN_SAMPLES, evaluate
from .selftest import run_selftest
from .version import __version__

_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otasec",
        description="Secure over-the-air computation simulator and noise optimizer.",
    )
    parser.add_argument("--version", action="version", version=f"otasec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment preset")
    p_run.add_argument("preset", help=f"one of: {', '.join(PRESET_NAMES)}")
    p_run.add_argument("--seed", type=int, default=1, help="base seed (default 1)")
    p_run.add_argument("--trials", type=int, default=None, help="override num_realizations")
    p_run.add_argument("--out", default=None, help="output path (default <preset>.dat)")
    p_run.add_argument("--config", default=None, help="JSON file with scenario overrides")
    p_run.add_argument(
        "--threads", type=int, default=None, help="worker threads (default 1: trials run serially)"
    )
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario or preset field (repeatable)",
    )

    for name in ("metrics", "optimize"):
        p = sub.add_parser(name, help=f"{name} on a supplied realization")
        p.add_argument("realization", help="path to a realization JSON document")
        p.add_argument("--eta", type=float, default=None, help="explicit amplitude factor")
        p.add_argument(
            "--delta", type=float, default=1.0, help="fraction of the maximum eta (default 1)"
        )
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        if name == "metrics":
            p.add_argument("--seed", type=int, default=1, help="seed of the random precoder kinds")
            p.add_argument("--kind", default="none", help="precoder kind (default none)")
            p.add_argument("--theta", type=float, default=None, help="mixture weight (default 0.5)")
        p.add_argument("--shared-n", type=int, default=None, help="share zero-forcing among N users")
        p.add_argument(
            "--selection",
            default=None,
            choices=("exhaustive", "best_channel"),
            help="user-selection rule for shared zero-forcing (default exhaustive)",
        )

    p_self = sub.add_parser("selftest", help="run the oracle-based invariant suite")
    p_self.add_argument("--trials", type=int, default=20)
    p_self.add_argument("--seed", type=int, default=1)
    p_self.add_argument("--samples", type=int, default=10**5)
    return parser


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            out[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            out[key.strip()] = value
    return out


def _coerce_tuples(overrides: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()}


def _worker_count(args) -> int | None:
    """``--threads``, else ``OTA_SIM_THREADS``, else None (trials run serially)."""
    raw = (os.environ.get("OTA_SIM_THREADS") or None) if args.threads is None else args.threads
    if raw is None:
        return None
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigurationError(f"OTA_SIM_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigurationError(f"the worker count must be at least 1, got {threads}")
    return threads


def _cmd_run(args) -> int:
    threads = _worker_count(args)
    overrides = _coerce_tuples(_parse_overrides(args.overrides))
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_overrides = json.load(fh)
            except ValueError as exc:  # malformed JSON or not UTF-8
                raise ConfigurationError(f"--config {args.config}: not a JSON document: {exc}") from None
        if not isinstance(file_overrides, dict):
            raise ConfigurationError("--config must contain a JSON object")
        overrides = {**file_overrides, **overrides}
    for key, flag in (("base_seed", "--seed"), ("num_realizations", "--trials")):
        if key in overrides:
            raise ConfigurationError(f"{key} is set by {flag}, not by --set or --config")
    overrides["base_seed"] = args.seed
    if args.trials is not None:
        overrides["num_realizations"] = args.trials
    preset = default_preset(args.preset, **overrides)
    preset.config.validate()
    table = run_preset(preset, threads=threads)
    out = args.out or f"{args.preset}.dat"
    write_table(table, out)
    print(f"wrote {len(table.rows)} rows to {out}")
    return 0


def _emit(document: dict, out: str) -> None:
    try:
        text = json.dumps(document, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ContractError("refusing to emit non-finite values") from exc
    if out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _resolve_eta(args, real) -> float:
    if args.eta is not None:
        if not (math.isfinite(args.eta) and args.eta >= 0.0):
            raise ConfigurationError(f"--eta must be finite and nonnegative, got {args.eta}")
        return args.eta
    if not 0.0 <= args.delta <= 1.0:
        raise ConfigurationError(f"--delta must lie in [0, 1], got {args.delta}")
    return eta_from_delta(real, args.delta)


def _check_at_least(*checks) -> None:
    """Reject, before any work, an integer argument below its least value."""
    for flag, value, least in checks:
        if value < least:
            raise ConfigurationError(f"{flag} must be at least {least}, got {value}")


def _precoder(args, kind: str, params: dict, seed: int = 0):
    """The realization, eta and precoder of ``metrics`` and ``optimize``; ``--shared-n`` overrides ``kind``.

    A design flag that ``kind`` would not read exits 2 before the realization is loaded.
    """
    if args.shared_n is not None and kind not in ("proposed", "proposed_shared"):
        raise ConfigurationError(f"--shared-n needs --kind proposed or proposed_shared, got {kind}")
    if args.selection is not None and args.shared_n is None:
        raise ConfigurationError("--selection needs --shared-n")
    real = load_realization(args.realization)
    eta = _resolve_eta(args, real)
    if args.shared_n is not None:
        if not 1 <= args.shared_n < real.num_users:
            raise ConfigurationError(f"--shared-n must lie in [1, {real.num_users - 1}], got {args.shared_n}")
        kind, params = "proposed_shared", {"N": args.shared_n, "selection": args.selection or "exhaustive"}
    return real, eta, build_precoder(kind, real, eta, seed=seed, params=params)


def _cmd_metrics(args) -> int:
    _check_at_least(("--seed", args.seed, 0))
    if args.theta is not None and args.kind != "mixture":
        raise ConfigurationError(f"--theta needs --kind mixture, got {args.kind}")
    theta = 0.5 if args.theta is None else args.theta
    if not 0.0 <= theta <= 1.0:
        raise ConfigurationError(f"--theta must lie in [0, 1], got {theta}")
    real, eta, precoder = _precoder(args, args.kind, {"theta": theta}, args.seed)
    report = evaluate(real, precoder.A, eta)
    _emit(
        {
            "kind": precoder.kind,
            "eta": eta,
            "D": report.D,
            "S_coop": report.S_coop,
            "S_noncoop": report.S_noncoop,
            "p_opt": _complex_out(report.p_opt),
            "per_eav_security": report.per_eav_security.tolist(),
        },
        args.out,
    )
    return 0


def _cmd_optimize(args) -> int:
    _, _, precoder = _precoder(args, "proposed", {})
    _emit(precoder_to_dict(precoder), args.out)
    return 0


def _cmd_selftest(args) -> int:
    _check_at_least(
        ("--trials", args.trials, 0), ("--seed", args.seed, 0), ("--samples", args.samples, _MIN_SAMPLES)
    )
    return run_selftest(trials=args.trials, seed=args.seed, samples=args.samples)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    commands = {"run": _cmd_run, "metrics": _cmd_metrics, "optimize": _cmd_optimize, "selftest": _cmd_selftest}
    try:
        # An overflow, invalid value or division by zero is a numeric fault, never a warning and a NaN.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return commands[args.command](args)
    except ConfigurationError as exc:
        print(f"error: code={_EXIT_CONFIG} message={exc}", file=sys.stderr)
        if "unknown preset" in str(exc):
            print(parser.format_usage(), end="", file=sys.stderr)
        return _EXIT_CONFIG
    except (ContractError, ShapeError, InfeasibleError, RuntimeError, ArithmeticError) as exc:
        print(f"error: code={_EXIT_NUMERIC} message={exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except OSError as exc:
        print(f"error: code={_EXIT_IO} message={exc}", file=sys.stderr)
        return _EXIT_IO


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
