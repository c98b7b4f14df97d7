"""Deterministic Monte Carlo experiment presets with tabular output.

Each preset mirrors one study from the evaluation protocol: a sweep over a
system parameter (eavesdropper count, SNR, power-control fraction, ...) whose
metrics are averaged over independent random topologies.  Realization ``r``
of a preset always uses seed ``base_seed + r``, and the same realization
index reuses the same topology across sweep values, so curves are exactly
paired and differences between them have low variance.  Realizations are
also nested in the eavesdropper count: the first L eavesdroppers a seed draws
at L_max are the ones it draws at L.  So ``sweep_L`` scores every L from one
evaluation at L_max, where the first L eavesdroppers' covariance is the
leading L x L block and its Cholesky factor the leading block of the factor.

One entry of the private registry ``_PRESETS`` defines a preset: defaults,
columns, per-trial function, rows, the fields it reads and the configs of
its realizations.  Every preset
runs as trials through :func:`collect_trials`, the scatter presets as one
trial at ``base_seed``; :func:`run_preset` reduces the trials to a table.
Trials take their realizations from sampling passes that draw many seeds at
once.  A group of consecutive trials runs in two rounds: the design round makes
every trial's optimized designs in one ``optimize_designs`` call, and the
score round scores every trial's precoders in one closed-form call per shape,
over a realization axis.  ``sweep_L`` (one evaluation at L_max, read through
prefix sums), ``tradeoff`` (one 550-precoder mixture stack per delta, which
ran slower merged) and ``eta_design_space`` (no precoder scored) stay inline.
Tables serialize to a plain whitespace-separated text format with a
``#``-prefixed metadata block, designed to be loadable by any generic
plotting tool.  Output is byte-for-byte reproducible for a given
preset and seed, independent of the worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, field, replace
from typing import Callable, Generator

import numpy as np

from .channel import (
    ScenarioConfig,
    SystemRealization,
    _check_types,
    _child_seed,
    _child_seeds,
    _fits,
    _stack,
    calibrate_noise,
    config_to_dict,
    sample_realizations,
)
from .encoding import (
    PRECODER_KINDS,
    _no_noise,
    build_precoder,
    eta_bounds_given_mu,
    eta_from_delta,
    mixture_precoders,
)
from .errors import ConfigurationError, ContractError
from .metrics import _coop, _cores, _whitened, approximation_error, closed_forms, noncoop_security
# No preset reads the combiner, so none calls coop_security; the name stays bound here because
# benchmarks/tests/test_benchmark_harness.py checks that a traced run restores it.
from .metrics import coop_security  # noqa: F401
from .optimizer import LP_DESIGNS, _gather, _lp_total, optimize_designs
from .version import __version__

_SNR_GRID = (-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)

# Kind codes used in the tradeoff scatter table.
TRADEOFF_KINDS = {"proposed": 0, "random": 1, "random_zf": 2, "mixture": 3}


@dataclass
class ExperimentPreset:
    """A named experiment: base scenario, sweep values, and design list."""

    name: str
    config: ScenarioConfig
    num_realizations: int = 100
    sweep_values: tuple[float, ...] = ()
    designs: tuple[str, ...] = ()
    base_seed: int = 1
    delta: float = 1.0  # power-control fraction used by the averaged sweeps
    delta_grid: tuple[float, ...] = (0.4, 0.7, 0.85, 1.0)  # power_control preset
    l_values: tuple[int, ...] = (3, 5, 7)  # shared_zf preset
    shared_n_values: tuple[int, ...] = (1, 2)  # shared_zf preset
    power_levels: tuple[float, ...] = (1.0, 10.0)  # eta_design_space preset
    precoder_kind: str = "none"  # eta_design_space preset
    mixture_pairs: int = 50  # tradeoff preset
    mixture_thetas: int = 11  # tradeoff preset


@dataclass
class ResultTable:
    column_names: list
    rows: np.ndarray
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Per-trial metric collection
# ---------------------------------------------------------------------------


def _with_snr(real: SystemRealization, preset: ExperimentPreset) -> SystemRealization:
    # One noise variance per SNR: every closed form and design then carries the SNR axis.
    sigma = np.array([calibrate_noise(replace(preset.config, snr_db=s))[0] for s in preset.sweep_values])
    return replace(real, sigma_y_sq=sigma, sigma_z_sq=sigma)


def _by_snr(cols: list, preset: ExperimentPreset) -> np.ndarray:
    return np.reshape(cols, (-1, len(preset.sweep_values))).T  # (sweep, metrics), also with none


def _first_eavesdroppers(real: SystemRealization, L: int) -> SystemRealization:
    # Realizations are nested in L, so the first L rows are exactly the
    # realization the same seed would produce at num_eavesdroppers = L.
    return replace(real, eav_positions=real.eav_positions[:L], G=real.G[:L])


def _trial_sweep_L(preset: ExperimentPreset, seed: int, real: SystemRealization):
    # One evaluation at L_max scores every L: the first L eavesdroppers' covariance is
    # the leading L x L block of B, so its Cholesky factor is the leading block of
    # C = cholesky(B), and with y = C^{-1} m, m_L^H B_L^{-1} m_L = sum_{l<L} |y_l|^2.
    eta = eta_from_delta(real, preset.delta)
    yield []  # no designs
    A = _no_noise(real.num_users, eta).A
    s_non = np.minimum.accumulate(noncoop_security(real, A, eta)[1])
    s_coop = 1.0 - np.cumsum(np.abs(_whitened(real, A, eta)[1]) ** 2) / real.num_users
    D = approximation_error(real, A, eta)
    rows = np.asarray(preset.sweep_values) - 1  # counts >= 1, checked by the sweep rule
    return np.column_stack(np.broadcast_arrays(D, s_coop[rows], s_non[rows]))


def _trial_sweep_snr_designs(preset: ExperimentPreset, seed: int, real: SystemRealization):
    real = _with_snr(real, preset)
    eta = eta_from_delta(real, preset.delta)
    built = [None if design in LP_DESIGNS else build_precoder(design, real, eta, seed=_child_seed(seed, 17, d_idx))
             for d_idx, design in enumerate(preset.designs)]
    solved = iter((yield [(real, eta, *LP_DESIGNS[d]) for d in preset.designs if d in LP_DESIGNS]))
    scores = yield [(real, (next(solved) if prec is None else prec).A, eta) for prec in built]
    return _by_snr([value for score in scores for value in score], preset)  # D, S_coop, S_noncoop per design


def _columns_sweep_snr_designs(preset: ExperimentPreset):
    cols = ["snr_db"]
    for design in preset.designs:
        cols += [f"D_{design}", f"Scoop_{design}", f"Snoncoop_{design}"]
    return cols


def _trial_collocated(preset: ExperimentPreset, seed: int, *reals: SystemRealization):
    # Its realizations: distributed, then collocated eavesdroppers.
    reals = [_with_snr(real, preset) for real in reals]
    yield []  # no designs
    etas = [eta_from_delta(real, preset.delta) for real in reals]
    scores = yield [(real, _no_noise(real.num_users, eta).A, eta) for real, eta in zip(reals, etas)]
    return _by_snr([value for _, *security in scores for value in security], preset)


def _trial_shared_zf(preset: ExperimentPreset, seed: int, real_full: SystemRealization):
    # For each L the proposed design, then each N.
    real_full = _with_snr(real_full, preset)
    eta = eta_from_delta(real_full, preset.delta)
    requests = []
    for L in preset.l_values:
        real = _first_eavesdroppers(real_full, L)
        requests.append((real, eta, 1, "best_channel"))
        requests += [(real, eta, n, "exhaustive") for n in preset.shared_n_values]
    precs = yield requests
    scores = yield [(real, prec.A, eta) for (real, *_), prec in zip(requests, precs)]
    return _by_snr([s_coop for _, s_coop, _ in scores], preset)


def _columns_shared_zf(preset: ExperimentPreset):
    cols = ["snr_db"]
    for L in preset.l_values:
        cols.append(f"Scoop_proposed_L{int(L)}")
        for n_share in preset.shared_n_values:
            cols.append(f"Scoop_N{int(n_share)}_L{int(L)}")
    return cols


def _trial_power_control(preset: ExperimentPreset, seed: int, real: SystemRealization):
    # eta of shape (deltas, 1) meets the SNR axis: one design and one scored triple.
    real = _with_snr(real, preset)
    eta = eta_from_delta(real, np.asarray(preset.delta_grid, dtype=float)[:, np.newaxis])
    (prec,) = yield [(real, eta, 1, "best_channel")]
    ((D, s_coop, _),) = yield [(real, prec.A, eta)]
    return _by_snr(np.stack([s_coop, D], axis=1), preset)


def _columns_power_control(preset: ExperimentPreset):
    cols = ["snr_db"]
    for delta in preset.delta_grid:
        cols += [f"S_{delta:g}", f"D_{delta:g}"]
    return cols


# The most LPs that trials pool into the first simplex stack of one optimize_designs call, counted as
# optimizer._lp_total counts them: one per family whose SNRs share a basis; a trial with more runs alone.  On a
# 2-core host a lockstep simplex iteration costs a fixed ~85 us, the per-LP work of about 140 LPs, and a stack
# holds about 4.5 KB per LP: at 512 the fixed cost is about a fifth of an iteration, for about 1.2 MiB more peak
# memory.  The members a family's basis does not answer make the call's second, smaller stack.
_GROUP_LPS = 512
# The trials whose realizations one sampling pass draws first (trial 0 among them sizes the groups), and the
# trials of a group without LPs.  Past about 20 realizations a pass saves little more per realization.
_GROUP_TRIALS = 64


def _map_trials(fn, n: int, workers: int | None) -> list:
    """``[fn(r) for r in range(n)]``, on threads only when 2 or more workers are asked for.

    At most one thread per item and per core is started.  Each item runs in a copy of the caller's
    context, so numpy's error state (``np.errstate``) holds on the threads as it does serially.
    """
    workers = min(workers or 1, n, _cores())
    if workers <= 1:
        return [fn(r) for r in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r, context: context.run(fn, r), range(n), [copy_context() for _ in range(n)]))


def collect_trials(preset: ExperimentPreset, threads: int | None = None) -> np.ndarray:
    """Per-trial metric arrays, shape (num_realizations, sweep, metrics), of any preset.

    An averaged preset's trials leave out the sweep column (it is identical
    across trials); a scatter preset's one trial holds its whole table.  Trial
    ``r`` is a generator that takes seed ``base_seed + r`` and its
    realizations, one per config of its preset's ``draws``, and runs in up to
    two rounds.  The design round: it yields its ``optimize_designs``
    requests and takes the precoders back.  The score round: it yields the
    ``(real, A, eta)`` triples it scores and takes back their ``(D, S_coop,
    S_noncoop)`` (:func:`_score`), then returns its rows.  Three presets score
    inline and return after the design round: ``sweep_L`` reads every L from
    the prefix sums of one evaluation at L_max, ``tradeoff`` scores each
    delta's 550-precoder mixture stack in one call of its own (merging the
    deltas into one stack ran slower), and ``eta_design_space`` scores no
    precoder.

    Realizations are drawn in passes, one :func:`~otasec.channel.sample_realizations` call per config: the first
    ``_GROUP_TRIALS`` trials' first, then each group's others.  Consecutive trials run in groups of at most
    ``_GROUP_LPS`` LPs, one per SNR family (``optimizer._lp_total``), counted from trial 0 (every trial has its
    shapes); trials without LPs run ``_GROUP_TRIALS`` to a group.  A group's trials share one ``optimize_designs``
    call and then one ``_score`` call (the optimizer's ``_gather``, which also pools a design's LPs).  Each
    realization is bitwise the one its seed draws alone, each LP takes the steps it would take alone and each
    closed form is bitwise the call on its triple alone, so the rows are bitwise those of one trial at a time.
    Groups run serially unless ``threads`` asks for 2 or more worker threads.
    """
    spec = _PRESETS.get(preset.name)
    if spec is None:
        raise ConfigurationError(f"unknown preset {preset.name!r}")
    _check_fields(preset, spec)
    if preset.num_realizations < 1:
        raise ConfigurationError("num_realizations must be at least 1")
    n = preset.num_realizations
    configs = spec.draws(preset)

    def realizations(rs: range) -> list:
        seeds = [preset.base_seed + r for r in rs]
        return list(zip(*(sample_realizations(config, seeds) for config in configs))) if seeds else []

    def start(r: int, reals: tuple) -> tuple:
        trial = spec.trial(preset, preset.base_seed + r, *reals)
        return trial, next(trial)

    early = realizations(range(min(n, _GROUP_TRIALS)))
    first = start(0, early[0])
    lps = _lp_total(first[1])
    size = max(1, _GROUP_LPS // lps) if lps else _GROUP_TRIALS  # trials per group

    def group(g: int) -> list:
        rs = range(g * size, min((g + 1) * size, n))
        reals = early[rs.start : rs.stop] + realizations(range(max(rs.start, len(early)), rs.stop))
        started = [first if r == 0 else start(r, own) for r, own in zip(rs, reals)]
        return _gather(started, optimize_designs, _score)

    groups = _map_trials(group, -(-n // size), threads)
    return np.stack([rows for trials in groups for rows in trials], axis=0)


def _score(triples) -> list:
    """``(D, S_coop, S_noncoop)`` of each ``(real, A, eta)`` triple, in order: the answer of a score round.

    Triples whose realizations share ``K``, ``L`` and the channels' dtypes, and whose ``A``, ``eta`` and noise
    variances share their shapes, make one stack over a realization axis (:class:`~otasec.channel._Stack`,
    ``A`` stacked before its last two axes), scored by one :func:`~otasec.metrics.closed_forms` call.  No
    eavesdropper row is padded, so each value is bitwise the call on its triple alone.  Where a stack fails, the
    triples are scored alone in turn, so the first that fails raises what it raises alone.
    """
    try:
        stacks = {}
        for at, (real, A, eta) in enumerate(triples):
            shapes = real.G.shape, np.shape(A), np.shape(eta), np.shape(real.sigma_y_sq), np.shape(real.sigma_z_sq)
            stacks.setdefault((*shapes, real.h.dtype, real.G.dtype), []).append(at)
        scores = [None] * len(triples)
        for stack in stacks.values():
            real = _stack([triples[at][0] for at in stack], [triples[at][2] for at in stack])
            values = closed_forms(real, np.stack([triples[at][1] for at in stack], axis=-3), real.eta)
            for i, at in enumerate(stack):
                scores[at] = tuple(value[..., i] for value in values)
        return scores
    except Exception:
        for real, A, eta in triples:  # the first triple that fails alone raises what it raises alone
            closed_forms(real, A, eta)
        raise


# ---------------------------------------------------------------------------
# Table rows
# ---------------------------------------------------------------------------


def _mean_rows(preset: ExperimentPreset, trials: np.ndarray) -> np.ndarray:
    return np.column_stack([np.asarray(preset.sweep_values, dtype=float), trials.mean(axis=0)])


def _gap_rows(preset: ExperimentPreset, trials: np.ndarray) -> np.ndarray:
    # Mean columns come in (D, S_coop, S_noncoop) blocks, one per design.
    rows = _mean_rows(preset, trials)
    return np.column_stack([rows[:, 0], rows[:, 3::3] - rows[:, 2::3]])


def _one_trial(preset: ExperimentPreset, trials: np.ndarray) -> np.ndarray:
    # A scatter preset's one trial holds the whole table, its sweep column included.
    return trials[0]


def _columns_eta_design_space(preset: ExperimentPreset):
    cols = ["mu"]
    for p in preset.power_levels:
        cols += [f"eta_lower_P{p:g}", f"eta_upper_P{p:g}"]
    return cols


def _check_mu(values) -> None:
    if not all(0.0 < mu <= 1.0 for mu in values):
        raise ConfigurationError(f"sweep_values (mu) must lie in (0, 1], got {values!r}")


def _trial_eta_design_space(preset: ExperimentPreset, seed: int, real: SystemRealization):
    A = build_precoder(preset.precoder_kind, real, 0.0, seed=seed).A
    yield []  # no designs
    mu = np.asarray(preset.sweep_values, dtype=float)
    # Noise variances stay at the base calibration while the transmit power
    # moves between levels; recalibrating would just rescale the whole plot.
    bounds = [eta_bounds_given_mu(replace(real, P=float(p)), A, mu) for p in preset.power_levels]
    return np.column_stack(np.broadcast_arrays(mu, *(b for pair in bounds for b in pair)))


def _trial_tradeoff(preset: ExperimentPreset, seed: int, real: SystemRealization):
    # Per delta: the proposed design, then every (pair, theta) mixture in pair-major order.  The
    # proposed designs are one request over an eta array, scored in one call; the mixtures per delta.
    # S_coop comes from the whitened mean alone: no column reads the combiner.
    deltas = np.asarray(preset.sweep_values, dtype=float)
    etas = eta_from_delta(real, deltas)
    (prec,) = yield [(real, etas, *LP_DESIGNS["proposed"])]
    thetas = np.linspace(0.0, 1.0, preset.mixture_thetas)
    pairs = preset.mixture_pairs
    rows = np.empty((len(deltas), 1 + pairs * len(thetas), 5))
    rows[..., 1] = deltas[:, np.newaxis]
    rows[:, 0, 0], rows[:, 0, 2] = TRADEOFF_KINDS["proposed"], 0.0
    rows[:, 0, 3] = approximation_error(real, prec.A, etas)
    rows[:, 0, 4] = _coop(real, _whitened(real, prec.A, etas)[1])
    mixtures = rows[:, 1:].reshape(len(deltas), pairs, len(thetas), 5)
    mixtures[..., 0] = np.where(thetas == 0.0, TRADEOFF_KINDS["random_zf"], TRADEOFF_KINDS["mixture"])
    mixtures[..., thetas == 1.0, 0] = TRADEOFF_KINDS["random"]
    mixtures[..., 2] = thetas
    keys = [(3, d_idx, pair) for d_idx in range(len(deltas)) for pair in range(pairs)]
    seeds = _child_seeds(seed, keys)
    for d_idx, eta in enumerate(etas.tolist()):
        stack = mixture_precoders(real, eta, seeds[d_idx * pairs : (d_idx + 1) * pairs], thetas)
        mixtures[d_idx, ..., 3] = approximation_error(real, stack, eta)
        mixtures[d_idx, ..., 4] = _coop(real, _whitened(real, stack, eta)[1])
        del stack  # hold one delta's stack at a time
    return rows.reshape(-1, 5)


# ---------------------------------------------------------------------------
# Preset registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Spec:
    """Everything that distinguishes one preset from the others."""

    columns: Callable[[ExperimentPreset], list]
    trial: Callable[..., Generator]  # (preset, seed, *realizations), see collect_trials
    rows: Callable[[ExperimentPreset, np.ndarray], np.ndarray] = _mean_rows  # the table from collect_trials' array
    reads: tuple = ()  # the preset-specific fields its trials read, in metadata order
    sets: tuple = ()  # the scenario fields it does not use: its sweep sets them, or its trials do not read them
    sweep: Callable[[tuple], None] = lambda values: None  # the rule for sweep_values
    fields: dict = field(default_factory=dict)  # ExperimentPreset defaults
    config: dict = field(default_factory=dict)  # ScenarioConfig overrides
    # The configs of a trial's realizations, each drawn at the trial's seed.
    draws: Callable[[ExperimentPreset], tuple] = lambda preset: (preset.config,)


_DESIGNS = ("none", "signal_level", "data_level", "random_zf", "proposed")

_PRESETS = {
    "eta_design_space": _Spec(
        columns=_columns_eta_design_space,
        trial=_trial_eta_design_space,
        rows=_one_trial,
        reads=("precoder_kind", "power_levels"),
        sets=("num_eavesdroppers", "collocated_eavesdroppers"),  # eta bounds read the users' channels only
        sweep=_check_mu,
        fields=dict(sweep_values=tuple(np.linspace(0.005, 1.0, 200)), num_realizations=1),
    ),
    "sweep_L": _Spec(
        columns=lambda preset: ["L", "D", "S_coop", "S_noncoop"],
        trial=_trial_sweep_L,
        reads=("delta",),
        sets=("num_eavesdroppers",),
        sweep=lambda values: _check_eavesdropper_counts("sweep_values", values),
        fields=dict(sweep_values=tuple(range(1, 16))),
        draws=lambda preset: (replace(preset.config, num_eavesdroppers=max(preset.sweep_values)),),
    ),
    "sweep_snr_designs": _Spec(
        columns=_columns_sweep_snr_designs,
        trial=_trial_sweep_snr_designs,
        reads=("designs", "delta"),
        sets=("snr_db",),
        fields=dict(sweep_values=_SNR_GRID, designs=_DESIGNS),
    ),
    "security_gap": _Spec(
        columns=lambda preset: ["snr_db"] + [f"gap_{d}" for d in preset.designs],
        trial=_trial_sweep_snr_designs,
        rows=_gap_rows,
        reads=("designs", "delta"),
        sets=("snr_db",),
        fields=dict(sweep_values=_SNR_GRID, designs=_DESIGNS),
    ),
    "collocated": _Spec(
        columns=lambda preset: ["snr_db", "Scoop_distributed", "Snoncoop_distributed",
                                "Scoop_collocated", "Snoncoop_collocated"],
        trial=_trial_collocated,
        reads=("delta",),
        sets=("snr_db", "collocated_eavesdroppers"),
        fields=dict(sweep_values=_SNR_GRID),
        draws=lambda preset: tuple(replace(preset.config, collocated_eavesdroppers=c) for c in (False, True)),
    ),
    "shared_zf": _Spec(
        columns=_columns_shared_zf,
        trial=_trial_shared_zf,
        reads=("delta", "l_values", "shared_n_values"),
        sets=("snr_db", "num_eavesdroppers"),
        fields=dict(sweep_values=(0.0, 4.0, 8.0, 12.0, 16.0, 20.0)),
        draws=lambda preset: (replace(preset.config, num_eavesdroppers=max(preset.l_values)),),
    ),
    "power_control": _Spec(
        columns=_columns_power_control,
        trial=_trial_power_control,
        reads=("delta_grid",),
        sets=("snr_db",),
        fields=dict(sweep_values=_SNR_GRID),
    ),
    "tradeoff": _Spec(
        columns=lambda preset: ["kind", "delta", "theta", "D", "S_coop"],
        trial=_trial_tradeoff,
        rows=_one_trial,
        reads=("mixture_pairs", "mixture_thetas"),
        sweep=lambda values: _check_fraction("sweep_values (delta)", values),
        fields=dict(sweep_values=tuple(np.linspace(0.0, 1.0, 40)), num_realizations=1),
        config=dict(num_eavesdroppers=7, snr_db=0.0),
    ),
}

PRESET_NAMES = tuple(_PRESETS)

_META_FORMATS = {
    "designs": lambda p: " ".join(p.designs),
    "delta": lambda p: f"{p.delta:g}",
    "delta_grid": lambda p: " ".join(f"{d:g}" for d in p.delta_grid),
    "l_values": lambda p: " ".join(str(int(v)) for v in p.l_values),
    "mixture_pairs": lambda p: str(p.mixture_pairs),
    "precoder_kind": lambda p: p.precoder_kind,
}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def default_preset(name: str, /, **overrides) -> ExperimentPreset:
    """The stock preset for one figure, with overrides of the fields it uses; any other raises."""
    if name not in _PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
        )
    spec = _PRESETS[name]
    config = ScenarioConfig(num_users=10, num_eavesdroppers=5)
    preset = ExperimentPreset(name=name, config=replace(config, **spec.config), **spec.fields)
    config_overrides = {k: v for k, v in overrides.items() if hasattr(config, k)}
    preset_overrides = {k: v for k, v in overrides.items() if not hasattr(config, k)}
    for key in preset_overrides:
        if key in ("name", "config") or not hasattr(preset, key):
            raise ConfigurationError(f"unknown preset field {key!r}")
    ignored = [key for key in overrides if (key in _FIELD_RULES and key not in spec.reads) or key in spec.sets]
    if ignored:
        raise ConfigurationError(f"preset {name} ignores {', '.join(ignored)}: it reads {', '.join(spec.reads)}"
                                 f" of the preset fields, and does not use {', '.join(spec.sets) or 'none'}"
                                 " of the scenario fields")
    if config_overrides:
        preset.config = replace(preset.config, **config_overrides)
    return replace(preset, **preset_overrides) if preset_overrides else preset


def _metadata(preset: ExperimentPreset, columns: list) -> dict:
    meta = {
        "preset": preset.name,
        "base_seed": str(preset.base_seed),
        "num_realizations": str(preset.num_realizations),
        "sweep": " ".join(f"{v:g}" for v in preset.sweep_values),
    }
    if "kind" in columns:
        meta["kinds"] = " ".join(f"{k}={v}" for k, v in TRADEOFF_KINDS.items())
    for key in _PRESETS[preset.name].reads:
        if key in _META_FORMATS:
            meta[key] = _META_FORMATS[key](preset)
    meta["config"] = json.dumps(config_to_dict(preset.config), separators=(",", ":"))
    meta["build"] = f"otasec {__version__}"
    return meta


def _nonempty(preset: ExperimentPreset, name: str):
    values = getattr(preset, name)
    if len(values) == 0:
        raise ConfigurationError(f"{name} must be non-empty")
    return values


def _check_fraction(name: str, value) -> None:
    """Reject a power-control fraction, or a list of them, outside [0, 1]."""
    fractions = np.asarray(value, dtype=float)
    if not np.all((fractions >= 0.0) & (fractions <= 1.0)):
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")


def _check_eavesdropper_counts(name: str, values) -> None:
    if not values or not all(_fits(L, "int") and L >= 1 for L in values):
        raise ConfigurationError(f"{name} must list eavesdropper counts >= 1, got {values!r}")


def _check_kinds(preset: ExperimentPreset, name: str, kinds) -> None:
    plain = [kind for kind in PRECODER_KINDS if kind != "mixture"]  # a mixture needs its theta
    if not all(kind in plain for kind in kinds):
        raise ConfigurationError(f"{name} must be among {', '.join(plain)}, got {kinds!r}")
    if "proposed_shared" in kinds and preset.config.num_users < 3:
        # build_precoder shares N = 2 users' noise, which needs N <= num_users - 1.
        raise ConfigurationError(f"{name} proposed_shared needs num_users >= 3")


def _check_shared_n_values(preset: ExperimentPreset) -> None:
    K = preset.config.num_users
    if not all(1 <= n <= K - 1 for n in preset.shared_n_values):
        raise ConfigurationError(
            f"shared_n_values must lie in [1, {K - 1}] (num_users - 1), got {preset.shared_n_values!r}"
        )


def _check_power_levels(preset: ExperimentPreset) -> None:
    if not all(p > 0.0 for p in _nonempty(preset, "power_levels")):  # finiteness is a type check
        raise ConfigurationError(f"power_levels must be positive, got {preset.power_levels!r}")


# One rule per preset-specific field; a preset checks the fields it reads.
_FIELD_RULES = {
    "designs": lambda p: _check_kinds(p, "designs", _nonempty(p, "designs")),
    "delta": lambda p: _check_fraction("delta", p.delta),
    "delta_grid": lambda p: _check_fraction("delta_grid", _nonempty(p, "delta_grid")),
    "l_values": lambda p: _check_eavesdropper_counts("l_values", p.l_values),
    "shared_n_values": _check_shared_n_values,
    "power_levels": _check_power_levels,
    "precoder_kind": lambda p: _check_kinds(p, "precoder_kind", [p.precoder_kind]),
    "mixture_pairs": lambda p: None,  # any int >= 0, which _check_types enforces
    "mixture_thetas": lambda p: None,
}


def _check_fields(preset: ExperimentPreset, spec: _Spec) -> None:
    """Reject, before any trial runs, field values that no trial can use."""
    _check_types(preset)
    sweep = np.asarray(_nonempty(preset, "sweep_values"), dtype=float)
    if sweep.size > 1 and not (np.all(np.diff(sweep) > 0) or np.all(np.diff(sweep) < 0)):
        raise ConfigurationError("sweep_values must be strictly monotone")
    spec.sweep(preset.sweep_values)
    if spec.rows is _one_trial and preset.num_realizations != 1:  # one realization at base_seed: more repeat it
        raise ConfigurationError(
            f"{preset.name} draws one realization: num_realizations must be 1, got {preset.num_realizations}"
        )
    for name in spec.reads:
        _FIELD_RULES[name](preset)
    columns = spec.columns(preset)
    repeated = dict.fromkeys(name for at, name in enumerate(columns) if name in columns[:at])
    if repeated:  # repeated list entries, or entries alike under %g
        raise ConfigurationError(f"repeated list entries repeat column names: {' '.join(repeated)}")


def run_preset(preset: ExperimentPreset, threads: int | None = None) -> ResultTable:
    """Execute a preset and return its result table: its ``rows`` reduction of :func:`collect_trials`.

    ``threads`` is the worker count of :func:`collect_trials`: serial unless 2 or more.
    """
    trials = collect_trials(preset, threads)
    spec = _PRESETS[preset.name]
    columns = spec.columns(preset)
    return ResultTable(columns, np.asarray(spec.rows(preset, trials), dtype=float), _metadata(preset, columns))


def write_table(table: ResultTable, path) -> None:
    """Write a table as whitespace-separated text with 12 significant digits."""
    rows = np.atleast_2d(np.asarray(table.rows, dtype=float))
    if rows.shape[1] != len(table.column_names):
        raise ContractError("row width does not match column names")
    if not np.isfinite(rows).all():
        raise ContractError("refusing to emit non-finite values")
    head = "".join(f"# {key}: {value}\n" for key, value in table.metadata.items())
    head += " ".join(table.column_names) + "\n"
    line = " ".join(["%.12g"] * rows.shape[1]) + "\n"  # same digits as f"{v:.12g}"
    body = (line * len(rows)) % tuple(rows.ravel().tolist())
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(head + body)
    except OSError as exc:
        raise OSError(f"cannot write table to {path}: {exc}") from exc


def read_table(path) -> ResultTable:
    """Parse a table previously written by :func:`write_table`."""
    metadata: dict = {}
    columns: list = []
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                metadata[key.strip()] = value.strip()
            elif not columns:
                columns = line.split()
            else:
                rows.append([float(tok) for tok in line.split()])
    return ResultTable(column_names=columns, rows=np.array(rows), metadata=metadata)
