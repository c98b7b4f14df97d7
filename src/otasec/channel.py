"""Random wireless topologies and channel realizations.

A scenario places a server at the origin of a disk, drops users and
eavesdroppers uniformly at random subject to a minimum mutual separation, and
draws distance-dependent fading for every link: each coefficient is
``d**(-e/2) * xi`` with ``e`` the path-loss exponent and ``xi`` a unit-variance
small-scale factor (circularly-symmetric complex Gaussian, or plain real
Gaussian in ``real`` fading mode).  Legitimate-channel small-scale factors are
redrawn until their magnitude clears a configurable floor, which models
scheduling only users with good enough channels.

Randomness is organized into independent per-entity substreams derived from
one seed: user positions, legitimate fading, and each eavesdropper get their
own stream.  Two consequences the rest of the package relies on:

* a realization is a pure function of ``(config, seed)``;
* realizations are nested in the eavesdropper count: with the same seed, the
  first ``L`` eavesdroppers (positions and channel rows) are identical for
  every ``num_eavesdroppers >= L``, so sweeps over ``L`` are exactly paired.

Every random stream of the package is derived here: ``_stream(seed, *key)``
is the generator of one substream and ``_child_seed(seed, *key)`` an integer
seed drawn from it.  These two are numpy's own spelling and define the stream
contract.  ``_streams(seeds, *key)`` and ``_child_seeds(seed, keys)`` give the
same generators and seeds for a whole batch: they run ``SeedSequence``'s
entropy hash for every row at once as uint32 array operations, and hand each
``PCG64`` its four state words.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

_MAX_PLACEMENT_ATTEMPTS = 10**4
_MAX_FADING_ROUNDS = 10_000

FADING_MODES = ("complex", "real")


def _fits(value, annotation: str) -> bool:
    """Whether ``value`` fits int (a count or seed, >= 0), finite float, bool, str or a tuple of one."""
    if annotation.startswith("tuple["):
        entry = annotation.removeprefix("tuple[").removesuffix(", ...]")
        return isinstance(value, (tuple, list)) and all(_fits(v, entry) for v in value)
    if annotation in ("int", "float") and isinstance(value, bool):
        return False
    if annotation == "int":
        return isinstance(value, numbers.Integral) and value >= 0
    if annotation == "float":
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return isinstance(value, {"bool": bool, "str": str}.get(annotation, object))


def _check_types(settings) -> None:
    """Reject a field of the dataclass ``settings`` whose value does not fit its annotation."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if not _fits(value, f.type):
            what = f.type.replace("int", "int >= 0").replace("float", "finite float")
            raise ConfigurationError(f"{f.name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, fading and power parameters of one simulated scenario."""

    num_users: int
    num_eavesdroppers: int
    disk_radius: float = 100.0
    min_separation: float = 1.0
    pathloss_exponent: float = 4.0
    fading_mode: str = "complex"
    min_smallscale_magnitude: float = 0.1
    collocated_eavesdroppers: bool = False
    snr_db: float = 10.0
    transmit_power: float = 1.0

    def validate(self) -> None:
        _check_types(self)
        if self.num_users < 2:
            raise ConfigurationError("num_users must be at least 2")
        if self.num_eavesdroppers < 1:
            raise ConfigurationError("num_eavesdroppers must be at least 1")
        if not (self.disk_radius > self.min_separation > 0.0):
            raise ConfigurationError("require disk_radius > min_separation > 0")
        if self.pathloss_exponent <= 0.0:
            raise ConfigurationError("pathloss_exponent must be positive")
        if self.fading_mode not in FADING_MODES:
            raise ConfigurationError(f"fading_mode must be one of {FADING_MODES}")
        if not (0.0 <= self.min_smallscale_magnitude < 1.0):
            raise ConfigurationError("min_smallscale_magnitude must lie in [0, 1)")
        if not (self.transmit_power > 0.0):
            raise ConfigurationError("transmit_power must be positive")
        # Disks of radius s/2 around the server and every placed point are
        # disjoint and lie inside the disk of radius R + s/2, so their total
        # area bounds how many points can be placed at all.
        n = self.num_users + (1 if self.collocated_eavesdroppers else self.num_eavesdroppers)
        half = self.min_separation / 2.0
        if (n + 1) * half**2 > (self.disk_radius + half) ** 2:
            raise ConfigurationError(f"the disk cannot hold {n} points this far apart")


@dataclass
class SystemRealization:
    """One sampled topology with its channels and power/noise levels."""

    user_positions: np.ndarray  # (K, 2) meters
    eav_positions: np.ndarray  # (L, 2) meters
    h: np.ndarray  # (K,) complex, user-to-server channels
    G: np.ndarray  # (L, K) complex, row l = user-to-eavesdropper-l channels
    P: float  # per-user transmit power budget (watts)
    # Noise variances: a float, or an array with one entry per SNR, which the metrics and designs
    # carry as an axis of their results.  Realization JSON documents hold floats.
    sigma_y_sq: float | np.ndarray  # server noise variance
    sigma_z_sq: float | np.ndarray  # eavesdropper noise variance

    @property
    def num_users(self) -> int:
        return self.h.shape[0]

    @property
    def num_eavesdroppers(self) -> int:
        return self.G.shape[0]


class _Stack(NamedTuple):
    """Realizations stacked over a realization axis, the last of the leading axes: ``h`` ``(R, K)``; ``G``
    ``(R, L, K)`` for the largest ``L``, each realization's own rows first and then zero rows; ``P`` ``(R, 1)``;
    ``sigma_y_sq``, ``sigma_z_sq`` and ``eta`` with the realization axis after their own axes.  The designs
    (:mod:`otasec.optimizer`) and the closed forms (:mod:`otasec.metrics`) read it as they read one realization."""

    h: np.ndarray
    G: np.ndarray
    P: np.ndarray
    sigma_y_sq: np.ndarray
    sigma_z_sq: np.ndarray
    eta: np.ndarray

    @property
    def num_users(self) -> int:
        return self.h.shape[-1]

    @property
    def num_eavesdroppers(self) -> int:
        return self.G.shape[-2]


def _stack(reals, etas) -> _Stack:
    """The realizations ``reals`` and their ``etas`` as one :class:`_Stack`."""
    G = np.zeros((len(reals), max(len(real.G) for real in reals), reals[0].num_users), dtype=reals[0].G.dtype)
    for rows, real in zip(G, reals):
        rows[: len(real.G)] = real.G
    return _Stack(
        h=np.array([real.h for real in reals]),
        G=G,
        P=np.array([[real.P] for real in reals]),
        sigma_y_sq=_last([real.sigma_y_sq for real in reals]),
        sigma_z_sq=_last([real.sigma_z_sq for real in reals]),
        eta=_last(etas),
    )


def _last(values) -> np.ndarray:
    """``values`` stacked over a new last axis."""
    stacked = np.array(values)
    return stacked.transpose(*range(1, stacked.ndim), 0)


def calibrate_noise(config: ScenarioConfig) -> tuple[float, float]:
    """Noise variances that realize ``snr_db`` on a disk-radius-length link.

    The reference link has average channel gain ``disk_radius**(-e)``, so
    ``sigma^2 = P * disk_radius**(-e) / 10**(snr_db / 10)`` makes the average
    received SNR at that distance equal the configured value.  Server and
    eavesdroppers share the same noise level.  Fields whose variance is not a
    finite positive float (it overflows, or underflows to 0) raise
    :class:`ConfigurationError`.
    """
    if not math.isfinite(config.snr_db):
        raise ConfigurationError("snr_db must be finite")
    try:
        sigma_sq = (
            config.transmit_power
            * config.disk_radius ** (-config.pathloss_exponent)
            / 10.0 ** (config.snr_db / 10.0)
        )
    except (OverflowError, ZeroDivisionError):
        sigma_sq = math.nan
    if not (math.isfinite(sigma_sq) and sigma_sq > 0.0):
        raise ConfigurationError(
            "the noise variance transmit_power * disk_radius**(-pathloss_exponent) / 10**(snr_db/10) is out of"
            f" floating-point range at transmit_power={config.transmit_power}, disk_radius={config.disk_radius},"
            f" pathloss_exponent={config.pathloss_exponent}, snr_db={config.snr_db}"
        )
    return sigma_sq, sigma_sq


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Substream ``key`` of ``seed``; ``_stream(seed, i)`` draws as ``SeedSequence(seed).spawn(2)[i]``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _child_seed(seed: int, *key: int) -> int:
    """An integer seed derived from substream ``key`` of ``seed``."""
    return int(np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(1)[0])


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _words(n) -> list[int]:
    """The uint32 words ``SeedSequence`` makes of the integer ``n``, least significant first."""
    if type(n) is int and 0 <= n <= _MASK32:  # the common case, without the ABC check
        return [n]
    if not isinstance(n, numbers.Integral):
        raise TypeError(f"seed must be integer, not {n!r}")
    n = int(n)
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _entropy(seed_words: list[int], key_words: list[int]) -> list[int]:
    """``SeedSequence``'s assembled entropy: a keyed seed is zero-padded to the pool size."""
    if key_words and len(seed_words) < _POOL_SIZE:
        seed_words = seed_words + [0] * (_POOL_SIZE - len(seed_words))
    return seed_words + key_words


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The first ``n + 1`` hash constants ``init * mult**i`` mod 2**32."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One hash per entry of ``consts[:-1]``: xor with it, multiply by its successor."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> 16)


def _pools(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.pool`` of each row of uint32 entropy words, shape ``(rows, 4)``.

    The hash constants do not depend on the data, so one pass serves every row
    and each round mixes one source word into all its destination words.
    """
    m = entropy.shape[1]
    h = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(m, _POOL_SIZE))
    first = np.zeros((len(entropy), _POOL_SIZE), dtype=np.uint32)
    first[:, : min(m, _POOL_SIZE)] = entropy[:, :_POOL_SIZE]
    pool = _hashmix(first, h[: _POOL_SIZE + 1])
    c = _POOL_SIZE
    for src in range(_POOL_SIZE):  # every word into every other
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], h[c : c + _POOL_SIZE]))
        c += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, m):  # the entropy words past the pool size
        pool = _mix(pool, _hashmix(entropy[:, src, None], h[c : c + _POOL_SIZE + 1]))
        c += _POOL_SIZE
    return pool


def _generate_state(entropies: list[list[int]], n_words: int) -> np.ndarray:
    """``SeedSequence.generate_state(n_words)`` of each entropy row, shape ``(rows, n_words)`` uint32."""
    pools = np.empty((len(entropies), _POOL_SIZE), dtype=np.uint32)
    by_length: dict[int, list[int]] = {}
    for row, words in enumerate(entropies):
        by_length.setdefault(len(words), []).append(row)
    for rows in by_length.values():
        pools[rows] = _pools(np.array([entropies[row] for row in rows], dtype=np.uint32))
    cycled = np.tile(pools, -(-n_words // _POOL_SIZE))[:, :n_words]
    return _hashmix(cycled, _hash_consts(_INIT_B, _MULT_B, n_words))


@functools.cache
def _seeded_class() -> type:
    """An ``ISeedSequence`` holding a ``PCG64``'s four state words.

    Made on first use: subclassing at import time would import ``numpy.random``
    with the package.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return Seeded


def _streams(seeds, *key: int) -> list[np.random.Generator]:
    """``[_stream(seed, *key) for seed in seeds]``, bit for bit, with one hash pass for the batch."""
    key_words = [w for k in key for w in _words(k)]
    state = _generate_state([_entropy(_words(seed), key_words) for seed in seeds], 2 * _POOL_SIZE)
    state = state.astype(np.uint64)
    state = state[:, 0::2] | state[:, 1::2] << np.uint64(32)  # little-endian pairs, as numpy reads them
    seeded, generator, pcg64 = _seeded_class(), np.random.Generator, np.random.PCG64
    return [generator(pcg64(seeded(words))) for words in state]


def _child_seeds(seed: int, keys) -> list[int]:
    """``[_child_seed(seed, *key) for key in keys]``, with one hash pass for the batch."""
    seed_words = _words(seed)
    entropies = [_entropy(seed_words, [w for k in key for w in _words(k)]) for key in keys]
    return _generate_state(entropies, 1)[:, 0].tolist()


def _cn(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussians of the given shape."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _draw_disk_point(rng: np.random.Generator, radius: float) -> np.ndarray:
    r = radius * math.sqrt(rng.uniform())
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([r * math.cos(ang), r * math.sin(ang)])


def _place_point(
    rng: np.random.Generator,
    radius: float,
    min_sep: float,
    placed: list[np.ndarray],
) -> np.ndarray:
    """Uniform disk point at least ``min_sep`` from the origin and all placed points."""
    others = np.reshape(placed, (-1, 2))
    for _ in range(_MAX_PLACEMENT_ATTEMPTS):
        p = _draw_disk_point(rng, radius)
        if np.hypot(p[0], p[1]) < min_sep:
            continue
        if np.all(np.hypot(*(p - others).T) >= min_sep):
            return p
    raise ConfigurationError(
        f"could not place a point after {_MAX_PLACEMENT_ATTEMPTS} attempts; "
        "the disk cannot hold this many points at the requested separation"
    )


def smallscale_factors(
    rng: np.random.Generator,
    n: int,
    fading_mode: str,
    min_magnitude: float = 0.0,
) -> np.ndarray:
    """Unit-variance small-scale fading factors, optionally floor-rejected.

    ``complex`` mode draws circularly-symmetric complex Gaussians, ``real``
    mode plain standard Gaussians (stored with zero imaginary part).  Factors
    with magnitude below ``min_magnitude`` are redrawn.

    Both modes consume the same pair of normals per factor (real mode keeps
    the in-phase component only), so for a fixed stream the two fading modes
    are maximally coupled: comparisons across modes at the same seed are
    common-random-number paired.
    """

    def draw(k: int) -> np.ndarray:
        if fading_mode == "complex":
            return _cn(rng, k)
        a, _ = rng.standard_normal(k), rng.standard_normal(k)
        return a.astype(np.complex128)

    xi = draw(n)
    if min_magnitude > 0.0:
        for _ in range(_MAX_FADING_ROUNDS):
            bad = np.abs(xi) < min_magnitude
            if not bad.any():
                break
            xi[bad] = draw(int(bad.sum()))
        else:  # pragma: no cover - p(reject) < 8% per round
            raise ConfigurationError("small-scale floor rejection did not converge")
    return xi


def sample_realization(config: ScenarioConfig, seed: int) -> SystemRealization:
    """Draw one topology and channel realization, deterministic in ``seed``."""
    config.validate()
    K = config.num_users
    L = config.num_eavesdroppers
    e = config.pathloss_exponent

    user_rng = _stream(seed, 0)
    placed: list[np.ndarray] = []
    for _ in range(K):
        placed.append(_place_point(user_rng, config.disk_radius, config.min_separation, placed))
    user_positions = np.array(placed)

    h_rng = _stream(seed, 1)
    user_dist = np.hypot(user_positions[:, 0], user_positions[:, 1])
    xi_h = smallscale_factors(h_rng, K, config.fading_mode, config.min_smallscale_magnitude)
    h = user_dist ** (-e / 2.0) * xi_h

    eav_positions = np.zeros((L, 2))
    G = np.zeros((L, K), dtype=np.complex128)
    for ell in range(L):
        eav_rng = _stream(seed, 2, ell)
        if config.collocated_eavesdroppers and ell > 0:
            pos = eav_positions[0]
        else:
            pos = _place_point(eav_rng, config.disk_radius, config.min_separation, placed)
            placed.append(pos)
        eav_positions[ell] = pos
        dist = np.hypot(*(user_positions - pos).T)
        G[ell] = dist ** (-e / 2.0) * smallscale_factors(eav_rng, K, config.fading_mode)

    sigma_y_sq, sigma_z_sq = calibrate_noise(config)
    return SystemRealization(
        user_positions=user_positions,
        eav_positions=eav_positions,
        h=h,
        G=G,
        P=float(config.transmit_power),
        sigma_y_sq=sigma_y_sq,
        sigma_z_sq=sigma_z_sq,
    )


# ---------------------------------------------------------------------------
# JSON serialization (complex scalars travel as [re, im] pairs)
# ---------------------------------------------------------------------------


def _complex_out(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _complex_in(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def config_to_dict(config: ScenarioConfig) -> dict:
    return asdict(config)


def config_from_dict(data: dict) -> ScenarioConfig:
    config = ScenarioConfig(**data)
    config.validate()
    return config


def realization_to_dict(real: SystemRealization) -> dict:
    return {
        "user_positions": real.user_positions.tolist(),
        "eav_positions": real.eav_positions.tolist(),
        "h": _complex_out(real.h),
        "G": _complex_out(real.G),
        "P": real.P,
        "sigma_y_sq": real.sigma_y_sq,
        "sigma_z_sq": real.sigma_z_sq,
    }


def realization_from_dict(data: dict) -> SystemRealization:
    try:
        real = SystemRealization(
            user_positions=np.asarray(data["user_positions"], dtype=float),
            eav_positions=np.asarray(data["eav_positions"], dtype=float),
            h=_complex_in(data["h"]),
            G=_complex_in(data["G"]),
            P=float(data["P"]),
            sigma_y_sq=float(data["sigma_y_sq"]),
            sigma_z_sq=float(data["sigma_z_sq"]),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ConfigurationError(f"malformed realization document: {exc}") from exc
    if real.h.ndim != 1 or real.G.ndim != 2 or real.G.shape[1] != real.h.shape[0]:
        raise ConfigurationError("realization h and G shapes disagree")
    if real.h.shape[0] < 2:
        raise ConfigurationError("a realization needs at least 2 users")
    for name in ("user_positions", "eav_positions", "h", "G", "P", "sigma_y_sq", "sigma_z_sq"):
        if not np.all(np.isfinite(getattr(real, name))):
            raise ConfigurationError(f"realization field {name} has a non-finite entry")
    if np.any(real.h == 0):
        raise ConfigurationError("every legitimate channel h_k must be non-zero")
    if real.sigma_y_sq <= 0.0 or real.sigma_z_sq <= 0.0:
        raise ConfigurationError("noise variances must be positive")
    return real


def load_realization(path) -> SystemRealization:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    return realization_from_dict(data)
