import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from otasec import channel
from otasec.channel import (
    ScenarioConfig,
    SystemRealization,
    calibrate_noise,
    config_from_dict,
    config_to_dict,
    load_realization,
    realization_from_dict,
    realization_to_dict,
    sample_realization,
    sample_realizations,
    smallscale_factors,
)
from otasec.errors import ConfigurationError


def base_config(**kwargs):
    defaults = dict(num_users=10, num_eavesdroppers=5)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestCalibrateNoise:
    def test_reference_snr_zero_db(self):
        cfg = base_config(snr_db=0.0, transmit_power=1.0)
        sy, sz = calibrate_noise(cfg)
        assert sy == pytest.approx(1e-8, rel=1e-12)
        assert sz == sy

    def test_ten_db(self):
        sy, _ = calibrate_noise(base_config(snr_db=10.0))
        assert sy == pytest.approx(1e-9, rel=1e-12)

    def test_monotone_in_snr(self):
        values = [calibrate_noise(base_config(snr_db=s))[0] for s in np.linspace(-20, 40, 13)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSampling:
    def test_deterministic_for_seed(self):
        cfg = base_config()
        a = sample_realization(cfg, 42)
        b = sample_realization(cfg, 42)
        assert np.array_equal(a.user_positions, b.user_positions)
        assert np.array_equal(a.eav_positions, b.eav_positions)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.G, b.G)

    def test_different_seeds_differ(self):
        cfg = base_config()
        a = sample_realization(cfg, 7)
        b = sample_realization(cfg, 8)
        assert not np.array_equal(a.user_positions, b.user_positions)

    def test_smallscale_floor_on_legitimate_channels(self):
        cfg = base_config(num_users=4, num_eavesdroppers=1)
        for seed in range(300):
            real = sample_realization(cfg, seed)
            d = np.hypot(real.user_positions[:, 0], real.user_positions[:, 1])
            xi = np.abs(real.h) * d ** (cfg.pathloss_exponent / 2.0)
            assert np.all(xi >= cfg.min_smallscale_magnitude - 1e-12)

    def test_smallscale_floor_hard_bound(self, rng):
        xi = smallscale_factors(rng, 10_000, "complex", min_magnitude=0.1)
        assert np.min(np.abs(xi)) >= 0.1

    def test_fading_variance_at_fixed_distance(self, rng):
        # Coefficient at d = 50 m is d**(-2) * xi; its variance must be 50**-4.
        d = 50.0
        coeff = d**-2.0 * smallscale_factors(rng, 100_000, "complex")
        var = np.mean(np.abs(coeff) ** 2)
        assert var == pytest.approx(d**-4.0, rel=0.03)

    def test_real_mode_has_zero_imaginary_part(self):
        real = sample_realization(base_config(fading_mode="real"), 3)
        assert np.all(real.h.imag == 0.0)
        assert np.all(real.G.imag == 0.0)

    def test_min_separation_holds(self):
        cfg = base_config(num_users=12, num_eavesdroppers=6)
        for seed in range(20):
            real = sample_realization(cfg, seed)
            pts = np.vstack([[0.0, 0.0], real.user_positions, real.eav_positions])
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            dist[np.diag_indices_from(dist)] = np.inf
            assert dist.min() >= cfg.min_separation
            assert np.hypot(*real.user_positions.T).max() <= cfg.disk_radius

    def test_collocated_shares_position_with_independent_fading(self):
        real = sample_realization(base_config(collocated_eavesdroppers=True), 5)
        assert np.all(real.eav_positions == real.eav_positions[0])
        assert not np.array_equal(real.G[0], real.G[1])

    def test_nested_in_eavesdropper_count(self):
        cfg3 = base_config(num_eavesdroppers=3)
        cfg6 = base_config(num_eavesdroppers=6)
        a = sample_realization(cfg3, 11)
        b = sample_realization(cfg6, 11)
        assert np.array_equal(a.user_positions, b.user_positions)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.eav_positions, b.eav_positions[:3])
        assert np.array_equal(a.G, b.G[:3])

    def test_nesting_holds_in_collocated_mode(self):
        a = sample_realization(base_config(num_eavesdroppers=2, collocated_eavesdroppers=True), 4)
        b = sample_realization(base_config(num_eavesdroppers=5, collocated_eavesdroppers=True), 4)
        assert np.array_equal(a.G, b.G[:2])

    def test_impossible_geometry_raises(self):
        cfg = base_config(
            num_users=8, num_eavesdroppers=1, disk_radius=1.05, min_separation=1.0
        )
        with pytest.raises(ConfigurationError):
            sample_realization(cfg, 0)

    def test_jammed_geometry_gives_up_at_the_attempt_cap(self, batch_streams):
        # The packing bound admits 15 points 5 m apart in a 10 m disk, but random
        # sequential placement jams; each point stops after at most 10^4 attempts.
        cfg = base_config(disk_radius=10.0, min_separation=5.0)
        cfg.validate()
        streams, attempts = {}, []
        with pytest.raises(ConfigurationError, match="could not place a point after 10000 attempts"):
            looped_realization(cfg, 1, streams, attempts)
        with pytest.raises(ConfigurationError, match="could not place a point after 10000 attempts"):
            sample_realization(cfg, 1)
        assert attempts[-1] == 10**4 and max(attempts) == 10**4 and len(attempts) <= 15
        assert_streams_stand_as_the_loop_leaves_them(cfg, 1, streams, batch_streams, gave_up=True)


def looped_place_point(rng, radius, min_sep, placed, attempts):
    """One placement attempt at a time, tested against one placed point at a time; each point's attempts go to
    ``attempts``."""
    for tried in range(1, channel._MAX_PLACEMENT_ATTEMPTS + 1):
        r = radius * math.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * math.pi)
        p = np.array([r * math.cos(ang), r * math.sin(ang)])
        if np.hypot(p[0], p[1]) < min_sep:
            continue
        if all(np.hypot(*(p - q)) >= min_sep for q in placed):
            attempts.append(tried)
            return p
    attempts.append(channel._MAX_PLACEMENT_ATTEMPTS)
    raise ConfigurationError(f"could not place a point after {channel._MAX_PLACEMENT_ATTEMPTS} attempts")


def looped_realization(config, seed, streams=None, attempts=None):
    """The reference of ``sample_realizations``: one substream, one eavesdropper, one point and one attempt at a
    time.  ``streams`` gets every substream it makes, by key, and ``attempts`` each point's attempts."""
    streams = {} if streams is None else streams
    attempts = [] if attempts is None else attempts

    def stream(*key):
        streams[key] = channel._stream(seed, *key)
        return streams[key]

    K, L, e = config.num_users, config.num_eavesdroppers, config.pathloss_exponent
    radius, min_sep = config.disk_radius, config.min_separation
    user_rng = stream(0)
    placed = []
    for _ in range(K):
        placed.append(looped_place_point(user_rng, radius, min_sep, placed, attempts))
    user_positions = np.array(placed)
    h_rng = stream(1)
    user_dist = np.hypot(user_positions[:, 0], user_positions[:, 1])
    h = user_dist ** (-e / 2.0) * smallscale_factors(h_rng, K, config.fading_mode, config.min_smallscale_magnitude)
    eav_positions = np.zeros((L, 2))
    G = np.zeros((L, K), dtype=np.complex128)
    for ell in range(L):
        eav_rng = stream(2, ell)
        if config.collocated_eavesdroppers and ell > 0:
            pos = eav_positions[0]
        else:
            pos = looped_place_point(eav_rng, radius, min_sep, placed, attempts)
            placed.append(pos)
        eav_positions[ell] = pos
        dist = np.hypot(*(user_positions - pos).T)
        G[ell] = dist ** (-e / 2.0) * smallscale_factors(eav_rng, K, config.fading_mode)
    sigma_y_sq, sigma_z_sq = calibrate_noise(config)
    return SystemRealization(user_positions, eav_positions, h, G, float(config.transmit_power), sigma_y_sq,
                             sigma_z_sq)


@pytest.fixture
def batch_streams(monkeypatch):
    """Every substream ``channel._streams`` makes, by ``(seed, key)``; a seed made again replaces its own."""
    made = {}
    streams = channel._streams

    def record(seeds, keys):
        seeds, keys = list(seeds), list(keys)
        rngs = streams(seeds, keys)
        made.update(zip([(seed, key) for seed in seeds for key in keys], rngs))
        return rngs

    monkeypatch.setattr(channel, "_streams", record)
    return made


def assert_same_realization(real, ref):
    for name in ("user_positions", "eav_positions", "h", "G"):
        a, b = getattr(real, name), getattr(ref, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
    assert (real.P, real.sigma_y_sq, real.sigma_z_sq) == (ref.P, ref.sigma_y_sq, ref.sigma_z_sq)


def draws_between(before, after, most):
    """How many 64-bit draws take the generator ``before`` to ``after``'s state; at most ``most``."""
    bits = np.random.PCG64()
    bits.state = before.bit_generator.state
    for n in range(most + 1):
        if bits.state == after.bit_generator.state:
            return n
        bits.advance(1)
    raise AssertionError(f"more than {most} draws apart")


def assert_streams_stand_as_the_loop_leaves_them(config, seed, looped, batched, gave_up=False):
    """Every substream of ``seed`` that the loop made has drawn exactly what the loop drew from it, and every other
    nothing; except, once a point was given up, the first attempt, which every eavesdropper that is placed draws
    at once."""
    for key in [(0,), (1,)] + [(2, ell) for ell in range(config.num_eavesdroppers)]:
        if key in looped:
            assert batched[seed, key].bit_generator.state == looped[key].bit_generator.state, key
        else:
            ahead = draws_between(channel._stream(seed, *key), batched[seed, key], 2)
            placed = key[0] == 2 and not (config.collocated_eavesdroppers and key[1])
            assert ahead == 0 or (gave_up and placed and ahead == 2), (key, ahead)


class TestPlacementReference:
    """Realizations are drawn in batches, many attempts at once; each must be bitwise the loop's, and every
    substream must draw what the loop draws from it."""

    @staticmethod
    def assert_equal_the_loop(cfg, seeds, batch_streams):
        batch = sample_realizations(cfg, seeds)
        assert len(batch) == len(seeds)
        for seed, real in zip(seeds, batch):
            streams = {}
            assert_same_realization(real, looped_realization(cfg, seed, streams))
            assert_streams_stand_as_the_loop_leaves_them(cfg, seed, streams, batch_streams)

    @pytest.mark.parametrize("K, L", [(3, 1), (3, 5), (3, 15), (10, 1), (10, 5), (10, 15)])
    @pytest.mark.parametrize("fading", ["complex", "real"])
    @pytest.mark.parametrize("collocated", [False, True])
    def test_realizations_equal_the_per_point_loop(self, batch_streams, K, L, fading, collocated):
        cfg = base_config(num_users=K, num_eavesdroppers=L, fading_mode=fading, collocated_eavesdroppers=collocated)
        self.assert_equal_the_loop(cfg, list(range(50)), batch_streams)

    @pytest.mark.parametrize(
        "overrides",
        [dict(num_users=10, num_eavesdroppers=15), dict(num_users=3, num_eavesdroppers=5, fading_mode="real",
                                                      collocated_eavesdroppers=True)],
        ids=["K10-L15", "K3-L5-real-collocated"],
    )
    def test_300_seeds_equal_the_loop(self, batch_streams, overrides):
        self.assert_equal_the_loop(base_config(**overrides), list(range(300)), batch_streams)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_users=6, num_eavesdroppers=5, disk_radius=3.0),
            dict(num_users=4, num_eavesdroppers=7, disk_radius=6.0, min_separation=2.0, fading_mode="real"),
            dict(num_users=4, num_eavesdroppers=3, disk_radius=3.0, collocated_eavesdroppers=True),
        ],
        ids=["radius3-sep1", "radius6-sep2", "radius3-collocated"],
    )
    def test_tight_geometries_equal_the_loop(self, batch_streams, overrides):
        # Many attempts fail here, so blocks of attempts, retries and given-back draws all occur.
        self.assert_equal_the_loop(base_config(**overrides), list(range(50)), batch_streams)

    def test_mixed_batches_equal_each_seed_alone(self):
        cfg = base_config(num_users=4, num_eavesdroppers=3, disk_radius=4.0)
        seeds = [5, 3, 5, 2**40, 0, 2**64 + 1, 3]  # repeated seeds, and seeds of more than one word
        batch = sample_realizations(cfg, iter(seeds))
        for seed, real in zip(seeds, batch, strict=True):
            assert_same_realization(real, sample_realization(cfg, seed))
            assert_same_realization(real, looped_realization(cfg, seed))
        assert batch[0].G is not batch[2].G and not np.shares_memory(batch[0].G, batch[2].G)
        assert sample_realizations(cfg, []) == []

    def test_packing_bound_raises_after_the_same_draws(self, batch_streams):
        # 24 points 5 m apart in a 10 m disk: (24 + 1) * 2.5**2 = 12.5**2, exactly the packing bound.
        cfg = base_config(num_users=20, num_eavesdroppers=4, disk_radius=10.0, min_separation=5.0)
        cfg.validate()
        streams, attempts = {}, []
        with pytest.raises(ConfigurationError, match="could not place a point after 10000 attempts"):
            looped_realization(cfg, 3, streams, attempts)
        with pytest.raises(ConfigurationError, match="could not place a point after 10000 attempts"):
            sample_realization(cfg, 3)
        assert attempts[-1] == 10**4
        assert_streams_stand_as_the_loop_leaves_them(cfg, 3, streams, batch_streams, gave_up=True)

    @pytest.mark.parametrize("cap", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "overrides",
        [dict(num_users=6, num_eavesdroppers=4, disk_radius=4.0, min_separation=1.5),
         dict(num_users=2, num_eavesdroppers=6, disk_radius=3.0)],  # mostly given up at an eavesdropper
        ids=["users", "eavesdroppers"],
    )
    def test_small_attempt_caps_stop_where_the_loop_stops(self, monkeypatch, batch_streams, cap, seed, overrides):
        # With a small cap the blocks meet it often: the same points are given up after the same draws.
        monkeypatch.setattr(channel, "_MAX_PLACEMENT_ATTEMPTS", cap)
        cfg = base_config(**overrides)
        streams = {}
        try:
            ref = looped_realization(cfg, seed, streams)
        except ConfigurationError:
            with pytest.raises(ConfigurationError, match=f"could not place a point after {cap} attempts"):
                sample_realization(cfg, seed)
            assert_streams_stand_as_the_loop_leaves_them(cfg, seed, streams, batch_streams, gave_up=True)
        else:
            assert_same_realization(sample_realization(cfg, seed), ref)
            assert_streams_stand_as_the_loop_leaves_them(cfg, seed, streams, batch_streams)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_users=1),
            dict(num_eavesdroppers=0),
            dict(min_separation=0.0),
            dict(min_separation=200.0),
            dict(pathloss_exponent=-1.0),
            dict(fading_mode="rician"),
            dict(min_smallscale_magnitude=1.0),
            dict(snr_db=float("nan")),
            dict(transmit_power=0.0),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            base_config(**kwargs).validate()

    def test_packing_bound_counts_collocated_eavesdroppers_once(self):
        # (n + 1) * 0.25 against (2 + 0.5)**2 = 6.25: n = 25 fails, n = 21 passes.
        cfg = base_config(num_users=20, num_eavesdroppers=5, disk_radius=2.0)
        with pytest.raises(ConfigurationError, match="cannot hold"):
            cfg.validate()
        base_config(
            num_users=20, num_eavesdroppers=5, disk_radius=2.0, collocated_eavesdroppers=True
        ).validate()


class TestSerialization:
    def test_config_round_trip_field_names(self):
        cfg = base_config(fading_mode="real", collocated_eavesdroppers=True, snr_db=5.0)
        doc = config_to_dict(cfg)
        assert set(doc) == {
            "num_users",
            "num_eavesdroppers",
            "disk_radius",
            "min_separation",
            "pathloss_exponent",
            "fading_mode",
            "min_smallscale_magnitude",
            "collocated_eavesdroppers",
            "snr_db",
            "transmit_power",
        }
        assert config_from_dict(json.loads(json.dumps(doc))) == cfg

    def test_realization_round_trip(self, tmp_path):
        real = sample_realization(base_config(num_users=3, num_eavesdroppers=2), 9)
        doc = realization_to_dict(real)
        back = realization_from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(back.h, real.h)
        assert np.array_equal(back.G, real.G)
        assert back.P == real.P and back.sigma_z_sq == real.sigma_z_sq
        path = tmp_path / "real.json"
        path.write_text(json.dumps(doc))
        loaded = load_realization(path)
        assert np.array_equal(loaded.G, real.G)

    def test_malformed_document_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_realization(path)
        with pytest.raises(ConfigurationError):
            realization_from_dict({"h": [[1.0, 0.0]]})

    @pytest.mark.parametrize(
        "field", ["user_positions", "eav_positions", "h", "G", "P", "sigma_y_sq", "sigma_z_sq"]
    )
    def test_non_finite_entry_raises(self, field):
        doc = realization_to_dict(sample_realization(base_config(num_users=3), 9))
        values = np.asarray(doc[field], dtype=float)
        values.flat[-1] = np.nan
        doc[field] = values.tolist()
        with pytest.raises(ConfigurationError, match="non-finite"):
            realization_from_dict(doc)

    def test_zero_legitimate_channel_raises(self):
        doc = realization_to_dict(sample_realization(base_config(num_users=3), 9))
        doc["h"][2] = [0.0, 0.0]
        with pytest.raises(ConfigurationError, match="h_k"):
            realization_from_dict(doc)


def test_only_channel_derives_random_streams():
    # Streams are part of the contract, so they are spelled in one module: every
    # other module draws through channel._stream or channel._child_seed.
    package = Path(channel.__file__).parent
    spelled = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "channel.py"
        and re.search(r"SeedSequence|default_rng|PCG64|ISeedSequence|Generator\(", path.read_text())
    ]
    assert not spelled, f"random streams derived outside channel.py in {spelled}"


class TestBatchStreams:
    """``_streams`` and ``_child_seeds`` reproduce ``_stream`` and ``_child_seed`` bit for bit."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**70] + np.random.default_rng(2026).integers(
        0, 2**32, 200, dtype=np.uint64
    ).tolist()
    KEYS = [(), (0,), (1,), (2, 14), (3, 5, 2), (17, 4), (2**32 + 1,)]

    @staticmethod
    def assert_same_streams(seeds, keys):
        batch = channel._streams(seeds, keys)
        rows = [(seed, key) for seed in seeds for key in keys]
        assert len(batch) == len(rows)
        for (seed, key), rng in zip(rows, batch):
            ref = channel._stream(seed, *key)
            assert rng.bit_generator.state == ref.bit_generator.state, (seed, key)
            assert rng.standard_normal(20).tobytes() == ref.standard_normal(20).tobytes(), (seed, key)

    @pytest.mark.parametrize("key", KEYS)
    def test_streams_match_stream(self, key):
        self.assert_same_streams(self.SEEDS, [key])

    def test_streams_mix_keys_of_every_length(self):
        # One hash pass holds entropies of 1 to 7 words: seeds of one to three words, keys of zero to three.
        self.assert_same_streams(self.SEEDS[:40], self.KEYS)

    @pytest.mark.parametrize("size", [0, 1, 400])
    def test_stream_batch_sizes(self, size):
        seeds = np.random.default_rng(size).integers(0, 2**32, size, dtype=np.uint64).tolist()
        self.assert_same_streams(seeds, [(3, 7, 1)])

    def test_streams_mix_word_lengths(self):
        self.assert_same_streams([2**70, 5, 2**32, 0, 2**64 + 3, 2**32 - 1, 9], [(2,)])

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_child_seeds_match_child_seed(self, seed):
        assert channel._child_seeds(seed, self.KEYS) == [channel._child_seed(seed, *key) for key in self.KEYS]

    @pytest.mark.parametrize("size", [0, 1, 400])
    def test_child_seed_batch_sizes(self, size):
        keys = [(3, d, p) for d in range(size // 20 + 1) for p in range(20)][:size]
        assert channel._child_seeds(7, keys) == [channel._child_seed(7, *key) for key in keys]

    @pytest.mark.parametrize("bad, error", [(-1, ValueError), (1.0, TypeError)])
    def test_invalid_seeds_raise_like_seed_sequence(self, bad, error):
        with pytest.raises(error):
            np.random.SeedSequence(bad)
        with pytest.raises(error):
            channel._streams([3, bad], [()])
        with pytest.raises(error):
            channel._streams([3], [(0,), (bad,)])
        with pytest.raises(error):
            channel._child_seeds(bad, [(0,)])
        with pytest.raises(error):
            channel._child_seeds(3, [(0, bad)])


def test_import_leaves_numpy_random_and_ma_unloaded():
    # numpy loads both lazily; importing the package must not pull them in.
    code = "import sys, otasec; print(sorted({'numpy.random', 'numpy.ma'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(channel.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
