"""Deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.checkpoint.state import capture, restore
from repro.rng import BlockSampler, make_rng, spawn


class TestMakeRng:
    def test_int_seed_reproducible(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(5), make_rng(2).random(5))


class TestSpawn:
    def test_same_seed_and_name_reproducible(self):
        a = spawn(7, "meter").random(8)
        b = spawn(7, "meter").random(8)
        assert np.array_equal(a, b)

    def test_different_names_decorrelated(self):
        a = spawn(7, "meter").random(8)
        b = spawn(7, "nvml").random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = spawn(7, "meter").random(8)
        b = spawn(8, "meter").random(8)
        assert not np.array_equal(a, b)

    def test_none_seed_defaults_to_zero(self):
        a = spawn(None, "x").random(4)
        b = spawn(0, "x").random(4)
        assert np.array_equal(a, b)

    def test_component_streams_stable_under_new_components(self):
        # Drawing from one named stream must not perturb another.
        a1 = spawn(3, "a").random(4)
        _ = spawn(3, "new-component").random(100)
        a2 = spawn(3, "a").random(4)
        assert np.array_equal(a1, a2)


class SamplerOwner:
    """A component that draws from a generator both directly and through a
    sampler (the shape of the request generator). ``noise`` sorts before
    ``rng``, so capture meets the generator first inside the sampler."""

    def __init__(self, seed):
        self.rng = spawn(seed, "owner")
        self.noise = BlockSampler(self.rng, "normal", (0.0, 1.0), block=8)


class TestBlockSamplerCheckpoint:
    """A restored sampler continues its stream bit for bit mid-block."""

    @staticmethod
    def sampler(seed=7, dist="normal", args=(0.0, 2.5)):
        return BlockSampler(spawn(seed, "sampler-test"), dist, args, block=16)

    @staticmethod
    def draws(sampler):
        """A mixed next()/take() sequence that crosses block refills."""
        out = [sampler.next() for _ in range(5)]
        out += sampler.take(13)
        out += [sampler.next() for _ in range(3)]
        out += sampler.take(40)
        return out

    @pytest.mark.parametrize("consumed", [0, 1, 9, 16, 23])
    @pytest.mark.parametrize(
        "dist,args", [("normal", (0.0, 2.5)), ("lognormal", (0.0, 0.3)), ("poisson", (4.0,))]
    )
    def test_roundtrip_continues_bit_identically(self, consumed, dist, args):
        original = self.sampler(dist=dist, args=args)
        original.take(consumed)
        [tag] = capture(original)
        fresh = self.sampler(seed=99, dist=dist, args=args)  # a different stream
        fresh_rng = fresh._rng
        [restored] = restore([tag], [fresh])
        assert restored is fresh
        assert fresh._rng is fresh_rng  # the generator restores in place
        want = np.array(self.draws(original), dtype=np.float64)
        got = np.array(self.draws(fresh), dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert type(fresh.next()) is type(original.next())

    def test_buffer_is_captured_as_one_array(self):
        sampler = self.sampler()
        sampler.next()
        [tag] = capture(sampler)
        state = dict(tag["__obj__"]["custom"]["__dict__"]["items"])
        buf = state["buf"]["__nd__"]
        assert buf["dtype"] == "float64"
        assert buf["shape"] == [16]

    def test_shared_generator_stays_shared(self):
        """A generator the sampler shares with its owner is restored once,
        so the owner and the sampler still draw from one stream."""
        a = SamplerOwner(1)
        a.noise.take(3)
        [tag] = capture(a)
        b = SamplerOwner(2)
        b_rng = b.rng
        restore([tag], [b])
        assert b.noise._rng is b.rng is b_rng
        assert b.rng.bit_generator.state == a.rng.bit_generator.state
        assert b.noise.take(20) == a.noise.take(20)
