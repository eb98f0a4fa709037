"""Bit-for-bit equivalence of the batched hot-path pieces.

The plant's batched mechanisms must be indistinguishable from their
per-element definitions: the server actuator's unrolled rollout from the
per-channel modulators, and block-drawn RNG samples from one scalar draw at
a time. Whole-experiment semantics are pinned separately, by the golden
digests in ``tests/golden``.
"""

import numpy as np
import pytest

from repro.actuators import DeltaSigmaModulator, NearestLevelModulator, ServerActuator
from repro.hardware.presets import v100_server
from repro.rng import BlockSampler, spawn


class TestActuatorRollout:
    """The batched actuator reproduces the per-channel modulators exactly."""

    def run_actuator(self, factory, targets, n_ticks=40):
        server = v100_server(seed=None)
        act = ServerActuator(server, factory)
        applied = []
        for tgt in targets:
            act.set_targets(tgt)
            for _ in range(n_ticks):
                act.tick()
                applied.append(server.frequency_vector())
        avg = act.applied_average_and_reset()
        return np.array(applied), avg

    @pytest.mark.parametrize("factory", [None, NearestLevelModulator])
    def test_levels_and_averages_identical(self, factory):
        rng = spawn(11, "actuator-rollout-test")
        n = len(v100_server(seed=None).devices)
        targets = [
            [float(t) for t in rng.uniform(400.0, 1500.0, size=n)]
            for _ in range(6)
        ]
        modulator = factory or DeltaSigmaModulator
        vec_applied, vec_avg = self.run_actuator(factory, targets)
        # A wrapping factory is not one of the stock modulator kinds, so it
        # takes the per-channel modulator path.
        chan_applied, chan_avg = self.run_actuator(lambda dom: modulator(dom), targets)
        # Exact float equality, not allclose: the rollout must be bitwise.
        assert np.array_equal(vec_applied, chan_applied)
        assert np.array_equal(vec_avg, chan_avg)

    def test_vec_path_actually_engaged(self):
        act = ServerActuator(v100_server(seed=None))
        assert act._vec_mode == "delta-sigma"
        act = ServerActuator(v100_server(seed=None), NearestLevelModulator)
        assert act._vec_mode == "nearest"
        act = ServerActuator(v100_server(seed=None), lambda dom: DeltaSigmaModulator(dom))
        assert act._vec_mode is None


class TestBlockSampler:
    """Pre-drawing blocks must not perturb the underlying bit stream."""

    def test_chunked_take_equals_scalar_draws(self):
        sampler = BlockSampler(spawn(3, "bs-test"), "lognormal", (0.0, 0.3))
        reference = spawn(3, "bs-test")
        drawn = []
        for n in (1, 5, 0, 64, 7, 200, 1):
            drawn.extend(sampler.take(n))
        expected = [float(reference.lognormal(0.0, 0.3)) for _ in range(len(drawn))]
        assert drawn == expected

    @pytest.mark.parametrize(
        ("dist", "args"), [("normal", (0.0, 3.5)), ("poisson", (0.8,))]
    )
    def test_next_equals_scalar_draws(self, dist, args):
        sampler = BlockSampler(spawn(4, "bs-test"), dist, args, block=16)
        reference = spawn(4, "bs-test")
        drawn = [sampler.next() for _ in range(100)]
        expected = [float(getattr(reference, dist)(*args)) for _ in range(100)]
        assert drawn == expected

    def test_take_rejects_negative(self):
        sampler = BlockSampler(spawn(3, "bs-test"), "normal", (0.0, 1.0))
        with pytest.raises(ValueError):
            sampler.take(-1)
