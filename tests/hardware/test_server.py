"""GpuServer composition: channels, power aggregation, envelope, reset."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware import (
    TESLA_V100_16GB,
    GpuServer,
    custom_server,
    rtx3090_server,
    v100_server,
)


class TestChannelLayout:
    def test_cpus_first_then_gpus(self, quiet_server):
        kinds = [c.kind for c in quiet_server.channels]
        assert kinds == ["cpu", "gpu", "gpu", "gpu"]

    def test_channel_indices(self, quiet_server):
        assert quiet_server.cpu_channel_indices() == [0]
        assert quiet_server.gpu_channel_indices() == [1, 2, 3]

    def test_device_lookup_matches_channel_order(self, quiet_server):
        assert quiet_server.device(0) is quiet_server.cpus[0]
        assert quiet_server.device(2) is quiet_server.gpus[1]

    def test_requires_at_least_one_device(self):
        with pytest.raises(ConfigurationError):
            GpuServer(cpus=[], gpus=[], seed=None)

    def test_frequency_vectors(self, quiet_server):
        f = quiet_server.frequency_vector()
        assert f.shape == (4,)
        assert np.array_equal(f, quiet_server.f_min_vector())
        assert quiet_server.f_max_vector()[0] == 2400.0
        assert quiet_server.f_max_vector()[1] == 1350.0


class TestPowerAggregation:
    def test_total_is_sum_of_parts(self, quiet_server):
        s = quiet_server
        total = s.total_power_w()
        expected = (
            s.static_power_w + s.fan.power_w() + s.component_power_w().sum()
        )
        assert total == pytest.approx(expected)

    def test_cpu_and_gpu_power_partition_components(self, quiet_server):
        s = quiet_server
        assert s.cpu_power_w() + s.gpu_power_w() == pytest.approx(
            float(s.component_power_w().sum())
        )

    def test_single_gpu_power(self, quiet_server):
        s = quiet_server
        assert s.gpu_power_w(0) == pytest.approx(s.gpus[0].power_w())

    def test_noise_excluded_on_request(self, noisy_server):
        noisy_server.advance(0.1)
        with_noise = noisy_server.total_power_w(include_noise=True)
        without = noisy_server.total_power_w(include_noise=False)
        assert with_noise != pytest.approx(without)

    def test_envelope_brackets_operating_points(self, quiet_server):
        lo, hi = quiet_server.power_envelope_w(utilization=1.0)
        for d in quiet_server.devices:
            d.set_utilization(1.0)
        assert lo - 1e-9 <= quiet_server.total_power_w() <= hi + 1e-9
        for d in quiet_server.devices:
            d.apply_frequency(d.domain.f_max)
        assert quiet_server.total_power_w() == pytest.approx(hi)

    def test_envelope_supports_paper_set_points(self, quiet_server):
        """800-1200 W set points (Section 6.3) must be inside the envelope."""
        lo, hi = quiet_server.power_envelope_w(utilization=1.0)
        assert lo < 800.0
        assert hi > 1200.0


class TestDynamics:
    def test_advance_updates_noise(self, noisy_server):
        p0 = noisy_server.total_power_w()
        noisy_server.advance(0.1)
        p1 = noisy_server.total_power_w()
        assert p0 != pytest.approx(p1)

    def test_deterministic_server_is_constant(self, quiet_server):
        p0 = quiet_server.total_power_w()
        quiet_server.advance(0.1)
        assert quiet_server.total_power_w() == pytest.approx(p0)

    def test_reset_restores_min_frequencies_and_noise(self, noisy_server):
        for d in noisy_server.devices:
            d.apply_frequency(d.domain.f_max)
        noisy_server.advance(0.1)
        noisy_server.reset()
        assert np.array_equal(
            noisy_server.frequency_vector(), noisy_server.f_min_vector()
        )
        assert noisy_server.total_power_w() == pytest.approx(
            noisy_server.total_power_w(include_noise=False)
        )

    def test_thermal_server_tracks_temperature(self):
        s = v100_server(seed=None, thermal=True)
        for d in s.devices:
            d.apply_frequency(d.domain.f_max)
            d.set_utilization(1.0)
        for _ in range(100):
            s.advance(1.0)
        assert s.thermal_nodes is not None
        assert all(n.temperature_c > 30.0 for n in s.thermal_nodes)


class TestPresets:
    def test_v100_preset_shape(self):
        s = v100_server(seed=None)
        assert s.n_cpus == 1
        assert s.n_gpus == 3
        assert s.gpus[0].spec is TESLA_V100_16GB

    def test_v100_preset_gpu_count_configurable(self):
        assert v100_server(seed=None, n_gpus=8).n_gpus == 8

    def test_rtx3090_preset_shape(self):
        s = rtx3090_server(seed=None)
        assert s.n_gpus == 1
        assert s.gpus[0].spec.name == "rtx-3090"

    def test_custom_server(self):
        s = custom_server(n_cpus=2, n_gpus=4, seed=None)
        assert s.n_channels == 6
        assert [c.kind for c in s.channels] == ["cpu"] * 2 + ["gpu"] * 4

    def test_same_seed_same_noise_stream(self):
        a, b = v100_server(seed=5), v100_server(seed=5)
        a.advance(0.1), b.advance(0.1)
        assert a.total_power_w() == pytest.approx(b.total_power_w())


class TestBankedPowerOracle:
    """The banked plant update equals per-device ``Device.power_w()`` sums
    bit for bit, on both sides of ``step_all``'s scalar (< 8 devices, no
    thermal) vs array selection."""

    @staticmethod
    def drive(servers, rng):
        """Put identical random grid levels and utilizations on every server."""
        n = len(servers[0].devices)
        levels = [
            float(rng.choice(d.domain.levels)) for d in servers[0].devices
        ]
        utils = rng.uniform(0.0, 1.0, size=n).tolist()
        for s in servers:
            for d, f, u in zip(s.devices, levels, utils):
                d.apply_frequency(f)
                d.set_utilization(u)

    @staticmethod
    def per_device_step(server, dt_s):
        """The plant tick written per device: thermal nodes stepped one at
        a time, then the wall-power sum over ``Device.power_w()``."""
        if server.noise is not None:
            server._noise_value = server.noise.sample()
        if server.thermal_nodes is not None:
            hottest = -np.inf
            for node, dev in zip(server.thermal_nodes, server.devices):
                hottest = max(hottest, node.step(dev.power_w(), dt_s))
            server.fan.update(hottest)
        comp = np.array([d.power_w() for d in server.devices], dtype=np.float64)
        p = server.static_power_w + server.fan.power_w() + float(comp.sum())
        if server.noise is not None:
            p += server._noise_value
        cpu_p = float(sum(c.power_w() for c in server.cpus))
        return p, cpu_p

    @pytest.mark.parametrize(
        ("build", "fast_power"),
        [
            (lambda: v100_server(seed=3), True),
            (lambda: custom_server(n_cpus=2, n_gpus=8, seed=3), False),
            (lambda: v100_server(seed=3, thermal=True), False),
        ],
        ids=["v100", "custom-10-devices", "v100-thermal"],
    )
    def test_step_all_equals_per_device_sums(self, build, fast_power):
        banked, oracle = build(), build()
        assert banked._fast_power is fast_power
        rng = np.random.default_rng(17)
        for _ in range(50):
            self.drive([banked, oracle], rng)
            comp = banked.component_power_w()
            want_comp = np.array([d.power_w() for d in oracle.devices])
            assert np.array_equal(comp, want_comp)
            got = banked.step_all(0.1)
            want, want_cpu = self.per_device_step(oracle, 0.1)
            assert got == want
            assert banked.last_cpu_power_w == want_cpu
        if banked.thermal_nodes is not None:
            assert [n.temperature_c for n in banked.thermal_nodes] == [
                n.temperature_c for n in oracle.thermal_nodes
            ]
