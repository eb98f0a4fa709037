"""Fan and thermal models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware import FanMode, FanModel, ThermalNode


class TestFanModel:
    def test_fixed_mode_constant_power(self):
        fan = FanModel(max_power_w=120.0, fixed_speed=0.7)
        fan.update()
        p1 = fan.power_w()
        fan.update()
        assert fan.power_w() == p1

    def test_cube_law(self):
        fan = FanModel(max_power_w=100.0, fixed_speed=0.5)
        fan.update()
        assert fan.power_w() == pytest.approx(100.0 * 0.125)

    def test_thermal_mode_requires_temperature(self):
        fan = FanModel(mode=FanMode.THERMAL)
        with pytest.raises(ConfigurationError):
            fan.update(None)

    def test_thermal_mode_ramps_with_temperature(self):
        fan = FanModel(mode=FanMode.THERMAL, t_low_c=40.0, t_high_c=80.0, min_speed=0.3)
        fan.update(40.0)
        low = fan.speed
        fan.update(80.0)
        assert fan.speed == pytest.approx(1.0)
        assert low < 1.0

    def test_thermal_mode_floors_at_min_speed(self):
        fan = FanModel(mode=FanMode.THERMAL, min_speed=0.3)
        fan.update(0.0)
        assert fan.speed == pytest.approx(0.3)

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ConfigurationError):
            FanModel(t_low_c=80.0, t_high_c=40.0)


class TestThermalNode:
    def test_starts_at_ambient(self):
        node = ThermalNode(t_ambient_c=25.0)
        assert node.temperature_c == 25.0

    def test_steady_state_formula(self):
        node = ThermalNode(r_th_c_per_w=0.1, t_ambient_c=25.0)
        assert node.steady_state_c(200.0) == pytest.approx(45.0)

    def test_converges_to_steady_state(self):
        node = ThermalNode(r_th_c_per_w=0.1, tau_s=10.0, t_ambient_c=25.0)
        for _ in range(200):
            node.step(200.0, 1.0)
        assert node.temperature_c == pytest.approx(45.0, abs=0.1)

    def test_monotone_approach(self):
        node = ThermalNode(tau_s=20.0)
        temps = [node.step(300.0, 1.0) for _ in range(50)]
        assert all(b >= a for a, b in zip(temps, temps[1:]))

    def test_stable_for_large_dt(self):
        # Exact exponential update: a dt much larger than tau cannot overshoot.
        node = ThermalNode(r_th_c_per_w=0.1, tau_s=5.0, t_ambient_c=25.0)
        node.step(200.0, 1000.0)
        assert node.temperature_c == pytest.approx(45.0, abs=0.01)

    def test_reset(self):
        node = ThermalNode(t_ambient_c=27.0)
        node.step(300.0, 100.0)
        node.reset()
        assert node.temperature_c == 27.0

    def test_step_many_equals_per_node_steps(self):
        """The server's batched thermal update is bitwise a sequence of
        ``node.step`` calls, hottest temperature included."""
        def nodes():
            return [
                ThermalNode(r_th_c_per_w=0.08 + 0.01 * i, tau_s=5.0 + 3.0 * i,
                            t_ambient_c=24.0 + i)
                for i in range(5)
            ]

        batched, scalar = nodes(), nodes()
        rng = np.random.default_rng(5)
        for _ in range(40):
            powers = rng.uniform(50.0, 350.0, size=5).tolist()
            dt = float(rng.choice([0.01, 0.1, 1.0]))
            hottest = ThermalNode.step_many(batched, powers, dt)
            temps = [node.step(p, dt) for node, p in zip(scalar, powers)]
            assert [n.temperature_c for n in batched] == temps
            assert hottest == max(temps)
