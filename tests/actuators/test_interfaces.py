"""cpupower / nvidia-smi command-shaped interfaces."""

import pytest

from repro.actuators import CpupowerInterface, NvidiaSmiInterface, ServerActuator
from repro.errors import ActuationError


@pytest.fixture
def setup(quiet_server):
    act = ServerActuator(quiet_server)
    return quiet_server, act


class TestCpupower:
    def test_frequency_set_parses_ghz(self, setup):
        server, act = setup
        iface = CpupowerInterface(server, act)
        assert iface.frequency_set("1.6GHz") == pytest.approx(1600.0)
        act.tick()
        assert server.cpus[0].frequency_mhz == 1600.0

    def test_case_insensitive_and_whitespace(self, setup):
        server, act = setup
        iface = CpupowerInterface(server, act)
        assert iface.frequency_set("  2.1ghz ") == pytest.approx(2100.0)

    def test_fractional_frequency_realized_by_modulation(self, setup):
        server, act = setup
        iface = CpupowerInterface(server, act)
        iface.frequency_set("1.65GHz")
        applied = []
        for _ in range(100):
            act.tick()
            applied.append(server.cpus[0].frequency_mhz)
        assert sum(applied) / len(applied) == pytest.approx(1650.0, abs=5.0)

    @pytest.mark.parametrize("bad", ["1.6", "1.6MHz", "fastGHz", "GHz", ""])
    def test_malformed_rejected(self, setup, bad):
        server, act = setup
        iface = CpupowerInterface(server, act)
        with pytest.raises(ActuationError):
            iface.frequency_set(bad)

    def test_out_of_range_rejected(self, setup):
        server, act = setup
        iface = CpupowerInterface(server, act)
        with pytest.raises(ActuationError):
            iface.frequency_set("5.0GHz")

    def test_frequency_info(self, setup):
        server, act = setup
        iface = CpupowerInterface(server, act)
        info = iface.frequency_info()
        assert info["hardware_limits_mhz"] == (1000.0, 2400.0)
        assert len(info["available_frequencies_mhz"]) == 15


class TestNvidiaSmi:
    def test_set_application_clocks(self, setup):
        server, act = setup
        iface = NvidiaSmiInterface(server, act)
        iface.set_application_clocks(1, 877.0, 900.0)
        act.tick()
        assert server.gpus[1].core_clock_mhz == 900.0
        assert server.gpus[0].core_clock_mhz == 435.0

    def test_wrong_memory_clock_rejected(self, setup):
        server, act = setup
        iface = NvidiaSmiInterface(server, act)
        with pytest.raises(ActuationError):
            iface.set_application_clocks(0, 900.0, 900.0)

    def test_off_grid_core_clock_rejected(self, setup):
        server, act = setup
        iface = NvidiaSmiInterface(server, act)
        with pytest.raises(ActuationError):
            iface.set_application_clocks(0, 877.0, 901.0)

    def test_bad_gpu_index_rejected(self, setup):
        server, act = setup
        iface = NvidiaSmiInterface(server, act)
        with pytest.raises(ActuationError):
            iface.set_application_clocks(5, 877.0, 900.0)

    def test_fractional_clock_clamped_and_staged(self, setup):
        server, act = setup
        iface = NvidiaSmiInterface(server, act)
        assert iface.set_fractional_clock(0, 742.5) == pytest.approx(742.5)
        assert iface.set_fractional_clock(0, 99999.0) == pytest.approx(1350.0)

    def test_query_clocks(self, setup):
        server, act = setup
        iface = NvidiaSmiInterface(server, act)
        assert iface.query_clocks() == [435.0, 435.0, 435.0]
