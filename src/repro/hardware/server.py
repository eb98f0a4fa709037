"""GPU server model: host CPU(s) + multiple GPUs + platform components.

The server is the plant the controllers act on. It composes:

* a list of CPU packages and a list of GPUs (the controllable *channels*,
  ordered CPUs-then-GPUs as in the paper's ``F`` vector);
* a constant platform floor (motherboard, DRAM, NICs, storage, PSU losses);
* a fan bank (fixed speed per the paper's methodology);
* optional thermal nodes per device;
* an AR(1) power disturbance (applied at the wall, i.e. what the ACPI power
  meter sees on top of the component sum).

Only the telemetry layer reads :meth:`total_power_w`; controllers never see
ground truth directly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..rng import spawn
from ..units import require_non_negative
from .cpu import CpuModel
from .device import Device
from .fan import FanModel
from .gpu import GpuModel
from .power import Ar1Noise
from .thermal import ThermalNode

__all__ = ["GpuServer", "ChannelRef"]


class ChannelRef:
    """Reference to one controllable frequency channel of a server.

    ``index`` is the position in the server-wide channel vector ``F``
    (CPUs first, then GPUs — the paper's ordering).
    """

    __slots__ = ("index", "kind", "device_index", "name")

    def __init__(self, index: int, kind: str, device_index: int, name: str):
        self.index = index
        self.kind = kind
        self.device_index = device_index
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ChannelRef({self.index}, {self.kind}{self.device_index}, {self.name!r})"


class GpuServer:
    """A multi-GPU inference server (the controlled plant).

    Parameters
    ----------
    cpus / gpus:
        Device models. At least one device overall is required.
    static_power_w:
        Constant platform floor in watts.
    fan:
        Fan model; defaults to a fixed-speed bank as in the paper.
    noise:
        Optional AR(1) wall-power disturbance. Pass ``None`` for a
        deterministic plant (useful in unit tests).
    thermal:
        If True, attach a :class:`ThermalNode` per device.
    seed:
        Root seed for the disturbance stream when ``noise`` is not given.
    noise_sigma_w / noise_rho:
        AR(1) parameters used when constructing the default disturbance.
    """

    def __init__(
        self,
        cpus: Sequence[CpuModel],
        gpus: Sequence[GpuModel],
        static_power_w: float = 180.0,
        fan: FanModel | None = None,
        noise: Ar1Noise | None = None,
        thermal: bool = False,
        seed: int | None = 0,
        noise_sigma_w: float = 3.5,
        noise_rho: float = 0.8,
    ):
        self.cpus = list(cpus)
        self.gpus = list(gpus)
        if not self.cpus and not self.gpus:
            raise ConfigurationError("server needs at least one device")
        self.static_power_w = require_non_negative(static_power_w, "static_power_w")
        self.fan = fan if fan is not None else FanModel()
        if noise is not None:
            self.noise = noise
        elif seed is None:
            self.noise = None
        else:
            self.noise = Ar1Noise(noise_sigma_w, noise_rho, spawn(seed, "server-wall-noise"))
        self._noise_value = 0.0
        #: CPU package subtotal as of the last :meth:`step_all` call.
        self.last_cpu_power_w = 0.0
        self.thermal_nodes: list[ThermalNode] | None = (
            [ThermalNode() for _ in self.devices] if thermal else None
        )
        self._channels = self._build_channels()
        # Stacked device state: every device's (frequency, utilization) slot
        # is re-attached onto these arrays, and the power-model coefficients
        # are stacked alongside, so per-tick power evaluation and actuation
        # are single vector expressions instead of per-device Python calls.
        # The scalar Device API writes through to the bank (see Device), so
        # the arrays are always fresh.
        devs = self.devices
        self._device_seq = tuple(devs)  # immutable hot-path view
        self._bank_f = np.array([d.frequency_mhz for d in devs], dtype=np.float64)
        self._bank_u = np.array([d.utilization for d in devs], dtype=np.float64)
        for i, d in enumerate(devs):
            d._attach_bank(self._bank_f, self._bank_u, i)
        pm = [d.power_model for d in devs]
        self._pm_idle = np.array([m.idle_w for m in pm])
        self._pm_dyn = np.array([m.dyn_w_per_mhz for m in pm])
        self._pm_floor = np.array([m.util_floor for m in pm])
        self._pm_one_minus_floor = 1.0 - self._pm_floor
        self._pm_quad = np.array([m.quad_w_per_mhz2 for m in pm])
        self._pm_fref = np.array([m.f_ref_mhz for m in pm])
        self._f_min_vec = np.array([d.domain.f_min for d in devs])
        self._f_max_vec = np.array([d.domain.f_max for d in devs])
        # Python-list copies of the stacked coefficients for step_all's
        # scalar fast path (see there for the n<8 restriction).
        self._pm_idle_l = self._pm_idle.tolist()
        self._pm_dyn_l = self._pm_dyn.tolist()
        self._pm_floor_l = self._pm_floor.tolist()
        self._pm_omf_l = self._pm_one_minus_floor.tolist()
        self._pm_quad_l = self._pm_quad.tolist()
        self._pm_fref_l = self._pm_fref.tolist()
        self._fast_power = self.thermal_nodes is None and len(devs) < 8

    # -- structure ----------------------------------------------------------

    def _build_channels(self) -> list[ChannelRef]:
        chans: list[ChannelRef] = []
        for j, cpu in enumerate(self.cpus):
            chans.append(ChannelRef(len(chans), "cpu", j, f"cpu{j}:{cpu.name}"))
        for i, gpu in enumerate(self.gpus):
            chans.append(ChannelRef(len(chans), "gpu", i, f"gpu{i}:{gpu.name}"))
        return chans

    @property
    def channels(self) -> list[ChannelRef]:
        """Channel references, CPUs first then GPUs (paper's F ordering)."""
        return list(self._channels)

    @property
    def n_channels(self) -> int:
        return len(self._channels)

    @property
    def n_cpus(self) -> int:
        return len(self.cpus)

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)

    @property
    def devices(self) -> list[Device]:
        """All devices in channel order."""
        return [*self.cpus, *self.gpus]

    def device(self, channel: int) -> Device:
        """Device backing channel ``channel``."""
        return self.devices[channel]

    def gpu_channel_indices(self) -> list[int]:
        """Channel indices of the GPUs."""
        return [c.index for c in self._channels if c.kind == "gpu"]

    def cpu_channel_indices(self) -> list[int]:
        """Channel indices of the CPUs."""
        return [c.index for c in self._channels if c.kind == "cpu"]

    # -- frequency vector ----------------------------------------------------

    def frequency_vector(self) -> np.ndarray:
        """Current applied frequencies ``F`` in MHz, channel order."""
        return self._bank_f.copy()

    def f_min_vector(self) -> np.ndarray:
        """Per-channel minimum frequencies."""
        return self._f_min_vec.copy()

    def f_max_vector(self) -> np.ndarray:
        """Per-channel maximum frequencies."""
        return self._f_max_vec.copy()

    def utilization_vector(self) -> np.ndarray:
        """Current per-channel busy fractions."""
        return self._bank_u.copy()

    def apply_frequency_levels(self, levels_mhz) -> None:
        """Write one discrete level per device in a single vector store.

        Actuation-layer fast path: the caller (the vectorized server
        actuator) guarantees every entry is an exact grid level of the
        matching domain, so the per-device ``contains`` validation of
        :meth:`Device.apply_frequency` is skipped. Accepts an array or a
        plain list of floats. Scalar mirrors are kept in sync so
        ``device.frequency_mhz`` reads stay cheap and exact.
        """
        self._bank_f[:] = levels_mhz
        if isinstance(levels_mhz, np.ndarray):
            levels_mhz = levels_mhz.tolist()
        for d, f in zip(self._device_seq, levels_mhz):
            d._frequency_mhz = f

    # -- power ----------------------------------------------------------------

    def component_power_w(self) -> np.ndarray:
        """Per-channel device power (ground truth, no wall noise)."""
        # Same expression as DevicePowerModel.power_w, evaluated on the
        # stacked state — elementwise float64 ops in the identical order, so
        # each entry is bit-identical to the per-device scalar call.
        activity = self._pm_floor + self._pm_one_minus_floor * self._bank_u
        df = self._bank_f - self._pm_fref
        return self._pm_idle + self._pm_dyn * self._bank_f * activity + self._pm_quad * df * df

    def cpu_power_w(self) -> float:
        """Total CPU package power (what RAPL would report)."""
        return float(sum(c.power_w() for c in self.cpus))

    def gpu_power_w(self, index: int | None = None) -> float:
        """Board power of one GPU, or of all GPUs when ``index`` is None."""
        if index is None:
            return float(sum(g.power_w() for g in self.gpus))
        return float(self.gpus[index].power_w())

    def total_power_w(self, include_noise: bool = True) -> float:
        """Wall power right now: devices + platform floor + fan + disturbance."""
        p = self.static_power_w + self.fan.power_w() + float(self.component_power_w().sum())
        if include_noise and self.noise is not None:
            p += self._noise_value
        return p

    def power_envelope_w(self, utilization: float = 1.0) -> tuple[float, float]:
        """Achievable (min, max) wall power at a fixed utilization.

        Used for set-point feasibility checks (Section 4.4's assumption).
        Noise is excluded — the envelope is the deterministic range.
        """
        lo = self.static_power_w + self.fan.power_w()
        hi = lo
        for d in self.devices:
            lo += d.power_model.power_w(d.domain.f_min, utilization)
            hi += d.power_model.power_w(d.domain.f_max, utilization)
        return lo, hi

    # -- time stepping ----------------------------------------------------------

    def advance(self, dt_s: float) -> None:
        """Advance server-internal dynamics by one tick.

        Samples the wall disturbance and, when thermal modelling is enabled,
        integrates device temperatures and updates the fan.
        """
        if self.noise is not None:
            self._noise_value = self.noise.sample()
        if self.thermal_nodes is not None:
            hottest = ThermalNode.step_many(
                self.thermal_nodes, self.component_power_w().tolist(), dt_s
            )
            self.fan.update(hottest)
        else:
            self.fan.update(None if self.fan.mode.value == "fixed" else self.fan.t_low_c)

    def step_all(self, dt_s: float) -> float:
        """Advance all stacked device state one tick; returns wall power.

        The engine's combined per-tick plant update: one
        :meth:`advance` over the banked device vectors followed by one
        ground-truth power evaluation, identical in value to calling the two
        scalar methods back to back. As a side effect the CPU package
        subtotal is stashed in :attr:`last_cpu_power_w` (summed left to
        right, matching :meth:`cpu_power_w`'s associativity bit for bit) so
        the RAPL counter can integrate it without recomputing device powers.
        """
        self.advance(dt_s)
        if self._fast_power:
            # Scalar evaluation of the same per-device expression, read off
            # the (always in-sync) scalar mirrors. Restricted to < 8 devices:
            # numpy's pairwise reduce is strictly sequential below 8
            # elements, so this left-to-right accumulation reproduces
            # ``float(comp.sum())`` bit for bit — and at that size the
            # Python loop is severalfold cheaper than the array expression.
            idle = self._pm_idle_l
            dyn = self._pm_dyn_l
            flo = self._pm_floor_l
            omf = self._pm_omf_l
            quad = self._pm_quad_l
            fref = self._pm_fref_l
            n_cpu = len(self.cpus)
            cpu_p = 0.0
            total = 0.0
            for i, d in enumerate(self._device_seq):
                fi = d._frequency_mhz
                df = fi - fref[i]
                pw = idle[i] + dyn[i] * fi * (flo[i] + omf[i] * d._utilization) + quad[i] * df * df
                total += pw
                if i < n_cpu:
                    cpu_p += pw
            self.last_cpu_power_w = cpu_p
            p = self.static_power_w + self.fan.power_w() + total
        else:
            comp = self.component_power_w()
            cpu_p = 0.0
            for v in comp[: len(self.cpus)].tolist():
                cpu_p += v
            self.last_cpu_power_w = cpu_p
            p = self.static_power_w + self.fan.power_w() + float(comp.sum())
        if self.noise is not None:
            p += self._noise_value
        return p

    def reset(self) -> None:
        """Reset disturbances, temperatures and frequencies to initial state."""
        self._noise_value = 0.0
        if self.noise is not None:
            self.noise.reset()
        if self.thermal_nodes is not None:
            for node in self.thermal_nodes:
                node.reset()
        for d in self.devices:
            d.apply_frequency(d.domain.f_min)
            d.set_utilization(1.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GpuServer({self.n_cpus} CPU, {self.n_gpus} GPU, "
            f"static={self.static_power_w:.0f} W)"
        )
