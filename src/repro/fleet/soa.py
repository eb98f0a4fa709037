"""Structure-of-arrays fleet backend: N servers as one numpy program.

Extends the within-server vectorization of ``sim/engine.py`` across the
*server* axis. Device frequencies, utilizations, delta-sigma error state,
meter/RAPL accumulators, monitor windows and degradation-ladder state all
live in ``(n_servers, n_channels)`` / ``(n_servers,)`` float64 arrays, and
the 40-tick control period advances the whole fleet with elementwise
expressions instead of N scalar ``ServerSimulation`` loops.

**Bit-for-bit contract.** Every expression below is a transcription of the
scalar hot path with the same float operations in the same order, so a SoA
fleet reproduces N scalar engines exactly (``tests/fleet/test_differential``
pins this):

* noise streams are per-server :class:`~repro.rng.BlockSampler` prefetches —
  batch draws consume each generator stream identically to scalar draws;
* sums that the scalar engine accumulates left-to-right (per-channel plant
  power, GPU board sum, demand pressure) are accumulated column by column,
  never with ``ndarray.sum`` (numpy's pairwise reduce only matches sequential
  addition below 8 elements);
* scalar quirks are preserved: the ``(busy*dt)/dt`` utilization round trip,
  the NVML watts→milliwatts→watts round trip, RAPL's truncate-to-int read,
  banker's rounding in the meter quantizer, and the shared-epsilon meter
  emission test.

Controllers are *not* vectorized: the backend keeps N real controller
objects and feeds each a per-server :class:`ControlObservation` once per
control period. Controller arithmetic is bit-identical by construction (it
runs the very same code), controller state (round-robin cursors, safe-mode
latches) needs no translation, and at one call per server per 4-simulated-
seconds the cost is irrelevant next to the tick loop it replaces.

The backend models the homogeneous fleet case: ``v100_server`` plants with
:class:`~repro.workloads.static.StaticLoadPipeline` workloads and fixed-step
controllers. Heterogeneous racks, full inference pipelines, faults and
events stay on the :class:`~repro.fleet.engine.ReferenceBackend`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..actuators.modulator import DeltaSigmaModulator
from ..cluster.allocator import ServerPowerState
from ..control.base import ControlObservation, PowerCappingController
from ..control.fixed_step import FixedStepController, SafeFixedStepController
from ..errors import ActuationError, CheckpointError, ConfigurationError
from ..hardware.presets import v100_server
from ..rng import BlockSampler, spawn
from ..sim.engine import POWER_SOURCES, ServerSimulation, SimConfig
from ..telemetry.trace import Trace
from ..units import microjoules_to_joules_array, seconds_to_milliseconds
from ..workloads.pipeline import PipelineConfig
from ..workloads.static import StaticLoadPipeline, StaticLoadSpec
from .engine import FleetBackend, FleetServer

__all__ = [
    "SoaServerSpec",
    "SoaFleetBackend",
    "PeriodHistory",
    "DEFAULT_GPU_SPECS",
    "build_scalar_twin",
    "fleet_identified_model",
]

_CONTROLLER_CORE_UTIL = 0.3  # engine constant (one core runs the controller)
_FREEZE_DETECT_SAMPLES = 8  # engine constant (meter freeze detector)

#: Per-GPU workload laws of the default homogeneous fleet: three V100s at
#: staggered offered loads (the mix exercises both the capped and the
#: demand-limited branch of the static-load law).
DEFAULT_GPU_SPECS: tuple[StaticLoadSpec, ...] = (
    StaticLoadSpec(name="static-g0", demand_rate_s=9.0),
    StaticLoadSpec(name="static-g1", demand_rate_s=7.0),
    StaticLoadSpec(name="static-g2", demand_rate_s=5.0),
)


def fleet_identified_model(
    gpu_specs: tuple[StaticLoadSpec, ...] = DEFAULT_GPU_SPECS,
    config: SimConfig = SimConfig(),
    seed: int = 0,
    points_per_channel: int = 6,
):
    """One-shot system identification on a probe static-load server.

    Cached per process (like :func:`repro.experiments.common.identified_model`)
    so every MPC controller in a homogeneous fleet — reference twins and SoA
    columns alike — shares the same :class:`PowerModelFit`, mirroring the
    paper's identify-once-per-testbed workflow.
    """
    return _fleet_identified_model_cached(gpu_specs, config, seed, points_per_channel)


@lru_cache(maxsize=8)
def _fleet_identified_model_cached(gpu_specs, config, seed, points_per_channel):
    from ..sysid import identify_power_model

    server = v100_server(seed=seed, n_gpus=len(gpu_specs))
    pipelines = [
        StaticLoadPipeline(gs, PipelineConfig(n_workers=1)) for gs in gpu_specs
    ]
    sim = ServerSimulation(server, pipelines, config=config, seed=seed)
    return identify_power_model(sim, points_per_channel=points_per_channel).fit


@dataclass(frozen=True)
class SoaServerSpec:
    """Construction recipe for one fleet server (both backends build from
    this, so the scalar twin and the SoA column are configured identically).

    ``controller="mpc"`` wires the CapGPU MPC (uniform penalty weights, no
    SLO manager, the shared :func:`fleet_identified_model`) — the MPC-heavy
    fleet case. Uniform weights keep the MPC's ``(a, r)`` matrices constant
    across servers and periods, which the fast engine's factorization cache
    exploits; the reference path just runs the stock controller.
    """

    name: str
    seed: int
    set_point_w: float = 1000.0
    priority: int = 0
    demand_scale: float = 1.0
    controller: str = "fixed-step"
    step_size: int = 1
    deadband_w: float = 0.0
    safety_margin_w: float = 25.0

    def build_controller(self) -> PowerCappingController:
        if self.controller == "fixed-step":
            return FixedStepController(
                step_size=self.step_size, deadband_w=self.deadband_w
            )
        if self.controller == "safe-fixed-step":
            return SafeFixedStepController(
                self.safety_margin_w,
                step_size=self.step_size,
                deadband_w=self.deadband_w,
            )
        if self.controller == "mpc":
            from ..core import CapGpuController, WeightAssigner

            return CapGpuController(
                model=fleet_identified_model(),
                weights=WeightAssigner(mode="uniform"),
            )
        raise ConfigurationError(f"unknown controller {self.controller!r}")


def build_scalar_twin(
    spec: SoaServerSpec,
    gpu_specs: tuple[StaticLoadSpec, ...] = DEFAULT_GPU_SPECS,
    config: SimConfig = SimConfig(),
) -> FleetServer:
    """The scalar :class:`FleetServer` a :class:`SoaServerSpec` describes.

    The differential suite runs fleets built from the same spec list through
    this path and the SoA path and asserts identical traces.
    """
    server = v100_server(seed=spec.seed, n_gpus=len(gpu_specs))
    pipelines = [
        StaticLoadPipeline(gs.scaled(spec.demand_scale), PipelineConfig(n_workers=1))
        for gs in gpu_specs
    ]
    sim = ServerSimulation(
        server,
        pipelines,
        set_point_w=spec.set_point_w,
        config=config,
        seed=spec.seed,
    )
    return FleetServer(spec.name, sim, spec.build_controller(), spec.priority)


class PeriodHistory:
    """The fleet's period history: one ``(periods, servers, channels)`` array.

    Each control period appends one ``(servers, channels)`` row in place.
    The array starts small and doubles when full, so recording stays
    amortized O(1) without a reservation sized to a guessed run length.
    A checkpoint captures only the recorded rows, as one array.
    """

    INITIAL_CAPACITY = 8

    def __init__(self, n_servers: int, n_channels: int):
        self._data = np.empty(
            (self.INITIAL_CAPACITY, n_servers, n_channels), dtype=np.float64
        )
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def next_row(self) -> np.ndarray:
        """Record one period: its NaN-filled ``(servers, channels)`` row view."""
        if self._len == self._data.shape[0]:
            grown = np.empty((2 * self._len, *self._data.shape[1:]), dtype=np.float64)
            grown[: self._len] = self._data
            self._data = grown
        row = self._data[self._len]
        row.fill(np.nan)
        self._len += 1
        return row

    def last(self) -> np.ndarray | None:
        """A view of the newest row, or ``None`` before the first period."""
        return self._data[self._len - 1] if self._len else None

    def server(self, index: int) -> np.ndarray:
        """A view of every recorded row of one server, ``(periods, channels)``."""
        return self._data[: self._len, index, :]

    def __repro_getstate__(self) -> dict:
        return {"rows": self._data[: self._len]}

    def __repro_setstate__(self, state: dict) -> None:
        rows = state["rows"]
        if rows.shape[1:] != self._data.shape[1:]:
            raise CheckpointError(
                f"fleet history shape {rows.shape[1:]} does not match "
                f"this fleet's {self._data.shape[1:]}"
            )
        if len(rows) > self._data.shape[0]:
            self._data = np.empty(rows.shape, dtype=np.float64)
        self._data[: len(rows)] = rows
        self._len = len(rows)


def power_states(backend, last: np.ndarray | None) -> list[ServerPowerState]:
    """Allocator snapshots of a SoA-layout fleet from its newest row.

    ``last`` is the ``(servers, channels)`` row of the latest period, or
    ``None`` before the first one. ``backend`` supplies the layout: names,
    priorities, the power envelope, the channel index and the GPU count.
    """
    n = len(backend.specs)
    lo, hi = backend._envelope
    if last is not None:
        ix = backend._chan_index
        power = last[:, ix["power_w"]]
        pressure: np.ndarray | None = None
        for g in range(backend.n_gpus):
            c = 1 + g
            pg = np.maximum(last[:, ix[f"util_{c}"]] - last[:, ix[f"tput_norm_{c}"]], 0.0)
            pressure = pg if pressure is None else pressure + pg
        demand = np.clip(pressure / backend.n_gpus, 0.0, 1.0)
    else:
        power = np.full(n, np.nan)
        demand = np.ones(n)
    return [
        ServerPowerState(
            name=backend._names[i],
            power_w=float(power[i]),
            p_min_w=lo,
            p_max_w=hi,
            demand=float(demand[i]),
            priority=backend._priorities[i],
        )
        for i in range(n)
    ]


class SoaFleetBackend(FleetBackend):
    """The structure-of-arrays fleet: state shaped ``(n_servers, ...)``."""

    def __init__(
        self,
        specs: list[SoaServerSpec],
        gpu_specs: tuple[StaticLoadSpec, ...] = DEFAULT_GPU_SPECS,
        config: SimConfig = SimConfig(),
    ):
        if not specs:
            raise ConfigurationError("fleet needs at least one server")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate server names: {names}")
        if not gpu_specs:
            raise ConfigurationError("need at least one GPU workload spec")
        if 1 + len(gpu_specs) >= 8:
            # The column-sequential sums below replicate the scalar engine's
            # fast path, which (like numpy's pairwise reduce) is only
            # left-to-right below 8 devices.
            raise ConfigurationError("SoA fleet supports at most 6 GPUs per server")
        self.specs = list(specs)
        self.gpu_specs = tuple(gpu_specs)
        self.config = config
        self._names = names
        n = len(specs)
        n_gpus = len(gpu_specs)

        # -- fleet-wide constants, read off one prototype plant ------------
        proto = v100_server(seed=0, n_gpus=n_gpus)
        devs = proto.devices
        n_chan = proto.n_channels
        self.n_gpus = n_gpus
        self.n_channels = n_chan
        self._n_cores = proto.cpus[0].n_cores
        self._pm_idle = proto._pm_idle.copy()
        self._pm_dyn = proto._pm_dyn.copy()
        self._pm_floor = proto._pm_floor.copy()
        self._pm_omf = proto._pm_one_minus_floor.copy()
        self._pm_quad = proto._pm_quad.copy()
        self._pm_fref = proto._pm_fref.copy()
        self._f_min = proto.f_min_vector()
        self._f_max = proto.f_max_vector()
        pitches = [d.domain.uniform_pitch_mhz for d in devs]
        if any(p is None for p in pitches):
            raise ConfigurationError("SoA fleet requires exact-uniform grids")
        self._pitch = np.array(pitches, dtype=np.float64)
        self._k_max = np.array(
            [float(d.domain.n_levels - 2) for d in devs], dtype=np.float64
        )
        # The anti-windup bound each DeltaSigmaModulator computes for itself.
        self._err_bound = np.array(
            [DeltaSigmaModulator(d.domain)._pitch for d in devs], dtype=np.float64
        )
        # Plant constants: platform floor + fixed-speed fan, the wall-noise
        # AR(1) parameters, the plausibility envelope and the side-channel
        # calibration constant — all identical expressions to the scalar
        # engine's construction-time values.
        self._base_power_w = proto.static_power_w + proto.fan.power_w()
        self._platform_overhead_w = proto.static_power_w + proto.fan.power_w()
        env_lo, env_hi = proto.power_envelope_w()
        self._plausible_lo_w = 0.25 * env_lo
        self._plausible_hi_w = 1.5 * env_hi
        self._envelope = proto.power_envelope_w(utilization=1.0)
        self._noise_rho = proto.noise._rho
        noise_sigma = proto.noise._sigma
        self._rapl_range_uj = 262_143_328_850  # SimulatedRapl default

        # -- per-server RNG streams (same spawn names as the scalar engine) -
        self._wall_noise = [
            BlockSampler(spawn(s.seed, "server-wall-noise"), "normal", (0.0, noise_sigma))
            for s in specs
        ]
        self._meter_noise = [
            BlockSampler(
                spawn(s.seed, "acpi-meter-noise"),
                "normal",
                (0.0, config.meter_noise_sigma_w),
            )
            for s in specs
        ]
        self._nvml_noise = [
            BlockSampler(spawn(s.seed, "nvml-noise"), "normal", (0.0, 1.0))
            for s in specs
        ]

        # -- controller objects and workload parameters --------------------
        self.controllers = [s.build_controller() for s in specs]
        self._priorities = [s.priority for s in specs]
        self._set_point = np.array([s.set_point_w for s in specs], dtype=np.float64)
        # demand[i, g] — the same product StaticLoadSpec.scaled computes.
        self._demand = np.array(
            [[gs.demand_rate_s * s.demand_scale for gs in gpu_specs] for s in specs],
            dtype=np.float64,
        )
        self._n_workers = [PipelineConfig(n_workers=1).n_workers] * n_gpus

        # -- mutable fleet state, shaped (N, C) / (N, G) / (N,) -------------
        self._f = np.tile(self._f_min, (n, 1))
        self._u = np.ones((n, n_chan), dtype=np.float64)
        self._tgt = np.tile(self._f_min, (n, 1))
        self._pending: np.ndarray | None = None
        self._err = np.zeros((n, n_chan), dtype=np.float64)
        self._applied_sum = np.zeros((n, n_chan), dtype=np.float64)
        self._applied_ticks = 0
        self._last_commanded: np.ndarray | None = None
        self._noise_state = np.zeros(n, dtype=np.float64)
        self._frac_batches = np.zeros((n, n_gpus), dtype=np.float64)
        # Monitor windows: the hint-seeded running maximum plus per-period
        # event/busy accumulators (flushed exactly like the engine's).
        hints = [0.0] + [float(gs.max_batch_rate_s()) for gs in gpu_specs]
        self._max_seen = np.tile(np.array(hints, dtype=np.float64), (n, 1))
        self._tput_acc = np.zeros((n, n_chan), dtype=np.float64)
        self._util_acc = np.zeros((n, n_chan), dtype=np.float64)
        self._acc_elapsed = 0.0
        # Meter integration + freshness tracking (accumulated time is shared:
        # the fleet ticks in lockstep).
        self._m_accum_j = np.zeros(n, dtype=np.float64)
        self._m_accum_t = 0.0
        self._last_sample_w = np.full(n, np.nan)
        self._freeze_run = np.zeros(n, dtype=np.int64)
        # RAPL counters and window anchors.
        self._rapl_energy = np.zeros(n, dtype=np.float64)
        self._rapl_anchor_uj = np.zeros(n, dtype=np.int64)
        self._rapl_anchor_t = 0.0
        self._last_cpu_power = np.zeros(n, dtype=np.float64)
        self._has_last_cpu = np.zeros(n, dtype=bool)
        # Degradation-ladder holdover state.
        self._last_good_power = np.zeros(n, dtype=np.float64)
        self._has_last_good = np.zeros(n, dtype=bool)
        self._stale_periods = np.zeros(n, dtype=np.int64)
        self._safe_mode = np.zeros(n, dtype=np.float64)
        self._true_power_sum = np.zeros(n, dtype=np.float64)
        self._true_power_ticks = 0
        self.time_s = 0.0
        self.period_index = 0
        self._started = False
        self._last_ctl_ms = 0.0
        self._channels = self._trace_channels()
        self._chan_index = {c: i for i, c in enumerate(self._channels)}
        self._history = PeriodHistory(n, len(self._channels))

    # -- layout ------------------------------------------------------------

    def _trace_channels(self) -> list[str]:
        chans = [
            "time_s", "period", "set_point_w", "power_w",
            "power_max_w", "power_min_w", "ctl_ms",
            "true_power_w", "power_src", "fresh_samples", "safe_mode",
        ]
        for i in range(self.n_channels):
            chans += [f"f_tgt_{i}", f"f_app_{i}", f"util_{i}", f"tput_{i}", f"tput_norm_{i}"]
        for g in range(self.n_gpus):
            chans += [f"lat_mean_g{g}", f"lat_p95_g{g}", f"slo_g{g}", f"slo_miss_g{g}"]
        chans += ["cpu_lat_s", "cpu_tput"]
        return chans

    @property
    def names(self) -> list[str]:
        return list(self._names)

    # -- FleetBackend interface --------------------------------------------

    def states(self) -> list[ServerPowerState]:
        return power_states(self, self._history.last())

    def set_budgets(self, budgets_w: list[float]) -> None:
        self._set_point[:] = budgets_w

    def last_powers(self) -> list[float]:
        last = self._history.last()
        if last is None:
            raise ConfigurationError("fleet has not run yet")
        return last[:, self._chan_index["power_w"]].tolist()

    def server_trace(self, index: int) -> Trace:
        """A copy of server ``index``'s recorded periods (one slice copy)."""
        return Trace.from_array(self._channels, self._history.server(index))

    # -- stepping ----------------------------------------------------------

    def _stage_targets(self, targets: np.ndarray) -> None:
        """Stage per-server target vectors (the one-tick command latency)."""
        if not np.isfinite(targets).all():
            raise ActuationError("non-finite frequency target in fleet command")
        # Domain clamp, exactly FrequencyDomain.clamp per channel.
        self._pending = np.minimum(np.maximum(targets, self._f_min), self._f_max)

    def run_periods(self, n: int) -> None:
        if n < 0:
            raise ConfigurationError("n_periods must be >= 0")
        if n == 0:
            return
        if not self._started:
            init = np.stack(
                [
                    ctl.initial_targets(self._f_min, self._f_max)
                    for ctl in self.controllers
                ]
            )
            self._stage_targets(init)
            self._started = True
        for _ in range(n):
            self._run_one_period()

    def _run_one_period(self) -> None:
        cfg = self.config
        n = len(self.specs)
        n_chan = self.n_channels
        n_gpus = self.n_gpus
        dt = cfg.dt_s
        ticks = cfg.ticks_per_period
        spp = cfg.samples_per_period

        # Per-period noise prefetch: one block per server per stream,
        # consuming each generator exactly as the scalar components would.
        wall = np.array([s.take(ticks) for s in self._wall_noise])
        meter_noise = np.array([s.take(spp) for s in self._meter_noise])

        f = self._f
        u = self._u
        f_min = self._f_min
        f_max = self._f_max
        pitch = self._pitch
        k_max = self._k_max
        err_bound = self._err_bound
        idle = self._pm_idle
        dyn = self._pm_dyn
        flo = self._pm_floor
        omf = self._pm_omf
        quad = self._pm_quad
        fref = self._pm_fref
        samples = np.empty((n, spp), dtype=np.float64)
        emit = 0

        for t in range(ticks):
            # Actuator: promote pending commands at the first tick after a
            # set, then the delta-sigma rollout (scalar order per channel).
            if self._pending is not None:
                self._tgt = self._pending
                self._pending = None
            desired = self._tgt + self._err
            clipped = np.minimum(np.maximum(desired, f_min), f_max)
            k = np.floor((clipped - f_min) / pitch)
            np.minimum(k, k_max, out=k)
            below = f_min + pitch * k
            above = f_min + pitch * (k + 1.0)
            level = np.where((clipped - below) <= (above - clipped), below, above)
            e = desired - level
            self._err = np.minimum(np.maximum(e, -err_bound), err_bound)
            f[:] = level
            self._applied_sum += level
            self._applied_ticks += 1

            # Workloads (GPU channel order, like the engine's pipeline loop).
            preproc_cores: np.ndarray | None = None
            for g in range(n_gpus):
                c = 1 + g
                spec = self.gpu_specs[g]
                fc = f[:, c]
                capacity = spec.base_rate_s + spec.rate_per_mhz * (fc - spec.f_ref_mhz)
                demand = self._demand[:, g]
                busy = np.minimum(demand / capacity, 1.0)
                rate = np.minimum(demand, capacity)
                frac = self._frac_batches[:, g]
                frac += rate * dt
                done = np.floor(frac)
                frac -= done
                busy_s = busy * dt
                u[:, c] = busy_s / dt  # the engine's (busy*dt)/dt round trip
                self._tput_acc[:, c] += done
                self._util_acc[:, c] += busy_s
                contrib = self._n_workers[g] * np.minimum(
                    busy * spec.preproc_scale, 1.0
                )
                preproc_cores = (
                    contrib if preproc_cores is None else preproc_cores + contrib
                )

            # CPU channel: preproc workers + the controller's own core.
            busy_cores = preproc_cores + _CONTROLLER_CORE_UTIL
            cpu_util = np.minimum(busy_cores / self._n_cores, 1.0)
            u[:, 0] = cpu_util
            self._util_acc[:, 0] += cpu_util * dt
            self._acc_elapsed += dt

            # Plant: AR(1) wall disturbance, then per-channel power summed
            # left-to-right (sequential adds match the scalar fast path).
            self._noise_state = self._noise_rho * self._noise_state + wall[:, t]
            total: np.ndarray | None = None
            cpu_p: np.ndarray | None = None
            for c in range(n_chan):
                fc = f[:, c]
                df = fc - fref[c]
                pw = idle[c] + dyn[c] * fc * (flo[c] + omf[c] * u[:, c]) + quad[c] * df * df
                total = pw if total is None else total + pw
                if c == 0:
                    cpu_p = pw
            p_true = self._base_power_w + total
            p_true = p_true + self._noise_state

            # Meter integration (shared scalar window clock: lockstep fleet).
            self._m_accum_j += p_true * dt
            self._m_accum_t += dt
            if self._m_accum_t + 1e-9 >= cfg.meter_interval_s:
                mean_w = self._m_accum_j / self._m_accum_t
                if cfg.meter_noise_sigma_w > 0:
                    mean_w = mean_w + meter_noise[:, emit]
                samples[:, emit] = (
                    np.rint(mean_w / cfg.meter_resolution_w) * cfg.meter_resolution_w
                )
                emit += 1
                self._m_accum_j[:] = 0.0
                self._m_accum_t = 0.0

            # RAPL integration (float microjoule counter, wrapping).
            self._rapl_energy += (cpu_p * dt) * 1e6
            self._rapl_energy %= self._rapl_range_uj

            self._true_power_sum += p_true
            self._true_power_ticks += 1
            self.time_s += dt

        if emit != spp:
            raise ConfigurationError(
                f"meter emitted {emit} samples per period, expected {spp}"
            )
        self._observe_and_control(samples)

    def _filter_samples(
        self, samples: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The engine's staleness/plausibility/freeze filter, vectorized.

        Returns ``(keep mask, kept count, mean, (min, max) stacked)`` with
        NaN statistics for servers whose window came up empty.
        """
        n, spp = samples.shape
        keep = np.empty((n, spp), dtype=bool)
        for j in range(spp):
            w = samples[:, j]
            frozen_eq = w == self._last_sample_w
            self._freeze_run = np.where(frozen_eq, self._freeze_run + 1, 0)
            self._last_sample_w = w.copy()
            keep[:, j] = (
                np.isfinite(w)
                & (w >= self._plausible_lo_w)
                & (w <= self._plausible_hi_w)
            )
        if self.config.meter_noise_sigma_w > 0:
            keep[self._freeze_run >= _FREEZE_DETECT_SAMPLES, :] = False
        count = keep.sum(axis=1)
        # Fast path: every sample kept → column-sequential mean, identical to
        # np.mean over the window (pairwise == sequential below 8 elements).
        acc = samples[:, 0].copy()
        for j in range(1, spp):
            acc = acc + samples[:, j]
        mean = np.where(count == spp, acc / spp, np.nan)
        masked_hi = np.where(keep, samples, -np.inf)
        masked_lo = np.where(keep, samples, np.inf)
        has = count > 0
        pmax = np.where(has, masked_hi.max(axis=1), np.nan)
        pmin = np.where(has, masked_lo.min(axis=1), np.nan)
        # Degraded rows (some samples rejected): per-row scalar fallback.
        for i in np.nonzero(has & (count < spp))[0]:
            mean[i] = samples[i, keep[i]].mean()
        return keep, count, mean, np.stack([pmin, pmax])

    def _observe_and_control(self, samples: np.ndarray) -> None:
        cfg = self.config
        n = len(self.specs)
        n_chan = self.n_channels
        n_gpus = self.n_gpus

        # Monitor flush + read (rate, running-max normalization, busy mean).
        elapsed = self._acc_elapsed
        tput_raw = self._tput_acc / elapsed
        self._max_seen = np.maximum(self._max_seen, tput_raw)
        max_seen = self._max_seen
        safe_den = np.where(max_seen > 0, max_seen, 1.0)
        tput_norm = np.where(
            max_seen > 0, np.minimum(tput_raw / safe_den, 1.0), 0.0
        )
        util = np.minimum(self._util_acc / elapsed, 1.0)
        self._tput_acc = np.zeros((n, n_chan), dtype=np.float64)
        self._util_acc = np.zeros((n, n_chan), dtype=np.float64)
        self._acc_elapsed = 0.0

        keep, count, mean_power, pminmax = self._filter_samples(samples)

        # NVML board powers: model power at the *clamped* utilization, plus
        # per-query noise, through the watts→mw→watts round trip.
        nvml = np.array([s.take(n_gpus) for s in self._nvml_noise])
        gpu_power = np.empty((n, n_gpus), dtype=np.float64)
        for g in range(n_gpus):
            c = 1 + g
            uc = np.minimum(np.maximum(self._u[:, c], 0.0), 1.0)
            fc = self._f[:, c]
            df = fc - self._pm_fref[c]
            raw = (
                self._pm_idle[c]
                + self._pm_dyn[c] * fc * (self._pm_floor[c] + (1.0 - self._pm_floor[c]) * uc)
                + self._pm_quad[c] * df * df
            )
            gpu_power[:, g] = (np.maximum(raw + nvml[:, g], 0.0) * 1e3) / 1e3
        gpu_sum: np.ndarray | None = None
        for g in range(n_gpus):
            col = gpu_power[:, g]
            gpu_sum = col if gpu_sum is None else gpu_sum + col

        # RAPL window power since the previous observation (frozen-counter
        # holdover included), truncating the float counter like the sysfs read.
        now_uj = self._rapl_energy.astype(np.int64)
        d_uj = now_uj - self._rapl_anchor_uj
        d_uj = np.where(d_uj < 0, d_uj + self._rapl_range_uj, d_uj)
        dt_win = self.time_s - self._rapl_anchor_t
        if dt_win > 0:
            hold = (d_uj == 0) & self._has_last_cpu
            computed = microjoules_to_joules_array(d_uj) / dt_win
            cpu_power = np.where(hold, self._last_cpu_power, computed)
            fresh = ~hold
            self._last_cpu_power = np.where(fresh, cpu_power, self._last_cpu_power)
            self._has_last_cpu = self._has_last_cpu | fresh
        else:
            cpu_power = np.full(n, np.nan)
        self._rapl_anchor_uj = now_uj
        self._rapl_anchor_t = self.time_s

        finite = np.isfinite(cpu_power) & np.isfinite(gpu_sum)
        power_alt = np.where(
            finite, cpu_power + gpu_sum + self._platform_overhead_w, np.nan
        )

        # The degradation ladder per server.
        has = count > 0
        alt_ok = np.isfinite(power_alt)
        power = np.where(
            has,
            mean_power,
            np.where(
                alt_ok,
                power_alt,
                np.where(self._has_last_good, self._last_good_power, np.nan),
            ),
        )
        src_code = np.where(
            has,
            0.0,
            np.where(alt_ok, 1.0, np.where(self._has_last_good, 2.0, 3.0)),
        )
        self._stale_periods = np.where(has, 0, self._stale_periods + 1)
        self._last_good_power = np.where(has, power, self._last_good_power)
        self._has_last_good = self._has_last_good | has

        # Actuator read-back: tick-averaged applied frequency per channel.
        if self._applied_ticks:
            f_applied = self._applied_sum / self._applied_ticks
            self._applied_sum = np.zeros((n, n_chan), dtype=np.float64)
            self._applied_ticks = 0
        else:
            f_applied = self._tgt.copy()
        if self._last_commanded is not None:
            act_err = f_applied - self._last_commanded
        else:
            act_err = np.full((n, n_chan), np.nan)

        # One real controller step per server, fed a per-server observation.
        cpu_channels = (0,)
        gpu_channels = tuple(range(1, n_chan))
        new_targets = np.empty((n, n_chan), dtype=np.float64)
        t0 = time.perf_counter()  # repro-lint: disable=REP101 -- ctl_ms is timing telemetry, excluded from digests (runner.TIMING_KEYS)
        for i in range(n):
            controller = self.controllers[i]
            obs = ControlObservation(
                period_index=self.period_index,
                time_s=self.time_s,
                power_w=float(power[i]),
                power_samples_w=samples[i, keep[i]],
                set_point_w=float(self._set_point[i]),
                f_targets_mhz=self._tgt[i].copy(),
                f_applied_mhz=f_applied[i],
                f_min_mhz=self._f_min.copy(),
                f_max_mhz=self._f_max.copy(),
                utilization=util[i],
                throughput_norm=tput_norm[i],
                throughput_raw=tput_raw[i],
                cpu_channels=cpu_channels,
                gpu_channels=gpu_channels,
                slos_s={},
                cpu_power_w=float(cpu_power[i]),
                gpu_power_w=gpu_power[i],
                power_source=POWER_SOURCES[int(src_code[i])],
                power_alt_w=float(power_alt[i]),
                fresh_samples=int(count[i]),
                stale_periods=int(self._stale_periods[i]),
                actuation_error_mhz=act_err[i],
            )
            targets = controller.step(obs)
            controller.batch_commands(obs)  # static load is batch-agnostic
            new_targets[i] = np.asarray(targets, dtype=np.float64)
            self._safe_mode[i] = float(bool(getattr(controller, "in_safe_mode", False)))
        self._last_ctl_ms = seconds_to_milliseconds(
            time.perf_counter() - t0  # repro-lint: disable=REP101 -- same timing window as t0 above
        )
        self._last_commanded = new_targets.copy()
        self._stage_targets(new_targets)

        self._record_period(
            power, pminmax, src_code, count, util, tput_raw, tput_norm, f_applied
        )
        self.period_index += 1

    def _record_period(
        self,
        power: np.ndarray,
        pminmax: np.ndarray,
        src_code: np.ndarray,
        count: np.ndarray,
        util: np.ndarray,
        tput_raw: np.ndarray,
        tput_norm: np.ndarray,
        f_applied: np.ndarray,
    ) -> None:
        n = len(self.specs)
        row = self._history.next_row()
        ix = self._chan_index
        row[:, ix["time_s"]] = self.time_s
        row[:, ix["period"]] = float(self.period_index)
        row[:, ix["set_point_w"]] = self._set_point
        row[:, ix["power_w"]] = power
        row[:, ix["power_min_w"]] = pminmax[0]
        row[:, ix["power_max_w"]] = pminmax[1]
        row[:, ix["ctl_ms"]] = self._last_ctl_ms
        row[:, ix["true_power_w"]] = self._true_power_sum / self._true_power_ticks
        self._true_power_sum = np.zeros(n, dtype=np.float64)
        self._true_power_ticks = 0
        row[:, ix["power_src"]] = src_code
        row[:, ix["fresh_samples"]] = count.astype(np.float64)
        row[:, ix["safe_mode"]] = self._safe_mode
        for c in range(self.n_channels):
            row[:, ix[f"f_tgt_{c}"]] = self._tgt[:, c]
            row[:, ix[f"f_app_{c}"]] = f_applied[:, c]
            row[:, ix[f"util_{c}"]] = util[:, c]
            row[:, ix[f"tput_{c}"]] = tput_raw[:, c]
            row[:, ix[f"tput_norm_{c}"]] = tput_norm[:, c]
        # Latency channels stay NaN: the static-load law reports no
        # per-batch latencies (matching its scalar twin), and no SLOs or
        # feature-selection workload exist on the SoA path.
        row[:, ix["cpu_tput"]] = tput_raw[:, 0]
