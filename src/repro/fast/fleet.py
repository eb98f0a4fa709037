"""Relaxed-semantics fleet backend: controller banks on the SoA kernel.

:class:`FastFleetBackend` subclasses the bit-identical
:class:`~repro.fleet.soa.SoaFleetBackend` and inherits its tick-block
kernel unchanged, so plant, workloads, meter and RAPL advance exactly as in
the reference transcription. Only the once-per-period work is relaxed:

* **fused sample statistics** — meter-window means and GPU board sums use
  ``ndarray.mean``/``ndarray.sum`` over whole axes instead of the scalar
  engine's column-sequential accumulation (the property the reference
  transcription must preserve and this engine is sanctioned to break — see
  REP2xx sanctioning in ``repro.lint``);
* **vectorized controller banks** — homogeneous fixed-step/safe-fixed-step
  fleets step as array programs (no per-server Python controller objects in
  the loop), and MPC fleets evaluate the process-global pre-solved gain
  cache of :class:`~repro.fast.mpc.FastMimoPowerMpc` with one matmul for
  the whole fleet per control period.

RNG streams are untouched: each server consumes exactly the same
per-server noise draws as its reference twin, so fast-vs-reference
differences come only from float reassociation in those statistics and the
analytic (projected) MPC solve. ``repro.equiv`` bounds those differences
statistically.

Supported fleets are the SoA-capable ones with ``fixed-step``/
``safe-fixed-step`` (mixed freely) or ``mpc`` controllers; anything else
should run on the ``soa`` or ``reference`` backends, which accept arbitrary
controller objects.
"""

from __future__ import annotations

import time

import numpy as np

from ..control.fixed_step import CPU_STEP_MHZ, GPU_STEP_MHZ, _UTIL_TIE_TOL
from ..core.mpc import MpcConfig
from ..core.weights import WeightAssigner
from ..errors import ConfigurationError
from ..fleet.soa import (
    _FREEZE_DETECT_SAMPLES,
    DEFAULT_GPU_SPECS,
    SoaFleetBackend,
    SoaServerSpec,
    fleet_identified_model,
)
from ..sim.engine import SimConfig
from ..units import microjoules_to_joules_array, seconds_to_milliseconds
from ..workloads.static import StaticLoadSpec
from .mpc import FastMimoPowerMpc

__all__ = ["FastFleetBackend"]

#: Controller kinds the vectorized banks cover.
_FIXED_STEP_KINDS = frozenset({"fixed-step", "safe-fixed-step"})


class FastFleetBackend(SoaFleetBackend):
    """The fast fleet: the SoA kernel with relaxed per-period control."""

    def __init__(
        self,
        specs: list[SoaServerSpec],
        gpu_specs: tuple[StaticLoadSpec, ...] = DEFAULT_GPU_SPECS,
        config: SimConfig = SimConfig(),
    ):
        kinds = {s.controller for s in specs}
        if kinds == {"mpc"}:
            self._bank = "mpc"
        elif kinds <= _FIXED_STEP_KINDS:
            self._bank = "fixed-step"
        else:
            raise ConfigurationError(
                f"fast backend supports fixed-step/safe-fixed-step or all-mpc "
                f"fleets, got controllers {sorted(kinds)}; run mixed or custom "
                f"fleets on the 'soa' or 'reference' backend"
            )
        super().__init__(specs, gpu_specs, config)
        n = len(specs)
        n_chan = self.n_channels

        if self._bank == "mpc":
            # One shared solver + one (a, r) cache entry for the whole
            # fleet: uniform penalty weights and the shared identified model
            # make the MPC matrices constant across servers and periods.
            model = fleet_identified_model()
            self._mpc = FastMimoPowerMpc(n_chan, MpcConfig())
            self._mpc_a = np.ascontiguousarray(model.a_w_per_mhz, dtype=np.float64)
            self._mpc_r = np.full(n_chan, WeightAssigner(mode="uniform").r_scale, dtype=np.float64)
        else:
            self._fs_step = np.array([float(s.step_size) for s in specs])
            self._fs_deadband = np.array([s.deadband_w for s in specs])
            self._fs_margin = np.array(
                [s.safety_margin_w if s.controller == "safe-fixed-step" else 0.0 for s in specs]
            )
            self._fs_rr = np.zeros(n, dtype=np.int64)
            self._fs_step_base = np.where(np.arange(n_chan) == 0, CPU_STEP_MHZ, GPU_STEP_MHZ)

    def _filter_samples(
        self, samples: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The staleness/plausibility/freeze filter with fused window means."""
        n, spp = samples.shape
        previous = np.concatenate([self._last_sample_w[:, None], samples[:, :-1]], axis=1)
        eq = samples == previous
        run = self._freeze_run
        for j in range(spp):  # run length has a true sequential dependency
            run = np.where(eq[:, j], run + 1, 0)
        self._freeze_run = run
        self._last_sample_w = samples[:, -1].copy()
        keep = (
            np.isfinite(samples)
            & (samples >= self._plausible_lo_w)
            & (samples <= self._plausible_hi_w)
        )
        if self.config.meter_noise_sigma_w > 0:
            keep[run >= _FREEZE_DETECT_SAMPLES, :] = False
        count = keep.sum(axis=1)
        has = count > 0
        kept_sum = np.where(keep, samples, 0.0).sum(axis=1)
        mean = np.where(
            count == spp,
            samples.mean(axis=1),
            np.where(has, kept_sum / np.maximum(count, 1), np.nan),
        )
        masked_hi = np.where(keep, samples, -np.inf)
        masked_lo = np.where(keep, samples, np.inf)
        pmax = np.where(has, masked_hi.max(axis=1), np.nan)
        pmin = np.where(has, masked_lo.min(axis=1), np.nan)
        return keep, count, mean, np.stack([pmin, pmax])

    def _observe_and_control(self, samples: np.ndarray) -> None:
        n = len(self.specs)
        n_chan = self.n_channels
        n_gpus = self.n_gpus

        elapsed = self._acc_elapsed
        tput_raw = self._tput_acc / elapsed
        self._max_seen = np.maximum(self._max_seen, tput_raw)
        max_seen = self._max_seen
        safe_den = np.where(max_seen > 0, max_seen, 1.0)
        tput_norm = np.where(max_seen > 0, np.minimum(tput_raw / safe_den, 1.0), 0.0)
        util = np.minimum(self._util_acc / elapsed, 1.0)
        self._tput_acc = np.zeros((n, n_chan), dtype=np.float64)
        self._util_acc = np.zeros((n, n_chan), dtype=np.float64)
        self._acc_elapsed = 0.0

        _keep, count, mean_power, pminmax = self._filter_samples(samples)

        # NVML board powers, fused across GPUs (same per-element round trips).
        nvml = np.array([s.take(n_gpus) for s in self._nvml_noise])
        ug = np.minimum(np.maximum(self._u[:, 1:], 0.0), 1.0)
        fg = self._f[:, 1:]
        dfg = fg - self._pm_fref[1:]
        raw = (
            self._pm_idle[1:]
            + self._pm_dyn[1:] * fg * (self._pm_floor[1:] + (1.0 - self._pm_floor[1:]) * ug)
            + self._pm_quad[1:] * dfg * dfg
        )
        gpu_power = (np.maximum(raw + nvml, 0.0) * 1e3) / 1e3
        gpu_sum = gpu_power.sum(axis=1)

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
        power_alt = np.where(finite, cpu_power + gpu_sum + self._platform_overhead_w, np.nan)

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

        if self._applied_ticks:
            f_applied = self._applied_sum / self._applied_ticks
            self._applied_sum = np.zeros((n, n_chan), dtype=np.float64)
            self._applied_ticks = 0
        else:
            f_applied = self._tgt.copy()

        # Controller bank: the whole fleet's next targets as one array
        # program — no per-server Python controller steps.
        t0 = time.perf_counter()  # repro-lint: disable=REP101 -- ctl_ms is timing telemetry, excluded from digests (runner.TIMING_KEYS)
        if self._bank == "mpc":
            new_targets = self._mpc_bank_targets(power, util)
        else:
            new_targets = self._fixed_step_bank_targets(power, util)
        self._last_ctl_ms = seconds_to_milliseconds(
            time.perf_counter() - t0  # repro-lint: disable=REP101 -- same timing window as t0 above
        )
        self._last_commanded = new_targets.copy()
        self._stage_targets(new_targets)

        self._record_period(power, pminmax, src_code, count, util, tput_raw, tput_norm, f_applied)
        self.period_index += 1

    # -- controller banks ----------------------------------------------------

    def _mpc_bank_targets(self, power: np.ndarray, util: np.ndarray) -> np.ndarray:
        """One batched pre-solved-gain MPC evaluation for the whole fleet."""
        floors = self._f_min
        f_now = np.clip(self._tgt, floors, self._f_max)
        errors = power - self._set_point
        d0 = self._mpc.batch_first_moves(
            errors, f_now, self._mpc_a, self._mpc_r, floors, self._f_max
        )
        return f_now + d0

    def _fixed_step_bank_targets(self, power: np.ndarray, util: np.ndarray) -> np.ndarray:
        """Vectorized fixed-step / safe-fixed-step (margin-shifted) fleet."""
        targets = self._tgt.copy()
        err = (self._set_point - self._fs_margin) - power
        # Scalar guard is `abs(err) <= deadband: hold`, so a NaN error falls
        # through and moves (direction -1); negate the hold test to match.
        active = ~(np.abs(err) <= self._fs_deadband)
        raise_f = err > 0

        up_movable = targets < self._f_max - 1e-9
        down_movable = targets > self._f_min + 1e-9
        movable = np.where(raise_f[:, None], up_movable, down_movable)
        has_movable = movable.any(axis=1)

        best_up = np.where(movable, util, -np.inf).max(axis=1)
        best_down = np.where(movable, util, np.inf).min(axis=1)
        best = np.where(raise_f, best_up, best_down)
        tied = movable & (np.abs(util - best[:, None]) <= _UTIL_TIE_TOL)
        n_tied = np.maximum(tied.sum(axis=1), 1)

        move = active & has_movable
        pick = self._fs_rr % n_tied  # the scalar round-robin cursor, per server
        cum = np.cumsum(tied, axis=1)
        choice_mask = tied & (cum == (pick + 1)[:, None])
        channel = np.argmax(choice_mask, axis=1)
        self._fs_rr = np.where(move, self._fs_rr + 1, self._fs_rr)

        rows = np.nonzero(move)[0]
        cols = channel[rows]
        direction = np.where(raise_f[rows], 1.0, -1.0)
        delta = direction * self._fs_step_base[cols] * self._fs_step[rows]
        moved = np.clip(targets[rows, cols] + delta, self._f_min[cols], self._f_max[cols])
        targets[rows, cols] = moved
        return targets
