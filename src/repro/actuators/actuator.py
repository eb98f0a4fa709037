"""Per-channel and server-wide frequency actuation.

The actuation layer sits between controllers (which emit fractional targets
once per control period) and devices (which accept one discrete level per
simulation tick):

* :class:`ChannelActuator` owns the modulator for one device and applies one
  level per tick;
* :class:`ServerActuator` fans a target vector out to all channels, tracks
  the tick-averaged *applied* frequency per control period (what the
  controller's incremental model should see as ``F(k-1)``), and models a
  one-tick command latency: a target set during tick ``t`` first affects the
  level applied at tick ``t+1`` — like writing a sysfs file that the
  governor picks up on its next update.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..errors import ActuationError
from ..hardware.device import Device
from ..hardware.server import GpuServer
from .modulator import DeltaSigmaModulator, Modulator, NearestLevelModulator

__all__ = ["ChannelActuator", "ServerActuator"]


class ChannelActuator:
    """Actuates a single device through a modulator."""

    def __init__(self, device: Device, modulator: Modulator | None = None):
        self.device = device
        self.modulator = modulator if modulator is not None else DeltaSigmaModulator(device.domain)
        self._target_mhz = device.frequency_mhz
        self._pending_mhz: float | None = None

    @property
    def target_mhz(self) -> float:
        """Currently active (possibly fractional) target."""
        return self._target_mhz

    def set_target(self, f_mhz: float) -> None:
        """Stage a new fractional target (takes effect next tick)."""
        if not np.isfinite(f_mhz):
            raise ActuationError(f"{self.device.name}: non-finite target {f_mhz!r}")
        self._pending_mhz = self.device.domain.clamp(float(f_mhz))

    def tick(self) -> float:
        """Apply one modulated discrete level; returns the applied level."""
        if self._pending_mhz is not None:
            self._target_mhz = self._pending_mhz
            self._pending_mhz = None
        level = self.modulator.next_level(self._target_mhz)
        self.device.apply_frequency(level)
        return level

    def reset(self) -> None:
        """Clear modulator state and pending commands; target = current freq."""
        self.modulator.reset()
        self._pending_mhz = None
        self._target_mhz = self.device.frequency_mhz


class ServerActuator:
    """Vector actuation across all channels of a server.

    Parameters
    ----------
    server:
        The plant.
    modulator_factory:
        Callable ``FrequencyDomain -> Modulator``; defaults to the paper's
        delta-sigma modulator.
    """

    def __init__(self, server: GpuServer, modulator_factory=None):
        factory = modulator_factory if modulator_factory is not None else DeltaSigmaModulator
        self.server = server
        self.channels = [ChannelActuator(d, factory(d.domain)) for d in server.devices]
        n = len(self.channels)
        self._applied_sum = [0.0] * n
        self._applied_ticks = 0
        self._stale_targets = True
        # Batched per-tick rollout: eligible when every domain is an
        # exact-uniform grid (nearest-level snapping then reduces to index
        # arithmetic that reconstructs the very same float64 levels) and the
        # modulators are one of the two stock kinds. Custom modulators and
        # irregular grids keep the per-channel modulator path. State lives in
        # plain Python float lists, not numpy arrays: at the handful of
        # channels a server has, scalar IEEE arithmetic is both bit-identical
        # to the vector expressions and severalfold cheaper per tick.
        domains = [d.domain for d in server.devices]
        self._vec_mode: str | None = None
        if all(dom.uniform_pitch_mhz is not None for dom in domains):
            if modulator_factory is None or modulator_factory is DeltaSigmaModulator:
                self._vec_mode = "delta-sigma"
            elif modulator_factory is NearestLevelModulator:
                self._vec_mode = "nearest"
        if self._vec_mode is not None:
            self._f_min = [dom.f_min for dom in domains]
            self._f_max = [dom.f_max for dom in domains]
            self._grid_pitch = [dom.uniform_pitch_mhz for dom in domains]
            self._k_max = [float(dom.n_levels - 2) for dom in domains]
            self._tgt = [c.target_mhz for c in self.channels]
            self._applied_vec = [0.0] * n
            # Nearest-level modulation is stateless: the applied vector is a
            # pure function of the targets, recomputed only on promotion.
            self._applied_cache: list | None = None
            if self._vec_mode == "delta-sigma":
                # The anti-windup bound each DeltaSigmaModulator computed for
                # itself — read back so the clip is bitwise the scalar one.
                self._err_bound = [c.modulator._pitch for c in self.channels]
                self._err = [0.0] * n

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def targets(self) -> np.ndarray:
        """Vector of active targets in MHz."""
        return np.array([c.target_mhz for c in self.channels], dtype=np.float64)

    def set_targets(self, f_mhz: Sequence[float]) -> None:
        """Stage a full target vector (length must match channel count)."""
        arr = np.asarray(f_mhz, dtype=np.float64)
        if arr.shape != (len(self.channels),):
            raise ActuationError(
                f"expected {len(self.channels)} targets, got shape {arr.shape}"
            )
        for chan, f in zip(self.channels, arr):
            chan.set_target(float(f))
        self._stale_targets = True

    def set_target(self, channel: int, f_mhz: float) -> None:
        """Stage a target for one channel."""
        self.channels[channel].set_target(f_mhz)
        self._stale_targets = True

    def tick(self) -> None:
        """Advance all modulators one tick and apply their discrete levels.

        Returns ``None``: the applied levels are read back from the plant
        (``server.frequency_vector()`` or ``device.frequency_mhz``), never
        from an actuator buffer that the next tick overwrites.
        """
        if self._vec_mode is None:
            applied = [c.tick() for c in self.channels]
        else:
            applied = self._rollout()
            self.server.apply_frequency_levels(applied)
        s = self._applied_sum
        for i, a in enumerate(applied):
            s[i] += a
        self._applied_ticks += 1

    def _rollout(self) -> list[float]:
        """One batched tick: every channel's level, with modulator state
        advanced exactly as the per-channel modulators would advance it."""
        if self._stale_targets:
            # Promote pending commands (the one-tick latency) and refresh
            # the target vector; between control periods this is skipped.
            tgt = self._tgt
            for i, c in enumerate(self.channels):
                if c._pending_mhz is not None:
                    c._target_mhz = c._pending_mhz
                    c._pending_mhz = None
                tgt[i] = c._target_mhz
            self._stale_targets = False
            if self._vec_mode == "nearest":
                self._applied_cache = [
                    self._snap_to_level(t, i) for i, t in enumerate(self._tgt)
                ]
        if self._vec_mode == "nearest":
            # Stateless rounding: constant between target changes.
            return self._applied_cache
        # The delta-sigma rollout of DeltaSigmaModulator.next_level,
        # unrolled over channels with every float op in the modulator's
        # order — bitwise the same levels and error state. Targets are
        # already domain-clamped by set_target.
        floor = math.floor
        tgt = self._tgt
        err = self._err
        bound = self._err_bound
        f_min = self._f_min
        f_max = self._f_max
        pitch = self._grid_pitch
        k_max = self._k_max
        applied = self._applied_vec
        for i in range(len(applied)):
            desired = tgt[i] + err[i]
            lo = f_min[i]
            hi = f_max[i]
            clipped = lo if desired < lo else (hi if desired > hi else desired)
            p = pitch[i]
            k = floor((clipped - lo) / p)
            km = k_max[i]
            if k > km:
                k = km
            below = lo + p * k
            above = lo + p * (k + 1.0)
            level = below if (clipped - below) <= (above - clipped) else above
            applied[i] = level
            e = desired - level
            b = bound[i]
            err[i] = -b if e < -b else (b if e > b else e)
        return applied

    def _snap_to_level(self, desired: float, i: int) -> float:
        """Snap one desired frequency to channel ``i``'s nearest level.

        Exploits the exact-uniform grids: levels reconstruct as
        ``f_min + pitch*k`` bit-for-bit (checked at domain construction), and
        comparing both neighbours reproduces the modulator's searchsorted
        walk including its resolve-ties-down rule.
        """
        lo = self._f_min[i]
        hi = self._f_max[i]
        clipped = lo if desired < lo else (hi if desired > hi else desired)
        p = self._grid_pitch[i]
        k = math.floor((clipped - lo) / p)
        km = self._k_max[i]
        if k > km:
            k = km
        below = lo + p * k
        above = lo + p * (k + 1.0)
        return below if (clipped - below) <= (above - clipped) else above

    def applied_average_and_reset(self) -> np.ndarray:
        """Tick-averaged applied frequencies since the last call.

        This is the effective ``F(k-1)`` the plant actually experienced over
        the elapsed control period (the whole point of delta-sigma: the
        average, not any single level, tracks the fractional command).
        """
        if self._applied_ticks == 0:
            return self.targets()
        avg = np.array(self._applied_sum, dtype=np.float64) / self._applied_ticks
        self._applied_sum = [0.0] * len(self.channels)
        self._applied_ticks = 0
        return avg

    def reset(self) -> None:
        """Reset all channel actuators and the averaging window."""
        for c in self.channels:
            c.reset()
        self._applied_sum = [0.0] * len(self.channels)
        self._applied_ticks = 0
        self._stale_targets = True
        self._applied_cache = None
        if self._vec_mode == "delta-sigma":
            self._err = [0.0] * len(self.channels)
