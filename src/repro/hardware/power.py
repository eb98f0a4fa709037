"""Ground-truth power models for the simulated testbed.

The paper's controller assumes power is *linear* in frequency (Eq. 3) and
reports that system identification achieves R^2 ~= 0.96 — good but not
perfect. Our ground truth therefore is *mostly* linear with two deliberate
deviations the controller does not model:

* a utilization term — dynamic power scales with how busy the device is,
  so workload phase changes look like gain changes to the controller
  (this is exactly the robustness scenario of Section 4.4); and
* a small quadratic term — real V(f) curves bend upward at high clocks.

Measurement noise lives in the sensors (:mod:`repro.telemetry`), not here;
this module is deterministic given (frequency, utilization).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..rng import BlockSampler
from ..units import require_non_negative

__all__ = ["DevicePowerModel", "Ar1Noise"]


@dataclass(frozen=True)
class DevicePowerModel:
    """Power model ``p(f, u) = idle + dyn*f*(floor + (1-floor)*u) + quad*(f-f_ref)^2``.

    Parameters
    ----------
    idle_w:
        Power at zero dynamic activity (leakage, memory refresh, fans on the
        card, ...). Drawn regardless of frequency.
    dyn_w_per_mhz:
        Dynamic power slope in W/MHz at full utilization.
    util_floor:
        Fraction of the dynamic power drawn even when idle at a given clock
        (clock tree, uncore). ``0 <= util_floor <= 1``.
    quad_w_per_mhz2:
        Small super-linear coefficient; applied to ``(f - f_ref_mhz)^2``.
    f_ref_mhz:
        Reference frequency for the quadratic term (usually the domain
        minimum, so the model is exactly linear at ``f_ref``).
    """

    idle_w: float
    dyn_w_per_mhz: float
    util_floor: float = 0.3
    quad_w_per_mhz2: float = 0.0
    f_ref_mhz: float = 0.0

    def __post_init__(self):
        require_non_negative(self.idle_w, "idle_w")
        require_non_negative(self.dyn_w_per_mhz, "dyn_w_per_mhz")
        require_non_negative(self.quad_w_per_mhz2, "quad_w_per_mhz2")
        require_non_negative(self.f_ref_mhz, "f_ref_mhz")
        if not 0.0 <= self.util_floor <= 1.0:
            raise ConfigurationError(
                f"util_floor must be in [0, 1], got {self.util_floor}"
            )

    def power_w(self, f_mhz: float, utilization: float) -> float:
        """Evaluate the model at frequency ``f_mhz`` and busy fraction ``utilization``."""
        u = min(max(float(utilization), 0.0), 1.0)
        activity = self.util_floor + (1.0 - self.util_floor) * u
        df = f_mhz - self.f_ref_mhz
        return (
            self.idle_w
            + self.dyn_w_per_mhz * f_mhz * activity
            + self.quad_w_per_mhz2 * df * df
        )

    def gain_w_per_mhz(self, utilization: float = 1.0) -> float:
        """Local linear gain dP/df at the reference frequency.

        This is (approximately) the entry of the paper's ``A`` matrix the
        controller identifies for this device under the given utilization.
        """
        u = min(max(float(utilization), 0.0), 1.0)
        activity = self.util_floor + (1.0 - self.util_floor) * u
        return self.dyn_w_per_mhz * activity

    def span_w(self, f_min_mhz: float, f_max_mhz: float, utilization: float = 1.0) -> float:
        """Controllable power range between two frequencies at fixed utilization."""
        return self.power_w(f_max_mhz, utilization) - self.power_w(f_min_mhz, utilization)


class Ar1Noise:
    """First-order autoregressive Gaussian noise, ``n(t) = rho*n(t-1) + w(t)``.

    Server power fluctuates with correlated disturbances (VRM regulation,
    background OS activity), not white noise. ``sigma_w`` is the innovation
    standard deviation; the stationary standard deviation is
    ``sigma_w / sqrt(1 - rho^2)``.
    """

    def __init__(self, sigma_w: float, rho: float, rng):
        require_non_negative(sigma_w, "sigma_w")
        if not 0.0 <= rho < 1.0:
            raise ConfigurationError(f"rho must be in [0, 1), got {rho}")
        self._sigma = float(sigma_w)
        self._rho = float(rho)
        self._state = 0.0
        # Innovations are pre-drawn in blocks: generator batch draws consume
        # the bit stream exactly like repeated scalar draws, so samples are
        # those of ``rng.normal(0, sigma)`` one call at a time.
        self._sampler = BlockSampler(rng, "normal", (0.0, self._sigma))

    @property
    def stationary_std(self) -> float:
        """Standard deviation of the stationary process."""
        return self._sigma / (1.0 - self._rho**2) ** 0.5

    def sample(self) -> float:
        """Advance one step and return the current noise value (watts)."""
        self._state = self._rho * self._state + self._sampler.next()
        return self._state

    def reset(self) -> None:
        """Return to the zero state (start of an experiment)."""
        self._state = 0.0
