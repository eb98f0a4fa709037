"""Which public functions of the program the traced run wraps, by layer.

Each wrapped call becomes a span named after its layer; several functions
may share one span name (the meter's ``accumulate`` and ``samples_since``
are both ``telemetry.meter``). :data:`LAYER_METRICS` then turns the spans
into the per-layer metrics: ``*_s`` is self time, ``*_calls`` a call count.
Hot functions that wrap no other traced function are marked ``leaf`` and
recorded as one aggregate span per parent (see :mod:`tracer`).
The benchmark's own files install every wrapper; the program is not edited.
"""

from __future__ import annotations

import os

__all__ = ["install", "LAYER_METRICS"]

#: metric name -> (kind, span names). kind "self" sums self time in
#: seconds; kind "calls" counts spans.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    # Scalar plant and controller (paper-fig6).
    "workloads.pipeline_s": ("self", ("workloads.pipeline",)),
    "workloads.pipeline_calls": ("calls", ("workloads.pipeline",)),
    "workloads.fs_s": ("self", ("workloads.fs",)),
    "hardware.step_s": ("self", ("hardware.step",)),
    "hardware.step_calls": ("calls", ("hardware.step",)),
    "telemetry.meter_s": ("self", ("telemetry.meter",)),
    "telemetry.rapl_s": ("self", ("telemetry.rapl",)),
    "actuators.tick_s": ("self", ("actuators",)),
    "sim.self_s": ("self", ("sim",)),
    "core.step_s": ("self", ("core.step",)),
    "core.step_calls": ("calls", ("core.step",)),
    "core.slsqp_s": ("self", ("core.slsqp",)),
    "core.slsqp_calls": ("calls", ("core.slsqp",)),
    "control.step_s": ("self", ("control.step", "control.fixed_step")),
    "control.fixed_step_calls": ("calls", ("control.fixed_step",)),
    "experiments.self_s": ("self", ("experiments",)),
    # Fleet kernel and allocator (both twin workloads).
    "fleet.run_periods_s": ("self", ("fleet.run_periods",)),
    "fast.run_periods_s": ("self", ("fast.run_periods",)),
    "fleet.allocate_s": ("self", ("fleet.allocate",)),
    "fleet.allocate_calls": ("calls", ("fleet.allocate",)),
    # Twin service (twin-stream, twin-whatif).
    "equiv.compare_s": ("self", ("equiv.compare",)),
    "service.shadow.advance_deployed_s": ("self", ("service.shadow.advance.deployed",)),
    "service.shadow.advance_shadow_s": ("self", ("service.shadow.advance.shadow",)),
    "service.shadow.summary_s": ("self", ("service.shadow.summary",)),
    "service.shadow.build_s": ("self", ("service.shadow.build",)),
    "service.core.feed_s": ("self", ("service.core.feed",)),
    "service.core.whatif_s": ("self", ("service.core.whatif",)),
    "service.journal.append_s": ("self", ("service.journal.append",)),
    "checkpoint.blob_s": ("self", ("checkpoint.blob",)),
    "service.events.parse_s": ("self", ("service.events.parse",)),
    "service.windows.add_s": ("self", ("service.windows.add",)),
    "service.http.serve_s": ("self", ("service.http.serve",)),
    "loadgen.client_s": ("self", ("loadgen.read", "loadgen.whatif")),
}



def install(tracer, deployed_scenario: str) -> None:
    """Wrap every layer boundary listed in :data:`LAYER_METRICS`.

    ``deployed_scenario`` tells the deployed twin from its shadows: the
    deployed twin is the one on that scenario at full budget on the
    reference engine.
    """
    from repro.actuators.actuator import ServerActuator
    from repro.control.cpu_plus_gpu import CpuPlusGpuController
    from repro.control.fixed_step import FixedStepController, SafeFixedStepController
    from repro.control.proportional import GroupProportionalController
    from repro.control.watchdog import SafeModeWatchdog
    from repro.core import mpc
    from repro.core.controller import CapGpuController
    from repro.experiments import registry
    from repro.fast.fleet import FastFleetBackend
    from repro.fleet.soa import SoaFleetBackend
    from repro.fleet.tree import BudgetTree
    from repro.hardware.server import GpuServer
    from repro.service import core as service_core
    from repro.service import events, http
    from repro.service.core import DigitalTwinService
    from repro.service.journal import ServiceJournal
    from repro.service.shadow import TwinRunner
    from repro.service.windows import WindowManager
    from repro.sim.engine import ServerSimulation
    from repro.sysid import identify_power_model
    from repro.telemetry.power_meter import AcpiPowerMeter
    from repro.telemetry.rapl import RaplWindowReader, SimulatedRapl
    from repro.workloads.feature_selection import FeatureSelectionWorkload
    from repro.workloads.pipeline import InferencePipeline

    method = tracer.wrap_method
    method(InferencePipeline, "step", "workloads.pipeline", leaf=True)
    method(FeatureSelectionWorkload, "step", "workloads.fs", leaf=True)
    method(GpuServer, "step_all", "hardware.step", leaf=True)
    method(AcpiPowerMeter, "accumulate", "telemetry.meter", leaf=True)
    method(AcpiPowerMeter, "samples_since", "telemetry.meter", leaf=True)
    method(SimulatedRapl, "accumulate", "telemetry.rapl", leaf=True)
    method(RaplWindowReader, "read_power_w", "telemetry.rapl", leaf=True)
    method(ServerActuator, "tick", "actuators", leaf=True)
    method(ServerActuator, "set_targets", "actuators", leaf=True)
    method(ServerSimulation, "run", "sim")
    method(ServerSimulation, "run_open_loop", "sim")
    method(CapGpuController, "step", "core.step")
    for cls in (SafeFixedStepController, GroupProportionalController, CpuPlusGpuController, SafeModeWatchdog):
        method(cls, "step", "control.step")
    method(FixedStepController, "step", "control.fixed_step", leaf=True)

    def slsqp_result(args, result) -> None:
        tracer.count("core.slsqp_iters", getattr(result, "nit", 0))
        tracer.count("core.slsqp_failed", 0 if getattr(result, "success", True) else 1)

    tracer.wrap_function(mpc.minimize, "core.slsqp", after=slsqp_result, leaf=True)
    tracer.wrap_function(registry.run_experiment, "experiments")
    tracer.wrap_function(identify_power_model, "sysid.identify")

    method(SoaFleetBackend, "run_periods", lambda backend: "fast.run_periods" if isinstance(backend, FastFleetBackend) else "fleet.run_periods")
    method(BudgetTree, "allocate", "fleet.allocate", leaf=True)

    def advance_name(runner) -> str:
        deployed = (runner.scenario, runner.budget_frac, runner.engine) == (deployed_scenario, 1.0, "reference")
        return "service.shadow.advance.deployed" if deployed else "service.shadow.advance.shadow"

    method(TwinRunner, "advance", advance_name)
    method(TwinRunner, "equiv_vs", "equiv.compare")
    method(TwinRunner, "summary", "service.shadow.summary")
    method(TwinRunner, "__init__", "service.shadow.build")
    method(DigitalTwinService, "feed_line", "service.core.feed")
    method(ServiceJournal, "append_window", "service.journal.append")
    method(WindowManager, "add", "service.windows.add", leaf=True)
    for attr in ("snapshot", "windows_payload", "whatif_payload"):
        method(DigitalTwinService, attr, "service.http.serve", adopt=True)
    tracer.wrap_function(http.render_metrics, "service.http.serve", adopt=True)
    tracer.wrap_function(service_core.offline_whatif, "service.core.whatif")
    tracer.wrap_function(events.parse_event, "service.events.parse", leaf=True)

    def blob_bytes(args, result) -> None:
        tracer.count("checkpoint.blob_bytes", os.path.getsize(args[0]))

    tracer.wrap_function(service_core.save_blob, "checkpoint.blob", after=blob_bytes)
