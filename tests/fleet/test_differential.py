"""Differential proof of the fleet engine.

Three layers of bit-for-bit equivalence, each pinned by canonical digests
(timing channels excluded, everything else exact):

1. a one-rack :class:`FleetSimulation` on the reference backend vs a
   literal transcription of the original rack loop (the *oracle* below) —
   the fleet refactor changed no floats;
2. the structure-of-arrays backend vs the reference backend (N scalar
   engines) on every SoA-capable registered scenario;
3. ``snapshot()``/``restore()`` mid-run vs an uninterrupted run.

Fault-injection scenarios run under the ``chaos`` marker; the 256-server
smoke runs under ``fleet_smoke`` (both off by default, on in CI's
fleet-equivalence job).
"""

import numpy as np
import pytest

from repro.fleet import FleetSimulation, ReferenceBackend
from repro.fleet.scenarios import FLEET_SCENARIOS, fleet_scenario
from repro.telemetry.trace import Trace
from tests.golden.regen import fleet_digests
from tests.golden.regen import trace_digest as digest

SOA_SCENARIOS = sorted(n for n, s in FLEET_SCENARIOS.items() if s.soa_capable)


# -- the oracle: the original rack loop, verbatim ----------------------------


class OracleRack:
    """Literal transcription of the original rack simulation loop (before
    racks became one-rack :class:`FleetSimulation` runs), kept here as the
    fixed point the refactor is differenced against. Operates on the same
    ``FleetServer`` construction but steps and records with the old loop's
    own code — including its interleaved set-budget-then-run order and its
    old trace layout (no ``alloc_ms`` channel)."""

    def __init__(self, servers, allocator, rack_budget_w, periods_per_rack_period):
        self.servers = list(servers)
        self.allocator = allocator
        self.rack_budget_w = rack_budget_w
        self.periods_per_rack_period = periods_per_rack_period
        self._started = {s.name: False for s in self.servers}
        channels = ["rack_period", "budget_w", "total_power_w"]
        for s in self.servers:
            channels += [f"budget_{s.name}", f"power_{s.name}", f"demand_{s.name}"]
        self.trace = Trace(channels)
        self.rack_period = 0

    def _state(self, server):
        from repro.cluster.allocator import ServerPowerState

        lo, hi = server.sim.server.power_envelope_w(utilization=1.0)
        trace = server.sim.trace
        if len(trace) > 0:
            power = trace.last("power_w")
            pressure = [
                max(trace.last(f"util_{c}") - trace.last(f"tput_norm_{c}"), 0.0)
                for c in server.sim.gpu_channels
            ]
            demand = float(np.clip(np.mean(pressure), 0.0, 1.0))
        else:
            power = float("nan")
            demand = 1.0
        return ServerPowerState(
            name=server.name, power_w=power, p_min_w=lo, p_max_w=hi,
            demand=demand, priority=server.priority,
        )

    def run(self, n_rack_periods):
        for _ in range(n_rack_periods):
            states = [self._state(s) for s in self.servers]
            budgets = self.allocator.allocate(self.rack_budget_w, states)
            for server, budget in zip(self.servers, budgets):
                server.sim.set_point_w = budget
                server.sim.run(
                    server.controller,
                    self.periods_per_rack_period,
                    apply_initial_targets=not self._started[server.name],
                )
                self._started[server.name] = True
            row = {
                "rack_period": float(self.rack_period),
                "budget_w": self.rack_budget_w,
            }
            total = 0.0
            for server, budget, state in zip(self.servers, budgets, states):
                power = server.sim.trace.last("power_w")
                total += power
                row[f"budget_{server.name}"] = budget
                row[f"power_{server.name}"] = power
                row[f"demand_{server.name}"] = state.demand
            row["total_power_w"] = total
            self.trace.append(**row)
            self.rack_period += 1
        return self.trace


def run_oracle(scenario, n_rounds):
    oracle = OracleRack(
        scenario.servers(),
        scenario.allocation(),
        scenario.budget_w(),
        scenario.periods_per_rack_period,
    )
    oracle.run(n_rounds)
    return oracle


# -- layer 1: a one-rack fleet reproduces the old rack loop ------------------


def rack_fleet(scenario):
    """The scenario as one rack: scalar servers under its flat allocator."""
    return FleetSimulation(
        ReferenceBackend(scenario.servers()),
        budget_w=scenario.budget_w(),
        allocation=scenario.allocation(),
        periods_per_rack_period=scenario.periods_per_rack_period,
    )


def assert_rack_matches_oracle(scenario, n_rounds):
    oracle = run_oracle(scenario, n_rounds)
    rack = rack_fleet(scenario)
    rack.run(n_rounds)
    assert digest(rack.trace) == digest(oracle.trace)
    for i, server in enumerate(oracle.servers):
        assert digest(rack.backend.server_trace(i)) == digest(server.sim.trace)
    return rack


@pytest.mark.parametrize(
    "name", ["fair-static", "demand-static", "priority-static", "paper-rack"]
)
def test_rack_shim_matches_oracle(name):
    assert_rack_matches_oracle(fleet_scenario(name), n_rounds=3)


@pytest.mark.chaos
def test_chaos_rack_shim_matches_oracle():
    """Fault-injected servers (meter dropout + freeze) as a one-rack fleet."""
    # Five rounds: long enough that both fault windows open and close.
    rack = assert_rack_matches_oracle(fleet_scenario("chaos-rack"), n_rounds=5)
    # The faults actually fired: some periods lost all meter samples.
    fresh = rack.backend.server_trace(0)["fresh_samples"]
    assert (fresh == 0.0).any()


# -- layer 2: the SoA backend reproduces the reference backend ---------------


@pytest.mark.parametrize("name", SOA_SCENARIOS)
def test_soa_matches_reference(name):
    scenario = fleet_scenario(name)
    n = min(scenario.n_servers, 8)
    ref = scenario.build_fleet("reference", n_servers=n)
    soa = scenario.build_fleet("soa", n_servers=n)
    for fleet in (ref, soa):
        fleet.run(2)
        fleet.set_budget(fleet.budget_w * 0.97)  # mid-run budget change
        fleet.run(2)
    assert fleet_digests(ref) == fleet_digests(soa)


def test_soa_trace_channels_match_engine_layout():
    scenario = fleet_scenario("fair-static")
    ref = scenario.build_fleet("reference", n_servers=2)
    soa = scenario.build_fleet("soa", n_servers=2)
    ref.run(1)
    soa.run(1)
    assert tuple(soa.backend.server_trace(0).channels) == tuple(
        ref.backend.server_trace(0).channels
    )


# -- layer 3: snapshot/restore mid-run ---------------------------------------


@pytest.mark.parametrize("backend", ["reference", "soa"])
def test_snapshot_restore_mid_run(backend):
    scenario = fleet_scenario("tree-static")
    n = 8
    straight = scenario.build_fleet(backend, n_servers=n)
    straight.run(4)

    first = scenario.build_fleet(backend, n_servers=n)
    first.run(2)
    blob = first.snapshot()
    first.run(2)  # keep running after the snapshot: capture must not disturb

    resumed = scenario.build_fleet(backend, n_servers=n)
    resumed.restore(blob)
    resumed.run(2)

    want = fleet_digests(straight)
    assert fleet_digests(first) == want
    assert fleet_digests(resumed) == want


# -- at scale ----------------------------------------------------------------


@pytest.mark.fleet_smoke
def test_soa_matches_reference_at_64_servers():
    """Bit identity at scale: 64 servers, two budget rounds."""
    scenario = fleet_scenario("tree-static")
    ref = scenario.build_fleet("reference", n_servers=64)
    soa = scenario.build_fleet("soa", n_servers=64)
    ref.run(2)
    soa.run(2)
    assert fleet_digests(soa) == fleet_digests(ref)


@pytest.mark.fleet_smoke
def test_soa_smoke_256_servers():
    """One budget round over 256 servers: sane powers, conserved budget."""
    scenario = fleet_scenario("tree-static")
    fleet = scenario.build_fleet("soa", n_servers=256)
    fleet.run(2)
    powers = np.asarray(fleet.backend.last_powers())
    assert powers.shape == (256,)
    assert np.isfinite(powers).all()
    lo, hi = 0.25 * 600.0, 1.5 * 1500.0  # generous plausibility band
    assert ((powers > lo) & (powers < hi)).all()
    budgets = [
        fleet.trace.last(f"budget_{name}") for name in fleet.backend.names
    ]
    assert sum(budgets) <= fleet.budget_w + 1e-6
    assert fleet.trace.last("total_power_w") == pytest.approx(
        float(powers.sum())
    )
