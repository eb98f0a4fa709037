"""The SoA period history: one array, slice-copied per-server traces.

Oracle: the per-row rebuild the backends used before the history became
one array — one ``Trace.append_row(dict(zip(channels, row)))`` per recorded
period, from a list of per-period ``(servers, channels)`` rows. Every
per-server trace, and every equivalence report built from them, must
equal that rebuild bit for bit: across history-capacity doublings and
across a ``snapshot()``/``restore()`` in the middle of a run.
"""

import dataclasses

import numpy as np
import pytest

from repro.equiv import compare_traces
from repro.errors import CheckpointError
from repro.fast.fleet import FastFleetBackend
from repro.fleet import FleetSimulation, SoaFleetBackend, SoaServerSpec
from repro.fleet.scenarios import fleet_scenario
from repro.fleet.soa import PeriodHistory
from repro.telemetry.trace import Trace

BACKENDS = {"soa": SoaFleetBackend, "fast": FastFleetBackend}
N = 3


def specs(n=N):
    return [
        SoaServerSpec(
            name=f"h{i}", seed=4100 + i, set_point_w=720.0 + 10.0 * i,
            demand_scale=0.75 + 0.05 * i,
            controller="safe-fixed-step" if i % 2 else "fixed-step",
        )
        for i in range(n)
    ]


def build(kind, n=N):
    backend = BACKENDS[kind]([dataclasses.replace(s) for s in specs(n)])
    return FleetSimulation(
        backend,
        budget_w=735.0 * n,
        allocation=fleet_scenario("fair-static").allocation(n),
        periods_per_rack_period=1,
    )


def run_recording(fleet, n_periods, rows):
    """Run one period at a time, keeping a copy of each period's row."""
    for _ in range(n_periods):
        fleet.run(1)
        rows.append(fleet.backend._history.last().copy())


def legacy_trace(channels, rows, index):
    trace = Trace(channels, capacity=max(len(rows), 1))
    for row in rows:
        trace.append_row(dict(zip(channels, row[index].tolist())))
    return trace


def assert_same_trace(got, want, timing=True):
    """Bit-equal traces; ``timing=False`` skips ``ctl_ms`` (wall-clock
    telemetry, which differs between two runs of the same fleet)."""
    assert got.channels == want.channels
    assert len(got) == len(want)
    keep = [c != "ctl_ms" or timing for c in got.channels]
    assert got.as_array()[:, keep].tobytes() == want.as_array()[:, keep].tobytes()


def assert_matches_legacy(backend, rows, timing=True):
    legacy = [legacy_trace(backend._channels, rows, i) for i in range(N)]
    traces = [backend.server_trace(i) for i in range(N)]
    for got, want in zip(traces, legacy):
        assert_same_trace(got, want, timing)
    mid = len(rows) // 2
    got_report = compare_traces(traces, traces[::-1])
    want_report = compare_traces(legacy, legacy[::-1])
    assert got_report.rows == want_report.rows
    # Unequal prefixes too, so the settle search sees a transient.
    assert compare_traces(
        [Trace.from_array(t.channels, t.as_array()[:mid]) for t in traces], traces
    ).rows == compare_traces(
        [legacy_trace(backend._channels, rows[:mid], i) for i in range(N)], legacy
    ).rows


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_server_trace_equals_per_row_rebuild_across_doublings(kind):
    fleet = build(kind)
    rows = []
    n_periods = 4 * PeriodHistory.INITIAL_CAPACITY + 3
    run_recording(fleet, n_periods, rows)
    history = fleet.backend._history
    assert len(history) == n_periods
    assert history._data.shape[0] == 8 * PeriodHistory.INITIAL_CAPACITY  # grew 3 times
    assert_matches_legacy(fleet.backend, rows)


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_server_trace_equals_per_row_rebuild_across_restore(kind):
    straight = build(kind)
    rows = []
    run_recording(straight, PeriodHistory.INITIAL_CAPACITY + 2, rows)
    blob = straight.snapshot()
    run_recording(straight, 2 * PeriodHistory.INITIAL_CAPACITY, rows)

    resumed = build(kind).restore(blob)
    resumed.run(2 * PeriodHistory.INITIAL_CAPACITY)
    assert_matches_legacy(resumed.backend, rows, timing=False)


def test_snapshot_captures_only_recorded_rows_as_one_array():
    fleet = build("soa")
    fleet.run(PeriodHistory.INITIAL_CAPACITY + 1)  # capacity now doubled
    history = fleet.backend._history
    tree = fleet.snapshot()["fleet"]

    def find(node):
        if isinstance(node, dict):
            obj = node.get("__obj__")
            if obj is not None and obj["cls"].endswith(":PeriodHistory"):
                return obj["custom"]
            for value in node.values():
                found = find(value)
                if found is not None:
                    return found
        elif isinstance(node, list):
            for value in node:
                found = find(value)
                if found is not None:
                    return found
        return None

    rows = find(tree)["__dict__"]["items"][0][1]["__nd__"]
    assert rows["shape"] == [len(history), N, len(fleet.backend._channels)]
    assert history._data.shape[0] > len(history)


def test_restore_refuses_a_history_of_another_fleet_size():
    small = build("soa")
    small.run(2)
    with pytest.raises(CheckpointError, match="fleet history shape"):
        build("soa", n=N + 1).restore(small.snapshot())


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_returned_trace_is_a_copy(kind):
    from tests.golden.regen import fleet_digests

    fleet = build(kind)
    fleet.run(5)
    before = fleet_digests(fleet)
    report = compare_traces(
        [fleet.backend.server_trace(i) for i in range(N)],
        [fleet.backend.server_trace(i) for i in range(N)][::-1],
    )
    for i in range(N):
        trace = fleet.backend.server_trace(i)
        trace["power_w"][:] = -1.0
        trace["set_point_w"][:] = np.nan
        trace.append(power_w=5.0)
    assert fleet_digests(fleet) == before
    assert compare_traces(
        [fleet.backend.server_trace(i) for i in range(N)],
        [fleet.backend.server_trace(i) for i in range(N)][::-1],
    ).rows == report.rows


def test_server_trace_before_any_period_is_empty_and_appendable():
    backend = SoaFleetBackend(specs())
    trace = backend.server_trace(0)
    assert len(trace) == 0
    assert trace.channels == tuple(backend._channels)
    trace.append(power_w=1.0)
    trace.append(power_w=2.0)
    assert trace["power_w"].tolist() == [1.0, 2.0]
