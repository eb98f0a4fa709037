"""Oracles for the SoA tick-block kernel.

The kernel runs a control period as block arrays over the tick axis and
keeps only four recurrences in a per-tick loop. These tests pin the pieces
that the differential suite's default runs rarely reach: the exact block
sum on special values, the RAPL counter wrapping *inside* a period, set
points that move every period, and restores at every period boundary.
"""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fleet import FleetSimulation, ReferenceBackend, SoaFleetBackend
from repro.fleet.scenarios import fleet_scenario
from repro.fleet.soa import left_sum
from tests.golden.regen import fleet_digests
from tests.golden.regen import trace_digest as digest

# -- the exact block sum ------------------------------------------------------

SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)
values = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(allow_nan=False, allow_infinity=False),
)


def python_left_fold(start, x):
    """Per-element ``start + x[0] + x[1] + ...`` over Python floats."""
    flat = x.reshape(len(x), start.size)
    folded = [
        functools.reduce(operator.add, flat[:, i].tolist(), s)
        for i, s in enumerate(start.ravel().tolist())
    ]
    return np.array(folded, dtype=np.float64).reshape(start.shape)


def assert_same_floats(got, want):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


@st.composite
def blocks(draw):
    servers = draw(st.sampled_from([1, 8, 64, 1024]))
    ticks = draw(st.integers(0, 40))
    start = draw(arrays(np.float64, (servers,), elements=values))
    x = draw(arrays(np.float64, (ticks, servers), elements=values))
    return start, x


@settings(max_examples=80, deadline=None)
@given(blocks())
def test_left_sum_is_a_python_left_fold(block):
    start, x = block
    assert_same_floats(left_sum(start, x.copy()), python_left_fold(start, x))


def test_left_sum_folds_every_column_of_a_3d_block():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 64, 4)) * 10.0 ** rng.integers(-9, 9, (40, 64, 4))
    start = rng.standard_normal((64, 4)) * 1e6
    assert_same_floats(left_sum(start, x.copy()), python_left_fold(start, x))


def test_left_sum_of_nothing_is_the_start():
    start = np.array([1.5, -0.0])
    assert left_sum(start, np.empty((0, 2))) is start


# -- SoA against the scalar twins ----------------------------------------------

N_SERVERS = 6


def twin_backends(scenario="tree-static", n=N_SERVERS):
    sc = fleet_scenario(scenario)
    return ReferenceBackend(sc.servers(n)), SoaFleetBackend(sc.specs(n))


def assert_traces_equal(ref, soa):
    for i in range(ref.n_servers):
        assert digest(soa.server_trace(i)) == digest(ref.server_trace(i)), i


@pytest.mark.parametrize("wrap", ["preset-near-range", "shrunk-range"])
def test_rapl_counter_wrapping_inside_a_period_matches_reference(wrap):
    ref, soa = twin_backends()
    ranges = [s.sim.rapl.max_energy_range_uj for s in ref.servers]
    assert ranges == [soa._rapl_range_uj] * N_SERVERS
    if wrap == "shrunk-range":
        # About 70% of one period's CPU energy: the counter wraps mid-period.
        for s in ref.servers:
            s.sim.rapl.max_energy_range_uj = 200_000_000
        soa._rapl_range_uj = 200_000_000
    else:
        # About half a period's CPU energy short of the range.
        preset = float(soa._rapl_range_uj - 150_000_000)
        for s in ref.servers:
            s.sim.rapl._energy_uj = preset
        soa._rapl_energy[:] = preset
    before = soa._rapl_energy.copy()
    _, unwrapped = twin_backends()
    unwrapped.run_periods(1)
    ref.run_periods(1)
    soa.run_periods(1)
    # Below the unwrapped count: every counter wrapped during the period.
    assert (soa._rapl_energy < before + unwrapped._rapl_energy - 1e6).all()
    ref.run_periods(3)
    soa.run_periods(3)
    assert_traces_equal(ref, soa)
    # The float counters themselves, not just their truncated reads.
    assert soa._rapl_energy.tolist() == [s.sim.rapl._energy_uj for s in ref.servers]


def test_set_points_moving_every_period_match_reference():
    ref, soa = twin_backends()
    rng = np.random.default_rng(11)
    for _ in range(10):
        budgets = rng.uniform(450.0, 1250.0, N_SERVERS).tolist()
        ref.set_budgets(budgets)
        soa.set_budgets(budgets)
        ref.run_periods(1)
        soa.run_periods(1)
    assert_traces_equal(ref, soa)


def test_restores_at_every_period_boundary_match_reference():
    """Three rack periods' worth of control periods, one budget round per
    period, with the SoA fleet snapshotted and restored into a fresh build
    at every boundary."""
    sc = fleet_scenario("tree-static")
    n_periods = 3 * sc.periods_per_rack_period

    def build(backend):
        return FleetSimulation(
            backend,
            budget_w=sc.budget_w(N_SERVERS),
            allocation=sc.allocation(N_SERVERS),
            periods_per_rack_period=1,
        )

    ref = build(ReferenceBackend(sc.servers(N_SERVERS)))
    ref.run(n_periods)
    soa = build(SoaFleetBackend(sc.specs(N_SERVERS)))
    for _ in range(n_periods):
        soa.run(1)
        blob = soa.snapshot()
        soa = build(SoaFleetBackend(sc.specs(N_SERVERS))).restore(blob)
    assert fleet_digests(soa) == fleet_digests(ref)
