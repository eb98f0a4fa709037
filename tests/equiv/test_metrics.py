"""Unit coverage of the equivalence metric extraction and report shapes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.equiv import (
    SETTLE_BAND_FRAC,
    TOLERANCES,
    EquivReport,
    EquivRow,
    ToleranceSpec,
    compare_traces,
    server_metrics,
    settle_index,
)
from repro.errors import ConfigurationError
from repro.telemetry.trace import Trace


def make_trace(power, set_point=900.0, peak=None):
    power = np.asarray(power, dtype=np.float64)
    peak = power + 2.0 if peak is None else np.asarray(peak, dtype=np.float64)
    trace = Trace(["power_w", "set_point_w", "power_max_w"])
    for p, mx in zip(power, peak):
        trace.append_row(
            {"power_w": p, "set_point_w": set_point, "power_max_w": mx}
        )
    return trace


def loop_settle(inside):
    """The reverse Python scan ``server_metrics`` used before
    :func:`settle_index`: the oracle for the index search."""
    settle = len(inside)
    for k in range(len(inside) - 1, -1, -1):
        if not inside[k]:
            break
        settle = k
    return settle


class TestSettleIndex:
    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    def test_equals_reverse_scan(self, mask):
        assert settle_index(np.array(mask)) == loop_settle(mask)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_all_true_and_all_false(self, n):
        assert settle_index(np.ones(n, dtype=bool)) == loop_settle([True] * n) == 0
        assert settle_index(np.zeros(n, dtype=bool)) == loop_settle([False] * n) == n

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=850.0, max_value=950.0),
                st.just(float("nan")),
            ),
            min_size=1,
            max_size=48,
        )
    )
    def test_server_metrics_settle_equals_reverse_scan(self, power):
        """NaN errors are outside the band, through ``server_metrics``."""
        err = np.asarray(power) - 900.0
        inside = np.isfinite(err) & (np.abs(err) <= SETTLE_BAND_FRAC * 900.0)
        got = server_metrics(make_trace(power))["settle_periods"]
        assert got == float(loop_settle(inside.tolist()))


class TestServerMetrics:
    def test_tracking_error_is_mean_abs(self):
        m = server_metrics(make_trace([905.0, 895.0, 900.0]))
        assert m["power_err_w"] == pytest.approx(10.0 / 3.0)

    def test_violation_rate_is_peak_based(self):
        trace = make_trace([890.0] * 4, peak=[905.0, 880.0, 901.0, 899.0])
        assert server_metrics(trace)["violation_rate"] == pytest.approx(0.5)

    def test_settle_is_first_held_period(self):
        band = SETTLE_BAND_FRAC * 900.0
        power = [900.0 + 2 * band, 900.0, 900.0 + 2 * band, 900.0, 900.0]
        assert server_metrics(make_trace(power))["settle_periods"] == 3.0

    def test_never_settles_is_run_length(self):
        power = [900.0 + 100.0] * 4
        assert server_metrics(make_trace(power))["settle_periods"] == 4.0

    def test_nan_power_excluded_from_error_and_never_settles(self):
        m = server_metrics(make_trace([900.0, np.nan, 900.0]))
        assert m["power_err_w"] == pytest.approx(0.0)
        assert m["settle_periods"] == 2.0  # NaN at index 1 breaks the hold

    def test_all_nan_power_is_nan_error(self):
        m = server_metrics(make_trace([np.nan, np.nan]))
        assert np.isnan(m["power_err_w"])

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            server_metrics(Trace(["power_w", "set_point_w", "power_max_w"]))


class TestCompareTraces:
    def test_identical_traces_are_equivalent(self):
        t = make_trace([905.0, 900.0, 899.0])
        report = compare_traces([t], [make_trace([905.0, 900.0, 899.0])])
        assert report.ok
        assert "PASS" in report.render()

    def test_large_power_gap_fails(self):
        ref = make_trace([900.0] * 5)
        fast = make_trace([960.0] * 5)
        report = compare_traces([ref], [fast])
        assert not report.ok
        assert "EXCEEDED" in report.render()

    def test_one_sided_nan_fails(self):
        ref = make_trace([900.0, 900.0])
        fast = make_trace([np.nan, np.nan])
        assert not compare_traces([ref], [fast]).ok

    def test_both_sided_nan_agrees(self):
        report = compare_traces(
            [make_trace([np.nan, np.nan])], [make_trace([np.nan, np.nan])]
        )
        row = next(r for r in report.rows if r.metric == "power_err_w")
        assert row.mean_abs_diff == 0.0

    def test_mismatched_lengths_rejected(self):
        t = make_trace([900.0])
        with pytest.raises(ConfigurationError):
            compare_traces([t, t], [t])
        with pytest.raises(ConfigurationError):
            compare_traces([], [])

    def test_custom_tolerances_apply(self):
        tol = (
            ToleranceSpec(
                metric="power_err_w", unit="W", mean_tol=0.001, max_tol=0.001,
                description="razor thin",
            ),
        )
        ref = make_trace([900.0] * 3)
        fast = make_trace([900.5] * 3)
        assert not compare_traces([ref], [fast], tolerances=tol).ok


class TestRowAndReport:
    def test_row_requires_both_bounds(self):
        row = EquivRow("m", "W", mean_abs_diff=1.0, max_abs_diff=99.0,
                       mean_tol=2.0, max_tol=10.0)
        assert not row.ok

    def test_nan_diff_fails(self):
        row = EquivRow("m", "W", mean_abs_diff=float("nan"),
                       max_abs_diff=float("nan"), mean_tol=2.0, max_tol=10.0)
        assert not row.ok

    def test_empty_report_not_ok(self):
        assert not EquivReport(scenario="none", n_servers=0).ok

    def test_committed_tolerance_table_covers_all_metrics(self):
        assert {t.metric for t in TOLERANCES} == {
            "power_err_w", "violation_rate", "settle_periods"
        }
        for t in TOLERANCES:
            assert t.mean_tol <= t.max_tol
