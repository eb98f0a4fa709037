"""Shadow specs and cumulative twins."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.service.shadow import (
    ShadowSpec,
    TwinRunner,
    parse_shadow_spec,
    parse_shadow_specs,
    topology_hash,
)

SCENARIO = "tree-static"
N = 4


class TestParseShadowSpec:
    def test_cap_percent(self):
        spec = parse_shadow_spec("cap=80")
        assert spec == ShadowSpec(name="cap=80", budget_frac=0.8)

    def test_combined_keys(self):
        spec = parse_shadow_spec("cap=60+engine=fast")
        assert spec.budget_frac == pytest.approx(0.6)
        assert spec.engine == "fast"

    def test_scenario_key_validates_name(self):
        assert parse_shadow_spec("scenario=fair-static").scenario == "fair-static"
        with pytest.raises(ConfigurationError):
            parse_shadow_spec("scenario=nope")

    @pytest.mark.parametrize(
        "spec",
        ["", "cap", "cap=", "=80", "cap=abc", "cap=0", "cap=-5",
         "engine=turbo", "color=red", "cap=80+cap=90"],
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(ConfigurationError):
            parse_shadow_spec(spec)

    def test_specs_list(self):
        specs = parse_shadow_specs("cap=80, cap=120")
        assert [s.name for s in specs] == ["cap=80", "cap=120"]

    def test_specs_list_rejects_duplicates_and_empty(self):
        with pytest.raises(ConfigurationError):
            parse_shadow_specs("cap=80,cap=80")
        with pytest.raises(ConfigurationError):
            parse_shadow_specs(" , ")


class TestTopologyHash:
    def test_sensitive_to_every_field(self):
        base = topology_hash(SCENARIO, N, 1, 0)
        assert topology_hash(SCENARIO, N + 1, 1, 0) != base
        assert topology_hash(SCENARIO, N, 2, 0) != base
        assert topology_hash(SCENARIO, N, 1, 1) != base
        assert topology_hash(SCENARIO, N, 1, 0, budget_frac=0.8) != base
        assert topology_hash(SCENARIO, N, 1, 0, engine="fast") != base

    def test_stable(self):
        assert topology_hash(SCENARIO, N, 1, 0) == topology_hash(SCENARIO, N, 1, 0)


class TestTwinRunner:
    def test_advance_is_chunking_invariant(self):
        one_shot = TwinRunner(SCENARIO, N)
        one_shot.advance(3)
        stepped = TwinRunner(SCENARIO, N)
        for _ in range(3):
            stepped.advance(1)
        assert one_shot.digest() == stepped.digest()
        assert one_shot.summary() == stepped.summary()

    def test_seed_changes_trajectory(self):
        a = TwinRunner(SCENARIO, N, seed=0)
        b = TwinRunner(SCENARIO, N, seed=1)
        a.advance(2)
        b.advance(2)
        assert a.digest() != b.digest()

    def test_budget_frac_scales_budget(self):
        full = TwinRunner(SCENARIO, N)
        capped = TwinRunner(SCENARIO, N, budget_frac=0.8)
        assert capped.fleet.budget_w == pytest.approx(full.fleet.budget_w * 0.8)

    def test_for_shadow_applies_deltas(self):
        spec = parse_shadow_spec("cap=80")
        twin = TwinRunner.for_shadow(spec, SCENARIO, N, 1, 0)
        assert twin.budget_frac == pytest.approx(0.8)
        assert twin.scenario == SCENARIO

    def test_summary_before_advance_has_no_power(self):
        twin = TwinRunner(SCENARIO, N)
        summary = twin.summary()
        assert summary["windows"] == 0
        assert "total_power_w" not in summary

    def test_summary_carries_digest_and_hash(self):
        twin = TwinRunner(SCENARIO, N)
        twin.advance(1)
        summary = twin.summary()
        assert summary["digest"] == twin.digest()
        assert summary["topology_hash"] == twin.topology_hash
        assert summary["tracking_err_w"] == pytest.approx(
            summary["total_power_w"] - summary["budget_w"]
        )

    def test_equiv_vs_self_is_ok(self):
        a = TwinRunner(SCENARIO, N)
        b = TwinRunner(SCENARIO, N)
        a.advance(2)
        b.advance(2)
        report = a.equiv_vs(b)
        assert report.ok

    @pytest.mark.filterwarnings("ignore::repro.errors.BudgetShortfallWarning")
    def test_equiv_vs_equals_trace_comparison_and_memoizes(self, monkeypatch):
        """Memoized per-twin metrics give the report ``compare_traces``
        gives on freshly built server traces; each twin's metrics are
        computed once per advance, however many shadows compare."""
        from repro.equiv import compare_traces
        from repro.service import shadow as shadow_mod

        deployed = TwinRunner(SCENARIO, N)
        shadows = [
            TwinRunner.for_shadow(parse_shadow_spec(spec), SCENARIO, N, 1, 0)
            for spec in ("cap=80", "cap=120")
        ]
        calls = []
        real = shadow_mod.server_metrics
        monkeypatch.setattr(
            shadow_mod, "server_metrics", lambda t: calls.append(1) or real(t)
        )
        for window in (1, 2):
            for twin in (deployed, *shadows):
                twin.advance(1)
            calls.clear()
            reports = [s.equiv_vs(deployed) for s in shadows]
            assert len(calls) == 3 * N  # deployed once, each shadow once
            for s, report in zip(shadows, reports):
                want = compare_traces(
                    [deployed.fleet.backend.server_trace(i) for i in range(N)],
                    [s.fleet.backend.server_trace(i) for i in range(N)],
                    scenario=f"shadow:{s.scenario}",
                )
                assert report.rows == want.rows
                assert report.n_servers == want.n_servers
            assert [s.equiv_vs(deployed).rows for s in shadows] == [
                r.rows for r in reports
            ]
            assert len(calls) == 3 * N  # memo hit: no recomputation

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            TwinRunner(SCENARIO, N, periods_per_window=0)
        with pytest.raises(ConfigurationError):
            TwinRunner(SCENARIO, N, budget_frac=0.0)
        with pytest.raises(ConfigurationError):
            TwinRunner(SCENARIO, N, engine="turbo")

    def test_shadow_spec_dataclass_is_frozen(self):
        spec = parse_shadow_spec("cap=80")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.budget_frac = 0.5
