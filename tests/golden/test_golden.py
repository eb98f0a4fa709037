"""The golden-digest ledger: pinned reference semantics.

Cross-checks between two implementations pass when both drift together;
these digests do not. Every registered experiment and every registered
fleet scenario is pinned at seed 0 in ``DIGESTS.json``; the SoA backend
must reproduce the reference backend's pinned digest on every scenario it
can build. The served twin (deployed and shadow digests, WAL head chain)
is pinned too. The file is rewritten only by ``python -m tests.golden.regen``.
"""

import pytest

from repro.experiments import experiment_ids
from repro.fleet.scenarios import FLEET_SCENARIOS, fleet_scenario_names

from tests.golden.regen import (
    TWIN,
    drive_fleet,
    experiment_digest,
    fleet_digest,
    load,
    twin_digests,
)

LEDGER = load()
#: Entries too slow for tier-1; they run under ``-m chaos``.
HEAVY = {"fig6", "chaos-rack"}


def _params(names):
    return [
        pytest.param(n, marks=pytest.mark.chaos) if n in HEAVY else n for n in names
    ]


def test_ledger_covers_every_registered_experiment_and_scenario():
    assert LEDGER["seed"] == 0
    assert sorted(LEDGER["experiments"]) == sorted(experiment_ids())
    assert sorted(LEDGER["fleet"]) == fleet_scenario_names()


@pytest.mark.parametrize("experiment_id", _params(experiment_ids()))
def test_experiment_digest(experiment_id):
    assert experiment_digest(experiment_id) == LEDGER["experiments"][experiment_id]


@pytest.mark.parametrize("name", _params(fleet_scenario_names()))
def test_fleet_reference_digest(name):
    assert fleet_digest(drive_fleet(name, "reference")) == LEDGER["fleet"][name]


@pytest.mark.parametrize(
    "name", _params(sorted(n for n, s in FLEET_SCENARIOS.items() if s.soa_capable))
)
def test_fleet_soa_reproduces_reference_digest(name):
    assert fleet_digest(drive_fleet(name, "soa")) == LEDGER["fleet"][name]


def test_twin_digests_and_wal_chain():
    pinned = LEDGER["twin"]
    assert {k: pinned[k] for k in TWIN} == TWIN
    assert twin_digests() == {
        k: pinned[k] for k in ("deployed", "shadows", "chain")
    }
