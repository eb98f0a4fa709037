"""Compute, and on request rewrite, the golden-digest ledger.

``DIGESTS.json`` pins the reference semantics of the simulator:

* ``experiments`` — the canonical-JSON sha256 of ``result.data`` for every
  registered experiment at :data:`SEED` (the digest ``repro sweep``
  checksums);
* ``fleet`` — one digest per registered fleet scenario, built on the
  reference backend and driven through :func:`drive_fleet`: the sha256 of
  the fleet trace digest followed by every per-server trace digest;
* ``twin`` — the served digital twin of :data:`TWIN` (a journalled
  service fed one telemetry line per server and a heartbeat per window):
  the deployed digest, every shadow digest and the WAL head chain. The
  chain hashes every journaled ``equiv_vs_deployed`` row, so it pins the
  shadow-vs-deployed equivalence values bit for bit.

``tests/golden/test_golden.py`` asserts the file and never writes it. The
only way to rewrite it is to run this module explicitly::

    PYTHONPATH=src python -m tests.golden.regen

and every regeneration must be declared in ``CHANGES.md`` with the reason
the reference semantics changed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

from repro.experiments import experiment_ids, run_experiment
from repro.fleet import FleetSimulation
from repro.fleet.scenarios import fleet_scenario, fleet_scenario_names
from repro.runner import _canonicalize, canonical_json
from repro.service import (
    DigitalTwinService,
    ServiceConfig,
    ServiceJournal,
    parse_shadow_specs,
)
from repro.service.events import heartbeat, make_event
from repro.telemetry.trace import Trace

LEDGER = Path(__file__).with_name("DIGESTS.json")
SEED = 0
#: The pinned served twin.
TWIN = {
    "scenario": "tree-static",
    "n_servers": 8,
    "shadow_specs": "cap=80,cap=120",
    "windows": 12,
    "seed": SEED,
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def experiment_digest(experiment_id: str, seed: int = SEED) -> str:
    """Canonical-JSON sha256 of one experiment's ``result.data``."""
    return _sha256(canonical_json(run_experiment(experiment_id, seed=seed).data))


def trace_digest(trace: Trace) -> str:
    return _sha256(canonical_json(_canonicalize(trace)))


def fleet_digests(fleet: FleetSimulation) -> list[str]:
    """Fleet trace digest + every per-server trace digest."""
    out = [trace_digest(fleet.trace)]
    for i in range(fleet.n_servers):
        out.append(trace_digest(fleet.backend.server_trace(i)))
    return out


def drive_fleet(name: str, backend: str = "reference") -> FleetSimulation:
    """The pinned fleet protocol: at most 8 servers, two budget rounds, a
    3% budget cut, two more rounds."""
    scenario = fleet_scenario(name)
    fleet = scenario.build_fleet(backend, n_servers=min(scenario.n_servers, 8))
    fleet.run(2)
    fleet.set_budget(fleet.budget_w * 0.97)
    fleet.run(2)
    return fleet


def fleet_digest(fleet: FleetSimulation) -> str:
    return _sha256(canonical_json(fleet_digests(fleet)))


def twin_digests() -> dict:
    """Serve :data:`TWIN` through a journalled service; return its digests.

    Each window gets one telemetry line per server and a closing
    heartbeat. The returned chain is the one the WAL replays to, and it
    must equal the chain the service served.
    """
    config = ServiceConfig(
        scenario=TWIN["scenario"],
        n_servers=TWIN["n_servers"],
        seed=TWIN["seed"],
        shadows=parse_shadow_specs(TWIN["shadow_specs"]),
    )
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # cap=80 is infeasible by design: the shortfall warning is expected.
        warnings.simplefilter("ignore")
        journal = ServiceJournal.create(Path(tmp) / "wal", config.to_dict())
        service = DigitalTwinService(config, journal=journal)
        try:
            for k in range(TWIN["windows"]):
                for i in range(TWIN["n_servers"]):
                    service.feed_event(
                        make_event(
                            {"kind": "telemetry", "t": k + (i + 1) / 16, "server": i}
                        )
                    )
                service.feed_event(heartbeat(float(k + 1)))
            chain = journal.head_chain(journal.replay())
            if chain != service.chain:
                raise AssertionError("WAL head chain differs from the served chain")
            latest = service.records[-1]
            return {
                "deployed": latest["deployed"]["digest"],
                "shadows": {
                    name: answer["digest"]
                    for name, answer in latest["shadows"].items()
                },
                "chain": chain,
            }
        finally:
            service.close()


def compute() -> dict:
    return {
        "seed": SEED,
        "experiments": {eid: experiment_digest(eid) for eid in experiment_ids()},
        "fleet": {
            name: fleet_digest(drive_fleet(name)) for name in fleet_scenario_names()
        },
        "twin": {**TWIN, **twin_digests()},
    }


def render(ledger: dict) -> str:
    return json.dumps(ledger, indent=2, sort_keys=True) + "\n"


def load() -> dict:
    return json.loads(LEDGER.read_text())


def main() -> int:
    LEDGER.write_text(render(compute()))
    print(f"wrote {LEDGER}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
