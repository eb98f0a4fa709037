"""Compute, and on request rewrite, the golden-digest ledger.

``DIGESTS.json`` pins the reference semantics of the simulator:

* ``experiments`` — the canonical-JSON sha256 of ``result.data`` for every
  registered experiment at :data:`SEED` (the digest ``repro sweep``
  checksums);
* ``fleet`` — one digest per registered fleet scenario, built on the
  reference backend and driven through :func:`drive_fleet`: the sha256 of
  the fleet trace digest followed by every per-server trace digest.

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
from pathlib import Path

from repro.experiments import experiment_ids, run_experiment
from repro.fleet import FleetSimulation
from repro.fleet.scenarios import fleet_scenario, fleet_scenario_names
from repro.runner import _canonicalize, canonical_json
from repro.telemetry.trace import Trace

LEDGER = Path(__file__).with_name("DIGESTS.json")
SEED = 0


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


def compute() -> dict:
    return {
        "seed": SEED,
        "experiments": {eid: experiment_digest(eid) for eid in experiment_ids()},
        "fleet": {
            name: fleet_digest(drive_fleet(name)) for name in fleet_scenario_names()
        },
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
