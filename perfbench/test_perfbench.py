"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``.

Each test drives ``run.py`` the way the benchmark is run, at the tiny
size, so the three workloads, the traced run and the correctness gates are
exercised end to end in about a minute.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from tracer import GROUP, SID, THREAD, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, *extra: str, seed: int = 0) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    code, result = run(workload, trace)
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_corrupted_pinned_digest_fails_the_run(tmp_path: Path) -> None:
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
    digest = pins["paper-fig6"]["tiny"]["0"]
    pins["paper-fig6"]["tiny"]["0"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    corrupted = tmp_path / "pins.json"
    corrupted.write_text(json.dumps(pins), encoding="utf-8")
    code, result = run("paper-fig6", 0, "--pins", str(corrupted))
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("workload", ["paper-fig6", "twin-stream"])
def test_span_self_times_fit_in_the_traced_wall(workload: str) -> None:
    code, _ = run(workload, 1)
    assert code == 0
    with gzip.open(ROOT / ".perfbench" / f"spans-{workload}.jsonl.gz", "rt", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh]
    traced = [s for s in spans if s[GROUP] != "setup"]
    assert traced
    own = self_times(traced)
    per_thread: dict[int, float] = defaultdict(float)
    for span in traced:
        assert own[span[SID]] >= -1e-6, span
        per_thread[span[THREAD]] += own[span[SID]]
    wall = header["traced_wall_s"]
    assert 0.0 < max(per_thread.values()) <= wall
