"""Run one workload in this (fresh) interpreter and print what it measured.

Started by ``run.py`` with the program's ``src`` on ``PYTHONPATH``. Prints
``READY`` once set-up is done, so the parent can time set-up from process
start, and then, unless ``--role setup``, runs episodes for ``--seconds``
and prints one JSON line with the workload's metrics.

With ``--trace 1`` the run is split: episodes first run untraced for a
third of the time, then every layer boundary is wrapped and episodes run
traced for the rest. Per-layer metrics come from the traced episodes; the
per-episode wall difference between the two phases is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import threading
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import layers
from tracer import BUSY, CALLS, GROUP, NAME, PARENT, SID, THREAD, Tracer, self_times
from workloads import WORKLOADS


#: Counters the workloads and wrappers record while tracing, per episode.
COUNTERS = ("core.slsqp_iters", "core.slsqp_failed", "service.windows.closed",
            "service.windows.late", "service.windows.dup", "service.cache.hits",
            "service.cache.misses")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_episodes(workload, deadline: float, first_index: int) -> list:
    """Episodes until ``deadline`` (at least one), each timed whole."""
    episodes = []
    while not episodes or perf_counter() < deadline:
        start = perf_counter()
        episode = workload.episode(first_index + len(episodes))
        episode.phase_s = perf_counter() - start
        episodes.append(episode)
    return episodes


def end_to_end(episodes: list) -> dict:
    results = [ms for e in episodes for ms in e.result_ms]
    wall = sum(e.wall_s for e in episodes)
    return {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "server_periods_per_s": (sum(e.server_periods for e in episodes) / wall, "1/s"),
        "result_ms_p50": (percentile(results, 0.50), "ms"),
        "result_ms_p90": (percentile(results, 0.90), "ms"),
    }


def account(spans: list[tuple], main_thread: int) -> tuple[dict[str, float], float]:
    """Self time per span name, and the total self time of the main thread's tree.

    The main thread's tree holds every span whose root ancestor was opened
    on the benchmark's main thread, including server-thread spans
    adopted by its HTTP requests.
    """
    own = self_times(spans)
    by_id = {s[SID]: s for s in spans}
    root_of: dict[int, int] = {}

    def root(sid: int) -> int:
        path = []
        while sid not in root_of:
            parent = by_id[sid][PARENT]
            if parent not in by_id:
                root_of[sid] = sid
                break
            path.append(sid)
            sid = parent
        for step in path:
            root_of[step] = root_of[sid]
        return root_of[sid]

    per_name: dict[str, float] = defaultdict(float)
    main_tree = 0.0
    for span in spans:
        per_name[span[NAME]] += own[span[SID]]
        if by_id[root(span[SID])][THREAD] == main_thread:
            main_tree += own[span[SID]]
    return per_name, main_tree


def per_layer(tracer: Tracer, workload, traced: list, untraced: list, import_s: float) -> dict:
    n = len(traced)
    traced_wall = sum(e.phase_s for e in traced)
    untraced_per = sum(e.phase_s for e in untraced) / len(untraced)
    setup_spans = [s for s in tracer.spans if s[GROUP] == "setup"]
    spans = [s for s in tracer.spans if s[GROUP] != "setup"]
    per_name, main_tree = account(spans, threading.main_thread().ident)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span[NAME]] += span[CALLS]
    metrics: dict[str, tuple[float, str]] = {}
    for metric, (kind, names) in layers.LAYER_METRICS.items():
        if kind == "self":
            metrics[metric] = (sum(per_name.get(x, 0.0) for x in names) / n, "s")
        else:
            metrics[metric] = (sum(calls.get(x, 0) for x in names) / n, "count")
    for key in COUNTERS:
        metrics[key] = (tracer.counters.get(key, 0.0) / n, "count")
    for key in ("checkpoint.blob_bytes", "service.journal.bytes"):
        metrics[key] = (tracer.counters.get(key, 0.0) / n, "B")
    metrics["sysid.identify_s"] = (sum(s[BUSY] for s in setup_spans if s[NAME] == "sysid.identify"), "s")
    metrics["setup.import_s"] = (import_s, "s")
    reads = [r for r in getattr(workload, "reads", []) if r.span is not None]
    serve = defaultdict(float)
    for span in spans:
        if span[NAME] == "service.http.serve" and span[PARENT] is not None:
            serve[span[PARENT]] += span[BUSY]
    latencies = [r.latency_ms for r in reads] or [0.0]
    metrics["loadgen.read_ms_p50"] = (percentile(latencies, 0.50), "ms")
    metrics["loadgen.read_ms_p99"] = (percentile(latencies, 0.99), "ms")
    metrics["loadgen.reads"] = (len(reads) / n, "count")
    metrics["loadgen.late_ms_max"] = (max([r.late_ms for r in reads] or [0.0]), "ms")
    waits = [r.latency_ms - serve[r.span[SID]] * 1e3 for r in reads] or [0.0]
    metrics["service.http.wait_ms_p50"] = (percentile(waits, 0.50), "ms")
    metrics["trace.wall_s"] = (traced_wall / n, "s")
    metrics["trace.untraced_wall_s"] = (untraced_per, "s")
    metrics["trace.overhead_s"] = (traced_wall / n - untraced_per, "s")
    metrics["trace.attributed_s"] = (main_tree / n, "s")
    metrics["trace.unattributed_s"] = ((traced_wall - main_tree) / n, "s")
    metrics["trace.spans"] = (len(spans) / n, "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "main"), default="main")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--pins", required=True, help="pinned result digests (JSON)")
    parser.add_argument("--out-dir", required=True, help="scratch space and span output")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    pins = json.loads(Path(args.pins).read_text(encoding="utf-8"))
    tracer = Tracer() if args.trace and args.role == "main" else None
    workload = WORKLOADS[args.workload](args.seed, args.size, pins, tracer, str(out_dir))
    started = perf_counter()
    workload.load()
    import_s = perf_counter() - started
    if tracer is not None:
        layers.install(tracer, workload.deployed_scenario)
        tracer.set_group("setup")
        tracer.active = True
    workload.setup()
    if tracer is not None:
        tracer.active = False
        tracer.restore()
        tracer.set_group(None)
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    attempted = failed = 0
    problems: list[str] = []
    correct = True
    metrics: dict[str, tuple[float, str]] = {}
    try:
        begin = perf_counter()
        if tracer is None:
            episodes = run_episodes(workload, begin + args.seconds, 0)
            untraced = []
        else:
            untraced = run_episodes(workload, begin + args.seconds / 3.0, 0)
            layers.install(tracer, workload.deployed_scenario)
            tracer.active = True
            episodes = run_episodes(workload, begin + args.seconds, len(untraced))
            tracer.active = False
            tracer.restore()
        for episode in untraced + episodes:
            attempted += episode.attempted
            failed += episode.failed
            problems.extend(episode.problems)
        checks, check_failures, check_problems = workload.finish()
        attempted += checks
        failed += check_failures
        problems.extend(check_problems)
        if tracer is None:
            metrics = end_to_end(episodes)
        else:
            metrics = per_layer(tracer, workload, episodes, untraced, import_s)
            tracer.write(out_dir / f"spans-{args.workload}.jsonl.gz",
                         traced_wall_s=sum(e.phase_s for e in episodes), episodes=len(episodes))
    except Exception:
        traceback.print_exc()
        correct = False
        failed += 1
        attempted = max(attempted, failed)
    correct = correct and failed == 0
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
