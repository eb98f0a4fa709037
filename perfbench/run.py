"""Run one benchmark workload and print its metrics; the last line is JSON.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload twin-stream --seed 3 --seconds 25 --trace 0

Each workload runs in fresh interpreters started from here, with the
checkout's ``src`` on ``PYTHONPATH`` (the package is pure Python, so there
is nothing to build). ``setup_s`` is the median over three fresh
interpreters of the time from process start to the workload's first timed
operation. With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The exit code is 0
only when every correctness check passed; without the program's sources
the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("paper-fig6", "twin-stream", "twin-whatif")
SETUP_SAMPLES = 3
#: Whole-run limit; a child still running at this point is killed.
RUN_LIMIT_S = 170.0


def spawn(worker_args: list[str], env: dict, deadline: float) -> tuple[float | None, list[str], int]:
    """Run one worker; returns (seconds until READY, stdout lines after it, exit code)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *worker_args]
    started = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(1.0, deadline - started), proc.kill)
    killer.start()
    ready = None
    lines: list[str] = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = perf_counter() - started
            else:
                lines.append(line.rstrip("\n"))
    finally:
        killer.cancel()
        proc.stdout.close()
        code = proc.wait()
    return ready, lines, code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke of the same code paths")
    parser.add_argument("--pins", default=str(BENCH / "pins.json"),
                        help="pinned result digests (JSON)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}/repro; run from a source checkout", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    deadline = perf_counter() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--size", args.size, "--pins", args.pins, "--out-dir", str(out_dir)]

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, _, code = spawn([*common, "--role", "setup"], env, deadline)
            if ready is None or code != 0:
                print(f"perfbench: set-up of {args.workload} failed (exit {code})", file=sys.stderr)
                return 1
            setup_samples.append(ready)
    ready, lines, code = spawn([*common, "--trace", str(args.trace), "--role", "main"], env, deadline)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if ready is not None:
        setup_samples.append(ready)
    if not args.trace and setup_samples:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    result["correct"] = bool(result["correct"]) and code == 0
    for name, metric in sorted(result["metrics"].items()):
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
