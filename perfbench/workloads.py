"""The three benchmark workloads, each driven through the program's public API.

A workload sets up once, then runs *episodes*: one fixed unit of work that
is repeated until the run's time is up, so a faster program does more
episodes of the same work rather than different work. Each episode returns
the latencies of the results it produced, the server control periods it
simulated, and the operations it attempted and failed. ``finish`` runs the
correctness checks that compare the episodes' outputs with an independent
computation.

``paper-fig6``
    ``run_experiment("fig6")``: every strategy at 7 set points, 100
    periods each, plus the Fixed-step calibration runs. One episode is one
    experiment; one result is one finished closed-loop case.
``twin-stream``
    An 8-server ``tree-static`` twin with shadows ``cap=80,cap=120`` and a
    WAL journal on disk. A closed-loop producer feeds 60 windows of seeded
    telemetry; an open-loop reader issues 50 reads/s over HTTP beside it.
    One episode is one fresh service fed 60 windows; one result is one
    window commit.
``twin-whatif``
    A 64-server ``tree-static`` twin with a 2-window history and no
    shadows. A closed-loop client asks distinct seeded ``/whatif?spec=``
    questions over HTTP, each twice. One episode is one question; its
    result is the first (cache-miss) answer.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import tempfile
import urllib.parse
from dataclasses import dataclass, field
from time import perf_counter

from loadgen import OpenLoopReader, get, telemetry_windows, whatif_specs

__all__ = ["WORKLOADS", "Episode"]


@dataclass
class Episode:
    """What one episode measured."""

    wall_s: float
    result_ms: list[float]
    server_periods: int
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Wall of the whole episode call, set-up and teardown included.
    phase_s: float = 0.0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class PaperFig6:
    """The heaviest paper experiment, as ``repro run fig6`` runs it."""

    name = "paper-fig6"
    deployed_scenario = ""

    def __init__(self, seed: int, size: str, pins: dict, tracer, work_dir: str) -> None:
        self.seed = seed
        self.tiny = size == "tiny"
        self.pins = pins.get("paper-fig6", {}).get(size, {})
        self.tracer = tracer
        self.digests: list[str] = []
        self._episode = "setup"

    def load(self) -> None:
        """Import the program and hook case completions (for result times)."""
        import repro.experiments  # noqa: F401
        from repro.sim.engine import ServerSimulation

        self._completions: list[float] = []
        self._periods = 0
        original = ServerSimulation.run

        def run(sim, controller, n_periods, *args, **kwargs):
            trace = original(sim, controller, n_periods, *args, **kwargs)
            self._completions.append(perf_counter())
            self._periods += n_periods
            if self.tracer is not None:
                self.tracer.set_group(f"{self._episode}-case{len(self._completions)}")
            return trace

        ServerSimulation.run = run

    def setup(self) -> None:
        from repro.experiments import identified_model

        identified_model(self.seed)

    def kwargs(self) -> dict:
        if self.tiny:
            return {"seed": self.seed, "set_points_w": (900.0, 1100.0), "n_periods": 20}
        return {"seed": self.seed}

    def episode(self, index: int) -> Episode:
        import repro.experiments
        from repro.experiments.common import calibrated_safety_margin
        from repro.runner import canonical_json

        # Every episode pays what one `repro run fig6` pays after
        # identification, including the Fixed-step calibration runs.
        calibrated_safety_margin.cache_clear()
        self._episode = f"fig6-{index}"
        if self.tracer is not None:
            self.tracer.set_group(f"{self._episode}-case1")
        self._completions = []
        self._periods = 0
        start = perf_counter()
        result = repro.experiments.run_experiment("fig6", **self.kwargs())
        wall = perf_counter() - start
        stamps = [start, *self._completions]
        latencies = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        self.digests.append(_sha256(canonical_json(result.data)))
        problems = self._check_shape(result.data)
        return Episode(wall, latencies, self._periods, attempted=len(latencies) + 1,
                       failed=1 if problems else 0, problems=problems)

    def _check_shape(self, data: dict) -> list[str]:
        n = len(data["set_points_w"])
        problems = [f"{label}: {len(v)} means for {n} set points"
                    for label, v in data["means"].items() if len(v) != n]
        capgpu = data["errors"].get("CapGPU", [])
        if not capgpu or max(capgpu) > 25.0:
            problems.append(f"CapGPU steady-state |error| {capgpu} exceeds 25 W")
        return problems

    def finish(self) -> tuple[int, int, list[str]]:
        """Pinned digest for pinned seeds; otherwise every episode must agree."""
        problems = []
        pinned = self.pins.get(str(self.seed))
        reference = pinned if pinned is not None else self.digests[0]
        for i, digest in enumerate(self.digests):
            if digest != reference:
                what = "pinned" if pinned is not None else "first episode's"
                problems.append(f"episode {i}: fig6 result digest {digest[:12]} != {what} {reference[:12]}")
        return len(self.digests), len(problems), problems


class TwinStream:
    """Closed-loop window ingest with open-loop HTTP reads beside it."""

    name = "twin-stream"
    deployed_scenario = "tree-static"
    shadows = "cap=80,cap=120"
    read_rate_hz = 50.0

    def __init__(self, seed: int, size: str, pins: dict, tracer, work_dir: str) -> None:
        self.seed = seed
        self.n_servers = 8
        self.n_windows = 4 if size == "tiny" else 60
        self.tracer = tracer
        self.work_dir = work_dir
        self.final: list[dict] = []
        self.reads: list = []

    def load(self) -> None:
        import repro.service  # noqa: F401

    def setup(self) -> None:
        from repro.fleet.scenarios import fleet_scenario
        from repro.service import TwinRunner, parse_shadow_specs

        self.twin_seed = self.seed % 1000
        self.specs = parse_shadow_specs(self.shadows)
        self.lines = telemetry_windows(self.seed, self.n_windows, self.n_servers)
        self.periods_per_window = self.n_servers * fleet_scenario(self.deployed_scenario).periods_per_rack_period * (1 + len(self.specs))
        # One-time process costs (lazy imports, first builds) belong to
        # set-up, not to the first episode's first commit.
        warm = TwinRunner(self.deployed_scenario, self.n_servers, seed=self.twin_seed)
        warm.advance(1)
        warm.close()

    def episode(self, index: int) -> Episode:
        from repro.service import DigitalTwinService, ServiceConfig, ServiceJournal
        from repro.service.http import ServiceHTTPServer

        config = ServiceConfig(scenario=self.deployed_scenario, n_servers=self.n_servers,
                               seed=self.twin_seed, shadows=self.specs)
        journal_dir = tempfile.mkdtemp(prefix="journal-", dir=self.work_dir)
        service = DigitalTwinService(config, journal=ServiceJournal.create(journal_dir, config.to_dict()))
        server = ServiceHTTPServer(service)
        server.start()
        reader = OpenLoopReader(server.host, server.port, self.read_rate_hz, self.tracer)
        problems: list[str] = []
        commits: list[float] = []
        try:
            reader.start()
            start = perf_counter()
            for k, lines in enumerate(self.lines):
                if self.tracer is not None:
                    self.tracer.set_group(f"stream-{index}-w{k}")
                for line in lines[:-1]:
                    if service.feed_line(line):
                        problems.append(f"window {k}: a data line closed a window")
                t0 = perf_counter()
                records = service.feed_line(lines[-1])
                commits.append((perf_counter() - t0) * 1e3)
                if [r["window"]["index"] for r in records] != [k] or records[0]["window"]["n_events"] != self.n_servers:
                    problems.append(f"window {k}: heartbeat committed {[r['window'] for r in records]}")
            wall = perf_counter() - start
        finally:
            try:
                reader.stop()
            finally:
                server.stop()
        entries = service.journal.replay()
        if service.journal.head_chain(entries) != service.chain or len(entries) != self.n_windows:
            problems.append(f"episode {index}: WAL replay chain/length differs from the served chain")
        if self.tracer is not None:
            self.tracer.count("service.journal.bytes", os.path.getsize(service.journal.wal_path))
            counters = service.windows.counters()
            self.tracer.count("service.windows.closed", service.windows_closed)
            self.tracer.count("service.windows.late", counters["late_events"])
            self.tracer.count("service.windows.dup", counters["duplicate_events"])
        latest = service.records[-1]
        self.final.append({"deployed": latest["deployed"]["digest"],
                           **{n: a["digest"] for n, a in latest["shadows"].items()}})
        service.close()
        shutil.rmtree(journal_dir)
        self.reads.extend(reader.reads)
        bad_reads = [r for r in reader.reads if not r.ok]
        failed = len(problems) + len(bad_reads)
        problems.extend(f"read {r.path} answered {r.status}" for r in bad_reads[:5])
        return Episode(wall, commits, self.n_windows * self.periods_per_window,
                       attempted=self.n_windows + len(reader.reads) + 1, failed=failed, problems=problems)

    def finish(self) -> tuple[int, int, list[str]]:
        """The served twins must equal the offline twin over the same windows."""
        from repro.service import offline_whatif

        answers = offline_whatif(self.deployed_scenario, self.n_servers, self.n_windows,
                                 seed=self.twin_seed, shadows=self.specs)
        expected = {"deployed": answers["deployed"]["digest"],
                    **{n: a["digest"] for n, a in answers["shadows"].items()}}
        problems = [f"episode {i}: served digests differ from offline_whatif"
                    for i, got in enumerate(self.final) if got != expected]
        return len(self.final), len(problems), problems


class TwinWhatif:
    """Ad-hoc what-if questions against a fleet-scale twin, each asked twice."""

    name = "twin-whatif"
    deployed_scenario = "tree-static"
    history_windows = 2

    def __init__(self, seed: int, size: str, pins: dict, tracer, work_dir: str) -> None:
        self.seed = seed
        self.n_servers = 4 if size == "tiny" else 64
        self.history = self.history_windows
        self.tracer = tracer

    def load(self) -> None:
        import repro.service  # noqa: F401

    def setup(self) -> None:
        from repro.fleet.scenarios import fleet_scenario
        from repro.service import DigitalTwinService, ServiceConfig, offline_whatif
        from repro.service.http import ServiceHTTPServer
        from repro.service.shadow import parse_shadow_spec

        twin_seed = self.seed % 1000
        self.service = DigitalTwinService(ServiceConfig(scenario=self.deployed_scenario,
                                                        n_servers=self.n_servers, seed=twin_seed))
        for lines in telemetry_windows(self.seed, self.history, self.n_servers):
            for line in lines:
                self.service.feed_line(line)
        if self.service.windows_closed != self.history:
            raise RuntimeError(f"history closed {self.service.windows_closed} windows, not {self.history}")
        # Fill the process-wide caches a long-lived service fills once: the
        # fleet identifications and the fast engine's MPC gain cache.
        for spec in ("cap=100+engine=fast", "cap=100+scenario=mpc-static+engine=fast"):
            offline_whatif(self.deployed_scenario, self.n_servers, 1, seed=twin_seed,
                           shadows=(parse_shadow_spec(spec),))
        self.server = ServiceHTTPServer(self.service)
        self.server.start()
        self.conn = http.client.HTTPConnection(self.server.host, self.server.port, timeout=120)
        self.specs = whatif_specs(self.seed)
        self._pprp = {name: fleet_scenario(name).periods_per_rack_period
                      for name in (self.deployed_scenario, "mpc-static")}
        self.asked = 0

    def _ask(self, spec: str) -> tuple[int, bytes, float]:
        path = "/whatif?spec=" + urllib.parse.quote(spec, safe="")
        status, body, sent, done, _ = get(self.conn, path, self.tracer, "loadgen.whatif")
        return status, body, done - sent

    def episode(self, index: int) -> Episode:
        spec = next(self.specs)
        if self.tracer is not None:
            self.tracer.set_group(f"q{index}")
        before = self.service.cache.counters()
        start = perf_counter()
        status_miss, miss, miss_s = self._ask(spec)
        status_hit, hit, _ = self._ask(spec)
        wall = perf_counter() - start
        after = self.service.cache.counters()
        self.asked += 1
        if self.tracer is not None:
            self.tracer.count("service.cache.misses", after["misses"] - before["misses"])
            self.tracer.count("service.cache.hits", after["hits"] - before["hits"])
        problems = []
        if status_miss != 200 or status_hit != 200:
            problems.append(f"{spec}: HTTP {status_miss}/{status_hit}")
        elif miss != hit:
            problems.append(f"{spec}: repeated question returned a different body")
        else:
            answer = json.loads(miss)["shadows"].get(spec, {})
            if answer.get("windows") != self.history or len(answer.get("digest", "")) != 64:
                problems.append(f"{spec}: answer is not a {self.history}-window twin")
        if (after["misses"] - before["misses"], after["hits"] - before["hits"]) != (1, 1):
            problems.append(f"{spec}: cache counted {after['misses'] - before['misses']} misses and "
                            f"{after['hits'] - before['hits']} hits, not one each")
        scenario = "mpc-static" if "scenario=mpc-static" in spec else self.deployed_scenario
        periods = self.history * self.n_servers * (self._pprp[self.deployed_scenario] + self._pprp[scenario])
        return Episode(wall, [miss_s * 1e3], periods, attempted=2,
                       failed=min(2, len(problems)), problems=problems)

    def finish(self) -> tuple[int, int, list[str]]:
        self.conn.close()
        self.server.stop()
        counters = self.service.cache.counters()
        self.service.close()
        if (counters["misses"], counters["hits"]) != (self.asked, self.asked):
            return 1, 1, [f"cache counted {counters} for {self.asked} questions asked twice"]
        return 1, 0, []


WORKLOADS = {cls.name: cls for cls in (PaperFig6, TwinStream, TwinWhatif)}
