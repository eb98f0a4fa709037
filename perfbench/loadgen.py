"""Seeded load generation: telemetry lines, what-if specs, an open-loop reader.

Everything the program under test receives is generated here from the
workload seed, so one seed always yields the same lines and specs. The
program sees only those generated inputs, never the seed.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep

__all__ = ["telemetry_windows", "whatif_specs", "OpenLoopReader", "Read", "get"]

#: The reads the open-loop reader rotates through, one per tick.
READ_PATHS = ("/whatif", "/windows?limit=8", "/metrics", "/healthz")


def telemetry_windows(seed: int, n_windows: int, n_servers: int, window_s: float = 1.0) -> list[list[str]]:
    """Per window: one LDJSON telemetry line per server, then its heartbeat.

    Event times fall strictly inside their window, so each window closes
    exactly when its heartbeat (at the window's end) arrives.
    """
    rng = random.Random(seed)
    windows = []
    for k in range(n_windows):
        lines = []
        for server in range(n_servers):
            t = (k + rng.uniform(0.05, 0.95)) * window_s
            lines.append(
                json.dumps(
                    {
                        "kind": "telemetry",
                        "t": round(t, 6),
                        "server": f"s{server:04d}",
                        "power_w": round(rng.uniform(900.0, 1300.0), 3),
                        "gpu_util": round(rng.uniform(0.2, 1.0), 4),
                    },
                    sort_keys=True,
                )
            )
        lines.append(json.dumps({"kind": "heartbeat", "t": (k + 1) * window_s}))
        windows.append(lines)
    return windows


def whatif_specs(seed: int):
    """Endless distinct what-if specs: caps mixed with the fast engine.

    Every spec names a distinct (cap, scenario, engine) triple, so no two
    questions share a cache key.
    """
    rng = random.Random(seed)
    percents = list(range(6000, 14000))  # cap in hundredths of a percent
    rng.shuffle(percents)
    for q, hundredths in enumerate(percents):
        cap = f"cap={hundredths // 100}.{hundredths % 100:02d}"
        kind = q % 3
        if kind == 0:
            yield cap
        elif kind == 1:
            yield f"{cap}+engine=fast"
        else:
            yield f"{cap}+scenario=mpc-static+engine=fast"


@dataclass
class Read:
    """One open-loop read, timed from when it was due."""

    path: str
    due: float
    sent: float
    done: float
    status: int
    ok: bool
    span: tuple | None = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def check_read(path: str, status: int, body: bytes) -> bool:
    """Whether one read answered 200 with the shape its endpoint promises."""
    if status != 200:
        return False
    if path == "/metrics":
        return b"repro_service_windows_closed_total" in body
    payload = json.loads(body)
    if path == "/healthz":
        return payload.get("status") == "ok" and "chain" in payload
    if path.startswith("/windows"):
        return len(payload["windows"]) <= 8 and payload["count"] >= len(payload["windows"])
    return "chain" in payload and "shadows" in payload


@dataclass
class OpenLoopReader:
    """One thread issuing reads at a fixed rate over one HTTP connection.

    Reads are scheduled ``1/rate_hz`` apart from the start, whatever the
    server does: a read that could not be sent on time is sent as soon as
    the previous one returns, and its latency still counts from its due
    time, so a stall shows in every read queued behind it.
    """

    host: str
    port: int
    rate_hz: float
    tracer: object = None
    reads: list[Read] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-reader")
        self._error: BaseException | None = None

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("reader thread did not stop")
        if self._error is not None:
            raise self._error

    def _run(self) -> None:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            start = perf_counter()
            k = 0
            while not self._stop.is_set():
                due = start + k / self.rate_hz
                wait = due - perf_counter()
                if wait > 0:
                    sleep(wait)
                path = READ_PATHS[k % len(READ_PATHS)]
                if self.tracer is not None:
                    self.tracer.set_group(f"read-{k}")
                self.reads.append(self._read(conn, path, due))
                k += 1
        except BaseException as exc:  # surfaced by stop() on the main thread
            self._error = exc
        finally:
            conn.close()

    def _read(self, conn: http.client.HTTPConnection, path: str, due: float) -> Read:
        status, body, sent, done, span = get(conn, path, self.tracer, "loadgen.read")
        try:
            ok = check_read(path, status, body)
        except (ValueError, KeyError, TypeError):
            ok = False
        return Read(path, due, sent, done, status, ok, span)


def get(conn: http.client.HTTPConnection, path: str, tracer, span_name: str):
    """One GET, traced as a client span when tracing.

    Returns (status, body, sent, done, span). While the request is in
    flight the tracer's ``inflight`` names its span, so the server thread's
    spans for this request hang off it.
    """
    token = tracer.open() if tracer is not None else None
    if token is not None:
        tracer.inflight = (token[0], token[2])
    sent = perf_counter()
    conn.request("GET", path)
    response = conn.getresponse()
    body = response.read()
    done = perf_counter()
    span = None
    if token is not None:
        tracer.inflight = None
        span = tracer.close(span_name, token)
    return response.status, body, sent, done, span
