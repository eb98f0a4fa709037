"""In-memory span tracer that wraps a program's public functions from outside.

The benchmark never edits the program it measures. Instead a traced run
replaces selected class attributes and module globals with thin wrappers
that record spans: name, start, end, parent span, thread and group. The
group is the unit of work a span belongs to (one window, one question, one
experiment case), so every span of one window shares an id.

Leaf functions called hundreds of thousands of times per run (a plant tick
calls eight of them) are recorded as one *aggregate* span per (parent,
name, thread): first start, last end, call count and summed duration. A
leaf wraps no other traced function, so its self time is its summed
duration and nothing below it is lost.

Spans stay in memory while the run is measured and are written out only
when it ends; per-layer self time is derived from them afterwards: a
span's busy time minus the busy time of its direct children, which nest
inside it by construction.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
from collections import defaultdict
from collections.abc import Callable
from time import perf_counter

__all__ = ["Tracer", "self_times", "FIELDS"]

#: Span tuple layout. ``busy`` is the summed duration of the ``calls``
#: calls the span stands for (one call, unless it is an aggregate).
FIELDS = ("id", "parent", "name", "group", "thread", "start", "end", "calls", "busy")
SID, PARENT, NAME, GROUP, THREAD, START, END, CALLS, BUSY = range(len(FIELDS))


class Tracer:
    """Span recorder plus the wrapping helpers that feed it."""

    def __init__(self) -> None:
        self._spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        #: (span id, group) of the client request a server thread is
        #: handling now; spans opened with ``adopt=True`` and no local
        #: parent hang off it and join its group.
        self.inflight: tuple[int, object] | None = None
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[tuple[int, object]]] = {}
        self._groups: dict[int, object] = {}
        #: ((parent id, group), name, thread) -> [first start, last end, calls, busy]
        self._leaves: dict[tuple, list] = {}
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def set_group(self, group: object) -> None:
        """Tag the spans this thread opens from now on with ``group``."""
        self._groups[threading.get_ident()] = group

    def _stack(self) -> list[tuple[int, object]]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(ident, [])
        return stack

    def _push(self, adopt: bool) -> tuple[int, int | None, object, list]:
        stack = self._stack()
        if stack:
            parent, group = stack[-1]
        elif adopt and self.inflight is not None:
            parent, group = self.inflight
        else:
            parent, group = None, self._groups.get(threading.get_ident())
        sid = next(self._ids)
        stack.append((sid, group))
        return sid, parent, group, stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, adopt: bool = False):
        """Run ``fn`` inside a span called ``name``; returns its result."""
        sid, parent, group, stack = self._push(adopt)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._spans.append((sid, parent, name, group, threading.get_ident(), start, end, 1, end - start))

    def open(self) -> tuple:
        """Open a span by hand, for the benchmark's own client calls."""
        sid, parent, group, _ = self._push(False)
        return sid, parent, group, perf_counter()

    def close(self, name: str, token: tuple) -> tuple | None:
        """Close a hand-opened span; returns it, or None when not recording."""
        end = perf_counter()
        sid, parent, group, start = token
        self._stack().pop()
        if not self.active:
            return None
        span = (sid, parent, name, group, threading.get_ident(), start, end, 1, end - start)
        self._spans.append(span)
        return span

    def count(self, key: str, value: float = 1.0) -> None:
        if self.active:
            self.counters[key] += value

    @property
    def spans(self) -> list[tuple]:
        """Every recorded span, aggregate leaves included."""
        ids = itertools.count(-1, -1)  # aggregate spans never parent another span
        leaves = [(next(ids), parent, name, group, thread, start, end, calls, busy)
                  for ((parent, group), name, thread), (start, end, calls, busy) in self._leaves.items()]
        return self._spans + leaves

    # -- wrapping ----------------------------------------------------------

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str | Callable[[object], str],
        after: Callable[[tuple, object], None] | None = None,
        adopt: bool = False,
        leaf: bool = False,
    ) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by a traced wrapper.

        ``name`` is a span name or a function of the instance returning one,
        for layers split by the kind of object (deployed vs shadow twin).
        ``after(args, result)`` runs after the call to record counters.
        ``leaf`` records calls as one aggregate span per parent.
        """
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, after, adopt, leaf))

    def wrap_function(
        self,
        function: Callable,
        name: str,
        after: Callable[[tuple, object], None] | None = None,
        adopt: bool = False,
        leaf: bool = False,
    ) -> int:
        """Rebind every ``repro`` module global that names ``function``.

        ``from x import f`` copies the binding, so patching the defining
        module alone would miss callers; returns how many were rebound.
        """
        wrapper = self._wrapper(function, name, after, adopt, leaf)
        rebound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attr, function))
                    setattr(module, attr, wrapper)
                    rebound += 1
        return rebound

    def restore(self) -> None:
        """Undo every wrap, so untraced work runs the program as shipped."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name, after, adopt, leaf):
        tracer = self
        if leaf:
            return self._leaf_wrapper(original, name, after)
        fixed = name if isinstance(name, str) else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span_name = fixed if fixed is not None else name(args[0])
            result = tracer.call(span_name, original, args, kwargs, adopt)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _leaf_wrapper(self, original, name, after):
        """A wrapper folding each call into its parent's aggregate leaf span.

        Kept to a few dictionary operations per call: a plant tick makes
        eight of these calls.
        """
        tracer = self
        stacks = self._stacks
        leaves = self._leaves
        get_ident = threading.get_ident
        clock = perf_counter

        @functools.wraps(original)
        def traced_leaf(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            start = clock()
            result = original(*args, **kwargs)
            end = clock()
            ident = get_ident()
            stack = stacks.get(ident)
            key = (stack[-1] if stack else (None, tracer._groups.get(ident)), name, ident)
            acc = leaves.get(key)
            if acc is None:
                acc = leaves[key] = [start, end, 0, 0.0]
            acc[1] = end
            acc[2] += 1
            acc[3] += end - start
            if after is not None:
                after(args, result)
            return result

        return traced_leaf

    # -- output ------------------------------------------------------------

    def write(self, path, **header: object) -> None:
        """Write a JSON header line, then every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": FIELDS, **header}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time per span id: busy time minus the direct children's busy time."""
    child_busy: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_busy[span[PARENT]] += span[BUSY]
    return {span[SID]: span[BUSY] - child_busy.get(span[SID], 0.0) for span in spans}
