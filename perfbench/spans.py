"""In-memory span recording for the benchmark's traced runs.

The benchmark records one span around every public call it makes into
the program (``spec``, ``engine``, ``experiments``, ``rtl``, ``verify``
and, over HTTP, ``serve``).  Spans live in memory while the workload
runs and are written out once at the end in the program's own
``repro.obs`` JSONL trace format, so ``gear obs report`` renders a
benchmark trace without any reader of its own.

Untraced runs use :data:`NULL_TRACER`, whose spans cost one shared
no-op context manager each.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

__all__ = ["NULL_TRACER", "Tracer", "layer_totals", "write_trace"]


class _NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def begin_op(self, op_id: int) -> None:
        pass

    def record(self, name: str, start: float, end: float,
               op_id: Optional[int] = None, error: bool = False) -> None:
        pass


NULL_TRACER = _NullTracer()


class Tracer:
    """Nested span recorder: name, start, end, parent and op id per span.

    ``span()`` nests per thread; ``record()`` adds an already-timed leaf
    span (the serve client threads time their own round trips).
    Timestamps are ``time.perf_counter()`` seconds relative to the
    tracer's creation.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.events: List[Dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _new_id(self) -> int:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            return sid

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id: int) -> None:
        """Tag the spans this thread opens from now on with ``op_id``."""
        self._local.op = op_id

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = self._new_id()
        parent = stack[-1][0] if stack else None
        path = "/".join([entry[1] for entry in stack] + [name])
        stack.append((sid, path))
        start = time.perf_counter()
        error = True
        try:
            yield
            error = False
        finally:
            end = time.perf_counter()
            stack.pop()
            self._append(sid, parent, name, path, start, end,
                         getattr(self._local, "op", None), error)

    def record(self, name: str, start: float, end: float,
               op_id: Optional[int] = None, error: bool = False) -> None:
        self._append(self._new_id(), None, name, name, start, end, op_id,
                     error)

    def _append(self, sid, parent, name, path, start, end, op_id,
                error) -> None:
        event = {
            "kind": "span", "id": sid, "parent": parent, "op": op_id,
            "name": name, "path": path,
            "start_s": start - self.origin, "end_s": end - self.origin,
            "dur_s": end - start,
        }
        if error:
            event["error"] = True
        with self._lock:
            self.events.append(event)


def layer_totals(events) -> Dict[str, Dict]:
    """Per span name: calls, errors, busy (self) seconds and durations.

    A span's self time is its duration minus the time its direct child
    spans cover, so an op span never double-counts the layer calls
    inside it.
    """
    child_s: Dict[int, float] = defaultdict(float)
    for event in events:
        if event["parent"] is not None:
            child_s[event["parent"]] += event["dur_s"]
    totals: Dict[str, Dict] = {}
    for event in events:
        entry = totals.setdefault(event["name"], {
            "calls": 0, "errors": 0, "error_s": 0.0, "self_s": 0.0,
            "durations": []})
        entry["calls"] += 1
        entry["self_s"] += event["dur_s"] - child_s.get(event["id"], 0.0)
        entry["durations"].append(event["dur_s"])
        if event.get("error"):
            entry["errors"] += 1
            entry["error_s"] += event["dur_s"]
    return totals


def write_trace(path, events, program_frame, label: str) -> None:
    """Write spans plus the program's telemetry as one repro.obs trace.

    The frame carries the program's own counters and spans merged with
    the benchmark's spans (as ``perfbench/...`` paths), so the standard
    report lists both.
    """
    from repro.obs import Collector, write_trace as obs_write_trace

    bench = Collector()
    for event in events:
        bench.record_span("perfbench/" + event["path"], event["dur_s"])
    frame = bench.snapshot().merge(program_frame)
    obs_write_trace(path, frame, events=events, label=label)
