"""Client for the evaluation service (``gear client``).

A thin stdlib-only wrapper over :mod:`http.client`: every call opens
one request on a persistent keep-alive connection, posts the wire body
as canonical JSON, and decodes the JSON response.  Non-2xx responses
raise :class:`ServeError` carrying the status and the daemon's
``error`` message.

:func:`replay` drives a mixed request script concurrently (one
connection per thread) and reports per-request latencies plus the
daemon's memo and coalescing counters — the engine behind
``gear client replay`` and ``benchmarks/bench_serve_load.py``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.serve import protocol
from repro.serve.daemon import DEFAULT_HOST, DEFAULT_PORT

__all__ = ["ServeClient", "ServeError", "replay"]


class ServeError(RuntimeError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServeClient:
    """One keep-alive connection to a serve daemon.

    Not thread-safe — use one client per thread (``replay`` does).
    Usable as a context manager; ``close()`` is idempotent.
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: Optional[http.client.HTTPConnection] = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None) -> Tuple[int, bytes]:
        payload = None if body is None else protocol.canonical_bytes(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        conn = self._connection()
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
        except (ConnectionError, http.client.HTTPException, OSError):
            # The daemon may have closed a kept-alive connection (drain,
            # idle timeout); retry once on a fresh one.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
        if response.will_close:
            self.close()
        return response.status, data

    def request_raw(self, method: str, path: str,
                    body: Optional[Dict] = None) -> Tuple[int, bytes]:
        """Issue one request; returns ``(status, raw response bytes)``."""
        return self._request(method, path, body)

    def _json(self, method: str, path: str,
              body: Optional[Dict] = None) -> Dict:
        status, data = self._request(method, path, body)
        try:
            payload = json.loads(data.decode())
        except ValueError as exc:  # pragma: no cover - defensive
            raise ServeError(status, f"undecodable response: {exc}")
        if status != 200:
            message = payload.get("error", data.decode()) \
                if isinstance(payload, dict) else data.decode()
            raise ServeError(status, str(message))
        return payload

    # -- endpoints -----------------------------------------------------------

    def eval(self, wire: Dict) -> Dict:
        """POST an ``/eval`` wire body; returns the result payload."""
        return self._json("POST", "/eval", wire)

    def eval_raw(self, wire: Dict) -> bytes:
        """POST ``/eval`` and return the raw canonical response bytes.

        These bytes are what the byte-identity guarantee covers: they
        match ``protocol.canonical_bytes(offline_eval_payload(wire))``.
        """
        status, data = self._request("POST", "/eval", wire)
        if status != 200:
            try:
                message = json.loads(data.decode()).get("error", "")
            except ValueError:
                message = data.decode(errors="replace")
            raise ServeError(status, str(message))
        return data

    def verify(self, wire: Optional[Dict] = None) -> Dict:
        return self._json("POST", "/verify", wire or {})

    def experiment(self, wire: Dict) -> Dict:
        return self._json("POST", "/experiment", wire)

    def healthz(self) -> Dict:
        return self._json("GET", "/healthz")

    def stats(self) -> Dict:
        return self._json("GET", "/stats")


def replay(script: List[Dict], host: str = DEFAULT_HOST,
           port: int = DEFAULT_PORT, concurrency: int = 8,
           timeout: float = 60.0) -> Dict:
    """Replay a request script against a daemon, concurrently.

    ``script`` is a list of ``{"endpoint": "eval"|"verify"|"experiment",
    "body": {...}}`` items (a bare eval wire body is accepted as
    shorthand).  Returns latency and error aggregates plus the daemon's
    memo and coalescing counters sampled before and after the run, so
    callers can attribute hits to this replay: ``memo.hits`` requests
    were answered from memory, ``coalesce.hits`` shared a computation in
    flight, and ``coalesce.misses`` computed.
    """
    items = []
    for i, item in enumerate(script):
        if not isinstance(item, dict):
            raise ValueError(f"script item {i} must be an object")
        if "endpoint" in item:
            endpoint, body = str(item["endpoint"]), item.get("body", {})
        else:
            endpoint, body = "eval", item
        if endpoint not in ("eval", "verify", "experiment"):
            raise ValueError(f"script item {i}: unknown endpoint "
                             f"{endpoint!r}")
        items.append((endpoint, body))

    local = threading.local()

    def client() -> ServeClient:
        if getattr(local, "client", None) is None:
            local.client = ServeClient(host, port, timeout=timeout)
        return local.client

    def one(item: Tuple[str, Dict]) -> Tuple[float, Optional[str]]:
        endpoint, body = item
        t0 = time.perf_counter()
        try:
            getattr(client(), endpoint)(body)
            return time.perf_counter() - t0, None
        except ServeError as exc:
            return time.perf_counter() - t0, str(exc)

    with ServeClient(host, port, timeout=timeout) as probe:
        before = probe.stats()["server"]
        with ThreadPoolExecutor(max_workers=max(1, int(concurrency))) as pool:
            outcomes = list(pool.map(one, items))
        after = probe.stats()["server"]

    latencies = sorted(t for t, _ in outcomes)
    errors = [err for _, err in outcomes if err is not None]

    def pct(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1,
                             max(0, int(q * len(latencies)) - 1))]

    hits = after["coalesce"]["hits"] - before["coalesce"]["hits"]
    misses = after["coalesce"]["misses"] - before["coalesce"]["misses"]
    total = hits + misses
    return {
        "requests": len(items),
        "errors": errors,
        "latency_s": {
            "p50": pct(0.50),
            "p99": pct(0.99),
            "max": latencies[-1] if latencies else 0.0,
        },
        "memo": {
            "hits": after["memo"]["hits"] - before["memo"]["hits"],
        },
        "coalesce": {
            "hits": hits,
            "misses": misses,
            "rate": hits / total if total else 0.0,
        },
    }
