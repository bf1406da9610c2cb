"""Client for the evaluation service (``gear client``).

A thin stdlib-only HTTP/1.1 client over one persistent TCP socket (with
``TCP_NODELAY``): each request is a single ``sendall`` of the request
line, headers and canonical JSON body, and each response is one
buffered read of the status line, the headers and exactly
``Content-Length`` body bytes.  Non-2xx responses raise
:class:`ServeError` carrying the status and the daemon's ``error``
message; a response that is not a ``Content-Length`` framed HTTP/1.1
answer (malformed status line, chunked encoding, short body) raises
:class:`ConnectionError`.

:func:`replay` drives a mixed request script concurrently (one
connection per thread) and reports per-request latencies plus the
daemon's memo and coalescing counters — the engine behind
``gear client replay`` and ``benchmarks/bench_serve_load.py``.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.serve import protocol
from repro.serve.daemon import (
    _MAX_HEADER_LINES,
    _MAX_LINE_BYTES,
    DEFAULT_HOST,
    DEFAULT_PORT,
)

__all__ = ["ServeClient", "ServeError", "replay"]


class ServeError(RuntimeError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _read_line(rfile: io.BufferedReader, what: str) -> bytes:
    line = rfile.readline(_MAX_LINE_BYTES + 1)
    if not line.endswith(b"\n"):
        raise ConnectionError(f"truncated or oversized {what}: {line[:80]!r}")
    return line


def _read_response(rfile: io.BufferedReader) -> Tuple[int, bytes, bool]:
    """Read one response; returns ``(status, body, connection closes)``."""
    if not rfile.peek(1):
        # EOF before any byte: a dropped connection, the retryable case.
        raise ConnectionResetError(
            "daemon closed the connection without a response")
    first = _read_line(rfile, "status line")
    parts = first.split(None, 2)
    if (len(parts) < 2 or parts[0] != b"HTTP/1.1" or len(parts[1]) != 3
            or not parts[1].isdigit()):
        raise ConnectionError(f"malformed status line: {first[:80]!r}")
    status = int(parts[1])
    closes = False
    length = None
    for _ in range(_MAX_HEADER_LINES):
        line = _read_line(rfile, "header line")
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.partition(b":")
        if not sep:
            raise ConnectionError(f"malformed header line: {line[:80]!r}")
        name, value = name.strip().lower(), value.strip()
        if name == b"content-length":
            if not value.isdigit():
                raise ConnectionError(f"bad Content-Length: {value[:80]!r}")
            length = int(value)
        elif name == b"transfer-encoding":
            raise ConnectionError(f"unsupported Transfer-Encoding: "
                                  f"{value[:80]!r}")
        elif name == b"connection":
            closes = value.lower() == b"close"
    else:
        raise ConnectionError(f"more than {_MAX_HEADER_LINES} header lines")
    if length is None:
        raise ConnectionError("response has no Content-Length")
    body = rfile.read(length)
    if len(body) != length:
        raise ConnectionError(f"short response body: {len(body)} of "
                              f"{length} bytes")
    return status, body, closes


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
        self._host_header = f"Host: {host}:{self.port}\r\n"
        self._sock: Optional[socket.socket] = None
        self._rfile: Optional[io.BufferedReader] = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def _exchange(self, message: bytes) -> Tuple[int, bytes, bool]:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port),
                                            self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._rfile = sock, sock.makefile("rb")
        self._sock.sendall(message)
        return _read_response(self._rfile)

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None) -> Tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\n{self._host_header}"
        if body is None:
            message = (head + "\r\n").encode("latin-1")
        else:
            payload = protocol.canonical_bytes(body)
            message = (f"{head}Content-Type: application/json\r\n"
                       f"Content-Length: {len(payload)}\r\n\r\n"
                       ).encode("latin-1") + payload
        reused = self._sock is not None
        try:
            try:
                status, data, closes = self._exchange(message)
            except (ConnectionResetError, ConnectionAbortedError,
                    BrokenPipeError):
                # The daemon may have closed a kept-alive connection
                # (drain, idle timeout); retry once on a fresh one.
                if not reused:
                    raise
                self.close()
                status, data, closes = self._exchange(message)
        except BaseException:
            # Whatever failed (timeout, malformed response), the stream
            # is out of step with the daemon: never reuse it.
            self.close()
            raise
        if closes:
            self.close()
        return status, data

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
    clients: List[ServeClient] = []

    def client() -> ServeClient:
        if getattr(local, "client", None) is None:
            local.client = ServeClient(host, port, timeout=timeout)
            clients.append(local.client)
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
        try:
            with ThreadPoolExecutor(
                    max_workers=max(1, int(concurrency))) as pool:
                outcomes = list(pool.map(one, items))
        finally:
            # One connection per pool thread; close them all once the
            # pool has joined.
            for each in clients:
                each.close()
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
