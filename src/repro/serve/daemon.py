"""The always-on evaluation daemon (``gear serve``).

A stdlib-only asyncio HTTP/1.1 server exposing the evaluation engine,
the conformance harness and the experiment registry as five endpoints:

* ``POST /eval`` — one :class:`~repro.engine.api.EvalRequest` by wire
  reference; the response body is byte-identical to the offline
  engine's canonical JSON for the same request at any worker count.
* ``POST /verify`` — the service-side conformance runner
  (:func:`repro.verify.runner.verify_payload`).
* ``POST /experiment`` — any registered experiment by name.
* ``GET /healthz`` — liveness, protocol version, drain state.
* ``GET /stats`` — per-endpoint request counters, memo and coalescing
  totals, p50/p99 latency from mergeable histograms, and the full
  telemetry report aggregated across worker frames.

Request flow: the event loop parses HTTP.  A POST whose exact bytes
were answered before is served at once from the
:class:`~repro.serve.memo.ResultMemo` of completed 200 bodies.  Any
other request has its wire body validated (bad requests never reach a
worker) and its result identity derived, timed as the
``serve.<endpoint>.resolve`` span.  A request whose identity was
answered before is served from the memo; any
other goes to the :class:`~repro.serve.coalesce.Coalescer` — concurrent
duplicates share one worker-pool task.  Workers return ``(payload,
telemetry frame)``; the daemon encodes the payload once, remembers the
bytes, and absorbs the frame into its aggregate collector, which is
the single source for ``/stats`` and, on shutdown, for the global obs
layer (so ``gear serve --trace serve.jsonl`` writes a standard trace
that ``gear obs report`` renders).

Shutdown: SIGTERM/SIGINT (or :meth:`ServeDaemon.stop`) stops accepting
connections, drains in-flight requests up to ``drain_timeout``, closes
the pool, flushes telemetry, and exits 0.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
from typing import Callable, Dict, Optional, Tuple, Union

from repro import obs
from repro.obs.aggregate import DURATION_BOUNDS, TelemetryFrame
from repro.obs.export import report_to_json
from repro.serve import protocol
from repro.serve.coalesce import Coalescer
from repro.serve.memo import ResultMemo
from repro.serve.pool import WorkerPool

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "ServeDaemon", "start_background"]

DEFAULT_HOST = "127.0.0.1"

#: Default TCP port — the paper's year, in the dynamic range's shadow.
DEFAULT_PORT = 8015

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}

#: Endpoints that accept a POSTed wire body, mapped to pool handlers.
_POST_ENDPOINTS = ("/eval", "/verify", "/experiment")

_MAX_HEADER_LINES = 100
_MAX_LINE_BYTES = 16 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024


class ServeDaemon:
    """One always-on evaluation service instance."""

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 workers: int = 0, jobs: int = 1,
                 cache: Optional[str] = None,
                 cache_bytes: Optional[int] = None,
                 drain_timeout: float = 30.0,
                 ready: Optional[Callable[["ServeDaemon"], None]] = None
                 ) -> None:
        self.host = host
        self.port = int(port)  # updated to the bound port after start
        self.workers = int(workers)
        self._pool_config = {"jobs": jobs, "cache": cache,
                             "cache_bytes": cache_bytes}
        self.drain_timeout = float(drain_timeout)
        self._ready = ready
        self.collector = obs.Collector()
        self.memo = ResultMemo()
        self.coalescer = Coalescer()
        self.pool: Optional[WorkerPool] = None
        self.draining = False
        self._inflight = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._connections: set = set()
        #: Set once the server socket is bound (for background starts).
        self.started = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and spin up the worker pool."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self.pool = WorkerPool(workers=self.workers, **self._pool_config)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started.set()
        if self._ready is not None:
            self._ready(self)

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown (callable from the event loop)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    def stop(self) -> None:
        """Thread-safe shutdown request (for background daemons)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_shutdown)

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                signal.signal(sig, lambda *_: self.stop())

    async def run_async(self, install_signals: bool = True) -> int:
        """Serve until a shutdown request, then drain and exit cleanly."""
        await self.start()
        if install_signals:
            self._install_signal_handlers()
        await self._shutdown_event.wait()
        # Stop accepting new connections, then let in-flight requests
        # finish; keep-alive loops see `draining` and close after the
        # response they are currently producing.
        self.draining = True
        self._server.close()
        await self._server.wait_closed()
        await self._drain()
        # Close idle keep-alive connections so their handler tasks see
        # EOF and finish on their own — loop teardown must not have to
        # cancel them (that leaks noisy CancelledError callbacks).
        for writer in list(self._connections):
            writer.close()
        tasks = [t for t in asyncio.all_tasks()
                 if t is not asyncio.current_task()]
        if tasks:
            await asyncio.wait(tasks, timeout=5.0)
        self.pool.shutdown(wait=True)
        self._flush_telemetry()
        return 0

    def run(self) -> int:
        """Blocking entry point used by ``gear serve``."""
        return asyncio.run(self.run_async())

    async def _drain(self) -> None:
        deadline = self._loop.time() + self.drain_timeout
        while self._inflight > 0 and self._loop.time() < deadline:
            await asyncio.sleep(0.02)

    def _flush_telemetry(self) -> None:
        """Fold the daemon aggregate into the global obs layer.

        A no-op when observability is off; under ``gear serve --trace``
        the CLI's active collector receives the frame and writes the
        standard JSONL trace on exit.
        """
        obs.absorb(self.collector.snapshot())

    # -- HTTP ----------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, keep_alive, body = request
                self._inflight += 1
                t0 = self._loop.time()
                try:
                    status, payload = await self._dispatch(method, path, body)
                finally:
                    self._inflight -= 1
                known = path in _POST_ENDPOINTS or path in ("/healthz",
                                                            "/stats")
                endpoint = path.lstrip("/") if known else "other"
                self.collector.count(f"serve.{endpoint}.requests")
                self.collector.observe(f"serve.{endpoint}.duration_s",
                                       self._loop.time() - t0,
                                       bounds=DURATION_BOUNDS)
                if status != 200:
                    self.collector.count("serve.errors")
                keep_alive = keep_alive and not self.draining
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError,
                BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, bool, bytes]]:
        """Parse one HTTP/1.1 request; None on EOF/malformed stream."""
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):  # pragma: no cover
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > _MAX_LINE_BYTES:
                return None
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            return None
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return None
        if length < 0 or length > _MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        # Strip any query string; the protocol is body-only.
        path = target.split("?", 1)[0]
        return method.upper(), path, keep_alive, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Union[Dict, bytes], keep_alive: bool) -> None:
        # Worker answers arrive already encoded (the memo keeps bytes).
        body = (payload if isinstance(payload, bytes)
                else protocol.canonical_bytes(payload))
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> Tuple[int, Union[Dict, bytes]]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            return 200, self._health_payload()
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "stats is GET-only"}
            return 200, self._stats_payload()
        if path not in _POST_ENDPOINTS:
            return 404, {"error": f"unknown path {path!r}; endpoints: "
                         f"{list(_POST_ENDPOINTS) + ['/healthz', '/stats']}"}
        if method != "POST":
            return 405, {"error": f"{path} needs POST"}
        endpoint = path.lstrip("/")
        # An exact repeat of a request answered before skips parsing
        # and identity derivation.
        remembered = self.memo.recall(path, body)
        if remembered is not None:
            self.collector.count(f"serve.{endpoint}.remembered")
            return 200, remembered
        with self.collector.span(f"serve.{endpoint}.resolve"):
            try:
                wire = json.loads(body.decode() or "null")
            except (UnicodeDecodeError, ValueError) as exc:
                return 400, {"error": f"request body is not valid JSON: "
                             f"{exc}"}
            try:
                key = self._coalesce_key(endpoint, wire)
            except ValueError as exc:  # ProtocolError, unsupported backend
                return 400, {"error": str(exc)}

        if key is not None:
            remembered = self.memo.get(key)
            if remembered is not None:
                self.memo.alias(path, body, key)
                self.collector.count(f"serve.{endpoint}.remembered")
                return 200, remembered
        try:
            answer, coalesced = await self.coalescer.run(
                key, lambda: self._execute(endpoint, wire, key))
        except protocol.ProtocolError as exc:
            self.collector.count(f"serve.{endpoint}.protocol_errors")
            return 400, {"error": str(exc)}
        except ValueError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # worker crash — never take the daemon down
            self.collector.count(f"serve.{endpoint}.failures")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        self.collector.count(
            f"serve.coalesce.{'hit' if coalesced else 'miss'}")
        if key is not None:
            self.memo.alias(path, body, key)
        return 200, answer

    def _coalesce_key(self, endpoint: str, wire: Dict) -> Optional[str]:
        """Validate the wire body and derive its result identity.

        The identity keys both the memo and the coalescer; None (an
        unseeded Monte-Carlo draw) is neither remembered nor coalesced.
        """
        if endpoint == "eval":
            return protocol.eval_coalesce_key(protocol.build_request(wire))
        if endpoint == "verify":
            protocol.build_verify_options(wire)  # validation only
        else:
            protocol.build_experiment(wire)
        return protocol.wire_coalesce_key(endpoint, wire)

    async def _execute(self, endpoint: str, wire: Dict,
                       key: Optional[str]) -> bytes:
        """Ship one request to the pool, fold its telemetry home, and
        remember the encoded answer under ``key`` (None: not at all).

        The memo is written before the coalescer releases ``key``, so no
        repeat can fall between the two tiers and compute again.
        """
        self.collector.count(f"serve.{endpoint}.computed")
        future = self.pool.submit(endpoint, wire)
        payload, frame = await asyncio.wrap_future(future)
        if frame:
            self.collector.absorb(TelemetryFrame.from_dict(frame))
        body = protocol.canonical_bytes(payload)
        if key is not None:
            self.memo.put(key, body)
        return body

    # -- introspection payloads ----------------------------------------------

    def _health_payload(self) -> Dict:
        return {
            "status": "draining" if self.draining else "ok",
            "protocol": protocol.PROTOCOL_VERSION,
            "workers": self.workers,
            "endpoints": list(_POST_ENDPOINTS) + ["/healthz", "/stats"],
        }

    def _stats_payload(self) -> Dict:
        frame = self.collector.snapshot()
        latency = {}
        for name, hist in sorted(frame.histograms.items()):
            if not name.endswith(".duration_s"):
                continue
            endpoint = name[: -len(".duration_s")]
            p50, p99 = hist.quantile(0.5), hist.quantile(0.99)
            latency[endpoint] = {
                "count": hist.count,
                "mean_s": hist.mean,
                "p50_s": p50 if math.isfinite(p50) else None,
                "p99_s": p99 if math.isfinite(p99) else None,
            }
        return {
            "server": {
                "workers": self.workers,
                "draining": self.draining,
                "inflight_requests": self._inflight,
                "worker_respawns": self.pool.respawns,
                "memo": {
                    "hits": self.memo.hits,
                    "entries": len(self.memo),
                    "aliases": self.memo.aliases,
                    "bytes": self.memo.bytes,
                },
                "coalesce": {
                    "hits": self.coalescer.hits,
                    "misses": self.coalescer.misses,
                    "inflight_keys": self.coalescer.inflight,
                },
            },
            "latency": latency,
            "telemetry": report_to_json(frame),
        }


def start_background(daemon: ServeDaemon,
                     timeout: float = 15.0) -> threading.Thread:
    """Run a daemon on a background thread (tests and the load bench).

    The caller owns shutdown: ``daemon.stop()`` then ``thread.join()``.
    """
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.run_async(install_signals=False)),
        name="gear-serve", daemon=True)
    thread.start()
    if not daemon.started.wait(timeout):  # pragma: no cover - defensive
        raise RuntimeError("serve daemon failed to start within "
                           f"{timeout:.0f}s")
    return thread
