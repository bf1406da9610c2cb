"""Always-on evaluation service (``gear serve`` / ``gear client``).

``repro.serve`` turns the offline engine into a long-running daemon so
repeated evaluation traffic amortises the expensive parts — compiled
bit-sliced kernels, resolved adder models, analytic plans — across
requests instead of per process:

* :mod:`repro.serve.protocol` — JSON wire protocol, adder references,
  canonical response encoding (byte-identical to ``gear ... --json``),
* :mod:`repro.serve.memo` — bounded memo of completed response bytes
  keyed by result identity,
* :mod:`repro.serve.coalesce` — in-flight request coalescing keyed by
  the same identity,
* :mod:`repro.serve.pool` — persistent warm worker pool with telemetry
  frames shipped back across process boundaries,
* :mod:`repro.serve.daemon` — the asyncio HTTP daemon: ``/eval``,
  ``/verify``, ``/experiment``, ``/healthz``, ``/stats``; graceful
  SIGTERM drain,
* :mod:`repro.serve.client` — stdlib client plus the concurrent
  ``replay`` driver.

See ``docs/serve.md`` for the protocol and deployment notes.
"""

from repro.serve.coalesce import Coalescer
from repro.serve.daemon import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ServeDaemon,
    start_background,
)
from repro.serve.memo import ResultMemo
from repro.serve.pool import WorkerPool
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    build_request,
    canonical_bytes,
    eval_coalesce_key,
    offline_eval_payload,
    resolve_adder,
)
from repro.serve.client import ServeClient, ServeError, replay

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "Coalescer",
    "ProtocolError",
    "ResultMemo",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "WorkerPool",
    "build_request",
    "canonical_bytes",
    "eval_coalesce_key",
    "offline_eval_payload",
    "replay",
    "resolve_adder",
    "start_background",
]
