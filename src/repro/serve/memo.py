"""Completed-result memo: the daemon's first answering tier.

``/verify``, ``/experiment`` and every seeded or exhaustive ``/eval``
are deterministic functions of their result identity (the key
:meth:`~repro.serve.daemon.ServeDaemon._coalesce_key` derives), so a
request repeated after its first computation finished can be answered
with the bytes that computation produced.  The daemon consults this
memo before the :class:`~repro.serve.coalesce.Coalescer`, which keeps
its in-flight-only contract: remembered, then coalesced, then computed
by a worker (which reads or writes the shard cache).

Only successful (HTTP 200) response bodies with a non-None identity are
stored, already in the :func:`~repro.serve.protocol.canonical_bytes`
encoding, so a hit skips JSON encoding too and the size accounting is
exact.  The memo is single-loop state like the coalescer: every method
must be called from the daemon's event loop.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

__all__ = ["MEMO_BYTES", "ResultMemo"]

#: Encoded response bytes the daemon's memo holds before it evicts the
#: least recently used body.
MEMO_BYTES = 64 * 1024 * 1024


class ResultMemo:
    """Least-recently-used map of result identities to encoded bodies."""

    def __init__(self, max_bytes: int = MEMO_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._bodies: "OrderedDict[str, bytes]" = OrderedDict()
        self.bytes = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._bodies)

    def get(self, key: str) -> Optional[bytes]:
        """The remembered body for ``key`` (a hit), or None."""
        body = self._bodies.get(key)
        if body is not None:
            self._bodies.move_to_end(key)
            self.hits += 1
        return body

    def put(self, key: str, body: bytes) -> None:
        """Remember ``body``, evicting the oldest bodies past the budget.

        A body larger than the whole budget is not stored.
        """
        if len(body) > self.max_bytes:
            return
        old = self._bodies.pop(key, None)
        if old is not None:
            self.bytes -= len(old)
        self._bodies[key] = body
        self.bytes += len(body)
        while self.bytes > self.max_bytes:
            _, evicted = self._bodies.popitem(last=False)
            self.bytes -= len(evicted)
