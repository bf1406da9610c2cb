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
exact.

Beside the bodies, the memo keeps *aliases*: the SHA-256 of a request's
exact ``(path, body bytes)`` mapped to the identity derived from it.  A
byte-identical repeat is then answered by :meth:`ResultMemo.recall`
without parsing JSON or deriving its identity again.  An alias is only
written for a request whose identity was derived (so its body was
validated) and whose identity's body is remembered; an alias whose body
was evicted since answers nothing.  Bodies and aliases share one LRU
order and the one :data:`MEMO_BYTES` budget; an alias is charged its
digest plus its identity.

The memo is single-loop state like the coalescer: every method must be
called from the daemon's event loop.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional, Union

__all__ = ["MEMO_BYTES", "ResultMemo"]

#: Encoded response bytes (plus aliases) the daemon's memo holds before
#: it evicts the least recently used entry.
MEMO_BYTES = 64 * 1024 * 1024


def _alias(path: str, raw: bytes) -> bytes:
    # A request path never holds a newline, so the join is unambiguous.
    return hashlib.sha256(path.encode() + b"\n" + raw).digest()


def _cost(entry: Union[str, bytes], value: Union[bytes, str]) -> int:
    """Budget charge: a body's length, or an alias's digest + identity."""
    return len(value) if isinstance(value, bytes) else len(entry) + len(value)


class ResultMemo:
    """Least-recently-used map of result identities to encoded bodies,
    and of exact request bytes to result identities."""

    def __init__(self, max_bytes: int = MEMO_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        # identity (str) -> body (bytes), and alias (bytes) -> identity
        self._entries: "OrderedDict[Union[str, bytes], Union[bytes, str]]" \
            = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.aliases = 0

    def __len__(self) -> int:
        """Bodies held (aliases are counted in :attr:`aliases`)."""
        return len(self._entries) - self.aliases

    def get(self, key: str) -> Optional[bytes]:
        """The remembered body for ``key`` (a hit), or None."""
        body = self._entries.get(key)
        if body is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return body

    def recall(self, path: str, raw: bytes) -> Optional[bytes]:
        """The remembered body for an exact repeat of ``raw`` POSTed to
        ``path`` (a hit), or None: then the request takes the full path."""
        alias = _alias(path, raw)
        key = self._entries.get(alias)
        if key is None:
            return None
        body = self._entries.get(key)
        if body is None:  # its body was evicted: the alias is dead
            self._drop(alias)
            return None
        self._entries.move_to_end(key)
        self._entries.move_to_end(alias)
        self.hits += 1
        return body

    def put(self, key: str, body: bytes) -> None:
        """Remember ``body``, evicting the oldest entries past the budget.

        A body larger than the whole budget is not stored.
        """
        self._store(key, body)

    def alias(self, path: str, raw: bytes, key: str) -> None:
        """Let an exact repeat of ``raw`` POSTed to ``path`` recall the body
        of ``key``, the identity derived from it.  A no-op unless that
        body is remembered."""
        if key in self._entries:
            self._store(_alias(path, raw), key)

    def _store(self, entry: Union[str, bytes],
               value: Union[bytes, str]) -> None:
        cost = _cost(entry, value)
        if cost > self.max_bytes:
            return
        if entry in self._entries:
            self._drop(entry)
        self._entries[entry] = value
        self.bytes += cost
        self.aliases += isinstance(value, str)
        while self.bytes > self.max_bytes:
            self._drop(next(iter(self._entries)))

    def _drop(self, entry: Union[str, bytes]) -> None:
        value = self._entries.pop(entry)
        self.bytes -= _cost(entry, value)
        self.aliases -= isinstance(value, str)
