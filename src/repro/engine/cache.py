"""Content-addressed on-disk cache: one self-verifying record per request.

A record answers one whole cacheable request.  It is stored at
``key_digest(key)`` and holds the key itself next to the body::

    {"key": {...}, "body": {...}}

For the sharded simulator the key is the request material of
:func:`~repro.engine.api.request_key_material` plus the shard
granularity and the root seed entropy, and the body holds every shard's
:class:`~repro.engine.merge.PartialStats` in canonical shard order.  The
analytic backend keys on the bare request material and stores its whole
error PMF.  The request material always names the *resolved evaluation
backend*, so records of different backends live under disjoint digests
and can never be served for one another.

A record counts only if it verifies: it parses as a JSON object whose
embedded key hashes to its own file name (hence equals the requested
key), and its body passes the caller's ``decode``.  Anything else — a
truncated file, a non-dict payload, a foreign or keyless record, a body
the caller rejects — is moved aside into ``<root>/quarantine/``,
counted as ``engine.cache.corrupt`` and reported as a miss, so the
caller recomputes and rewrites it.  A bad record is never served.

Layout: ``<root>/<digest[:2]>/<digest>.json`` (git-object style fan-out
so a directory never accumulates millions of entries).  Writes go to a
``tempfile.mkstemp`` file in the target directory and are published
with ``os.replace``, so concurrent writers — threads or processes — can
never observe or produce a torn record.

A ``max_bytes`` cap bounds the store: when the estimated on-disk size
exceeds it, :meth:`ShardCache.prune` evicts records oldest-first (by
mtime) until the store fits — but never a record written by the current
process, so a run can always warm-start from its own work.  Loads,
stores and evictions are reported through :mod:`repro.obs`
(``engine.cache.hit`` / ``miss`` / ``store`` / ``corrupt`` /
``evicted`` counters, ``bytes_read`` / ``bytes_written``, and the
``engine.cache.io`` span around every record read and write).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro import obs
from repro.engine import api

PathLike = Union[str, pathlib.Path]

#: Default cache location used by the CLI's bare ``--cache`` flag.
DEFAULT_CACHE_DIR = ".gear-cache"

#: Sub-directory of the cache root that holds records which failed to
#: verify; never read back, emptied by :meth:`ShardCache.clear`.
QUARANTINE_DIR = "quarantine"


def _verified_body(text: str, digest: str) -> dict:
    """The body of record ``text`` stored under ``digest``.

    Raises ValueError unless ``text`` is a JSON object whose embedded key
    hashes to ``digest`` and whose body is an object.
    """
    record = json.loads(text)
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    key = record.get("key")
    if not isinstance(key, dict) or api.key_digest(key) != digest:
        raise ValueError("embedded key does not match the record's digest")
    body = record.get("body")
    if not isinstance(body, dict):
        raise ValueError("record body is not a JSON object")
    return body


class ShardCache:
    """Content-addressed store of request records with hit/miss counters.

    Args:
        root: cache directory (created lazily on first store).
        max_bytes: size cap; None (the default) leaves the store
            unbounded.  Enforced opportunistically after stores — the
            store may transiently exceed the cap by one record before
            pruning brings it back under.
    """

    def __init__(self, root: PathLike = DEFAULT_CACHE_DIR,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = pathlib.Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        #: Digests written by this process — never evicted by prune().
        self._protected: Set[str] = set()
        # Lazily initialised running estimate of the on-disk size; kept
        # in sync by store_record() so pruning does not rescan each write.
        self._approx_bytes: Optional[int] = None

    def _path(self, digest: str) -> pathlib.Path:
        return self.root / digest[:2] / f"{digest}.json"

    # -- records ------------------------------------------------------------

    def load_record(self, key: Dict[str, Any],
                    decode: Callable[[dict], Any] = lambda body: body) -> Any:
        """Return ``decode(body)`` of the record stored under ``key``, or None.

        A missing record is a plain miss.  A record that fails to verify,
        or whose body ``decode`` rejects with ValueError / KeyError /
        TypeError, is quarantined, counted as ``engine.cache.corrupt``
        and also reported as a miss.
        """
        digest = api.key_digest(key)
        path = self._path(digest)
        with obs.span("engine.cache.io"):
            try:
                text = path.read_text()
                value = decode(_verified_body(text, digest))
            except OSError:  # absent or unreadable: a plain miss
                text = None
            except (ValueError, KeyError, TypeError):
                self._quarantine(path)
                text = None
        if text is None:
            self.misses += 1
            obs.count("engine.cache.miss")
            return None
        self.hits += 1
        obs.count("engine.cache.hit")
        obs.count("engine.cache.bytes_read", len(text))
        return value

    def store_record(self, key: Dict[str, Any], body: Dict[str, Any]) -> str:
        """Persist ``body`` under ``key`` atomically; returns the digest."""
        digest = api.key_digest(key)
        path = self._path(digest)
        with obs.span("engine.cache.io"):
            text = json.dumps({"key": key, "body": body}, sort_keys=True)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f".{digest}.", suffix=".tmp",
                                       dir=path.parent)
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        self.writes += 1
        self._protected.add(digest)
        obs.count("engine.cache.store")
        obs.count("engine.cache.bytes_written", len(text))
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.disk_usage()[1]
            else:
                self._approx_bytes += len(text)
            if self._approx_bytes > self.max_bytes:
                self.prune()
        return digest

    def verify(self, digest: str) -> bool:
        """True iff the record under ``digest`` is readable and verifies.

        Read-only: unlike :meth:`load_record` a bad record is reported,
        not quarantined (``gear cache stats`` uses this).
        """
        try:
            _verified_body(self._path(digest).read_text(), digest)
        except (OSError, ValueError):
            return False
        return True

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a record that failed to verify out of the lookup path."""
        target = self.root / QUARANTINE_DIR / path.name
        with contextlib.suppress(OSError):
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        obs.count("engine.cache.corrupt")

    # -- maintenance --------------------------------------------------------

    def _entries(self) -> List[Tuple[float, pathlib.Path, int]]:
        """(mtime, path, size) of every record; stat races drop the record."""
        entries: List[Tuple[float, pathlib.Path, int]] = []
        if not self.root.is_dir():
            return entries
        for path in self.root.glob("??/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
        return entries

    def digests(self) -> Iterator[str]:
        """All digests currently present on disk."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            yield path.stem

    def disk_usage(self) -> Tuple[int, int]:
        """(record count, total bytes) currently on disk."""
        entries = self._entries()
        return len(entries), sum(size for _, _, size in entries)

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict oldest records until the store fits ``max_bytes``.

        Records written by this process are exempt — a run never evicts
        its own work, even if that leaves the store above the cap.
        Returns the number of records removed.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            raise ValueError("prune needs a size cap (max_bytes)")
        entries = sorted(self._entries(), key=lambda e: (e[0], e[1].name))
        total = sum(size for _, _, size in entries)
        removed = 0
        for _, path, size in entries:
            if total <= cap:
                break
            if path.stem in self._protected:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        self.evictions += removed
        self._approx_bytes = total
        if removed:
            obs.count("engine.cache.evicted", removed)
        return removed

    def clear(self) -> int:
        """Remove every record (protected or not) and the quarantine.

        Returns the number of records removed.
        """
        removed = 0
        for _, path, _ in self._entries():
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        for path in (self.root / QUARANTINE_DIR).glob("*.json"):
            with contextlib.suppress(OSError):
                path.unlink()
        self._protected.clear()
        self._approx_bytes = 0
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardCache(root={str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses})")

