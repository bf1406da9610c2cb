"""Tests for the record cache's size cap, eviction and concurrent writers."""

import os
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import obs
from repro.core.gear import GeArAdder, GeArConfig
from repro.engine import Engine, EvalRequest, api
from repro.engine.cache import ShardCache
from repro.engine.merge import PartialStats


def _partial(samples: int = 100) -> PartialStats:
    return PartialStats(samples=samples, err_count=1, sum_ed=2.0, sum_red=0.1,
                        sum_amp=90.0, sum_inf=80.0, max_ed=4, maa_hits=((0.9, 5),))


def _key(tag: str) -> dict:
    """A record key; equal-length tags give equal-size records."""
    return {"v": 1, "entry": tag}


def _body() -> dict:
    return {"partials": [_partial().to_dict()]}


def _fill(cache: ShardCache, count: int, prefix: str = "aa") -> list:
    return [cache.store_record(_key(f"{prefix}{i:04d}"), _body())
            for i in range(count)]


def _age(cache: ShardCache, digests, start: float):
    """Give entries strictly increasing, well-separated mtimes."""
    for i, digest in enumerate(digests):
        os.utime(cache._path(digest), (start + i, start + i))


class TestPrune:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ShardCache(tmp_path, max_bytes=-1)
        with pytest.raises(ValueError, match="size cap"):
            ShardCache(tmp_path).prune()

    def test_oldest_entries_evicted_first(self, tmp_path):
        writer = ShardCache(tmp_path)
        digests = _fill(writer, 6)
        _age(writer, digests, start=1_000_000.0)
        entry_bytes = writer.disk_usage()[1] // 6

        pruner = ShardCache(tmp_path)  # fresh process: nothing protected
        removed = pruner.prune(max_bytes=3 * entry_bytes)
        assert removed == 3
        survivors = set(pruner.digests())
        assert survivors == set(digests[3:])  # newest three kept
        for digest in digests[3:]:
            assert pruner.verify(digest)
        assert pruner.disk_usage()[1] <= 3 * entry_bytes
        assert pruner.evictions == 3

    def test_current_run_entries_never_evicted(self, tmp_path):
        writer = ShardCache(tmp_path)
        old = _fill(writer, 3, prefix="aa")
        _age(writer, old, start=1_000_000.0)

        cache = ShardCache(tmp_path, max_bytes=0)
        new = [cache.store_record(_key(f"bb{i:04d}"), _body())
               for i in range(3)]
        # cap of 0 forces pruning on every store: all unprotected old
        # entries go, but this run's own shards all survive.
        survivors = set(cache.digests())
        assert set(new) <= survivors
        assert not (set(old) & survivors)

    def test_store_prunes_to_cap(self, tmp_path):
        probe = ShardCache(tmp_path)
        probe.store_record(_key("cc0000"), _body())
        entry_bytes = probe.disk_usage()[1]
        probe.clear()

        old_writer = ShardCache(tmp_path)
        old = _fill(old_writer, 8)
        _age(old_writer, old, start=1_000_000.0)

        cache = ShardCache(tmp_path, max_bytes=4 * entry_bytes)
        newest = cache.store_record(_key("dd0000"), _body())
        entries, total = cache.disk_usage()
        assert total <= 4 * entry_bytes
        assert newest in set(cache.digests())

    def test_prune_counts_into_obs(self, tmp_path):
        writer = ShardCache(tmp_path)
        digests = _fill(writer, 4)
        _age(writer, digests, start=1_000_000.0)
        with obs.collecting() as col:
            ShardCache(tmp_path).prune(max_bytes=0)
        assert col.snapshot().counters["engine.cache.evicted"] == 4

    def test_clear(self, tmp_path):
        cache = ShardCache(tmp_path)
        _fill(cache, 3)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.disk_usage() == (0, 0)
        assert cache.clear() == 0

    def test_digests_listing(self, tmp_path):
        cache = ShardCache(tmp_path)
        stored = set(_fill(cache, 3))
        assert set(cache.digests()) == stored
        assert set(ShardCache(tmp_path / "missing").digests()) == set()


class TestEngineWithCappedCache:
    def test_capped_cache_still_correct_and_warm(self, tmp_path):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        request = EvalRequest(adder=adder, samples=40_000, seed=3)
        reference = Engine(jobs=1).evaluate(request).stats

        # A cap large enough for this run: results correct, cache warm.
        cache = ShardCache(tmp_path, max_bytes=1 << 20)
        cold = Engine(jobs=1, cache=cache)
        assert cold.evaluate(request).stats == reference

        warm = Engine(jobs=1, cache=ShardCache(tmp_path, max_bytes=1 << 20))
        assert warm.evaluate(request).stats == reference
        assert warm.shards_executed == 0

    def test_zero_cap_keeps_current_run_usable(self, tmp_path):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        request = EvalRequest(adder=adder, samples=40_000, seed=3)
        cache = ShardCache(tmp_path, max_bytes=0)
        engine = Engine(jobs=1, cache=cache)
        first = engine.evaluate(request).stats
        # Same engine object re-evaluates: its own writes are protected,
        # so the rerun is served entirely from cache.
        rerun = engine.evaluate(request)
        assert rerun.stats == first
        assert rerun.shards_executed == 0


def _hammer(root: str) -> list:
    """Two threads each store one record 100×; returns their errors."""
    cache = ShardCache(root)
    errors: list = []

    def write():
        try:
            for _ in range(100):
                cache.store_record(_key("race"), _body())
        except Exception as exc:  # reported to the parent, not swallowed
            errors.append(repr(exc))

    threads = [threading.Thread(target=write) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class TestConcurrentWriters:
    def test_two_processes_two_threads_one_record(self, tmp_path):
        with ProcessPoolExecutor(max_workers=2) as pool:
            errors = list(pool.map(_hammer, [str(tmp_path)] * 2))
        assert errors == [[], []]
        cache = ShardCache(tmp_path)
        (digest,) = cache.digests()
        assert digest == api.key_digest(_key("race"))
        assert cache.verify(digest)
        assert cache.load_record(_key("race")) == _body()
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
