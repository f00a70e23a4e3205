"""Unit tests for the multi-level query cache (repro.cache)."""

import pytest

from repro.cache import (
    CacheManager,
    EpochRegistry,
    LRUCache,
    RemoteAnswerCache,
    normalize_sql,
)
from repro.net import costs
from repro.net.simclock import SimClock
from repro.obs.metrics import MetricsRegistry
from repro.sql.parser import parse_select


class TestLRUCache:
    def test_get_put_and_lru_order(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # touch a, b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_byte_budget_evicts_oldest(self):
        cache = LRUCache(max_entries=10, max_bytes=100)
        cache.put("a", "x", nbytes=60)
        cache.put("b", "y", nbytes=60)
        assert "a" not in cache
        assert cache.get("b") == "y"
        assert cache.bytes == 60

    def test_oversized_sole_entry_is_kept(self):
        cache = LRUCache(max_entries=10, max_bytes=100)
        cache.put("huge", "x", nbytes=500)
        assert cache.get("huge") == "x"

    def test_replace_updates_byte_accounting(self):
        cache = LRUCache(max_entries=10, max_bytes=1000)
        cache.put("a", "x", nbytes=100)
        cache.put("a", "y", nbytes=40)
        assert cache.bytes == 40
        assert len(cache) == 1

    def test_invalidate_tag_removes_only_that_tag(self):
        cache = LRUCache(max_entries=10)
        cache.put("a", 1, tag="db1")
        cache.put("b", 2, tag="db2")
        cache.put("c", 3, tag="db1")
        assert cache.invalidate_tag("db1") == 2
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") is None

    def test_eviction_callback_counts(self):
        evicted = []
        cache = LRUCache(max_entries=1, on_evict=lambda n: evicted.append(n))
        cache.put("a", 1)
        cache.put("b", 2)
        assert sum(evicted) == 1

    def test_clear_reports_dropped_count(self):
        cache = LRUCache(max_entries=10)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.bytes == 0


class TestEpochRegistry:
    def test_epochs_start_at_zero_and_bump_independently(self):
        reg = EpochRegistry()
        assert reg.epoch("db1") == 0
        assert reg.bump("db1") == 1
        assert reg.epoch("db1") == 1
        assert reg.epoch("db2") == 0

    def test_generation_counts_every_bump(self):
        reg = EpochRegistry()
        reg.bump("a")
        reg.bump("b")
        reg.bump("a")
        assert reg.generation == 3

    def test_subscribers_see_the_bumped_database(self):
        reg = EpochRegistry()
        seen = []
        reg.subscribe(seen.append)
        reg.bump("db1")
        assert seen == ["db1"]

    def test_as_dict(self):
        reg = EpochRegistry()
        reg.bump("db1")
        assert reg.as_dict() == {"generation": 1, "epochs": {"db1": 1}}


class TestNormalizeSql:
    def test_collapses_whitespace(self):
        assert normalize_sql("SELECT  a\n FROM   t") == "SELECT a FROM t"

    def test_select_ast_uses_unparse(self):
        select = parse_select("SELECT a FROM t WHERE a > 1")
        assert normalize_sql(select) == select.unparse()


class TestCacheManager:
    @pytest.fixture
    def manager(self):
        return CacheManager(clock=SimClock(), metrics=MetricsRegistry())

    def test_plan_roundtrip(self, manager):
        select = parse_select("SELECT a FROM t")
        manager.put_plan("k", select, "the-plan", ("srv1",))
        entry = manager.get_plan("k")
        assert entry.plan == "the-plan"
        assert entry.remote_servers == frozenset({"srv1"})

    def test_dictionary_bump_invalidates_plans(self, manager):
        select = parse_select("SELECT a FROM t")
        manager.put_plan("k", select, "p")
        manager.bump_dictionary()
        assert manager.get_plan("k") is None

    def test_sub_key_changes_with_epoch(self, manager):
        class Loc:
            database_name = "db1"

        class Sub:
            location = Loc()
            sql = "SELECT 1"

        before = manager.sub_key(Sub(), ())
        manager.epochs.bump("db1")
        after = manager.sub_key(Sub(), ())
        assert before != after

    def test_epoch_bump_flushes_only_that_database(self, manager):
        manager.sub.put("k1", ("c", "t", [], "pool"), tag="db1")
        manager.sub.put("k2", ("c", "t", [], "pool"), tag="db2")
        manager.epochs.bump("db1")
        assert manager.sub.get("k1") is None
        assert manager.sub.get("k2") is not None

    def test_store_sub_copies_rows(self, manager):
        rows = [(1, 2)]
        manager.store_sub("k", (["a", "b"], ["INT", "INT"], rows, "pool"), tag="db")
        rows.append((3, 4))
        assert len(manager.lookup_sub("k")[2]) == 1

    def test_stats_shape(self, manager):
        stats = manager.stats()
        assert set(stats) >= {
            "plan", "sub", "remote", "evictions", "invalidations",
            "epoch_generation", "dict_generation",
        }
        for level in ("plan", "sub", "remote"):
            assert set(stats[level]) == {
                "entries", "bytes", "hits", "misses", "hit_rate",
            }

    def test_stat_rows_cover_every_level(self, manager):
        rows = manager.stat_rows()
        levels = {level for level, _stat, _value in rows}
        assert levels == {"plan", "sub", "remote", "all"}


class TestRemoteAnswerCache:
    @pytest.fixture
    def world(self, monkeypatch):
        monkeypatch.setattr(costs, "CACHE_REMOTE_TTL_MS", 100.0)
        clock = SimClock()
        epochs = EpochRegistry()
        cache = RemoteAnswerCache(clock, epochs)
        return clock, epochs, cache

    def test_roundtrip_returns_a_copy(self, world):
        _clock, _epochs, cache = world
        key = ("srv", "sql", "()")
        answer = {"rows": [[1]], "columns": ["a"]}
        cache.put(key, answer)
        got = cache.get(key)
        assert got == answer
        got["rows"].append([2])
        assert cache.get(key) == answer

    def test_ttl_expires_entries(self, world):
        clock, _epochs, cache = world
        key = ("srv", "sql", "()")
        cache.put(key, {"rows": []})
        clock.advance_ms(101.0)
        assert cache.get(key) is None

    def test_epoch_bump_invalidates(self, world):
        _clock, epochs, cache = world
        key = ("srv", "sql", "()")
        cache.put(key, {"rows": []})
        epochs.bump("anything")
        assert cache.get(key) is None

    def test_flush(self, world):
        _clock, _epochs, cache = world
        key = ("srv", "sql", "()")
        cache.put(key, {"rows": []})
        assert cache.flush() == 1
        assert len(cache) == 0

    def test_trace_context_is_not_part_of_the_key(self):
        from repro.tools.demo import two_server_federation
        from repro.tools.tracereport import DEMO_SQL

        def stored_keys(**layers):
            _fed, a, _b, _events, _runs = two_server_federation(cache=True, **layers)
            a.service.execute(DEMO_SQL)
            return set(a.service.cache.remote._lru._entries)

        plain = stored_keys()
        assert plain
        # an observing origin forwards its trace context with the query
        assert stored_keys(observe=True) == plain

    def test_stored_answer_drops_piggybacked_spans(self, world):
        _clock, _epochs, cache = world
        answer = {"rows": [[1]], "spans": [{"span_id": "b-s1"}]}
        cache.put("k", answer)
        assert cache.get("k") == {"rows": [[1]]}
        assert "spans" in answer


class TestRemoteAnswerCacheWhileObserving:
    """The trace context rides a forwarded query; it must not split the
    remote-answer cache, nor may a hit replay an old trace's spans."""

    @staticmethod
    def warm_repeat(**layers):
        from repro.tools.demo import two_server_federation
        from repro.tools.tracereport import DEMO_SQL

        fed, a, _b, _events, _runs = two_server_federation(cache=True, **layers)
        a.service.execute(DEMO_SQL)
        t0 = fed.clock.now_ms
        a.service.execute(DEMO_SQL)
        return fed.clock.now_ms - t0, a.service

    def test_observed_warm_repeat_hits_like_the_unobserved_one(self):
        plain_ms, _plain = self.warm_repeat()
        observed_ms, service = self.warm_repeat(observe=True)
        # equal up to float rounding: the cold runs end at different instants
        assert observed_ms == pytest.approx(plain_ms, abs=1e-9)
        assert service.cache.stats()["remote"]["hits"] >= 1
        span_ids = [s.span_id for s in service.tracer.spans]
        assert len(span_ids) == len(set(span_ids))
