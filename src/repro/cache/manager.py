"""The cache manager: plan cache + sub-result cache + remote answers.

One :class:`CacheManager` serves one data access service (or one Unity
driver). It owns the three levels the read-mostly analysis workload
pays for repeatedly:

1. **plan cache** — normalized SQL text → parsed select, decomposition
   plan and discovered remote servers, valid while the dictionary
   generation and the replica preferences it was planned with hold.
   A hit skips SQL parse, decomposition (``DECOMPOSE_MS``) and the
   per-query XSpec metadata parse the §4.2 criticism describes (the
   metadata travels with the plan).
2. **sub-result cache** — ``(database, physical SQL, params, epoch)``
   → the sub-query's (columns, types, rows). A hit costs
   ``CACHE_HIT_MS`` instead of connect + execute + transfer.
3. **remote answers** — a forwarded sub-query's wire answer, looked up
   by the service's remote fetch before it calls the peer (see
   :mod:`repro.cache.remote`).

Invalidation is event-driven through the :class:`EpochRegistry`: the
§4.9 md5 tracker bumps a database's epoch on schema change, the ETL
pipeline and mart materializer bump it on data refresh. Bumps flush
exactly the affected database's sub-results (the epoch in the key makes
stale entries unreachable even before the flush); dictionary changes
(register/unregister/discovery/schema change) flush the plan cache via
``bump_dictionary``. Everything else is LRU + byte-budget eviction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.epochs import EpochRegistry
from repro.cache.remote import RemoteAnswerCache
from repro.cache.store import LRUCache
from repro.clarens.codec import carry, sizes_of
from repro.engine.storage import estimate_row_bytes  # noqa: F401 - perfbench counts calls at this binding
from repro.obs.metrics import MetricsRegistry
from repro.sql import ast

#: LRU sizes and byte budget of the plan and sub-result levels (the
#: remote level's live in :mod:`repro.cache.remote`)
PLAN_ENTRIES = 256
SUB_ENTRIES = 1024
SUB_BYTES = 16 << 20


def normalize_sql(sql) -> str:
    """Whitespace-normalized query text — the plan cache's key."""
    if isinstance(sql, ast.Select):
        return sql.unparse()
    return " ".join(str(sql).split())


@dataclass(frozen=True)
class PlanEntry:
    """One cached planning outcome."""

    select: ast.Select
    plan: object  # DecomposedQuery
    remote_servers: frozenset
    generation: int
    #: the replica preferences (``prefer_databases``) it was planned with
    prefer: dict | None = None


class CacheManager:
    """All three cache levels plus their shared invalidation clock."""

    def __init__(
        self,
        clock,
        metrics: MetricsRegistry | None = None,
        epochs: EpochRegistry | None = None,
    ):
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.epochs = epochs if epochs is not None else EpochRegistry()
        self.epochs.subscribe(self._on_epoch_bump)
        #: bumped whenever the data dictionary changes; keys plan entries
        self.dict_generation = 0
        self.plan = LRUCache(PLAN_ENTRIES, on_evict=self._count_evictions)
        self.sub = LRUCache(SUB_ENTRIES, SUB_BYTES, on_evict=self._count_evictions)
        self.remote = RemoteAnswerCache(clock, self.epochs, self.metrics)

    # -- metrics plumbing -----------------------------------------------------

    def _count(self, name: str, n: float = 1.0) -> None:
        self.metrics.counter(name).inc(n)

    def _count_evictions(self, n: int) -> None:
        self._count("cache.evictions", n)

    def record_hit_latency(self, ms: float) -> None:
        """Feed the hit-latency histogram (simulated milliseconds)."""
        self.metrics.histogram("cache.hit_ms").observe(ms)

    # -- level 1: plan cache --------------------------------------------------

    def get_plan(self, key, prefer_of=lambda _select: None) -> PlanEntry | None:
        """The cached plan of ``key``, or None when absent or stale: the
        dictionary changed, or ``prefer_of(select)`` (the replica
        preferences it would be planned with now) differs."""
        entry = self.plan.get(key)
        if entry is not None and (
            entry.generation != self.dict_generation
            or entry.prefer != prefer_of(entry.select)
        ):
            self.plan.remove(key)
            entry = None
        self._count("cache.plan.hits" if entry is not None else "cache.plan.misses")
        return entry

    def put_plan(
        self, key, select: ast.Select, plan, remote_servers=(), prefer_databases=None
    ) -> None:
        self.plan.put(
            key,
            PlanEntry(
                select=select,
                plan=plan,
                remote_servers=frozenset(remote_servers),
                generation=self.dict_generation,
                prefer=prefer_databases,
            ),
        )

    def bump_dictionary(self) -> None:
        """The dictionary changed: every cached plan is now suspect."""
        self.dict_generation += 1
        dropped = self.plan.clear()
        if dropped:
            self._count("cache.invalidations", dropped)

    # -- level 2: sub-query result cache --------------------------------------

    def sub_key(self, sub, params: tuple):
        """Key for one local sub-query: schema epoch rides in the key."""
        database = sub.location.database_name
        return (database, sub.sql, repr(params), self.epochs.epoch(database))

    def lookup_sub(self, key):
        """Cached (columns, types, rows, via) or None; counts hit/miss."""
        hit = self.sub.get(key)
        self._count("cache.sub.hits" if hit is not None else "cache.sub.misses")
        return hit

    def store_sub(self, key, result, tag: str) -> None:
        """Store a copy of ``result``; its rows keep their size record,
        so a hit hands it on and is never sized again."""
        columns, types, rows, via = result
        rows = carry(rows)
        nbytes = sizes_of(rows).storage + 128
        self.sub.put(key, (list(columns), list(types), rows, via), nbytes, tag)

    # -- invalidation ----------------------------------------------------------

    def _on_epoch_bump(self, database: str) -> None:
        """Flush exactly the bumped database's entries (plus remote answers,
        which are generation-checked and cannot be attributed per-database)."""
        dropped = self.sub.invalidate_tag(database)
        dropped += self.remote.flush()
        if dropped:
            self._count("cache.invalidations", dropped)

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """Wire-safe effectiveness summary (``dataaccess.stats`` block)."""
        count = lambda name: int(self.metrics.counter(name).value)  # noqa: E731

        def level(name: str, lru_len: int, lru_bytes: int) -> dict:
            hits = count(f"cache.{name}.hits")
            misses = count(f"cache.{name}.misses")
            total = hits + misses
            return {
                "entries": lru_len,
                "bytes": lru_bytes,
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / total, 4) if total else 0.0,
            }

        return {
            "plan": level("plan", len(self.plan), 0),
            "sub": level("sub", len(self.sub), self.sub.bytes),
            "remote": level("remote", len(self.remote), self.remote.bytes),
            "evictions": count("cache.evictions"),
            "invalidations": count("cache.invalidations"),
            "epoch_generation": self.epochs.generation,
            "dict_generation": self.dict_generation,
        }

    def stat_rows(self) -> list[tuple[str, str, float]]:
        """(level, stat, value) rows — the ``monitor_cache`` table shape."""
        rows: list[tuple[str, str, float]] = []
        stats = self.stats()
        for name in ("plan", "sub", "remote"):
            for stat, value in stats[name].items():
                rows.append((name, stat, float(value)))
        for stat in ("evictions", "invalidations", "epoch_generation", "dict_generation"):
            rows.append(("all", stat, float(stats[stat])))
        return rows
