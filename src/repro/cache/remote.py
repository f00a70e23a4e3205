"""Level 3: the remote-answer cache on the service's forward path.

When a data access service forwards a logical sub-query to the remote
JClarens server that publishes the table, the full answer (columns,
types, rows) comes back over the wire. Repeating that forwarded call is
the single most expensive cache miss in the federation — it pays RLS
resolution amortization, the WAN/LAN round-trip, remote execution and
per-row encode/decode. The service's remote fetch looks its answers up
here, keyed by peer, logical SQL and parameters, before calling the peer.

Freshness is enforced two ways, both checked on every hit:

* **epoch generation** — the local :class:`EpochRegistry`'s global
  ``generation`` must not have moved since the answer was stored (the
  origin cannot see a remote peer's per-database epochs, so any local
  invalidation event conservatively flushes remote answers too);
* **TTL** — a simulated-clock deadline bounds how long a remote
  server's unseen changes can go unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.epochs import EpochRegistry
from repro.cache.store import LRUCache
from repro.clarens.codec import sized
from repro.engine.storage import estimate_row_bytes  # noqa: F401 - perfbench counts calls at this binding
from repro.net import costs

#: LRU size and byte budget of the remote answers
REMOTE_ENTRIES = 512
REMOTE_BYTES = 8 << 20


@dataclass
class _Answer:
    value: object
    generation: int
    deadline_ms: float


def _answer_bytes(value) -> int:
    """Approximate footprint of a wire answer (row payload + envelope)."""
    rows = value.get("rows")
    return 256 + (sized(rows).sizes.storage if rows else 0)


def _copy(value):
    """A copy of a wire value whose lists and structs the caller owns;
    tuples, the frozen rows of an in-process answer included, are shared."""
    if isinstance(value, list):
        return [_copy(item) for item in value]
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    return value


class RemoteAnswerCache:
    """TTL-bounded, epoch-checked memo of remote Clarens answers."""

    def __init__(self, clock, epochs: EpochRegistry, metrics=None):
        self.clock = clock
        self.epochs = epochs
        self.metrics = metrics
        self.ttl_ms = costs.CACHE_REMOTE_TTL_MS
        self._lru = LRUCache(REMOTE_ENTRIES, REMOTE_BYTES, on_evict=self._count_evictions)

    def _count(self, name: str, n: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def _count_evictions(self, n: int) -> None:
        self._count("cache.evictions", n)

    # -- lookup and store ------------------------------------------------------

    def get(self, key):
        """A copy of the cached answer, or None when absent/stale."""
        answer = self._lru.get(key)
        if answer is None:
            self._count("cache.remote.misses")
            return None
        now = self.clock.now_ms
        if answer.generation != self.epochs.generation or now > answer.deadline_ms:
            self._lru.remove(key)
            self._count("cache.remote.misses")
            self._count("cache.invalidations")
            return None
        self._count("cache.remote.hits")
        # callers own the answer and may mutate it freely
        return _copy(answer.value)

    def put(self, key, value) -> None:
        """Store an answer without its piggybacked spans: they belong to
        the trace that fetched it, not to a later hit's."""
        value = {k: _copy(v) for k, v in value.items() if k != "spans"}
        self._lru.put(
            key,
            _Answer(
                value=value,
                generation=self.epochs.generation,
                deadline_ms=self.clock.now_ms + self.ttl_ms,
            ),
            nbytes=_answer_bytes(value),
        )

    # -- maintenance ----------------------------------------------------------

    def flush(self) -> int:
        """Drop every cached answer; returns the count dropped."""
        return self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def bytes(self) -> int:
        return self._lru.bytes
