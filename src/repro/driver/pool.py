"""JDBC connection pooling.

The prototype's dominant distributed-query cost is the fresh
connect+authenticate per (query, database) on the Unity/JDBC path —
Table 1's >10× penalty. Pooling is the era's standard fix; this module
implements it so the routing ablation can quantify exactly how much of
the paper's penalty is connection churn.

Pooled connections are keyed by (url, user); ``get`` hands out an open
connection or dials a new one; ``release`` returns it for reuse. A
``MAX_IDLE_PER_KEY`` bound keeps the pool honest, and closed/broken
connections are discarded on return.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.driver.connection import Connection, connect
from repro.driver.directory import Directory

#: idle connections kept per (url, user); further releases are closed
MAX_IDLE_PER_KEY = 4


@dataclass
class PoolStats:
    hits: int = 0
    misses: int = 0
    discarded: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ConnectionPool:
    """A simple keyed pool of open driver connections."""

    def __init__(self, directory: Directory, clock):
        self.directory = directory
        self.clock = clock
        self._idle: dict[tuple[str, str], list[Connection]] = {}
        self.stats = PoolStats()

    def get(self, url: str, user: str = "grid", password: str = "grid") -> Connection:
        """An open connection for ``url`` — pooled if available."""
        key = (url, user)
        bucket = self._idle.get(key)
        while bucket:
            conn = bucket.pop()
            if not conn.closed:
                self.stats.hits += 1
                return conn
            self.stats.discarded += 1
        self.stats.misses += 1
        return connect(
            url, user, password, directory=self.directory, clock=self.clock
        )

    def release(self, connection: Connection, user: str = "grid") -> None:
        """Return a connection for reuse (or drop it if full/broken)."""
        if connection.closed:
            self.stats.discarded += 1
            return
        key = (connection.url, user)
        bucket = self._idle.setdefault(key, [])
        if len(bucket) >= MAX_IDLE_PER_KEY:
            connection.close()
            self.stats.discarded += 1
            return
        bucket.append(connection)
