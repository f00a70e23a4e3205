"""The byte-budgeted LRU store shared by all three cache levels.

Entries carry an approximate byte footprint (a result's rows count the
storage bytes their :class:`repro.clarens.codec.SizedRows` record
holds) and an optional *tag* — the database a cached result depends
on — so an epoch bump can flush exactly the affected database's
entries while the LRU + byte budget handles everything else.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable


@dataclass
class _Entry:
    value: object
    nbytes: int
    tag: str | None


class LRUCache:
    """An ordered key→value store with entry and byte budgets."""

    def __init__(
        self,
        max_entries: int,
        max_bytes: int | None = None,
        on_evict: Callable[[int], None] | None = None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.on_evict = on_evict
        self._entries: OrderedDict[object, _Entry] = OrderedDict()
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key):
        """The cached value, freshened to most-recently-used; None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry.value

    def put(self, key, value, nbytes: int = 0, tag: str | None = None) -> None:
        """Insert/replace ``key``, then evict LRU entries over budget."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= old.nbytes
        self._entries[key] = _Entry(value, nbytes, tag)
        self.bytes += nbytes
        evicted = 0
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None and self.bytes > self.max_bytes
        ):
            if len(self._entries) == 1:
                break  # never evict the entry just inserted
            _, dropped = self._entries.popitem(last=False)
            self.bytes -= dropped.nbytes
            evicted += 1
        if evicted and self.on_evict is not None:
            self.on_evict(evicted)

    def remove(self, key) -> bool:
        """Drop one key; True when it was present."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.bytes -= entry.nbytes
        return True

    def invalidate_tag(self, tag: str) -> int:
        """Drop every entry tagged with ``tag``; returns the count."""
        dead = [k for k, e in self._entries.items() if e.tag == tag]
        for key in dead:
            self.bytes -= self._entries.pop(key).nbytes
        return len(dead)

    def clear(self) -> int:
        """Drop everything; returns the number of entries dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self.bytes = 0
        return dropped
