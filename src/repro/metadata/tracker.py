"""Schema-change tracking (§4.9), exactly as the paper describes it.

Periodically (driven by the caller — tests and the federation call
``poll()`` explicitly instead of spawning threads) a new XSpec is
generated for every watched database. The new spec's canonical XML is
compared with the old one **first by size, then by md5** — the paper's
two-step comparison — and on any difference the stored spec is replaced
and subscribers are notified so they can refresh their dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.engine.database import Database
from repro.metadata.generator import generate_lower_xspec
from repro.metadata.xspec import LowerXSpec


@dataclass
class TrackedSpec:
    """Current spec + fingerprint for one watched database."""

    database: Database
    spec: LowerXSpec
    size: int
    md5: str
    versions_seen: int = 1
    logical_names: dict[str, str] = field(default_factory=dict)


class SchemaTracker:
    """Watches databases and fires callbacks on schema change."""

    def __init__(self) -> None:
        self._tracked: dict[str, TrackedSpec] = {}
        self._subscribers: list[Callable[[str, LowerXSpec], None]] = []
        self.polls = 0
        self.changes_detected = 0
        #: optional :class:`repro.cache.EpochRegistry` — when a caching
        #: service installs one, every detected schema change bumps the
        #: database's epoch *before* subscribers run, so cached results
        #: keyed on the old epoch are unreachable by the time the
        #: dictionary refreshes
        self.epochs = None

    def watch(
        self, database: Database, logical_names: dict[str, str] | None = None
    ) -> LowerXSpec:
        """Start tracking ``database``; returns its initial spec."""
        spec = generate_lower_xspec(database, logical_names)
        size, md5 = spec.fingerprint()
        self._tracked[database.name] = TrackedSpec(
            database, spec, size, md5, logical_names=dict(logical_names or {})
        )
        return spec

    def subscribe(self, callback: Callable[[str, LowerXSpec], None]) -> None:
        """``callback(database_name, new_spec)`` on every detected change."""
        self._subscribers.append(callback)

    def current_spec(self, database_name: str) -> LowerXSpec:
        return self._tracked[database_name].spec

    # -- the paper's algorithm ------------------------------------------------------

    def poll(self) -> list[str]:
        """Regenerate every watched spec; returns names of changed databases."""
        self.polls += 1
        changed: list[str] = []
        for name, tracked in self._tracked.items():
            new_spec = generate_lower_xspec(
                tracked.database, tracked.logical_names or None
            )
            new_size, new_md5 = new_spec.fingerprint()
            # Size check first (cheap), md5 only when sizes agree — §4.9.
            if new_size == tracked.size and new_md5 == tracked.md5:
                continue
            tracked.spec = new_spec
            tracked.size = new_size
            tracked.md5 = new_md5
            tracked.versions_seen += 1
            changed.append(name)
            self.changes_detected += 1
            if self.epochs is not None:
                self.epochs.bump(name)
            for callback in self._subscribers:
                callback(name, new_spec)
        return changed
