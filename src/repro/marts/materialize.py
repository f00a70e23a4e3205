"""View materialization into vendor marts.

The mart table is created with the *mart vendor's own DDL* (rendered by
its dialect and re-parsed by the engine — Oracle NUMBER / MySQL INT /
SQLite TEXT really differ), then loaded through the same staged
streaming pipeline as the warehouse, one INSERT per row as there, but
in autocommit mode: every row also pays the vendor's commit plus
``AUTOCOMMIT_FLUSH_MS``. This is why Figure 5's per-byte times are
several times worse than Figure 4's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ETLError
from repro.dialects import get_dialect
from repro.engine.database import Database
from repro.engine.storage import Column
from repro.warehouse.etl import ETLJob, ETLPipeline, ETLReport
from repro.warehouse.warehouse import Warehouse


def view_columns(warehouse_db: Database, view: str) -> list[Column]:
    """Engine column definitions matching a view's output schema."""
    schema_cols, _rows = warehouse_db.resolve_table(view)
    return [Column(name=c.name, type=c.type) for c in schema_cols]


def materialize_view(
    warehouse: Warehouse,
    view: str,
    mart_db: Database,
    mart_host: str,
    table_name: str | None = None,
    direct: bool = False,
    epochs=None,
) -> ETLReport:
    """Replicate one warehouse view into one mart; returns phase timings.

    ``epochs`` (an :class:`repro.cache.EpochRegistry`) lets a cached
    federation learn about the refresh: the mart's epoch is bumped, so
    cached sub-results over the mart are dropped.
    """
    if not warehouse.db.catalog.has_view(view):
        raise ETLError(f"warehouse has no view {view!r}")
    table_name = table_name or view
    dialect = get_dialect(mart_db.vendor)
    columns = view_columns(warehouse.db, view)
    if mart_db.catalog.has_table(table_name):
        mart_db.catalog.drop_table(table_name)
    # Vendor DDL round-trip: render in the mart's own spelling, re-parse.
    mart_db.execute(dialect.render_create_table(table_name, columns))
    if epochs is None:
        epochs = warehouse.epochs
    pipeline = ETLPipeline(
        warehouse.network, warehouse.clock, mart_db, mart_host,
        autocommit=True, epochs=epochs,
    )
    job = ETLJob(
        source=warehouse.db,
        source_host=warehouse.host,
        query=f"SELECT * FROM {view}",
        target_table=table_name,
        target_columns=[c.name for c in columns],
    )
    return pipeline.run(job, direct)


def _view_fingerprint(warehouse_db: Database, view: str) -> tuple[int, int]:
    """Cheap change detector for a view: (row count, content hash)."""
    _cols, rows = warehouse_db.resolve_table(view)
    return len(rows), hash(tuple(sorted(hash(r) for r in rows)))


@dataclass
class MartSet:
    """A set of marts receiving replicated warehouse views.

    Tracks, per view, the warehouse content fingerprint at the last
    replication, so :meth:`refresh` re-materializes only views that
    actually changed — the operational loop after every nightly ETL.
    """

    warehouse: Warehouse
    marts: list[tuple[Database, str]] = field(default_factory=list)  # (db, host)
    reports: list[ETLReport] = field(default_factory=list)
    #: optional EpochRegistry — replications bump each mart's epoch
    epochs: object = None
    _fingerprints: dict[str, tuple[int, int]] = field(default_factory=dict)

    def add_mart(self, db: Database, host: str) -> None:
        if not self.warehouse.network.has_host(host):
            self.warehouse.network.add_host(host, tier=2)
        self.marts.append((db, host))

    def replicate(self, views: list[str], direct: bool = False) -> list[ETLReport]:
        """Materialize every view into every mart (the paper's Stage 2)."""
        out: list[ETLReport] = []
        for view in views:
            for db, host in self.marts:
                out.append(
                    materialize_view(
                        self.warehouse, view, db, host,
                        direct=direct, epochs=self.epochs,
                    )
                )
            self._fingerprints[view] = _view_fingerprint(self.warehouse.db, view)
        self.reports.extend(out)
        return out

    def stale_views(self) -> list[str]:
        """Replicated views whose warehouse content has since changed."""
        out = []
        for view, fingerprint in sorted(self._fingerprints.items()):
            if _view_fingerprint(self.warehouse.db, view) != fingerprint:
                out.append(view)
        return out

    def refresh(self, direct: bool = False) -> list[ETLReport]:
        """Re-materialize only the stale views; returns their reports."""
        stale = self.stale_views()
        if not stale:
            return []
        return self.replicate(stale, direct=direct)
