"""View materialization into vendor marts.

The mart table is created with the *mart vendor's own DDL* (rendered by
its dialect and parsed by the engine — Oracle NUMBER / MySQL INT /
SQLite TEXT really differ), then loaded through the same staged
streaming pipeline as the warehouse. The model charges one INSERT per
row as there, but in autocommit mode: every row also pays the vendor's
commit plus ``AUTOCOMMIT_FLUSH_MS``. This is why Figure 5's per-byte
times are several times worse than Figure 4's. The engine lands each
mart's rows with one checked append (see :mod:`repro.warehouse.etl`).

:meth:`MartSet.replicate` reads each view once, with
:func:`~repro.warehouse.etl.extract`, and hands that :class:`Extract` to
every mart's :func:`materialize_view`. Each mart still pays the whole
extraction — stream, scan, transfer and staging — so the simulated
times are those of one query per mart. A view row that is a tuple the
warehouse load stored keeps the size that load computed.

The statements are the same on every refresh, so each is parsed once
per process: the rendered DDL per vendor dialect, view and ``(name,
type)`` columns, and the view read per view name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.common.errors import ETLError
from repro.common.types import SQLType
from repro.dialects import Dialect, get_dialect
from repro.engine.database import Database
from repro.engine.storage import Column
from repro.sql import ast
from repro.sql.parser import parse_each
from repro.warehouse.etl import ETLJob, ETLPipeline, ETLReport, Extract, extract
from repro.warehouse.warehouse import Warehouse


@functools.cache
def _view_read(view: str) -> tuple[str, ast.Statement]:
    return parse_each(f"SELECT * FROM {view}")[0]


@functools.cache
def _mart_ddl(
    dialect: Dialect, view: str, columns: tuple[tuple[str, SQLType], ...]
) -> tuple[str, ast.Statement]:
    """The mart table's DDL in ``dialect``'s own spelling, with its
    parse. Keyed by the dialect instance, so a vendor whose dialect is
    registered anew renders afresh."""
    text = dialect.render_create_table(view, [Column(name=n, type=t) for n, t in columns])
    return parse_each(text)[0]


def _view_job(warehouse: Warehouse, view: str) -> ETLJob:
    """The job that copies ``view`` into a mart table of the same name."""
    if not warehouse.db.catalog.has_view(view):
        raise ETLError(f"warehouse has no view {view!r}")
    parsed = _view_read(view)
    job = ETLJob(
        source=warehouse.db,
        source_host=warehouse.host,
        query=parsed[0],
        target_table=view,
    )
    job.parsed = parsed
    return job


def materialize_view(
    warehouse: Warehouse,
    view: str,
    mart_db: Database,
    mart_host: str,
    *,
    extracted: Extract | None = None,
) -> ETLReport:
    """Replicate one warehouse view, staged, into a mart table of the
    same name; returns phase timings. ``extracted`` is the view's
    :class:`Extract` when the caller has read it already.
    """
    job = _view_job(warehouse, view)
    if extracted is None:
        extracted = extract(job)
    extracted.check(job)  # before the mart is touched
    dialect = get_dialect(mart_db.vendor)
    job.target_columns = list(extracted.columns)
    if mart_db.catalog.has_table(view):
        mart_db.catalog.drop_table(view)
    # Vendor DDL round-trip: render in the mart's own spelling and parse
    # that, once per vendor, view and columns.
    text, stmt = _mart_ddl(dialect, view, tuple(zip(extracted.columns, extracted.types)))
    mart_db.execute_statement(stmt, sql_text=text)
    pipeline = ETLPipeline(
        warehouse.network, warehouse.clock, mart_db, mart_host, autocommit=True
    )
    return pipeline.run(job, extracted=extracted)


@dataclass
class MartSet:
    """A set of marts receiving replicated warehouse views."""

    warehouse: Warehouse
    marts: list[tuple[Database, str]] = field(default_factory=list)  # (db, host)
    reports: list[ETLReport] = field(default_factory=list)

    def add_mart(self, db: Database, host: str) -> None:
        if not self.warehouse.network.has_host(host):
            self.warehouse.network.add_host(host, tier=2)
        self.marts.append((db, host))

    def replicate(self, views: list[str]) -> list[ETLReport]:
        """Materialize every view into every mart (the paper's Stage 2),
        staged, reading each view once."""
        out: list[ETLReport] = []
        for view in views:
            extracted = extract(_view_job(self.warehouse, view))
            for db, host in self.marts:
                out.append(
                    materialize_view(self.warehouse, view, db, host, extracted=extracted)
                )
        self.reports.extend(out)
        return out
