"""The streaming Extraction-Transformation-Transportation-Loading process.

Phases (per the paper's Stage 1/2 measurement protocol):

* **extraction** — run the source query, stream rows out of the source
  (per-row stream cost), apply the denormalizing transform (per-row CPU),
  move the bytes over the LAN, and write them into a temporary staging
  file (disk bandwidth + stream open/close);
* **loading** — read the staging file back and stream the rows into the
  target database as individual INSERTs (per-row statement round-trip +
  engine insert cost), committing every ``WAREHOUSE_COMMIT_EVERY`` rows.

Both phase durations are returned so benches can plot the two series of
Figures 4 and 5. ``ETLPipeline.run(job, direct=True)`` skips the staging
file.

The cost model and the engine's work are separate. The clock is charged
as the paper's prototype worked: one INSERT statement per row, and for
the marts a commit per row. The engine itself lands each load with one
checked :meth:`~repro.engine.storage.TableStorage.append_rows`; if that
batch raises, nothing has landed, and the load re-runs row by row so the
first error, the rows landed before it and the clock all come out as a
statement-at-a-time load leaves them. The extraction is split the same
way: :func:`extract` runs the source query and transform and sizes the
rows without touching the clock, and ``run`` charges for them. One
:class:`Extract` can feed several runs of the same job shape (the
marts' view replication), each paying every charge as if it had queried
the source itself.

A row is sized once. When a ``run`` has landed every row, it records
each row with its size under the target database, and :func:`extract`
reuses the recorded size for a result row that is that very tuple (the
marts' view read returns the tuples the warehouse load stored). The
record holds each row, so no other object takes its id while the entry
lives. A row the target hands back as it was loaded was stored as given,
which admits only int, float and str values, so it cannot have changed:
the recorded size is what :func:`~repro.engine.storage.estimate_row_bytes`
returns again. The record is keyed weakly by database and goes with it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.common.errors import ETLError
from repro.common.types import SQLType
from repro.dialects import get_dialect
from repro.engine.database import Database
from repro.engine.storage import estimate_row_bytes
from repro.net import costs
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.sql import ast
from repro.sql.parser import parse_expression


@dataclass
class StagingFile:
    """The temporary file every transfer is staged through."""

    clock: SimClock
    rows: list[tuple] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    nbytes: int = 0

    def write(self, columns: list[str], rows: list[tuple], nbytes: int) -> None:
        """Append rows of size ``nbytes`` (:attr:`Extract.nbytes`),
        paying disk-write time at staging bandwidth."""
        if not self.columns:
            self.columns = list(columns)
        elif self.columns != list(columns):
            raise ETLError("staging file cannot mix row shapes")
        self.rows.extend(rows)
        self.nbytes += nbytes
        # serialize each row to the file's text format, then hit the disk
        self.clock.advance_ms(len(rows) * costs.STAGE_SERIALIZE_ROW_MS)
        self.clock.advance_ms(
            costs.transfer_ms(nbytes, costs.DISK_WRITE_MBPS, 0.0)
        )

    def read_all(self) -> tuple[list[str], list[tuple]]:
        """Read the whole file back, paying disk-read + per-row parse time."""
        self.clock.advance_ms(
            costs.transfer_ms(self.nbytes, costs.DISK_READ_MBPS, 0.0)
        )
        self.clock.advance_ms(len(self.rows) * costs.STAGE_PARSE_ROW_MS)
        return list(self.columns), list(self.rows)


@dataclass
class ETLJob:
    """One table's worth of ETL work."""

    source: Database
    source_host: str
    query: str
    target_table: str
    #: optional denormalizing transform: (columns, rows) -> (columns, rows)
    transform: Callable[[list[str], list[tuple]], tuple[list[str], list[tuple]]] | None = None
    #: column names in the target table (defaults to transformed columns)
    target_columns: list[str] | None = None
    #: ``(query, its parse)``, set by the first :meth:`statement`; a pair
    #: whose text is no longer ``query`` is replaced
    parsed: tuple[str, ast.Select] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def statement(self) -> ast.Select:
        """``query`` parsed, once per text the job holds."""
        if self.parsed is None or self.parsed[0] != self.query:
            # bound at call time: a wrapper installed on the parser
            # module sees this parse
            from repro.sql.parser import parse_select

            self.parsed = (self.query, parse_select(self.query))
        return self.parsed[1]


@dataclass(frozen=True)
class Extract:
    """A job's source rows after its transform, read once and charged
    nothing: :meth:`ETLPipeline.run` charges for them.

    ``rows`` is shared by every run it feeds and must not be mutated.
    ``sizes`` holds each row's simulated size, in ``rows``' order.
    """

    source: Database
    query: str
    transform: Callable | None
    columns: list[str]
    #: the types of ``columns``; None after a transform, which reports none
    types: list[SQLType] | None
    rows: list[tuple]
    #: rows the source query returned, before the transform
    source_rows: int
    rows_examined: int
    #: ``estimate_row_bytes`` of each of ``rows``
    sizes: list[int]
    #: ``rows``' simulated size: the sum of ``sizes``
    nbytes: int

    def check(self, job: ETLJob) -> None:
        """Raise :class:`ETLError` unless this came from ``job``'s
        source, query and transform."""
        if not (
            self.source is job.source
            and self.query == job.query
            and self.transform is job.transform
        ):
            raise ETLError(
                f"extract of {self.query!r} on {self.source.name!r} does not "
                f"match job {job.query!r} on {job.source.name!r}"
            )


#: database -> {id(row): (row, size)} of the rows its ETL loads landed;
#: the row is held so that its id names it while the entry lives
_SIZED: weakref.WeakKeyDictionary[Database, dict[int, tuple[tuple, int]]] = (
    weakref.WeakKeyDictionary()
)


def extract(job: ETLJob) -> Extract:
    """Run ``job``'s source query and transform and size the rows; the
    clock is not touched. A row an ETL load landed in the source keeps
    the size recorded then."""
    result = job.source.execute_statement(job.statement(), sql_text=job.query)
    columns, rows, types = result.columns, result.rows, result.types
    if job.transform is not None:
        columns, rows = job.transform(columns, rows)
        types = None
    sized = _SIZED.get(job.source, {})
    sizes = [
        estimate_row_bytes(row) if (hit := sized.get(id(row))) is None else hit[1]
        for row in rows
    ]
    return Extract(
        source=job.source,
        query=job.query,
        transform=job.transform,
        columns=columns,
        types=types,
        rows=rows,
        source_rows=len(result.rows),
        rows_examined=result.stats.rows_examined,
        sizes=sizes,
        nbytes=sum(sizes),
    )


@dataclass
class VerificationReport:
    """Outcome of a post-load verification pass."""

    job_table: str
    expected_rows: int
    target_rows: int
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]


@dataclass
class ETLReport:
    """Per-job phase timings; the unit Figures 4 and 5 plot."""

    job_table: str
    rows: int
    staged_bytes: int
    extraction_ms: float
    loading_ms: float

    @property
    def staged_kb(self) -> float:
        return self.staged_bytes / 1000.0

    @property
    def extraction_s(self) -> float:
        return self.extraction_ms / 1000.0

    @property
    def loading_s(self) -> float:
        return self.loading_ms / 1000.0


class ETLPipeline:
    """Streams data from source databases into a target database."""

    def __init__(
        self,
        network: Network,
        clock: SimClock,
        target: Database,
        target_host: str,
        autocommit: bool = False,
        epochs=None,
    ):
        self.network = network
        self.clock = clock
        self.target = target
        self.target_host = target_host
        self.autocommit = autocommit
        #: optional :class:`repro.cache.EpochRegistry` — every load that
        #: lands rows bumps the target database's epoch, so federated
        #: query caches drop that database's entries (data-side
        #: invalidation; the §4.9 schema fingerprint ignores row counts)
        self.epochs = epochs
        self.reports: list[ETLReport] = []
        #: target table -> highest watermark value shipped so far
        self.watermarks: dict[str, object] = {}

    # -- phase 1: extraction -------------------------------------------------------

    def _extract(
        self, job: ETLJob, staging: StagingFile | None,
        extracted: Extract | None = None,
    ) -> Extract:
        """Query + stream out + transform (+ stage); ``extracted``, when
        given, stands in for the query and transform, and is charged
        alike."""
        # Opening the stream for the extraction SQL statement (§5.1 counts
        # connect/open/close time into the transfer time).
        self.clock.advance_ms(costs.STREAM_OPEN_CLOSE_MS)
        if extracted is None:
            extracted = extract(job)
        dialect = get_dialect(job.source.vendor)
        # The source streams rows out one by one.
        self.clock.advance_ms(extracted.source_rows * costs.EXTRACT_ROW_MS)
        self.clock.advance_ms(
            extracted.rows_examined * dialect.cost.per_row_scan_us / 1000.0
        )
        if job.transform is not None:
            self.clock.advance_ms(len(extracted.rows) * costs.TRANSFORM_ROW_MS)
        # Ship the transformed stream to the ETL host (co-located with the
        # target) and stage it.
        self.network.transfer(
            job.source_host, self.target_host, extracted.nbytes + 256, self.clock
        )
        if staging is not None:
            self.clock.advance_ms(costs.STREAM_OPEN_CLOSE_MS)
            staging.write(extracted.columns, extracted.rows, extracted.nbytes)
        return extracted

    # -- phase 2: loading -----------------------------------------------------------

    def _load(self, columns: list[str], rows: list[tuple], job: ETLJob) -> None:
        """Stream rows into the target as per-row INSERTs."""
        dialect = get_dialect(self.target.vendor)
        self.clock.advance_ms(costs.STREAM_OPEN_CLOSE_MS)
        target_columns = list(job.target_columns or columns)
        storage = self.target.catalog.get_table(job.target_table)
        # One INSERT statement per row: driver marshalling + statement
        # round-trip to the target's listener + the engine's insert work;
        # autocommit (marts) additionally flushes the log every row.
        per_row = (
            costs.LOAD_MARSHAL_MS
            + costs.LOAD_RTT_MS
            + dialect.cost.per_statement_ms
            + dialect.cost.per_row_insert_ms
        )
        if self.autocommit:
            per_row += dialect.cost.commit_ms + costs.AUTOCOMMIT_FLUSH_MS
        # The engine lands the batch at once. The append is all-or-nothing:
        # when it raises, no row has landed, and the rows go in one at a
        # time below, which lands the same rows before the same first error.
        try:
            storage.append_rows(rows, target_columns)
            insert = None
        except Exception:
            insert = storage.insert
        # The clock is charged per statement either way, in the same order.
        advance = self.clock.advance_ms
        pending = 0
        for row in rows:
            advance(per_row)
            if insert is not None:
                insert(row, target_columns)
            pending += 1
            if not self.autocommit and pending >= costs.WAREHOUSE_COMMIT_EVERY:
                advance(dialect.cost.commit_ms)
                pending = 0
        if pending and not self.autocommit:
            advance(dialect.cost.commit_ms)
        if self.epochs is not None and rows:
            self.epochs.bump(self.target.name)

    # -- public API --------------------------------------------------------------------

    def run(
        self, job: ETLJob, direct: bool = False, *, extracted: Extract | None = None
    ) -> ETLReport:
        """Extract → temp file → load. ``direct`` is the paper's
        future-work fix: no staging file, a single pass. ``extracted``
        is :func:`extract` of this job, read once for several runs; the
        run costs what it would cost reading the source itself."""
        if extracted is not None:
            extracted.check(job)
        staging = None if direct else StagingFile(self.clock)
        t0 = self.clock.now_ms
        extracted = self._extract(job, staging, extracted)
        columns, rows, nbytes = extracted.columns, extracted.rows, extracted.nbytes
        extraction_ms = self.clock.now_ms - t0

        t1 = self.clock.now_ms
        if staging is not None:
            columns, rows = staging.read_all()
        self._load(columns, rows, job)
        loading_ms = self.clock.now_ms - t1
        # every row landed: an extract from the target reuses their sizes
        sized = _SIZED.setdefault(self.target, {})
        sized.update(zip(map(id, extracted.rows), zip(extracted.rows, extracted.sizes)))

        report = ETLReport(
            job_table=job.target_table,
            rows=len(rows),
            staged_bytes=nbytes if direct else staging.nbytes,
            extraction_ms=extraction_ms,
            loading_ms=loading_ms,
        )
        self.reports.append(report)
        return report

    # -- post-load verification -----------------------------------------------------------

    def verify(self, job: ETLJob) -> "VerificationReport":
        """Re-extract and confirm every expected row reached the target.

        Production ETL's trust-but-verify step: the source query (and
        transform) is re-run, and each resulting row must exist in the
        target table — catching lost rows, double-loads and coercion
        drift. Numeric totals are compared with a relative tolerance to
        allow cross-vendor float representation differences.
        """
        extracted = self._extract(job, staging=None)
        columns, rows = extracted.columns, extracted.rows
        target_columns = job.target_columns or columns
        storage = self.target.catalog.get_table(job.target_table)
        positions = [storage.column_position(c) for c in target_columns]
        target_proj = {tuple(r[i] for i in positions) for r in storage.rows}

        checks: list[tuple[str, bool, str]] = []
        missing = [row for row in rows if tuple(row) not in target_proj]
        checks.append(
            (
                "row_presence",
                not missing,
                f"{len(missing)} of {len(rows)} expected rows missing"
                if missing
                else f"all {len(rows)} expected rows present",
            )
        )
        checks.append(
            (
                "row_count",
                storage.row_count >= len(rows),
                f"target has {storage.row_count} rows, expected at least {len(rows)}",
            )
        )
        expected_keys = {tuple(r) for r in rows}
        shipped_rows = [
            r for r in storage.rows if tuple(r[i] for i in positions) in expected_keys
        ]
        for idx, name in enumerate(columns):
            sample = next((r[idx] for r in rows if r[idx] is not None), None)
            if not isinstance(sample, (int, float)) or isinstance(sample, bool):
                continue
            expected_sum = sum(r[idx] for r in rows if r[idx] is not None)
            tpos = positions[idx]
            actual_sum = sum(
                r[tpos] for r in shipped_rows if r[tpos] is not None
            )
            ok = abs(actual_sum - expected_sum) <= 1e-9 * max(1.0, abs(expected_sum))
            checks.append(
                (
                    f"sum({name})",
                    ok,
                    f"expected {expected_sum!r}, target {actual_sum!r}",
                )
            )
        return VerificationReport(
            job_table=job.target_table,
            expected_rows=len(rows),
            target_rows=storage.row_count,
            checks=checks,
        )

    # -- incremental loads --------------------------------------------------------------

    def run_incremental(
        self,
        job: ETLJob,
        watermark: str,
    ) -> ETLReport:
        """Delta load: only source rows past the stored watermark.

        ``watermark`` is a (possibly qualified) column in the job's
        extraction query, e.g. ``e.event_id``; rows with values at or
        below the last seen maximum are skipped at the *source*. The
        new maximum is taken from the watermark's bare column name in
        the transformed rows, so repeated calls ship only fresh data —
        production ETL's answer to re-streaming the whole source every
        night. The delta is staged like a full load.
        """
        output_col = watermark.split(".")[-1]
        last = self.watermarks.get(job.target_table)
        query, select = job.query, job.statement()
        if last is not None:
            guard = ast.BinaryOp(
                ">", parse_expression(watermark), ast.Literal(last)
            )
            where = ast.conjoin(c for c in (select.where, guard) if c is not None)
            select = replace(select, where=where)
            query = select.unparse()
        delta_job = ETLJob(
            source=job.source,
            source_host=job.source_host,
            query=query,
            target_table=job.target_table,
            transform=job.transform,
            target_columns=job.target_columns,
        )
        # the delta's text is this tree's unparse: extract runs the tree
        delta_job.parsed = (query, select)
        delta = extract(delta_job)
        columns = [c.lower() for c in delta.columns]
        if delta.rows and output_col.lower() not in columns:
            # refused before any row lands, so a retry does not load twice
            raise ETLError(
                f"watermark column {output_col!r} is not in the extracted rows"
            )
        report = self.run(delta_job, extracted=delta)
        # advance the watermark from what actually arrived
        if report.rows:
            idx = columns.index(output_col.lower())
            values = [r[idx] for r in delta.rows if r[idx] is not None]
            if values:
                peak = max(values)
                if last is None or peak > last:
                    self.watermarks[job.target_table] = peak
        return report
