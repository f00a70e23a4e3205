"""Row storage for one table, with constraints and a sorted range index.

Rows are stored as tuples in insertion order. Every write goes through
one staging routine (``TableStorage._stage``), which coerces a batch,
checks NOT NULL and primary-key uniqueness, and raises before any row
lands: SQL INSERT (one batch per statement), bulk appends and the
monitor's wholesale system-table refreshes alike. A primary-key hash map
enforces uniqueness and is maintained eagerly. Everything else a query
reads off a table's rows is a derived index, kept in one store: the
sorted ``(keys, positions)`` range index on a single-column numeric
primary key, and each hash-join build side the executor asks for. Each
is built lazily on first use and the whole store is dropped on every
mutation (rebuild-on-demand keeps the mutation path simple and is the
right trade for the read-mostly mart and source workloads the paper
evaluates). A table keeps no byte count: ETL sizes what it extracts and
the codec what it ships.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from repro.common.errors import (
    ColumnNotFoundError,
    DuplicateObjectError,
    IntegrityError,
)
from repro.common.types import SQLType, coerce_value, coerces_unchanged


@dataclass(frozen=True)
class Column:
    """Schema of one stored column."""

    name: str
    type: SQLType
    not_null: bool = False
    primary_key: bool = False
    default: object = None
    has_default: bool = False


def estimate_value_bytes(value: object) -> int:
    """Approximate wire/storage footprint of one value.

    Used for the kB-based ETL benchmarks (Figs 4-5) and network payload
    sizing; mirrors a simple text-protocol encoding.
    """
    if value is None:
        return 4  # 'NULL'
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, len(str(value)))
    if isinstance(value, float):
        return len(repr(value))
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    return len(str(value))


def estimate_row_bytes(row: tuple) -> int:
    """Footprint of a full row including per-value separators.

    Equal to ``sum(estimate_value_bytes(v) for v in row) + len(row)``;
    the exact built-in types of stored values are sized inline.
    """
    total = len(row)
    for value in row:
        vtype = type(value)
        if vtype is int:
            total += len(str(value))
        elif vtype is float:
            total += len(repr(value))
        elif vtype is str:
            total += len(value)
        elif value is None:
            total += 4
        else:
            total += estimate_value_bytes(value)
    return total


_NONE_TYPE = type(None)

#: insert plans a table keeps before it drops them all: a bound against a
#: client that keeps sending new INSERT column lists
_MAX_INSERT_PLANS = 64

#: derived indexes a table keeps before it drops them all: a bound against
#: a client that keeps joining on new key columns
_MAX_DERIVED = 16

#: (sorted keys, their row positions) — the range-index shape
SortedIndex = tuple[list, list[int]]

#: the range index's key in the derived-index store
_RANGE = "range"


class TableStorage:
    """Storage and constraint enforcement for a single table."""

    def __init__(self, name: str, columns: list[Column]):
        if not columns:
            raise IntegrityError(f"table {name!r} must have at least one column")
        seen = set()
        for col in columns:
            key = col.name.lower()
            if key in seen:
                raise DuplicateObjectError(f"duplicate column {col.name!r} in {name!r}")
            seen.add(key)
        self.name = name
        self.columns = list(columns)
        self.rows: list[tuple] = []
        self._col_index = {c.name.lower(): i for i, c in enumerate(self.columns)}
        # INSERT column list -> its insert plan; cleared when a column is
        # added
        self._plans: dict[tuple[str, ...], list[tuple[int | None, object]] | None] = {}
        pk_cols = [i for i, c in enumerate(self.columns) if c.primary_key]
        self._pk_positions: tuple[int, ...] = tuple(pk_cols)
        # primary key -> row position (empty without a primary key)
        self._pk_index: dict[tuple, int] = {}
        # the single numeric primary-key column: the one with a sorted
        # access path
        self.range_column: str | None = None
        if len(pk_cols) == 1 and self.columns[pk_cols[0]].type.kind.is_numeric:
            self.range_column = self.columns[pk_cols[0]].name
        # derived indexes over ``rows`` (:meth:`derived`), dropped at
        # every mutation
        self._derived: dict[object, object] = {}

    # Introspection -------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def column_position(self, name: str) -> int:
        idx = self._col_index.get(name.lower())
        if idx is None:
            raise ColumnNotFoundError(name, self.name)
        return idx

    def has_column(self, name: str) -> bool:
        return name.lower() in self._col_index

    # Mutation ------------------------------------------------------------------

    def _insert_plan(self, columns: list[str]) -> list[tuple[int | None, object]] | None:
        """``(value index or None, default)`` for every table column, in
        table order: where the values of an INSERT naming ``columns`` go;
        None when ``columns`` names every column in table order, so the
        values are already in place. Built once per column list and
        cached until the table's columns change; a list that names an
        unknown column or one column twice raises and is not cached."""
        key = tuple(columns)
        if key in self._plans:
            return self._plans[key]
        given: dict[str, int] = {}
        for i, name in enumerate(columns):
            lowered = name.lower()
            if lowered not in self._col_index:
                raise ColumnNotFoundError(name, self.name)
            if lowered in given:
                raise IntegrityError(
                    f"column {name!r} named twice in INSERT into {self.name!r}"
                )
            given[lowered] = i
        plan = None
        if list(given) != [col.name.lower() for col in self.columns]:
            plan = [
                (given.get(col.name.lower()), col.default if col.has_default else None)
                for col in self.columns
            ]
        if len(self._plans) >= _MAX_INSERT_PLANS:
            self._plans.clear()
        self._plans[key] = plan
        return plan

    def insert(self, values: Sequence, columns: list[str] | None = None) -> tuple:
        """Insert one row, as a one-row :meth:`append_rows`; returns the
        stored (coerced) tuple. The ETL load's per-row fallback uses it."""
        self.append_rows([values], columns)
        return self.rows[-1]

    def append_rows(
        self, rows: list[Sequence], columns: list[str] | None = None
    ) -> int:
        """Bulk insert: stage every row (:meth:`_stage`), then commit the
        batch at once.

        All-or-nothing — constraint violations (including duplicate keys
        *within* the batch) raise before any row lands, and the range
        index is dropped once instead of per row. SQL INSERT lands each
        statement's VALUES rows as one batch; the scratch-engine merge,
        the testbed loaders and the ETL loads append here too.
        """
        if not rows:
            return 0
        staged, keys = self._stage(rows, columns, self._pk_index)
        base = len(self.rows)
        self._pk_index.update(zip(keys, range(base, base + len(keys))))
        self.rows.extend(staged)
        self._derived.clear()
        return len(staged)

    def replace_rows(self, rows: list[Sequence]) -> None:
        """Wholesale row replacement (the monitor's system tables),
        staged like :meth:`append_rows` against no stored key: a batch
        that an append would refuse raises and leaves the table as it
        was."""
        staged, keys = self._stage(rows, None, {})
        self.rows = staged
        self._pk_index = dict(zip(keys, range(len(keys))))
        self._derived.clear()

    def _stage(
        self, rows: list[Sequence], columns: list[str] | None, stored_keys: dict[tuple, int]
    ) -> tuple[list[tuple], list[tuple]]:
        """The one write check: ``rows`` coerced onto the table's columns
        and their primary keys (none without a primary key). Raises when
        a row breaks a constraint, or its key is in ``stored_keys`` or
        repeats an earlier row's.

        A batch without a column list, or with one that names every
        column in table order, is checked a column at a time
        (:meth:`_coerce_columns`); any other column list, or a batch that
        check cannot vouch for, takes the row path (:meth:`_stage_rows`),
        so the first error raised is the one the row path raises.
        """
        staged = self._coerce_columns(rows) if self._in_place(columns) else None
        if staged is None:
            return self._stage_rows(rows, columns, stored_keys)
        return staged, self._batch_keys(staged, stored_keys)

    def _in_place(self, columns: list[str] | None) -> bool:
        """True when values given for ``columns`` are already in table
        order: no list, or one naming every column in table order. A
        list naming an unknown column or one column twice is not; the
        row path raises its error."""
        if columns is None:
            return True
        try:
            return self._insert_plan(columns) is None
        except (ColumnNotFoundError, IntegrityError):
            return False

    def _stage_rows(
        self, rows: list[Sequence], columns: list[str] | None, stored_keys: dict[tuple, int]
    ) -> tuple[list[tuple], list[tuple]]:
        """The row path: each row in turn is put in table order (with
        defaults for the columns ``columns`` leaves out), coerced,
        checked for NOT NULL a column at a time, and key-checked."""
        width = len(self.columns if columns is None else columns)
        staged: list[tuple] = []
        staged_keys: dict[tuple, None] = {}
        for values in rows:
            if len(values) != width:
                raise IntegrityError(
                    f"table {self.name!r} expects {width} values, got {len(values)}"
                    if columns is None
                    else f"INSERT column list has {width} names but {len(values)} values"
                )
            plan = None if columns is None else self._insert_plan(columns)
            ordered = values if plan is None else [
                default if index is None else values[index] for index, default in plan
            ]
            coerced_row = []
            for col, value in zip(self.columns, ordered):
                coerced = None if value is None else coerce_value(value, col.type)
                if coerced is None and col.not_null:
                    raise IntegrityError(
                        f"NULL violates NOT NULL on {self.name}.{col.name}"
                    )
                coerced_row.append(coerced)
            row = tuple(coerced_row)
            if self._pk_positions:
                key = tuple(row[i] for i in self._pk_positions)
                if key in stored_keys or key in staged_keys:
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
                staged_keys[key] = None
            staged.append(row)
        return staged, list(staged_keys)

    def _batch_keys(self, staged: list[tuple], stored_keys: dict[tuple, int]) -> list[tuple]:
        """Primary keys of already-coerced rows (none without a primary
        key), raising on the first row in batch order whose key is in
        ``stored_keys`` or repeats an earlier one."""
        if not self._pk_positions:
            return []
        keys = list(zip(*[map(itemgetter(i), staged) for i in self._pk_positions]))
        if len(dict.fromkeys(keys)) < len(keys) or not stored_keys.keys().isdisjoint(keys):
            seen: set[tuple] = set()
            for key in keys:
                if key in stored_keys or key in seen:
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
                seen.add(key)
        return keys

    def _coerce_columns(self, rows: list[Sequence]) -> list[tuple] | None:
        """The coerced rows of a full-width batch, checked a column at a
        time. A column whose values ``coerce_value`` would all return
        unchanged (``coerces_unchanged``) is kept as it is; any other
        column is coerced value by value. When every column is kept, the
        rows are returned as given: a tuple is stored as the same object,
        a list becomes a tuple. None when a row is ragged, a NOT NULL
        column holds a NULL or any value fails: the caller then re-runs
        the row path, which raises that path's first error.
        """
        try:
            if set(map(len, rows)) != {len(self.columns)}:
                return None
            coerced = []
            unchanged = True
            for col, values in zip(self.columns, zip(*rows)):
                kinds = set(map(type, values))
                if _NONE_TYPE in kinds:
                    if col.not_null:
                        return None
                    kinds.discard(_NONE_TYPE)
                if coerces_unchanged(kinds, values, col.type):
                    coerced.append(values)
                else:
                    unchanged = False
                    coerced.append(map(coerce_value, values, repeat(col.type)))
            if unchanged:
                return list(map(tuple, rows))
            return list(zip(*coerced))
        except Exception:
            # not swallowed: the row path raises it again, or the error
            # of an earlier row that the row path meets first
            return None

    # Schema evolution ----------------------------------------------------------

    def add_column(self, column: Column) -> None:
        if self.has_column(column.name):
            raise DuplicateObjectError(
                f"column {column.name!r} already exists in {self.name!r}"
            )
        fill = column.default if column.has_default else None
        if fill is None and column.not_null and self.rows:
            raise IntegrityError(
                f"cannot add NOT NULL column {column.name!r} without default to "
                f"non-empty table {self.name!r}"
            )
        self.columns.append(column)
        self.rows = [row + (fill,) for row in self.rows]
        self._col_index[column.name.lower()] = len(self.columns) - 1
        self._plans.clear()
        # the new column is last: row positions and primary keys stay,
        # but every derived index holds the old row tuples
        self._derived.clear()

    # Derived indexes -------------------------------------------------------------

    def derived(self, key: object, build: Callable[[list[tuple]], object]) -> object:
        """The index ``build(rows)`` stored under ``key``, built on first
        use after a mutation and kept until the next one (or until
        :data:`_MAX_DERIVED` others crowd the store). The caller must
        not change what it is handed."""
        try:
            return self._derived[key]
        except KeyError:
            if len(self._derived) >= _MAX_DERIVED:
                self._derived.clear()
            index = self._derived[key] = build(self.rows)
            return index

    def sorted_index(self) -> SortedIndex | None:
        """``(keys, positions)`` of the range column's non-NULL values in
        key order (ties in storage order), built on first use after a
        mutation. None when the table has no range column or it holds a
        value that is not a finite int or float: only a total order
        over the keys makes a bisected range equal to a scan."""
        if self.range_column is None:
            return None
        return self.derived(_RANGE, self._build_sorted_index)

    def _build_sorted_index(self, rows: list[tuple]) -> SortedIndex | None:
        pos = self._col_index[self.range_column.lower()]
        values = [row[pos] for row in rows]
        if not all(
            type(v) is int or (type(v) is float and math.isfinite(v)) or v is None
            for v in values
        ):
            return None
        order = sorted(
            (i for i, v in enumerate(values) if v is not None),
            key=values.__getitem__,
        )
        return [values[i] for i in order], order
