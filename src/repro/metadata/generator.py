"""XSpec generation from a live database catalog.

This is the simulated equivalent of the Unity project's spec-generation
tools: point it at a database, get the lower-level XSpec. Logical names
default to lower-cased physical names; a ``logical_names`` override maps
physical → logical for sites whose schemas use vendor-specific naming
(e.g. Oracle's upper-case ``EVENT_NTUPLE`` published logically as
``events``). Foreign-key style relationships are auto-detected from the
``<table>_<pkcolumn>`` naming convention used by the HEP schemas.
"""

from __future__ import annotations

from repro.dialects import get_dialect
from repro.engine.database import Database
from repro.metadata.xspec import (
    LowerXSpec,
    XSpecColumn,
    XSpecRelationship,
    XSpecTable,
)


def generate_lower_xspec(
    database: Database,
    logical_names: dict[str, str] | None = None,
) -> LowerXSpec:
    """Introspect ``database`` and build its canonical lower XSpec,
    views included."""
    logical_names = {k.lower(): v for k, v in (logical_names or {}).items()}
    dialect = get_dialect(database.vendor)
    tables: list[XSpecTable] = []

    names = database.catalog.table_names() + database.catalog.view_names()

    pk_by_table: dict[str, str] = {}
    for name in database.catalog.table_names():
        storage = database.catalog.get_table(name)
        pks = [c.name for c in storage.columns if c.primary_key]
        if len(pks) == 1:
            pk_by_table[name.lower()] = pks[0]

    for name in names:
        columns, row_count = _describe(database, name)
        xcolumns = tuple(
            XSpecColumn(
                name=col_name,
                logical_name=col_name.lower(),
                vendor_type=dialect.format_type(col_type),
                logical_type=col_type,
                not_null=not_null,
                primary_key=primary_key,
            )
            for col_name, col_type, not_null, primary_key in columns
        )
        tables.append(
            XSpecTable(
                name=name,
                logical_name=logical_names.get(name.lower(), name.lower()),
                columns=xcolumns,
                row_count=row_count,
            )
        )

    relationships = _detect_relationships(database, pk_by_table)
    return LowerXSpec(
        database_name=database.name,
        vendor=database.vendor,
        tables=tuple(tables),
        relationships=tuple(relationships),
    )


def _describe(database: Database, name: str):
    """(columns, row_count) for a table or view."""
    if database.catalog.has_table(name):
        storage = database.catalog.get_table(name)
        cols = [
            (c.name, c.type, c.not_null, c.primary_key) for c in storage.columns
        ]
        return cols, storage.row_count
    schema_cols, rows = database.resolve_table(name)
    cols = [(c.name, c.type, False, False) for c in schema_cols]
    return cols, len(rows)


def _detect_relationships(
    database: Database, pk_by_table: dict[str, str]
) -> list[XSpecRelationship]:
    """Detect ``child.parent_pk -> parent.pk`` naming-convention FKs."""
    # lower-cased pk name -> [(parent table, pk)], in pk_by_table order
    parents_by_pk: dict[str, list[tuple[str, str]]] = {}
    for parent_lower, pk in pk_by_table.items():
        parents_by_pk.setdefault(pk.lower(), []).append((parent_lower, pk))
    out: list[XSpecRelationship] = []
    for child_name in database.catalog.table_names():
        child = database.catalog.get_table(child_name)
        child_lower = child_name.lower()
        for col in child.columns:
            if col.primary_key:
                continue
            # e.g. column 'run_id' references table 'runs' pk 'run_id'
            for parent_lower, pk in parents_by_pk.get(col.name.lower(), ()):
                if parent_lower == child_lower:
                    continue
                parent = database.catalog.get_table(parent_lower)
                out.append(
                    XSpecRelationship(
                        table=child.name,
                        column=col.name,
                        ref_table=parent.name,
                        ref_column=pk,
                    )
                )
    return out
