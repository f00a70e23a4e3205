"""EXPLAIN: human-readable plan outlines without executing.

``explain_statement`` mirrors the executor's actual decisions — whether
a table is scanned or read through a key range of its sorted index,
which join becomes a hash join on which keys, which conjuncts remain
residual, where filters/aggregates/sorts apply — by running the same
analysis the executor would, against catalog metadata and indexes only.
"""

from __future__ import annotations

from repro.engine.executor import access_path, equi_join_keys
from repro.sql import ast
from repro.sql.eval import RowSchema, SchemaColumn
from repro.sql.parser import parse_statement


def _schema_for(db, ref: ast.TableRef) -> RowSchema:
    columns, _rows = db.resolve_table(ref.name)
    return RowSchema([SchemaColumn(ref.binding, c.name, c.type) for c in columns])


def _table_size(db, name: str) -> str:
    if db.catalog.has_table(name):
        return f"{db.catalog.get_table(name).row_count} rows"
    return "view"


def explain_select(db, select: ast.Select, indent: str = "") -> list[str]:
    lines: list[str] = []
    if not select.from_:
        lines.append(f"{indent}evaluate scalar select")
        return lines

    first = select.from_[0]
    alias = f" AS {first.alias}" if first.alias else ""
    schema = _schema_for(db, first)
    path = None
    if len(select.from_) == 1 and not select.joins:
        path = access_path(db, first, schema, select.where)
    if path is None:
        lines.append(
            f"{indent}scan {first.name}{alias} ({_table_size(db, first.name)})"
        )
    else:
        key_range, _index = path
        lines.append(
            f"{indent}index range {first.name}.{key_range.column}{alias} {key_range}"
        )
    for ref in select.from_[1:]:
        lines.append(
            f"{indent}cross join {ref.name} ({_table_size(db, ref.name)})"
        )
        schema = schema.concat(_schema_for(db, ref))

    for join in select.joins:
        rschema = _schema_for(db, join.table)
        label = f"{join.table.name}" + (
            f" AS {join.table.alias}" if join.table.alias else ""
        )
        if join.kind == "CROSS" or join.on is None:
            lines.append(f"{indent}cross join {label}")
            schema = schema.concat(rschema)
            continue
        equi, residual = [], []
        for conj in ast.conjuncts(join.on):
            if equi_join_keys(conj, schema, rschema) is not None:
                equi.append(conj.unparse())
            else:
                residual.append(conj.unparse())
        if equi:
            lines.append(
                f"{indent}{join.kind.lower()} hash join {label} on "
                + " AND ".join(equi)
            )
            if residual:
                lines.append(f"{indent}  residual: " + " AND ".join(residual))
        else:
            lines.append(
                f"{indent}{join.kind.lower()} nested-loop join {label} on "
                f"{join.on.unparse()}"
            )
        schema = schema.concat(rschema)

    if select.where is not None:
        lines.append(f"{indent}filter: {select.where.unparse()}")
    if select.is_grouped:
        aggs = sorted(
            {
                node.unparse()
                for item in select.items
                for node in ast.walk(item.expr)
                if ast.is_aggregate_call(node)
            }
        )
        group = ", ".join(g.unparse() for g in select.group_by) or "<all rows>"
        lines.append(f"{indent}aggregate [{', '.join(aggs)}] group by {group}")
        if select.having is not None:
            lines.append(f"{indent}having: {select.having.unparse()}")
    lines.append(
        f"{indent}project: " + ", ".join(i.unparse() for i in select.items)
    )
    if select.order_by:
        lines.append(
            f"{indent}sort: " + ", ".join(o.unparse() for o in select.order_by)
        )
    if select.distinct:
        lines.append(f"{indent}distinct")
    if select.limit is not None or select.offset is not None:
        lines.append(
            f"{indent}limit {select.limit}"
            + (f" offset {select.offset}" if select.offset else "")
        )
    return lines


def explain_statement(db, sql: str | ast.Statement) -> list[str]:
    """Plan outline for a SELECT or UNION (DDL/DML explain trivially)."""
    stmt = parse_statement(sql) if isinstance(sql, str) else sql
    if isinstance(stmt, ast.Select):
        return explain_select(db, stmt)
    if isinstance(stmt, ast.Union):
        lines = [f"union{' all' if stmt.all else ''} of {len(stmt.selects)} branches:"]
        for i, branch in enumerate(stmt.selects, start=1):
            lines.append(f"  branch {i}:")
            lines.extend(explain_select(db, branch, indent="    "))
        if stmt.order_by:
            lines.append(
                "  sort: " + ", ".join(o.unparse() for o in stmt.order_by)
            )
        if stmt.limit is not None:
            lines.append(f"  limit {stmt.limit}")
        return lines
    return [f"{type(stmt).__name__.lower()}: {stmt.unparse()}"]
