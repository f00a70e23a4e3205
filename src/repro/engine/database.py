"""The per-server database facade: parse + dispatch + execute.

One :class:`Database` models one vendor database instance. It owns a
:class:`~repro.engine.catalog.Catalog`, accepts SQL text (optionally with
positional parameters), and returns :class:`ExecResult`. Views are
expanded recursively at resolve time, which is exactly how the paper's
warehouse exposes its read-only analysis views.
"""

from __future__ import annotations

from repro.common.errors import PlanningError, SQLSyntaxError, TableNotFoundError
from repro.engine.catalog import Catalog, ViewDef
from repro.engine.executor import ExecResult, SelectExecutor
from repro.engine.storage import Column, TableStorage
from repro.sql import ast
from repro.sql.eval import RowSchema, SchemaColumn, compile_expr
from repro.sql.parser import parse_statement


class Database:
    """One simulated database server instance.

    ``vendor`` names the dialect personality (resolved lazily to avoid an
    import cycle with :mod:`repro.dialects`); the engine itself is
    vendor-neutral.
    """

    def __init__(self, name: str, vendor: str = "generic"):
        self.name = name
        self.vendor = vendor
        self.catalog = Catalog(name)
        self._view_depth = 0

    def __repr__(self) -> str:
        return f"Database(name={self.name!r}, vendor={self.vendor!r})"

    # -- TableResolver protocol ----------------------------------------------------

    def resolve_table(self, name: str) -> tuple[list, list[tuple]]:
        """(columns, rows) of a base table, or of a view expanded now.
        Each column has a ``name`` and a ``type``; a base table's are its
        stored :class:`Column` list, read in place."""
        if self.catalog.has_table(name):
            table = self.catalog.get_table(name)
            return table.columns, table.rows
        view = self.catalog.get_view(name)
        if view is not None:
            if self._view_depth > 16:
                raise PlanningError(f"view expansion too deep at {name!r}")
            self._view_depth += 1
            try:
                result = SelectExecutor(self).execute(view.select)
            finally:
                self._view_depth -= 1
            cols = [
                SchemaColumn(None, cname, ctype)
                for cname, ctype in zip(result.columns, result.types)
            ]
            return cols, result.rows
        raise TableNotFoundError(name, self.name)

    def base_table(self, name: str) -> TableStorage | None:
        """Storage of base table ``name``, None for a view or a miss: the
        executor reads range indexes through it."""
        if self.catalog.has_table(name):
            return self.catalog.get_table(name)
        return None

    # -- statement execution ---------------------------------------------------------

    def execute(self, sql: str, params: tuple = ()) -> ExecResult:
        """Parse and execute one SQL statement."""
        stmt = parse_statement(sql)
        return self.execute_statement(stmt, params, sql_text=sql)

    def execute_statement(
        self, stmt: ast.Statement, params: tuple = (), sql_text: str | None = None
    ) -> ExecResult:
        """Execute an already-parsed statement."""
        if isinstance(stmt, ast.Select):
            return SelectExecutor(self, params).execute(stmt)
        if isinstance(stmt, ast.CreateTable):
            columns = [
                Column(
                    name=c.name,
                    type=c.type,
                    not_null=c.not_null,
                    primary_key=c.primary_key,
                    default=c.default,
                    has_default=c.has_default,
                )
                for c in stmt.columns
            ]
            self.catalog.create_table(stmt.name, columns)
            return ExecResult()
        if isinstance(stmt, ast.CreateView):
            text = sql_text or stmt.unparse()
            self.catalog.create_view(ViewDef(stmt.name, stmt.select, text))
            return ExecResult()
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt, params)
        if isinstance(stmt, ast.AlterTable):
            column = stmt.column
            self.catalog.get_table(stmt.table).add_column(
                Column(
                    name=column.name,
                    type=column.type,
                    not_null=column.not_null,
                    default=column.default,
                    has_default=column.has_default,
                )
            )
            return ExecResult()
        raise SQLSyntaxError(f"unsupported statement type {type(stmt).__name__}")

    # -- DML --------------------------------------------------------------------------

    def _execute_insert(self, stmt: ast.Insert, params: tuple) -> ExecResult:
        table = self.catalog.get_table(stmt.table)
        empty = RowSchema([])
        rows = [[compile_expr(e, empty, params)(()) for e in row_exprs] for row_exprs in stmt.rows]
        # one batch: a row that fails leaves the whole statement unstored
        return ExecResult(rowcount=table.append_rows(rows, list(stmt.columns) or None))

    # -- bulk API used by ETL/materialization ------------------------------------------

    def bulk_insert(self, table_name: str, rows: list[list]) -> int:
        """Fast path for streaming loads: no SQL parse per row."""
        table = self.catalog.get_table(table_name)
        return table.append_rows(rows)
