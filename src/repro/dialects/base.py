"""Dialect base class and the vendor cost profile.

A dialect never executes anything itself; it names the statement a
vendor runs, renders SQL *text* in the vendor's surface syntax and maps
types both ways. The engine parser accepts every vendor spelling a
dialect can emit, so vendor DDL/DML round-trips through the engine —
this is the "N technologies" half of the paper's N×S argument.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.errors import ConnectionFailedError, SQLTypeError
from repro.common.types import SQLType, TypeKind, sql_repr
from repro.sql import ast


@dataclass(frozen=True)
class CostProfile:
    """Latency constants (milliseconds unless noted) for one vendor.

    Fitted so the simulated testbed reproduces the paper's Table 1 and
    Figures 4-6 shapes; see ``repro/net/costs.py`` for the fit notes.
    """

    connect_ms: float
    auth_ms: float
    per_row_scan_us: float
    per_row_insert_ms: float
    per_statement_ms: float
    commit_ms: float


@dataclass(frozen=True)
class ConnectionURL:
    """A parsed vendor connection URL."""

    vendor: str
    host: str
    port: int
    database: str
    user: str | None = None
    password: str | None = None


class Dialect:
    """Base vendor personality; subclasses override the class attributes."""

    name = "generic"
    display_name = "Generic SQL"
    quote_char = '"'
    limit_style = "limit"  # 'limit' | 'top' | 'client'  (client: middleware truncates)
    pool_supported = True
    default_port = 5432
    url_scheme = "jdbc:generic"
    cost = CostProfile(
        connect_ms=80.0,
        auth_ms=40.0,
        per_row_scan_us=2.0,
        per_row_insert_ms=0.4,
        per_statement_ms=1.0,
        commit_ms=5.0,
    )
    #: Engine function names this vendor (in its paper-era release)
    #: cannot evaluate; the lint pass flags them before a sub-query ships.
    unsupported_functions: frozenset[str] = frozenset()

    def supports_function(self, name: str) -> bool:
        """Whether the vendor can evaluate the (engine-known) function."""
        return name.upper() not in self.unsupported_functions

    # -- identifiers -------------------------------------------------------------

    def quote_ident(self, name: str) -> str:
        if self.quote_char == "[":
            return f"[{name}]"
        return f"{self.quote_char}{name}{self.quote_char}"

    # -- type mapping ------------------------------------------------------------

    #: logical kind -> vendor type-name template; subclasses override entries.
    _TYPE_NAMES: dict[TypeKind, str] = {
        TypeKind.INTEGER: "INTEGER",
        TypeKind.BIGINT: "BIGINT",
        TypeKind.FLOAT: "FLOAT",
        TypeKind.DOUBLE: "DOUBLE",
        TypeKind.DECIMAL: "DECIMAL({p},{s})",
        TypeKind.VARCHAR: "VARCHAR({n})",
        TypeKind.CHAR: "CHAR({n})",
        TypeKind.TEXT: "TEXT",
        TypeKind.BOOLEAN: "BOOLEAN",
        TypeKind.DATE: "DATE",
        TypeKind.TIMESTAMP: "TIMESTAMP",
        TypeKind.BLOB: "BLOB",
    }

    def format_type(self, sql_type: SQLType) -> str:
        """Render a logical type in this vendor's spelling."""
        template = self._TYPE_NAMES.get(sql_type.kind)
        if template is None:
            raise SQLTypeError(f"{self.display_name} cannot represent {sql_type}")
        return template.format(
            n=sql_type.length or 255,
            p=sql_type.precision if sql_type.precision is not None else 38,
            s=sql_type.scale if sql_type.scale is not None else 0,
        )

    # -- statement rendering -------------------------------------------------------

    def render_create_table(self, name: str, columns) -> str:
        """Vendor DDL for a table; ``columns`` are engine Column objects."""
        defs = []
        pk = [c.name for c in columns if c.primary_key]
        for col in columns:
            parts = [self.quote_ident(col.name), self.format_type(col.type)]
            if col.not_null and not col.primary_key:
                parts.append("NOT NULL")
            if col.has_default:
                parts.append(f"DEFAULT {sql_repr(col.default)}")
            defs.append(" ".join(parts))
        if pk:
            defs.append(f"PRIMARY KEY ({', '.join(self.quote_ident(c) for c in pk)})")
        return f"CREATE TABLE {self.quote_ident(name)} ({', '.join(defs)})"

    def vendor_select(self, select: ast.Select) -> ast.Select:
        """The statement this vendor executes for ``select``.

        A 'client' vendor has no portable limit clause: its top-level
        LIMIT is dropped and the caller truncates after fetch. Every
        other vendor runs ``select`` itself.
        """
        if select.limit is not None and self.limit_style == "client":
            return replace(select, limit=None)
        return select

    def render_select(self, select: ast.Select) -> str:
        """:meth:`vendor_select`'s statement as text in vendor syntax
        (limit spelling differs)."""
        stmt = self.vendor_select(select)
        if stmt.limit is None or self.limit_style == "limit":
            return stmt.unparse()
        text = replace(stmt, limit=None).unparse()
        head = "SELECT DISTINCT" if stmt.distinct else "SELECT"
        assert text.startswith(head)
        return f"{head} TOP {stmt.limit}{text[len(head):]}"

    @property
    def limit_applied_client_side(self) -> bool:
        return self.limit_style == "client"

    # -- connection URLs -------------------------------------------------------------

    def make_url(self, host: str, port: int | None, database: str) -> str:
        port = port or self.default_port
        return f"{self.url_scheme}://{host}:{port}/{database}"

    def parse_url(self, url: str) -> ConnectionURL:
        prefix = f"{self.url_scheme}://"
        if not url.startswith(prefix):
            raise ConnectionFailedError(
                f"URL {url!r} does not match scheme {self.url_scheme!r}"
            )
        rest = url[len(prefix):]
        if "/" not in rest:
            raise ConnectionFailedError(f"URL {url!r} is missing a database name")
        hostport, database = rest.split("/", 1)
        if ":" in hostport:
            host, port_text = hostport.rsplit(":", 1)
            try:
                port = int(port_text)
            except ValueError:
                raise ConnectionFailedError(f"bad port in URL {url!r}") from None
        else:
            host, port = hostport, self.default_port
        if not host or not database:
            raise ConnectionFailedError(f"URL {url!r} is missing host or database")
        return ConnectionURL(self.name, host, port, database)
