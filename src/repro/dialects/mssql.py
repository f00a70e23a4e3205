"""Microsoft SQL Server dialect — mart vendor on the Windows 2000 box.

Quirks modeled: bracket quoting, ``TOP n`` instead of LIMIT, BIT
booleans, ``NVARCHAR``, semicolon-parameter connection URL
(``jdbc:sqlserver://host:port;databaseName=db``), and — crucially for
the paper's routing logic — **no POOL-RAL support**, so every MS SQL
sub-query must take the Unity/JDBC path.
"""

from __future__ import annotations

from repro.common.errors import ConnectionFailedError
from repro.common.types import TypeKind
from repro.dialects.base import ConnectionURL, CostProfile, Dialect


class MSSQLDialect(Dialect):
    name = "mssql"
    display_name = "Microsoft SQL Server"
    quote_char = "["
    limit_style = "top"
    pool_supported = False
    default_port = 1433
    url_scheme = "jdbc:sqlserver"
    cost = CostProfile(
        connect_ms=220.0,
        auth_ms=110.0,
        per_row_scan_us=2.0,
        per_row_insert_ms=0.5,
        per_statement_ms=1.2,
        commit_ms=8.0,
    )
    # T-SQL (SQL Server 2000) spellings differ: LEN, CHARINDEX, CEILING,
    # LOG, SUBSTRING, '+' concatenation, STDEV/VAR, '%' for modulo.
    unsupported_functions = frozenset(
        {"CONCAT", "SUBSTR", "INSTR", "LN", "LENGTH", "TRIM", "MOD",
         "STDDEV", "VARIANCE", "CEIL"}
    )

    _TYPE_NAMES = {
        TypeKind.INTEGER: "INT",
        TypeKind.BIGINT: "BIGINT",
        TypeKind.FLOAT: "REAL",
        TypeKind.DOUBLE: "FLOAT",
        TypeKind.DECIMAL: "DECIMAL({p},{s})",
        TypeKind.VARCHAR: "NVARCHAR({n})",
        TypeKind.CHAR: "CHAR({n})",
        TypeKind.TEXT: "TEXT",
        TypeKind.BOOLEAN: "INT",  # BIT spelled as INT so DDL round-trips
        TypeKind.DATE: "DATETIME",
        TypeKind.TIMESTAMP: "DATETIME",
        TypeKind.BLOB: "BLOB",
    }

    def make_url(self, host: str, port: int | None, database: str) -> str:
        port = port or self.default_port
        return f"{self.url_scheme}://{host}:{port};databaseName={database}"

    def parse_url(self, url: str) -> ConnectionURL:
        prefix = f"{self.url_scheme}://"
        if not url.startswith(prefix):
            raise ConnectionFailedError(
                f"URL {url!r} does not match SQL Server scheme"
            )
        rest = url[len(prefix):]
        if ";databaseName=" not in rest:
            raise ConnectionFailedError(
                f"URL {url!r} is missing ';databaseName='"
            )
        hostport, database = rest.split(";databaseName=", 1)
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
