"""SQLite dialect — the disconnected-laptop mart vendor.

Quirks modeled: file-path connection URL (``jdbc:sqlite:/path``), no
server round-trip (connect cost is just opening the file), dynamic
typing flattened to the classic affinities, native LIMIT.
"""

from __future__ import annotations

from repro.common.errors import ConnectionFailedError
from repro.common.types import TypeKind
from repro.dialects.base import ConnectionURL, CostProfile, Dialect


class SQLiteDialect(Dialect):
    name = "sqlite"
    display_name = "SQLite"
    quote_char = '"'
    limit_style = "limit"
    pool_supported = True
    default_port = 0  # no server
    url_scheme = "jdbc:sqlite"
    cost = CostProfile(
        connect_ms=6.0,
        auth_ms=0.0,
        per_row_scan_us=1.5,
        per_row_insert_ms=0.25,
        per_statement_ms=0.5,
        commit_ms=12.0,  # fsync-per-commit dominates
    )
    # SQLite of the era has no math extension and no aggregate moments.
    unsupported_functions = frozenset(
        {"SQRT", "POWER", "EXP", "LN", "LOG10", "FLOOR", "CEIL", "SIGN",
         "MOD", "STDDEV", "VARIANCE", "CONCAT", "INSTR"}
    )

    _TYPE_NAMES = {
        TypeKind.INTEGER: "INTEGER",
        TypeKind.BIGINT: "INTEGER",
        TypeKind.FLOAT: "REAL",
        TypeKind.DOUBLE: "REAL",
        TypeKind.DECIMAL: "NUMERIC({p},{s})",
        TypeKind.VARCHAR: "TEXT",
        TypeKind.CHAR: "TEXT",
        TypeKind.TEXT: "TEXT",
        TypeKind.BOOLEAN: "INTEGER",
        TypeKind.DATE: "TEXT",
        TypeKind.TIMESTAMP: "TEXT",
        TypeKind.BLOB: "BLOB",
    }

    def make_url(self, host: str, port: int | None, database: str) -> str:
        # host is kept for symmetry with the other vendors; a SQLite URL
        # addresses a file on that host's filesystem.
        return f"{self.url_scheme}:/{host}/{database}.db"

    def parse_url(self, url: str) -> ConnectionURL:
        prefix = f"{self.url_scheme}:/"
        if not url.startswith(prefix):
            raise ConnectionFailedError(f"URL {url!r} does not match SQLite scheme")
        rest = url[len(prefix):]
        if "/" not in rest:
            raise ConnectionFailedError(f"URL {url!r} is missing a database path")
        host, filename = rest.split("/", 1)
        if not filename.endswith(".db"):
            raise ConnectionFailedError(f"URL {url!r} must end in '.db'")
        database = filename[: -len(".db")]
        if not host or not database:
            raise ConnectionFailedError(f"URL {url!r} is missing host or database")
        return ConnectionURL(self.name, host, 0, database)
