"""Oracle dialect — the Tier-0 warehouse and Tier-1 source vendor.

Era-accurate quirks modeled: ``NUMBER``-based numerics, ``VARCHAR2``,
no BOOLEAN type (NUMBER(1)), no portable LIMIT clause (ROWNUM-era),
thin-driver connection URL.
Connection setup is the slowest of the four vendors, matching the heavy
session establishment of the period.
"""

from __future__ import annotations

from repro.common.errors import ConnectionFailedError
from repro.common.types import TypeKind
from repro.dialects.base import ConnectionURL, CostProfile, Dialect


class OracleDialect(Dialect):
    name = "oracle"
    display_name = "Oracle"
    quote_char = '"'
    limit_style = "client"  # ROWNUM wrapping is not portable; middleware truncates
    pool_supported = True
    default_port = 1521
    url_scheme = "jdbc:oracle:thin"
    cost = CostProfile(
        connect_ms=140.0,
        auth_ms=75.0,
        per_row_scan_us=2.2,
        per_row_insert_ms=0.55,
        per_statement_ms=1.6,
        commit_ms=9.0,
    )
    # Oracle 9i/10g spells log10 as LOG(10, x); plain LOG10 is rejected.
    unsupported_functions = frozenset({"LOG10"})

    _TYPE_NAMES = {
        TypeKind.INTEGER: "NUMBER(10,0)",
        TypeKind.BIGINT: "NUMBER(19,0)",
        TypeKind.FLOAT: "FLOAT",
        TypeKind.DOUBLE: "DOUBLE PRECISION",
        TypeKind.DECIMAL: "NUMBER({p},{s})",
        TypeKind.VARCHAR: "VARCHAR2({n})",
        TypeKind.CHAR: "CHAR({n})",
        TypeKind.TEXT: "CLOB",
        TypeKind.BOOLEAN: "NUMBER(1,0)",
        TypeKind.DATE: "DATE",
        TypeKind.TIMESTAMP: "TIMESTAMP",
        TypeKind.BLOB: "BLOB",
    }

    # Oracle thin URLs use @host:port/service rather than //host:port/db.

    def make_url(self, host: str, port: int | None, database: str) -> str:
        port = port or self.default_port
        return f"{self.url_scheme}:@{host}:{port}/{database}"

    def parse_url(self, url: str) -> ConnectionURL:
        prefix = f"{self.url_scheme}:@"
        if not url.startswith(prefix):
            raise ConnectionFailedError(
                f"URL {url!r} does not match Oracle thin scheme"
            )
        rest = url[len(prefix):]
        if "/" not in rest:
            raise ConnectionFailedError(f"URL {url!r} is missing a service name")
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
            raise ConnectionFailedError(f"URL {url!r} is missing host or service")
        return ConnectionURL(self.name, host, port, database)
