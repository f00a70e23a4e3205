"""MySQL dialect — Tier-2 source and mart vendor.

Quirks modeled: backtick quoting, TINYINT(1) booleans, native LIMIT,
fast connection setup (the classic libmysql handshake was the lightest
of the four vendors).
"""

from __future__ import annotations

from repro.common.types import TypeKind
from repro.dialects.base import CostProfile, Dialect


class MySQLDialect(Dialect):
    name = "mysql"
    display_name = "MySQL"
    quote_char = "`"
    limit_style = "limit"
    pool_supported = True
    default_port = 3306
    url_scheme = "jdbc:mysql"
    cost = CostProfile(
        connect_ms=140.0,
        auth_ms=60.0,
        per_row_scan_us=1.8,
        per_row_insert_ms=0.35,
        per_statement_ms=0.9,
        commit_ms=6.0,
    )

    _TYPE_NAMES = {
        TypeKind.INTEGER: "INT",
        TypeKind.BIGINT: "BIGINT",
        TypeKind.FLOAT: "FLOAT",
        TypeKind.DOUBLE: "DOUBLE",
        TypeKind.DECIMAL: "DECIMAL({p},{s})",
        TypeKind.VARCHAR: "VARCHAR({n})",
        TypeKind.CHAR: "CHAR({n})",
        TypeKind.TEXT: "TEXT",
        TypeKind.BOOLEAN: "BOOL",
        TypeKind.DATE: "DATE",
        TypeKind.TIMESTAMP: "DATETIME",
        TypeKind.BLOB: "BLOB",
    }
