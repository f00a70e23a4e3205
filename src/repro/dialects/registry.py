"""Dialect registry: vendor-name → singleton dialect instance.

Registration is open so tests (and the plug-in database mechanism,
§4.10) can add synthetic vendors at runtime.
"""

from __future__ import annotations

from repro.common.errors import DuplicateObjectError, UnsupportedVendorError
from repro.dialects.base import Dialect
from repro.dialects.mssql import MSSQLDialect
from repro.dialects.mysql import MySQLDialect
from repro.dialects.oracle import OracleDialect
from repro.dialects.sqlite import SQLiteDialect

_REGISTRY: dict[str, Dialect] = {}
#: every registered dialect, longest URL scheme first (ties by vendor name)
_BY_SCHEME: tuple[Dialect, ...] = ()


def register_dialect(dialect: Dialect, replace: bool = False) -> None:
    """Register a dialect instance under its ``name``."""
    global _BY_SCHEME
    key = dialect.name.lower()
    if key in _REGISTRY and not replace:
        raise DuplicateObjectError(f"dialect {dialect.name!r} already registered")
    _REGISTRY[key] = dialect
    _BY_SCHEME = tuple(sorted(
        (_REGISTRY[v] for v in available_vendors()),
        key=lambda d: len(d.url_scheme),
        reverse=True,
    ))


def get_dialect(vendor: str) -> Dialect:
    """Dialect for ``vendor``; raises :class:`UnsupportedVendorError`."""
    dialect = _REGISTRY.get(vendor.lower())
    if dialect is None:
        raise UnsupportedVendorError(vendor)
    return dialect


def available_vendors() -> list[str]:
    return sorted(_REGISTRY)


def dialects_by_scheme() -> tuple[Dialect, ...]:
    """Every registered dialect, longest URL scheme first."""
    return _BY_SCHEME


def _register_builtins() -> None:
    for dialect in (Dialect(), OracleDialect(), MySQLDialect(), MSSQLDialect(), SQLiteDialect()):
        register_dialect(dialect, replace=True)


_register_builtins()
