"""Exception hierarchy for the whole middleware.

The hierarchy mirrors the layering of the system: engine-level errors
(catalog, SQL), driver-level errors (connections, vendors), and
federation-level errors (planning, replica lookup, web-service faults).
Callers catch the narrowest class that makes sense; everything derives
from :class:`ReproError` so integration code can catch one root.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of every error raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Engine / SQL layer
# ---------------------------------------------------------------------------


class SQLSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed.

    Carries the offending position so clients can point at the error.
    """

    def __init__(self, message: str, position: int | None = None, sql: str | None = None):
        self.position = position
        self.sql = sql
        if position is not None and sql is not None:
            snippet = sql[max(0, position - 20) : position + 20]
            message = f"{message} (at position {position}: ...{snippet!r}...)"
        super().__init__(message)


class SQLTypeError(ReproError):
    """An expression or assignment mixed incompatible SQL types."""


class CatalogError(ReproError):
    """Base class for schema-catalog problems."""


class TableNotFoundError(CatalogError):
    """A statement referenced a table (or view) absent from the catalog."""

    def __init__(self, table: str, database: str | None = None):
        self.table = table
        self.database = database
        where = f" in database {database!r}" if database else ""
        super().__init__(f"table {table!r} not found{where}")


class ColumnNotFoundError(CatalogError):
    """A statement referenced a column absent from every visible table."""

    def __init__(self, column: str, table: str | None = None):
        self.column = column
        self.table = table
        where = f" in table {table!r}" if table else ""
        super().__init__(f"column {column!r} not found{where}")


class DuplicateObjectError(CatalogError):
    """Attempted to create a table/view/index that already exists."""


class IntegrityError(ReproError):
    """A constraint (primary key, not-null) would be violated."""


# ---------------------------------------------------------------------------
# Driver layer
# ---------------------------------------------------------------------------


class DriverError(ReproError):
    """Base class for connection-level failures."""


class ConnectionFailedError(DriverError):
    """The connection URL did not resolve to a live database."""


class AuthenticationError(DriverError):
    """Credentials were rejected by the target database or server."""


class CircuitOpenError(ConnectionFailedError):
    """A circuit breaker refused the call without touching the backend.

    Subclasses :class:`ConnectionFailedError` so every failover path
    treats a tripped breaker exactly like a dead backend — except that
    the refusal is instant instead of costing a partition timeout.
    """

    def __init__(self, key: str, retry_after_ms: float | None = None):
        self.key = key
        self.retry_after_ms = retry_after_ms
        after = (
            f" (probe allowed in {retry_after_ms:.0f} ms)"
            if retry_after_ms is not None
            else ""
        )
        super().__init__(f"circuit breaker open for {key!r}{after}")


class UnsupportedVendorError(DriverError):
    """No registered dialect/driver understands the vendor name."""

    def __init__(self, vendor: str):
        self.vendor = vendor
        super().__init__(f"no driver registered for vendor {vendor!r}")


# ---------------------------------------------------------------------------
# Federation / middleware layer
# ---------------------------------------------------------------------------


class FederationError(ReproError):
    """Base class for data-access-service level failures."""


class PlanningError(FederationError):
    """The federated planner could not decompose a query."""


class TableNotRegisteredError(FederationError):
    """A logical table is known to no local database and no replica."""

    def __init__(self, table: str):
        self.table = table
        super().__init__(f"logical table {table!r} is not registered with any server")


class RLSLookupError(FederationError):
    """The Replica Location Service had no mapping for a table."""


class ClarensFault(FederationError):
    """A remote Clarens method call failed; carries the remote fault."""

    def __init__(self, method: str, message: str):
        self.method = method
        super().__init__(f"fault from method {method!r}: {message}")


class ETLError(ReproError):
    """Extraction, transformation, or loading failed."""


class XSpecError(ReproError):
    """An XSpec document was malformed or inconsistent."""
