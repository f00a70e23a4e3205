"""Shared foundations: error hierarchy, SQL type system, deterministic RNG.

Every other ``repro`` package builds on these primitives, so they contain
no imports from the rest of the library.
"""

from repro.common.errors import (
    AuthenticationError,
    CatalogError,
    ClarensFault,
    ColumnNotFoundError,
    ConnectionFailedError,
    DriverError,
    DuplicateObjectError,
    ETLError,
    FederationError,
    PlanningError,
    ReproError,
    RLSLookupError,
    SQLSyntaxError,
    SQLTypeError,
    TableNotFoundError,
    TableNotRegisteredError,
    UnsupportedVendorError,
    XSpecError,
)
from repro.common.types import (
    SQLType,
    TypeKind,
    coerce_value,
    common_supertype,
    infer_literal_type,
    sql_repr,
)
from repro.common.rng import DeterministicRNG

__all__ = [
    "AuthenticationError",
    "CatalogError",
    "ClarensFault",
    "ColumnNotFoundError",
    "ConnectionFailedError",
    "DeterministicRNG",
    "DriverError",
    "DuplicateObjectError",
    "ETLError",
    "FederationError",
    "PlanningError",
    "ReproError",
    "RLSLookupError",
    "SQLSyntaxError",
    "SQLType",
    "SQLTypeError",
    "TableNotFoundError",
    "TableNotRegisteredError",
    "TypeKind",
    "UnsupportedVendorError",
    "XSpecError",
    "coerce_value",
    "common_supertype",
    "infer_literal_type",
    "sql_repr",
]
