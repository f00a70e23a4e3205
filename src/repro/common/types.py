"""The SQL type system shared by every engine instance and dialect.

A :class:`SQLType` is a *logical* type (kind + optional length/precision).
Dialects map logical types to vendor-specific type names in both
directions, so the warehouse can read an Oracle ``NUMBER(10)`` and write
a MySQL ``BIGINT`` while the planner reasons only about logical kinds.

Values are plain Python objects (``int``, ``float``, ``str``, ``bool``,
``None``); the helpers here coerce, compare, and infer them.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

from repro.common.errors import SQLTypeError


class TypeKind(enum.Enum):
    """Logical SQL type kinds understood by the engine."""

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    FLOAT = "FLOAT"
    DOUBLE = "DOUBLE"
    DECIMAL = "DECIMAL"
    VARCHAR = "VARCHAR"
    CHAR = "CHAR"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"
    TIMESTAMP = "TIMESTAMP"
    BLOB = "BLOB"

    @property
    def is_numeric(self) -> bool:
        """True for the numeric kinds (INTEGER..DECIMAL)."""
        return self in _NUMERIC_KINDS

    @property
    def is_textual(self) -> bool:
        """True for VARCHAR/CHAR/TEXT."""
        return self in _TEXT_KINDS

    @property
    def is_temporal(self) -> bool:
        """True for DATE/TIMESTAMP."""
        return self in (TypeKind.DATE, TypeKind.TIMESTAMP)


_NUMERIC_KINDS = frozenset(
    {TypeKind.INTEGER, TypeKind.BIGINT, TypeKind.FLOAT, TypeKind.DOUBLE, TypeKind.DECIMAL}
)
_TEXT_KINDS = frozenset({TypeKind.VARCHAR, TypeKind.CHAR, TypeKind.TEXT})

# Widening order used when two numeric types meet in an expression.
_NUMERIC_RANK = {
    TypeKind.INTEGER: 0,
    TypeKind.BIGINT: 1,
    TypeKind.DECIMAL: 2,
    TypeKind.FLOAT: 3,
    TypeKind.DOUBLE: 4,
}


@dataclass(frozen=True)
class SQLType:
    """A logical SQL type: a kind plus optional length/precision/scale."""

    kind: TypeKind
    length: int | None = None
    precision: int | None = None
    scale: int | None = None

    def __str__(self) -> str:
        if self.kind in _TEXT_KINDS and self.length is not None:
            return f"{self.kind.value}({self.length})"
        if self.kind is TypeKind.DECIMAL and self.precision is not None:
            if self.scale is not None:
                return f"DECIMAL({self.precision},{self.scale})"
            return f"DECIMAL({self.precision})"
        return self.kind.value

    # Convenience constructors -------------------------------------------------

    @staticmethod
    def integer() -> "SQLType":
        """Shorthand for the INTEGER type."""
        return SQLType(TypeKind.INTEGER)

    @staticmethod
    def bigint() -> "SQLType":
        """Shorthand for the BIGINT type."""
        return SQLType(TypeKind.BIGINT)

    @staticmethod
    def double() -> "SQLType":
        """Shorthand for the DOUBLE type."""
        return SQLType(TypeKind.DOUBLE)

    @staticmethod
    def decimal(precision: int = 38, scale: int = 0) -> "SQLType":
        """Shorthand for DECIMAL(precision, scale)."""
        return SQLType(TypeKind.DECIMAL, precision=precision, scale=scale)

    @staticmethod
    def varchar(length: int = 255) -> "SQLType":
        """Shorthand for VARCHAR(length)."""
        return SQLType(TypeKind.VARCHAR, length=length)

    @staticmethod
    def text() -> "SQLType":
        """Shorthand for the unbounded TEXT type."""
        return SQLType(TypeKind.TEXT)

    @staticmethod
    def boolean() -> "SQLType":
        """Shorthand for the BOOLEAN type."""
        return SQLType(TypeKind.BOOLEAN)

    @staticmethod
    def timestamp() -> "SQLType":
        """Shorthand for the TIMESTAMP type."""
        return SQLType(TypeKind.TIMESTAMP)


def infer_literal_type(value: object) -> SQLType:
    """Infer the logical type of a Python literal used in SQL."""
    if value is None:
        # NULL is typeless; TEXT is the most permissive carrier.
        return SQLType.text()
    if isinstance(value, bool):
        return SQLType.boolean()
    if isinstance(value, int):
        return SQLType.bigint() if abs(value) > 2**31 - 1 else SQLType.integer()
    if isinstance(value, float):
        return SQLType.double()
    if isinstance(value, str):
        return SQLType.varchar(max(1, len(value)))
    if isinstance(value, (bytes, bytearray)):
        return SQLType(TypeKind.BLOB)
    raise SQLTypeError(f"cannot infer SQL type for Python value of type {type(value).__name__}")


def common_supertype(a: SQLType, b: SQLType) -> SQLType:
    """The narrowest logical type both ``a`` and ``b`` widen to.

    Used to type a CASE or COALESCE whose branches disagree, and
    ``+ - * %`` over two numeric operands.
    """
    if a.kind == b.kind:
        if a.kind in _TEXT_KINDS:
            length = None
            if a.length is not None and b.length is not None:
                length = max(a.length, b.length)
            return SQLType(a.kind, length=length)
        return a
    if a.kind.is_numeric and b.kind.is_numeric:
        winner = a if _NUMERIC_RANK[a.kind] >= _NUMERIC_RANK[b.kind] else b
        return SQLType(winner.kind)
    if a.kind.is_textual and b.kind.is_textual:
        return SQLType.text()
    if a.kind.is_temporal and b.kind.is_temporal:
        return SQLType.timestamp()
    # BOOLEAN widens to INTEGER for vendors without a boolean type.
    kinds = {a.kind, b.kind}
    if TypeKind.BOOLEAN in kinds and (kinds & _NUMERIC_KINDS):
        other = (kinds - {TypeKind.BOOLEAN}).pop()
        return SQLType(other)
    raise SQLTypeError(f"no common supertype for {a} and {b}")


# SQL's numeric-literal grammar, ASCII digits only: Python's int()/float()
# would also take 'NaN', 'inf', '1_000' and full-width digits.
_SQL_INTEGER = re.compile(r"[+-]?[0-9]+")
_SQL_NUMBER = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# tuples, not sets: membership is an identity test, where a set would
# call the Python-level Enum.__hash__ on every value coerced
_INTEGER_KINDS = (TypeKind.INTEGER, TypeKind.BIGINT)
_FLOAT_KINDS = (TypeKind.FLOAT, TypeKind.DOUBLE, TypeKind.DECIMAL)


def _finite(value: float, target: SQLType) -> float:
    if not math.isfinite(value):
        raise SQLTypeError(f"cannot store {value!r} in {target}")
    return value


def _parse_number(text: str, grammar: re.Pattern, target: SQLType) -> str:
    text = text.strip()
    if grammar.fullmatch(text) is None:
        raise SQLTypeError(f"{text!r} is not a numeric literal for {target}")
    return text


def coerce_value(value: object, target: SQLType) -> object:
    """Coerce a Python value into the representation of ``target``.

    This is the single conversion point used by INSERT paths, the ETL
    transform stage, and cross-vendor materialization. NULL passes
    through every type. Numbers are finite: strings must follow SQL's
    numeric-literal grammar, and NaN or infinity is rejected.
    """
    if value is None:
        return None
    kind = target.kind
    # Already-typed values (every row a scratch load or bulk insert
    # carries) skip the isinstance ladder below.
    vtype = type(value)
    if vtype is int and kind in _INTEGER_KINDS:
        return value
    if vtype is float and kind in _FLOAT_KINDS:
        return _finite(value, target)
    try:
        if kind in _INTEGER_KINDS:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float):
                return int(_finite(value, target))
            if isinstance(value, str):
                return int(_parse_number(value, _SQL_INTEGER, target))
            if isinstance(value, int):
                return value
        elif kind in _FLOAT_KINDS:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return _finite(float(value), target)
            if isinstance(value, str):
                return _finite(float(_parse_number(value, _SQL_NUMBER, target)), target)
        elif kind in _TEXT_KINDS:
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            if target.length is not None and len(text) > target.length:
                raise SQLTypeError(
                    f"value of length {len(text)} exceeds {target} capacity"
                )
            if kind is TypeKind.CHAR and target.length is not None:
                text = text.ljust(target.length)
            return text
        elif kind is TypeKind.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, int):
                return bool(value)
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1", "yes"):
                    return True
                if lowered in ("false", "f", "0", "no"):
                    return False
        elif kind in (TypeKind.DATE, TypeKind.TIMESTAMP):
            # Temporal values travel as ISO-8601 strings between vendors.
            if isinstance(value, str):
                return value
        elif kind is TypeKind.BLOB:
            if isinstance(value, (bytes, bytearray)):
                return bytes(value)
            if isinstance(value, str):
                return value.encode("utf-8")
    except (ValueError, OverflowError) as exc:
        raise SQLTypeError(f"cannot coerce {value!r} to {target}: {exc}") from None
    raise SQLTypeError(f"cannot coerce {type(value).__name__} value {value!r} to {target}")


def coerces_unchanged(kinds: set, values, target: SQLType) -> bool:
    """True when :func:`coerce_value` returns each of ``values``
    unchanged in ``target``; ``kinds`` is the set of the exact types of
    the values that are not NULL (NULL always passes unchanged).

    That holds for exact ints in INTEGER/BIGINT, finite exact floats in
    FLOAT/DOUBLE/DECIMAL and exact strs within a VARCHAR/TEXT capacity
    (CHAR pads). Falsy values are left out of the finiteness and length
    checks: 0.0 is finite and '' fits every capacity.
    """
    if not kinds:
        return True
    if len(kinds) != 1:
        return False
    vtype = next(iter(kinds))
    kind = target.kind
    if vtype is int:
        return kind in _INTEGER_KINDS
    if vtype is float:
        return kind in _FLOAT_KINDS and all(map(math.isfinite, filter(None, values)))
    if vtype is str and kind in (TypeKind.VARCHAR, TypeKind.TEXT):
        return target.length is None or (
            max(map(len, filter(None, values)), default=0) <= target.length
        )
    return False


def sql_repr(value: object) -> str:
    """Render a Python value as a SQL literal (for generated sub-queries)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (bytes, bytearray)):
        return "X'" + bytes(value).hex() + "'"
    text = str(value).replace("'", "''")
    return f"'{text}'"
