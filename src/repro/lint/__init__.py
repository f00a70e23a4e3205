"""Static SQL semantic analysis (pre-flight query checking).

The paper's Data Access Service ships decomposed sub-queries over the
WAN before any vendor database can reject them, so a typo'd column or a
vendor-incompatible function costs a full round trip per mart. The XSpec
data dictionary already describes every table, column, type, and vendor
— enough to validate a query *statically* at the service.

This package walks a parsed :mod:`repro.sql.ast` tree against that
metadata (or a live engine catalog) and emits structured
:class:`Diagnostic` findings with stable codes::

    RPR001 syntax-error        RPR106 duplicate-binding
    RPR101 unknown-table       RPR201 type-mismatch
    RPR102 unknown-column      RPR202 non-boolean-where
    RPR103 ambiguous-column    RPR301 aggregate-misuse
    RPR104 unknown-function    RPR302 federated-subquery
    RPR105 bad-argument-count  RPR401 vendor-incompat
                               RPR501 pushdown-warning

Typical use::

    from repro.lint import sqlcheck
    report = sqlcheck("SELECT nam FROM runs", dictionary)
    if not report.ok:
        print("\\n".join(report.format_lines()))
"""

from __future__ import annotations

from repro.lint.analyzer import (
    lint_select,
    lint_sql,
    lint_statement,
    preflight,
)
from repro.lint.diagnostics import Diagnostic, LintReport, Severity, Span
from repro.lint.rules import DEFAULT_CONFIG, RULES, LintConfig, Rule
from repro.lint.schema import (
    CatalogSchema,
    DictionarySchema,
    SchemaProvider,
    XSpecSchema,
    dictionary_from_specs,
)

__all__ = [
    "CatalogSchema",
    "DEFAULT_CONFIG",
    "Diagnostic",
    "DictionarySchema",
    "LintConfig",
    "LintReport",
    "RULES",
    "Rule",
    "SchemaProvider",
    "Severity",
    "Span",
    "XSpecSchema",
    "dictionary_from_specs",
    "lint_select",
    "lint_sql",
    "lint_statement",
    "preflight",
    "sqlcheck",
]


def sqlcheck(sql: str, schema) -> LintReport:
    """One-call linting with the default config: accepts any
    schema-ish object and SQL text.

    ``schema`` may be a :class:`SchemaProvider`, a
    :class:`~repro.metadata.dictionary.DataDictionary`, one or more
    :class:`~repro.metadata.xspec.LowerXSpec` documents, or a live
    :class:`~repro.engine.database.Database`.
    """
    return lint_sql(sql, _as_provider(schema))


def _as_provider(schema) -> "SchemaProvider":
    from repro.metadata.dictionary import DataDictionary
    from repro.metadata.xspec import LowerXSpec

    if isinstance(schema, DataDictionary):
        return DictionarySchema(schema)
    if isinstance(schema, LowerXSpec):
        return XSpecSchema(schema)
    if isinstance(schema, (list, tuple)) and all(
        isinstance(s, LowerXSpec) for s in schema
    ):
        return XSpecSchema(*schema)
    if hasattr(schema, "catalog") and hasattr(schema, "resolve_table"):
        return CatalogSchema(schema)
    if isinstance(schema, SchemaProvider):
        return schema
    raise TypeError(
        f"cannot lint against a {type(schema).__name__}; expected a "
        f"SchemaProvider, DataDictionary, LowerXSpec(s), or Database"
    )
