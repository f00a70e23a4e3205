"""Static SQL semantic analysis.

The paper's Data Access Service ships decomposed sub-queries over the
WAN before any vendor database can reject them, so a typo'd column or a
vendor-incompatible function costs a full round trip per mart. The XSpec
data dictionary already describes every table, column, type, and vendor
— enough to validate a query *statically*, without running it.

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

:func:`lint_sql` is the one entry point. Its callers are the
``dataaccess.lint`` wire method, the ``sqlcheck`` CLI and
``repro-validate``::

    from repro.lint import DictionarySchema, lint_sql
    report = lint_sql("SELECT nam FROM runs", DictionarySchema(dictionary))
    if not report.ok:
        print("\n".join(report.format_lines()))
"""

from __future__ import annotations

from repro.lint.analyzer import lint_sql
from repro.lint.diagnostics import Diagnostic, LintReport, Severity, Span
from repro.lint.rules import DEFAULT_CONFIG, RULES, LintConfig, Rule
from repro.lint.schema import (
    CatalogSchema,
    DictionarySchema,
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
    "Severity",
    "Span",
    "XSpecSchema",
    "dictionary_from_specs",
    "lint_sql",
]

