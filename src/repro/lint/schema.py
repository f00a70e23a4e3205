"""Schema providers: what the analyzer resolves names against.

The analyzer is backend-agnostic. It asks a provider two questions about
a table name: ``has_table(name)``, and ``table_columns(name)``, the
ordered (column name, logical type) pairs. The provider's ``context``
says which half of the system it describes:

* :class:`CatalogSchema` (``'engine'``) — a live
  :class:`repro.engine.Database` catalog (tables and views), which
  ``repro-validate`` lints against;
* :class:`DictionarySchema` (``'federated'``) — a federation
  :class:`~repro.metadata.dictionary.DataDictionary` built from XSpec
  documents, which ``dataaccess.lint`` and the ``sqlcheck`` CLI lint
  against. This context switches on the federated-only rules
  (RPR302/RPR401/RPR501), and the planner decomposes the query against
  ``dictionary``.
"""

from __future__ import annotations

from repro.common.types import SQLType
from repro.metadata.dictionary import DataDictionary
from repro.metadata.xspec import LowerXSpec


class CatalogSchema:
    """Provider over one live engine database (tables and views)."""

    context = "engine"

    def __init__(self, database):
        self.database = database

    def has_table(self, name: str) -> bool:
        catalog = self.database.catalog
        return catalog.has_table(name) or catalog.get_view(name) is not None

    def table_columns(self, name: str) -> list[tuple[str, SQLType]]:
        # resolve_table expands views, so view columns carry real types.
        columns, _rows = self.database.resolve_table(name)
        return [(c.name, c.type) for c in columns]


class DictionarySchema:
    """Provider over a federation data dictionary. Replicas of a logical
    table share its logical columns; which replica a query reads is the
    planner's choice, not the provider's."""

    context = "federated"

    def __init__(self, dictionary: DataDictionary):
        self.dictionary = dictionary

    def has_table(self, name: str) -> bool:
        return self.dictionary.has_table(name)

    def table_columns(self, name: str) -> list[tuple[str, SQLType]]:
        table = self.dictionary.locate(name).table
        return [(c.logical_name, c.logical_type) for c in table.columns]


def dictionary_from_specs(specs: list[LowerXSpec]) -> DataDictionary:
    """Build a dictionary straight from lower XSpec documents.

    Used by the ``sqlcheck`` CLI, which lints against spec files without
    a running federation; connection URLs are synthesized per vendor so
    site analysis still distinguishes the databases.
    """
    from repro.dialects import get_dialect

    dictionary = DataDictionary()
    for spec in specs:
        dialect = get_dialect(spec.vendor)
        url = dialect.make_url("sqlcheck.local", None, spec.database_name)
        dictionary.add_database(spec, url)
    return dictionary


class XSpecSchema(DictionarySchema):
    """Provider built directly from one or more lower XSpec documents."""

    def __init__(self, *specs: LowerXSpec):
        super().__init__(dictionary_from_specs(list(specs)))
