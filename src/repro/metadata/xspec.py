"""Lower-level XSpec documents: one XML file per database.

The serialized form is *canonical* — tables and columns are emitted in
sorted order with stable attribute order — because the schema-change
tracker (§4.9) compares specs by byte size and md5; a semantically
identical regeneration must produce byte-identical XML.
"""

from __future__ import annotations

import functools
import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from repro.common.errors import XSpecError
from repro.common.types import SQLType
from repro.sql.parser import _Parser


@functools.lru_cache(maxsize=256)
def parse_type_text(text: str) -> SQLType:
    """Parse a rendered type name (vendor or logical) back to SQLType.

    Memoized: every decoded ``dataaccess.query`` answer parses its
    column types, and ``SQLType`` is frozen. Errors are not cached.
    """
    parser = _Parser(text)
    try:
        return parser.parse_type()
    except Exception as exc:  # noqa: BLE001 - normalize to XSpecError
        raise XSpecError(f"bad type text {text!r} in XSpec: {exc}") from None


@dataclass(frozen=True)
class XSpecColumn:
    """One column: physical name, logical name, vendor + logical types."""

    name: str
    logical_name: str
    vendor_type: str
    logical_type: SQLType
    not_null: bool = False
    primary_key: bool = False


@dataclass(frozen=True)
class XSpecTable:
    """One table with its columns and a row-count hint for planning."""

    name: str
    logical_name: str
    columns: tuple[XSpecColumn, ...]
    row_count: int = 0

    @functools.cached_property
    def _by_logical(self) -> dict[str, XSpecColumn]:
        """Lower-cased logical name -> column; the first column wins."""
        index: dict[str, XSpecColumn] = {}
        for col in self.columns:
            index.setdefault(col.logical_name.lower(), col)
        return index

    @functools.cached_property
    def logical_by_physical(self) -> dict[str, str]:
        """Lower-cased physical name -> logical name; the last column wins."""
        return {c.name.lower(): c.logical_name for c in self.columns}

    def column_by_logical(self, logical: str) -> XSpecColumn | None:
        return self._by_logical.get(logical.lower())


@dataclass(frozen=True)
class XSpecRelationship:
    """A foreign-key style relationship between two tables."""

    table: str
    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class LowerXSpec:
    """The full metadata description of one database."""

    database_name: str
    vendor: str
    tables: tuple[XSpecTable, ...]
    relationships: tuple[XSpecRelationship, ...] = ()
    version: int = 1

    def table_by_logical(self, logical: str) -> XSpecTable | None:
        lowered = logical.lower()
        for table in self.tables:
            if table.logical_name.lower() == lowered:
                return table
        return None

    def logical_table_names(self) -> list[str]:
        return sorted(t.logical_name for t in self.tables)

    # -- XML serialization -------------------------------------------------------

    def to_xml(self, include_row_counts: bool = True) -> str:
        """Canonical XML.

        ``include_row_counts=False`` omits the planner's row-count hints
        so that the schema-change fingerprint ignores data growth.
        """
        root = ET.Element(
            "xspec",
            {
                "database": self.database_name,
                "vendor": self.vendor,
                "version": str(self.version),
            },
        )
        for table in sorted(self.tables, key=lambda t: t.name.lower()):
            attrs = {"name": table.name, "logical": table.logical_name}
            if include_row_counts:
                attrs["rowCount"] = str(table.row_count)
            t_el = ET.SubElement(root, "table", attrs)
            for col in table.columns:  # keep declaration order: it is physical order
                ET.SubElement(
                    t_el,
                    "column",
                    {
                        "name": col.name,
                        "logical": col.logical_name,
                        "type": col.vendor_type,
                        "logicalType": str(col.logical_type),
                        "notNull": "true" if col.not_null else "false",
                        "primaryKey": "true" if col.primary_key else "false",
                    },
                )
        for rel in sorted(
            self.relationships,
            key=lambda r: (r.table.lower(), r.column.lower(), r.ref_table.lower()),
        ):
            ET.SubElement(
                root,
                "relationship",
                {
                    "table": rel.table,
                    "column": rel.column,
                    "refTable": rel.ref_table,
                    "refColumn": rel.ref_column,
                },
            )
        ET.indent(root)
        return ET.tostring(root, encoding="unicode") + "\n"

    @staticmethod
    def from_xml(text: str) -> "LowerXSpec":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise XSpecError(f"malformed XSpec XML: {exc}") from None
        if root.tag != "xspec":
            raise XSpecError(f"expected <xspec> root, found <{root.tag}>")
        for attr in ("database", "vendor"):
            if attr not in root.attrib:
                raise XSpecError(f"<xspec> is missing the {attr!r} attribute")
        tables: list[XSpecTable] = []
        relationships: list[XSpecRelationship] = []
        for element in root:
            if element.tag == "table":
                columns = []
                for c_el in element:
                    if c_el.tag != "column":
                        raise XSpecError(f"unexpected <{c_el.tag}> inside <table>")
                    columns.append(
                        XSpecColumn(
                            name=c_el.attrib["name"],
                            logical_name=c_el.attrib.get(
                                "logical", c_el.attrib["name"].lower()
                            ),
                            vendor_type=c_el.attrib["type"],
                            logical_type=parse_type_text(
                                c_el.attrib.get("logicalType", c_el.attrib["type"])
                            ),
                            not_null=c_el.attrib.get("notNull") == "true",
                            primary_key=c_el.attrib.get("primaryKey") == "true",
                        )
                    )
                if not columns:
                    raise XSpecError(
                        f"table {element.attrib.get('name')!r} has no columns"
                    )
                tables.append(
                    XSpecTable(
                        name=element.attrib["name"],
                        logical_name=element.attrib.get(
                            "logical", element.attrib["name"].lower()
                        ),
                        columns=tuple(columns),
                        row_count=int(element.attrib.get("rowCount", "0")),
                    )
                )
            elif element.tag == "relationship":
                relationships.append(
                    XSpecRelationship(
                        table=element.attrib["table"],
                        column=element.attrib["column"],
                        ref_table=element.attrib["refTable"],
                        ref_column=element.attrib["refColumn"],
                    )
                )
            else:
                raise XSpecError(f"unexpected element <{element.tag}> in XSpec")
        return LowerXSpec(
            database_name=root.attrib["database"],
            vendor=root.attrib["vendor"],
            tables=tuple(tables),
            relationships=tuple(relationships),
            version=int(root.attrib.get("version", "1")),
        )

    # -- change detection ---------------------------------------------------------

    def single_table_spec(self, logical_table: str) -> "LowerXSpec":
        """A one-table slice of this spec (used by the describe RPC)."""
        table = self.table_by_logical(logical_table)
        if table is None:
            raise XSpecError(
                f"no logical table {logical_table!r} in {self.database_name!r}"
            )
        return LowerXSpec(
            database_name=self.database_name,
            vendor=self.vendor,
            tables=(table,),
            version=self.version,
        )

    def fingerprint(self) -> tuple[int, str]:
        """(size, md5) of the canonical XML — the paper's §4.9 comparison key.

        Row-count hints are excluded: data growth is not a schema change.
        """
        text = self.to_xml(include_row_counts=False).encode("utf-8")
        return len(text), hashlib.md5(text).hexdigest()
