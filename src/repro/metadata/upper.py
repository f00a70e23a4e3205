"""The upper-level XSpec: the single federation-wide database list.

One entry per participating database: its logical name, connection URL,
driver (vendor) name and the name of its lower-level XSpec document.
The paper generates this file manually (§4.4.2); here it is built
programmatically and round-trips through XML.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass

from repro.common.errors import XSpecError


@dataclass(frozen=True)
class UpperXSpecEntry:
    """One participating database."""

    name: str
    url: str
    driver: str
    lower_spec: str  # name/path of the lower-level XSpec document


@dataclass(frozen=True)
class UpperXSpec:
    """The federation's master metadata document."""

    entries: tuple[UpperXSpecEntry, ...]

    def entry(self, name: str) -> UpperXSpecEntry | None:
        lowered = name.lower()
        for e in self.entries:
            if e.name.lower() == lowered:
                return e
        return None

    def to_xml(self) -> str:
        root = ET.Element("upperxspec")
        for entry in sorted(self.entries, key=lambda e: e.name.lower()):
            ET.SubElement(
                root,
                "database",
                {
                    "name": entry.name,
                    "url": entry.url,
                    "driver": entry.driver,
                    "xspec": entry.lower_spec,
                },
            )
        ET.indent(root)
        return ET.tostring(root, encoding="unicode") + "\n"

    @staticmethod
    def from_xml(text: str) -> "UpperXSpec":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise XSpecError(f"malformed upper XSpec XML: {exc}") from None
        if root.tag != "upperxspec":
            raise XSpecError(f"expected <upperxspec> root, found <{root.tag}>")
        entries = []
        for element in root:
            if element.tag != "database":
                raise XSpecError(f"unexpected element <{element.tag}> in upper XSpec")
            for attr in ("name", "url", "driver", "xspec"):
                if attr not in element.attrib:
                    raise XSpecError(f"<database> is missing {attr!r}")
            entries.append(
                UpperXSpecEntry(
                    name=element.attrib["name"],
                    url=element.attrib["url"],
                    driver=element.attrib["driver"],
                    lower_spec=element.attrib["xspec"],
                )
            )
        return UpperXSpec(tuple(entries))
