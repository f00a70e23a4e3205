"""Connection-URL vendor sniffing.

Each dialect owns a URL grammar; this module picks the vendor from the
URL prefix, longest scheme first, so ``jdbc:sqlserver://...`` is not
claimed by a hypothetical ``jdbc:sql`` vendor.
"""

from __future__ import annotations

from repro.common.errors import ConnectionFailedError
from repro.dialects.base import ConnectionURL, Dialect
from repro.dialects.registry import dialects_by_scheme


def sniff_vendor(url: str) -> tuple[Dialect, ConnectionURL]:
    """Resolve ``url`` to (dialect, parsed URL) by scheme prefix."""
    for dialect in dialects_by_scheme():
        scheme = dialect.url_scheme
        if url.startswith((scheme + ":", scheme + "@")):
            return dialect, dialect.parse_url(url)
    raise ConnectionFailedError(f"no registered vendor understands URL {url!r}")
