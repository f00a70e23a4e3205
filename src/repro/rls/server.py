"""The central RLS server: logical table name → replica server URLs."""

from __future__ import annotations

from repro.common.errors import RLSLookupError
from repro.net import costs
from repro.net.simclock import SimClock


class RLSServer:
    """Central mapping store on one grid host."""

    def __init__(self, host: str, clock: SimClock):
        self.host = host
        self.clock = clock
        # logical table -> ordered unique list of server URLs
        self._mappings: dict[str, list[str]] = {}
        self.lookups = 0
        self.publishes = 0

    # -- publication ---------------------------------------------------------------

    def publish(self, logical_table: str, server_url: str) -> None:
        """Register that ``server_url`` hosts ``logical_table``."""
        self.clock.advance_ms(costs.RLS_PUBLISH_MS)
        self.publishes += 1
        urls = self._mappings.setdefault(logical_table.lower(), [])
        if server_url not in urls:
            urls.append(server_url)

    def unpublish(self, logical_table: str, server_url: str) -> None:
        urls = self._mappings.get(logical_table.lower())
        if not urls:
            return
        if server_url in urls:
            urls.remove(server_url)
        if not urls:
            del self._mappings[logical_table.lower()]

    # -- lookup -----------------------------------------------------------------------

    def lookup(self, logical_table: str) -> list[str]:
        """URLs of servers hosting ``logical_table``; raises on no mapping."""
        self.clock.advance_ms(costs.RLS_LOOKUP_MS)
        self.lookups += 1
        urls = self._mappings.get(logical_table.lower())
        if not urls:
            raise RLSLookupError(
                f"RLS has no replica mapping for table {logical_table!r}"
            )
        return list(urls)

    def known_tables(self) -> list[str]:
        return sorted(self._mappings)
