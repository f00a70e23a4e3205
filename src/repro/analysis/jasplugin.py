"""JAS-style plug-in: query the grid, histogram the answer (§6)."""

from __future__ import annotations

from repro.analysis.histogram import Histogram1D, auto_range, numeric_values
from repro.clarens.client import ClarensClient
from repro.core.federation import GridFederation, ServerHandle


class JASPlugin:
    """Submits queries through the web-service interface and plots them."""

    def __init__(
        self, federation: GridFederation, client: ClarensClient, server: ServerHandle
    ):
        self.federation = federation
        self.client = client
        self.server = server

    def histogram_query(
        self,
        sql: str,
        column: str,
        nbins: int = 40,
        low: float | None = None,
        high: float | None = None,
        title: str | None = None,
    ) -> Histogram1D:
        """Histogram one column of a grid query's result."""
        answer = self.federation.query(self.client, self.server, sql).answer
        values = numeric_values(answer, column)
        low, high = auto_range(values, low, high)
        hist = Histogram1D(nbins, low, high, title or f"{column} — {sql[:40]}")
        hist.fill(values)
        return hist
