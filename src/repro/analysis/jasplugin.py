"""JAS-style plug-in: query the grid, histogram the answer (§6)."""

from __future__ import annotations

from repro.analysis.histogram import (
    Histogram1D,
    Histogram2D,
    Profile1D,
    auto_range,
    numeric_columns,
)
from repro.clarens.client import ClarensClient
from repro.common.errors import ReproError
from repro.core.federation import GridFederation, ServerHandle


class JASPlugin:
    """Submits queries through the web-service interface and plots them."""

    def __init__(
        self, federation: GridFederation, client: ClarensClient, server: ServerHandle
    ):
        self.federation = federation
        self.client = client
        self.server = server

    def _fetch(self, sql: str, *columns: str) -> list[list[float]]:
        """Run ``sql`` on the grid and pull numeric ``columns``."""
        answer = self.federation.query(self.client, self.server, sql).answer
        return numeric_columns(answer, *columns)

    def fetch_column(self, sql: str, column: str) -> list[float]:
        """Run ``sql`` on the grid and pull one numeric column."""
        return self._fetch(sql, column)[0]

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
        values = self.fetch_column(sql, column)
        low, high = auto_range(values, low, high)
        hist = Histogram1D(nbins, low, high, title or f"{column} — {sql[:40]}")
        hist.fill(values)
        return hist

    def profile_query(
        self,
        sql: str,
        xcolumn: str,
        ycolumn: str,
        nbins: int = 20,
        low: float | None = None,
        high: float | None = None,
    ) -> Profile1D:
        """Profile histogram: per-x-bin mean of y over a grid query."""
        xs, ys = self._fetch(sql, xcolumn, ycolumn)
        if not xs:
            raise ReproError("no data to profile")
        if low is None:
            low = min(xs)
        if high is None:
            hi = max(xs)
            high = hi + ((hi - low) * 0.05 or 1.0)
        profile = Profile1D(nbins, low, high, f"<{ycolumn}> vs {xcolumn}")
        profile.fill(xs, ys)
        return profile

    def histogram2d_query(
        self,
        sql: str,
        xcolumn: str,
        ycolumn: str,
        nx: int = 30,
        ny: int = 15,
    ) -> Histogram2D:
        """2-D histogram of two columns of a grid query's result."""
        xs, ys = self._fetch(sql, xcolumn, ycolumn)
        if not xs:
            raise ReproError("no data to histogram")
        xlo, xhi = auto_range(xs)
        ylo, yhi = auto_range(ys)
        hist = Histogram2D(nx, xlo, xhi, ny, ylo, yhi, f"{ycolumn} vs {xcolumn}")
        hist.fill(xs, ys)
        return hist
