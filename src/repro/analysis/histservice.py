"""Server-side histogramming service.

The paper's JAS plug-in pulls every row to the client and histograms
there; for large samples that is most of Figure 6's cost. This Clarens
service computes the histogram *at the server* — next to the data
access service — and ships only the bins, turning an O(rows) response
into an O(bins) one. It demonstrates how new services slot into the
same container, sessions, ACLs and wire accounting as ``dataaccess``.
"""

from __future__ import annotations

from repro.analysis.histogram import Histogram1D, auto_range, numeric_values
from repro.clarens.server import ClarensService
from repro.common.errors import ClarensFault, ColumnNotFoundError, ReproError


class HistogramService(ClarensService):
    """Clarens service: grid queries in, histogram bins out."""

    service_name = "histogram"
    exposed = ("h1d",)

    def __init__(self, data_access):
        self.data_access = data_access

    def h1d(
        self,
        sql: str,
        column: str,
        nbins: int = 40,
        low: float | None = None,
        high: float | None = None,
    ):
        """Histogram ``column`` of the query's result, server-side.

        Returns a wire struct: binning, counts, flows and moments — a
        few hundred bytes regardless of how many rows the query hit.
        """
        answer = self.data_access.execute(sql)
        try:
            values = numeric_values(answer, column)
            low, high = auto_range(values, low, high)
        except ColumnNotFoundError:
            raise ClarensFault(
                "histogram.h1d", f"result has no column {column!r}"
            ) from None
        except ReproError as exc:
            raise ClarensFault("histogram.h1d", str(exc)) from None
        hist = Histogram1D(int(nbins), low, high)
        hist.fill(values)
        return histogram_to_wire(hist)


def histogram_to_wire(hist: Histogram1D) -> dict:
    """Encode a histogram as a wire-safe struct."""
    return {
        "nbins": hist.nbins,
        "low": hist.low,
        "high": hist.high,
        "counts": [int(c) for c in hist.counts],
        "underflow": hist.underflow,
        "overflow": hist.overflow,
        "sum": hist._sum,
        "sum2": hist._sum2,
        "n": hist._n,
        "title": hist.title,
    }


def histogram_from_wire(data: dict) -> Histogram1D:
    """Rebuild a :class:`Histogram1D` from its wire struct."""
    hist = Histogram1D(
        int(data["nbins"]), float(data["low"]), float(data["high"]),
        title=data.get("title", ""),
    )
    for i, count in enumerate(data["counts"]):
        hist.counts[i] = int(count)
    hist.underflow = int(data["underflow"])
    hist.overflow = int(data["overflow"])
    hist._sum = float(data["sum"])
    hist._sum2 = float(data["sum2"])
    hist._n = int(data["n"])
    return hist
