"""Fixed-bin histograms, HBOOK-flavoured.

Vectorized fills (numpy), explicit under/overflow bins, first/second
moments tracked from the filled values (not bin centers), and a text
renderer — the shape a 2005 physicist expects from HBOOK/JAS.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ReproError


def numeric_values(answer, column: str) -> list[float]:
    """The values of ``answer``'s ``column`` as floats.

    One rule for both sides of a grid plot: a value is numeric when it
    is an int or a float but not a bool, and a NULL is skipped. Any
    other value raises ``ReproError``.
    """
    index = answer.column_index(column)
    values: list[float] = []
    for row in answer.rows:
        v = row[index]
        if v is None:
            continue
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ReproError(
                f"column {column!r} is not numeric (got {type(v).__name__})"
            )
        values.append(float(v))
    return values


def auto_range(values, low=None, high=None) -> tuple[float, float]:
    """Histogram edges: a missing ``low`` is the least value, a missing
    ``high`` the greatest plus a 5 % pad (1.0 when all values are equal)."""
    if low is None or high is None:
        if not values:
            raise ReproError("cannot auto-range a histogram with no data")
        vmin, vmax = min(values), max(values)
        low = vmin if low is None else low
        high = vmax + ((vmax - vmin) * 0.05 or 1.0) if high is None else high
    return float(low), float(high)


def _bin_indexes(values: np.ndarray, low: float, width: float, nbins: int) -> np.ndarray:
    """Bin of each in-range value. A value just below the top edge can
    round up to ``nbins``, and a range wider than a float64 can hold
    gives NaN; both are clamped into the bins."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        position = (values - low) / width
    return np.clip(np.nan_to_num(position), 0, nbins - 1).astype(np.int64)


class Histogram1D:
    """A 1-D histogram with ``nbins`` equal bins over [low, high)."""

    def __init__(self, nbins: int, low: float, high: float, title: str = ""):
        if nbins <= 0:
            raise ReproError("histogram needs at least one bin")
        if not (high > low):
            raise ReproError(f"bad histogram range [{low}, {high})")
        self.nbins = int(nbins)
        self.low = float(low)
        self.high = float(high)
        self.title = title
        self.counts = np.zeros(self.nbins, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self._sum = 0.0
        self._sum2 = 0.0
        self._n = 0

    # -- filling -----------------------------------------------------------------

    def fill(self, values) -> None:
        """Fill with a scalar or an iterable of values (vectorized)."""
        arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
        arr = arr[~np.isnan(arr)]
        if arr.size == 0:
            return
        self.underflow += int((arr < self.low).sum())
        self.overflow += int((arr >= self.high).sum())
        inside = arr[(arr >= self.low) & (arr < self.high)]
        if inside.size:
            np.add.at(self.counts, _bin_indexes(inside, self.low, self.bin_width, self.nbins), 1)
        self._sum += float(arr.sum())
        self._sum2 += float((arr * arr).sum())
        self._n += int(arr.size)

    # -- statistics ---------------------------------------------------------------

    @property
    def bin_width(self) -> float:
        """Width of one bin."""
        return (self.high - self.low) / self.nbins

    @property
    def entries(self) -> int:
        """Total values seen, including under/overflow."""
        return self._n

    @property
    def mean(self) -> float:
        """Mean of every filled value (including out-of-range ones)."""
        return self._sum / self._n if self._n else math.nan

    @property
    def std(self) -> float:
        """Population standard deviation of the filled values."""
        if self._n < 2:
            return math.nan
        variance = self._sum2 / self._n - self.mean**2
        return math.sqrt(max(0.0, variance))

    # -- rendering -----------------------------------------------------------------

    def render(self, width: int = 50) -> str:
        """ASCII rendering, one line per bin."""
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(
            f"entries={self.entries} mean={self.mean:.4g} std={self.std:.4g} "
            f"under={self.underflow} over={self.overflow}"
        )
        peak = max(1, int(self.counts.max()) if self.nbins else 1)
        for i in range(self.nbins):
            edge = self.low + i * self.bin_width
            bar = "#" * int(round(self.counts[i] / peak * width))
            lines.append(f"{edge:>12.4g} | {bar} {int(self.counts[i])}")
        return "\n".join(lines)

