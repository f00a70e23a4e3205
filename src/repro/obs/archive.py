"""R-GMA-archiver-style metric time-series store with rollups.

R-GMA (Cooke et al.) pairs every monitoring *producer* with an
**archiver** that retains the stream and re-publishes it as queryable
relational history. PR 2's :class:`~repro.obs.metrics.MetricsRegistry`
is the producer — it only ever shows the current instant. The
:class:`MetricsArchiver` here snapshots every registered instrument on
a simclock cadence into per-series ring buffers with multi-resolution
rollups (raw → 1 s → 10 s buckets), and the monitor database exposes
the whole archive as the ``monitor_history`` federated table.

Downsampling is *conserving*: a rollup bucket's sample and sum totals
equal the totals of the raw buckets it absorbed, and ring eviction
folds the evicted buckets into a per-level remainder so series totals
never silently shrink. Percentile estimates over a window are clamped
into the window's observed [min, max] — the property test holds the
archiver to both invariants under arbitrary interleavings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: resolution key of the as-recorded (un-rolled) level
RAW_RESOLUTION_MS = 0.0
#: the rollup levels kept next to the raw one (simulated ms per bucket)
ROLLUP_RESOLUTIONS_MS = (1_000.0, 10_000.0)
#: ring sizes of the raw level and of each rollup level; the raw ring
#: spans 60 s of snapshots, the SLO slow burn window (obs.slo)
RAW_CAP = 600
ROLLUP_CAP = 256
#: the archiver's snapshot cadence (simulated ms)
SNAPSHOT_INTERVAL_MS = 100.0


@dataclass
class Bucket:
    """One aggregation bucket of one series at one resolution."""

    t_ms: float
    samples: float = 0.0  # histogram observations / snapshots absorbed
    total: float = 0.0    # sum of observations (histogram) or deltas (counter)
    vmin: float | None = None
    vmax: float | None = None
    last: float = 0.0     # latest cumulative value (counter)
    bad: float = 0.0      # observations beyond a watched threshold

    @property
    def mean(self) -> float:
        return self.total / self.samples if self.samples else 0.0

    def absorb(self, other: "Bucket") -> None:
        """Merge ``other`` (a later bucket) into this one, conserving."""
        self.samples += other.samples
        self.total += other.total
        if other.vmin is not None:
            self.vmin = other.vmin if self.vmin is None else min(self.vmin, other.vmin)
        if other.vmax is not None:
            self.vmax = other.vmax if self.vmax is None else max(self.vmax, other.vmax)
        self.last = other.last
        self.bad += other.bad

    def copy(self) -> "Bucket":
        return Bucket(
            self.t_ms, self.samples, self.total, self.vmin, self.vmax,
            self.last, self.bad,
        )


@dataclass
class _Level:
    """One resolution level: flushed ring + in-progress pending bucket."""

    res_ms: float
    cap: int
    buckets: list = field(default_factory=list)
    pending: Bucket | None = None
    #: conservation remainder for everything the ring evicted
    evicted: Bucket | None = None


class SeriesArchive:
    """The retained history of one instrument at several resolutions."""

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self._levels: dict[float, _Level] = {
            RAW_RESOLUTION_MS: _Level(RAW_RESOLUTION_MS, RAW_CAP)
        }
        for res in ROLLUP_RESOLUTIONS_MS:
            self._levels[res] = _Level(res, ROLLUP_CAP)

    @property
    def resolutions(self) -> list[float]:
        return sorted(self._levels)

    # -- recording ---------------------------------------------------------------

    def record(self, bucket: Bucket) -> None:
        """Append one raw bucket; cascade it into every rollup level."""
        raw = self._levels[RAW_RESOLUTION_MS]
        raw.buckets.append(bucket)
        self._evict(raw)
        for res, level in self._levels.items():
            if res == RAW_RESOLUTION_MS:
                continue
            key_ms = (bucket.t_ms // res) * res
            if level.pending is not None and level.pending.t_ms != key_ms:
                level.buckets.append(level.pending)
                level.pending = None
                self._evict(level)
            if level.pending is None:
                level.pending = Bucket(t_ms=key_ms)
                # a fresh bucket has no 'last' yet; adopt the stream's
                level.pending.last = bucket.last
            level.pending.absorb(bucket.copy())
            level.pending.t_ms = key_ms  # absorb keeps ours; be explicit

    def _evict(self, level: _Level) -> None:
        while len(level.buckets) > level.cap:
            gone = level.buckets.pop(0)
            if level.evicted is None:
                level.evicted = gone.copy()
            else:
                level.evicted.absorb(gone)

    # -- views --------------------------------------------------------------------

    def buckets(self, res_ms: float = RAW_RESOLUTION_MS) -> list[Bucket]:
        """All retained buckets of one level (pending rollup included)."""
        level = self._levels[res_ms]
        out = list(level.buckets)
        if level.pending is not None:
            out.append(level.pending)
        return out

    def totals(self, res_ms: float = RAW_RESOLUTION_MS) -> Bucket:
        """Whole-series totals at one level, eviction remainder included.

        Conservation invariant: ``totals(r).samples``/``.total``/``.bad``
        are identical for every resolution ``r``.
        """
        level = self._levels[res_ms]
        agg = Bucket(t_ms=0.0)
        if level.evicted is not None:
            agg.absorb(level.evicted.copy())
        for bucket in self.buckets(res_ms):
            agg.absorb(bucket.copy())
        return agg

    def window(self, window_ms: float, now_ms: float) -> Bucket:
        """Merged aggregate of the raw buckets inside ``[now - window, now]``."""
        agg = Bucket(t_ms=now_ms - window_ms)
        for bucket in self.buckets(RAW_RESOLUTION_MS):
            if bucket.t_ms >= now_ms - window_ms:
                agg.absorb(bucket.copy())
        return agg

    def window_percentile(
        self,
        p: float,
        window_ms: float,
        now_ms: float,
    ) -> float | None:
        """Estimated percentile over the raw samples of a window;
        ``None`` when no samples.

        Nearest-rank over per-bucket means weighted by sample count,
        clamped into the window's [min, max] — never invents a value
        outside what was actually observed.
        """
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        points: list[tuple[float, float]] = []
        vmin: float | None = None
        vmax: float | None = None
        for bucket in self.buckets(RAW_RESOLUTION_MS):
            if bucket.t_ms < now_ms - window_ms or bucket.samples <= 0:
                continue
            points.append((bucket.mean, bucket.samples))
            if bucket.vmin is not None:
                vmin = bucket.vmin if vmin is None else min(vmin, bucket.vmin)
            if bucket.vmax is not None:
                vmax = bucket.vmax if vmax is None else max(vmax, bucket.vmax)
        if not points:
            return None
        points.sort()
        total = sum(weight for _, weight in points)
        rank = p / 100.0 * total
        seen = 0.0
        estimate = points[-1][0]
        for value, weight in points:
            seen += weight
            if seen >= rank:
                estimate = value
                break
        if vmin is not None:
            estimate = max(estimate, vmin)
        if vmax is not None:
            estimate = min(estimate, vmax)
        return estimate


class MetricsArchiver:
    """Snapshots a metrics registry into per-series rollup archives."""

    def __init__(self, registry, clock):
        self.registry = registry
        self.clock = clock
        self.series: dict[str, SeriesArchive] = {}
        self.snapshots = 0
        self._last_snapshot_ms: float | None = None
        self._counter_last: dict[str, float] = {}
        self._hist_cursor: dict[str, int] = {}
        #: histogram name → threshold; observations beyond it count as
        #: ``bad`` in that series' buckets (registered by latency SLOs)
        self.thresholds: dict[str, float] = {}

    @property
    def now_ms(self) -> float:
        return self.clock.now_ms

    def watch_threshold(self, metric: str, threshold: float) -> None:
        """Count ``metric`` observations beyond ``threshold`` as bad."""
        self.thresholds[metric] = float(threshold)

    # -- snapshotting -------------------------------------------------------------

    def _series(self, name: str, kind: str) -> SeriesArchive:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = SeriesArchive(name, kind)
        return series

    def maybe_snapshot(self) -> bool:
        """Snapshot iff the cadence interval elapsed; True when it fired."""
        now = self.now_ms
        if (
            self._last_snapshot_ms is not None
            and now - self._last_snapshot_ms < SNAPSHOT_INTERVAL_MS
        ):
            return False
        self.snapshot()
        return True

    def _dirty(self) -> bool:
        """Did any instrument move since the last snapshot?

        Metric activity is free on the simulated clock, so instruments
        can change without time passing — same-instant idempotence must
        yield to fresh data or a forced flush would drop it.
        """
        for name, counter in self.registry.counters.items():
            if float(counter.value) != self._counter_last.get(name, 0.0):
                return True
        for name, hist in self.registry.histograms.items():
            if len(hist.values) != self._hist_cursor.get(name, 0):
                return True
        return False

    def snapshot(self) -> None:
        """Archive one bucket per live instrument, stamped at now."""
        now = self.now_ms
        if self._last_snapshot_ms == now and self.snapshots and not self._dirty():
            return  # same instant and nothing fresh: idempotent
        for name in sorted(self.registry.counters):
            value = float(self.registry.counters[name].value)
            delta = value - self._counter_last.get(name, 0.0)
            self._counter_last[name] = value
            self._series(name, "counter").record(
                Bucket(
                    t_ms=now, samples=1.0, total=delta,
                    vmin=delta, vmax=delta, last=value,
                )
            )
        for name in sorted(self.registry.histograms):
            hist = self.registry.histograms[name]
            cursor = self._hist_cursor.get(name, 0)
            fresh = hist.values[cursor:]
            self._hist_cursor[name] = len(hist.values)
            threshold = self.thresholds.get(name)
            self._series(name, "histogram").record(
                Bucket(
                    t_ms=now,
                    samples=float(len(fresh)),
                    total=float(sum(fresh)),
                    vmin=min(fresh) if fresh else None,
                    vmax=max(fresh) if fresh else None,
                    last=float(len(hist.values)),
                    bad=(
                        float(sum(1 for v in fresh if v > threshold))
                        if threshold is not None
                        else 0.0
                    ),
                )
            )
        self._last_snapshot_ms = now
        self.snapshots += 1

    # -- queries -------------------------------------------------------------------

    def series_for(self, name: str) -> SeriesArchive | None:
        return self.series.get(name)

    def window(self, name: str, window_ms: float) -> Bucket | None:
        """Windowed aggregate of the raw samples ending now for one
        series, or None."""
        series = self.series.get(name)
        if series is None:
            return None
        return series.window(window_ms, self.now_ms)

    def history_rows(self) -> list[tuple]:
        """``monitor_history`` rows, every series × level × bucket."""
        rows: list[tuple] = []
        for name in sorted(self.series):
            series = self.series[name]
            for res in series.resolutions:
                for bucket in series.buckets(res):
                    rows.append(
                        (
                            float(bucket.t_ms),
                            name,
                            series.kind,
                            float(res),
                            int(bucket.samples),
                            float(bucket.total),
                            bucket.vmin,
                            bucket.vmax,
                            float(bucket.mean),
                            float(bucket.last),
                            int(bucket.bad),
                        )
                    )
        return rows
