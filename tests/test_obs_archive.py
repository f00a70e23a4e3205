"""Metric archiver: snapshots, rollups, windows, conservation."""

import pytest

from repro.net.simclock import SimClock
from repro.obs import archive
from repro.obs.archive import (
    RAW_RESOLUTION_MS,
    Bucket,
    MetricsArchiver,
    SeriesArchive,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOW_WINDOW_MS


def make_archiver():
    clock = SimClock()
    registry = MetricsRegistry()
    archiver = MetricsArchiver(registry, clock)
    return clock, registry, archiver


class TestSeriesArchive:
    def test_rollup_buckets_align_to_resolution(self, monkeypatch):
        monkeypatch.setattr(archive, "ROLLUP_RESOLUTIONS_MS", (1_000.0,))
        series = SeriesArchive("m", "counter")
        for t in (100.0, 900.0, 1_100.0):
            series.record(Bucket(t_ms=t, samples=1.0, total=1.0))
        rolled = series.buckets(1_000.0)
        assert [b.t_ms for b in rolled] == [0.0, 1_000.0]
        assert rolled[0].samples == 2.0
        assert rolled[1].samples == 1.0

    def test_totals_identical_at_every_resolution(self):
        series = SeriesArchive("m", "histogram")
        for i in range(50):
            series.record(
                Bucket(
                    t_ms=i * 137.0, samples=2.0, total=i * 1.5,
                    vmin=float(i), vmax=float(i + 1), bad=i % 2,
                )
            )
        raw = series.totals(RAW_RESOLUTION_MS)
        for res in series.resolutions:
            t = series.totals(res)
            assert t.samples == raw.samples, res
            assert t.total == pytest.approx(raw.total), res
            assert t.bad == raw.bad, res

    def test_eviction_folds_into_remainder(self, monkeypatch):
        monkeypatch.setattr(archive, "RAW_CAP", 10)
        monkeypatch.setattr(archive, "ROLLUP_CAP", 4)
        series = SeriesArchive("m", "counter")
        for i in range(100):
            series.record(Bucket(t_ms=i * 500.0, samples=1.0, total=1.0))
        assert len(series.buckets(RAW_RESOLUTION_MS)) == 10
        raw = series.totals(RAW_RESOLUTION_MS)
        assert raw.samples == 100.0
        assert raw.total == 100.0
        for res in series.resolutions:
            assert series.totals(res).total == pytest.approx(100.0), res

    def test_window_selects_recent_buckets(self):
        series = SeriesArchive("m", "counter")
        for t in (0.0, 1_000.0, 2_000.0, 3_000.0):
            series.record(Bucket(t_ms=t, samples=1.0, total=t))
        window = series.window(1_500.0, now_ms=3_000.0)
        assert window.samples == 2.0
        assert window.total == pytest.approx(5_000.0)

    def test_window_percentile_none_when_empty(self):
        series = SeriesArchive("m", "histogram")
        assert series.window_percentile(99, 1_000.0, now_ms=0.0) is None
        # buckets exist but hold no samples -> still no data
        series.record(Bucket(t_ms=0.0, samples=0.0, total=0.0))
        assert series.window_percentile(99, 1_000.0, now_ms=0.0) is None

    def test_window_percentile_clamped_to_min_max(self):
        series = SeriesArchive("m", "histogram")
        series.record(
            Bucket(t_ms=0.0, samples=4.0, total=40.0, vmin=1.0, vmax=25.0)
        )
        p = series.window_percentile(99, 1_000.0, now_ms=100.0)
        assert 1.0 <= p <= 25.0

    def test_window_percentile_rejects_bad_p(self):
        series = SeriesArchive("m", "histogram")
        with pytest.raises(ValueError):
            series.window_percentile(0, 1_000.0, now_ms=0.0)
        with pytest.raises(ValueError):
            series.window_percentile(101, 1_000.0, now_ms=0.0)


class TestMetricsArchiver:
    def test_counter_deltas_conserve_the_cumulative_total(self):
        clock, registry, archiver = make_archiver()
        c = registry.counter("queries")
        for n in (3, 0, 7, 2):
            c.inc(n)
            archiver.snapshot()
            clock.advance_ms(250.0)
        series = archiver.series_for("queries")
        assert series.totals().total == pytest.approx(12.0)
        assert series.buckets()[-1].last == pytest.approx(12.0)

    def test_histogram_snapshot_sees_only_fresh_values(self):
        clock, registry, archiver = make_archiver()
        h = registry.histogram("query_ms")
        h.observe(10.0)
        h.observe(30.0)
        archiver.snapshot()
        clock.advance_ms(200.0)
        h.observe(100.0)
        archiver.snapshot()
        buckets = archiver.series_for("query_ms").buckets()
        assert [b.samples for b in buckets] == [2.0, 1.0]
        assert buckets[1].vmin == buckets[1].vmax == 100.0

    def test_threshold_marks_bad_observations(self):
        clock, registry, archiver = make_archiver()
        archiver.watch_threshold("query_ms", 50.0)
        h = registry.histogram("query_ms")
        for v in (10.0, 60.0, 70.0):
            h.observe(v)
        archiver.snapshot()
        assert archiver.series_for("query_ms").totals().bad == 2.0

    def test_maybe_snapshot_respects_cadence(self):
        clock, registry, archiver = make_archiver()
        registry.counter("queries").inc()
        assert archiver.maybe_snapshot() is True
        assert archiver.maybe_snapshot() is False  # same instant
        clock.advance_ms(50.0)
        assert archiver.maybe_snapshot() is False  # under the interval
        clock.advance_ms(50.0)
        assert archiver.maybe_snapshot() is True
        assert archiver.snapshots == 2

    def test_snapshot_idempotent_within_one_instant(self):
        clock, registry, archiver = make_archiver()
        registry.counter("queries").inc()
        archiver.snapshot()
        archiver.snapshot()
        assert archiver.snapshots == 1
        assert len(archiver.series_for("queries").buckets()) == 1

    def test_history_rows_cover_every_series_and_level(self):
        clock, registry, archiver = make_archiver()
        registry.counter("queries").inc()
        registry.histogram("query_ms").observe(10.0)
        archiver.snapshot()
        rows = archiver.history_rows()
        names = {r[1] for r in rows}
        assert names == {"queries", "query_ms"}
        resolutions = {r[3] for r in rows}
        assert resolutions == {0.0, 1_000.0, 10_000.0}
        for row in rows:
            assert len(row) == 11

    def test_raw_ring_covers_the_slow_slo_window(self):
        clock, registry, archiver = make_archiver()
        for _ in range(700):
            registry.counter("queries").inc()
            archiver.maybe_snapshot()
            clock.advance_ms(archive.SNAPSHOT_INTERVAL_MS)
        window = archiver.window("queries", SLOW_WINDOW_MS)
        assert window.samples >= SLOW_WINDOW_MS / archive.SNAPSHOT_INTERVAL_MS

    def test_window_helper_none_for_unknown_series(self):
        _, _, archiver = make_archiver()
        assert archiver.window("nope", 1_000.0) is None
