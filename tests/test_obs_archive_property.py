"""Hypothesis properties: archiver rollups conserve, percentiles stay honest.

Random interleavings of metric activity, clock advances and snapshots
drive a :class:`MetricsArchiver`; after any such history:

* **conservation** — every series reports identical sample/sum/bad
  totals at every rollup resolution, eviction remainders included;
* **bounded estimation** — a window percentile, when it exists, never
  leaves the [min, max] actually observed in that window's buckets.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.simclock import SimClock
from repro.obs import archive
from repro.obs.archive import RAW_RESOLUTION_MS, MetricsArchiver
from repro.obs.metrics import MetricsRegistry

# one operation of the random schedule
ops = st.one_of(
    st.tuples(st.just("count"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("observe"), st.floats(0.0, 5_000.0)),
    st.tuples(st.just("advance"), st.floats(1.0, 3_000.0)),
    st.tuples(st.just("snapshot"), st.just(0)),
)


def run_schedule(schedule):
    """Drive an archiver (tiny rings, so eviction happens) and return it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(archive, "SNAPSHOT_INTERVAL_MS", 50.0)
        patch.setattr(archive, "RAW_CAP", 8)
        patch.setattr(archive, "ROLLUP_CAP", 4)
        return _run_schedule(schedule)


def _run_schedule(schedule):
    clock = SimClock()
    registry = MetricsRegistry()
    archiver = MetricsArchiver(registry, clock)
    archiver.watch_threshold("query_ms", 1_000.0)
    expected = {"queries": 0.0, "query_ms": 0.0}
    observed = 0
    for op, arg in schedule:
        if op == "count":
            registry.counter("queries").inc(arg)
            expected["queries"] += arg
        elif op == "observe":
            registry.histogram("query_ms").observe(arg)
            expected["query_ms"] += arg
            observed += 1
        elif op == "advance":
            clock.advance_ms(arg)
        else:
            archiver.snapshot()
    archiver.snapshot()  # flush whatever is left
    return archiver, expected, observed


class TestArchiveProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(ops, min_size=1, max_size=60))
    def test_totals_conserved_at_every_resolution(self, schedule):
        archiver, expected, observed = run_schedule(schedule)
        for name, series in archiver.series.items():
            raw = series.totals(RAW_RESOLUTION_MS)
            for res in series.resolutions:
                t = series.totals(res)
                assert t.samples == pytest.approx(raw.samples), (name, res)
                assert t.total == pytest.approx(raw.total), (name, res)
                assert t.bad == pytest.approx(raw.bad), (name, res)
        # and the archive as a whole never lost a counted event
        queries = archiver.series_for("queries")
        if queries is not None:
            assert queries.totals().total == pytest.approx(expected["queries"])
        hist = archiver.series_for("query_ms")
        if hist is not None:
            assert hist.totals().total == pytest.approx(expected["query_ms"])
            assert hist.totals().samples == pytest.approx(observed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(ops, min_size=1, max_size=60),
        st.floats(min_value=0.5, max_value=100.0),
        st.floats(min_value=100.0, max_value=60_000.0),
    )
    def test_window_percentile_inside_window_min_max(
        self, schedule, p, window_ms
    ):
        archiver, _, _ = run_schedule(schedule)
        now = archiver.now_ms
        for series in archiver.series.values():
            estimate = series.window_percentile(p, window_ms, now)
            in_window = [
                b for b in series.buckets(RAW_RESOLUTION_MS)
                if b.t_ms >= now - window_ms and b.samples > 0
            ]
            if not in_window:
                assert estimate is None
                continue
            lo = min(
                b.vmin for b in in_window if b.vmin is not None
            )
            hi = max(
                b.vmax for b in in_window if b.vmax is not None
            )
            assert lo - 1e-9 <= estimate <= hi + 1e-9
