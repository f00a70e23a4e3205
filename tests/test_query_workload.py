"""Tests for the query workload generator."""

import pytest

from repro.common import DeterministicRNG
from repro.hep.queries import KINDS, QueryWorkload, WorkloadConfig
from repro.sql import parse_select


@pytest.fixture
def workload():
    return QueryWorkload(DeterministicRNG("wl"))


class TestGeneration:
    def test_every_kind_produces_valid_sql(self, workload):
        for kind, specs in workload.by_kind(3).items():
            for spec in specs:
                assert spec.kind == kind
                parse_select(spec.sql)  # must parse

    def test_mix_respects_requested_kinds(self, workload):
        specs = workload.generate(50, mix={"point": 1.0})
        assert all(s.kind == "point" for s in specs)

    def test_deterministic_given_same_stream(self):
        a = QueryWorkload(DeterministicRNG("same")).generate(20)
        b = QueryWorkload(DeterministicRNG("same")).generate(20)
        assert [s.sql for s in a] == [s.sql for s in b]

    def test_mixed_workload_covers_kinds(self, workload):
        specs = workload.generate(200)
        kinds = {s.kind for s in specs}
        assert {"point", "range", "aggregate", "join"} <= kinds

    def test_config_controls_tables(self):
        config = WorkloadConfig(ntuple_table="events", runmeta_table="runs")
        wl = QueryWorkload(DeterministicRNG("c"), config)
        spec = wl.local_join()
        assert "events" in spec.sql and "runs" in spec.sql

    def test_range_bounds_within_table(self, workload):
        for _ in range(20):
            spec = workload.range_scan()
            select = parse_select(spec.sql)
            low = select.where.low.value
            high = select.where.high.value
            assert 1 <= low < high <= 3500

    def test_kinds_constant_is_complete(self, workload):
        assert set(workload.by_kind(1)) == set(KINDS)


class TestWorkloadExecution:
    def test_workload_runs_on_paper_testbed(self):
        from repro.hep.testbed import build_paper_testbed

        tb = build_paper_testbed()
        wl = QueryWorkload(
            DeterministicRNG("exec"),
            WorkloadConfig(max_event_id=500, max_run_id=150),
        )
        for spec in wl.generate(12):
            answer = tb.server1.service.execute(spec.sql)
            assert answer.columns  # ran and produced a shaped result
