"""The cache, chaos and health report CLIs: JSON shape and the facts each
report must show.

Each report is built once per module, through ``main(["--json"])``, and
every test below reads that one report. A test's name is the check it
makes; the checks are what the report's CLI used to assert about itself.
"""

import importlib
import io
import json
from contextlib import redirect_stdout

import pytest

from repro.tools.healthreport import CHAOS_QUERIES, HEALTHY_QUERIES, RECOVERY_QUERIES

#: each report module and the top-level keys its ``--json`` report holds
REPORTS = {
    "cachereport": (
        "cache_after_invalidation", "cache_after_warm", "cold_ms",
        "post_invalidation_ms", "post_invalidation_rows_identical",
        "remote_server_cache", "rows", "speedup", "sql", "warm_ms",
        "warm_rows_identical",
    ),
    "chaosreport": (
        "baseline_outcome", "blackout_first_latency_ms",
        "net_partition_timeouts", "outcomes", "partial_answers",
        "partition_timeout_ms", "recovery_latency_ms",
        "recovery_rows_identical", "resilience", "samples", "sql",
        "steady_state_max_latency_ms", "truth_rows",
    ),
    "healthreport": (
        "alerts", "conservation", "phases", "profile", "slos", "sql",
        "sql_demo",
    ),
}


def json_report(name: str) -> dict:
    """The report ``python -m repro.tools.<name> --json`` prints."""
    main = importlib.import_module(f"repro.tools.{name}").main
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["--json"]) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def cachereport():
    return json_report("cachereport")


@pytest.fixture(scope="module")
def chaosreport():
    return json_report("chaosreport")


@pytest.fixture(scope="module")
def healthreport():
    return json_report("healthreport")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_cli(name, request):
    report = request.getfixturevalue(name)
    assert set(REPORTS[name]) <= set(report)


class TestCacheReport:
    """The caching stack: warm hits at every level, then invalidation."""

    def test_warm_run_faster_than_cold(self, cachereport):
        assert cachereport["warm_ms"] < cachereport["cold_ms"]

    def test_warm_run_at_least_5x_faster(self, cachereport):
        assert cachereport["warm_ms"] * 5 <= cachereport["cold_ms"]

    def test_warm_rows_byte_identical(self, cachereport):
        assert cachereport["warm_rows_identical"]

    @pytest.mark.parametrize("level", ["plan", "sub", "remote"])
    def test_warm_run_hits_each_cache_level(self, cachereport, level):
        """plan cache hit, sub-result cache hit, remote-answer cache hit"""
        assert cachereport["cache_after_warm"][level]["hits"] >= 1

    def test_schema_change_bumped_the_epoch(self, cachereport):
        warm = cachereport["cache_after_warm"]
        after = cachereport["cache_after_invalidation"]
        assert after["epoch_generation"] > warm["epoch_generation"]

    def test_invalidation_flushed_entries(self, cachereport):
        warm = cachereport["cache_after_warm"]
        after = cachereport["cache_after_invalidation"]
        assert after["invalidations"] > warm["invalidations"]

    def test_post_invalidation_run_not_served_stale(self, cachereport):
        assert cachereport["post_invalidation_rows_identical"]
        assert cachereport["post_invalidation_ms"] > cachereport["warm_ms"]


class TestChaosReport:
    """The resilience stack through a total blackout and back."""

    def test_no_silently_wrong_answers(self, chaosreport):
        assert chaosreport["outcomes"]["wrong"] == 0

    def test_queries_succeeded_while_healthy(self, chaosreport):
        assert chaosreport["outcomes"]["ok"] >= 1

    def test_blackout_produced_flagged_partials(self, chaosreport):
        assert chaosreport["outcomes"]["partial"] >= 3

    def test_a_circuit_breaker_opened(self, chaosreport):
        breakers = chaosreport["resilience"]["breakers"].values()
        assert any(b["opens"] >= 1 for b in breakers)

    def test_breakers_fast_failed(self, chaosreport):
        breakers = chaosreport["resilience"]["breakers"].values()
        assert any(b["fast_fails"] >= 1 for b in breakers)

    def test_steady_state_latency_beats_the_partition_timeout(self, chaosreport):
        steady = chaosreport["steady_state_max_latency_ms"]
        assert steady is not None and steady < chaosreport["partition_timeout_ms"]

    def test_recovery_returned_the_ground_truth(self, chaosreport):
        assert chaosreport["recovery_rows_identical"]

    def test_recovery_latency_is_healthy(self, chaosreport):
        assert chaosreport["recovery_latency_ms"] < chaosreport["partition_timeout_ms"]

    def test_partition_timeouts_were_counted(self, chaosreport):
        assert chaosreport["net_partition_timeouts"] >= 1


class TestHealthReport:
    """The obs-v2 stack: SLO verdicts, alerts, telemetry over SQL."""

    def test_healthy_phase_verdict_is_ok(self, healthreport):
        assert healthreport["phases"]["healthy"]["verdict"] == "ok"

    def test_blackout_burned_the_budget_to_critical(self, healthreport):
        assert healthreport["phases"]["blackout"]["verdict"] == "critical"

    def test_a_page_severity_alert_fired(self, healthreport):
        assert any(
            a["severity"] == "page" and a["state"] == "firing"
            for a in healthreport["alerts"]
        )

    def test_the_page_alert_resolved_after_recovery(self, healthreport):
        assert healthreport["phases"]["recovery"]["verdict"] != "critical"

    def test_monitor_alerts_answers_federated_sql(self, healthreport):
        assert healthreport["sql_demo"]["alerts_fired"] >= 1

    def test_monitor_history_answers_federated_sql(self, healthreport):
        assert healthreport["sql_demo"]["history_buckets"] > 0

    def test_archived_query_count_matches_the_workload(self, healthreport):
        assert (
            healthreport["sql_demo"]["queries_archived_raw"]
            >= HEALTHY_QUERIES + CHAOS_QUERIES + RECOVERY_QUERIES
        )

    def test_profile_self_times_sum_to_the_traced_latency(self, healthreport):
        profile = healthreport["profile"]
        assert abs(profile["self_total_ms"] - profile["total_ms"]) < 1e-6

    def test_rollups_conserve_counts_and_sums(self, healthreport):
        conservation = healthreport["conservation"]
        assert conservation
        assert all(c["conserved"] for c in conservation.values())
