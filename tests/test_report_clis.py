"""The cache, chaos and health report CLIs: self-test gate and JSON shape."""

import importlib
import json

import pytest

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


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_cli(name, capsys):
    main = importlib.import_module(f"repro.tools.{name}").main
    assert main(["--self-test"]) == 0
    capsys.readouterr()
    assert main(["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(REPORTS[name]) <= set(report)
