"""Supplementary bench — response time by query class.

Not a paper table, but the natural capacity-study companion to Table 1:
mean simulated response per query shape (point lookup, range scan,
per-run aggregate, local cross-database join, cross-server join) on the
paper's testbed. Confirms the cost structure Table 1 implies: everything
local-and-POOL-routed is tens of ms; anything touching the JDBC path or
a remote server jumps by an order of magnitude.
"""

import pytest

from repro.common import DeterministicRNG
from repro.hep.queries import QueryWorkload, WorkloadConfig
from repro.hep.testbed import build_paper_testbed

from benchmarks.conftest import fmt_row, rows_digest, write_report

N_EACH = 5


@pytest.fixture(scope="module")
def mix_results():
    tb = build_paper_testbed()
    wl = QueryWorkload(
        DeterministicRNG("query-mix"),
        WorkloadConfig(max_event_id=3000, max_run_id=150),
    )
    service = tb.server1.service
    clock = tb.federation.clock
    network = tb.federation.network
    means: dict[str, float] = {}
    digests: dict[str, tuple] = {}
    for kind, specs in wl.by_kind(N_EACH).items():
        total = 0.0
        rows = []
        moved = network.bytes_moved
        for spec in specs:
            start = clock.now_ms
            rows.append(service.execute(spec.sql).rows)
            total += clock.now_ms - start
        means[kind] = total / len(specs)
        digests[kind] = (rows_digest(rows), repr(total), network.bytes_moved - moved)
    widths = [12, 14]
    lines = [fmt_row(["class", "mean ms"], widths)]
    for kind in ("point", "range", "aggregate", "join", "distributed"):
        lines.append(fmt_row([kind, f"{means[kind]:.1f}"], widths))
    lines += [
        "",
        f"{N_EACH} queries per class on the Table 1 testbed; 'join' touches",
        "the MS SQL runmeta mart (JDBC path), 'distributed' crosses to the",
        "second server via RLS forwarding but stays POOL-routed on both",
        "sides — a fresh JDBC connect costs more than a server hop.",
        "",
        "rows: sha256[:16] of the class's answer rows in order; exact total sim ms;",
        "bytes moved on the network (the queries run at the service, no client wire)",
        fmt_row(["class", "rows", "total ms", "bytes moved"], [12, 16, 20, 11]),
        *[
            fmt_row([kind, *digests[kind]], [12, 16, 20, 11])
            for kind in ("point", "range", "aggregate", "join", "distributed")
        ],
    ]
    write_report("query_mix", "Supplementary — Response Time by Query Class", lines)
    return tb, means


class TestQueryMix:
    def test_pool_routed_classes_are_fast(self, mix_results, benchmark):
        _, means = mix_results
        for kind in ("point", "range", "aggregate"):
            assert means[kind] < 120
        benchmark(lambda: None)

    def test_jdbc_join_an_order_of_magnitude_slower(self, mix_results, benchmark):
        _, means = mix_results
        assert means["join"] > 5 * means["point"]
        benchmark(lambda: None)

    def test_server_hop_cheaper_than_jdbc_connect(self, mix_results, benchmark):
        """Crossing servers (POOL both sides) beats one fresh JDBC connect."""
        _, means = mix_results
        assert means["distributed"] > max(
            means[k] for k in ("point", "range", "aggregate")
        )
        assert means["distributed"] < means["join"]
        benchmark(lambda: None)

    def test_real_time_of_point_lookup(self, mix_results, benchmark):
        tb, _ = mix_results
        wl = QueryWorkload(DeterministicRNG("rt"))
        spec = wl.point_lookup()
        benchmark(lambda: tb.server1.service.execute(spec.sql))
