"""Cache ablation — Table 1 queries cold vs warm (multi-level cache).

Runs the three Table 1 query classes on the paper testbed with the
multi-level cache enabled. Cold numbers must still fit the paper (cache
lookups cost no simulated time, so the cold path is the prototype's);
warm repeats must be at least 5x faster for the distributed classes,
with byte-identical rows. Emits ``benchmarks/results/BENCH_cache.json``.

Deliberately avoids the pytest-benchmark fixture so this file runs
under a plain pytest install (it is the one benchmark CI executes).
"""

import json

import pytest

from repro.hep.testbed import build_paper_testbed

from benchmarks.conftest import RESULTS_DIR, fmt_row, rows_digest, write_report

PAPER = {"local": 38.0, "dist_1srv": 487.5, "dist_2srv": 594.0}


@pytest.fixture(scope="module")
def testbed():
    return build_paper_testbed(cache=True)


@pytest.fixture(scope="module")
def measured(testbed):
    """Cold + warm outcome per query class, plus the emitted artifact."""
    tb = testbed
    fed, client, s1 = tb.federation, tb.client, tb.server1
    queries = {
        "local": tb.QUERY_LOCAL,
        "dist_1srv": tb.QUERY_DISTRIBUTED_1SRV,
        "dist_2srv": tb.QUERY_DISTRIBUTED_2SRV,
    }
    out = {}
    wire_bytes = {}
    for name, sql in queries.items():
        outcomes = {}
        for run in ("cold", "warm"):
            received = client.bytes_received
            outcomes[run] = fed.query(client, s1, sql)
            wire_bytes[name, run] = client.bytes_received - received
        out[name] = {
            **outcomes,
            "speedup": outcomes["cold"].response_ms / outcomes["warm"].response_ms,
        }

    artifact = {
        "queries": {
            name: {
                "paper_ms": PAPER[name],
                "cold_ms": round(m["cold"].response_ms, 3),
                "warm_ms": round(m["warm"].response_ms, 3),
                "speedup": round(m["speedup"], 2),
                "rows": m["cold"].answer.row_count,
                "rows_identical": m["cold"].answer.rows == m["warm"].answer.rows,
            }
            for name, m in out.items()
        },
        "cache": {
            "jclarens1": s1.service.cache.stats(),
            "jclarens2": tb.server2.service.cache.stats(),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_cache.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")

    widths = [10, 9, 9, 9, 8]
    lines = [
        fmt_row(["query", "paper ms", "cold ms", "warm ms", "speedup"], widths),
        *[
            fmt_row(
                [
                    name,
                    PAPER[name],
                    f"{m['cold'].response_ms:.1f}",
                    f"{m['warm'].response_ms:.1f}",
                    f"{m['speedup']:.1f}x",
                ],
                widths,
            )
            for name, m in out.items()
        ],
        "",
        f"artifact: {path.name}",
        "",
        "rows: sha256[:16] of the answer rows; exact sim ms; response bytes on the wire",
        fmt_row(["class", "run", "rows", "measured ms", "wire bytes"], [9, 4, 16, 20, 10]),
        *[
            fmt_row(
                [name, run, rows_digest(m[run].answer.rows), repr(m[run].response_ms),
                 wire_bytes[name, run]],
                [9, 4, 16, 20, 10],
            )
            for name, m in out.items()
            for run in ("cold", "warm")
        ],
    ]
    write_report("ablation_cache", "Cache Ablation — Table 1 Cold vs Warm", lines)
    return out


class TestCacheAblation:
    def test_cold_numbers_still_fit_the_paper(self, measured):
        """Cache lookups are free in simulated time: cold == prototype."""
        for name, target in PAPER.items():
            assert measured[name]["cold"].response_ms == pytest.approx(
                target, rel=0.25
            ), name

    def test_warm_distributed_queries_at_least_5x_faster(self, measured):
        for name in ("dist_1srv", "dist_2srv"):
            m = measured[name]
            assert m["warm"].response_ms * 5 <= m["cold"].response_ms, (
                name,
                m["warm"].response_ms,
                m["cold"].response_ms,
            )

    def test_warm_rows_byte_identical(self, measured):
        for name, m in measured.items():
            assert m["warm"].answer.rows == m["cold"].answer.rows, name
            assert m["warm"].answer.columns == m["cold"].answer.columns, name

    def test_warm_queries_hit_every_local_level(self, testbed, measured):
        stats = testbed.server1.service.cache.stats()
        assert stats["plan"]["hits"] >= 3
        assert stats["sub"]["hits"] >= 1
        # the 2-server query forwards to jclarens2; its warm repeat is
        # answered from the remote-answer cache without a wire call
        assert stats["remote"]["hits"] >= 1

    def test_artifact_emitted(self, measured):
        artifact = json.loads((RESULTS_DIR / "BENCH_cache.json").read_text())
        assert set(artifact["queries"]) == set(PAPER)
        for entry in artifact["queries"].values():
            assert entry["rows_identical"]
