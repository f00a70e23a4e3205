"""Supplementary bench — the N×S cost the paper's §4.2 argues about.

The paper motivates the warehouse with the claim that accessing N
database technologies with S schemas costs N×S implementations, and
that "all the related meta-data information has to be parsed" per
query. This bench makes the runtime half of the argument measurable:
response time of a query joining k JDBC-path databases grows linearly
in k, because every one of them pays its own metadata parse + connect +
authenticate.

It drives the standalone UnityDriver, which runs sub-queries serially
exactly like the prototype. (The federated service now executes
distinct local databases in parallel branches, so connect costs
overlap there and the per-database slope is no longer observable at
the service level — see the caching/parallelization notes in
DESIGN.md.)
"""

import numpy as np
import pytest

from repro.clarens.codec import payload_bytes
from repro.common.rng import DeterministicRNG
from repro.dialects import get_dialect
from repro.driver import Directory
from repro.engine import Database
from repro.metadata import DataDictionary, generate_lower_xspec
from repro.net.simclock import SimClock
from repro.unity.driver import UnityDriver

from benchmarks.conftest import fmt_row, rows_digest, write_report

MAX_DBS = 4


def build():
    """k MS SQL databases, each holding one table of a chained join."""
    directory = Directory()
    dictionary = DataDictionary()
    rng = DeterministicRNG("nxs")
    for k in range(MAX_DBS):
        db = Database(f"part{k}", "mssql")
        db.execute(
            f"CREATE TABLE T{k} (ID INT PRIMARY KEY, V DOUBLE)"
        )
        rows = [[i, float(rng.uniform(0, 1))] for i in range(200)]
        db.bulk_insert(f"T{k}", rows)
        url = get_dialect("mssql").make_url(f"pc{k}", None, f"part{k}")
        directory.register(url, db, host_name=f"pc{k}")
        dictionary.add_database(
            generate_lower_xspec(db, logical_names={f"T{k}": f"part{k}"}), url
        )
    clock = SimClock()
    driver = UnityDriver(dictionary, directory, clock=clock)
    return driver, clock


def chain_query(k: int) -> str:
    parts = ["SELECT p0.id FROM part0 p0"]
    for i in range(1, k):
        parts.append(f"JOIN part{i} p{i} ON p0.id = p{i}.id")
    parts.append("WHERE p0.id < 50")
    return " ".join(parts)


@pytest.fixture(scope="module")
def series():
    driver, clock = build()
    points = []
    answers = []
    for k in range(1, MAX_DBS + 1):
        t0 = clock.now_ms
        answers.append(driver.execute(chain_query(k)))
        points.append((k, clock.now_ms - t0))
    widths = [12, 14]
    lines = [fmt_row(["databases", "response ms"], widths)]
    lines += [fmt_row([k, f"{ms:.1f}"], widths) for k, ms in points]
    slope = (points[-1][1] - points[0][1]) / (MAX_DBS - 1)
    lines += [
        "",
        f"each added JDBC database costs ~{slope:.0f} ms (metadata parse +",
        "connect + authenticate) — the runtime face of the paper's NxS",
        "argument for the warehouse/dictionary design.",
        "",
        "rows: sha256[:16] of the answer rows; exact sim ms; the bytes the",
        "answer would take as a dataaccess.query response (the driver has no wire)",
        fmt_row(["databases", "rows", "measured ms", "wire bytes"], [9, 16, 20, 10]),
        *[
            fmt_row(
                [k, rows_digest(answer.rows), repr(ms),
                 payload_bytes("dataaccess.query", answer.to_wire())],
                [9, 16, 20, 10],
            )
            for (k, ms), answer in zip(points, answers)
        ],
    ]
    write_report("nxs_scaling", "Supplementary — Cost per JDBC Database (NxS)", lines)
    return points


class TestNxSScaling:
    def test_monotone_in_database_count(self, series, benchmark):
        times = [ms for _, ms in series]
        assert all(b > a for a, b in zip(times, times[1:]))
        benchmark(lambda: None)

    def test_roughly_linear(self, series, benchmark):
        ks = np.array([k for k, _ in series], dtype=float)
        ts = np.array([ms for _, ms in series], dtype=float)
        slope, intercept = np.polyfit(ks, ts, 1)
        predicted = slope * ks + intercept
        ss_res = float(((ts - predicted) ** 2).sum())
        ss_tot = float(((ts - ts.mean()) ** 2).sum())
        assert 1 - ss_res / ss_tot > 0.98
        benchmark(lambda: None)

    def test_per_database_cost_matches_vendor_constants(self, series, benchmark):
        from repro.net import costs

        cost = get_dialect("mssql").cost
        expected = cost.connect_ms + cost.auth_ms + costs.UNITY_METADATA_PARSE_MS
        slope = (series[-1][1] - series[0][1]) / (MAX_DBS - 1)
        assert slope == pytest.approx(expected, rel=0.15)
        benchmark(lambda: None)

    def test_real_time_of_widest_join(self, series, benchmark):
        driver, _clock = build()
        benchmark(lambda: driver.execute(chain_query(MAX_DBS)))
