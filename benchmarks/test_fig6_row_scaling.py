"""Figure 6 — Response time versus number of rows requested (§5.2).

Paper: queries against the ntuple data returning 21..2551 rows through
the JClarens web interface; response grows linearly from ~300 ms to
~700 ms ("increasing the number of rows from 21 to 2551 only increases
the response time from about 300 to 700 ms").
"""

import numpy as np
import pytest

from repro.common.rng import DeterministicRNG
from repro.core import GridFederation
from repro.hep.testbed import _make_ntuple_db

from benchmarks.conftest import fmt_row, rows_digest, write_report

#: the paper's x-axis points
ROW_COUNTS = [21, 51, 301, 451, 700, 801, 901, 1701, 1751, 2251, 2451, 2551]
PAPER_ENDPOINTS = (300.0, 700.0)


@pytest.fixture(scope="module")
def fig6_world():
    fed = GridFederation()
    # the prototype served ntuple queries through the Unity/JDBC path
    server = fed.create_server("jclarens1", "pc1.caltech.edu", force_jdbc=True)
    db = _make_ntuple_db("ntuple_db", DeterministicRNG("fig6"), 3000, 150)
    fed.attach_database(server, db, logical_names={"NTUPLE": "ntuple"})
    client = fed.client("client.cern.ch")
    return fed, server, client


@pytest.fixture(scope="module")
def series(fig6_world):
    fed, server, client = fig6_world
    points = []
    digests = []
    for rows in ROW_COUNTS:
        received = client.bytes_received
        outcome = fed.query(
            client,
            server,
            f"SELECT event_id, e, px, py FROM ntuple WHERE event_id <= {rows}",
        )
        assert outcome.answer.row_count == rows
        points.append((rows, outcome.response_ms))
        digests.append(
            (rows_digest(outcome.answer.rows), client.bytes_received - received)
        )
    lines = [fmt_row(["rows", "measured ms"], [6, 12])]
    lines += [fmt_row([r, f"{ms:.1f}"], [6, 12]) for r, ms in points]
    slope = (points[-1][1] - points[0][1]) / (points[-1][0] - points[0][0])
    lines += [
        "",
        f"paper endpoints: ~{PAPER_ENDPOINTS[0]:.0f} ms @ {ROW_COUNTS[0]} rows, "
        f"~{PAPER_ENDPOINTS[1]:.0f} ms @ {ROW_COUNTS[-1]} rows",
        f"measured slope: {slope:.3f} ms/row (paper: ~0.158 ms/row)",
        "",
        "rows: sha256[:16] of the answer rows; exact sim ms; response bytes on the wire",
        fmt_row(["rows", "digest", "measured ms", "wire bytes"], [6, 16, 20, 10]),
    ]
    lines += [
        fmt_row([r, digest, repr(ms), nbytes], [6, 16, 20, 10])
        for (r, ms), (digest, nbytes) in zip(points, digests)
    ]
    write_report("fig6_row_scaling", "Figure 6 — Response Time vs Rows Requested", lines)
    return points


class TestFig6:
    def test_endpoints_match_paper(self, series, benchmark):
        first, last = series[0][1], series[-1][1]
        assert first == pytest.approx(PAPER_ENDPOINTS[0], rel=0.25)
        assert last == pytest.approx(PAPER_ENDPOINTS[1], rel=0.25)
        benchmark(lambda: None)

    def test_growth_is_linear(self, series, benchmark):
        """Least-squares fit must explain (R^2 > 0.99) the series."""
        xs = np.array([p[0] for p in series], dtype=float)
        ys = np.array([p[1] for p in series], dtype=float)
        slope, intercept = np.polyfit(xs, ys, 1)
        predicted = slope * xs + intercept
        ss_res = float(((ys - predicted) ** 2).sum())
        ss_tot = float(((ys - ys.mean()) ** 2).sum())
        assert 1 - ss_res / ss_tot > 0.99
        assert 0.05 < slope < 0.4  # paper: ~0.158 ms/row
        benchmark(lambda: np.polyfit(xs, ys, 1))

    def test_monotone_in_rows(self, series, benchmark):
        times = [p[1] for p in series]
        assert all(b >= a for a, b in zip(times, times[1:]))
        benchmark(lambda: None)

    def test_scalability_headline(self, series, fig6_world, benchmark):
        """121x more rows costs only ~2.3x the response time (§5.2)."""
        first, last = series[0][1], series[-1][1]
        assert last / first < 3.0
        fed, server, client = fig6_world
        benchmark(
            lambda: server.service.execute(
                "SELECT event_id, e FROM ntuple WHERE event_id <= 301"
            )
        )
