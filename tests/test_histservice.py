"""Tests for the server-side histogram service."""

import numpy as np
import pytest

from repro.analysis import JASPlugin, histogram_from_wire, histogram_to_wire
from repro.analysis.histogram import Histogram1D
from repro.common import ClarensFault, DeterministicRNG, ReproError
from repro.core import GridFederation
from repro.engine import Database


@pytest.fixture
def fed():
    federation = GridFederation()
    server = federation.create_server("jc1", "pc1")
    db = Database("m", "mysql")
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, E DOUBLE, TAG VARCHAR(4))")
    rng = DeterministicRNG("hs")
    rows = [[i, float(v), "t"] for i, v in enumerate(rng.normal(50, 10, 500))]
    db.bulk_insert("EVT", rows)
    federation.attach_database(server, db, logical_names={"EVT": "events"})
    client = federation.client("laptop")
    return federation, server, client


@pytest.fixture
def mixed():
    """A sqlite mart with a BOOLEAN column and a TEXT column of numerals."""
    federation = GridFederation()
    server = federation.create_server("jc1", "pc1")
    db = Database("m", "sqlite")
    db.execute(
        "CREATE TABLE OBS (OBS_ID INT PRIMARY KEY, E DOUBLE, FLAG BOOLEAN, NOTE TEXT)"
    )
    db.bulk_insert("OBS", [[i, float(i), i % 2 == 0, f"{i}.5"] for i in range(20)])
    federation.attach_database(server, db, logical_names={"OBS": "obs"})
    return federation, server, federation.client("laptop")


class TestWireCodec:
    def test_round_trip(self):
        h = Histogram1D(10, 0.0, 100.0, title="x")
        h.fill(DeterministicRNG("w").normal(50, 10, 200))
        back = histogram_from_wire(histogram_to_wire(h))
        assert np.array_equal(back.counts, h.counts)
        assert back.mean == pytest.approx(h.mean)
        assert back.entries == h.entries
        assert back.title == "x"


class TestHistogramService:
    def test_value_just_below_high_is_binned_not_a_server_error(self):
        federation = GridFederation()
        server = federation.create_server("jc1", "pc1")
        db = Database("m", "mysql")
        db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, E DOUBLE)")
        db.bulk_insert("EVT", [[1, 1.1617748178834135]])
        federation.attach_database(server, db, logical_names={"EVT": "events"})
        wire = federation.client("laptop").call(
            server.server, "histogram.h1d",
            "SELECT E FROM events", "E", 196, -7.312715117751976, 1.1617748178834137,
        )
        assert wire["counts"][-1] == 1
        assert wire["overflow"] == 0

    def test_server_side_histogram(self, fed):
        federation, server, client = fed
        wire = client.call(
            server.server, "histogram.h1d",
            "SELECT e FROM events", "e", 20, 0.0, 100.0,
        )
        hist = histogram_from_wire(wire)
        assert hist.entries == 500
        assert hist.nbins == 20

    def test_matches_client_side_histogram(self, fed):
        federation, server, client = fed
        jas = JASPlugin(federation, client, server)
        client_side = jas.histogram_query(
            "SELECT e FROM events", "e", nbins=20, low=0.0, high=100.0
        )
        wire = client.call(
            server.server, "histogram.h1d",
            "SELECT e FROM events", "e", 20, 0.0, 100.0,
        )
        server_side = histogram_from_wire(wire)
        assert np.array_equal(server_side.counts, client_side.counts)
        assert server_side.mean == pytest.approx(client_side.mean)

    @pytest.mark.parametrize("column", ["flag", "note"])
    def test_both_sides_refuse_non_numeric_columns(self, mixed, column):
        """BOOLEAN and numeral TEXT are not numeric on either side."""
        federation, server, client = mixed
        sql = f"SELECT e, {column} FROM obs"
        with pytest.raises(ClarensFault):
            client.call(server.server, "histogram.h1d", sql, column)
        jas = JASPlugin(federation, client, server)
        with pytest.raises(ReproError):
            jas.histogram_query(sql, column)

    def test_ships_bins_not_rows(self, fed):
        """The whole point: response bytes independent of row count."""
        federation, server, client = fed
        before = client.bytes_received
        client.call(
            server.server, "histogram.h1d",
            "SELECT e FROM events", "e", 20, 0.0, 100.0,
        )
        hist_bytes = client.bytes_received - before
        before = client.bytes_received
        client.call(server.server, "dataaccess.query", "SELECT e FROM events")
        rows_bytes = client.bytes_received - before
        assert hist_bytes < rows_bytes / 5

    def test_auto_range(self, fed):
        federation, server, client = fed
        wire = client.call(
            server.server, "histogram.h1d", "SELECT e FROM events", "e"
        )
        hist = histogram_from_wire(wire)
        assert hist.underflow == 0 and hist.overflow == 0

    def test_unknown_column_faults(self, fed):
        federation, server, client = fed
        with pytest.raises(ClarensFault):
            client.call(
                server.server, "histogram.h1d", "SELECT e FROM events", "ghost"
            )

    def test_non_numeric_column_faults(self, fed):
        federation, server, client = fed
        with pytest.raises(ClarensFault):
            client.call(
                server.server, "histogram.h1d",
                "SELECT tag FROM events", "tag",
            )

    def test_empty_result_auto_range_faults(self, fed):
        federation, server, client = fed
        with pytest.raises(ClarensFault):
            client.call(
                server.server, "histogram.h1d",
                "SELECT e FROM events WHERE e > 1000000", "e",
            )

    def test_listed_by_introspection(self, fed):
        federation, server, client = fed
        assert "histogram.h1d" in client.call(server.server, "system.listMethods")
