"""Tests for Clarens introspection and histograms from two marts."""

import pytest

from repro.common import ClarensFault
from repro.core import GridFederation
from repro.engine import Database


@pytest.fixture
def fed():
    federation = GridFederation()
    server = federation.create_server("jc1", "pc1")
    db = Database("m", "mysql")
    db.execute("CREATE TABLE T (A INT PRIMARY KEY)")
    federation.attach_database(server, db)
    client = federation.client("laptop")
    return federation, server, client


class TestIntrospection:
    def test_list_methods(self, fed):
        _, server, client = fed
        methods = client.call(server.server, "system.listMethods")
        assert "dataaccess.query" in methods
        assert "dataaccess.plugin" in methods
        assert "system.listMethods" in methods
        assert methods == sorted(methods)

    def test_method_help_returns_docstring(self, fed):
        _, server, client = fed
        text = client.call(server.server, "system.methodHelp", "dataaccess.query")
        assert "run a query" in text.lower()

    def test_method_help_unknown_faults(self, fed):
        _, server, client = fed
        with pytest.raises(ClarensFault):
            client.call(server.server, "system.methodHelp", "dataaccess.nope")

    def test_introspection_requires_session(self, fed):
        from repro.common import AuthenticationError

        _, server, _ = fed
        with pytest.raises(AuthenticationError):
            server.server.dispatch(None, "system.listMethods", [])


class TestHistogramsFromTwoMarts:
    def test_use_case_two_marts_one_histogram(self, fed):
        """The grid use: same cut on two marts, binned alike client-side."""
        federation, server, client = fed
        db2 = Database("m2", "sqlite")
        db2.execute("CREATE TABLE vals (v REAL)")
        for i in range(10):
            db2.execute(f"INSERT INTO vals VALUES ({i / 10})")
        federation.attach_database(server, db2)
        db3 = Database("m3", "mysql")
        db3.execute("CREATE TABLE vals2 (v DOUBLE)")
        for i in range(5):
            db3.execute(f"INSERT INTO vals2 VALUES ({i / 5})")
        federation.attach_database(server, db3)

        from repro.analysis import JASPlugin

        jas = JASPlugin(federation, client, server)
        h1 = jas.histogram_query("SELECT v FROM vals", "v", nbins=10, low=0.0, high=1.0)
        h2 = jas.histogram_query("SELECT v FROM vals2", "v", nbins=10, low=0.0, high=1.0)
        assert h1.entries + h2.entries == 15
        assert int((h1.counts + h2.counts).sum()) == 15
