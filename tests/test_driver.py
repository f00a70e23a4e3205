"""Unit tests for the JDBC-style driver layer."""

import pytest

from repro.common import AuthenticationError, ConnectionFailedError
from repro.common.errors import DriverError, DuplicateObjectError
from repro.dialects import Dialect, get_dialect, register_dialect
from repro.dialects import registry
from repro.driver import Directory, connect, sniff_vendor
from repro.engine import Database
from repro.net import SimClock


@pytest.fixture
def setup():
    directory = Directory()
    db = Database("mart", "mysql")
    db.execute("CREATE TABLE t (a INT, b VARCHAR(10))")
    db.execute("INSERT INTO t VALUES (1,'x'),(2,'y'),(3,'z')")
    url = get_dialect("mysql").make_url("hostA", None, "mart")
    directory.register(url, db, user="alice", password="s3cret", host_name="hostA")
    return directory, db, url


class TestSniffing:
    def test_each_vendor_sniffs_its_own_url(self):
        for vendor in ("oracle", "mysql", "mssql", "sqlite"):
            d = get_dialect(vendor)
            url = d.make_url("h", None, "db")
            sniffed, parsed = sniff_vendor(url)
            assert sniffed.name == vendor
            assert parsed.database == "db"

    def test_unknown_scheme_raises(self):
        with pytest.raises(ConnectionFailedError):
            sniff_vendor("odbc:whatever://h/db")


@pytest.fixture
def scratch_registry(monkeypatch):
    """The dialect registry, restored after the test."""
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    monkeypatch.setattr(registry, "_BY_SCHEME", registry._BY_SCHEME)


class _PluginDialect(Dialect):
    name = "plugin"
    url_scheme = "jdbc:mysql:plugin"  # extends MySQL's scheme


def test_dialect_registered_after_a_sniff_is_found_by_the_next(scratch_registry):
    url = _PluginDialect().make_url("h", 1, "db")
    with pytest.raises(ConnectionFailedError):  # MySQL claims it, then refuses it
        sniff_vendor(url)
    register_dialect(_PluginDialect())
    sniffed, parsed = sniff_vendor(url)
    assert sniffed.name == "plugin" and parsed.database == "db"
    assert sniff_vendor(get_dialect("mysql").make_url("h", None, "db"))[0].name == "mysql"


class TestDirectory:
    def test_duplicate_registration_rejected(self, setup):
        directory, db, url = setup
        with pytest.raises(DuplicateObjectError):
            directory.register(url, db)

    def test_unknown_url_raises(self, setup):
        directory, _, _ = setup
        with pytest.raises(ConnectionFailedError):
            directory.lookup("jdbc:mysql://nowhere:3306/x")

    def test_unregister(self, setup):
        directory, _, url = setup
        directory.unregister(url)
        assert directory.urls() == []


class TestConnect:
    def test_connect_and_query(self, setup):
        directory, _, url = setup
        conn = connect(url, "alice", "s3cret", directory=directory)
        cursor = conn.execute("SELECT a FROM t ORDER BY a")
        assert cursor.fetchall() == [(1,), (2,), (3,)]

    def test_bad_password_raises(self, setup):
        directory, _, url = setup
        with pytest.raises(AuthenticationError):
            connect(url, "alice", "wrong", directory=directory)

    def test_bad_user_raises(self, setup):
        directory, _, url = setup
        with pytest.raises(AuthenticationError):
            connect(url, "mallory", "s3cret", directory=directory)

    def test_connect_charges_vendor_cost(self, setup):
        directory, _, url = setup
        clock = SimClock()
        connect(url, "alice", "s3cret", directory=directory, clock=clock)
        cost = get_dialect("mysql").cost
        assert clock.now_ms == pytest.approx(cost.connect_ms + cost.auth_ms)

    def test_closed_connection_rejects_cursor(self, setup):
        directory, _, url = setup
        conn = connect(url, "alice", "s3cret", directory=directory)
        conn.close()
        with pytest.raises(DriverError):
            conn.cursor()

    def test_context_manager_closes(self, setup):
        directory, _, url = setup
        with connect(url, "alice", "s3cret", directory=directory) as conn:
            pass
        assert conn.closed


class TestCursor:
    @pytest.fixture
    def cursor(self, setup):
        directory, _, url = setup
        return connect(url, "alice", "s3cret", directory=directory).cursor()

    def test_fetchone_sequence(self, cursor):
        cursor.execute("SELECT a FROM t ORDER BY a")
        assert cursor.fetchone() == (1,)
        assert cursor.fetchone() == (2,)
        assert cursor.fetchone() == (3,)
        assert cursor.fetchone() is None

    def test_fetch_before_execute_raises(self, cursor):
        with pytest.raises(DriverError):
            cursor.fetchall()

    def test_description_and_types(self, cursor):
        cursor.execute("SELECT a, b FROM t")
        names = [d[0] for d in cursor.description]
        assert names == ["a", "b"]
        assert len(cursor.types) == 2

    def test_rowcount_for_dml(self, cursor):
        cursor.execute("INSERT INTO t (a, b) VALUES (9, 'w')")
        assert cursor.rowcount == 1

    def test_params(self, cursor):
        cursor.execute("SELECT b FROM t WHERE a = ?", (2,))
        assert cursor.fetchall() == [("y",)]

    def test_dml_charges_insert_and_commit(self, setup):
        directory, _, url = setup
        clock = SimClock()
        conn = connect(url, "alice", "s3cret", directory=directory, clock=clock)
        before = clock.now_ms
        conn.execute("INSERT INTO t (a, b) VALUES (7, 'q')")
        cost = get_dialect("mysql").cost
        spent = clock.now_ms - before
        assert spent >= cost.per_row_insert_ms + cost.commit_ms


class TestCursorIteration:
    def test_cursor_is_iterable(self, setup):
        directory, _, url = setup
        cursor = connect(url, "alice", "s3cret", directory=directory).cursor()
        cursor.execute("SELECT a FROM t ORDER BY a")
        assert list(cursor) == [(1,), (2,), (3,)]

    def test_iteration_resumes_after_fetchone(self, setup):
        directory, _, url = setup
        cursor = connect(url, "alice", "s3cret", directory=directory).cursor()
        cursor.execute("SELECT a FROM t ORDER BY a")
        assert cursor.fetchone() == (1,)
        assert list(cursor) == [(2,), (3,)]
