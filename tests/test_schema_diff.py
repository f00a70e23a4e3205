"""Tests for XSpec schema diffing and the tracker's change log."""

from repro.engine import Database
from repro.metadata import SchemaTracker, generate_lower_xspec
from repro.metadata.diff import diff_specs


def spec_of(ddl_map, name="d", vendor="mysql"):
    db = Database(name, vendor)
    for table, ddl in ddl_map.items():
        db.execute(f"CREATE TABLE {table} ({ddl})")
    return generate_lower_xspec(db)


class TestDiffSpecs:
    def test_identical_specs_empty_diff(self):
        a = spec_of({"T": "A INT, B DOUBLE"})
        b = spec_of({"T": "A INT, B DOUBLE"})
        diff = diff_specs(a, b)
        assert diff.empty
        assert diff.summary() == "no structural change"

    def test_added_and_removed_tables(self):
        old = spec_of({"KEEP": "A INT", "GONE": "A INT"})
        new = spec_of({"KEEP": "A INT", "FRESH": "A INT"})
        diff = diff_specs(old, new)
        assert diff.added_tables == ["FRESH"]
        assert diff.removed_tables == ["GONE"]

    def test_column_addition_and_removal(self):
        old = spec_of({"T": "A INT, OLDCOL INT"})
        new = spec_of({"T": "A INT, NEWCOL DOUBLE"})
        diff = diff_specs(old, new)
        td = diff.table_diffs[0]
        assert td.added_columns == ["NEWCOL"]
        assert td.removed_columns == ["OLDCOL"]

    def test_type_change_detected(self):
        old = spec_of({"T": "A INT"})
        new = spec_of({"T": "A DOUBLE"})
        change = diff_specs(old, new).table_diffs[0].changed_columns[0]
        assert change.column == "A"
        assert "INT" in change.before and "DOUBLE" in change.after

    def test_nullability_change_detected(self):
        old = spec_of({"T": "A INT"})
        new = spec_of({"T": "A INT NOT NULL"})
        changes = diff_specs(old, new).table_diffs[0].changed_columns
        assert changes and "NOT NULL" in changes[0].after

    def test_summary_readable(self):
        old = spec_of({"T": "A INT"})
        new = spec_of({"T": "A INT, B INT", "EXTRA": "X INT"})
        summary = diff_specs(old, new).summary()
        assert "EXTRA" in summary and "+B" in summary


class TestTrackerChangeLog:
    def test_poll_records_structural_delta(self):
        db = Database("d", "mysql")
        db.execute("CREATE TABLE T (A INT)")
        tracker = SchemaTracker()
        tracker.watch(db)
        db.execute("ALTER TABLE T ADD COLUMN B DOUBLE")
        tracker.poll()
        assert len(tracker.change_log) == 1
        assert tracker.change_log[0].table_diffs[0].added_columns == ["B"]

    def test_multiple_changes_accumulate(self):
        db = Database("d", "mysql")
        db.execute("CREATE TABLE T (A INT)")
        tracker = SchemaTracker()
        tracker.watch(db)
        db.execute("CREATE TABLE U (X INT)")
        tracker.poll()
        db.execute("DROP TABLE U")
        tracker.poll()
        assert [d.summary() for d in tracker.change_log] == [
            "+1 table(s): U",
            "-1 table(s): U",
        ]
