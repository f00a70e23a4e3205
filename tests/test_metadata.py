"""Unit tests for XSpec documents, the data dictionary and the tracker."""

import pytest

from repro.common import TableNotRegisteredError, TypeKind
from repro.common.errors import XSpecError
from repro.common.types import SQLType
from repro.engine import Database
from repro.metadata import (
    DataDictionary,
    LowerXSpec,
    SchemaTracker,
    UpperXSpec,
    UpperXSpecEntry,
    generate_lower_xspec,
)
from repro.metadata.xspec import XSpecColumn, XSpecRelationship, XSpecTable


@pytest.fixture
def source_db():
    db = Database("tier2_mysql", "mysql")
    db.execute(
        "CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, RUN_ID INT NOT NULL, E DOUBLE)"
    )
    db.execute("CREATE TABLE RUNS (RUN_ID INT PRIMARY KEY, DET VARCHAR(16))")
    db.execute("INSERT INTO RUNS VALUES (1, 'cms')")
    db.execute("INSERT INTO EVT VALUES (1, 1, 3.5)")
    return db


def _naive_relationships(db):
    """Relationship detection as a plain triple loop over child tables,
    their columns and every primary-key table: the reference order."""
    pk_by_table = {}
    for name in db.catalog.table_names():
        pks = [c.name for c in db.catalog.get_table(name).columns if c.primary_key]
        if len(pks) == 1:
            pk_by_table[name.lower()] = pks[0]
    out = []
    for child_name in db.catalog.table_names():
        child = db.catalog.get_table(child_name)
        for col in child.columns:
            for parent_lower, pk in pk_by_table.items():
                if parent_lower != child_name.lower() and not col.primary_key and (
                    col.name.lower() == pk.lower()
                ):
                    parent = db.catalog.get_table(parent_lower)
                    out.append(XSpecRelationship(child.name, col.name, parent.name, pk))
    return out


class TestGenerator:
    def test_tables_and_columns_captured(self, source_db):
        spec = generate_lower_xspec(source_db)
        assert spec.database_name == "tier2_mysql"
        assert spec.vendor == "mysql"
        table = spec.table_by_logical("evt")
        assert [c.name for c in table.columns] == ["EVENT_ID", "RUN_ID", "E"]
        assert table.columns[0].primary_key
        assert table.columns[1].not_null

    def test_logical_name_overrides(self, source_db):
        spec = generate_lower_xspec(source_db, logical_names={"EVT": "events"})
        assert spec.table_by_logical("events").name == "EVT"
        assert spec.table_by_logical("evt") is None

    def test_vendor_type_names_used(self, source_db):
        spec = generate_lower_xspec(source_db)
        col = spec.table_by_logical("evt").columns[2]
        assert col.vendor_type == "DOUBLE"
        assert col.logical_type.kind is TypeKind.DOUBLE

    def test_row_counts_recorded(self, source_db):
        spec = generate_lower_xspec(source_db)
        assert spec.table_by_logical("evt").row_count == 1

    def test_views_included_by_default(self, source_db):
        source_db.execute("CREATE VIEW hot AS SELECT event_id FROM EVT WHERE e > 1")
        spec = generate_lower_xspec(source_db)
        assert spec.table_by_logical("hot") is not None

    def test_fk_relationship_detected_by_convention(self, source_db):
        spec = generate_lower_xspec(source_db)
        rels = [(r.table, r.column, r.ref_table) for r in spec.relationships]
        assert ("EVT", "RUN_ID", "RUNS") in rels

    def test_relationships_keep_catalog_and_primary_key_order(self):
        db = Database("rels", "mysql")
        db.execute("CREATE TABLE RUNS (Run_Id INT PRIMARY KEY, DET VARCHAR(8))")
        db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, run_id INT, E DOUBLE)")
        db.execute("CREATE TABLE runs_old (RUN_ID INT PRIMARY KEY, NOTE TEXT)")
        db.execute("CREATE TABLE HITS (HIT_ID INT PRIMARY KEY, RUN_ID INT, EVENT_ID INT)")
        spec = generate_lower_xspec(db)
        assert spec.relationships == tuple(_naive_relationships(db))
        assert [(r.table, r.column, r.ref_table, r.ref_column) for r in spec.relationships] == [
            ("EVT", "run_id", "RUNS", "Run_Id"),
            ("EVT", "run_id", "runs_old", "RUN_ID"),
            ("HITS", "RUN_ID", "RUNS", "Run_Id"),
            ("HITS", "RUN_ID", "runs_old", "RUN_ID"),
            ("HITS", "EVENT_ID", "EVT", "EVENT_ID"),
        ]

    def test_paper_testbed_relationships_and_fingerprints_unchanged(self):
        from repro.hep.schema import create_source_schema
        from repro.hep.testbed import build_paper_testbed

        directory = build_paper_testbed().federation.directory
        databases = [directory.lookup(url).database for url in directory.urls()]
        source = Database("hep_source", "mysql")
        create_source_schema(source)
        for db in databases + [source]:
            spec = generate_lower_xspec(db)
            assert list(spec.relationships) == _naive_relationships(db)
        assert len(generate_lower_xspec(source).relationships) > 0
        # the six watched specs of the paper testbed, as generated before
        # relationship detection indexed the primary keys
        assert {db.name: generate_lower_xspec(db).fingerprint()[1] for db in databases} == {
            "extra_db_a": "be49a121b7c4306c68a547b1b7094ea1",
            "ntuple_db_a": "4feba6e9ddaee20b05f51a7cdb88eb97",
            "ntuple_db_b": "3a331ecf3b00d93a21d6eaa8bc77e989",
            "runmeta_db_a": "5033db15ec046d323c9a0d3c6fb91c4a",
            "extra_db_b": "613cc38db184cbc1869e192f63cdf45f",
            "runmeta_db_b": "d6077a94d06c2c98aafebb00590bcb85",
        }


class TestXSpecXML:
    def test_round_trip(self, source_db):
        spec = generate_lower_xspec(source_db, logical_names={"EVT": "events"})
        text = spec.to_xml()
        back = LowerXSpec.from_xml(text)
        assert back == spec

    def test_canonical_output_is_stable(self, source_db):
        spec = generate_lower_xspec(source_db)
        assert spec.to_xml() == generate_lower_xspec(source_db).to_xml()

    def test_fingerprint_ignores_row_counts(self, source_db):
        before = generate_lower_xspec(source_db).fingerprint()
        source_db.execute("INSERT INTO EVT VALUES (2, 1, 9.1)")
        after = generate_lower_xspec(source_db).fingerprint()
        assert before == after

    def test_fingerprint_sees_schema_change(self, source_db):
        before = generate_lower_xspec(source_db).fingerprint()
        source_db.execute("ALTER TABLE EVT ADD COLUMN px DOUBLE")
        after = generate_lower_xspec(source_db).fingerprint()
        assert before != after

    def test_malformed_xml_raises(self):
        with pytest.raises(XSpecError):
            LowerXSpec.from_xml("<xspec database='x' vendor='y'><bogus/></xspec>")
        with pytest.raises(XSpecError):
            LowerXSpec.from_xml("not xml at all")
        with pytest.raises(XSpecError):
            LowerXSpec.from_xml("<wrongroot/>")

    def test_table_without_columns_rejected(self):
        with pytest.raises(XSpecError):
            LowerXSpec.from_xml(
                "<xspec database='d' vendor='mysql'><table name='t' logical='t'/></xspec>"
            )

    def test_single_table_spec_slice(self, source_db):
        spec = generate_lower_xspec(source_db)
        one = spec.single_table_spec("evt")
        assert len(one.tables) == 1
        with pytest.raises(XSpecError):
            spec.single_table_spec("zzz")


def test_column_by_logical_ignores_case_and_takes_the_first_of_a_name():
    def column(name, logical):
        return XSpecColumn(name, logical, "INTEGER", SQLType.integer())

    table = XSpecTable("EVT", "evt", (
        column("RUN_NO", "Run"), column("E1", "energy"), column("E2", "ENERGY"),
    ))
    assert table.column_by_logical("run").name == "RUN_NO"
    assert table.column_by_logical("RUN").name == "RUN_NO"
    assert table.column_by_logical("Energy").name == "E1"
    assert table.column_by_logical("e1") is None
    assert table.logical_by_physical == {"run_no": "Run", "e1": "energy", "e2": "ENERGY"}


class TestUpperXSpec:
    def make(self):
        return UpperXSpec(
            (
                UpperXSpecEntry("mart1", "jdbc:mysql://h:3306/m1", "mysql", "m1.xspec"),
                UpperXSpecEntry("mart2", "jdbc:sqlite:/h/m2.db", "sqlite", "m2.xspec"),
            )
        )

    def test_round_trip(self):
        upper = self.make()
        assert UpperXSpec.from_xml(upper.to_xml()) == UpperXSpec(
            tuple(sorted(upper.entries, key=lambda e: e.name))
        )

    def test_entry_lookup(self):
        assert self.make().entry("MART1").driver == "mysql"
        assert self.make().entry("nope") is None

    def test_missing_attribute_rejected(self):
        with pytest.raises(XSpecError):
            UpperXSpec.from_xml("<upperxspec><database name='x'/></upperxspec>")


class TestDataDictionary:
    @pytest.fixture
    def dictionary(self, source_db):
        spec = generate_lower_xspec(source_db, logical_names={"EVT": "events"})
        d = DataDictionary()
        d.add_database(spec, "jdbc:mysql://h:3306/tier2_mysql")
        return d

    def test_locate_by_logical_name(self, dictionary):
        loc = dictionary.locate("events")
        assert loc.physical_name == "EVT"
        assert loc.vendor == "mysql"

    def test_physical_column_mapping(self, dictionary):
        loc = dictionary.locate("events")
        assert loc.physical_column("event_id") == "EVENT_ID"
        with pytest.raises(XSpecError):
            loc.physical_column("ghost")

    def test_unregistered_table_raises(self, dictionary):
        with pytest.raises(TableNotRegisteredError):
            dictionary.locate("nothing")

    def test_replicas_accumulate(self, dictionary, source_db):
        spec2 = generate_lower_xspec(source_db, logical_names={"EVT": "events"})
        spec2 = LowerXSpec(
            database_name="replica",
            vendor=spec2.vendor,
            tables=spec2.tables,
            relationships=spec2.relationships,
        )
        dictionary.add_database(spec2, "jdbc:mysql://h2:3306/replica")
        assert len(dictionary.locations("events")) == 2

    def test_remove_database(self, dictionary):
        dictionary.remove_database("tier2_mysql")
        assert not dictionary.has_table("events")
        assert dictionary.databases() == []

    def test_build_from_upper(self, source_db):
        spec = generate_lower_xspec(source_db)
        upper = UpperXSpec(
            (
                UpperXSpecEntry(
                    "tier2_mysql", "jdbc:mysql://h:3306/t2", "mysql", "t2.xspec"
                ),
            )
        )
        d = DataDictionary.build(upper, {"t2.xspec": spec})
        assert d.has_table("evt")

    def test_build_missing_lower_raises(self):
        upper = UpperXSpec(
            (UpperXSpecEntry("x", "jdbc:mysql://h:3306/x", "mysql", "x.xspec"),)
        )
        with pytest.raises(XSpecError):
            DataDictionary.build(upper, {})


class TestSchemaTracker:
    def test_no_change_no_notification(self, source_db):
        tracker = SchemaTracker()
        tracker.watch(source_db)
        events = []
        tracker.subscribe(lambda name, spec: events.append(name))
        assert tracker.poll() == []
        assert events == []

    def test_data_growth_is_not_a_schema_change(self, source_db):
        tracker = SchemaTracker()
        tracker.watch(source_db)
        source_db.execute("INSERT INTO EVT VALUES (5, 1, 2.2)")
        assert tracker.poll() == []

    def test_add_column_detected(self, source_db):
        tracker = SchemaTracker()
        tracker.watch(source_db)
        events = []
        tracker.subscribe(lambda name, spec: events.append((name, spec)))
        source_db.execute("ALTER TABLE EVT ADD COLUMN eta DOUBLE")
        assert tracker.poll() == ["tier2_mysql"]
        assert events[0][0] == "tier2_mysql"
        new_spec = events[0][1]
        assert new_spec.table_by_logical("evt").column_by_logical("eta") is not None

    def test_new_table_detected(self, source_db):
        tracker = SchemaTracker()
        tracker.watch(source_db)
        source_db.execute("CREATE TABLE extra (x INT)")
        assert tracker.poll() == ["tier2_mysql"]

    def test_change_reported_once(self, source_db):
        tracker = SchemaTracker()
        tracker.watch(source_db)
        source_db.execute("CREATE TABLE extra (x INT)")
        assert tracker.poll() == ["tier2_mysql"]
        assert tracker.poll() == []
        assert tracker.changes_detected == 1

    def test_logical_names_survive_refresh(self, source_db):
        tracker = SchemaTracker()
        tracker.watch(source_db, logical_names={"EVT": "events"})
        source_db.execute("CREATE TABLE extra (x INT)")
        tracker.poll()
        assert tracker.current_spec("tier2_mysql").table_by_logical("events") is not None
