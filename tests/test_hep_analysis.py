"""Unit tests for the HEP substrate and the analysis tooling."""

import math

import numpy as np
import pytest

from repro.common import DeterministicRNG, ReproError
from repro.analysis import Histogram1D
from repro.engine import Database
from repro.hep import (
    create_source_schema,
    generate_ntuple,
    populate_source,
    standard_variables,
)


class TestNtupleGeneration:
    def test_shape(self):
        nt = generate_ntuple(DeterministicRNG("t"), 100, 8)
        assert nt.n_events == 100
        assert nt.nvar == 8
        assert nt.data.shape == (100, 8)

    def test_variable_names(self):
        assert standard_variables(4) == ["E", "PX", "PY", "PZ"]
        names = standard_variables(10)
        assert names[8:] == ["V8", "V9"]

    def test_deterministic(self):
        a = generate_ntuple(DeterministicRNG("same"), 50, 6)
        b = generate_ntuple(DeterministicRNG("same"), 50, 6)
        assert np.array_equal(a.data, b.data)

    def test_different_streams_differ(self):
        a = generate_ntuple(DeterministicRNG("one"), 50, 6)
        b = generate_ntuple(DeterministicRNG("two"), 50, 6)
        assert not np.array_equal(a.data, b.data)

    def test_energy_positive(self):
        nt = generate_ntuple(DeterministicRNG("e"), 500, 8)
        assert (nt.column("E") >= 0).all()

    def test_eta_in_range(self):
        nt = generate_ntuple(DeterministicRNG("eta"), 500, 8)
        eta = nt.column("ETA")
        assert eta.min() >= -2.5 and eta.max() < 2.5

    def test_pt_consistent_with_px_py(self):
        nt = generate_ntuple(DeterministicRNG("pt"), 200, 8)
        pt = nt.column("PT")
        expected = np.hypot(nt.column("PX"), nt.column("PY"))
        assert np.allclose(pt, expected)

    def test_rows_are_python_floats(self):
        nt = generate_ntuple(DeterministicRNG("r"), 5, 3)
        row = nt.rows()[0]
        assert all(isinstance(v, float) for v in row)


class TestSourceSchema:
    @pytest.fixture
    def populated(self):
        db = Database("src", "mysql")
        create_source_schema(db)
        rng = DeterministicRNG("pop")
        ntuples = {
            1: generate_ntuple(rng.fork("1"), 10, 4),
            2: generate_ntuple(rng.fork("2"), 20, 4),
        }
        next_id = populate_source(db, rng, ntuples)
        return db, next_id

    def test_events_loaded(self, populated):
        db, _ = populated
        assert db.execute("SELECT COUNT(*) FROM events").rows == [(30,)]

    def test_eav_values_complete(self, populated):
        db, _ = populated
        assert db.execute("SELECT COUNT(*) FROM event_values").rows == [(120,)]

    def test_event_ids_continuous(self, populated):
        db, next_id = populated
        assert next_id == 31
        ids = db.execute("SELECT MIN(event_id), MAX(event_id) FROM events").rows[0]
        assert ids == (1, 30)

    def test_runs_have_detectors(self, populated):
        db, _ = populated
        for (det,) in db.execute("SELECT DISTINCT detector FROM runs").rows:
            assert det in ("TRACKER", "ECAL", "HCAL", "MUON")

    def test_variables_dictionary(self, populated):
        db, _ = populated
        rows = db.execute(
            "SELECT name FROM variables WHERE ntuple_id = 1 ORDER BY var_index"
        ).rows
        assert [r[0] for r in rows] == ["E", "PX", "PY", "PZ"]

    def test_offset_prevents_collisions(self):
        db = Database("src2", "mysql")
        create_source_schema(db)
        rng = DeterministicRNG("o")
        n1 = populate_source(db, rng, {1: generate_ntuple(rng.fork("a"), 5, 2)})
        populate_source(
            db,
            rng,
            {2: generate_ntuple(rng.fork("b"), 5, 2)},
            first_event_id=n1 + 16,  # past the first batch's calibration ids
        )
        assert db.execute("SELECT COUNT(*) FROM events").rows == [(10,)]


class TestHistogram1D:
    def test_fill_and_counts(self):
        h = Histogram1D(4, 0.0, 4.0)
        h.fill([0.5, 1.5, 1.6, 3.9])
        assert list(h.counts) == [1, 2, 0, 1]

    def test_under_overflow(self):
        h = Histogram1D(2, 0.0, 2.0)
        h.fill([-1.0, 0.5, 5.0])
        assert h.underflow == 1
        assert h.overflow == 1
        assert int(h.counts.sum()) == 1
        assert h.entries == 3

    def test_mean_std_from_values_not_bins(self):
        h = Histogram1D(2, 0.0, 10.0)
        h.fill([2.0, 4.0, 6.0])
        assert h.mean == pytest.approx(4.0)
        assert h.std == pytest.approx(math.sqrt(8.0 / 3.0))

    def test_nan_values_skipped(self):
        h = Histogram1D(2, 0.0, 2.0)
        h.fill([float("nan"), 1.0])
        assert h.entries == 1

    def test_scalar_fill(self):
        h = Histogram1D(2, 0.0, 2.0)
        h.fill(1.0)
        assert int(h.counts.sum()) == 1

    def test_bin_index_edges(self):
        h = Histogram1D(10, 0.0, 1.0)
        h.fill([-0.01, 0.0, 0.9999, 1.0])
        assert h.underflow == 1
        assert h.counts[0] == 1
        assert h.counts[9] == 1
        assert h.overflow == 1  # the top edge is exclusive

    def test_mass_conservation(self):
        h = Histogram1D(16, -3.0, 3.0)
        values = DeterministicRNG("m").normal(0, 1, 10_000)
        h.fill(values)
        assert int(h.counts.sum()) + h.underflow + h.overflow == 10_000

    def test_render_contains_stats(self):
        h = Histogram1D(4, 0.0, 4.0, title="demo")
        h.fill([1.0, 2.0])
        text = h.render()
        assert "demo" in text and "entries=2" in text

    def test_bad_construction(self):
        with pytest.raises(ReproError):
            Histogram1D(0, 0, 1)
        with pytest.raises(ReproError):
            Histogram1D(4, 1, 1)

    def test_empty_histogram_stats(self):
        h = Histogram1D(4, 0, 1)
        assert math.isnan(h.mean)
        assert h.entries == 0
        h.render()  # must not crash
