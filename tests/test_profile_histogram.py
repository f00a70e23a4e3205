"""Tests for the profile histogram and its JAS-plugin integration."""

import math

import numpy as np
import pytest

from repro.analysis import Profile1D
from repro.common import DeterministicRNG, ReproError


class TestProfile1D:
    def test_bin_means(self):
        p = Profile1D(2, 0.0, 2.0)
        p.fill([0.5, 0.5, 1.5], [10.0, 20.0, 7.0])
        assert p.means()[0] == pytest.approx(15.0)
        assert p.means()[1] == pytest.approx(7.0)

    def test_empty_bin_is_nan(self):
        p = Profile1D(2, 0.0, 2.0)
        p.fill([0.5], [1.0])
        assert math.isnan(p.means()[1])

    def test_bin_error_matches_standard_error(self):
        p = Profile1D(1, 0.0, 1.0)
        ys = [1.0, 2.0, 3.0, 4.0]
        p.fill([0.5] * 4, ys)
        expected = np.std(ys) / math.sqrt(len(ys))
        assert p.bin_error(0) == pytest.approx(expected)

    def test_error_needs_two_entries(self):
        p = Profile1D(1, 0.0, 1.0)
        p.fill([0.5], [1.0])
        assert math.isnan(p.bin_error(0))

    def test_out_of_range_counted(self):
        p = Profile1D(2, 0.0, 2.0)
        p.fill([5.0, 0.5], [1.0, 1.0])
        assert p.out_of_range == 1
        assert p.entries == 2

    def test_nan_y_skipped(self):
        p = Profile1D(1, 0.0, 1.0)
        p.fill([0.5, 0.5], [float("nan"), 3.0])
        assert p.counts[0] == 1
        assert p.means()[0] == 3.0

    def test_x_just_below_high_lands_in_the_last_bin(self):
        p = Profile1D(196, -7.312715117751976, 1.1617748178834137)
        p.fill([1.1617748178834135], [2.0])
        assert p.means()[-1] == 2.0
        assert p.out_of_range == 0

    def test_mismatched_fill_raises(self):
        p = Profile1D(1, 0.0, 1.0)
        with pytest.raises(ReproError):
            p.fill([1.0, 2.0], [1.0])

    def test_means_array(self):
        p = Profile1D(3, 0.0, 3.0)
        p.fill([0.5, 1.5], [2.0, 4.0])
        means = p.means()
        assert means[0] == 2.0 and means[1] == 4.0 and math.isnan(means[2])

    def test_render(self):
        p = Profile1D(3, 0.0, 3.0, title="calib")
        p.fill([0.5, 1.5, 1.6], [1.0, 2.0, 3.0])
        text = p.render()
        assert "calib" in text
        assert "(empty)" in text

    def test_render_all_empty(self):
        assert "entries=0" in Profile1D(2, 0, 1).render()

    def test_bad_construction(self):
        with pytest.raises(ReproError):
            Profile1D(0, 0, 1)
        with pytest.raises(ReproError):
            Profile1D(3, 2, 2)

    def test_statistics_match_numpy_per_bin(self):
        rng = DeterministicRNG("prof")
        xs = rng.uniform(0, 10, 2000)
        ys = 2.0 * xs + rng.normal(0, 1, 2000)
        p = Profile1D(10, 0.0, 10.0)
        p.fill(xs, ys)
        for i in range(10):
            mask = (xs >= i) & (xs < i + 1)
            assert p.means()[i] == pytest.approx(float(ys[mask].mean()), rel=1e-9)


class TestProfileViaJAS:
    def test_profile_query_over_grid(self):
        from repro.analysis import JASPlugin
        from repro.core import GridFederation
        from repro.engine import Database

        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        db = Database("m", "mysql")
        db.execute("CREATE TABLE cal (channel INT PRIMARY KEY, gain DOUBLE)")
        for ch in range(32):
            db.execute(f"INSERT INTO cal VALUES ({ch}, {1.0 + ch * 0.01})")
        fed.attach_database(server, db)
        client = fed.client("laptop")
        jas = JASPlugin(fed, client, server)
        profile = jas.profile_query(
            "SELECT channel, gain FROM cal", "channel", "gain", nbins=8
        )
        assert profile.entries == 32
        # gains rise with channel: bin means must be increasing
        means = list(profile.means())
        assert all(b > a for a, b in zip(means, means[1:]))
