"""Unit tests for the virtual clock and network fabric."""

import pytest

from repro.common import ReproError
from repro.net import Network, SimClock, costs
from repro.net.network import LAN, LOOPBACK, WAN, Link


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance_ms(5)
        clock.advance_ms(1000)
        assert clock.now_ms == pytest.approx(1005.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance_ms(-1)

    def test_rewind_only_backwards(self):
        clock = SimClock()
        clock.advance_ms(10)
        clock.rewind_to(5)
        assert clock.now_ms == 5
        with pytest.raises(ValueError):
            clock.rewind_to(50)

    def test_run_parallel_charges_max(self):
        clock = SimClock()
        clock.advance_ms(7)
        durations = [30.0, 80.0, 10.0]

        def branch(d):
            return lambda: clock.advance_ms(d)

        longest = clock.run_parallel([branch(d) for d in durations])
        assert longest == 80.0
        assert clock.now_ms == pytest.approx(87.0)


class TestLink:
    def test_transfer_time_formula(self):
        link = Link(bandwidth_mbps=100.0, latency_ms=0.2)
        # 1250 bytes = 10^4 bits -> 0.1 ms at 100 Mbps, plus latency
        assert link.transfer_ms(1250) == pytest.approx(0.3)

    def test_profiles_ordered(self):
        nbytes = 100_000
        assert LOOPBACK.transfer_ms(nbytes) < LAN.transfer_ms(nbytes) < WAN.transfer_ms(nbytes)


class TestNetwork:
    def test_transfer_charges_clock(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        clock = SimClock()
        ms = net.transfer("a", "b", 1250, clock)
        assert clock.now_ms == pytest.approx(ms)
        assert net.bytes_moved == 1250
        assert net.messages == 1

    def test_same_host_uses_loopback(self):
        net = Network()
        net.add_host("a")
        clock = SimClock()
        ms = net.transfer("a", "a", 1250, clock)
        assert ms < LAN.transfer_ms(1250)

    def test_link_override(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.set_link("a", "b", WAN)
        clock = SimClock()
        ms = net.transfer("a", "b", 1250, clock)
        assert ms == pytest.approx(WAN.transfer_ms(1250))
        # symmetric
        assert net.link_between("b", "a") is WAN

    def test_unknown_host_rejected(self):
        net = Network()
        net.add_host("a")
        with pytest.raises(ReproError):
            net.transfer("a", "ghost", 10, SimClock())

    def test_tiers_recorded(self):
        net = Network()
        net.add_host("cern", tier=0)
        assert net.host("cern").tier == 0


def test_transfer_ms_helper_linear_in_bytes():
    t1 = costs.transfer_ms(1000, 100.0, 0.0)
    t2 = costs.transfer_ms(2000, 100.0, 0.0)
    assert t2 == pytest.approx(2 * t1)
