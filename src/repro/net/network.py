"""Hosts, links and the network fabric.

A :class:`Network` owns a set of named hosts (with their LHC tier
numbers) and pairwise links. ``transfer()`` charges the wire time of a
message to the supplied clock and returns it, so callers can also
account it per-phase. Unspecified pairs use the testbed LAN; same-host
transfers use the loopback profile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ReproError
from repro.net import costs
from repro.net.simclock import SimClock


@dataclass(frozen=True)
class Link:
    """A symmetric network link."""

    bandwidth_mbps: float = costs.LAN_BANDWIDTH_MBPS
    latency_ms: float = costs.LAN_LATENCY_MS

    def transfer_ms(self, nbytes: int) -> float:
        """Wire time for ``nbytes`` over this link."""
        return costs.transfer_ms(nbytes, self.bandwidth_mbps, self.latency_ms)


LAN = Link()
LOOPBACK = Link(costs.LOCAL_BANDWIDTH_MBPS, costs.LOCAL_LATENCY_MS)
WAN = Link(costs.WAN_BANDWIDTH_MBPS, costs.WAN_LATENCY_MS)


@dataclass(frozen=True)
class Host:
    """A named machine in the grid topology."""

    name: str
    tier: int = 2


class Network:
    """The fabric: hosts plus (optionally) per-pair link overrides."""

    def __init__(self):
        self._hosts: dict[str, Host] = {}
        self._links: dict[frozenset[str], Link] = {}
        self._failed_links: set[frozenset[str]] = set()
        self._failed_hosts: set[str] = set()
        self.bytes_moved = 0
        self.messages = 0
        #: transfers that died waiting out a partition timeout
        self.partition_timeouts = 0
        #: observers called as fn(src, dst, nbytes, ms) after a transfer
        self._observers: list = []
        #: observers called as fn(src, dst, nbytes, ms) when a transfer
        #: fails on a partition/dead host (ms is the timeout paid)
        self._failure_observers: list = []

    # -- observers --------------------------------------------------------------

    def add_observer(self, fn) -> None:
        """Subscribe ``fn(src, dst, nbytes, ms)`` to successful transfers."""
        if fn not in self._observers:
            self._observers.append(fn)

    def add_failure_observer(self, fn) -> None:
        """Subscribe ``fn(src, dst, nbytes, ms)`` to failed transfers."""
        if fn not in self._failure_observers:
            self._failure_observers.append(fn)

    # -- topology -------------------------------------------------------------

    def add_host(self, name: str, tier: int = 2) -> Host:
        """Register a machine at the given LHC tier."""
        host = Host(name, tier)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """The named host; raises on unknown names."""
        host = self._hosts.get(name)
        if host is None:
            raise ReproError(f"unknown host {name!r}")
        return host

    def has_host(self, name: str) -> bool:
        """True when the host is registered."""
        return name in self._hosts

    def hosts(self) -> list[Host]:
        """Every registered host, sorted by name."""
        return sorted(self._hosts.values(), key=lambda h: h.name)

    def set_link(self, a: str, b: str, link: Link) -> None:
        """Override the link profile between two hosts (symmetric)."""
        self.host(a), self.host(b)  # validate
        self._links[frozenset((a, b))] = link

    def link_between(self, a: str, b: str) -> Link:
        """Effective link between two hosts (loopback when equal)."""
        if a == b:
            return LOOPBACK
        return self._links.get(frozenset((a, b)), LAN)

    # -- failure injection --------------------------------------------------------

    def fail_link(self, a: str, b: str) -> None:
        """Cut the link between two hosts (network partition injection)."""
        self.host(a), self.host(b)
        self._failed_links.add(frozenset((a, b)))

    def restore_link(self, a: str, b: str) -> None:
        """Undo a fail_link."""
        self._failed_links.discard(frozenset((a, b)))

    def fail_host(self, name: str) -> None:
        """Take a host off the network entirely."""
        self.host(name)
        self._failed_hosts.add(name)

    def restore_host(self, name: str) -> None:
        """Bring a failed host back onto the network."""
        self._failed_hosts.discard(name)

    def is_reachable(self, src: str, dst: str) -> bool:
        """False when a failed host or cut link separates the pair."""
        if src in self._failed_hosts or dst in self._failed_hosts:
            return False
        return src == dst or frozenset((src, dst)) not in self._failed_links

    # -- traffic ---------------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: int, clock: SimClock) -> float:
        """Move ``nbytes`` from ``src`` to ``dst``, charging ``clock``.

        A cut link or failed host surfaces as a connection failure after
        a timeout-priced delay — the caller sees what a real socket
        would show."""
        if not self.has_host(src) or not self.has_host(dst):
            raise ReproError(f"transfer between unknown hosts {src!r} -> {dst!r}")
        if not self.is_reachable(src, dst):
            from repro.common.errors import ConnectionFailedError

            clock.advance_ms(costs.PARTITION_TIMEOUT_MS)
            # a failed transfer is an event too: count it and tell the
            # failure observers, or dataaccess.metrics never sees it
            self.partition_timeouts += 1
            for fn in self._failure_observers:
                fn(src, dst, nbytes, costs.PARTITION_TIMEOUT_MS)
            raise ConnectionFailedError(
                f"network partition: {src!r} cannot reach {dst!r}"
            )
        ms = self.link_between(src, dst).transfer_ms(nbytes)
        clock.advance_ms(ms)
        self.bytes_moved += nbytes
        self.messages += 1
        for fn in self._observers:
            fn(src, dst, nbytes, ms)
        return ms
