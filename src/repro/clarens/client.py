"""Clarens client proxy.

A client lives on a network host, connects to servers (session
establishment: two small messages plus the server's challenge work) and
invokes methods. Every call encodes the request, pays the wire both
ways, and pays per-row decode cost on list results — the client half of
Figure 6's slope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clarens.codec import payload_bytes
from repro.clarens.server import ClarensServer, result_row_count
from repro.common.errors import AuthenticationError
from repro.net import costs
from repro.net.network import Network
from repro.net.simclock import SimClock


@dataclass
class ClarensSession:
    """An authenticated session with one server."""

    server: ClarensServer
    session_id: str
    user: str
    #: kept so a reconnect with different credentials re-authenticates
    #: instead of silently reusing the cached session
    password: str = ""


class ClarensClient:
    """A lightweight web-service client on one grid host."""

    def __init__(
        self,
        host: str,
        network: Network,
        clock: SimClock,
        user: str = "grid",
        password: str = "grid",
    ):
        self.host = host
        self.network = network
        self.clock = clock
        self.user = user
        self.password = password
        self._sessions: dict[str, ClarensSession] = {}
        self.calls_made = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- sessions ----------------------------------------------------------------

    def connect(
        self,
        server: ClarensServer,
        user: str | None = None,
        password: str | None = None,
    ) -> ClarensSession:
        """Authenticate with ``server``; sessions are cached per server.

        Identity defaults to the client's own ``user``/``password``.
        """
        user = self.user if user is None else user
        password = self.password if password is None else password
        cached = self._sessions.get(server.name)
        # a cached session only matches when BOTH credentials match —
        # reconnecting with a wrong password must hit the server and be
        # rejected, not silently ride the old authenticated session
        if cached is not None and cached.user == user and cached.password == password:
            return cached
        request = payload_bytes("auth", [user, "***"])
        self.network.transfer(self.host, server.host, request, self.clock)
        session_id = server.authenticate(user, password)
        self.network.transfer(
            server.host, self.host, payload_bytes("auth", session_id), self.clock
        )
        session = ClarensSession(server, session_id, user, password)
        self._sessions[server.name] = session
        return session

    @staticmethod
    def _session_alive(server: ClarensServer, session: ClarensSession) -> bool:
        """Is our cached session still live on the server?"""
        try:
            server.check_session(session.session_id)
        except AuthenticationError:
            return False
        return True

    # -- calls --------------------------------------------------------------------

    def call(self, server: ClarensServer, method: str, *args):
        """Invoke ``service.method`` on ``server``, paying the full wire cost."""
        session = self.connect(server)
        request = payload_bytes(method, list(args))
        self.bytes_sent += request
        self.network.transfer(self.host, server.host, request, self.clock)
        try:
            result = server.dispatch(session.session_id, method, list(args))
        except AuthenticationError:
            if self._session_alive(server, session):
                raise  # a real ACL/credential fault, not a stale session
            # the server restarted (or expired us): drop the dead session,
            # re-authenticate once and replay the request
            self._sessions.pop(server.name, None)
            session = self.connect(server)
            self.bytes_sent += request
            self.network.transfer(self.host, server.host, request, self.clock)
            result = server.dispatch(session.session_id, method, list(args))
        response = payload_bytes(method, result) + costs.XMLRPC_ENVELOPE_BYTES
        self.bytes_received += response
        self.network.transfer(server.host, self.host, response, self.clock)
        nrows = result_row_count(result)
        if nrows:
            self.clock.advance_ms(nrows * costs.XMLRPC_DECODE_ROW_MS)
        self.calls_made += 1
        return result
