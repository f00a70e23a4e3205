"""The Clarens service container.

A server lives on one network host, hosts named services (each a bundle
of methods), authenticates clients into sessions, and dispatches
``service.method`` invocations. Dispatch charges the container's fixed
envelope-parse cost plus per-row response-encoding cost to the shared
virtual clock; the method body charges whatever the underlying layers
(drivers, engines, RLS) cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import AuthenticationError, ClarensFault
from repro.net import costs
from repro.net.network import Network
from repro.net.simclock import SimClock


def result_row_count(result) -> int:
    """Rows inside a method result: a bare list, or a struct's 'rows'
    array (a list or a tuple: the encoder writes both as one array)."""
    if isinstance(result, list):
        return len(result)
    if isinstance(result, dict):
        rows = result.get("rows")
        if isinstance(rows, (list, tuple)):
            return len(rows)
    return 0


class ClarensService:
    """Base class for services hosted in a Clarens server.

    Subclasses set :attr:`service_name` and list remotely callable
    method names in :attr:`exposed` — everything else stays private to
    the server process (a service object usually also has local
    administration methods that must not be web-callable).
    """

    service_name = "service"
    exposed: tuple[str, ...] = ()

    def methods(self) -> dict[str, Callable]:
        """The remotely callable methods, keyed by name."""
        return {name: getattr(self, name) for name in self.exposed}


@dataclass
class MethodStats:
    """Per-method invocation counters (exposed for the benchmarks)."""

    calls: int = 0
    rows_returned: int = 0
    busy_ms: float = 0.0


@dataclass
class _Account:
    user: str
    password: str
    groups: frozenset = frozenset({"users"})


class ClarensServer:
    """One JClarens instance on one grid host."""

    def __init__(
        self,
        name: str,
        host: str,
        network: Network,
        clock: SimClock,
    ):
        self.name = name
        self.host = host
        self.network = network
        self.clock = clock
        self._services: dict[str, ClarensService] = {}
        self._accounts: dict[str, _Account] = {
            "grid": _Account("grid", "grid", frozenset({"users", "admin"}))
        }
        self._sessions: dict[str, str] = {}  # session id -> user
        # per server: session ids (and so request bytes and sim ms) must
        # not depend on how many federations this process built before
        self._session_counter = itertools.count(1)
        #: method full-name -> groups allowed to call it (absent = everyone)
        self._acl: dict[str, frozenset] = {}
        self.method_stats: dict[str, MethodStats] = {}

    def __repr__(self) -> str:
        return f"ClarensServer(name={self.name!r}, host={self.host!r})"

    # -- administration ------------------------------------------------------------

    def add_account(
        self, user: str, password: str, groups: tuple[str, ...] = ("users",)
    ) -> None:
        """Register a user with a password and group memberships."""
        self._accounts[user] = _Account(user, password, frozenset(groups))

    def set_acl(self, method: str, groups: tuple[str, ...]) -> None:
        """Restrict ``service.method`` to sessions whose user is in one
        of ``groups`` (Clarens-style method-level access control)."""
        self._acl[method] = frozenset(groups)

    def _check_acl(self, session_id: str | None, method: str) -> None:
        allowed = self._acl.get(method)
        if allowed is None:
            return
        user = self._sessions.get(session_id or "")
        account = self._accounts.get(user or "")
        groups = account.groups if account else frozenset()
        if not (groups & allowed):
            raise AuthenticationError(
                f"user {user!r} is not permitted to call {method!r}"
            )

    def register_service(self, service: ClarensService) -> None:
        """Host a service; its exposed methods become callable."""
        self._services[service.service_name] = service
        service.server = self  # back-reference for services that call out

    def service(self, name: str) -> ClarensService:
        """A hosted service by name; faults when absent."""
        svc = self._services.get(name)
        if svc is None:
            raise ClarensFault(name, f"no service {name!r} on server {self.name!r}")
        return svc

    # -- authentication ---------------------------------------------------------------

    def authenticate(self, user: str, password: str) -> str:
        """Create a session; the paper's Clarens uses certificate sessions."""
        account = self._accounts.get(user)
        if account is None or account.password != password:
            raise AuthenticationError(
                f"server {self.name!r} rejected credentials for user {user!r}"
            )
        self.clock.advance_ms(costs.CLARENS_SESSION_MS)
        session_id = f"{self.name}-session-{next(self._session_counter)}"
        self._sessions[session_id] = user
        return session_id

    def check_session(self, session_id: str | None) -> None:
        """Raise unless the session is live."""
        if session_id is None or session_id not in self._sessions:
            raise AuthenticationError(
                f"server {self.name!r}: missing or expired session"
            )

    # -- dispatch ---------------------------------------------------------------------

    # -- introspection (classic XML-RPC 'system' namespace) -----------------------------

    def list_methods(self) -> list[str]:
        """Every callable ``service.method`` on this server."""
        out = ["system.listMethods", "system.methodHelp"]
        for service_name, service in self._services.items():
            out.extend(f"{service_name}.{m}" for m in service.methods())
        return sorted(out)

    def method_help(self, method: str) -> str:
        """The docstring of a method, as ``system.methodHelp`` returns it."""
        if method in ("system.listMethods", "system.methodHelp"):
            return "Clarens introspection method."
        if "." not in method:
            raise ClarensFault(method, "method must be 'service.method'")
        service_name, method_name = method.split(".", 1)
        fn = self.service(service_name).methods().get(method_name)
        if fn is None:
            raise ClarensFault(method, f"no such method {method!r}")
        return (fn.__doc__ or "").strip()

    # -- dispatch ---------------------------------------------------------------------

    def dispatch(self, session_id: str | None, method: str, args: list):
        """Execute ``service.method(*args)`` with container accounting."""
        self.check_session(session_id)
        self._check_acl(session_id, method)
        self.clock.advance_ms(costs.CLARENS_DISPATCH_MS)
        if method == "system.listMethods":
            return self.list_methods()
        if method == "system.methodHelp":
            return self.method_help(args[0] if args else "")
        if "." not in method:
            raise ClarensFault(method, "method must be 'service.method'")
        service_name, method_name = method.split(".", 1)
        service = self.service(service_name)
        fn = service.methods().get(method_name)
        if fn is None:
            raise ClarensFault(
                method, f"service {service_name!r} has no method {method_name!r}"
            )
        start = self.clock.now_ms
        result = fn(*args)
        stats = self.method_stats.setdefault(method, MethodStats())
        stats.calls += 1
        stats.busy_ms += self.clock.now_ms - start
        nrows = result_row_count(result)
        if nrows:
            stats.rows_returned += nrows
            # Encoding the response rows into the XML envelope is a real,
            # per-row server cost (Figure 6's slope).
            self.clock.advance_ms(nrows * costs.XMLRPC_ENCODE_ROW_MS)
        return result
