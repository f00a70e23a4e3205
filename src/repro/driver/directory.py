"""Directory of live database instances addressable by connection URL.

The directory plays the role of the network's name service plus the
vendor server processes: registering a binding is the simulated
equivalent of starting a database server on some grid host. Tests and
federations usually build private directories; ``GLOBAL_DIRECTORY`` is
the default for small scripts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import AuthenticationError, ConnectionFailedError, DuplicateObjectError
from repro.engine.database import Database


@dataclass
class DatabaseBinding:
    """One registered database server endpoint."""

    url: str
    database: Database
    user: str = "grid"
    password: str = "grid"
    host_name: str = "localhost"

    def check_credentials(self, user: str, password: str) -> None:
        if user != self.user or password != self.password:
            raise AuthenticationError(
                f"credentials rejected for {self.url!r} (user {user!r})"
            )


class Directory:
    """URL → binding map with exact-match lookup."""

    def __init__(self) -> None:
        self._bindings: dict[str, DatabaseBinding] = {}

    def register(
        self,
        url: str,
        database: Database,
        user: str = "grid",
        password: str = "grid",
        host_name: str = "localhost",
    ) -> DatabaseBinding:
        if url in self._bindings:
            raise DuplicateObjectError(f"URL {url!r} already registered")
        binding = DatabaseBinding(url, database, user, password, host_name)
        self._bindings[url] = binding
        return binding

    def unregister(self, url: str) -> None:
        self._bindings.pop(url, None)

    def lookup(self, url: str) -> DatabaseBinding:
        binding = self._bindings.get(url)
        if binding is None:
            raise ConnectionFailedError(f"no database is serving URL {url!r}")
        return binding

    def urls(self) -> list[str]:
        return sorted(self._bindings)


#: Default directory for scripts and examples.
GLOBAL_DIRECTORY = Directory()
