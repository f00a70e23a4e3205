"""Conditions data with intervals of validity (IOV).

The paper's "non-event data includes ... a detector's calibration data
and conditions data". Real conditions databases key every value by an
*interval of validity* — the run/time range it applies to — and the
characteristic query is "what was the high-voltage setting at run N?".
This module lays the IOV schema onto any engine database and answers
those lookups with ordinary SQL (BETWEEN on the interval bounds), so
conditions tables federate and materialize like everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ReproError
from repro.engine.database import Database

#: an IOV extending to the end of time
INFINITE_RUN = 2**31 - 1


@dataclass(frozen=True)
class ConditionValue:
    """One stored condition payload with its validity interval."""

    name: str
    value: float
    valid_from: int
    valid_to: int
    version: int


class ConditionsDB:
    """IOV-keyed conditions storage over one engine database."""

    TABLE = "condition_iov"

    def __init__(self, db: Database):
        self.db = db
        if not db.catalog.has_table(self.TABLE):
            db.execute(
                f"CREATE TABLE {self.TABLE} ("
                "iov_id INTEGER PRIMARY KEY, name VARCHAR(48) NOT NULL, "
                "value DOUBLE, valid_from INTEGER NOT NULL, "
                "valid_to INTEGER NOT NULL, version INTEGER NOT NULL)"
            )
        self._next_id = 1 + max(
            (r[0] for r in db.execute(f"SELECT iov_id FROM {self.TABLE}").rows),
            default=0,
        )

    # -- writing -----------------------------------------------------------------

    def store(
        self,
        name: str,
        value: float,
        valid_from: int,
        valid_to: int = INFINITE_RUN,
    ) -> ConditionValue:
        """Store a value for [valid_from, valid_to].

        Overlapping intervals are allowed — the newest *version* wins at
        lookup, which is how real conditions DBs supersede bad uploads
        without deleting history.
        """
        if valid_to < valid_from:
            raise ReproError(
                f"invalid IOV [{valid_from}, {valid_to}] for {name!r}"
            )
        version = 1 + max(
            (
                r[0]
                for r in self.db.execute(
                    f"SELECT version FROM {self.TABLE} WHERE name = ?", (name,)
                ).rows
            ),
            default=0,
        )
        self.db.execute(
            f"INSERT INTO {self.TABLE} VALUES (?, ?, ?, ?, ?, ?)",
            (self._next_id, name, float(value), valid_from, valid_to, version),
        )
        self._next_id += 1
        return ConditionValue(name, float(value), valid_from, valid_to, version)

    # -- lookups -----------------------------------------------------------------------

    def lookup(self, name: str, run: int) -> ConditionValue:
        """The value of ``name`` valid at ``run`` (newest version wins)."""
        rows = self.db.execute(
            f"SELECT name, value, valid_from, valid_to, version FROM {self.TABLE} "
            f"WHERE name = ? AND ? BETWEEN valid_from AND valid_to "
            f"ORDER BY version DESC LIMIT 1",
            (name, run),
        ).rows
        if not rows:
            raise ReproError(f"no condition {name!r} valid at run {run}")
        return ConditionValue(*rows[0])

    def names(self) -> list[str]:
        return [
            r[0]
            for r in self.db.execute(
                f"SELECT DISTINCT name FROM {self.TABLE} ORDER BY name"
            ).rows
        ]

    def snapshot(self, run: int) -> dict[str, float]:
        """Every condition's effective value at ``run``."""
        out: dict[str, float] = {}
        for name in self.names():
            try:
                out[name] = self.lookup(name, run).value
            except ReproError:
                continue
        return out
