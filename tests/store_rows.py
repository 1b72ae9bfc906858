"""Raw rows of an :class:`~repro.analysis.store.ArtifactStore`'s disk tier.

The store keeps its disk entries as rows of one SQLite table,
``entries(key, payload)`` in ``<directory>/store.sqlite3``.  The fault,
migration and thread-safety tests list, rewrite and delete those rows the
way a rotting disk or an older version of the package would, through
:func:`rows` and :class:`StoreRow`, each statement on a connection of its
own (the store under test keeps its own).
"""

from __future__ import annotations

import sqlite3
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.store import DATABASE_NAME


def _run(directory, statement: str, *args) -> list:
    path = Path(directory) / DATABASE_NAME
    with closing(sqlite3.connect(str(path), isolation_level=None)) as db:
        return db.execute(statement, args).fetchall()


@dataclass(frozen=True)
class StoreRow:
    """One disk entry, addressed by its key."""

    directory: Path
    key: str

    def exists(self) -> bool:
        return bool(
            _run(self.directory, "SELECT 1 FROM entries WHERE key = ?", self.key)
        )

    def read_bytes(self) -> bytes:
        (row,) = _run(
            self.directory, "SELECT payload FROM entries WHERE key = ?", self.key
        )
        return row[0]

    def write_bytes(self, raw: bytes) -> None:
        _run(
            self.directory,
            "INSERT OR REPLACE INTO entries VALUES (?, ?)",
            self.key,
            raw,
        )

    def unlink(self) -> None:
        _run(self.directory, "DELETE FROM entries WHERE key = ?", self.key)


def rows(directory) -> list[StoreRow]:
    """Every disk entry under *directory*, by key."""
    return [
        StoreRow(Path(directory), key)
        for (key,) in _run(directory, "SELECT key FROM entries ORDER BY key")
    ]


def freeze(directory) -> None:
    """Make every row undeletable and every put fail: triggers that abort
    each ``DELETE`` and ``INSERT`` (``chmod`` would not stop root)."""
    for event in ("DELETE", "INSERT"):
        _run(
            directory,
            f"CREATE TRIGGER frozen_{event.lower()} BEFORE {event} ON entries"
            " BEGIN SELECT RAISE(ABORT, 'frozen'); END",
        )
