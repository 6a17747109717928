"""The result store: one SQLite table that keeps every campaign row.

Each evaluated campaign point is one row of the ``entries`` table in
``<cache root>/store.sqlite``: the cache key, the entry kind, the
flattened point axes (cell / node / corner / Vprech / BER / engine /
...), the weights fingerprint, a commit timestamp, every numeric result
leaf flattened to a dotted scalar (``metrics.latency_ns``,
``accuracies.mean``) and the row itself (``row_json``).  A
:class:`~repro.sweep.cache.ResultCache` reads its hits back with
:meth:`ResultStore.get` and writes each evaluated point with
:meth:`ResultStore.put`, one commit per row: a killed campaign keeps
every row it committed, and a reader never sees part of a row.

The query API is deliberately small: :meth:`~ResultStore.filter`
returns :class:`StoreRecord` rows, :meth:`~ResultStore.aggregate` folds
one scalar over grouping axes, :meth:`~ResultStore.to_csv` exports flat
rows.  Deleting ``store.sqlite`` loses only evaluations: the next run
re-evaluates its points.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import pathlib
import sqlite3
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Bump when the table layout changes; a store of another version
#: starts empty, and its points re-evaluate on their next run.
#: v2: the table keeps the row itself (``row_json``).
STORE_SCHEMA_VERSION = 2

#: The store's filename inside a cache directory.
STORE_FILENAME = "store.sqlite"

#: Queryable axis columns, in table order.  ``kind`` discriminates the
#: entry family; the rest are flattened point axes (NULL when a family
#: lacks the axis, e.g. ``bit_error_rate`` on sweep rows).
AXIS_COLUMNS = (
    "kind", "cell_type", "vprech", "node", "corner", "engine",
    "quality", "seed", "sample_images", "bit_error_rate", "trials",
    "trial_start", "fingerprint",
)

_FLOAT_AXES = frozenset({"vprech", "bit_error_rate"})
_INT_AXES = frozenset({"seed", "sample_images", "trials", "trial_start"})

#: Friendly aliases accepted by filters and ``--query`` expressions.
AXIS_ALIASES = {
    "cell": "cell_type",
    "ber": "bit_error_rate",
    "key": "cache_key",
}

_CREATE_TABLE = f"""
CREATE TABLE IF NOT EXISTS entries (
    cache_key TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    cell_type TEXT,
    vprech REAL,
    node TEXT,
    corner TEXT,
    engine TEXT,
    quality TEXT,
    seed INTEGER,
    sample_images INTEGER,
    bit_error_rate REAL,
    trials INTEGER,
    trial_start INTEGER,
    fingerprint TEXT,
    created_s REAL NOT NULL,
    point_json TEXT NOT NULL,
    scalars_json TEXT NOT NULL,
    row_json TEXT NOT NULL
)
"""


def flatten_scalars(payload: dict) -> dict[str, float]:
    """Numeric leaves of a stored row, flattened to dotted keys.

    Schema-agnostic on purpose: the store indexes whatever numeric
    results a row family carries, so a new campaign kind is queryable
    without a store edit.  Dicts nest with ``.``; a list of numbers
    contributes derived ``.mean`` / ``.min`` / ``.max`` scalars (how
    per-trial accuracies become aggregable); booleans and bookkeeping
    keys (``point``, ``kind``, ``fingerprint``, ``cached``) are
    skipped.
    """
    out: dict[str, float] = {}

    def visit(name: str, value) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            out[name] = float(value)
        elif isinstance(value, dict):
            for key, nested in value.items():
                visit(f"{name}.{key}", nested)
        elif isinstance(value, (list, tuple)) and value:
            numbers = [
                v for v in value
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
            if len(numbers) == len(value):
                out[f"{name}.mean"] = float(sum(numbers) / len(numbers))
                out[f"{name}.min"] = float(min(numbers))
                out[f"{name}.max"] = float(max(numbers))

    for key, value in payload.items():
        if key in ("point", "kind", "fingerprint", "cached"):
            continue
        visit(key, value)
    return out


def parse_filter(text: str) -> dict:
    """``"cell=6T,node=3nm"`` → keyword filters for :meth:`filter`.

    An empty string means "no constraints".  Axis aliases (``cell``,
    ``ber``) are accepted; values are coerced to the column's type, and
    a value that does not parse is a :class:`ConfigurationError` naming
    its term.
    """
    filters: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(
                f"bad filter term {part!r}; expected axis=value"
            )
        name, value = part.split("=", 1)
        name = AXIS_ALIASES.get(name.strip(), name.strip())
        value = value.strip()
        try:
            if name in _FLOAT_AXES:
                filters[name] = float(value)
            elif name in _INT_AXES:
                filters[name] = int(value)
            else:
                filters[name] = value
        except ValueError:
            raise ConfigurationError(
                f"bad filter term {part!r}; {value!r} is not a valid {name}"
            ) from None
    return filters


@dataclass(frozen=True)
class StoreRecord:
    """One stored campaign row: axes, scalars and provenance."""

    cache_key: str
    kind: str
    fingerprint: str | None
    created_s: float
    point: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)

    def axis(self, name: str):
        """One point axis by (possibly aliased) name, or ``None``."""
        return self.point.get(AXIS_ALIASES.get(name, name))

    @property
    def label(self) -> str:
        """Compact human-readable axis summary."""
        parts = [str(self.axis("cell") or "?")]
        for name in ("node", "corner", "engine"):
            value = self.axis(name)
            if value is not None:
                parts.append(str(value))
        vprech = self.axis("vprech")
        if vprech is not None:
            parts.append(f"{vprech:g}V")
        ber = self.axis("ber")
        if ber is not None:
            parts.append(f"BER={ber:g}")
        return "/".join(parts)


@dataclass(frozen=True)
class Aggregate:
    """Fold of one scalar over one group of rows."""

    n: int
    mean: float
    min: float
    max: float


def _checked(conn: sqlite3.Connection, path) -> sqlite3.Connection:
    """``conn`` once SQLite has read the whole file without finding
    damage; a damaged file closes it and raises
    :class:`~repro.errors.ConfigurationError`."""
    try:
        damage = [line for (line,) in conn.execute("PRAGMA quick_check")
                  if line != "ok"]
    except sqlite3.OperationalError:
        conn.close()
        raise  # locked or not openable: the file is not damaged
    except sqlite3.DatabaseError as error:
        damage = [str(error)]
    if damage:
        conn.close()
        raise ConfigurationError(
            f"{path} is not a readable result store: {damage[0]}"
        )
    return conn


class ResultStore:
    """The SQLite table of campaign rows; see the module docstring.

    Opening a file that SQLite cannot read (not a database, or a
    damaged one) raises :class:`~repro.errors.ConfigurationError`;
    :meth:`for_cache` moves such a file aside instead.  A store of
    another schema version is emptied: only the cache opens a store
    this way.  Readers use :meth:`for_reading`, which changes nothing.
    """

    def __init__(self, path, *, clock=time.time) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._conn = _checked(sqlite3.connect(str(self.path)), self.path)
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, STORE_SCHEMA_VERSION):
            # No migration: the store starts empty and its points
            # re-evaluate on their next run.
            self._conn.execute("DROP TABLE IF EXISTS entries")
            version = 0
        self._conn.execute(_CREATE_TABLE)
        if version == 0:
            self._conn.execute(
                f"PRAGMA user_version = {STORE_SCHEMA_VERSION}"
            )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_entries_axes "
            "ON entries (kind, cell_type, node, corner)"
        )
        self._conn.commit()

    @classmethod
    def for_cache(cls, root) -> "ResultStore":
        """The store of the cache directory ``root``.

        A file there that SQLite cannot read is moved aside to
        ``store.sqlite.corrupt`` and an empty store takes its place, so
        its points re-evaluate on their next run.
        """
        path = pathlib.Path(root) / STORE_FILENAME
        try:
            return cls(path)
        except ConfigurationError:
            os.replace(path, path.with_name(f"{STORE_FILENAME}.corrupt"))
            return cls(path)

    @classmethod
    def for_reading(cls, path) -> "ResultStore":
        """The existing store at ``path``, opened read-only.

        For the readers (``--query``, ``python -m repro.store query``,
        the dashboard): a missing file, one SQLite cannot read or a
        store of another schema version raises
        :class:`~repro.errors.ConfigurationError`, and the file is left
        byte for byte as it was; nothing is created.
        """
        path = pathlib.Path(path)
        if not path.is_file():
            raise ConfigurationError(f"store file {path} does not exist")
        uri = f"{path.resolve().as_uri()}?mode=ro"
        try:
            conn = _checked(sqlite3.connect(uri, uri=True), path)
        except sqlite3.Error as error:
            if getattr(error, "sqlite_errorname", "") == \
                    "SQLITE_READONLY_ROLLBACK":
                # A writer was killed mid-commit; rolling its journal
                # back is a write, which a reader does not make.
                raise ConfigurationError(
                    f"{path} holds a commit a killed writer left "
                    "unfinished; a cached campaign run into its "
                    "directory rolls it back"
                ) from None
            raise ConfigurationError(
                f"{path} is not a readable result store: {error}"
            ) from None
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version != STORE_SCHEMA_VERSION:
            conn.close()
            raise ConfigurationError(
                f"{path} is a result store of schema version {version}, "
                f"not {STORE_SCHEMA_VERSION}; a cached campaign run into "
                "its directory starts it afresh"
            )
        store = cls.__new__(cls)
        store.path, store._clock, store._conn = path, time.time, conn
        return store

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        with contextlib.suppress(sqlite3.Error):
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM entries"
        ).fetchone()[0]

    def __contains__(self, key: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM entries WHERE cache_key = ?", (key,)
        ).fetchone()
        return row is not None

    # -- rows ------------------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The row kept under ``key``, or ``None``."""
        found = self._conn.execute(
            "SELECT row_json FROM entries WHERE cache_key = ?", (key,)
        ).fetchone()
        return None if found is None else json.loads(found[0])

    def put(self, key: str, row: dict) -> None:
        """Keep ``row`` under ``key`` in one commit (a re-put replaces).

        The row names its ``kind`` and may carry its weights
        ``fingerprint``; both are indexed beside its point's axes.
        """
        point = row.get("point") or {}
        axes = {name: point.get(name) for name in AXIS_COLUMNS}
        axes.update(kind=row["kind"], fingerprint=row.get("fingerprint"))
        columns = ["cache_key", *axes, "created_s", "point_json",
                   "scalars_json", "row_json"]
        values = [key, *axes.values(), float(self._clock()),
                  json.dumps(point, sort_keys=True),
                  json.dumps(flatten_scalars(row), sort_keys=True),
                  json.dumps(row)]
        placeholders = ", ".join("?" for _ in columns)
        self._conn.execute(
            f"INSERT OR REPLACE INTO entries ({', '.join(columns)}) "
            f"VALUES ({placeholders})",
            values,
        )
        self._conn.commit()

    def clear(self) -> int:
        """Delete every row; returns how many were removed."""
        removed = self._conn.execute("DELETE FROM entries").rowcount
        self._conn.commit()
        return removed

    # -- queries ---------------------------------------------------------------------

    def _where(self, filters: dict) -> tuple[str, list]:
        clauses, params = [], []
        for name, value in filters.items():
            name = AXIS_ALIASES.get(name, name)
            if name != "cache_key" and name not in AXIS_COLUMNS:
                raise ConfigurationError(
                    f"unknown store axis {name!r}; queryable: "
                    + ", ".join(("cache_key", *AXIS_COLUMNS))
                )
            if value is None:
                continue
            clauses.append(f"{name} = ?")
            params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return where, params

    def filter(self, **filters) -> list[StoreRecord]:
        """Stored rows matching every given axis, newest-first stable.

        Axes are exact matches (``kind="sweep"``, ``cell_type="6T"``,
        ``node="3nm"``, ``bit_error_rate=1e-3``, ...); aliases
        ``cell``/``ber``/``key`` are accepted.  No filters returns
        everything.
        """
        where, params = self._where(filters)
        rows = self._conn.execute(
            "SELECT cache_key, kind, fingerprint, created_s, point_json, "
            f"scalars_json FROM entries{where} "
            "ORDER BY created_s DESC, cache_key",
            params,
        ).fetchall()
        return [
            StoreRecord(
                cache_key=key, kind=kind, fingerprint=fingerprint,
                created_s=created_s, point=json.loads(point_json),
                scalars=json.loads(scalars_json),
            )
            for key, kind, fingerprint, created_s, point_json, scalars_json
            in rows
        ]

    def aggregate(self, scalar: str, *, by=("cell_type",),
                  **filters) -> dict[tuple, Aggregate]:
        """Fold one dotted scalar over grouping axes.

        Returns ``{group values tuple: Aggregate}`` for every group
        (ordered by group) whose rows carry the scalar; rows without it
        are skipped, so mixed-kind stores aggregate cleanly.
        """
        by = tuple(AXIS_ALIASES.get(name, name) for name in by)
        groups: dict[tuple, list[float]] = {}
        for record in self.filter(**filters):
            value = record.scalars.get(scalar)
            if value is None:
                continue
            group = tuple(record.axis(name) for name in by)
            groups.setdefault(group, []).append(value)
        return {
            group: Aggregate(
                n=len(values), mean=sum(values) / len(values),
                min=min(values), max=max(values),
            )
            for group, values in sorted(
                groups.items(), key=lambda item: tuple(map(str, item[0]))
            )
        }

    def to_csv(self, path, **filters) -> pathlib.Path:
        """Flat CSV export of matching rows: axes + union of scalars."""
        records = self.filter(**filters)
        scalar_names = sorted({
            name for record in records for name in record.scalars
        })
        out = pathlib.Path(path)
        with out.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["cache_key", "created_s", *AXIS_COLUMNS, *scalar_names]
            )
            for record in records:
                axes = [
                    record.kind if name == "kind"
                    else record.fingerprint if name == "fingerprint"
                    else record.point.get(name)
                    for name in AXIS_COLUMNS
                ]
                writer.writerow(
                    [record.cache_key, record.created_s, *axes]
                    + [record.scalars.get(name) for name in scalar_names]
                )
        return out

    def summary(self, *, recent: int = 12) -> dict:
        """Roll-up for dashboards: totals per kind plus recent entries."""
        records = self.filter()
        by_kind: dict[str, dict] = {}
        for record in records:
            bucket = by_kind.setdefault(record.kind, {
                "entries": 0, "cells": set(), "nodes": set(),
                "corners": set(), "newest_s": record.created_s,
            })
            bucket["entries"] += 1
            for attr, name in (("cells", "cell_type"), ("nodes", "node"),
                               ("corners", "corner")):
                value = record.point.get(name)
                if value is not None:
                    bucket[attr].add(value)
            bucket["newest_s"] = max(bucket["newest_s"], record.created_s)
        return {
            "total": len(records),
            "kinds": {
                kind: {
                    "entries": bucket["entries"],
                    "cells": sorted(bucket["cells"]),
                    "nodes": sorted(bucket["nodes"]),
                    "corners": sorted(bucket["corners"]),
                    "newest_s": bucket["newest_s"],
                }
                for kind, bucket in sorted(by_kind.items())
            },
            "recent": [
                {
                    "kind": record.kind,
                    "label": record.label,
                    "created_s": record.created_s,
                    "scalars": len(record.scalars),
                }
                for record in records[:recent]
            ],
        }

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r}, entries={len(self)})"


def render_records(records: list[StoreRecord], *,
                   scalars: list[str] | None = None) -> str:
    """Plain-text table of store records (the ``--query`` output).

    ``scalars`` picks the value columns; by default the three scalar
    names most common across the records are shown.
    """
    if not records:
        return "store: no matching rows"
    if scalars is None:
        counts: dict[str, int] = {}
        for record in records:
            for name in record.scalars:
                counts[name] = counts.get(name, 0) + 1
        scalars = [
            name for name, _ in sorted(
                counts.items(), key=lambda item: (-item[1], item[0])
            )[:3]
        ]
    headers = ["kind", "cell", "vprech", "node", "corner", "engine",
               "ber", "images", *scalars]
    rows = []
    for record in records:
        axes = [
            record.kind,
            record.axis("cell"), record.axis("vprech"), record.axis("node"),
            record.axis("corner"), record.axis("engine"), record.axis("ber"),
            record.axis("sample_images"),
        ]
        values = [record.scalars.get(name) for name in scalars]
        rows.append([
            "-" if value is None
            else f"{value:.6g}" if isinstance(value, float)
            else str(value)
            for value in axes + values
        ])
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(widths[i])
                  for i, header in enumerate(headers)).rstrip(),
        "  ".join("-" * width for width in widths),
    ]
    lines.extend(
        "  ".join(cell.ljust(widths[i])
                  for i, cell in enumerate(row)).rstrip()
        for row in rows
    )
    lines.append(f"{len(records)} row{'s' if len(records) != 1 else ''}")
    return "\n".join(lines)
