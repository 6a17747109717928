"""Queryable result store over the content-addressed campaign cache.

:class:`ResultStore` (:mod:`repro.store.index`) is a SQLite index
beside the cache — one row per entry with flattened point axes,
fingerprint, timestamps and dotted numeric scalars — filled
incrementally on every ``cache.put`` and by an idempotent backfill
scanner, queried with ``filter``/``aggregate``/``to_csv``.  Past
sweeps and reliability campaigns are answerable with zero
re-evaluation: ``python -m repro.sweep --query "cell=6T"``.  The
campaign CLIs' shared base class lives in :mod:`repro.store.cli`.

See ``docs/sweep.md`` ("The result store: querying past campaigns") for the guide.
"""

from repro.store.index import (
    Aggregate,
    AXIS_COLUMNS,
    ResultStore,
    STORE_FILENAME,
    StoreRecord,
    flatten_scalars,
    parse_filter,
    render_records,
)

__all__ = [
    "Aggregate",
    "AXIS_COLUMNS",
    "ResultStore",
    "STORE_FILENAME",
    "StoreRecord",
    "flatten_scalars",
    "parse_filter",
    "render_records",
]
