"""The result store: where every campaign row is kept, and queried.

:class:`ResultStore` (:mod:`repro.store.index`) is one SQLite table in
the cache directory — one row per evaluated point with its flattened
point axes, fingerprint, timestamp, dotted numeric scalars and the row
itself — written by every ``cache.put`` and queried with
``filter``/``aggregate``/``to_csv``.  Past sweeps and reliability
campaigns are answerable with zero re-evaluation:
``python -m repro.sweep --query "cell=6T"``.  Readers open the store
read-only (:meth:`ResultStore.for_reading`) and change nothing.  The
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
