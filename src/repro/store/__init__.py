"""Queryable result store and pluggable campaign executors.

Two layers that turn the content-addressed campaign cache into an
execution substrate:

:class:`ResultStore` (:mod:`repro.store.index`)
    A SQLite index beside the cache — one row per entry with flattened
    point axes, fingerprint, timestamps and dotted numeric scalars —
    filled incrementally on every ``cache.put`` and by an idempotent
    backfill scanner, queried with ``filter``/``aggregate``/``to_csv``.
    Past sweeps and reliability campaigns are answerable with zero
    re-evaluation: ``python -m repro.sweep --query "cell=6T"``.

Executors (:mod:`repro.store.executors`)
    ``local-pool`` — in-process or ProcessPool sharding, bit-identical
    for any worker count; ``job-dir`` — work stealing over a shared
    directory where independent claimant processes (any host with the
    filesystem mounted; join with ``python -m repro.store work <dir>``)
    claim points via atomic renames.  Both commit through the same
    cache+journal path.

See ``docs/sweep.md`` ("Result store & executors") for the guide.
"""

from repro.store.executors import (
    EXECUTOR_NAMES,
    JobDirExecutor,
    LocalPoolExecutor,
    claim_work,
    make_executor,
)
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
    "EXECUTOR_NAMES",
    "JobDirExecutor",
    "LocalPoolExecutor",
    "ResultStore",
    "STORE_FILENAME",
    "StoreRecord",
    "claim_work",
    "flatten_scalars",
    "make_executor",
    "parse_filter",
    "render_records",
]
