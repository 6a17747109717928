"""The result cache of the campaign grids, and its entry keys.

A cache entry is one evaluated campaign point (a
:class:`~repro.sweep.spec.DesignPoint` or a fault point), kept as one
row of the cache directory's result store
(:class:`~repro.store.index.ResultStore`, ``<root>/store.sqlite``).
The key is a SHA-256 over

* the cache schema version (bumped when the stored row format or the
  evaluation semantics change),
* the design point's canonical dict (cell, Vprech, sample size, engine,
  quality, seed), and
* a fingerprint of the evaluated network's weights, thresholds and
  output bias.

Keying on the weights fingerprint means the cache invalidates itself
when the model changes (retraining, online learning, fault injection)
without any manual versioning; keying on the point dict means any
config change — sample size, Vprech, engine, seed — is a different
entry.  Re-running an overlapping sweep therefore only evaluates the
points that are genuinely new.

The store keeps each row as JSON, which round-trips Python floats
exactly (``repr`` shortest round-trip), so rows served from the cache
are bit-identical to freshly evaluated ones.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.learning.convert import ConvertedSNN
from repro.store.index import ResultStore

#: Bump when the cached-row schema or evaluation semantics change.
#: v2: design points carry explicit ``node``/``corner`` fields
#: (HardwareConfig refactor), so v1 entries — implicitly 3nm/typical —
#: are retired rather than aliased.
#: v3: the cache is shared with the reliability campaigns
#: (:mod:`repro.reliability`); key payloads carry a ``kind``
#: discriminator ("sweep" / "reliability") so the two entry families
#: can never alias inside one cache directory.
#: v4: fault masks are drawn as geometric gaps between flips
#: (:func:`repro.sram.faults.flip_bits`), so a reliability row holds
#: other masks' outcomes; sweep rows re-evaluate once, to equal values.
CACHE_VERSION = 4

#: Default cache root, shared with the trained-model artifacts.
DEFAULT_CACHE_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / ".artifacts" / "sweep_cache"
)


def weights_fingerprint(snn: ConvertedSNN) -> str:
    """Stable SHA-256 fingerprint of a converted network's parameters.

    Hashes dtype, shape and raw bytes of every weight matrix, threshold
    vector and the output bias, so any single flipped weight bit yields
    a different fingerprint (and thus a cache miss).
    """
    digest = hashlib.sha256()
    arrays = list(snn.weights) + list(snn.thresholds) + [snn.output_bias]
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def entry_key(kind: str, point_dict: dict, fingerprint: str) -> str:
    """Cache key of one evaluated entry under one network fingerprint.

    ``kind`` namespaces the entry family ("sweep" design points,
    "reliability" fault points, ...) so different row schemas sharing
    one cache directory cannot alias even if their point dicts agree.
    """
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "kind": kind,
            "point": point_dict,
            "weights": fingerprint,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """The evaluated points of one cache directory, kept in its store.

    ``store`` is the :class:`~repro.store.index.ResultStore` that keeps
    the rows; by default the cache opens ``<root>/store.sqlite``
    (:meth:`ResultStore.for_cache`).  Reads, writes and counts all go
    to that store: each :meth:`put` is one commit, so an interrupted
    campaign keeps every row it finished.
    """

    def __init__(self, root: pathlib.Path | str | None = None, *,
                 store: ResultStore | None = None) -> None:
        self.root = pathlib.Path(root) if root is not None else DEFAULT_CACHE_DIR
        if store is None:
            store = ResultStore.for_cache(self.root)
        self.store = store

    def get(self, key: str) -> dict | None:
        """The stored row dict, or ``None`` on a miss."""
        return self.store.get(key)

    def put(self, key: str, row: dict) -> None:
        """Keep one evaluated row, committed when this returns."""
        self.store.put(key, row)

    def __contains__(self, key: str) -> bool:
        return key in self.store

    def __len__(self) -> int:
        """Number of cached entries."""
        return len(self.store)

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        return self.store.clear()

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, entries={len(self)})"
