"""On-disk result cache for design-space sweeps.

A cache entry is one evaluated :class:`~repro.sweep.spec.DesignPoint`,
stored as a small JSON file under ``<root>/<key>.json``.  The key is a
SHA-256 over

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

JSON round-trips Python floats exactly (``repr`` shortest round-trip),
so rows served from the cache are bit-identical to freshly evaluated
ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import tempfile
import time

import numpy as np

from repro.learning.convert import ConvertedSNN

#: Bump when the cached-row schema or evaluation semantics change.
#: v2: design points carry explicit ``node``/``corner`` fields
#: (HardwareConfig refactor), so v1 entries — implicitly 3nm/typical —
#: are retired rather than aliased.
#: v3: the cache is shared with the reliability campaigns
#: (:mod:`repro.reliability`); key payloads carry a ``kind``
#: discriminator ("sweep" / "reliability") so the two entry families
#: can never alias inside one cache directory.
CACHE_VERSION = 3

#: Default cache root, shared with the trained-model artifacts.
DEFAULT_CACHE_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / ".artifacts" / "sweep_cache"
)

#: Age beyond which a stranded ``*.tmp`` sibling (a hard-killed writer:
#: chaos ``os._exit``, SIGKILL, power loss) is presumed dead and
#: garbage-collected.  Healthy writes hold a tmp file for milliseconds.
DEFAULT_TMP_MAX_AGE_S = 3600.0


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
    """Directory of evaluated design points, one JSON file per key.

    ``store`` optionally attaches a
    :class:`~repro.store.index.ResultStore` (duck-typed: anything with
    an ``ingest(key, row)`` method): every successful :meth:`put` is
    then indexed the moment the JSON lands, which is how campaign CLIs
    keep the queryable store incrementally up to date.  Opening a cache
    also garbage-collects ``*.tmp`` siblings older than
    ``tmp_max_age_s`` — leftovers of hard-killed writers that an
    in-process ``except`` can never clean up (pass ``None`` to skip).
    """

    def __init__(self, root: pathlib.Path | str | None = None, *,
                 store=None,
                 tmp_max_age_s: float | None = DEFAULT_TMP_MAX_AGE_S,
                 ) -> None:
        self.root = pathlib.Path(root) if root is not None else DEFAULT_CACHE_DIR
        self.store = store
        if tmp_max_age_s is not None and self.root.exists():
            self.gc_stale_tmp(max_age_s=tmp_max_age_s)

    def path(self, key: str) -> pathlib.Path:
        """File backing ``key`` (two-level fan-out keeps dirs small)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored row dict, or ``None`` on a miss or unreadable file.

        A corrupt entry (torn write that still got renamed, disk
        damage) is quarantined — renamed to ``<name>.json.corrupt`` —
        so neither future reads nor the store's backfill scanner can
        re-ingest the garbage; the key simply misses until re-evaluated.
        """
        path = self.path(key)
        try:
            with path.open() as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            with contextlib.suppress(OSError):
                os.replace(path, path.with_name(path.name + ".corrupt"))
            return None
        except OSError:
            return None

    def put(self, key: str, row: dict) -> pathlib.Path:
        """Persist one evaluated row; returns the written path.

        Writes via a uniquely-named temporary sibling + atomic rename,
        so a concurrent reader never observes a half-written entry and
        concurrent writers of the same key (two cold sweeps racing)
        don't clobber each other mid-write.
        """
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f"{key[:8]}.", suffix=".tmp", dir=path.parent,
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(row, handle, indent=1)
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        if self.store is not None:
            self.store.ingest(key, row)
        return path

    def gc_stale_tmp(self, *, max_age_s: float = DEFAULT_TMP_MAX_AGE_S,
                     clock=time.time) -> int:
        """Remove ``*.tmp`` leftovers older than ``max_age_s``.

        ``put``'s in-process exception handler unlinks its tmp sibling,
        but a hard-killed writer (chaos ``os._exit``, SIGKILL) strands
        the file forever; this sweep reclaims them.  The age threshold
        keeps in-flight writes of live concurrent writers safe — they
        hold a tmp file for milliseconds, not hours.  Returns how many
        files were removed.
        """
        if not self.root.exists():
            return 0
        cutoff = clock() - max_age_s
        removed = 0
        for tmp in self.root.glob("*/*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue
        return removed

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        """Number of cached entries under the root."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        for path in list(self.root.glob("*/*.json")):
            path.unlink()
            removed += 1
        return removed

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, entries={len(self)})"
