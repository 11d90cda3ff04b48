"""Deterministic on-disk cache for expensive pure campaign stages.

Campaign stages (training-data generation, trial sets) are pure functions
of ``(master seed, configuration)`` — the reproducibility contract the
whole stack is built on.  That makes them cacheable: key the result by a
stable hash of every input that changes it, store the result with pickle,
and a re-run of a figure script costs one disk read per stage instead of
minutes of Monte Carlo.  Companion of the ``.model_cache`` model zoo
(which caches *trained models*; this caches *campaign outputs*).

Keys must be identical across processes and interpreter runs, so hashing
walks the object tree explicitly (dataclasses, containers, scalars,
arrays) instead of relying on ``hash()`` (salted) or object identity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from pathlib import Path

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Default repo-local cache directory (git-ignored, like ``.model_cache``).
DEFAULT_CACHE_DIR = Path(__file__).resolve().parents[3] / ".campaign_cache"

#: Bump to invalidate every existing entry when stored semantics change.
#: Trial sets are keyed by configuration only, so a change that moves
#: results (version 2: the scalar refinement solve and the pre-scaled
#: capped chi-square moved errors at the ulp level) must bump this.
CACHE_SCHEMA_VERSION = 2


def _feed(h, obj) -> None:
    """Recursively feed a canonical byte form of ``obj`` into hash ``h``."""
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"ndarray:{obj.dtype.str}:{obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        h.update(f"{type(obj).__name__}:{obj.item()!r};".encode())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        h.update(f"{type(obj).__name__}[{len(items)}];".encode())
        for item in items:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"dict[{len(obj)}];".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"dc:{type(obj).__module__}.{type(obj).__qualname__};".encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    else:
        # Last resort: pickle bytes.  Deterministic for the model/config
        # objects in this codebase (no memo-address leakage reaches the
        # stream for by-value data).
        h.update(f"pickle:{type(obj).__qualname__};".encode())
        h.update(pickle.dumps(obj, protocol=4))


def config_token(*parts: object) -> str:
    """Stable hex digest of an input-configuration tuple."""
    h = hashlib.sha256()
    _feed(h, CACHE_SCHEMA_VERSION)
    for part in parts:
        _feed(h, part)
    return h.hexdigest()[:32]


class StageCache:
    """Pickle-backed key-value store for pure stage results.

    Args:
        root: Cache directory (``.campaign_cache/`` at the repo root by
            default).  Created lazily on first store.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else DEFAULT_CACHE_DIR

    def path_for(self, stage: str, token: str) -> Path:
        """File backing one ``(stage, token)`` entry."""
        return self.root / f"{stage}_{token}.pkl"

    def load(self, stage: str, token: str) -> object | None:
        """Return the cached result, or None on a miss (or unreadable entry).

        Telemetry (when enabled) distinguishes the outcomes that look
        identical to the caller: ``cache.hit``, ``cache.miss`` (no entry),
        and ``cache.corrupt`` (an entry exists but cannot be unpickled —
        previously a silent degradation to a miss).

        Corruption covers every way an entry written by an older code
        layout can fail to unpickle — truncated file, renamed/deleted
        module or attribute (``ModuleNotFoundError``/``AttributeError``),
        or a reduce payload the current classes reject
        (``IndexError``/``TypeError``/``ValueError``/``KeyError``).  A
        corrupt entry is quarantined (renamed to ``*.pkl.corrupt``) so
        it is recomputed once, not re-parsed and re-failed on every run.
        """
        path = self.path_for(stage, token)
        with obs_trace.span("cache.load"):
            if not path.exists():
                obs_metrics.inc("cache.miss")
                return None
            try:
                with open(path, "rb") as f:
                    result = pickle.load(f)
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError, KeyError,
                    TypeError, ValueError):
                obs_metrics.inc("cache.corrupt")
                self._quarantine(path)
                return None
            obs_metrics.inc("cache.hit")
            return result

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt entry aside (best effort) so ``store`` can
        rewrite the real path and later loads miss cleanly."""
        try:
            path.replace(path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass

    def store(self, stage: str, token: str, result: object) -> None:
        """Persist a stage result atomically (rename over partial writes)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(stage, token)
        with obs_trace.span("cache.store"):
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(result, f, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
                obs_metrics.inc("cache.store")
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise


def resolve_cache(cache: "StageCache | str | os.PathLike | bool | None") -> StageCache | None:
    """Normalize the ``cache`` argument campaign APIs accept.

    ``None``/``False`` disables caching, ``True`` uses the default
    directory, a path makes a cache rooted there, and a
    :class:`StageCache` passes through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return StageCache()
    if isinstance(cache, StageCache):
        return cache
    return StageCache(cache)
