"""On-disk + in-memory result cache for engine tasks.

Every engine task (one ``(generation config, trace spec)`` simulation, or
one Figure 1 predictor measurement) is memoized under a stable fingerprint
of its full payload plus the model version (see
:func:`repro.engine.tasks.task_fingerprint`).  The cache has three modes:

``"off"``
    Never read or write; every task executes.
``"memory"``
    Process-local dict shared by all engines in this interpreter — the
    successor of the old ``harness.population._CACHE`` module global.
``"disk"``
    The memory tier plus a JSON file store under ``~/.cache/repro``
    (override with the ``REPRO_CACHE_DIR`` environment variable), so
    repeated CLI/bench invocations across processes reuse results.

The cache root holds two tiers of one :class:`FileStore`:
``<cache_dir>/tasks/<fp[:2]>/<fp>.json`` (one task result each) and the
compiled-trace store (:class:`CompiledTraceStore`),
``<cache_dir>/ctraces/<fp[:2]>/<fp>.ctrace`` (one binary
:class:`~repro.traces.compiled.CompiledTrace` each, keyed by
:func:`~repro.traces.compiled.compiled_fingerprint`), so workers load a
decoded trace instead of regenerating and re-decoding it.  Entries are
sharded by fingerprint prefix to keep directories flat, written whole
(:func:`repro.atomic.atomic_write`), and an entry that fails to decode
is deleted and treated as a miss, so several processes can share one
root.  Invalidation is purely key-based: a new package version, schema
version, or any config/trace field change yields a different
fingerprint, and stale entries are simply never read again.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..atomic import atomic_write
from ..traces.compiled import dump_bytes, load_bytes

CACHE_MODES = ("off", "memory", "disk")

#: Process-wide memory tier, shared across engine instances.
_MEMORY: Dict[str, Dict[str, Any]] = {}


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


def clear_memory() -> None:
    """Drop the process-wide memory tier (tests; long-lived sessions)."""
    _MEMORY.clear()


class FileStore:
    """One tier of the cache root: a file per fingerprint at
    ``<cache_dir>/<tier>/<fp[:2]>/<fp><suffix>``.

    A subclass names its ``tier`` and ``suffix`` and turns entries into
    file contents (``encode``) and back (``decode``, which raises
    ``ValueError`` for contents it cannot use).  A read of an absent or
    unreadable file is a miss; an entry that fails to decode is deleted
    and is a miss, so the caller's recomputation rewrites it.  Writes
    are atomic and best effort: an unwritable cache root never fails a
    run.
    """

    tier = ""
    suffix = ""

    def __init__(self, cache_dir: Optional[os.PathLike] = None) -> None:
        self.cache_dir = (Path(cache_dir) if cache_dir is not None
                          else default_cache_dir())

    def encode(self, value: Any) -> Union[str, bytes]:
        raise NotImplementedError

    def decode(self, data: bytes) -> Any:
        raise NotImplementedError

    def path(self, fingerprint: str) -> Path:
        return self.cache_dir / self.tier / fingerprint[:2] / (
            fingerprint + self.suffix)

    def get(self, fingerprint: str) -> Any:
        """The decoded entry, or ``None`` on a miss."""
        path = self.path(fingerprint)
        try:
            value = self.decode(path.read_bytes())
        except OSError:
            value = None
        except ValueError:
            value = None
            try:
                path.unlink()
            except OSError:  # another process deleted it first
                pass
        return value

    def put(self, fingerprint: str, value: Any) -> None:
        try:
            atomic_write(self.path(fingerprint), self.encode(value))
        except OSError:  # read-only cache root etc.
            pass

    def clear(self) -> int:
        """Delete every entry of this tier; returns the number removed."""
        removed = 0
        for path in (self.cache_dir / self.tier).glob("*/*" + self.suffix):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing deleters
                pass
        return removed


class _TaskFiles(FileStore):
    tier, suffix = "tasks", ".json"

    def encode(self, payload: Dict[str, Any]) -> str:
        return json.dumps(payload, sort_keys=True)

    def decode(self, data: bytes) -> Dict[str, Any]:
        payload = json.loads(data)
        if not isinstance(payload, dict):
            raise ValueError("task entry is not a JSON object")
        return payload


def clear_disk(cache_dir: Optional[os.PathLike] = None) -> int:
    """Delete all on-disk task entries; returns the number removed."""
    return _TaskFiles(cache_dir).clear()


class TaskCache:
    """One engine run's view of the task cache: its mode, over the
    process-wide memory tier and the disk tier."""

    def __init__(self, mode: str = "memory",
                 cache_dir: Optional[os.PathLike] = None) -> None:
        if mode not in CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {mode!r}; expected one of {CACHE_MODES}"
            )
        self.mode = mode
        self.files = _TaskFiles(cache_dir)
        self.cache_dir = self.files.cache_dir

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        if self.mode == "off":
            return None
        hit = _MEMORY.get(fingerprint)
        if hit is not None:
            return dict(hit)
        if self.mode == "disk":
            payload = self.files.get(fingerprint)
            if payload is not None:
                _MEMORY[fingerprint] = payload
                return dict(payload)
        return None

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        if self.mode == "off":
            return
        _MEMORY[fingerprint] = dict(payload)
        if self.mode == "disk":
            self.files.put(fingerprint, payload)


#: Compiled-trace blobs live beside (never inside) the task tier.
CTRACE_DIRNAME = "ctraces"


class CompiledTraceStore(FileStore):
    """On-disk store of decode-once compiled traces (see module doc).

    Unlike :class:`TaskCache` this tier has no memory mode of its own —
    the in-process layer is ``repro.engine.tasks._CTRACE_MEMO`` (a thin
    LRU over this store); the store's job is cross-process and
    cross-invocation reuse.  All IO failures degrade to misses: the
    caller always holds the spec and can regenerate.
    """

    tier, suffix = CTRACE_DIRNAME, ".ctrace"
    encode = staticmethod(dump_bytes)
    decode = staticmethod(load_bytes)
