"""Decode-once compiled traces: the flat parallel arrays the scoreboard
iterates.

A :class:`~repro.traces.types.Trace` is a list of ``TraceRecord``
objects — readable, but every pass over it pays per-record attribute
loads, ``Kind`` enum comparisons and repeated ``pc & ~63`` line math.
:func:`compile_trace` performs that decode exactly once, producing a
:class:`CompiledTrace` of flat parallel columns (plain Python ``int``
lists, serialized as ``array('q')``/``array('b')``/``array('i')`` on
disk):

- serialized columns: ``pc``, ``kind``, ``taken``, ``target``,
  ``addr``, ``size``, ``src1``, ``src2``;
- derived columns, recomputed on load so each derivation lives in one
  place: ``line`` (= ``pc & ~63``, the icache fetch line) and the
  ``is_branch`` class bit.

The ``kind`` column doubles as the per-record latency-class index: the
scoreboard builds 16-entry per-kind latency and port dispatch tables
and indexes them with it directly (see ``Scoreboard._dispatch_tables``).

Branch records keep their full ``TraceRecord`` identity — the branch
unit consumes rich records — via a sparse ``branch_records()`` list
(original objects when compiled in-process, lazily reconstructed with
identical field values after a disk load).

The on-disk format (see :func:`dump_bytes`) is a 4-byte magic, one
sorted-keys JSON header line (format version, provenance, column
layout, byte order, body SHA-256) and the raw little-/native-endian
array bytes.  Any mismatch — magic, version, checksum, truncation,
trailing bytes — raises :class:`CompiledTraceError`, which callers
treat as "regenerate from the spec" (pinned by the corruption tests).

Compiled once per ``(family, seed, length)``, a trace is reused across
all six generations of a population sweep instead of being re-decoded
per (generation, trace) task; :class:`repro.engine.cache
.CompiledTraceStore` extends the reuse across worker processes and CLI
invocations.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .types import BRANCH_KINDS, Kind, Trace, TraceRecord

#: Bump when the serialized column set or header layout changes; part of
#: the store fingerprint, so old entries simply stop being read.
COMPILED_FORMAT_VERSION = 1

_MAGIC = b"RPCT"

#: (column name, array typecode) — the serialized columns, in body order.
#: Column names match :class:`CompiledTrace` attribute names.
COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pc", "q"),
    ("kind", "b"),
    ("taken", "b"),
    ("target", "q"),
    ("addr", "q"),
    ("size", "i"),
    ("src1", "i"),
    ("src2", "i"),
)

#: Kind-indexed class bits (Kind values are contiguous 0..15).
_N_KINDS = 16
_IS_BRANCH = tuple(1 if Kind(k) in BRANCH_KINDS else 0
                   for k in range(_N_KINDS))
_KIND_OBJS = tuple(Kind(k) for k in range(_N_KINDS))


class CompiledTraceError(ValueError):
    """A compiled-trace blob failed validation (corrupt, truncated,
    foreign format) — callers fall back to regenerating from the spec."""


class CompiledTrace:
    """Flat-array form of one trace; see the module docstring.

    The constructor takes ownership of the column lists it is given.
    ``branch_records`` is an optional sparse list (``TraceRecord`` at
    branch indices, ``None`` elsewhere); when absent it is lazily
    reconstructed from the columns on first use.
    """

    __slots__ = ("name", "family", "seed", "pc", "kind", "taken", "target",
                 "addr", "size", "src1", "src2", "line", "is_branch",
                 "n_branches", "_branch_records")

    def __init__(self, name: str, family: str, seed: Optional[int],
                 columns: Dict[str, List[int]],
                 branch_records: Optional[List[Optional[TraceRecord]]] = None
                 ) -> None:
        self.name = name
        self.family = family
        self.seed = seed
        self.pc = columns["pc"]
        self.kind = columns["kind"]
        self.taken = columns["taken"]
        self.target = columns["target"]
        self.addr = columns["addr"]
        self.size = columns["size"]
        self.src1 = columns["src1"]
        self.src2 = columns["src2"]
        n = len(self.pc)
        for attr in ("kind", "taken", "target", "addr", "size",
                     "src1", "src2"):
            if len(getattr(self, attr)) != n:
                raise CompiledTraceError(
                    f"column {attr!r} has {len(getattr(self, attr))} "
                    f"entries, expected {n}")
        # Derived columns (never serialized).
        self.line = [p & ~63 for p in self.pc]
        self.is_branch = [_IS_BRANCH[k] for k in self.kind]
        self.n_branches = self.is_branch.count(1)
        self._branch_records = branch_records

    # -- Trace-compatible surface -------------------------------------------

    def __len__(self) -> int:
        return len(self.pc)

    def __getitem__(self, idx: int) -> TraceRecord:
        return self.record(idx)

    def __iter__(self) -> Iterator[TraceRecord]:
        # Record-at-a-time view; the scoreboard reads the columns
        # directly and never pays this, but any generic Trace consumer
        # works unchanged.
        for i in range(len(self.pc)):
            yield self.record(i)

    @property
    def branch_count(self) -> int:
        return self.n_branches

    def record(self, i: int) -> TraceRecord:
        """The ``TraceRecord`` view of row ``i`` (exact field values —
        ``Kind`` enum member, ``bool`` taken — so reconstructed records
        are indistinguishable from generated ones)."""
        if self._branch_records is not None:
            rec = self._branch_records[i]
            if rec is not None:
                return rec
        return TraceRecord(
            pc=self.pc[i], kind=_KIND_OBJS[self.kind[i]],
            taken=bool(self.taken[i]), target=self.target[i],
            addr=self.addr[i], size=self.size[i],
            src1_dist=self.src1[i], src2_dist=self.src2[i])

    def branch_records(self) -> List[Optional[TraceRecord]]:
        """Sparse per-row branch records (``None`` at non-branches),
        built once and cached — the objects the branch unit consumes."""
        if self._branch_records is None:
            self._branch_records = [
                self.record(i) if b else None
                for i, b in enumerate(self.is_branch)]
        return self._branch_records

    def slice(self, start: int = 0,
              stop: Optional[int] = None) -> "CompiledTrace":
        """Column-sliced sub-trace (same name/family/seed) — the
        checkpoint/resume counterpart of :meth:`Trace.slice`."""
        cols = {name: getattr(self, name)[start:stop]
                for name, _code in COLUMNS}
        brs = (self._branch_records[start:stop]
               if self._branch_records is not None else None)
        return CompiledTrace(self.name, self.family, self.seed, cols,
                             branch_records=brs)

    def to_trace(self) -> Trace:
        """Materialize back into a record-object :class:`Trace`."""
        return Trace(self.name, self.family,
                     [self.record(i) for i in range(len(self.pc))],
                     seed=self.seed)


def compile_trace(trace: Trace) -> CompiledTrace:
    """One decode pass: records -> flat columns (+ the branch sparse
    list referencing the original records, so an in-process run feeds
    the branch unit the trace's own record objects)."""
    records = trace.records if isinstance(trace, Trace) else list(trace)
    columns: Dict[str, List[int]] = {
        "pc": [r.pc for r in records],
        "kind": [int(r.kind) for r in records],
        "taken": [1 if r.taken else 0 for r in records],
        "target": [r.target for r in records],
        "addr": [r.addr for r in records],
        "size": [r.size for r in records],
        "src1": [r.src1_dist for r in records],
        "src2": [r.src2_dist for r in records],
    }
    branch = [r if r.kind in BRANCH_KINDS else None for r in records]
    return CompiledTrace(trace.name, trace.family, trace.seed, columns,
                         branch_records=branch)


def compiled_fingerprint(family: str, seed: int, n_instructions: int) -> str:
    """Store key for one compiled trace: SHA-256 over the spec triple,
    the compiled format version, and the package version (trace
    generators may change between releases)."""
    from .. import __version__

    envelope = {
        "kind": "ctrace",
        "family": family,
        "seed": seed,
        "n_instructions": n_instructions,
        "format": COMPILED_FORMAT_VERSION,
        "version": __version__,
    }
    text = json.dumps(envelope, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Binary serialization
# ---------------------------------------------------------------------------

def dump_bytes(compiled: CompiledTrace) -> bytes:
    """Serialize: magic + 4-byte header length + JSON header + raw
    column array bytes (native byte order, recorded in the header)."""
    body = b"".join(
        array(code, getattr(compiled, name)).tobytes()
        for name, code in COLUMNS)
    header: Dict[str, Any] = {
        "format": COMPILED_FORMAT_VERSION,
        "name": compiled.name,
        "family": compiled.family,
        "seed": compiled.seed,
        "n": len(compiled),
        "byteorder": sys.byteorder,
        "columns": [[name, code] for name, code in COLUMNS],
        "body_sha256": hashlib.sha256(body).hexdigest(),
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return _MAGIC + len(head).to_bytes(4, "little") + head + body


def load_bytes(data: bytes) -> CompiledTrace:
    """Parse :func:`dump_bytes` output; every validation failure raises
    :class:`CompiledTraceError` (the caller regenerates and rewrites)."""
    if data[:4] != _MAGIC:
        raise CompiledTraceError("bad magic (not a compiled trace)")
    if len(data) < 8:
        raise CompiledTraceError("truncated header length")
    head_len = int.from_bytes(data[4:8], "little")
    head_end = 8 + head_len
    if len(data) < head_end:
        raise CompiledTraceError("truncated header")
    try:
        header = json.loads(data[8:head_end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CompiledTraceError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CompiledTraceError("header is not an object")
    if header.get("format") != COMPILED_FORMAT_VERSION:
        raise CompiledTraceError(
            f"format {header.get('format')!r} != {COMPILED_FORMAT_VERSION}")
    body = data[head_end:]
    if hashlib.sha256(body).hexdigest() != header.get("body_sha256"):
        raise CompiledTraceError("body checksum mismatch")
    try:
        n = int(header["n"])
        raw_columns = list(header["columns"])
        byteorder = header["byteorder"]
        name = header["name"]
        family = header["family"]
        seed = header["seed"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CompiledTraceError(f"malformed header: {exc}") from exc
    if [list(c) for c in raw_columns] != [[n_, c_] for n_, c_ in COLUMNS]:
        raise CompiledTraceError("unexpected column layout")
    columns: Dict[str, List[int]] = {}
    offset = 0
    for col_name, code in COLUMNS:
        arr = array(code)
        nbytes = arr.itemsize * n
        chunk = body[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CompiledTraceError(f"column {col_name!r} truncated")
        arr.frombytes(chunk)
        if byteorder != sys.byteorder:
            arr.byteswap()
        columns[col_name] = arr.tolist()
        offset += nbytes
    if offset != len(body):
        raise CompiledTraceError("trailing bytes after columns")
    bad = [k for k in columns["kind"] if not 0 <= k < _N_KINDS]
    if bad:
        raise CompiledTraceError(f"invalid kind values: {bad[:4]}")
    return CompiledTrace(str(name), str(family),
                         int(seed) if seed is not None else None, columns)
