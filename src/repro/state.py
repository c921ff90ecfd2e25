"""The ``state_dict`` protocol: checkpointable state for every layer.

Every stateful component in the tree — frontend predictors, the memory
hierarchy and its prefetchers, the uop-cache mode machine, the
scoreboard's in-flight timing state and the metric registry (which
holds the energy ledger's counts) — implements the same two methods,
PyTorch-style:

``state_dict() -> dict``
    A **JSON-serializable** snapshot of the component's mutable state.
    Derived/rebuildable values (sizes computed in ``__init__``, gauge
    readers, formula definitions, cipher callables) are *not* captured;
    only what evolves during simulation and a resumed run reads is.

``load_state_dict(state) -> None``
    Restore the component **in place** to exactly that snapshot.  In
    place matters: gauges capture structure objects at bind time, so
    restore never swaps a cache/TLB object out from under its reader.

Round-trip invariant (pinned by ``tests/test_state.py``): for any
component ``c`` and fresh peer ``c2`` built with the same config,
``c2.load_state_dict(c.state_dict())`` makes ``c2`` bit-identical to
``c`` for all future inputs.

JSON-ability conventions, shared via the helpers below:

- ``OrderedDict`` (LRU order is architectural state) -> list of
  ``[key, value]`` pairs via :func:`to_pairs` / :func:`from_pairs`;
  plain dict keyed by ints is serialized the same way (JSON objects
  would stringify the keys).
- ``deque`` -> plain list (``maxlen`` is config, re-applied by the
  component).
- ``set`` -> sorted list.
- enums (``Kind``, ``UocMode``) -> their ``.name`` / ``.value``.
- tuples -> lists (JSON has no tuple); components re-tuple on load.

On top of the protocol, :meth:`repro.core.simulator.GenerationSimulator
.save_state` produces a versioned whole-simulator checkpoint document,
and :func:`save_checkpoint` / :func:`load_checkpoint` give it a stable
on-disk form (sorted-key JSON) used by the ``repro checkpoint`` CLI.
See ``docs/checkpoint.md``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Mapping, Union

from .atomic import atomic_write

#: Bump when the checkpoint document layout (or any component's
#: state_dict shape) changes incompatibly.
#:
#: 1 — initial protocol: per-component state dicts under
#:     ``components``, scoreboard in-flight timing state, window
#:     recorder state, sink sequence continuation.
#: 2 — only state a resumed run reads: the registry alone holds the
#:     ``energy.*`` counts, the UOC block cursor moved under
#:     ``components.uoc``, and no snoop-filter directory, dead fields
#:     or counters nothing reports.
CHECKPOINT_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# Mapping <-> pair-list helpers
# ---------------------------------------------------------------------------

def to_pairs(mapping: Mapping[Any, Any]) -> List[List[Any]]:
    """A mapping as an order-preserving ``[[key, value], ...]`` list.

    JSON objects stringify keys and (nominally) unorder them; recency
    order in an ``OrderedDict`` is architectural state (LRU position),
    so mappings ship as pair lists.
    """
    return [[k, v] for k, v in mapping.items()]


def from_pairs(pairs: Iterable[Iterable[Any]]) -> "OrderedDict[Any, Any]":
    """Rebuild an ``OrderedDict`` from :func:`to_pairs` output."""
    from collections import OrderedDict

    out: "OrderedDict[Any, Any]" = OrderedDict()
    for k, v in pairs:
        out[k] = v
    return out


def dict_from_pairs(pairs: Iterable[Iterable[Any]]) -> Dict[Any, Any]:
    """Rebuild a plain dict (insertion order still preserved)."""
    return {k: v for k, v in pairs}


# ---------------------------------------------------------------------------
# Checkpoint file IO
# ---------------------------------------------------------------------------

def checkpoint_document(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap a simulator state payload in the versioned envelope."""
    from . import __version__

    return {
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "version": __version__,
        **payload,
    }


def validate_checkpoint(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Schema-check a checkpoint document (raises ``ValueError``)."""
    if not isinstance(doc, dict):
        raise ValueError("checkpoint must be a JSON object")
    schema = doc.get("schema")
    if schema != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported checkpoint schema {schema!r} "
            f"(this build reads {CHECKPOINT_SCHEMA_VERSION})")
    return doc


def checkpoint_to_json(doc: Dict[str, Any]) -> str:
    """Canonical serialized form: sorted keys, so byte-identity of two
    checkpoints is exactly state-identity."""
    return json.dumps(doc, sort_keys=True)


def save_checkpoint(path: Union[str, os.PathLike],
                    doc: Dict[str, Any]) -> None:
    """Write a checkpoint document as canonical sorted-key JSON,
    replacing ``path`` atomically (:func:`repro.atomic.atomic_write`):
    a failed or interrupted save leaves the previous file intact."""
    validate_checkpoint(doc)
    atomic_write(path, checkpoint_to_json(doc) + "\n")


def load_checkpoint(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Read and schema-check a checkpoint file."""
    with open(os.fspath(path), "r", encoding="utf-8") as f:
        return validate_checkpoint(json.load(f))
