"""Event-energy accounting.

The paper motivates several mechanisms by power rather than speed: the
uBTB clock-gates the mBTB and disables the SHP on locked kernels
(Section IV-B), the Empty Line Optimization skips lookups of branch-free
lines (Section IV-E), and the micro-op cache exists "primarily to save
fetch and decode power on repeatable kernels" (Section VI).  This module
provides a simple relative-energy ledger: structures report access events,
and benches compare ledgers across configurations.

Energies are in arbitrary relative units, scaled by structure size the way
SRAM access energy roughly scales (proportional to sqrt(bits) per access
for a fixed geometry, here simplified to fixed per-structure costs).

Event counts live in the metric registry as ``energy.<event>`` counters
(plus an ``energy.total`` formula), so ledger activity shows up in
snapshots and ``python -m repro metrics`` dumps alongside the timing
stats; the ``counts`` mapping remains available as a read-only view.
"""

from __future__ import annotations

from typing import Dict, Optional

from .metrics.registry import Counter, MetricRegistry

#: Relative energy per access event.
DEFAULT_ENERGY_TABLE: Dict[str, float] = {
    "icache_fetch": 8.0,     # 64KB I-cache read of a fetch group
    "decode": 6.0,           # full decode of a fetch group
    "uoc_fetch": 2.5,        # UOC read of a uop group
    "uoc_build": 4.0,        # UOC fill (decode + write)
    "shp_lookup": 3.0,       # all SHP tables read + sum
    "shp_update": 1.5,
    "mbtb_lookup": 2.0,
    "vbtb_lookup": 1.0,
    "l2btb_fill": 4.0,
    "ubtb_lookup": 0.5,
    "empty_line_skip": -2.0,  # energy *saved* vs a full lookup cycle
    "prefetch_issue": 1.0,
    "dram_access": 50.0,
}


class EnergyLedger:
    """Accumulates access-event counts and converts them to energy."""

    def __init__(self, table: Dict[str, float] = None,
                 registry: Optional[MetricRegistry] = None) -> None:
        self.table = dict(DEFAULT_ENERGY_TABLE if table is None else table)
        self.registry = registry if registry is not None else MetricRegistry()
        self._cells: Dict[str, Counter] = {
            event: self.registry.counter(f"energy.{event}")
            for event in self.table}
        weights = dict(self.table)
        self.registry.formula(
            "energy.total",
            tuple(f"energy.{e}" for e in weights),
            lambda *counts, _w=tuple(weights.values()):
                sum(n * w for n, w in zip(counts, _w)))

    @property
    def counts(self) -> Dict[str, int]:
        """Non-zero event counts (read-only snapshot view)."""
        return {event: cell.value for event, cell in self._cells.items()
                if cell.value}

    def cell(self, event: str) -> Counter:
        """The raw counter behind ``event`` (for hot-loop aliasing)."""
        return self._cells[event]

    def record(self, event: str, count: int = 1) -> None:
        cell = self._cells.get(event)
        if cell is None:
            raise KeyError(f"unknown energy event {event!r}")
        cell.value += count

    def energy(self, event: str = None) -> float:
        """Total energy, or the energy of one event class."""
        if event is not None:
            return self._cells[event].value * self.table[event]
        return sum(self._cells[e].value * c for e, c in self.table.items())

    def merged(self, other: "EnergyLedger") -> "EnergyLedger":
        out = EnergyLedger(self.table)
        for src in (self, other):
            for e, n in src.counts.items():
                if e not in out._cells:  # event absent from this table
                    out._cells[e] = out.registry.counter(f"energy.{e}")
                out._cells[e].value += n
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EnergyLedger total={self.energy():.1f} counts={self.counts}>"
