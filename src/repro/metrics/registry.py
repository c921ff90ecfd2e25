"""Hierarchical metric registry.

The registry is the single store for simulation statistics.  Names are
dotted paths (``core.fetch.bubble_cycles``, ``mem.l2.hits``) so related
stats group into a hierarchy for dumps, and three metric kinds cover
the producers:

``Counter``
    A mutable cell the hot path increments.  ``cell.value += n`` is a
    plain attribute store — O(1), no dict lookup — so simulators alias
    the cell into a local and bump it inside their inner loops.
``Gauge``
    A pull metric: a zero-argument callable sampled at snapshot time.
    Used for counters that sub-components keep themselves.  A gauge
    reads the structure it reports, never the component that owns it:
    the owner reaches this registry, so a reader holding it would close
    a reference cycle.  A structure that is rebuilt (the BTB, on a
    context-switch flush) has its gauges re-bound, and re-binding a
    name replaces its reader.  The registry keeps alive what its
    gauges read, so it stays readable after its simulator is dropped.
``Formula``
    A derived metric computed from *named inputs*.  Formulas evaluate
    against any value mapping, so the same definition yields whole-run
    IPC from a snapshot and per-window IPC from a snapshot delta.

``MetricSnapshot.delta`` subtracts counter values pairwise, which is
what makes windowed collection cheap: record a snapshot every N
instructions, difference consecutive ones, and evaluate the formulas
over the differences.

``StatsView`` turns a registry slice back into the attribute-style
object the rest of the codebase already consumes: subclasses declare a
``_FIELDS`` mapping (attribute -> metric name) and get read/write
properties backed by registry cells, so ``stats.instructions`` keeps
working while the data lives in the registry.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple, Union)

Number = Union[int, float]


class Counter:
    """An O(1)-increment metric cell.

    ``value`` starts as ``int`` 0 and stays integral under integer
    adds, so consumers that format counts with ``%d`` keep working;
    float adds (latency sums, cycle totals) promote it naturally.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Number = 0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: Number = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value!r})"


class Gauge:
    """A pull metric: ``read()`` is sampled at snapshot time."""

    __slots__ = ("name", "read")

    def __init__(self, name: str, read: Callable[[], Number]) -> None:
        self.name = name
        self.read = read

    @property
    def value(self) -> Number:
        return self.read()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r})"


class Formula:
    """A derived metric over named inputs.

    ``evaluate`` works on any mapping of metric name -> value (a full
    snapshot or a window delta); missing inputs read as 0.
    """

    __slots__ = ("name", "inputs", "fn")

    def __init__(self, name: str, inputs: Tuple[str, ...],
                 fn: Callable[..., float]) -> None:
        self.name = name
        self.inputs = tuple(inputs)
        self.fn = fn

    def evaluate(self, values: Mapping[str, Number]) -> float:
        return self.fn(*(values.get(name, 0) for name in self.inputs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Formula({self.name!r}, inputs={self.inputs!r})"


class MetricSnapshot:
    """An immutable point-in-time reading of a registry.

    Holds the materialized counter/gauge values plus the formula table,
    so derived metrics (``snap["core.ipc"]``) resolve lazily against
    *this* snapshot's values — including values produced by ``delta``.
    """

    __slots__ = ("values", "_formulas")

    def __init__(self, values: Dict[str, Number],
                 formulas: Mapping[str, Formula]) -> None:
        self.values = values
        self._formulas = formulas

    def __getitem__(self, name: str) -> Number:
        if name in self.values:
            return self.values[name]
        formula = self._formulas.get(name)
        if formula is None:
            raise KeyError(name)
        return formula.evaluate(self.values)

    def get(self, name: str, default: Number = 0) -> Number:
        try:
            return self[name]
        except KeyError:
            return default

    def __contains__(self, name: str) -> bool:
        return name in self.values or name in self._formulas

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def delta(self, earlier: "MetricSnapshot") -> "MetricSnapshot":
        """Pairwise difference ``self - earlier`` over raw values.

        Formulas carry over unchanged and therefore evaluate on the
        *differenced* inputs — delta IPC, delta MPKI, and so on.
        """
        values = {name: value - earlier.values.get(name, 0)
                  for name, value in self.values.items()}
        return MetricSnapshot(values, self._formulas)


class MetricRegistry:
    """Insertion-ordered store of counters, gauges, and formulas."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._formulas: Dict[str, Formula] = {}

    # -- registration ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Return the counter ``name``, creating it at 0 if absent."""
        cell = self._counters.get(name)
        if cell is None:
            self._check_free(name, allow={})
            cell = Counter(name)
            self._counters[name] = cell
        return cell

    def gauge(self, name: str, read: Callable[[], Number]) -> Gauge:
        """Register a pull metric.  Re-binding replaces the reader."""
        existing = self._gauges.get(name)
        if existing is not None:
            existing.read = read
            return existing
        self._check_free(name, allow=self._gauges)
        gauge = Gauge(name, read)
        self._gauges[name] = gauge
        return gauge

    def formula(self, name: str, inputs: Iterable[str],
                fn: Callable[..., float]) -> Formula:
        """Register a derived metric; idempotent for the same name."""
        existing = self._formulas.get(name)
        if existing is not None:
            return existing
        self._check_free(name, allow=self._formulas)
        formula = Formula(name, tuple(inputs), fn)
        self._formulas[name] = formula
        return formula

    def _check_free(self, name: str, allow: Mapping[str, Any]) -> None:
        for table in (self._counters, self._gauges, self._formulas):
            if table is not allow and name in table:
                raise ValueError(
                    f"metric name collision: {name!r} already registered "
                    f"as a different kind")

    # -- reads ----------------------------------------------------------
    def value(self, name: str) -> Number:
        """Current value of a counter, gauge, or formula by name."""
        cell = self._counters.get(name)
        if cell is not None:
            return cell.value
        gauge = self._gauges.get(name)
        if gauge is not None:
            return gauge.read()
        formula = self._formulas.get(name)
        if formula is not None:
            return formula.evaluate(self._raw_values())
        raise KeyError(name)

    def names(self) -> List[str]:
        """All registered metric names (counters, gauges, formulas)."""
        return (list(self._counters) + list(self._gauges)
                + list(self._formulas))

    @property
    def formulas(self) -> Mapping[str, Formula]:
        return self._formulas

    def _raw_values(self) -> Dict[str, Number]:
        values: Dict[str, Number] = {
            name: cell.value for name, cell in self._counters.items()}
        for name, gauge in self._gauges.items():
            values[name] = gauge.read()
        return values

    def snapshot(self) -> MetricSnapshot:
        """Materialize all counters and gauges into a snapshot."""
        return MetricSnapshot(self._raw_values(), self._formulas)

    def as_dict(self, derived: bool = True) -> Dict[str, Number]:
        """Flat name -> value mapping, optionally including formulas."""
        values = self._raw_values()
        if derived:
            for name, formula in self._formulas.items():
                values[name] = formula.evaluate(values)
        return values

    # -- checkpointing (state_dict protocol) ----------------------------
    # Only counters are state: gauges read live structures and
    # formulas are pure functions — both rebuild at construction.

    def state_dict(self) -> dict[str, object]:
        return {"counters": {name: cell.value
                             for name, cell in self._counters.items()}}

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore every counter's value; a counter this registry has
        not registered (an energy event outside the ledger's table, a
        structure this configuration lacks) raises ``ValueError``."""
        counters = state["counters"]
        unknown = sorted(set(counters) - set(self._counters))
        if unknown:
            raise ValueError(f"checkpoint names counters this registry "
                             f"does not have: {unknown}")
        for name, value in counters.items():
            # int-vs-float matters: counters stay integral under integer
            # adds, and JSON preserves the distinction — assign as-is.
            self._counters[name].value = value

    def dump(self, derived: bool = True) -> str:
        """Hierarchical text rendering (gem5 ``stats.txt`` flavour)."""
        values = self.as_dict(derived=derived)
        lines: List[str] = []
        previous: Tuple[str, ...] = ()
        for name in sorted(values):
            parts = tuple(name.split("."))
            prefix, leaf = parts[:-1], parts[-1]
            common = 0
            for a, b in zip(prefix, previous):
                if a != b:
                    break
                common += 1
            for depth in range(common, len(prefix)):
                lines.append("  " * depth + prefix[depth])
            previous = prefix
            value = values[name]
            shown = (f"{value:.6f}".rstrip("0").rstrip(".")
                     if isinstance(value, float) else str(value))
            kind = ("formula" if name in self._formulas
                    else "gauge" if name in self._gauges else "counter")
            lines.append("  " * len(prefix)
                         + f"{leaf:<28s} {shown:>16s}  ({kind})")
        return "\n".join(lines)


class StatsView:
    """Attribute-style facade over registry cells.

    Subclasses declare::

        _FIELDS = {"instructions": "core.instructions", ...}
        _DERIVED = {"ipc": "core.ipc", ...}          # optional
        _FORMULAS = (("core.ipc", ("core.instructions", "core.cycles"),
                      formulas.ipc), ...)            # optional

    and get read/write properties for ``_FIELDS`` entries backed by
    registry counters, plus read-only properties for ``_DERIVED``
    entries that evaluate the named formula.  A view constructed with
    no registry owns a private one, so standalone use (unit tests,
    direct component construction) keeps working.
    """

    _FIELDS: Dict[str, str] = {}
    _DERIVED: Dict[str, str] = {}
    _FORMULAS: Tuple[Tuple[str, Tuple[str, ...], Callable[..., float]],
                     ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for field in cls._FIELDS:
            setattr(cls, field, _cell_property(field))
        for attr, metric in cls._DERIVED.items():
            setattr(cls, attr, _derived_property(attr, metric))

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self._cells: Dict[str, Counter] = {
            field: self.registry.counter(metric)
            for field, metric in self._FIELDS.items()}
        for name, inputs, fn in self._FORMULAS:
            self.registry.formula(name, inputs, fn)

    def cell(self, field: str) -> Counter:
        """The raw counter behind ``field`` (for hot-loop aliasing)."""
        return self._cells[field]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatsView):
            return NotImplemented
        if type(self) is not type(other):
            return NotImplemented
        return all(self._cells[f].value == other._cells[f].value
                   for f in self._FIELDS)

    __hash__ = None  # type: ignore[assignment]  # mutable, like the old dataclasses

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self._cells[f].value!r}"
                           for f in self._FIELDS)
        return f"{type(self).__name__}({fields})"


def _cell_property(field: str) -> property:
    def getter(self: StatsView) -> Number:
        return self._cells[field].value

    def setter(self: StatsView, value: Number) -> None:
        self._cells[field].value = value

    return property(getter, setter)


def _derived_property(attr: str, metric: str) -> property:
    def getter(self: StatsView) -> float:
        formula = self.registry.formulas[metric]
        values = {name: self.registry.value(name) for name in formula.inputs}
        return formula.evaluate(values)

    getter.__name__ = attr
    return property(getter)
