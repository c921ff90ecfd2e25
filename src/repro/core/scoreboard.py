"""Trace-driven out-of-order scoreboard timing model.

This is the reproduction's counterpart to the paper's "trace-driven
cycle-accurate performance model" (Section II) — a dataflow scoreboard
rather than a full pipeline RTL: every retired micro-op gets a dispatch
time (bounded by fetch supply, dispatch width and ROB occupancy), a ready
time (producer completion via trace dependence distances), an issue time
(ready + issue-port contention) and a completion time (issue + latency,
with load latencies coming from the simulated memory hierarchy).  Total
cycles = last retirement; IPC follows.

Modelled Table I resources: decode/rename width, fetch width, ROB size,
the S/C/CD/BR integer pipes, load/store/generic pipes, FMAC pipes and FP
latencies, mispredict penalty, zero-cycle moves (M3+), and load-to-load
cascading (M4+: "a load can forward its result to a subsequent load a
cycle earlier than usual, giving the first load an effective latency of 3
cycles").  Front-end supply embeds the branch unit's per-branch bubbles
and the two-predictions-per-cycle rule for a leading not-taken branch
(Section IV-A).

The front end never reads simulated time, so it runs as its own pass
(:meth:`~repro.frontend.predictor.BranchUnit.resolve`), one metrics
window ahead: the loop reads its per-branch (mispredicted, bubbles)
pairs.

Stats live in the shared metric registry (``core.*``); ``CoreStats`` is
the attribute-style view over those cells, and the inner loop bumps the
cells through local aliases so the registry adds no per-instruction
dict lookups.  ``run`` optionally closes a metrics window every
``window_interval`` retired instructions via the ``on_window`` callback
— window placement depends only on instruction count, keeping window
series bit-identical between serial and parallel execution.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from ..config import GenerationConfig
from ..frontend.predictor import BranchUnit
from ..frontend.ubtb import UBTBNode
from ..memory.hierarchy import MemoryHierarchy
from ..metrics import formulas
from ..metrics.registry import MetricRegistry, StatsView
from ..observe.events import BranchEvent, InstEvent
from ..observe.sink import HeldEvents, TraceSink
from ..traces.compiled import CompiledTrace, compile_trace
from ..traces.types import Kind, Trace, TraceRecord

#: Execution latencies (cycles) for non-memory, non-FP classes.
_LAT_ALU = 1
_LAT_MUL = 3
_LAT_DIV = 12
#: Window of producer completion times retained for dependence lookups.
_DEP_WINDOW = 64
#: InstEvent names: of each kind-column value, and of the loop's
#: integer stall buckets (0 base, 1 frontend_bubbles, 2 memory,
#: 3 mispredict).
_KIND_NAMES = tuple(Kind(k).name for k in range(16))
_BUCKET_NAMES = ("base", "frontend_bubbles", "memory", "mispredict")


def _ports(count: int) -> List[float]:
    """A port group: each port's next free cycle, at least one port."""
    return [0.0] * max(1, count)


class CoreStats(StatsView):
    """Registry-backed view of the ``core.*`` stats hierarchy."""

    _FIELDS = {
        "instructions": "core.instructions",
        "cycles": "core.cycles",
        "loads": "core.loads",
        "stores": "core.stores",
        "branch_mispredicts": "core.branch_mispredicts",
        "fetch_bubble_cycles": "core.fetch.bubble_cycles",
        "mispredict_stall_cycles": "core.fetch.mispredict_stall_cycles",
        "icache_stall_cycles": "core.fetch.icache_stall_cycles",
        "cascaded_loads": "core.cascaded_loads",
        "zero_cycle_moves": "core.zero_cycle_moves",
        # Per-instruction CPI-stack stall attribution, folded into
        # counters at retire so windowed collection can bucket stalls
        # without tracing (same attribution as InstEvent.stall).
        "stall_mispredict_cycles": "core.stall.mispredict_cycles",
        "stall_frontend_cycles": "core.stall.frontend_cycles",
        "stall_memory_cycles": "core.stall.memory_cycles",
    }
    _DERIVED = {"ipc": "core.ipc"}
    _FORMULAS = (
        ("core.ipc", ("core.instructions", "core.cycles"), formulas.ipc),
        ("core.mpki", ("core.branch_mispredicts", "core.instructions"),
         formulas.mpki),
    )


class Scoreboard:
    """One core, one trace, one pass."""

    def __init__(self, config: GenerationConfig,
                 branch_unit: Optional[BranchUnit] = None,
                 memory: Optional[MemoryHierarchy] = None,
                 icache=None,
                 registry: Optional[MetricRegistry] = None,
                 sink: Optional[TraceSink] = None,
                 held: Optional[HeldEvents] = None,
                 on_branch: Optional[Callable[
                     [TraceRecord, int, Optional[UBTBNode]], None]] = None,
                 on_blocks: Optional[Callable[[int], None]] = None) -> None:
        self.config = config
        self.branch_unit = branch_unit
        self.memory = memory
        #: Optional per-block hook ``(record, absolute_index, ubtb_node)``
        #: the front-end pass calls after each branch, in stream order —
        #: the UOC mode machine.
        self.on_branch = on_branch
        #: Optional hook told how many blocks (branches) each front-end
        #: pass ended, before the loop runs its chunk — the fetch/decode
        #: energy without a UOC.
        self.on_blocks = on_blocks
        #: Optional event sink; ``None`` (the default) disables
        #: tracing at the cost of one branch per instruction.
        self.sink = sink
        #: The front end's events, held for the loop to forward to ``sink``.
        self.held = held
        #: Optional InstructionCache; fetch-group line crossings that miss
        #: stall the front end.
        self.icache = icache
        self.stats = CoreStats(registry)
        if icache is not None:
            # The gauges read the icache, not ``self``: the scoreboard
            # reaches the registry, so that would close a cycle.
            reg = self.stats.registry
            reg.gauge("core.icache.hits", lambda: icache.hits)
            reg.gauge("core.icache.misses", lambda: icache.misses)
            reg.gauge("core.icache.fill_stall_cycles",
                      lambda: icache.fill_stall_cycles)

        c = config
        self._simple = _ports(c.simple_alus + c.complex_alus
                              + c.complex_div_alus)
        self._complex = _ports(c.complex_alus + c.complex_div_alus)
        self._div = _ports(c.complex_div_alus)
        self._branch = _ports(c.branch_pipes + c.complex_alus
                              + c.complex_div_alus)
        self._load = _ports(c.load_pipes + c.generic_mem_pipes)
        self._store = _ports(c.store_pipes + c.generic_mem_pipes)
        self._fp = _ports(c.fp_pipes)
        self._fmac = _ports(c.fmac_pipes)

        # Resumable execution state: `run` works on local aliases of these
        # for speed and writes the scalars back when the segment ends, so
        # a checkpoint taken between `run` calls captures the in-flight
        # timing picture exactly (see ``state_dict``).
        self._completions: List[float] = [0.0] * _DEP_WINDOW  # ring buffer
        self._is_load_at: List[bool] = [False] * _DEP_WINDOW
        self._rob: List[float] = [0.0] * c.rob_size  # retire-time ring
        self._rob_pos = 0
        self._fetch_time = 0.0
        self._group_count = 0      # instructions in the current fetch group
        self._group_branches = 0   # branches predicted this fetch cycle
        self._last_completion = 0.0
        self._current_fetch_line = -1
        self._index = 0            # absolute instruction index across runs
        self._until_window = -1    # window countdown, carried across runs

    # -- helpers -------------------------------------------------------------

    def _dispatch_tables(self):
        """Per-kind latency and port tables for the ``kind`` column
        (memory kinds take their latency from the hierarchy)."""
        cfg = self.config
        zcm = cfg.has_zero_cycle_moves
        fmac, fmul, fadd = cfg.fp_latencies
        lat: List[float] = [_LAT_ALU] * 16  # branches: 1 cycle once issued
        lat[int(Kind.MOV)] = 0.0 if zcm else _LAT_ALU
        lat[int(Kind.MUL)] = _LAT_MUL
        lat[int(Kind.DIV)] = _LAT_DIV
        lat[int(Kind.FP_ADD)] = fadd
        lat[int(Kind.FP_MUL)] = fmul
        lat[int(Kind.FP_MAC)] = fmac
        port: List[Optional[List[float]]] = [self._branch] * 16
        port[int(Kind.ALU)] = self._simple
        port[int(Kind.NOP)] = self._simple
        port[int(Kind.MOV)] = None if zcm else self._simple
        port[int(Kind.MUL)] = self._complex
        port[int(Kind.DIV)] = self._div
        port[int(Kind.FP_ADD)] = self._fp
        port[int(Kind.FP_MUL)] = self._fp
        port[int(Kind.FP_MAC)] = self._fmac
        port[int(Kind.LOAD)] = self._load
        port[int(Kind.STORE)] = self._store
        return lat, port

    # -- the main loop -----------------------------------------------------------

    def run(self, trace: Union[Trace, CompiledTrace],
            on_window: Optional[Callable[[], None]] = None,
            window_interval: int = 0) -> CoreStats:
        """Simulate ``trace`` from where the previous segment stopped.

        A plain :class:`Trace` is compiled on entry.  The segment runs in
        chunks that end at window boundaries, the front-end pass first,
        so every counter a window reads is exact at its boundary.  The
        instruction counter is published only at window boundaries and
        at exit, where it is read.
        """
        if not isinstance(trace, CompiledTrace):
            trace = compile_trace(trace)
        cfg = self.config
        stats = self.stats
        c_instr = stats.cell("instructions")
        c_cycles = stats.cell("cycles")
        c_loads = stats.cell("loads")
        c_stores = stats.cell("stores")
        c_mispredicts = stats.cell("branch_mispredicts")
        c_bubbles = stats.cell("fetch_bubble_cycles")
        c_mp_stall = stats.cell("mispredict_stall_cycles")
        c_ic_stall = stats.cell("icache_stall_cycles")
        c_cascaded = stats.cell("cascaded_loads")
        c_zcm = stats.cell("zero_cycle_moves")
        c_st_mp = stats.cell("stall_mispredict_cycles")
        c_st_fe = stats.cell("stall_frontend_cycles")
        c_st_mem = stats.cell("stall_memory_cycles")

        lat_for, port_for = self._dispatch_tables()

        # Column aliases — the one decode happened in compile_trace.
        pcs = trace.pc
        kinds = trace.kind
        lines = trace.line
        s1s = trace.src1
        s2s = trace.src2
        addrs = trace.addr
        brs = trace.is_branch
        takens = trace.taken
        kload = int(Kind.LOAD)
        kstore = int(Kind.STORE)
        kdiv = int(Kind.DIV)

        fetch_width = cfg.fetch_width
        rob_size = cfg.rob_size
        l1_hit = cfg.l1_hit_latency
        mp_penalty = cfg.mispredict_penalty
        mp_penalty_f = float(mp_penalty)
        cascading = cfg.has_load_load_cascading
        icache = self.icache
        memory = self.memory
        branch_unit = self.branch_unit
        # Event sink (None = tracing off).  Tracing only *reads*
        # values the loop computed anyway, so attaching a sink never
        # changes simulated timing.
        trc = self.sink
        held = self.held

        # Local aliases of the resumable execution state (list state is
        # shared in place; scalars are written back after the loop).
        completions = self._completions  # ring buffer
        is_load_at = self._is_load_at
        rob = self._rob  # retire-time ring
        rob_pos = self._rob_pos
        fetch_time = self._fetch_time
        group_count = self._group_count
        group_branches = self._group_branches
        last_completion = self._last_completion
        current_fetch_line = self._current_fetch_line
        i = self._index
        # Window countdown; 0 disables windowing entirely.  The countdown
        # carries across run segments so a checkpoint/resume pair closes
        # windows at the same absolute instruction counts.
        windowing = window_interval > 0 and on_window is not None
        if windowing and self._until_window < 0:
            self._until_window = window_interval
        until_window = self._until_window if windowing else -1

        # Batched instruction counter: nothing reads it between window
        # boundaries, so the exact value is materialized only there.
        base_index = i
        base_instr = c_instr.value

        n = len(pcs)
        start = 0
        while start < n:
            stop = min(n, start + until_window) if windowing else n
            if branch_unit is not None:
                # One (mispredicted, bubbles) pair per branch (b).
                outcomes = branch_unit.resolve(
                    trace, start, stop, self.on_branch, base_index)
                if self.on_blocks is not None:
                    self.on_blocks(len(outcomes))
                b = 0

            for j in range(start, stop):
                k = kinds[j]
                ic_stall = 0.0

                # ---- fetch/dispatch supply -------------------------------
                if group_count >= fetch_width:
                    fetch_time += 1.0
                    group_count = 0
                    group_branches = 0
                if icache is not None:
                    line = lines[j]
                    if line != current_fetch_line:
                        current_fetch_line = line
                        stall = icache.fetch_line(pcs[j], now=fetch_time)
                        if stall:
                            fetch_time += stall
                            c_ic_stall.value += stall
                            group_count = 0
                            group_branches = 0
                            ic_stall = stall
                # `fetched` is the fetch supply before ROB backpressure.
                fetched = dispatch = fetch_time
                # ROB occupancy: the slot reused now must have retired.
                oldest = rob[rob_pos]
                if oldest > dispatch:
                    dispatch = oldest
                    fetch_time = oldest  # front end backs up behind the ROB
                    group_count = 0
                    group_branches = 0
                group_count += 1

                # ---- dependences (two source slots, unrolled) ------------
                ready = dispatch
                dist = s1s[j]
                if 0 < dist <= _DEP_WINDOW and dist <= i:
                    slot = (i - dist) % _DEP_WINDOW
                    t = completions[slot]
                    if cascading and k == kload and is_load_at[slot]:
                        # Load-load cascading: forwarded one cycle early.
                        t -= 1.0
                        c_cascaded.value += 1
                    if t > ready:
                        ready = t
                dist = s2s[j]
                if 0 < dist <= _DEP_WINDOW and dist <= i:
                    slot = (i - dist) % _DEP_WINDOW
                    t = completions[slot]
                    if cascading and k == kload and is_load_at[slot]:
                        t -= 1.0
                        c_cascaded.value += 1
                    if t > ready:
                        ready = t

                # ---- issue + execute -------------------------------------
                # At the group's first earliest-free port; a divide holds
                # its port for its whole latency (not pipelined).
                port = port_for[k]
                if port is None:
                    issue = ready
                    c_zcm.value += 1
                else:
                    t = min(port)
                    p = port.index(t)
                    issue = ready if ready > t else t
                    port[p] = issue + (_LAT_DIV if k == kdiv else 1.0)
                if k == kload:
                    c_loads.value += 1
                    if memory is not None:
                        latency = memory.access(pcs[j], addrs[j], now=issue,
                                                is_store=False)
                    else:
                        latency = l1_hit
                elif k == kstore:
                    c_stores.value += 1
                    if memory is not None:
                        memory.access(pcs[j], addrs[j], now=issue,
                                      is_store=True)
                    latency = 1.0  # store-buffer commit, off the critical path
                else:
                    latency = lat_for[k]
                completion = issue + latency
                slot = i % _DEP_WINDOW
                completions[slot] = completion
                is_load_at[slot] = k == kload

                # ---- retirement bookkeeping ------------------------------
                rob[rob_pos] = completion
                rob_pos = (rob_pos + 1) % rob_size
                if completion > last_completion:
                    last_completion = completion

                # ---- stall attribution (CPI-stack buckets) ---------------
                # Mirrors the interval model's CPI buckets; priority
                # mispredict > front end > memory.  Computed every retire
                # — the counters feed windowed stall buckets with tracing
                # off, and the same (bucket, stall) pair stamps the
                # InstEvent, so a trace histogram reconciles with the
                # counters exactly.
                bucket = 0  # base
                stall = 0.0
                if ic_stall:
                    bucket = 1  # frontend_bubbles
                    stall = ic_stall
                if k == kload:
                    exposed = latency - l1_hit
                    if exposed > stall:
                        bucket = 2  # memory
                        stall = exposed
                # ---- branch outcome from the front-end pass --------------
                elif brs[j]:
                    group_branches += 1
                    if branch_unit is not None:
                        mispredicted, bubbles = outcomes[b]
                        if bubbles > stall:
                            bucket = 1
                            stall = float(bubbles)
                        if mispredicted:
                            c_mispredicts.value += 1
                            restart = completion + mp_penalty
                            c_mp_stall.value += max(0.0, restart - fetch_time)
                            fetch_time = max(fetch_time, restart)
                            group_count = 0
                            group_branches = 0
                            bucket = 3  # mispredict
                            stall = mp_penalty_f
                        elif takens[j]:
                            if bubbles:
                                c_bubbles.value += bubbles
                                fetch_time += bubbles
                            # A taken branch ends the fetch group.
                            fetch_time += 1.0
                            group_count = 0
                            group_branches = 0
                        elif group_branches >= 2:
                            # Two predictions per cycle max; a second
                            # not-taken branch closes the group
                            # (Section IV-A's dual-prediction support).
                            fetch_time += 1.0
                            group_count = 0
                            group_branches = 0
                        b += 1
                    elif takens[j]:
                        fetch_time += 1.0
                        group_count = 0
                        group_branches = 0

                if stall:
                    if bucket == 3:
                        c_st_mp.value += stall
                    elif bucket == 1:
                        c_st_fe.value += stall
                    else:
                        c_st_mem.value += stall

                # ---- event trace -----------------------------------------
                if trc is not None:
                    if brs[j] and held:
                        # The branch's held event takes its resolve
                        # cycle; the UOC mode events it caused follow.
                        event = held.popleft()
                        event.cycle = completion
                        trc.emit(event)
                        while held and type(held[0]) is not BranchEvent:
                            trc.emit(held.popleft())
                    trc.emit(InstEvent(
                        seq=-1, cycle=completion, index=i, pc=pcs[j],
                        kind=_KIND_NAMES[k], fetch=fetched, dispatch=dispatch,
                        ready=ready, issue=issue, complete=completion,
                        retire=completion, stall=_BUCKET_NAMES[bucket],
                        stall_cycles=float(stall)))

                i += 1
            # ---- metrics window boundary ---------------------------------
            if windowing:
                until_window -= stop - start
                if until_window == 0:
                    until_window = window_interval
                    # Publish the instruction count and a provisional
                    # cycle count so the window delta sees them; both are
                    # overwritten at later boundaries and at end of run,
                    # so timing is unaffected.
                    c_instr.value = base_instr + (i - base_index)
                    c_cycles.value = max(last_completion, fetch_time, 1.0)
                    on_window()
            start = stop

        # Write the scalar execution state back for checkpoint/resume.
        self._rob_pos = rob_pos
        self._fetch_time = fetch_time
        self._group_count = group_count
        self._group_branches = group_branches
        self._last_completion = last_completion
        self._current_fetch_line = current_fetch_line
        self._index = i
        if windowing:
            self._until_window = until_window
        c_instr.value = base_instr + (i - base_index)
        c_cycles.value = max(last_completion, fetch_time, 1.0)
        return stats

    # -- checkpointing (state_dict protocol) --------------------------------
    # The branch unit, memory hierarchy, icache, registry and sink are
    # wired in by the owner (the simulator) and checkpointed there; this
    # covers only the scoreboard's own in-flight timing state.  Port free
    # times and completion rings are absolute cycle floats, so a restored
    # scoreboard continues on the same timeline.

    _PORT_GROUPS = ("_simple", "_complex", "_div", "_branch", "_load",
                    "_store", "_fp", "_fmac")

    def state_dict(self) -> dict[str, object]:
        return {
            "ports": {name: list(getattr(self, name))
                      for name in self._PORT_GROUPS},
            "completions": list(self._completions),
            "is_load_at": list(self._is_load_at),
            "rob": list(self._rob),
            "rob_pos": self._rob_pos,
            "fetch_time": self._fetch_time,
            "group_count": self._group_count,
            "group_branches": self._group_branches,
            "last_completion": self._last_completion,
            "current_fetch_line": self._current_fetch_line,
            "index": self._index,
            "until_window": self._until_window,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        for name in self._PORT_GROUPS:
            group = getattr(self, name)
            free = state["ports"][name]
            if len(free) != len(group):
                raise ValueError(
                    f"scoreboard: port group {name} has {len(group)} "
                    f"ports, checkpoint has {len(free)}")
            group[:] = [float(t) for t in free]
        if len(state["rob"]) != len(self._rob):
            raise ValueError(
                f"scoreboard: ROB size {len(self._rob)} != checkpoint "
                f"{len(state['rob'])}")
        self._completions[:] = [float(t) for t in state["completions"]]
        self._is_load_at[:] = [bool(b) for b in state["is_load_at"]]
        self._rob[:] = [float(t) for t in state["rob"]]
        self._rob_pos = int(state["rob_pos"])
        self._fetch_time = float(state["fetch_time"])
        self._group_count = int(state["group_count"])
        self._group_branches = int(state["group_branches"])
        self._last_completion = float(state["last_completion"])
        self._current_fetch_line = int(state["current_fetch_line"])
        self._index = int(state["index"])
        self._until_window = int(state["until_window"])
