"""Tracing-layer acceptance: event capture costs nothing when off.

Pipeline tracing is opt-in: every emission site is guarded by a single
``if sink is not None`` on a local alias, so a run without a sink must
go as fast as the same loop with the tracing code taken out.  The
baseline is exactly that: a copy of the shipped ``Scoreboard.run``
whose ``if trc is not None:`` block an AST rewrite has removed.  The
two arms run interleaved, in alternating order, and the best time of
each is compared against a 2% budget, so host drift and scheduler noise
hit both arms alike.  A second test bounds the enabled-mode cost so
capture stays usable on full-length traces.
"""

import ast
import inspect
import textwrap
import time
import types

from repro.config import get_generation
from repro.core import GenerationSimulator
from repro.core import scoreboard as scoreboard_mod
from repro.observe import TraceSink
from repro.traces import make_trace

TRIALS = 5
LENGTH = 60_000
MAX_DISABLED_OVERHEAD = 0.02
MAX_ENABLED_OVERHEAD = 2.50


class _StripTraceBlocks(ast.NodeTransformer):
    """Drops every ``if trc is not None:`` statement."""

    removed = 0

    def visit_If(self, node):
        test = node.test
        if (isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id == "trc"
                and isinstance(test.ops[0], ast.IsNot)):
            self.removed += 1
            return None
        return self.generic_visit(node)


def _untraced_scoreboard_run():
    """``Scoreboard.run`` compiled without its tracing block, with the
    module's globals, so every other name resolves to the same object."""
    source = textwrap.dedent(inspect.getsource(
        scoreboard_mod.Scoreboard.run))
    stripper = _StripTraceBlocks()
    tree = ast.fix_missing_locations(stripper.visit(ast.parse(source)))
    assert stripper.removed == 1, (
        f"expected one `if trc is not None:` block in Scoreboard.run, "
        f"found {stripper.removed}")
    namespace = dict(vars(scoreboard_mod))
    exec(compile(tree, scoreboard_mod.__file__, "exec"), namespace)
    return namespace["run"]


def _timed(sim_factory, trace):
    sim = sim_factory()
    t0 = time.perf_counter()
    sim.run(trace, window_interval=0)
    return time.perf_counter() - t0


def _best_of(sim_factory, trace):
    return min(_timed(sim_factory, trace) for _ in range(TRIALS))


def test_disabled_tracing_overhead_within_2pct():
    # loop_kernel on M6 is the worst case: the highest event density per
    # wall-clock second (tight loops, uop-cache mode machine active), so
    # the per-iteration None check is the largest fraction of the run.
    trace = make_trace("loop_kernel", seed=3, n_instructions=LENGTH)
    config = get_generation("M6")
    stripped_run = _untraced_scoreboard_run()

    def shipped():
        return GenerationSimulator(config)

    def stripped():
        sim = GenerationSimulator(config)
        sim.scoreboard.run = types.MethodType(stripped_run, sim.scoreboard)
        return sim

    assert (stripped().run(trace).metrics.as_dict()
            == shipped().run(trace).metrics.as_dict())
    times = {shipped: [], stripped: []}
    for trial in range(TRIALS):
        order = (shipped, stripped) if trial % 2 == 0 else (stripped, shipped)
        for factory in order:
            times[factory].append(_timed(factory, trace))
    shipped_s, stripped_s = min(times[shipped]), min(times[stripped])

    overhead = shipped_s / stripped_s - 1.0
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"untraced shipped run {shipped_s:.3f}s is {overhead:.1%} slower "
        f"than the loop without its tracing block {stripped_s:.3f}s "
        f"(budget {MAX_DISABLED_OVERHEAD:.0%})")


def test_enabled_tracing_cost_is_bounded():
    trace = make_trace("loop_kernel", seed=3, n_instructions=LENGTH)
    config = get_generation("M6")
    plain_factory = lambda: GenerationSimulator(config)  # noqa: E731
    traced_factory = lambda: GenerationSimulator(  # noqa: E731
        config, trace_sink=TraceSink())

    _best_of(plain_factory, trace)  # warm up
    plain = _best_of(plain_factory, trace)
    traced = _best_of(traced_factory, trace)

    overhead = traced / plain - 1.0
    assert overhead <= MAX_ENABLED_OVERHEAD, (
        f"tracing-enabled run {traced:.3f}s is {overhead:.1%} slower than "
        f"plain {plain:.3f}s (budget {MAX_ENABLED_OVERHEAD:.0%})")
