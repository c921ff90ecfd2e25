#!/usr/bin/env python
"""Count the calls one warm serial perfbench pass makes per simulated
instruction, in total and per ``repro`` subpackage.

A call count does not drift with the host's speed, so it can show a
change of a few percent that paired timings cannot resolve.  The script
prepares a serial workload's first ``--slices`` slices, runs one pass
over them to build every per-trace row (as perfbench's timed passes
after the first find them), then runs one more pass under cProfile::

    python scripts/callcount.py --workload frontend_bound --slices 8

It reuses ``perfbench/run.py``'s ``WORKLOADS``, ``slice_specs``,
``prepare`` and ``serial_pass`` unchanged, runs perfbench's default
seed, checks every task's digest against the committed reference
digests the way perfbench does, and exits 1 on any mismatch.  The
``builtins`` row counts calls into C functions and methods (``len``,
``list.append``, ...), the ``other`` row Python functions outside
``repro``.  A ``gc.callbacks`` hook also counts the cyclic garbage
collector's collections during the profiled pass and the objects they
freed: objects only that collector can free, such as a dropped
simulator caught in a reference cycle.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib.util
import pstats
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench():
    """``perfbench/run.py`` as a module, with the simulator imported
    from this checkout's ``src/``."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    module.import_simulator()
    return module


def group_of(filename: str, package: Path) -> str:
    """The ``repro`` subpackage (or top-level module) defining a
    profiled function; ``builtins`` for C functions, else ``other``."""
    if filename == "~" or filename.startswith("<"):
        return "builtins"
    try:
        rel = Path(filename).resolve().relative_to(package)
    except ValueError:
        return "other"
    return rel.parts[0].removesuffix(".py")


class GcCount:
    """A ``gc.callbacks`` hook: the cyclic collector's collections and
    the objects they freed."""

    def __init__(self) -> None:
        self.collections = 0
        self.collected = 0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "stop":
            self.collections += 1
            self.collected += info["collected"]


def count_calls(profile: cProfile.Profile, package: Path) -> Counter:
    calls: Counter = Counter()
    for (filename, _, _), (_, ncalls, _, _, _) in \
            pstats.Stats(profile).stats.items():
        calls[group_of(filename, package)] += ncalls
    return calls


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--slices", type=int, default=None,
                        help="the workload's first N slices (default all)")
    args = parser.parse_args(argv)

    bench = load_perfbench()
    workload = bench.WORKLOADS.get(args.workload)
    if workload is None or not workload.families:
        serial = sorted(n for n, w in bench.WORKLOADS.items() if w.families)
        parser.error(f"--workload must be a serial workload: {serial}")
    seed = bench.DEFAULT_SEED
    specs = bench.slice_specs(workload, seed)[:args.slices]
    checker = bench.Checker(bench.load_reference(workload.name, seed))
    iso = bench.Isolation()
    collector = GcCount()
    try:
        iso.fresh()
        prepared = bench.prepare(specs)
        bench.serial_pass(specs, prepared, checker)
        profile = cProfile.Profile()
        gc.callbacks.append(collector)
        profile.enable()
        done = bench.serial_pass(specs, prepared, checker)
        profile.disable()
    finally:
        if collector in gc.callbacks:
            gc.callbacks.remove(collector)
        iso.close()

    import repro

    calls = count_calls(profile, Path(repro.__file__).resolve().parent)
    instructions = done.instructions
    print(f"workload {workload.name}, seed {seed}, {len(specs)} slices x "
          f"{len(done.sizes) // max(1, len(specs))} generations: "
          f"{instructions} simulated instructions in the profiled pass")
    rows: Dict[str, int] = dict(calls.most_common())
    width = max(len(name) for name in rows) if rows else 5
    print(f"{'calls':<{width}}  {'per instr':>9}  {'total':>10}")
    for name, n in rows.items():
        print(f"{name:<{width}}  {n / instructions:>9.2f}  {n:>10d}")
    total = sum(rows.values())
    print(f"{'total':<{width}}  {total / instructions:>9.2f}  {total:>10d}")
    print(f"cyclic GC in the profiled pass: {collector.collections} "
          f"collections, {collector.collected} objects collected")
    if checker.failed:
        for line in checker.errors:
            print(f"callcount: digest mismatch: {line}", file=sys.stderr)
        print(f"callcount: {checker.failed}/{checker.attempted} tasks did "
              f"not match their digests", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
