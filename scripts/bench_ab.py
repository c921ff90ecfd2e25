#!/usr/bin/env python
"""Paired A/B comparison of perfbench's end-to-end metrics: a base
commit against the working tree.

Extracts BASE's committed files with ``git archive`` into a temporary
directory, then runs ``perfbench/run.py --trace 0`` on each side for
``--pairs`` pairs, flipping which side runs first in each pair, since
the host's speed drifts over minutes.  For each end-to-end metric it
prints both sides' medians and quartiles, the pairs the working tree
won, the paired sign-flip p-value
(``repro.metrics.regress.permutation_pvalue``) and whether the median
moved past the metric's ``BENCHMARK.json`` bound.  It removes the
extracted copy on exit.  Run from anywhere inside the repository::

    python scripts/bench_ab.py HEAD~1 --workload frontend_bound \\
        --pairs 10 --seed 1 --seconds 30

It exits 1 when a run is not ``correct`` or fails a task, or when a
metric regressed: its median moved past the bound in the worse
direction and the paired test is significant (p < 0.05).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Significance level of the paired test for a regression verdict.
ALPHA = 0.05


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``root``; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_ab: {' '.join(cmd)} in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: Dict[str, List[dict]], bounds: List[dict]
              ) -> List[dict]:
    """Per end-to-end metric: both sides' quartiles, pairs won, the
    paired p-value and the bound verdict."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.metrics.regress import permutation_pvalue

    rows = []
    for spec in bounds:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        deltas = [c - b for b, c in zip(base, change)]
        won = sum(1 for d in deltas if (d > 0 if higher else d < 0))
        qb, qc = quartiles(base), quartiles(change)
        moved = (qc[1] - qb[1]) / qb[1] if qb[1] else 0.0
        past = "no"
        if abs(moved) > spec["bound"]:
            past = "better" if (moved > 0) == higher else "worse"
        p = permutation_pvalue(deltas)
        rows.append({"metric": name, "unit": spec["unit"], "base": qb,
                     "change": qc, "ratio": 1.0 + moved, "won": won,
                     "pairs": len(deltas), "p": p, "past_bound": past,
                     "regressed": past == "worse" and p < ALPHA})
    return rows


def render(rows: List[dict]) -> str:
    out = ["| metric | base median [IQR] | change median [IQR] | "
           "change/base | pairs change better | p | past bound |",
           "|---|---|---|---|---|---|---|"]
    for r in rows:
        b, c = r["base"], r["change"]
        out.append(
            f"| {r['metric']} ({r['unit']}) | {b[1]:.4g} [{b[0]:.4g}–"
            f"{b[2]:.4g}] | {c[1]:.4g} [{c[0]:.4g}–{c[2]:.4g}] | "
            f"{r['ratio']:.3f} | {r['won']}/{r['pairs']} | {r['p']:.4f} | "
            f"{'REGRESSED' if r['regressed'] else r['past_bound']} |")
    return "\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="commit to compare against (BASE)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", type=Path,
                        help="also write every run's result here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    base_root = tmp / "base"
    runs: Dict[str, List[dict]] = {"base": [], "change": []}
    try:
        base_root.mkdir()
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_root)], input=archive,
                       check=True)
        sides = {"base": base_root, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change",
                                                             "base")
            for side in order:
                runs[side].append(perfbench(sides[side], args.workload,
                                            args.seed, args.seconds))
            kips = {s: runs[s][-1]["metrics"]["kips"]["value"]
                    for s in order}
            print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): kips "
                  f"base {kips['base']:.1f}, change {kips['change']:.1f}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rows = summarize(runs, bench["end_to_end"])
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs "
          f"of --seconds {args.seconds:g}: base {args.base} vs the "
          f"working tree")
    print(render(rows))
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"base": args.base, "workload": args.workload,
             "seed": args.seed, "runs": runs, "summary": rows}, indent=1))
    bad = [f"{side} run {i + 1}: correct {r['correct']}, "
           f"{r['failed']}/{r['attempted']} failed"
           for side, rs in runs.items() for i, r in enumerate(rs)
           if not r["correct"] or r["failed"]]
    for line in bad:
        print(f"bench_ab: {line}", file=sys.stderr)
    return 1 if bad or any(r["regressed"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
