"""Statistical regression sentinel over population archives.

``repro metrics --diff`` compares two single-run stat dumps key by key;
this module compares whole *population* archives — every
(generation x trace) cell of the paper's suite — and decides, with a
significance filter, whether the current archive is a regression worth
failing CI over (``python -m repro regress BASELINE.json CURRENT.json``,
exit code 1 on significant regression).

The filter is a paired sign-flip permutation test over the per-window
metric deltas of each cell (schema >= 2 archives carry per-interval
window series; see :mod:`repro.metrics.windows`).  A scalar move that
is not supported by a consistent shift across the run's windows — e.g.
float dust, or a doctored summary value with untouched series — yields
a permutation p-value near 1 and is suppressed.  Cells without window
series (schema-1 rows, ledger summaries) are judged on the scalar
threshold alone.

Everything here is a pure function of the input documents plus an
explicit ``seed`` (the permutation RNG is :class:`random.Random`, per
simlint SIM001), so reports are deterministic and safe to pin in
golden tests.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .windows import WindowSample

#: Version of the regress report document.
REGRESS_SCHEMA_VERSION = 1

#: Metric -> direction sign: +1 means higher is better (a drop is a
#: regression), -1 means lower is better (a rise is a regression).
REGRESSION_METRICS: Dict[str, int] = {
    "ipc": +1,
    "mpki": -1,
    "average_load_latency": -1,
    "bubbles_per_branch": -1,
    "cpi_base": -1,
    "cpi_mispredict": -1,
    "cpi_frontend": -1,
    "cpi_memory": -1,
}

#: Metrics with a per-window time series (the permutation test's
#: paired samples); the cpi_* stack is whole-run-only.
WINDOW_METRICS = ("ipc", "mpki", "average_load_latency")

#: Default two-sided significance level for the permutation test.
DEFAULT_ALPHA = 0.05
#: Default minimum relative move before a cell can regress (0.5%).
DEFAULT_MIN_REL = 0.005
#: Default number of sign-flip permutations.
DEFAULT_PERMUTATIONS = 2000
#: Default RNG seed (matches the simulator's paper-wide seed).
DEFAULT_SEED = 2020


# ---------------------------------------------------------------------------
# Input adaptation: archives and ledger records -> plain metric rows
# ---------------------------------------------------------------------------

def population_rows(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Normalise a population document into per-slice metric rows.

    Accepts a saved archive (``{"schema": ..., "metrics": [...]}``, as
    written by ``population --save`` / ``population_to_json``) or a
    ledger record of kind ``"population"`` (whose ``summary.slices``
    rows carry scalars but no windows).  Raises ``ValueError`` for
    anything else.
    """
    if isinstance(doc.get("metrics"), list):
        rows = []
        for row in doc["metrics"]:
            if not isinstance(row, dict):
                raise ValueError("archive metrics rows must be dicts")
            rows.append(dict(row))
        return rows
    if doc.get("kind") == "population":
        slices = (doc.get("summary", {}) or {}).get("slices", []) or []
        rows = []
        for row in slices:
            row = dict(row)
            row.setdefault("trace_name", row.pop("trace", None))
            rows.append(row)
        return rows
    raise ValueError(
        "not a population document: expected an archive with a "
        "'metrics' list or a ledger record of kind 'population'")


def _row_key(row: Dict[str, Any]) -> Tuple[str, str]:
    return (str(row.get("generation")),
            str(row.get("trace_name", row.get("trace"))))


def _window_series(row: Dict[str, Any], attr: str) -> List[float]:
    windows = row.get("windows") or []
    out: List[float] = []
    for w in windows:
        sample = w if isinstance(w, WindowSample) else WindowSample.from_dict(w)
        out.append(float(sample.metric(attr)))
    return out


# ---------------------------------------------------------------------------
# The significance filter
# ---------------------------------------------------------------------------

def permutation_pvalue(deltas: Sequence[float],
                       permutations: int = DEFAULT_PERMUTATIONS,
                       seed: Any = DEFAULT_SEED) -> float:
    """Paired sign-flip permutation p-value for mean(deltas) != 0.

    Under the null hypothesis (no systematic shift between the paired
    window series) each delta's sign is arbitrary; the p-value is the
    fraction of random sign assignments whose |mean| reaches the
    observed |mean|, with the +1 add-one correction so p is never 0.
    An all-zero delta vector returns 1.0 — no evidence of any shift.
    """
    values = [float(d) for d in deltas]
    if not values or all(v == 0.0 for v in values):
        return 1.0
    observed = abs(math.fsum(values) / len(values))
    rng = random.Random(seed)
    hits = 0
    for _ in range(max(1, int(permutations))):
        total = math.fsum(v if rng.random() < 0.5 else -v for v in values)
        if abs(total / len(values)) >= observed:
            hits += 1
    return (hits + 1) / (max(1, int(permutations)) + 1)


def window_delta_pvalue(base_row: Dict[str, Any],
                        current_row: Dict[str, Any], metric: str,
                        permutations: int = DEFAULT_PERMUTATIONS,
                        seed: Any = DEFAULT_SEED) -> Optional[float]:
    """Permutation p-value over a cell's paired window deltas, or
    ``None`` when either side lacks a usable series (no windows, or a
    length mismatch making the pairing meaningless)."""
    evidence = window_evidence(base_row, current_row, metric,
                               permutations=permutations, seed=seed)
    return None if evidence is None else evidence["p_value"]


def window_evidence(base_row: Dict[str, Any],
                    current_row: Dict[str, Any], metric: str,
                    permutations: int = DEFAULT_PERMUTATIONS,
                    seed: Any = DEFAULT_SEED) -> Optional[Dict[str, Any]]:
    """Everything the verdict needs from a cell's window series.

    Returns ``None`` when either side lacks a usable series (no
    windows, or a length mismatch making the pairing meaningless);
    otherwise ``{"n", "p_value", "all_zero", "mean_delta",
    "consistent"}`` where ``consistent`` is True when every nonzero
    window delta shares one sign — the fallback criterion for series
    too short for a sign-flip test to ever reach a typical alpha
    (min achievable two-sided p is ~``0.5**n``).
    """
    if metric not in WINDOW_METRICS:
        return None
    base = _window_series(base_row, metric)
    cur = _window_series(current_row, metric)
    if not base or not cur or len(base) != len(cur):
        return None
    deltas = [b - a for a, b in zip(base, cur)]
    nonzero = [d for d in deltas if d != 0.0]
    return {
        "n": len(deltas),
        "p_value": permutation_pvalue(deltas, permutations=permutations,
                                      seed=seed),
        "all_zero": not nonzero,
        "mean_delta": math.fsum(deltas) / len(deltas),
        "consistent": bool(nonzero) and (all(d > 0 for d in nonzero)
                                         or all(d < 0 for d in nonzero)),
    }


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

def compare_populations(base_rows: Sequence[Dict[str, Any]],
                        current_rows: Sequence[Dict[str, Any]], *,
                        metrics: Optional[Sequence[str]] = None,
                        alpha: float = DEFAULT_ALPHA,
                        min_rel: float = DEFAULT_MIN_REL,
                        permutations: int = DEFAULT_PERMUTATIONS,
                        seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """Per-(generation x trace) delta matrix with regression verdicts.

    A cell *regresses* on a metric when the scalar moved at least
    ``min_rel`` in that metric's bad direction (:data:`REGRESSION_METRICS`)
    AND the windowed permutation test either supports the move
    (p <= ``alpha``) or is unavailable for that cell.  Improvements are
    flagged symmetrically for reporting but never affect the verdict.
    """
    chosen = list(metrics) if metrics else list(REGRESSION_METRICS)
    for name in chosen:
        if name not in REGRESSION_METRICS:
            raise ValueError(f"unknown regression metric {name!r} "
                             f"(known: {', '.join(REGRESSION_METRICS)})")
    base_map = {_row_key(r): r for r in base_rows}
    cur_map = {_row_key(r): r for r in current_rows}
    shared = sorted(set(base_map) & set(cur_map))

    cells: List[Dict[str, Any]] = []
    regressions = improvements = 0
    for gen, trace in shared:
        row_a, row_b = base_map[(gen, trace)], cur_map[(gen, trace)]
        for metric in chosen:
            va, vb = row_a.get(metric), row_b.get(metric)
            if not isinstance(va, (int, float)) \
                    or not isinstance(vb, (int, float)) \
                    or isinstance(va, bool) or isinstance(vb, bool):
                continue
            delta = vb - va
            rel = (delta / abs(va)) if va else None
            direction = REGRESSION_METRICS[metric]
            bad_move = direction * delta < 0
            exceeds = rel is not None and abs(rel) >= min_rel
            p_value = None
            significant = True
            if exceeds:
                evidence = window_evidence(
                    row_a, row_b, metric, permutations=permutations,
                    seed=f"{seed}:{gen}:{trace}:{metric}")
                if evidence is not None:
                    p_value = evidence["p_value"]
                    if evidence["all_zero"]:
                        # identical series under a moved scalar: the
                        # move is dust (or doctoring) — suppress.
                        significant = False
                    elif 0.5 ** evidence["n"] <= alpha:
                        significant = p_value <= alpha
                    else:
                        # too few windows for the sign-flip test to
                        # ever reach alpha: fall back to requiring a
                        # uniformly-signed shift across the series.
                        significant = evidence["consistent"]
            regressed = bool(bad_move and exceeds and significant)
            improved = bool((not bad_move) and delta != 0
                            and exceeds and significant)
            regressions += regressed
            improvements += improved
            cells.append({
                "generation": gen,
                "trace": trace,
                "metric": metric,
                "base": va,
                "current": vb,
                "delta": delta,
                "rel": rel,
                "p_value": p_value,
                "regressed": regressed,
                "improved": improved,
            })

    return {
        "schema": REGRESS_SCHEMA_VERSION,
        "params": {
            "metrics": chosen,
            "alpha": alpha,
            "min_rel": min_rel,
            "permutations": permutations,
            "seed": seed,
        },
        "cells": cells,
        "only_base": sorted(f"{g}/{t}" for g, t in set(base_map) - set(cur_map)),
        "only_current": sorted(f"{g}/{t}"
                               for g, t in set(cur_map) - set(base_map)),
        "summary": {
            "cells_compared": len(cells),
            "slices_compared": len(shared),
            "regressions": regressions,
            "improvements": improvements,
        },
        "regressed": regressions > 0,
    }


def regress_exit_code(report: Dict[str, Any]) -> int:
    """CI gate: 1 when the report contains a significant regression."""
    return 1 if report.get("regressed") else 0


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _format_cell(cell: Dict[str, Any]) -> str:
    rel = cell["rel"]
    rel_text = f"{rel * 100:+7.2f}%" if rel is not None else "    n/a "
    p = cell["p_value"]
    p_text = f" p={p:.4f}" if p is not None else ""
    flag = " REGRESSED" if cell["regressed"] else (
        " improved" if cell["improved"] else "")
    return (f"{cell['generation']:<4s} {cell['trace']:<28s} "
            f"{cell['metric']:<20s} {cell['base']:>12.6g} -> "
            f"{cell['current']:>12.6g}  {rel_text}{p_text}{flag}")


def render_regress(report: Dict[str, Any], top: int = 10) -> str:
    """Human summary of one :func:`compare_populations` report: the
    verdict, every regression/improvement, then the ``top`` largest
    remaining movers (0 = none)."""
    lines: List[str] = []
    s = report["summary"]
    verdict = ("REGRESSION" if report["regressed"] else "ok")
    lines.append(f"regress: {verdict} — {s['regressions']} regressed, "
                 f"{s['improvements']} improved of {s['cells_compared']} "
                 f"cells across {s['slices_compared']} slices")
    p = report["params"]
    lines.append(f"  filter: min_rel={p['min_rel']:g} alpha={p['alpha']:g} "
                 f"permutations={p['permutations']} seed={p['seed']}")
    flagged = [c for c in report["cells"] if c["regressed"] or c["improved"]]
    for cell in flagged:
        lines.append("  " + _format_cell(cell))
    if top > 0:
        rest = [c for c in report["cells"]
                if not (c["regressed"] or c["improved"]) and c["delta"] != 0]
        rest.sort(key=lambda c: (-(abs(c["rel"]) if c["rel"] is not None
                                   else float("inf")),
                                 c["generation"], c["trace"], c["metric"]))
        shown = rest[:top]
        if shown:
            lines.append(f"  top {len(shown)} sub-threshold movers:")
            for cell in shown:
                lines.append("    " + _format_cell(cell))
    for side, label in (("only_base", "only in baseline"),
                        ("only_current", "only in current")):
        if report[side]:
            lines.append(f"  {label}: {', '.join(report[side])}")
    return "\n".join(lines)
