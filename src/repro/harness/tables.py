"""Text renderers for the paper's tables (I, II, III, IV).

Each ``table_*`` function returns the rows as data; each ``render_*``
function formats them like the paper prints them, with paper-published
values alongside our measured/computed ones where applicable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import GENERATION_ORDER, all_generations
from ..engine import PopulationResult, run_population
from ..frontend.storage import PAPER_TABLE2, generation_budget

#: Table IV as published (average load latency, cycles).
PAPER_TABLE4: Dict[str, float] = {
    "M1": 14.9, "M2": 13.8, "M3": 12.8, "M4": 11.1, "M5": 9.5, "M6": 8.3,
}

#: Table III as published (L2 / L3 sizes).
PAPER_TABLE3: Dict[str, Dict[str, Optional[int]]] = {
    "M1": {"l2_kb": 2048, "l3_kb": None},
    "M2": {"l2_kb": 2048, "l3_kb": None},
    "M3": {"l2_kb": 512, "l3_kb": 4096},
    "M4": {"l2_kb": 1024, "l3_kb": 3072},
    "M5": {"l2_kb": 2048, "l3_kb": 3072},
    "M6": {"l2_kb": 2048, "l3_kb": 4096},
}


def table1_features() -> List[Dict[str, str]]:
    """Table I: microarchitectural feature comparison (from configs)."""
    rows = []
    for g in all_generations():
        rows.append({
            "core": g.name,
            "process": g.process_node,
            "freq_ghz": f"{g.product_frequency_ghz:.1f}",
            "l1i": f"{g.l1i.size_kib}KB {g.l1i.ways}w",
            "l1d": f"{g.l1d.size_kib}KB {g.l1d.ways}w",
            "l2": f"{g.l2.size_kib}KB {g.l2.ways}w",
            "l2_shared_by": str(g.l2_shared_by),
            "l3": (f"{g.l3.size_kib}KB {g.l3.ways}w {g.l3.banks}bank"
                   if g.l3 else "-"),
            "width": str(g.width),
            "rob": str(g.rob_size),
            "int_prf": str(g.int_prf),
            "fp_prf": str(g.fp_prf),
            "mispredict_penalty": str(g.mispredict_penalty),
            "l1_hit": (f"{g.l1_cascade_latency:.0f} or {g.l1_hit_latency:.0f}"
                       if g.l1_cascade_latency else f"{g.l1_hit_latency:.0f}"),
            "l2_avg": f"{g.l2_avg_latency:g}",
            "l3_avg": f"{g.l3_avg_latency:g}" if g.l3_avg_latency else "-",
        })
    return rows


def render_table1() -> str:
    rows = table1_features()
    keys = list(rows[0].keys())
    out = ["TABLE I - MICROARCHITECTURAL FEATURE COMPARISON"]
    header = f"{'feature':20s}" + "".join(f"{r['core']:>14s}" for r in rows)
    out.append(header)
    for k in keys[1:]:
        out.append(f"{k:20s}" + "".join(f"{r[k]:>14s}" for r in rows))
    return "\n".join(out)


def table2_storage() -> List[Dict[str, float]]:
    """Table II: predictor storage, computed vs paper."""
    rows = []
    for g in all_generations():
        b = generation_budget(g)
        p = PAPER_TABLE2[g.name]
        rows.append({
            "core": g.name,
            "shp_kb": b.shp_kb, "shp_paper": p["shp"],
            "l1btb_kb": b.l1btb_kb, "l1btb_paper": p["l1btb"],
            "l2btb_kb": b.l2btb_kb, "l2btb_paper": p["l2btb"],
            "total_kb": b.total_kb, "total_paper": p["total"],
        })
    return rows


def render_table2() -> str:
    out = ["TABLE II - BRANCH PREDICTOR STORAGE, IN KBYTES (ours / paper)"]
    out.append(f"{'core':6s}{'SHP':>16s}{'L1BTBs':>16s}"
               f"{'L2BTB':>16s}{'Total':>18s}")
    for r in table2_storage():
        out.append(
            f"{r['core']:6s}"
            f"{r['shp_kb']:7.1f}/{r['shp_paper']:<7.1f}"
            f"{r['l1btb_kb']:7.1f}/{r['l1btb_paper']:<7.1f}"
            f"{r['l2btb_kb']:7.1f}/{r['l2btb_paper']:<7.1f}"
            f"{r['total_kb']:8.1f}/{r['total_paper']:<8.1f}"
        )
    return "\n".join(out)


def table3_hierarchy() -> List[Dict[str, Optional[int]]]:
    """Table III: cache hierarchy sizes, config vs paper."""
    rows = []
    for g in all_generations():
        p = PAPER_TABLE3[g.name]
        rows.append({
            "core": g.name,
            "l2_kb": g.l2.size_kib,
            "l2_paper": p["l2_kb"],
            "l3_kb": g.l3.size_kib if g.l3 else None,
            "l3_paper": p["l3_kb"],
        })
    return rows


def render_table3() -> str:
    out = ["TABLE III - EVOLUTION OF CACHE HIERARCHY SIZES (ours / paper)"]
    out.append(f"{'core':6s}{'L2':>16s}{'L3':>16s}")
    for r in table3_hierarchy():
        l3 = f"{r['l3_kb']}" if r["l3_kb"] else "-"
        l3p = f"{r['l3_paper']}" if r["l3_paper"] else "-"
        out.append(f"{r['core']:6s}{r['l2_kb']:>7d}/{r['l2_paper']:<8d}"
                   f"{l3:>7s}/{l3p:<8s}")
    return "\n".join(out)


def table4_load_latency(population: Optional[PopulationResult] = None
                        ) -> List[Dict[str, float]]:
    """Table IV: generational average load latencies, measured vs paper."""
    pop = population if population is not None else run_population()
    rows = []
    for name in GENERATION_ORDER:
        rows.append({
            "core": name,
            "avg_load_latency": pop.mean(name, "average_load_latency"),
            "paper": PAPER_TABLE4[name],
        })
    return rows


def render_table4(population: Optional[PopulationResult] = None) -> str:
    rows = table4_load_latency(population)
    out = ["TABLE IV - GENERATIONAL AVERAGE LOAD LATENCIES (ours / paper)"]
    out.append("".join(f"{r['core']:>14s}" for r in rows))
    out.append("".join(
        f"{r['avg_load_latency']:7.1f}/{r['paper']:<6.1f}" for r in rows))
    return "\n".join(out)
