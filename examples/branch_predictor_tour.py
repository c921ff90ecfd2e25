#!/usr/bin/env python3
"""A tour of the branch prediction stack (paper Section IV).

Walks through the individual mechanisms on targeted microkernels:

1. SHP direction prediction and the always-taken filter (Fig. 1 context);
2. the mBTB's 8-branches-per-line organisation and vBTB spill (Fig. 2);
3. VPC indirect chains and M6's target-history hash (Figs. 3 and 8);
4. the uBTB graph locking onto a tight loop (Fig. 4);
5. ZAT/ZOT zero-bubble redirects (Fig. 5).

Run:  python examples/branch_predictor_tour.py
"""

from repro.config import get_generation
from repro.frontend import (
    BranchUnit,
    BTBHierarchy,
    ScaledHashedPerceptron,
    VPCPredictor,
)
from repro.traces import Kind, Trace, TraceRecord, make_trace


def shp_demo() -> None:
    print("== 1. Scaled Hashed Perceptron ==")
    shp = ScaledHashedPerceptron(8, 1024, ghist_bits=165, phist_bits=80)
    # A TTN loop pattern: learnable from global history.
    correct = 0
    pattern = [True, True, False] * 200
    for taken in pattern:
        pred = shp.predict(0x4000)  # (taken, sum, table rows)
        correct += pred[0] == taken
        shp.update(0x4000, taken, pred)
        shp.push_history(0x4000, True, taken)
    print(f"  TTN pattern accuracy: {correct / len(pattern):.1%} "
          f"(threshold theta={shp.theta})")
    print(f"  always-taken filtered lookups: {shp.filtered_lookups} "
          "(those never touch the weight tables)\n")


def btb_demo() -> None:
    print("== 2. mBTB line organisation and vBTB spill ==")
    btb = BTBHierarchy(mbtb_entries=64, vbtb_entries=16, l2btb_entries=128)
    base = 0x10000
    for i in range(10):  # ten branches in one 128B line
        btb.discover(base + 4 * i, 0x20000 + i, Kind.BR_COND)
    for i in (0, 7, 8, 9):
        _, source, extra_bubbles = btb.lookup(base + 4 * i)
        print(f"  branch {i}: served by {source} "
              f"(+{extra_bubbles} bubbles)")
    print(f"  spills to vBTB: {btb.spills_to_vbtb}\n")


def vpc_demo() -> None:
    print("== 3. VPC chains and the M6 indirect hash ==")
    for name, hash_entries in (("M5-style full VPC", 0),
                               ("M6 hybrid", 1024)):
        shp = ScaledHashedPerceptron(8, 1024)
        vpc = VPCPredictor(shp, max_targets=16,
                           hybrid_hash_entries=hash_entries)
        targets = [0x9000 + 64 * i for i in range(20)]
        correct = total = 0
        for i in range(2500):
            t = targets[i % 20]  # 20-target rotation (JS dispatch style)
            pred = vpc.predict(0x7000)
            if i > 800:
                total += 1
                correct += pred.target == t
            vpc.update(0x7000, t)
        print(f"  {name:18s}: accuracy {correct / total:6.1%}, "
              f"vpc hits {vpc.vpc_hits}, hash hits {vpc.hash_hits}")
    print()


def ubtb_demo() -> None:
    print("== 4. uBTB graph locking on a tight loop ==")
    trace = make_trace("loop_kernel", seed=7, n_instructions=10_000)
    unit = BranchUnit(get_generation("M3"))
    stats = unit.run_trace(trace)
    u = unit.ubtb
    print(f"  graph nodes: {u.node_count}, lock events: {u.lock_events}, "
          f"locked predictions: {u.locked_predictions}")
    print(f"  mBTB/SHP lookups gated while locked: {u.gated_lookups}")
    print(f"  kernel MPKI: {stats.mpki:.2f}, "
          f"bubbles/branch: {stats.bubbles_per_branch:.2f}\n")


def zat_zot_demo() -> None:
    print("== 5. ZAT/ZOT zero-bubble redirects (M5) ==")
    # A ring of always-taken branches: M1 pays 2 bubbles each, M5's
    # replication drives them to zero.
    recs = []
    bases = [0x1000 + i * 0x400 for i in range(6)]
    for i in range(3000):
        b = bases[i % 6]
        recs.append(TraceRecord(pc=b, kind=Kind.ALU))
        recs.append(TraceRecord(pc=b + 4, kind=Kind.BR_UNCOND, taken=True,
                                target=bases[(i + 1) % 6]))
    trace = Trace("ring", "micro", recs)
    for gen in ("M1", "M3", "M5"):
        unit = BranchUnit(get_generation(gen))
        s = unit.run_trace(trace)
        print(f"  {gen}: bubbles/branch {s.bubbles_per_branch:.2f}, "
              f"zero-bubble redirects {s.zero_bubble_redirects}, "
              f"1AT {unit.accel.redirects_1at}, "
              f"ZAT {unit.accel.redirects_zat}")


def main() -> None:
    shp_demo()
    btb_demo()
    vpc_demo()
    ubtb_demo()
    zat_zot_demo()


if __name__ == "__main__":
    main()
