#!/usr/bin/env python3
"""Cache design study: pick a geometry from trace diagnostics.

A systems engineer sizing the L1 for the Experiment I task set can answer
most questions from the traces alone, before running any scheduler:

1. the reuse-distance histogram predicts each task's LRU miss rate for
   any associativity (exactly, for LRU),
2. the set-pressure profile shows where intra-task conflict misses come
   from, and
3. the CRPD bounds show how the geometry trades isolated performance
   against preemption cost.

Run:  python examples/cache_design_study.py
"""

from repro.analysis import Approach, CRPDAnalyzer, analyze_task, scenario_traces
from repro.cache import CacheConfig
from repro.program import SystemLayout
from repro.vm import reuse_profile, set_pressure
from repro.workloads import build_edge_detection, build_mobile_robot, build_ofdm

GEOMETRIES = [
    CacheConfig(num_sets=512, ways=1, line_size=16, miss_penalty=20),
    CacheConfig(num_sets=256, ways=2, line_size=16, miss_penalty=20),
    CacheConfig(num_sets=128, ways=4, line_size=16, miss_penalty=20),
    CacheConfig(num_sets=64, ways=8, line_size=16, miss_penalty=20),
]


def main():
    workloads = {
        "mr": build_mobile_robot(),
        "ed": build_edge_detection(),
        "ofdm": build_ofdm(),
    }

    print("1. per-task cache behaviour, predicted from one trace each")
    print(f"   (all geometries hold 8KB; columns are ways at that capacity)\n")
    header = f"   {'task':6s} {'accesses':>9s} " + " ".join(
        f"{c.ways}-way".rjust(7) for c in GEOMETRIES
    )
    print(header)
    footprints = {}
    for name, workload in workloads.items():
        layout = SystemLayout().place(workload.program)
        scenarios = workload.scenario_map()
        art = analyze_task(layout, scenarios, GEOMETRIES[1])
        footprints[name] = art.footprint
        traces = scenario_traces(layout, scenarios, GEOMETRIES[1])
        rates = []
        for config in GEOMETRIES:
            profile = reuse_profile(traces, config)
            rates.append(f"{profile.predicted_miss_rate(config.ways):7.3f}")
        profile = reuse_profile(traces, GEOMETRIES[1])
        print(f"   {name:6s} {profile.accesses:>9d} " + " ".join(rates))

    print("\n2. set pressure (intra-task conflict potential), 2-way geometry")
    for name, footprint in footprints.items():
        pressure = set_pressure(footprint, GEOMETRIES[1])
        over = pressure.overcommitted_sets()
        print(f"   {name:6s} sets used {pressure.sets_used:3d}/256, "
              f"max pressure {pressure.max_pressure}, "
              f"{len(over)} sets over 2-way capacity")

    print("\n3. preemption cost (App.4 CRPD bound for OFDM by MR) per geometry")
    for config in GEOMETRIES:
        layout = SystemLayout(stride=0x1C00)
        artifacts = {}
        for name in ("mr", "ed", "ofdm"):
            placed = layout.place(workloads[name].program)
            artifacts[name] = analyze_task(
                placed, workloads[name].scenario_map(), config
            )
        crpd = CRPDAnalyzer(artifacts)
        lines = crpd.lines_reloaded("ofdm", "mr", Approach.COMBINED)
        cycles = crpd.cpre("ofdm", "mr", Approach.COMBINED)
        print(f"   {config.num_sets:4d} sets x {config.ways}-way: "
              f"{lines:3d} lines = {cycles:5d} cycles per preemption")

    print("\ntakeaway: higher associativity at fixed capacity barely moves "
          "the isolated miss rates here (working sets are stream-like), but "
          "it shrinks the index span, concentrating the tasks onto the same "
          "sets — preemption cost is the quantity that reacts.")


if __name__ == "__main__":
    main()
