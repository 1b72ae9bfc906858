"""Human-readable analysis reports.

Two report levels:

* :func:`task_report` — everything the per-task pipeline learned about one
  task (WCET per scenario, footprint and CIIP shape, useful blocks,
  feasible paths) and, given the task's traces, cache-behaviour
  diagnostics,
* :func:`system_report` — the multi-task view: per-preemption-pair line
  estimates under all four approaches, Equation-7 WCRTs and their
  decomposition.

The CLI's ``analyze`` command and the examples build on these, so the
exact strings here are part of the public surface (tests pin the section
headers, not the numbers).
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.artifacts import TaskArtifacts
from repro.analysis.crpd import ALL_APPROACHES, CRPDAnalyzer
from repro.obs import STATE as _OBS
from repro.program.paths import sfp_prs_segments
from repro.vm.trace import CompactTrace
from repro.vm.traceio import reuse_profile, set_pressure
from repro.wcrt.explain import explain_wcrt
from repro.wcrt.task import TaskSystem


def task_report(
    artifacts: TaskArtifacts,
    traces: "Mapping[str, CompactTrace] | None" = None,
    max_paths: int | None = None,
) -> str:
    """Render the full single-task analysis as a text report.

    With *traces* (scenario -> trace at the task's placement, as
    :func:`~repro.analysis.wcet.scenario_traces` records them) the report
    ends in a ``[cache behaviour]`` section.  *max_paths* is the path
    budget the artifacts were analysed under; the report names it when
    path enumeration stopped there."""
    config = artifacts.config
    lines = [
        f"== task {artifacts.name!r} ==",
        f"cache: {config.size_bytes // 1024}KB {config.ways}-way "
        f"{config.line_size}B lines, {config.policy}, "
        f"Cmiss={config.miss_penalty}",
        "",
        "[wcet]",
        f"  WCET: {artifacts.wcet.cycles} cycles "
        f"(worst scenario: {artifacts.wcet.worst_scenario!r})",
    ]
    for name, cycles in sorted(artifacts.wcet.per_scenario_cycles.items()):
        lines.append(f"  scenario {name:14s} {cycles:8d} cycles")

    lines.append("")
    lines.append("[memory footprint]")
    ciip = artifacts.footprint_ciip
    lines.append(
        f"  {len(artifacts.footprint)} blocks over {len(ciip.indices())} "
        f"cache sets ({len(artifacts.footprint) * config.line_size} bytes)"
    )
    group_sizes = sorted(
        (len(ciip.group(i)) for i in ciip.indices()), reverse=True
    )
    if group_sizes:
        lines.append(
            f"  CIIP group sizes: max {group_sizes[0]}, "
            f"median {group_sizes[len(group_sizes) // 2]}"
        )

    lines.append("")
    lines.append("[useful memory blocks]")
    worst_point = artifacts.useful.max_point()
    lines.append(
        f"  MUMBS: {len(artifacts.useful.mumbs())} blocks at "
        f"{worst_point.point} (Lee reload bound "
        f"{artifacts.useful.lee_reload_bound()} lines)"
    )
    not_useful = len(artifacts.footprint) - len(artifacts.useful.mumbs())
    lines.append(f"  footprint blocks never useful at the worst point: {not_useful}")

    lines.append("")
    lines.append("[control structure]")
    if artifacts.path_enumeration_complete:
        paths = f"{len(artifacts.path_profiles)} feasible path(s)"
    elif max_paths is not None:
        paths = f"path enumeration stopped at max_paths={max_paths}"
    else:
        paths = "path enumeration stopped at the path budget"
    lines.append(f"  {len(artifacts.program.cfg.labels())} basic blocks, {paths}")
    for segment in sfp_prs_segments(artifacts.program):
        indent = "  " * segment.depth
        kind = "SFP-PrS" if segment.single_feasible_path else "decision"
        lines.append(
            f"  {indent}v{segment.segment_id} [{segment.kind:<8}] {kind} "
            f"({len(segment.labels)} blocks)"
        )
    for profile in artifacts.path_profiles:
        lines.append(f"  path {profile.describe()}")

    if traces is not None:
        profile = reuse_profile(traces, config)
        pressure = set_pressure(artifacts.footprint, config)
        lines.append("")
        lines.append("[cache behaviour]")
        lines.append(f"  {profile.accesses} references, "
                     f"LRU miss rate @{config.ways}-way: "
                     f"{profile.predicted_miss_rate(config.ways):.3f}")
        lines.append(
            f"  set pressure: {pressure.sets_used}/{config.num_sets} sets "
            f"used, max {pressure.max_pressure} blocks, "
            f"{len(pressure.overcommitted_sets())} sets overcommitted"
        )
    return "\n".join(lines)


def system_report(
    crpd: CRPDAnalyzer,
    system: TaskSystem,
    context_switch: int = 0,
    stop_at_deadline: bool = True,
) -> str:
    """Render the multi-task CRPD + WCRT analysis as a text report."""
    order = system.names()  # highest priority first
    lines = [
        "== task system ==",
        f"{len(order)} tasks, utilisation {system.utilization:.3f}, "
        f"hyperperiod {system.hyperperiod}",
        f"soundness: {crpd.soundness}",
    ]
    for event in crpd.ledger.events:
        lines.append(f"  degraded {event.describe()}")
    lines += [
        "",
        "[cache lines to reload per preemption]",
    ]
    header = f"  {'preemption':24s}" + "".join(
        f"App.{a.value:<2}".rjust(8) for a in ALL_APPROACHES
    )
    lines.append(header)
    for estimate in crpd.estimate_all_pairs(order):
        row = f"  {estimate.preempted + ' by ' + estimate.preempting:24s}"
        row += "".join(str(estimate.lines[a]).rjust(8) for a in ALL_APPROACHES)
        lines.append(row)

    lines.append("")
    lines.append("[WCRT per approach (Eq. 7)]")
    for approach in ALL_APPROACHES:
        lines.append(f"  Approach {approach.value}:")
        for name in order:
            explanation = explain_wcrt(
                system,
                name,
                cpre=lambda l, h, a=approach: crpd.cpre(l, h, a),
                context_switch=context_switch,
                stop_at_deadline=stop_at_deadline,
            )
            if explanation.result.schedulable:
                verdict = "ok"
            elif explanation.result.unbounded:
                verdict = "UNBOUNDED (U >= 1)"
            elif explanation.result.diverged:
                verdict = "DIVERGED (budget ran out)"
            else:
                verdict = "MISSES DEADLINE"
            lines.append(
                f"    {name:10s} R={explanation.wcrt:8d}  "
                f"(reload {explanation.total_cache_reload}, "
                f"switches {explanation.total_context_switches})  {verdict}"
            )

    lines.append("")
    lines.append("[analysis wall-time per approach]")
    for approach in ALL_APPROACHES:
        spent = crpd.analysis_seconds[approach]
        lines.append(f"  Approach {approach.value}: {spent * 1000:8.2f} ms")

    if _OBS.enabled:
        # Live span/metric snapshot when the caller runs under
        # --trace-out/--metrics-out (see docs/observability.md).
        from repro.obs.summary import summarize_spans

        lines.append("")
        lines.append("[observability]")
        for summary in summarize_spans(_OBS.tracer.records):
            lines.append(
                f"  span {summary.name:28s} x{summary.count:<5d} "
                f"total {summary.total_us / 1000:9.2f} ms  "
                f"max {summary.max_us / 1000:8.2f} ms"
            )
        counters = _OBS.metrics.to_dict().get("counters", {})
        for name, value in counters.items():
            lines.append(f"  counter {name:30s} {value}")
    return "\n".join(lines)
