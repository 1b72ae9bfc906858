"""Static analyses: WCET, RMB/LMB, useful blocks, inter-task eviction, CRPD."""

from repro.analysis.artifacts import TaskArtifacts, analyze_task
from repro.analysis.crpd import (
    ALL_APPROACHES,
    Approach,
    CRPDAnalyzer,
    PreemptionEstimate,
    conservative_approach4_lines,
)
from repro.analysis.report import system_report, task_report
from repro.analysis.sensitivity import (
    PenaltyModel,
    breakdown_miss_penalty,
    critical_scaling_factor,
)
from repro.analysis.multilevel import (
    HierarchicalCRPD,
    HierarchicalTaskArtifacts,
    analyze_task_hierarchy,
)
from repro.analysis.intertask import (
    approach1_lines,
    approach2_lines,
    eq3_lines,
    footprint_overlap_blocks,
)
from repro.analysis.pathcost import (
    PrunedPathResult,
    approach4_lines,
    max_path_conflict_pruned,
)
from repro.analysis.store import (
    ArtifactStore,
    CachedAnalysis,
    artifact_key,
    default_store,
)
from repro.analysis.rmb_lmb import (
    RMBLMBResult,
    first_distinct,
    last_distinct,
    solve_rmb_lmb,
)
from repro.analysis.useful import (
    ExecutionPoint,
    UsefulBlocks,
    UsefulBlocksAnalysis,
    compute_useful_blocks,
)
from repro.analysis.wcet import (
    WCETResult,
    measure_wcet,
    scenario_traces,
    static_wcet_bound,
)

__all__ = [
    "TaskArtifacts",
    "analyze_task",
    "ALL_APPROACHES",
    "Approach",
    "CRPDAnalyzer",
    "PreemptionEstimate",
    "conservative_approach4_lines",
    "system_report",
    "task_report",
    "PenaltyModel",
    "breakdown_miss_penalty",
    "critical_scaling_factor",
    "HierarchicalCRPD",
    "HierarchicalTaskArtifacts",
    "analyze_task_hierarchy",
    "approach1_lines",
    "approach2_lines",
    "eq3_lines",
    "footprint_overlap_blocks",
    "PrunedPathResult",
    "approach4_lines",
    "max_path_conflict_pruned",
    "ArtifactStore",
    "CachedAnalysis",
    "artifact_key",
    "default_store",
    "RMBLMBResult",
    "first_distinct",
    "last_distinct",
    "solve_rmb_lmb",
    "ExecutionPoint",
    "UsefulBlocks",
    "UsefulBlocksAnalysis",
    "compute_useful_blocks",
    "WCETResult",
    "measure_wcet",
    "scenario_traces",
    "static_wcet_bound",
]
