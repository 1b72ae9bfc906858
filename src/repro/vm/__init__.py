"""Cycle-level virtual machine and memory-trace capture."""

from repro.vm.machine import Machine, StepResult, VMError, run_isolated
from repro.vm.trace import (
    CompactTrace,
    MemRef,
    NodeRefs,
    NodeTraceAggregate,
    TraceColumns,
    TraceRecorder,
)
from repro.vm.traceio import (
    ReuseProfile,
    SetPressure,
    load_trace,
    merge_traces,
    reuse_profile,
    save_trace,
    set_pressure,
)

__all__ = [
    "ReuseProfile",
    "SetPressure",
    "load_trace",
    "merge_traces",
    "reuse_profile",
    "save_trace",
    "set_pressure",
    "Machine",
    "StepResult",
    "VMError",
    "run_isolated",
    "CompactTrace",
    "MemRef",
    "NodeRefs",
    "NodeTraceAggregate",
    "TraceColumns",
    "TraceRecorder",
]
