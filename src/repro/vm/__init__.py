"""Cycle-level virtual machine and memory-trace capture."""

from repro.vm.machine import Machine, StepResult, VMError, run_isolated
from repro.vm.trace import (
    CompactTrace,
    TraceEvents,
    TraceRecorder,
)
from repro.vm.traceio import (
    ReuseProfile,
    SetPressure,
    reuse_profile,
    set_pressure,
)

__all__ = [
    "ReuseProfile",
    "SetPressure",
    "reuse_profile",
    "set_pressure",
    "Machine",
    "StepResult",
    "VMError",
    "run_isolated",
    "CompactTrace",
    "TraceEvents",
    "TraceRecorder",
]
