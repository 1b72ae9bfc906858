"""Preemptive fixed-priority scheduler simulation (ART measurement)."""

from repro.sched.events import EventKind, JobRecord, SchedulerEvent
from repro.sched.gantt import render_gantt
from repro.sched.simulator import SimulationResult, Simulator, TaskBinding

__all__ = [
    "render_gantt",
    "EventKind",
    "JobRecord",
    "SchedulerEvent",
    "SimulationResult",
    "Simulator",
    "TaskBinding",
]
