"""Controlled preemption-cost measurement: the ground truth CRPD bounds.

*How many cache lines does one concrete preemption force the preempted
task to reload, and what does it cost?*  Execute the victim to a chosen
instruction, run the whole preemptor on the shared cache, then finish the
victim while counting reloads of blocks the preemptor evicted.

One concrete preemption is a *lower* bound on the worst case, the
quantity every CRPD approach must dominate: ``tests/test_measurement.py``
and the ``reload_soundness`` fuzz oracle assert it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.program.layout import ProgramLayout
from repro.vm.machine import Machine

Inputs = dict[str, list[int]]


@dataclass(frozen=True)
class PreemptionMeasurement:
    """Ground truth for one concrete preemption."""

    preempt_step: int
    resident_before: int  # victim blocks in cache at the preemption point
    evicted: int  # of those, evicted by the preemptor
    reloaded: int  # of those, re-fetched by the victim afterwards
    victim_cycles: int  # victim's total cycles including the reload cost
    baseline_cycles: int  # victim's cycles without any preemption

    @property
    def extra_cycles(self) -> int:
        """Measured cache-related preemption delay in cycles."""
        return self.victim_cycles - self.baseline_cycles


@dataclass
class PreemptionStudy:
    """Measurements across several preemption points."""

    measurements: list[PreemptionMeasurement] = field(default_factory=list)

    @property
    def worst_reloaded(self) -> int:
        return max((m.reloaded for m in self.measurements), default=0)

    @property
    def worst_extra_cycles(self) -> int:
        return max((m.extra_cycles for m in self.measurements), default=0)


def prepared_machine(
    layout: ProgramLayout, cache, inputs: Inputs
) -> Machine:
    """A machine on *cache* with *inputs* written into its arrays."""
    machine = Machine(layout=layout, cache=cache)
    for array, values in inputs.items():
        machine.write_array(array, values)
    return machine


def measure_preemption(
    victim_layout: ProgramLayout,
    victim_inputs: Inputs,
    preemptor_layout: ProgramLayout,
    preemptor_inputs: Inputs,
    cache_factory,
    preempt_step: int,
    victim_footprint: frozenset[int] | None = None,
) -> PreemptionMeasurement | None:
    """Measure one preemption at instruction *preempt_step* of the victim.

    ``cache_factory`` is a zero-argument callable returning a fresh cache
    (or hierarchy) — two identical caches are needed, one for the baseline
    run and one for the preempted run.  Returns None when the victim
    finishes before the preemption point.
    """
    # Baseline: the victim alone, same cold start.
    baseline = prepared_machine(victim_layout, cache_factory(), victim_inputs)
    baseline.run()

    cache = cache_factory()
    victim = prepared_machine(victim_layout, cache, victim_inputs)
    steps = 0
    while not victim.halted and steps < preempt_step:
        victim.step()
        steps += 1
    if victim.halted:
        return None

    footprint = victim_footprint
    resident_before = set(cache.resident_blocks())
    if footprint is not None:
        resident_before &= set(footprint)

    preemptor = prepared_machine(preemptor_layout, cache, preemptor_inputs)
    preemptor.run()
    evicted = resident_before - cache.resident_blocks()

    reloaded: set[int] = set()
    while not victim.halted:
        before = cache.resident_blocks()
        victim.step()
        reloaded |= (cache.resident_blocks() - before) & evicted
    return PreemptionMeasurement(
        preempt_step=preempt_step,
        resident_before=len(resident_before),
        evicted=len(evicted),
        reloaded=len(reloaded),
        victim_cycles=victim.cycles,
        baseline_cycles=baseline.cycles,
    )


def run_preemption_study(
    victim_layout: ProgramLayout,
    victim_inputs: Inputs,
    preemptor_layout: ProgramLayout,
    preemptor_inputs: Inputs,
    cache_factory,
    preempt_steps: list[int],
    victim_footprint: frozenset[int] | None = None,
) -> PreemptionStudy:
    """Measure a series of preemption points; skip ones past the end."""
    study = PreemptionStudy()
    for step in preempt_steps:
        measurement = measure_preemption(
            victim_layout,
            victim_inputs,
            preemptor_layout,
            preemptor_inputs,
            cache_factory,
            step,
            victim_footprint=victim_footprint,
        )
        if measurement is not None:
            study.measurements.append(measurement)
    return study
