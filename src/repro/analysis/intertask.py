"""Inter-task cache eviction analysis (Section V; Approaches 1 and 2).

Approach 1 (Busquets-Mataix et al. [20]) charges, for every preemption, a
reload of *every* cache line the preempting task can touch.  Approach 2
(Tan & Mooney [1]) charges only lines in the intersection of the two
tasks' footprints, computed per cache set through the CIIPs (Equation 2).
Both, and Equation 3, evaluate on the tasks' capped dense set vectors.
"""

from __future__ import annotations

from repro.analysis.artifacts import TaskArtifacts
from repro.cache.kernels import dense_conflict, dense_usage


def approach1_lines(preempting: TaskArtifacts) -> int:
    """Approach 1: all cache lines usable by the preempting task.

    Per cache set the preempting task can occupy at most
    ``min(|m̂b,r|, L)`` lines; the preempted task is conservatively assumed
    to reload all of them.
    """
    return dense_usage(preempting.dense_footprint())


def approach2_lines(preempted: TaskArtifacts, preempting: TaskArtifacts) -> int:
    """Approach 2: Equation 2 over the full footprints ``S(Ma, Mb)``."""
    return dense_conflict(preempted.dense_footprint(), preempting.dense_footprint())


def eq3_lines(preempted: TaskArtifacts, preempting: TaskArtifacts) -> int:
    """Equation 3: ``S(M̃a, Mb)`` — MUMBS against the full preempting footprint.

    This is Approach 4 *without* the Section VI path analysis; the ablation
    benches use it to isolate the path-analysis contribution.
    """
    return dense_conflict(preempted.dense_mumbs(), preempting.dense_footprint())


def footprint_overlap_blocks(
    preempted: TaskArtifacts, preempting: TaskArtifacts
) -> frozenset[int]:
    """Cache-set-colliding block pairs flattened to the preempted side.

    Diagnostic helper: blocks of the preempted task that share a cache set
    with at least one block of the preempting task.
    """
    a = preempted.footprint_ciip
    b = preempting.footprint_ciip
    collide: set[int] = set()
    for index in a.indices() & b.indices():
        collide.update(a.group(index))
    return frozenset(collide)
