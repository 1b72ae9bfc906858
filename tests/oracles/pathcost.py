"""Reference oracle: Equation 4 by full path enumeration over CIIPs.

The executable specification of Approach 4: every feasible path of the
preempting task gets its footprint's CIIP, and its cost is the set-algebra
conflict bound ``S(M̃a, Mb^k)`` against the preempted task's useful
blocks.  Production evaluates the same maximum with one dense kernel call
over the path matrix (:class:`repro.analysis.crpd.CRPDAnalyzer`) or by
branch-and-bound (:mod:`repro.analysis.pathcost`).  Not used by the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.analysis.artifacts import TaskArtifacts
from repro.cache.ciip import CIIP, conflict_bound
from repro.errors import ConfigError
from repro.program.paths import PathProfile, path_footprint


@dataclass(frozen=True)
class PathCost:
    """Equation 4 evaluated for one feasible path of the preempting task."""

    profile: PathProfile
    footprint_blocks: int
    cost: int


@dataclass
class PathCostResult:
    """Costs of every feasible path, plus the maximising one."""

    per_path: list[PathCost]

    @property
    def worst(self) -> PathCost:
        if not self.per_path:
            raise ConfigError("preempting task has no feasible paths")
        return max(self.per_path, key=lambda p: p.cost)

    @property
    def lines(self) -> int:
        """The Section VI bound: cost of the longest path (0 with no
        feasible paths — a preemptor that executes nothing evicts
        nothing)."""
        if not self.per_path:
            return 0
        return self.worst.cost

    def lines_strict(self) -> int:
        """Like :attr:`lines` but raising :class:`ConfigError` on zero paths."""
        return self.worst.cost


def restrict(ciip: CIIP, blocks: Iterable[int]) -> CIIP:
    """CIIP of the intersection of *ciip*'s blocks with *blocks* (narrows a
    footprint ``Ma`` to a useful-block subset ``M̃a``)."""
    keep = {ciip.config.block(address) for address in blocks}
    groups = {}
    for index, group in ciip.groups.items():
        common = group & keep
        if common:
            groups[index] = frozenset(common)
    return CIIP(config=ciip.config, groups=groups)


def node_blocks(artifacts: TaskArtifacts) -> dict[str, frozenset[int]]:
    """Each executed node's memory blocks, decoded from the dataflow's
    ``own`` masks."""
    decode = artifacts.dataflow.bits.decode
    return {
        label: decode(mask) for label, mask in artifacts.dataflow.own.items() if mask
    }


def path_footprints(
    artifacts: TaskArtifacts,
    per_node: "Mapping[str, Iterable[int]] | None" = None,
) -> list[frozenset[int]]:
    """Each feasible path's footprint (aligned with ``path_profiles``),
    from *per_node* blocks (default: :func:`node_blocks`)."""
    if per_node is None:
        per_node = node_blocks(artifacts)
    return [path_footprint(profile, per_node) for profile in artifacts.path_profiles]


def max_path_conflict(
    useful_ciip: CIIP,
    preempting: TaskArtifacts,
    per_node: "Mapping[str, Iterable[int]] | None" = None,
) -> PathCostResult:
    """Maximise ``S(M̃a, Mb^k)`` over the preempting task's enumerated
    feasible paths (``useful_ciip`` is the CIIP of M̃a; *per_node* as in
    :func:`path_footprints`)."""
    costs = []
    for profile, footprint in zip(
        preempting.path_profiles, path_footprints(preempting, per_node)
    ):
        path_ciip = CIIP.from_addresses(preempting.config, footprint)
        costs.append(
            PathCost(
                profile=profile,
                footprint_blocks=len(footprint),
                cost=conflict_bound(useful_ciip, path_ciip),
            )
        )
    return PathCostResult(per_path=costs)


def approach4_lines(
    preempted: TaskArtifacts,
    preempting: TaskArtifacts,
    mumbs_mode: str = "paper",
    per_node: "Mapping[str, Iterable[int]] | None" = None,
) -> int:
    """Approach 4 over the enumerated paths: the MUMBS (``"paper"``) or
    every non-empty execution point (``"per_point"``) against each path
    (the preempting task's per-node blocks as in :func:`path_footprints`)."""
    if mumbs_mode == "paper":
        return max_path_conflict(
            preempted.useful.mumbs_ciip(), preempting, per_node
        ).lines
    if mumbs_mode != "per_point":
        raise ConfigError(f"unknown mumbs_mode {mumbs_mode!r}")
    worst = 0
    for point in preempted.useful.points:
        blocks = point.blocks()
        if blocks:
            point_ciip = CIIP.from_addresses(preempted.config, blocks)
            worst = max(
                worst, max_path_conflict(point_ciip, preempting, per_node).lines
            )
    return worst
