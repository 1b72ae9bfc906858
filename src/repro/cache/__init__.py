"""Set-associative cache model: geometry, LRU simulation and CIIP bounds."""

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.cache.policies import POLICY_NAMES
from repro.cache.state import AccessResult, CacheState, CacheStats
from repro.cache.ciip import (
    CIIP,
    conflict_bound,
    conflict_bound_naive,
    conflict_bound_per_set,
    line_usage_bound,
)
from repro.cache.kernels import (
    SetCounts,
    conflict_kernel,
    counts_of_groups,
    usage_kernel,
)

__all__ = [
    "CacheConfig",
    "HierarchyConfig",
    "MemoryHierarchy",
    "POLICY_NAMES",
    "CacheState",
    "CacheStats",
    "AccessResult",
    "CIIP",
    "conflict_bound",
    "conflict_bound_naive",
    "conflict_bound_per_set",
    "line_usage_bound",
    "SetCounts",
    "conflict_kernel",
    "counts_of_groups",
    "usage_kernel",
]
