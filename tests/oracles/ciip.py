"""Equation 2/3 as it is written: set algebra over CIIP groups.

The executable specification of the per-set counter kernels behind
:func:`repro.cache.ciip.conflict_bound`, :func:`~repro.cache.ciip.
line_usage_bound` and the dense set vectors.  Each intersects index sets
and takes group lengths per call; ``tests/test_perf_equivalence.py`` and
the ``kernel_vs_naive`` fuzz oracle pin production to them.
"""

from __future__ import annotations

from repro.cache.ciip import CIIP
from repro.errors import ConfigError


def conflict_bound_naive(a: CIIP, b: CIIP) -> int:
    """``S(Ma, Mb)``: per shared set, the smaller group capped at ``L``."""
    if a.config != b.config:
        raise ConfigError("CIIPs built for different cache configurations")
    ways = a.config.ways
    shared = a.indices() & b.indices()
    return sum(min(len(a.group(r)), len(b.group(r)), ways) for r in shared)


def naive_usage(ciip: CIIP) -> int:
    """Cache lines *ciip*'s blocks can occupy: each group capped at ``L``."""
    ways = ciip.config.ways
    return sum(min(len(ciip.group(r)), ways) for r in ciip.indices())


def naive_dense(ciip: CIIP) -> bytes:
    """*ciip*'s per-set block counts capped at ``L``, one byte per set."""
    config = ciip.config
    return bytes(
        min(len(ciip.group(r)), config.ways) for r in range(config.num_sets)
    )
