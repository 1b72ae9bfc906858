"""Warm-pool batch engine: persistent workers + cross-scenario reuse.

:mod:`repro.batch.pool` provides the :class:`~repro.batch.pool.WarmPool`
that independent systems fan out through (batch points and the cases
of the fuzz campaign in ``tests/fuzz``); :mod:`repro.batch.engine`
builds scenario sweeps on top of it, deduplicating sweep points and
letting the artifact store's sub-artifact decomposition turn a grid of
configurations into mostly cache hits.
"""

from repro.batch.engine import (
    BatchResult,
    PointResult,
    SweepPoint,
    analyze_batch,
    sweep_grid,
)
from repro.batch.pool import WarmPool, derived, in_worker

__all__ = [
    "BatchResult",
    "PointResult",
    "SweepPoint",
    "WarmPool",
    "analyze_batch",
    "derived",
    "in_worker",
    "sweep_grid",
]
