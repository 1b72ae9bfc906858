"""Per-set counter kernels for the CIIP conflict math.

Every conflict bound in the paper reduces to the same per-cache-set shape

    sum over sets r of min(|m̂a,r|, |m̂b,r|, L)

so nothing about the *blocks* themselves matters once the per-set
cardinalities are known.

Production evaluates Equations 2-4 on one representation: the *dense*
vector (:func:`dense_from_ciip_counts`), ``bytes`` of ``num_sets``
entries holding each set's block count already capped at the
associativity.  Approaches 1/2, Eq. 3 and the Approach-4 path
maximisation are then flat min-sums (:func:`dense_usage`,
:func:`dense_conflict`, :func:`dense_max_conflict` over
:func:`dense_rows`).  Capping while densifying is exact, because
``min(a, b, L) == min(min(a, L), min(b, L))``; a byte holds every count
since :class:`~repro.cache.config.CacheConfig` caps ``L`` at 255.

The *sparse* dict kernels (set index -> block count) serve the CIIP-level
API of Definition 3 (:func:`repro.cache.ciip.conflict_bound` and friends,
Fig. 3 and the kernel-vs-naive fuzz oracle); no production CRPD bound
calls them.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.obs import STATE as _OBS

#: Sparse per-set cardinality vector: cache-set index -> number of blocks.
SetCounts = Dict[int, int]


def counts_of_groups(groups: Mapping[int, frozenset[int]]) -> SetCounts:
    """Cardinality vector of a CIIP group mapping."""
    return {index: len(group) for index, group in groups.items()}


def conflict_kernel(a: SetCounts, b: SetCounts, ways: int) -> int:
    """``sum over shared sets r of min(a[r], b[r], L)`` (Equations 2/3).

    Iterates the smaller vector and probes the larger, so the cost is
    O(min(|a|, |b|)) dict operations — no set algebra, no intermediate
    intersections.
    """
    if len(a) > len(b):
        a, b = b, a
    lookup = b.get
    total = 0
    for index, count_a in a.items():
        count_b = lookup(index)
        if count_b is None:
            continue
        smallest = count_a if count_a < count_b else count_b
        total += smallest if smallest < ways else ways
    return total


def conflict_kernel_per_set(a: SetCounts, b: SetCounts, ways: int) -> SetCounts:
    """Per-set breakdown of :func:`conflict_kernel` (diagnostics)."""
    if len(a) > len(b):
        a, b = b, a
    lookup = b.get
    result: SetCounts = {}
    for index, count_a in a.items():
        count_b = lookup(index)
        if count_b is None:
            continue
        result[index] = min(count_a, count_b, ways)
    return result


def usage_kernel(counts: SetCounts, ways: int) -> int:
    """``sum over sets of min(count, L)`` — line-usage bound (Approach 1)."""
    total = 0
    for count in counts.values():
        total += count if count < ways else ways
    return total


# --------------------------------------------------------------------------
# Dense (flat-array) kernels
#
# A dense vector is ``bytes`` of length ``num_sets`` holding the per-set
# block count *already capped at the associativity*.


def dense_from_ciip_counts(set_counts: SetCounts, num_sets: int, ways: int) -> bytes:
    """Pack a sparse cardinality vector into a capped dense byte vector."""
    vec = bytearray(num_sets)
    for index, count in set_counts.items():
        vec[index] = count if count < ways else ways
    return bytes(vec)


def dense_rows(vectors: Sequence[bytes]) -> bytes:
    """Concatenate equal-length dense vectors into one flat row matrix."""
    return b"".join(vectors)


def dense_usage(vec: bytes) -> int:
    """Line-usage bound over a capped dense vector (Approach 1)."""
    return sum(vec)


def dense_conflict(a: bytes, b: bytes) -> int:
    """``sum over sets of min(a[r], b[r])`` over capped dense vectors.

    Equal to :func:`conflict_kernel` on the corresponding sparse vectors
    because both operands are pre-capped at the associativity.
    """
    if _OBS.enabled:
        _OBS.metrics.counter("kernels.dense.conflict").inc()
    return sum(map(min, a, b))


def dense_max_conflict(rows: bytes, vec: bytes) -> int:
    """Max over the rows of a flat matrix of the min-sum against *vec*.

    This is the whole Approach-4 path maximisation collapsed into one
    call: *rows* stacks every path footprint of the preemptor
    (:func:`dense_rows`), *vec* is the preemptee's useful-block vector,
    and the result is ``max over paths of sum over sets of min(...)``.
    """
    width = len(vec)
    if not rows or not width:
        return 0
    if _OBS.enabled:
        _OBS.metrics.counter("kernels.dense.path_max").inc()
    best = 0
    for start in range(0, len(rows), width):
        total = sum(map(min, rows[start : start + width], vec))
        if total > best:
            best = total
    return best

