"""Per-set counter kernels for the CIIP conflict math.

Every conflict bound in the paper reduces to the same per-cache-set shape

    sum over sets r of min(|m̂a,r|, |m̂b,r|, L)

so nothing about the *blocks* themselves matters once the per-set
cardinalities are known.  The kernels below operate on precomputed
cardinality vectors instead of intersecting frozensets per call: a
``CIIP`` exposes its vector once (:attr:`repro.cache.ciip.CIIP.set_counts`)
and every subsequent ``conflict_bound``/``eq3_lines`` evaluation is a
single sparse min-sum over the smaller of the two vectors.

Cardinality vectors come in two layouts.  The *sparse* dict layout (set
index -> block count) is the default for one-off bounds: task footprints
touch only a band of the cache, so iterating the occupied entries of the
smaller operand beats scanning a dense array.  The *dense* layout
(:func:`dense_counts`) packs the capped counts into a ``bytes`` vector of
``num_sets`` entries so that batched evaluations — every path of a
preemptor against one preemptee vector, or all pairs of a task set — run
as flat min-sums with no per-entry dict probes.  Dense kernels are exact:
because ``min(a, b, L) == min(min(a, L), min(b, L))``, capping each count
at the associativity while densifying preserves every conflict bound.
The kernels need nothing beyond ``bytes``.

Block-set interning keeps one canonical object per distinct frozenset of
memory blocks.  The analyses build the same group sets over and over (every
``CIIP.from_addresses`` of the same footprint, every ``restrict``), so
interning both bounds memory and turns later set-equality checks into
pointer comparisons.  The table is *bounded*: one analysis creates a small
universe of distinct sets, but a fuzz campaign or a geometry sweep
analysing thousands of unrelated programs in one warm process would grow
it without limit, so once :func:`intern_limit` entries accumulate the
table is cleared and restarted (clearing is always safe — see
:func:`reset_intern_table`).  The current size is published as the
``kernels.intern_size`` gauge and every bound-triggered clear as the
``kernels.intern.resets`` counter.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.obs import STATE as _OBS

#: Sparse per-set cardinality vector: cache-set index -> number of blocks.
SetCounts = Dict[int, int]

_BLOCKSET_INTERN: dict[frozenset[int], frozenset[int]] = {}

#: Default bound on distinct interned block sets per process.  Generously
#: above any single analysis (the experiment task sets intern a few
#: hundred) yet small enough that a multi-thousand-case campaign stays at
#: tens of MB instead of growing forever.
DEFAULT_INTERN_LIMIT = 32_768

_INTERN_LIMIT = DEFAULT_INTERN_LIMIT


def intern_limit() -> int:
    """The current bound on distinct interned block sets."""
    return _INTERN_LIMIT


def set_intern_limit(limit: int) -> None:
    """Rebound the intern table (tests use tiny limits to exercise resets).

    Takes effect on the next insertion; an already-over-limit table is
    cleared immediately.
    """
    global _INTERN_LIMIT
    if limit < 1:
        raise ValueError(f"intern limit must be >= 1, got {limit}")
    _INTERN_LIMIT = limit
    if len(_BLOCKSET_INTERN) >= _INTERN_LIMIT:
        reset_intern_table(bound_triggered=True)


def reset_intern_table(*, bound_triggered: bool = False) -> None:
    """Drop every interned block set (start a fresh generation).

    Existing CIIPs keep their (now un-interned) sets, so clearing is
    always safe — only future interning stops deduplicating against the
    dropped generation.  Every clear — whether triggered here by a caller,
    by :func:`set_intern_limit` shrinking below the live size, or by
    :func:`intern_blocks` hitting the bound — goes through this single
    path so the ``kernels.intern_size`` gauge and the
    ``kernels.intern.resets`` counter can never diverge: the gauge drops
    to zero on every clear, and *bound_triggered* clears (and only those)
    bump the resets counter.
    """
    _BLOCKSET_INTERN.clear()
    if _OBS.enabled:
        if bound_triggered:
            _OBS.metrics.counter("kernels.intern.resets").inc()
        _OBS.metrics.gauge("kernels.intern_size").set(0)


def intern_table_size() -> int:
    """Distinct block sets currently interned (the gauge's value)."""
    return len(_BLOCKSET_INTERN)


def intern_blocks(blocks: frozenset[int]) -> frozenset[int]:
    """Return the canonical instance of *blocks* (one object per value).

    The intern table is process-global and append-only between
    generations: a single analysis creates a bounded universe of distinct
    group sets, and long-running campaigns are kept in check by the
    :func:`intern_limit` bound, which clears the table once it fills.
    Workers of a process pool build their own tables.
    """
    cached = _BLOCKSET_INTERN.get(blocks)
    if cached is None:
        if len(_BLOCKSET_INTERN) >= _INTERN_LIMIT:
            reset_intern_table(bound_triggered=True)
        if _OBS.enabled:
            _OBS.metrics.counter("kernels.intern.misses").inc()
            _OBS.metrics.gauge("kernels.intern_size").set(
                len(_BLOCKSET_INTERN) + 1
            )
        _BLOCKSET_INTERN[blocks] = blocks
        return blocks
    if _OBS.enabled:
        _OBS.metrics.counter("kernels.intern.hits").inc()
    return cached


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
# block count *already capped at the associativity*.  Capping while
# densifying is exact — min(a, b, L) == min(min(a, L), min(b, L)) — and
# keeps every entry in a single byte for any realistic associativity
# (the paper's configurations use L in {1, 2, 4}).

#: Largest associativity representable in a one-byte dense entry.
DENSE_MAX_WAYS = 0xFF

def dense_counts(counts: SetCounts, num_sets: int, ways: int) -> bytes:
    """Pack a sparse cardinality vector into a capped dense byte vector."""
    if ways > DENSE_MAX_WAYS:
        raise ValueError(
            f"dense vectors hold one byte per set; ways={ways} exceeds {DENSE_MAX_WAYS}"
        )
    vec = bytearray(num_sets)
    for index, count in counts.items():
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


def dense_from_ciip_counts(
    set_counts: SetCounts, num_sets: int, ways: int
) -> Optional[bytes]:
    """Dense vector for a CIIP's counts, or ``None`` when not representable."""
    if ways > DENSE_MAX_WAYS:
        return None
    return dense_counts(set_counts, num_sets, ways)
