"""Cache geometry and memory-address decomposition.

A set-associative cache is defined by three parameters (Section III-A of the
paper): the number of cache sets, the number of ways (cache lines per set)
and the number of bytes per cache line.  A memory address splits into
``tag | index | offset`` fields; a *memory block* is the line-sized,
line-aligned region of memory containing an address, and is the unit of all
cache transfers and of all the analyses in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


#: Largest supported associativity: the CRPD bounds evaluate on dense
#: per-set vectors holding one capped block count per byte.
MAX_WAYS = 0xFF


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a set-associative cache.

    Attributes:
        num_sets: number of cache sets (power of two).
        ways: associativity ``L``; 1 means direct mapped, at most
            :data:`MAX_WAYS`.
        line_size: bytes per cache line / memory block (power of two).
        miss_penalty: extra cycles charged for a cache miss (``Cmiss``).
        hit_cycles: cycles charged for a cache hit (0 keeps hits free,
            matching the paper's accounting where only misses add delay).
        policy: replacement policy, one of ``"lru"`` (the paper's
            assumption), ``"fifo"`` or ``"plru"``.  Non-LRU policies make
            the RMB/LMB dataflow fall back to weak (still sound) updates.
        write_back: when True, stores dirty the line instead of writing
            through, and evicting a dirty line costs ``writeback_penalty``
            extra cycles.  The paper's model is write-through-like (False).
        writeback_penalty: cycles to write a dirty victim line back;
            defaults to the miss penalty when left at None.
    """

    num_sets: int
    ways: int
    line_size: int
    miss_penalty: int = 20
    hit_cycles: int = 0
    policy: str = "lru"
    write_back: bool = False
    writeback_penalty: int | None = None

    def __post_init__(self) -> None:
        from repro.cache.policies import POLICY_NAMES

        if not _is_power_of_two(self.num_sets):
            raise ConfigError(f"num_sets must be a power of two, got {self.num_sets}")
        if not _is_power_of_two(self.line_size):
            raise ConfigError(f"line_size must be a power of two, got {self.line_size}")
        if not 1 <= self.ways <= MAX_WAYS:
            raise ConfigError(
                f"ways must be in 1..{MAX_WAYS} (the CRPD bounds keep one "
                f"capped block count per cache set in a byte), got {self.ways}"
            )
        if self.miss_penalty < 0:
            raise ConfigError(f"miss_penalty must be >= 0, got {self.miss_penalty}")
        if self.hit_cycles < 0:
            raise ConfigError(f"hit_cycles must be >= 0, got {self.hit_cycles}")
        if self.policy not in POLICY_NAMES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; choose from {POLICY_NAMES}"
            )
        if self.policy == "plru" and not _is_power_of_two(self.ways):
            raise ConfigError("plru requires power-of-two ways")
        if self.writeback_penalty is not None and self.writeback_penalty < 0:
            raise ConfigError("writeback_penalty must be >= 0")

    @property
    def effective_writeback_penalty(self) -> int:
        """Writeback cost in cycles (defaults to the miss penalty)."""
        if not self.write_back:
            return 0
        if self.writeback_penalty is None:
            return self.miss_penalty
        return self.writeback_penalty

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.num_sets * self.ways * self.line_size

    @property
    def total_lines(self) -> int:
        """Total number of cache lines across all sets and ways."""
        return self.num_sets * self.ways

    @property
    def offset_bits(self) -> int:
        """Number of address bits used for the byte offset within a line."""
        return self.line_size.bit_length() - 1

    @property
    def index_bits(self) -> int:
        """Number of address bits used for the set index."""
        return self.num_sets.bit_length() - 1

    @property
    def max_index(self) -> int:
        """The largest set index, ``N - 1`` in the paper's notation."""
        return self.num_sets - 1

    # ------------------------------------------------------------------
    # Page coloring (the layout optimizer's recoloring move)
    # ------------------------------------------------------------------
    @property
    def index_span(self) -> int:
        """Bytes covered by one pass over the set index."""
        return self.num_sets * self.line_size

    @property
    def page_colors(self) -> int:
        """Number of page colors the index span divides into.

        OS-level cache coloring partitions sets by page frame; on this
        scaled substrate a "page" is ``index_span / page_colors`` bytes —
        8 colors (512-byte pages for the experiments' 4KB index span)
        unless the geometry has fewer sets than colors.
        """
        return min(self.num_sets, 8)

    @property
    def color_bytes(self) -> int:
        """Bytes per color band (the scaled page size)."""
        return self.index_span // self.page_colors

    def color_of(self, address: int) -> int:
        """Page color of *address* — which band of the index span it maps to."""
        self._check_address(address)
        return (address % self.index_span) // self.color_bytes

    # ------------------------------------------------------------------
    # Address decomposition (Example 2 in the paper)
    # ------------------------------------------------------------------
    def offset(self, address: int) -> int:
        """Byte offset of *address* within its memory block."""
        self._check_address(address)
        return address & (self.line_size - 1)

    def block(self, address: int) -> int:
        """Memory-block address (line aligned) containing *address*."""
        self._check_address(address)
        return address & ~(self.line_size - 1)

    def block_number(self, address: int) -> int:
        """Sequential memory-block number, i.e. ``address // line_size``."""
        self._check_address(address)
        return address >> self.offset_bits

    def index(self, address: int) -> int:
        """Cache-set index of *address* — ``idx(a)`` in the paper."""
        self._check_address(address)
        return (address >> self.offset_bits) & (self.num_sets - 1)

    def tag(self, address: int) -> int:
        """Tag field of *address*."""
        self._check_address(address)
        return address >> (self.offset_bits + self.index_bits)

    def decompose(self, address: int) -> tuple[int, int, int]:
        """Return ``(tag, index, offset)`` for *address*."""
        return self.tag(address), self.index(address), self.offset(address)

    def blocks_of_range(self, start: int, length: int) -> list[int]:
        """All memory-block addresses overlapping ``[start, start+length)``."""
        if length <= 0:
            return []
        first = self.block(start)
        last = self.block(start + length - 1)
        return list(range(first, last + 1, self.line_size))

    @staticmethod
    def _check_address(address: int) -> None:
        if address < 0:
            raise ConfigError(f"addresses must be non-negative, got {address}")

    # ------------------------------------------------------------------
    # Named geometries
    # ------------------------------------------------------------------
    @classmethod
    def arm9_32k(cls, miss_penalty: int = 20) -> "CacheConfig":
        """The paper's experimental cache: 32KB, 4-way, 16-byte lines.

        32KB / 16B = 2048 lines, / 4 ways = 512 sets ("512 lines in each
        way", Section VIII).
        """
        return cls(num_sets=512, ways=4, line_size=16, miss_penalty=miss_penalty)

    @classmethod
    def example2_1k(cls, miss_penalty: int = 20) -> "CacheConfig":
        """The cache of the paper's Example 2: 1KB, 4-way, 16-byte lines.

        1KB / 16B / 4 ways = 16 sets, so the maximum index is 15.
        """
        return cls(num_sets=16, ways=4, line_size=16, miss_penalty=miss_penalty)

    @classmethod
    def scaled_4k(cls, miss_penalty: int = 20) -> "CacheConfig":
        """Small test cache: 4KB, 4-way, 16-byte lines (64 sets)."""
        return cls(num_sets=64, ways=4, line_size=16, miss_penalty=miss_penalty)

    @classmethod
    def scaled_16k(cls, miss_penalty: int = 20) -> "CacheConfig":
        """Scaled-down cache: 16KB, 4-way, 16B lines (256 sets).

        Same 4KB index span as :meth:`scaled_8k` with twice the capacity;
        useful for analyses that want the paper's 4-way associativity.
        """
        return cls(num_sets=256, ways=4, line_size=16, miss_penalty=miss_penalty)

    @classmethod
    def scaled_8k(cls, miss_penalty: int = 20) -> "CacheConfig":
        """The reproduction experiments' cache: 8KB, 2-way, 16B lines.

        256 sets give a 4KB index span — larger than any single scaled
        workload's footprint, so footprints overlap only partially in index
        space (the regime of the paper's 32KB cache and benchmark
        binaries) — while the 8KB capacity sits *below* the combined
        working set of a three-task experiment, so the shared-cache
        simulation exhibits genuine inter-task evictions and reloads (see
        DESIGN.md section 2).
        """
        return cls(num_sets=256, ways=2, line_size=16, miss_penalty=miss_penalty)
