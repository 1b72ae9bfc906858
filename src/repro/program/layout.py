"""Memory layout: assigning code and data addresses to a program.

The paper assumes "there are no dynamic data allocations in tasks and
addresses of all the data structures are fixed" (Section III-B).  A
:class:`ProgramLayout` pins every instruction and every data array of one
program to concrete byte addresses; a :class:`SystemLayout` places several
programs in disjoint regions of the shared address space, the way the
linker laid out the tasks on the paper's ARM platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigError
from repro.program.builder import ArrayDecl, Program
from repro.program.instructions import INSTRUCTION_SIZE


class LayoutError(ConfigError):
    """Raised for invalid layout requests."""


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


def _intervals_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Half-open interval intersection; empty intervals never overlap."""
    return a[0] < b[1] and b[0] < a[1] and a[0] < a[1] and b[0] < b[1]


@dataclass
class ProgramLayout:
    """Concrete addresses for one program's code and data.

    ``symbol_overrides`` pins selected arrays to explicit base addresses
    (the layout optimizer's recoloring move); the remaining arrays pack
    from ``data_base`` as before.  Every region — code, the packed data
    block, and each override — must be pairwise disjoint.
    """

    program: Program
    code_base: int
    data_base: int
    data_alignment: int = 16
    symbol_overrides: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code_base < 0 or self.data_base < 0:
            raise LayoutError("bases must be non-negative")
        self._block_starts: dict[str, int] = {}
        address = self.code_base
        for label in self.program.cfg.labels():
            self._block_starts[label] = address
            address += self.program.cfg.block(label).size_instructions * INSTRUCTION_SIZE
        self._code_end = address

        for name, base in self.symbol_overrides.items():
            if name not in self.program.arrays:
                raise LayoutError(
                    f"symbol override for unknown array {name!r} in "
                    f"program {self.program.name!r}"
                )
            if base < 0:
                raise LayoutError(f"symbol override for {name!r} must be non-negative")

        self._symbol_bases: dict[str, int] = {}
        cursor = _align_up(self.data_base, self.data_alignment)
        packed_any = False
        for decl in self.program.arrays.values():
            override = self.symbol_overrides.get(decl.name)
            if override is not None:
                self._symbol_bases[decl.name] = override
                continue
            self._symbol_bases[decl.name] = cursor
            cursor = _align_up(cursor + decl.size_bytes, self.data_alignment)
            packed_any = True
        # An empty packed-data region occupies no bytes: without this,
        # aligning ``data_base`` up could push ``data_end`` past the base
        # and a zero-array program would trip a phantom overlap with code.
        self._data_end = cursor if packed_any else self.data_base
        self._check_regions_disjoint()

    def _check_regions_disjoint(self) -> None:
        regions = self.intervals()
        for i, (a_lo, a_hi, a_label) in enumerate(regions):
            for b_lo, b_hi, b_label in regions[i + 1 :]:
                if _intervals_overlap((a_lo, a_hi), (b_lo, b_hi)):
                    raise LayoutError(
                        f"{a_label} [{a_lo:#x},{a_hi:#x}) and {b_label} "
                        f"[{b_lo:#x},{b_hi:#x}) regions overlap in program "
                        f"{self.program.name!r}"
                    )

    def intervals(self) -> list[tuple[int, int, str]]:
        """Half-open ``(start, end, label)`` spans this layout occupies.

        Empty spans (zero code, no packed arrays) are included with
        ``start == end`` so callers can report them, but they never
        participate in overlap because the intersection test requires
        both intervals to be non-empty.
        """
        spans = [
            (self.code_base, self._code_end, "code"),
            (self.data_base, self._data_end, "data"),
        ]
        for name, base in self.symbol_overrides.items():
            decl = self.program.array(name)
            spans.append((base, base + decl.size_bytes, f"symbol {name!r}"))
        return spans

    # ------------------------------------------------------------------
    @property
    def code_end(self) -> int:
        """One past the last code byte."""
        return self._code_end

    @property
    def data_end(self) -> int:
        """One past the last data byte."""
        return self._data_end

    @property
    def code_size(self) -> int:
        return self._code_end - self.code_base

    def block_start(self, label: str) -> int:
        try:
            return self._block_starts[label]
        except KeyError:
            raise LayoutError(f"no block {label!r} in layout") from None

    def instruction_address(self, label: str, position: int) -> int:
        """Byte address of the *position*-th instruction of block *label*.

        The terminator sits at ``position == len(instructions)``.
        """
        block = self.program.cfg.block(label)
        if not 0 <= position < block.size_instructions:
            raise LayoutError(
                f"instruction position {position} out of range for {label!r}"
            )
        return self.block_start(label) + position * INSTRUCTION_SIZE

    def symbol_base(self, symbol: str | ArrayDecl) -> int:
        name = symbol.name if isinstance(symbol, ArrayDecl) else symbol
        try:
            return self._symbol_bases[name]
        except KeyError:
            raise LayoutError(f"no symbol {name!r} in layout") from None

    def element_address(self, symbol: str | ArrayDecl, element: int) -> int:
        """Byte address of the *element*-th element of array *symbol*."""
        name = symbol.name if isinstance(symbol, ArrayDecl) else symbol
        decl = self.program.array(name)
        if not 0 <= element < decl.words:
            raise LayoutError(
                f"element {element} out of range for {name!r} ({decl.words} words)"
            )
        return self.symbol_base(name) + element * decl.element_size

    def region_spans(self) -> list[tuple[int, int]]:
        """Half-open span of each movable region: the code, then every
        array in declaration order.

        The VM issues every address as a region's base plus an offset that
        control flow alone decides, so a trace recorded at one placement
        holds at any other once each event is shifted by its region's
        move (see :class:`repro.vm.trace.TraceView`).
        """
        spans = [(self.code_base, self._code_end)]
        for decl in self.program.arrays.values():
            base = self._symbol_bases[decl.name]
            spans.append((base, base + decl.size_bytes))
        return spans

    def region_bases(self) -> tuple[int, ...]:
        """Start of each :meth:`region_spans` region: the placement as the
        memory trace sees it."""
        return tuple(start for start, _ in self.region_spans())

    def code_addresses(self) -> list[int]:
        """Byte address of every fetchable instruction, in layout order."""
        addresses: list[int] = []
        for label in self.program.cfg.labels():
            start = self._block_starts[label]
            count = self.program.cfg.block(label).size_instructions
            addresses.extend(start + i * INSTRUCTION_SIZE for i in range(count))
        return addresses

    def data_addresses(self) -> list[int]:
        """Byte address of every data element, in declaration order."""
        addresses: list[int] = []
        for decl in self.program.arrays.values():
            base = self._symbol_bases[decl.name]
            addresses.extend(
                base + i * decl.element_size for i in range(decl.words)
            )
        return addresses


@dataclass
class SystemLayout:
    """Places multiple programs in disjoint address regions.

    Mirrors a static link of all tasks into one shared address space: task
    *k* receives a code region followed by a data region, each aligned to
    ``region_alignment`` bytes.

    With ``stride=None`` (default) programs are packed back to back.  A
    positive ``stride`` instead pins task *k*'s region to
    ``base_address + k * stride``; choosing a stride that is *not* a
    multiple of the cache's index span (``num_sets * line_size``) staggers
    the tasks' cache-index bands so footprints overlap partially — the
    regime of the paper's separately linked benchmark binaries.  Physical
    regions must still be disjoint; a task larger than the stride raises
    :class:`LayoutError`.
    """

    base_address: int = 0x10000
    region_alignment: int = 0x100
    stride: int | None = None
    layouts: dict[str, ProgramLayout] = field(default_factory=dict)

    def place(self, program: Program) -> ProgramLayout:
        """Place *program* after (or strided past) previously placed ones."""
        if program.name in self.layouts:
            raise LayoutError(f"program {program.name!r} already placed")
        cursor = self.base_address
        for layout in self.layouts.values():
            cursor = max(cursor, layout.code_end, layout.data_end)
        if self.stride is None:
            code_base = _align_up(cursor, self.region_alignment)
        else:
            code_base = _align_up(
                self.base_address + len(self.layouts) * self.stride,
                self.region_alignment,
            )
            if code_base < cursor:
                raise LayoutError(
                    f"stride {self.stride:#x} too small: program "
                    f"{program.name!r} would start at {code_base:#x} inside "
                    f"an earlier region ending at {cursor:#x}"
                )
        code_size = program.cfg.total_instructions * INSTRUCTION_SIZE
        data_base = _align_up(code_base + code_size, self.region_alignment)
        layout = ProgramLayout(
            program=program, code_base=code_base, data_base=data_base
        )
        self.layouts[program.name] = layout
        return layout

    def place_at(
        self,
        program: Program,
        code_base: int,
        data_base: int,
        symbol_overrides: Mapping[str, int] | None = None,
    ) -> ProgramLayout:
        """Place *program* at explicit addresses (the optimizer's entry).

        Unlike :meth:`place` the caller chooses every base; this method
        only enforces physical disjointness against the already-placed
        programs, raising :class:`LayoutError` that names both tasks and
        the colliding spans.
        """
        if program.name in self.layouts:
            raise LayoutError(f"program {program.name!r} already placed")
        layout = ProgramLayout(
            program=program,
            code_base=code_base,
            data_base=data_base,
            symbol_overrides=dict(symbol_overrides or {}),
        )
        for other_name, other in self.layouts.items():
            for lo, hi, label in layout.intervals():
                for o_lo, o_hi, o_label in other.intervals():
                    if _intervals_overlap((lo, hi), (o_lo, o_hi)):
                        raise LayoutError(
                            f"task {program.name!r} {label} [{lo:#x},{hi:#x}) "
                            f"overlaps task {other_name!r} {o_label} "
                            f"[{o_lo:#x},{o_hi:#x})"
                        )
        self.layouts[program.name] = layout
        return layout

    def layout_of(self, name: str) -> ProgramLayout:
        try:
            return self.layouts[name]
        except KeyError:
            raise LayoutError(f"program {name!r} not placed") from None

    def extent(self) -> int:
        """One past the highest byte any placed region occupies."""
        top = self.base_address
        for layout in self.layouts.values():
            for _, hi, _ in layout.intervals():
                top = max(top, hi)
        return top


# ----------------------------------------------------------------------
# Hashable layout assignments — the optimizer's search points.


@dataclass(frozen=True)
class TaskPlacement:
    """Explicit placement of one task: bases plus pinned array symbols."""

    name: str
    code_base: int
    data_base: int
    symbols: tuple[tuple[str, int], ...] = ()

    def symbol_overrides(self) -> dict[str, int]:
        return dict(self.symbols)


@dataclass(frozen=True)
class LayoutAssignment:
    """A full system placement, hashable and JSON-serialisable.

    The task order is the placement order; equality/hashing make
    assignments usable as batch-engine sweep-point fields and as
    visited-set keys inside the optimizer.
    """

    tasks: tuple[TaskPlacement, ...]

    def placement(self, name: str) -> TaskPlacement:
        for task in self.tasks:
            if task.name == name:
                return task
        raise LayoutError(f"no placement for task {name!r} in assignment")

    def replace(self, placement: TaskPlacement) -> "LayoutAssignment":
        """A copy with *placement*'s task swapped in (order preserved)."""
        if all(task.name != placement.name for task in self.tasks):
            raise LayoutError(
                f"no placement for task {placement.name!r} in assignment"
            )
        return LayoutAssignment(
            tasks=tuple(
                placement if task.name == placement.name else task
                for task in self.tasks
            )
        )

    def to_dict(self) -> dict:
        return {
            "tasks": [
                {
                    "name": task.name,
                    "code_base": task.code_base,
                    "data_base": task.data_base,
                    "symbols": {name: base for name, base in task.symbols},
                }
                for task in self.tasks
            ]
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "LayoutAssignment":
        tasks = []
        for entry in payload["tasks"]:
            tasks.append(
                TaskPlacement(
                    name=entry["name"],
                    code_base=int(entry["code_base"]),
                    data_base=int(entry["data_base"]),
                    symbols=tuple(
                        sorted(
                            (name, int(base))
                            for name, base in entry.get("symbols", {}).items()
                        )
                    ),
                )
            )
        return cls(tasks=tuple(tasks))


def assignment_of(layouts: Mapping[str, ProgramLayout]) -> LayoutAssignment:
    """Capture the current placement of *layouts* as an assignment."""
    return LayoutAssignment(
        tasks=tuple(
            TaskPlacement(
                name=name,
                code_base=layout.code_base,
                data_base=layout.data_base,
                symbols=tuple(sorted(layout.symbol_overrides.items())),
            )
            for name, layout in layouts.items()
        )
    )


def apply_assignment(
    programs: Mapping[str, Program],
    assignment: LayoutAssignment,
    base_address: int = 0x10000,
    region_alignment: int = 0x100,
) -> dict[str, ProgramLayout]:
    """Materialise *assignment* over *programs* with full disjointness checks.

    Raises :class:`LayoutError` naming the colliding tasks if any two
    regions overlap — the optimizer counts such proposals as invalid
    moves instead of evaluating them.
    """
    system = SystemLayout(
        base_address=base_address, region_alignment=region_alignment
    )
    for task in assignment.tasks:
        try:
            program = programs[task.name]
        except KeyError:
            raise LayoutError(
                f"assignment names unknown task {task.name!r}"
            ) from None
        system.place_at(
            program,
            code_base=task.code_base,
            data_base=task.data_base,
            symbol_overrides=task.symbol_overrides(),
        )
    return dict(system.layouts)
