"""Structured program builder.

Workloads are written against this small assembler DSL, which guarantees
reducible control flow and records the *structure tree* (sequences,
if/else diamonds and counted loops) alongside the CFG.  The structure tree
is what lets :mod:`repro.program.paths` collapse fixed-bound loops into
SFP-PrS segments (Definition 2 of the paper) and enumerate feasible paths.

Example::

    b = ProgramBuilder("demo")
    src = b.array("src", words=16)
    dst = b.array("dst", words=16)
    b.const("acc", 0)
    with b.loop(16) as i:
        b.load("v", src, index=i)
        b.binop("acc", "add", "acc", "v")
        b.store("acc", dst, index=i)
    program = b.build()
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.program.cfg import BasicBlock, CFGError, ControlFlowGraph
from repro.program.instructions import (
    BinOp,
    Branch,
    Const,
    Halt,
    Instruction,
    Jump,
    Load,
    Mov,
    Operand,
    Store,
    UnOp,
)

DEFAULT_ELEMENT_SIZE = 4


# ----------------------------------------------------------------------
# Structure tree
# ----------------------------------------------------------------------
class StructureNode:
    """Base class for structure-tree nodes."""


@dataclass(frozen=True)
class LeafNode(StructureNode):
    """A single basic block."""

    label: str


@dataclass(frozen=True)
class SeqNode(StructureNode):
    """A sequence of structure nodes executed in order."""

    children: tuple[StructureNode, ...]


@dataclass(frozen=True)
class IfElseNode(StructureNode):
    """A two-way branch; the deciding block is the leaf preceding this node."""

    then_tree: StructureNode
    else_tree: StructureNode | None
    then_entry: str
    else_entry: str | None
    join_label: str


@dataclass(frozen=True)
class LoopNode(StructureNode):
    """A counted loop with a statically fixed bound (an SFP-PrS candidate)."""

    header_label: str
    body_tree: StructureNode
    bound: int
    exit_label: str


@dataclass(frozen=True)
class ArrayDecl:
    """A named data region of ``words`` elements of ``element_size`` bytes."""

    name: str
    words: int
    element_size: int = DEFAULT_ELEMENT_SIZE

    @property
    def size_bytes(self) -> int:
        return self.words * self.element_size

    def __str__(self) -> str:
        return self.name


@dataclass
class Program:
    """A built program: CFG + structure tree + data declarations (never
    mutated, so analyses memoise per-program work on the object)."""

    name: str
    cfg: ControlFlowGraph
    structure: StructureNode
    arrays: dict[str, ArrayDecl] = field(default_factory=dict)

    def array(self, name: str) -> ArrayDecl:
        try:
            return self.arrays[name]
        except KeyError:
            raise KeyError(f"program {self.name!r} has no array {name!r}") from None

    @property
    def data_size_bytes(self) -> int:
        return sum(decl.size_bytes for decl in self.arrays.values())

    def __getstate__(self):
        # Underscored per-object memos stay out of every pickle.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


class BuilderError(RuntimeError):
    """Raised on misuse of :class:`ProgramBuilder`."""


class ProgramBuilder:
    """Incrementally builds a :class:`Program` with structured control flow."""

    def __init__(self, name: str):
        self.name = name
        self._cfg = ControlFlowGraph(name=name, entry=f"{name}.entry")
        self._arrays: dict[str, ArrayDecl] = {}
        self._regions: list[list[StructureNode]] = [[]]
        self._label_counter = 0
        self._loop_counter = 0
        self._finished = False
        self._current: BasicBlock | None = None
        self._open_block(self._cfg.entry)

    # ------------------------------------------------------------------
    # Data declarations
    # ------------------------------------------------------------------
    def array(self, name: str, words: int, element_size: int = DEFAULT_ELEMENT_SIZE) -> ArrayDecl:
        """Declare a data region; returns a handle usable in load/store."""
        if name in self._arrays:
            raise BuilderError(f"array {name!r} already declared")
        if words <= 0:
            raise BuilderError(f"array {name!r} must have positive size")
        decl = ArrayDecl(name=name, words=words, element_size=element_size)
        self._arrays[name] = decl
        return decl

    def scalar(self, name: str) -> ArrayDecl:
        """Declare a single-element data region."""
        return self.array(name, words=1)

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------
    def _fresh_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"{self.name}.{hint}{self._label_counter}"

    def _open_block(self, label: str) -> BasicBlock:
        block = BasicBlock(label=label)
        self._cfg.add_block(block)
        self._regions[-1].append(LeafNode(label))
        self._current = block
        return block

    def _require_open(self) -> BasicBlock:
        if self._finished:
            raise BuilderError("program already built")
        if self._current is None:
            raise BuilderError("no open block to emit into")
        return self._current

    def emit(self, instruction: Instruction) -> None:
        """Append a straight-line instruction to the current block."""
        self._require_open().instructions.append(instruction)

    # Convenience emitters ------------------------------------------------
    def const(self, dst: str, value: int) -> None:
        self.emit(Const(dst, value))

    def mov(self, dst: str, src: Operand) -> None:
        self.emit(Mov(dst, src))

    def binop(self, dst: str, op: str, lhs: Operand, rhs: Operand) -> None:
        self.emit(BinOp(dst, op, lhs, rhs))

    def unop(self, dst: str, op: str, src: Operand) -> None:
        self.emit(UnOp(dst, op, src))

    def add(self, dst: str, lhs: Operand, rhs: Operand) -> None:
        self.binop(dst, "add", lhs, rhs)

    def sub(self, dst: str, lhs: Operand, rhs: Operand) -> None:
        self.binop(dst, "sub", lhs, rhs)

    def mul(self, dst: str, lhs: Operand, rhs: Operand) -> None:
        self.binop(dst, "mul", lhs, rhs)

    def load(
        self,
        dst: str,
        array: ArrayDecl | str,
        index: Operand | None = None,
        disp: int = 0,
    ) -> None:
        """Load ``array[index] + disp-elements`` into *dst*."""
        decl = self._resolve_array(array)
        self.emit(
            Load(
                dst,
                decl.name,
                index=index,
                scale=decl.element_size,
                disp=disp * decl.element_size,
            )
        )

    def store(
        self,
        src: Operand,
        array: ArrayDecl | str,
        index: Operand | None = None,
        disp: int = 0,
    ) -> None:
        """Store *src* to ``array[index] + disp-elements``."""
        decl = self._resolve_array(array)
        self.emit(
            Store(
                src,
                decl.name,
                index=index,
                scale=decl.element_size,
                disp=disp * decl.element_size,
            )
        )

    def _resolve_array(self, array: ArrayDecl | str) -> ArrayDecl:
        name = array.name if isinstance(array, ArrayDecl) else array
        try:
            return self._arrays[name]
        except KeyError:
            raise BuilderError(f"array {name!r} not declared") from None

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    @contextmanager
    def if_else(self, cond: Operand) -> Iterator["_BranchArms"]:
        """Open an if/else diamond branching on ``cond != 0``.

        Usage::

            with b.if_else("flag") as arms:
                with arms.then_case():
                    ...
                with arms.else_case():   # optional
                    ...
        """
        cond_block = self._require_open()
        then_label = self._fresh_label("then")
        else_label = self._fresh_label("else")
        join_label = self._fresh_label("join")
        arms = _BranchArms(self, then_label, else_label, join_label)
        yield arms
        if arms.then_tree is None:
            raise BuilderError("if_else requires a then_case()")
        else_entry = else_label if arms.else_tree is not None else join_label
        cond_block.terminator = Branch(cond, then_label, else_entry)
        node = IfElseNode(
            then_tree=arms.then_tree,
            else_tree=arms.else_tree,
            then_entry=then_label,
            else_entry=else_label if arms.else_tree is not None else None,
            join_label=join_label,
        )
        self._regions[-1].append(node)
        self._open_block(join_label)

    @contextmanager
    def loop(self, bound: int, counter: str | None = None) -> Iterator[str]:
        """Open a counted loop executing its body exactly *bound* times.

        Yields the name of the counter register (values 0..bound-1).  The
        bound must be a compile-time constant, which is what makes the loop
        an SFP-PrS segment.
        """
        if bound < 0:
            raise BuilderError(f"loop bound must be >= 0, got {bound}")
        self._loop_counter += 1
        counter = counter or f"{self.name}.i{self._loop_counter}"
        cond_reg = f"{counter}.cond"
        pre_block = self._require_open()
        header_label = self._fresh_label("loophead")
        body_label = self._fresh_label("loopbody")
        exit_label = self._fresh_label("loopexit")

        pre_block.instructions.append(Const(counter, 0))
        pre_block.terminator = Jump(header_label)

        header = BasicBlock(label=header_label)
        header.instructions.append(BinOp(cond_reg, "lt", counter, bound))
        header.terminator = Branch(cond_reg, body_label, exit_label)
        self._cfg.add_block(header)

        self._regions.append([])
        self._open_block(body_label)
        yield counter
        body_exit = self._require_open()
        body_exit.instructions.append(BinOp(counter, "add", counter, 1))
        body_exit.terminator = Jump(header_label)
        body_items = self._regions.pop()
        body_tree: StructureNode = (
            body_items[0] if len(body_items) == 1 else SeqNode(tuple(body_items))
        )
        node = LoopNode(
            header_label=header_label,
            body_tree=body_tree,
            bound=bound,
            exit_label=exit_label,
        )
        self._regions[-1].append(node)
        self._open_block(exit_label)

    def halt(self) -> None:
        """Terminate the current block (and the program) with Halt."""
        self._require_open().terminator = Halt()
        self._current = None

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def build(self) -> Program:
        """Validate and return the finished :class:`Program`."""
        if self._finished:
            raise BuilderError("program already built")
        if self._current is not None:
            self.halt()
        if len(self._regions) != 1:
            raise BuilderError("unclosed control-flow region")
        self._finished = True
        items = self._regions[0]
        structure: StructureNode = items[0] if len(items) == 1 else SeqNode(tuple(items))
        try:
            self._cfg.validate()
        except CFGError as exc:
            raise BuilderError(f"built CFG invalid: {exc}") from exc
        return Program(
            name=self.name,
            cfg=self._cfg,
            structure=structure,
            arrays=dict(self._arrays),
        )


class _BranchArms:
    """Helper yielded by :meth:`ProgramBuilder.if_else`."""

    def __init__(self, builder: ProgramBuilder, then_label: str, else_label: str, join_label: str):
        self._builder = builder
        self._then_label = then_label
        self._else_label = else_label
        self._join_label = join_label
        self.then_tree: StructureNode | None = None
        self.else_tree: StructureNode | None = None

    @contextmanager
    def then_case(self) -> Iterator[None]:
        if self.then_tree is not None:
            raise BuilderError("then_case() opened twice")
        self.then_tree = self._capture_arm(self._then_label)
        yield
        self.then_tree = self._finish_arm()

    @contextmanager
    def else_case(self) -> Iterator[None]:
        if self.then_tree is None:
            raise BuilderError("else_case() before then_case()")
        if self.else_tree is not None:
            raise BuilderError("else_case() opened twice")
        self.else_tree = self._capture_arm(self._else_label)
        yield
        self.else_tree = self._finish_arm()

    def _capture_arm(self, entry_label: str) -> StructureNode:
        builder = self._builder
        builder._regions.append([])
        builder._open_block(entry_label)
        return LeafNode(entry_label)  # placeholder until _finish_arm

    def _finish_arm(self) -> StructureNode:
        builder = self._builder
        arm_exit = builder._require_open()
        arm_exit.terminator = Jump(self._join_label)
        items = builder._regions.pop()
        builder._current = None
        return items[0] if len(items) == 1 else SeqNode(tuple(items))
