"""Cycle-level virtual machine over block-decoded programs.

Each :class:`~repro.program.layout.ProgramLayout` is decoded once
(:func:`decode`) into a table of basic blocks.  A block's ops carry
everything execution would otherwise look up per instruction: fetch
addresses, symbol bases and bounds, region ids and base-cycle sums.  One
executor interprets that table for both ways of driving a machine:

* :meth:`Machine.run` (run to halt) executes whole blocks without
  touching the cache, recording each block visit and each data address
  (a :class:`~repro.vm.trace.CompactTrace`), then charges the cache once
  with
  :meth:`~repro.cache.state.CacheState.access_stream`.  That is exact even
  on a warm, shared cache: nothing else accesses the cache during a
  ``run()``, and control flow never reads cache state — the cache only
  changes cycle counts.
* :meth:`Machine.step` executes one instruction (or terminator) and
  charges its references immediately.  The machine is resumable: the
  preemptive scheduler (:mod:`repro.sched.simulator`) suspends a machine
  mid-program, interleaves other tasks' references through the shared
  cache and later continues it, exactly like a task's saved context in
  the paper's RTOS.  ``run()`` resumes correctly mid-block after any
  number of ``step()`` calls.

Instruction semantics, bounds checks and error messages therefore live
in one place; both entry points raise the same error at the same point.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import SimulationError
from repro.program.builder import ArrayDecl, Program
from repro.program.instructions import (
    INSTRUCTION_SIZE,
    BinOp,
    Branch,
    Const,
    Halt,
    Jump,
    Load,
    Mov,
    Store,
    UnOp,
    evaluate_binop,
    evaluate_unop,
)
from repro.program.layout import LayoutError, ProgramLayout
from repro.vm.trace import _WRITE_FLAGS, Template, TraceRecorder

if TYPE_CHECKING:
    from repro.cache.state import CacheState


class VMError(SimulationError):
    """Raised on runtime errors: unset registers, bad addresses, etc."""


@dataclass
class StepResult:
    """Outcome of executing one instruction."""

    cycles: int
    halted: bool
    node: str


# ----------------------------------------------------------------------
# The decoded table
# ----------------------------------------------------------------------

# Opcodes, roughly by frequency.  ``R``/``I`` name register/immediate
# operands; ``*_AT`` memory ops have a static (index-free) address.
(
    _ALU_RI, _ALU_RR, _LOAD, _STORE, _CONST, _MOV, _BRANCH, _JUMP, _CMP_RI,
    _CMP_RR, _ALU_IR, _CMP_IR, _LOAD_AT, _STORE_AT, _UNARY, _HALT, _GENERIC,
    _FAIL,
) = range(18)

#: ``_execute`` results other than a next-block index.
_HALTED = -1
_INSIDE = -2

_ALU_FUNCS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "shl": operator.lshift, "shr": operator.rshift, "min": min, "max": max,
}
_CMP_FUNCS = {
    "lt": operator.lt, "le": operator.le, "gt": operator.gt,
    "ge": operator.ge, "eq": operator.eq, "ne": operator.ne,
}
_UNARY_FUNCS = {"neg": operator.neg, "abs": abs, "not": operator.invert}


class DecodedBlock:
    """One basic block, decoded for execution.

    ``ops[i]`` is op *i* (the terminator last); its references are events
    ``starts[i]:starts[i + 1]`` of the block's event template — the fetch,
    then the data access of a load or store, whose address the executor
    hands out as it issues it.  ``addresses``/``kinds``/``regions`` are
    that template (data slots hold 0 in ``addresses``); ``cycles[i]`` is
    the base-cycle sum of ops ``0:i``; ``index`` is the block's position
    in the decoded table, its template id in a
    :class:`~repro.vm.trace.CompactTrace`.
    """

    __slots__ = (
        "index", "label", "ops", "size", "addresses", "kinds", "regions",
        "starts", "cycles",
    )

    def __init__(self, index, label, ops, addresses, kinds, regions, starts, cycles):
        self.index = index
        self.label = label
        self.ops = ops
        self.size = len(ops)
        self.addresses = addresses
        self.kinds = kinds
        self.regions = regions
        self.starts = starts
        self.cycles = cycles


@dataclass(frozen=True)
class DecodedProgram:
    """A layout's decoded blocks, in CFG order, the entry index, and the
    blocks' event templates every trace recorded here shares."""

    blocks: tuple[DecodedBlock, ...]
    entry: int
    templates: tuple[Template, ...]


_DECODED: dict[int, DecodedProgram] = {}


def decode(layout: ProgramLayout) -> DecodedProgram:
    """The decoded table of *layout*, built on first use and kept while
    the layout lives."""
    key = id(layout)
    decoded = _DECODED.get(key)
    if decoded is None:
        decoded = _decode(layout)
        _DECODED[key] = decoded
        weakref.finalize(layout, _DECODED.pop, key, None)
    return decoded


def _fail(thunk, message: str | None = None):
    """An op that raises what *thunk* raises (or a VMError)."""

    def raise_error():
        thunk()
        raise VMError(message)

    return raise_error


def _decode(layout: ProgramLayout) -> DecodedProgram:
    program = layout.program
    cfg = program.cfg
    labels = cfg.labels()
    index = {label: position for position, label in enumerate(labels)}
    symbol_region = {name: region for region, name in enumerate(program.arrays, 1)}
    blocks = []
    for label in labels:
        block = cfg.block(label)
        start = layout.block_start(label)
        ops, addresses, kinds, regions, starts, cycles = [], [], [], [], [0], [0]
        for position, instr in enumerate(
            [*block.instructions, block.terminator]
        ):
            fetch = start + position * INSTRUCTION_SIZE
            addresses.append(fetch)
            kinds.append(0)
            regions.append(0)
            op, data_kind, region = _decode_op(
                layout, instr, label, index, symbol_region,
                terminal=position == len(block.instructions),
            )
            if data_kind:
                addresses.append(0)
                kinds.append(data_kind)
                regions.append(region)
            ops.append(op + (fetch,))  # the fetch address keeps ops distinct
            starts.append(len(addresses))
            cycles.append(cycles[-1] + getattr(instr, "base_cycles", 0))
        blocks.append(
            DecodedBlock(
                index=len(blocks),
                label=label,
                ops=tuple(ops),
                addresses=tuple(addresses),
                kinds=bytes(kinds),
                regions=tuple(regions),
                starts=tuple(starts),
                cycles=tuple(cycles),
            )
        )
    return DecodedProgram(
        blocks=tuple(blocks),
        entry=index[cfg.entry],
        templates=tuple(
            (block.label, block.addresses, block.kinds, block.regions)
            for block in blocks
        ),
    )


def _decode_op(layout, instr, label, index, symbol_region, terminal):
    """``(op tuple, data kind, data region)`` for one instruction."""
    if isinstance(instr, (Load, Store)):
        symbol = instr.symbol
        try:
            base = layout.symbol_base(symbol)
        except LayoutError:
            return (_FAIL, _fail(lambda: layout.symbol_base(symbol))), 0, 0
        end = base + layout.program.array(symbol).size_bytes
        region = symbol_region[symbol]
        bounds = (base, end, symbol, label)
        if isinstance(instr, Load):
            kind, target = 1, instr.dst
        else:
            kind, target = 2, instr.src
        if isinstance(instr.index, str):
            code = _LOAD if kind == 1 else _STORE
            return (
                (code, target, instr.index, instr.scale, base + instr.disp)
                + bounds
            ), kind, region
        static = instr.index or 0
        code = _LOAD_AT if kind == 1 else _STORE_AT
        return (
            (code, target, base + static * instr.scale + instr.disp) + bounds
        ), kind, region
    if isinstance(instr, Const):
        return (_CONST, instr.dst, instr.value), 0, 0
    if isinstance(instr, Mov):
        if isinstance(instr.src, str):
            return (_MOV, instr.dst, instr.src), 0, 0
        return (_CONST, instr.dst, instr.src), 0, 0
    if isinstance(instr, BinOp):
        lhs_reg = isinstance(instr.lhs, str)
        rhs_reg = isinstance(instr.rhs, str)
        if instr.op in _ALU_FUNCS and (lhs_reg or rhs_reg):
            code = _ALU_RR if lhs_reg and rhs_reg else _ALU_RI if lhs_reg else _ALU_IR
            return (code, instr.dst, _ALU_FUNCS[instr.op], instr.lhs, instr.rhs), 0, 0
        if instr.op in _CMP_FUNCS and (lhs_reg or rhs_reg):
            code = _CMP_RR if lhs_reg and rhs_reg else _CMP_RI if lhs_reg else _CMP_IR
            return (code, instr.dst, _CMP_FUNCS[instr.op], instr.lhs, instr.rhs), 0, 0
        return (_GENERIC, instr, label), 0, 0  # div/mod, two immediates
    if isinstance(instr, UnOp):
        if instr.op in _UNARY_FUNCS and isinstance(instr.src, str):
            return (_UNARY, instr.dst, _UNARY_FUNCS[instr.op], instr.src), 0, 0
        return (_GENERIC, instr, label), 0, 0
    if isinstance(instr, Halt):
        return (_HALT,), 0, 0
    if isinstance(instr, Jump):
        if instr.target in index:
            return (_JUMP, index[instr.target]), 0, 0
        target = instr.target
        return (_FAIL, _fail(lambda: layout.program.cfg.block(target))), 0, 0
    if isinstance(instr, Branch):
        if instr.then_target in index and instr.else_target in index:
            taken, other = index[instr.then_target], index[instr.else_target]
            if isinstance(instr.cond, str):
                return (_BRANCH, instr.cond, taken, other), 0, 0
            return (_JUMP, taken if instr.cond != 0 else other), 0, 0
        return (_GENERIC, instr, label), 0, 0
    if instr is None:
        return (_FAIL, _fail(lambda: None, f"block {label!r} has no terminator")), 0, 0
    what = "terminator" if terminal else "instruction"
    return (_FAIL, _fail(lambda: None, f"unknown {what} {instr!r}")), 0, 0


# ----------------------------------------------------------------------
# The machine
# ----------------------------------------------------------------------


@dataclass
class Machine:
    """One task's execution context plus the shared memory system.

    Attributes:
        layout: the program and its concrete addresses.
        cache: the (possibly shared) cache all references go through — a
            :class:`~repro.cache.state.CacheState`; ``None`` runs
            cache-free, counting base cycles only (the trace is then
            charged by whoever replays it).
        memory: byte-address -> word value store; pass a shared dict to let
            runs of the same task see earlier writes, or a fresh dict for an
            isolated run.
        trace: optional :class:`~repro.vm.trace.TraceRecorder` that
            :meth:`run` records its block visits and data addresses into
            (:meth:`step` records nothing).
    """

    layout: ProgramLayout
    cache: "CacheState | None"
    memory: dict[int, int] = field(default_factory=dict)
    trace: "TraceRecorder | None" = None

    def __post_init__(self) -> None:
        self.registers: dict[str, int] = {}
        self._decoded = decode(self.layout)
        self._block = self._decoded.blocks[self._decoded.entry]
        self._position = 0
        self._halted = False
        self._data: list[int] = []  # the data address step() issued
        self._fault = (0, 0)
        self.cycles = 0
        self.steps = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def program(self) -> Program:
        return self.layout.program

    @property
    def halted(self) -> bool:
        return self._halted

    @property
    def current_node(self) -> str:
        return self._block.label

    def register(self, name: str) -> int:
        try:
            return self.registers[name]
        except KeyError:
            raise VMError(f"read of unset register {name!r}") from None

    # ------------------------------------------------------------------
    # Memory helpers
    # ------------------------------------------------------------------
    def write_array(self, array: ArrayDecl | str, values: Iterable[int]) -> None:
        """Initialise a data array with *values* (one per element)."""
        name = array.name if isinstance(array, ArrayDecl) else array
        decl = self.program.array(name)
        values = list(values)
        if len(values) > decl.words:
            raise VMError(
                f"{len(values)} values exceed {name!r} capacity ({decl.words})"
            )
        base = self.layout.symbol_base(name)
        for offset, value in enumerate(values):
            self.memory[base + offset * decl.element_size] = value

    def read_array(self, array: ArrayDecl | str, count: int | None = None) -> list[int]:
        """Read back *count* (default: all) elements of a data array."""
        name = array.name if isinstance(array, ArrayDecl) else array
        decl = self.program.array(name)
        count = decl.words if count is None else count
        if count > decl.words:
            raise VMError(f"cannot read {count} elements from {name!r}")
        base = self.layout.symbol_base(name)
        return [
            self.memory.get(base + offset * decl.element_size, 0)
            for offset in range(count)
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, block: DecodedBlock, start: int, stop: int, put) -> int:
        """Execute ops ``start:stop`` of *block*; the one interpreter.

        Each data address is passed to *put* as it is issued.  Returns
        the index of the next block, :data:`_HALTED`, or :data:`_INSIDE`
        when *stop* falls before the terminator.  On an error, ``self._fault`` holds
        the failing op's index and how many of its references (the fetch,
        and a store's write) were issued before it failed.
        """
        regs = self.registers
        memory = self.memory
        ops = block.ops
        try:
            for op in ops if start == 0 and stop == block.size else ops[start:stop]:
                code = op[0]
                if code == _ALU_RI:
                    regs[op[1]] = op[2](regs[op[3]], op[4])
                elif code == _ALU_RR:
                    regs[op[1]] = op[2](regs[op[3]], regs[op[4]])
                elif code == _LOAD:
                    address = op[4] + regs[op[2]] * op[3]
                    if not op[5] <= address < op[6]:
                        raise self._out_of_bounds(address, op[5:9])
                    put(address)
                    regs[op[1]] = memory.get(address, 0)
                elif code == _STORE:
                    address = op[4] + regs[op[2]] * op[3]
                    if not op[5] <= address < op[6]:
                        raise self._out_of_bounds(address, op[5:9])
                    put(address)
                    value = op[1]
                    memory[address] = regs[value] if value.__class__ is str else value
                elif code == _CONST:
                    regs[op[1]] = op[2]
                elif code == _MOV:
                    regs[op[1]] = regs[op[2]]
                elif code == _BRANCH:
                    return op[2] if regs[op[1]] != 0 else op[3]
                elif code == _JUMP:
                    return op[1]
                elif code == _CMP_RI:
                    regs[op[1]] = 1 if op[2](regs[op[3]], op[4]) else 0
                elif code == _CMP_RR:
                    regs[op[1]] = 1 if op[2](regs[op[3]], regs[op[4]]) else 0
                elif code == _ALU_IR:
                    regs[op[1]] = op[2](op[3], regs[op[4]])
                elif code == _CMP_IR:
                    regs[op[1]] = 1 if op[2](op[3], regs[op[4]]) else 0
                elif code == _LOAD_AT:
                    address = op[2]
                    if not op[3] <= address < op[4]:
                        raise self._out_of_bounds(address, op[3:7])
                    put(address)
                    regs[op[1]] = memory.get(address, 0)
                elif code == _STORE_AT:
                    address = op[2]
                    if not op[3] <= address < op[4]:
                        raise self._out_of_bounds(address, op[3:7])
                    put(address)
                    value = op[1]
                    memory[address] = regs[value] if value.__class__ is str else value
                elif code == _UNARY:
                    regs[op[1]] = op[2](regs[op[3]])
                elif code == _HALT:
                    return _HALTED
                elif code == _GENERIC:
                    target = self._generic(op[1], op[2])
                    if target is not None:
                        return target
                else:  # _FAIL
                    op[1]()
        except KeyError as error:
            self._fault = self._fault_of(block, op, start, error.args[0])
            raise VMError(f"read of unset register {error.args[0]!r}") from None
        except BaseException:
            self._fault = self._fault_of(block, op, start, None)
            raise
        return _INSIDE

    @staticmethod
    def _out_of_bounds(address: int, bounds) -> VMError:
        base, end, symbol, label = bounds
        return VMError(
            f"address {address:#x} out of bounds for {symbol!r} "
            f"[{base:#x}, {end:#x}) in node {label!r}"
        )

    def _fault_of(self, block, op, start, missing) -> tuple[int, int]:
        """``(op index, references issued)`` of a failing op.  A store
        issues its write before reading its source register."""
        position = block.ops.index(op, start)
        issued = 1
        if missing is not None and op[0] in (_STORE, _STORE_AT) and op[1] == missing:
            index_read = op[0] == _STORE_AT or op[2] in self.registers
            issued += index_read
        return position, issued

    def _generic(self, instr, label: str) -> "int | None":
        """Rare instruction forms (div/mod, immediate-only operands,
        branches to unknown blocks): the reference semantics."""

        def value(operand):
            return operand if isinstance(operand, int) else self.registers[operand]

        if isinstance(instr, Branch):
            target = instr.then_target if value(instr.cond) != 0 else instr.else_target
            self.program.cfg.block(target)  # raises for an unknown block
            return self.program.cfg.labels().index(target)
        if isinstance(instr, BinOp):
            lhs = value(instr.lhs)
            rhs = value(instr.rhs)
            if instr.op in ("div", "mod") and rhs == 0:
                raise VMError(f"division by zero in node {label!r}")
            self.registers[instr.dst] = evaluate_binop(instr.op, lhs, rhs)
        else:
            self.registers[instr.dst] = evaluate_unop(instr.op, value(instr.src))
        return None

    def step(self) -> StepResult:
        """Execute one instruction (or terminator); return cycles consumed."""
        if self._halted:
            raise VMError("machine already halted")
        block = self._block
        position = self._position
        data = self._data
        first = block.starts[position]
        try:
            target = self._execute(block, position, position + 1, data.append)
        except BaseException:
            self._issue(block, first, first + self._fault[1], data)
            data.clear()
            raise
        cycles = block.cycles[position + 1] - block.cycles[position]
        cycles += self._issue(block, first, block.starts[position + 1], data)
        if target == _INSIDE:
            self._position = position + 1
        elif target == _HALTED:
            self._halted = True
        else:
            self._block = self._decoded.blocks[target]
            self._position = 0
        self.cycles += cycles
        self.steps += 1
        return StepResult(cycles=cycles, halted=self._halted, node=block.label)

    def _issue(self, block: DecodedBlock, first: int, last: int, data: list) -> int:
        """Charge events ``first:last`` of *block* (one instruction's: its
        fetch, then the data access whose address *data* holds) one by
        one; return their cache cycles."""
        cache = self.cache
        if cache is None:
            data.clear()
            return 0
        cycles = 0
        for event in range(first, last):
            kind = block.kinds[event]
            address = data.pop() if kind else block.addresses[event]
            cycles += cache.access(address, write=kind == 2).cycles
        return cycles

    def run(self, max_steps: int = 10_000_000) -> int:
        """Run to completion; return total cycles.  Guards against runaway.

        Whole blocks execute cache-free, recording one template id per
        block visit and each data address (into :attr:`trace`, or a
        recorder of this run's own); the cache is charged once at the
        end — also when an error stops the run, then up to and including
        the failing instruction's references, as :meth:`step` would have.
        """
        if self._halted:
            return self.cycles
        decoded = self._decoded
        blocks = decoded.blocks
        block = self._block
        position = self._position
        trace = self.trace if self.trace is not None else TraceRecorder()
        trace.bind(decoded.templates)
        first_visit, first_datum = len(trace.visits), len(trace.data)
        visit = trace.visits.append
        put = trace.data.append
        steps = self.steps
        base = 0
        failed = 0  # references of the failing instruction
        try:
            while True:
                budget = max_steps - steps
                if budget <= 0:
                    raise VMError(
                        f"exceeded {max_steps} steps without halting "
                        f"(program {self.program.name!r})"
                    )
                size = block.size
                stop = min(size, position + budget)
                try:
                    target = self._execute(block, position, stop, put)
                except BaseException:
                    index, failed = self._fault
                    starts = block.starts
                    visit(trace.partial(
                        block.index, starts[position], starts[index] + failed
                    ))
                    steps += index - position
                    base += block.cycles[index] - block.cycles[position]
                    position = index
                    raise
                if stop == size and position == 0:
                    visit(block.index)
                else:
                    visit(trace.partial(
                        block.index, block.starts[position], block.starts[stop]
                    ))
                steps += stop - position
                base += block.cycles[stop] - block.cycles[position]
                if target == _INSIDE:
                    position = stop
                    continue
                if target == _HALTED:
                    self._halted = True
                    break
                block = blocks[target]
                position = 0
        finally:
            self._block = block
            self._position = position
            self.steps = steps
            self.cycles += base + self._charge(
                trace, first_visit, first_datum, failed
            )
        return self.cycles

    def _charge(self, trace, first_visit, first_datum, failed) -> int:
        """Charge this run's references (*trace*'s visits from
        *first_visit*) to the cache; return the cycles of all but the
        *failed* last ones (the failing instruction's)."""
        cache = self.cache
        if cache is None:
            return 0
        addresses, kinds = trace.events(first_visit, first_datum)
        writes = kinds.translate(_WRITE_FLAGS)
        if not failed:
            return cache.access_stream(addresses, writes)
        split = len(writes) - failed
        cycles = cache.access_stream(addresses[:split], writes[:split])
        cache.access_stream(addresses[split:], writes[split:])
        return cycles


def run_isolated(
    layout: ProgramLayout,
    cache: "CacheState | None",
    inputs: dict[str, list[int]] | None = None,
    trace: "TraceRecorder | None" = None,
    max_steps: int = 10_000_000,
) -> Machine:
    """Run one program start-to-finish on the given cache; return the machine.

    ``inputs`` maps array names to initial contents.  The cache is used as
    passed (invalidate it first for a cold-cache run); ``None`` runs
    cache-free, so ``machine.cycles`` counts base cycles only.
    """
    machine = Machine(layout=layout, cache=cache, trace=trace)
    for name, values in (inputs or {}).items():
        machine.write_array(name, values)
    machine.run(max_steps=max_steps)
    return machine
