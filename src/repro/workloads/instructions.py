"""Instruction records consumed by the MCD processor simulator.

A trace is a sequence of :class:`Instruction` objects.  Each instruction
carries only what the simulator needs: an opcode class (which selects the
execution domain and functional-unit latency), register dependences expressed
as absolute producer indices within the trace, an effective address for memory
operations, and outcome/target for branches.  Addresses and branch outcomes
are *inputs* to the cache and branch-predictor substrates -- hits, misses and
mispredictions are decided by those models, not by the trace.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import Optional


class InstructionKind(enum.Enum):
    """Opcode classes, mirroring the functional units of the paper's Table 1."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    FP_SQRT = "fp_sqrt"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"

    @property
    def is_fp(self) -> bool:
        return self in _FP_KINDS

    @property
    def is_mem(self) -> bool:
        return self in (InstructionKind.LOAD, InstructionKind.STORE)

    @property
    def is_int(self) -> bool:
        return self in _INT_KINDS


_FP_KINDS = frozenset(
    {
        InstructionKind.FP_ADD,
        InstructionKind.FP_MUL,
        InstructionKind.FP_DIV,
        InstructionKind.FP_SQRT,
    }
)

_INT_KINDS = frozenset(
    {
        InstructionKind.INT_ALU,
        InstructionKind.INT_MUL,
        InstructionKind.INT_DIV,
        InstructionKind.BRANCH,
    }
)


#: memoized traces keep thousands of instructions alive, so drop each
#: instance's ``__dict__`` where dataclasses can (``slots`` is 3.10+)
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTS)
class Instruction:
    """One dynamic instruction in a trace.

    Attributes
    ----------
    index:
        Position of this instruction in the trace (0-based).
    kind:
        Opcode class; selects execution domain and latency.
    pc:
        Instruction address (byte address).  Drives the I-cache and the
        branch predictor.
    src1, src2:
        Absolute trace indices of the producers of the two source operands,
        or ``None`` when an operand is immediate/unused or its producer has
        left the window.  Producers always precede the consumer
        (``src < index``).
    addr:
        Effective address for LOAD/STORE, otherwise ``None``.
    taken:
        Actual branch outcome (BRANCH only).
    target:
        Branch target PC (BRANCH only; meaningful when ``taken``).
    """

    index: int
    kind: InstructionKind
    pc: int
    src1: Optional[int] = None
    src2: Optional[int] = None
    addr: Optional[int] = None
    taken: bool = False
    target: int = 0

    def __post_init__(self) -> None:
        if self.src1 is not None and self.src1 >= self.index:
            raise ValueError(
                f"src1 ({self.src1}) must precede instruction {self.index}"
            )
        if self.src2 is not None and self.src2 >= self.index:
            raise ValueError(
                f"src2 ({self.src2}) must precede instruction {self.index}"
            )
        if self.kind.is_mem and self.addr is None:
            raise ValueError(f"{self.kind} at index {self.index} requires addr")
