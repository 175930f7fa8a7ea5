"""Mealy controller sequencing macro commands into per-cycle micro-ops.

Four states; the starting state is the only one that accepts new commands
(the device is busy everywhere else). Every transition executes exactly one
micro-op, and the lookup result (V = some row matched, NV = none) picks the
branch taken on the next cycle:

    state  command            micro-op                 next   result
    -----  -----------------  -----------------------  -----  --------------------
    SS     CLEAR              clear                    SS     Success (1 cycle)
    SS     RESET              reset                    SS     Success (1 cycle)
    SS     PREDICT_F / _L     lookup (non-destructive) SS     Success (1 cycle)
    SS     STORE / DELETE     lookup, all rows, exact  FL
    SS     INFER              lookup, valid rows       FL
    FL     STORE        V     reset                    SS     Store_Failed (2)
    FL     STORE        NV    store                    IR
    FL     DELETE       V     delete                   IR
    FL     DELETE       NV    reset                    SS     Delete_Failed (2)
    FL     INFER        V     validate                 SS     Success (2)
    FL     INFER        NV    reset                    IR
    IR     STORE / DELETE     reset                    SS     Success (3), or
                                                              Store_Failed + full
    IR     INFER              lookup (all rows valid)  SL
    SL     INFER        V     validate                 SS     Context_Switch (4)
    SL     INFER        NV    reset                    SS     Infer_Failed (4)

The store micro-op can find no empty row; that is detected on cycle 2 and
reported on cycle 3 with the full flag asserted, keeping the success-path
length. PREDICT's lookup restores the valid bits within its single cycle so
a prediction never disturbs an identification in progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .preprocess import CommandKind
from .rtcam import LookupScope, MemoryArray
from .sdr import Bits


class ControllerState(Enum):
    SS = "SS"   # starting state, accepts commands
    FL = "FL"   # first lookup issued
    IR = "IR"   # internal reset / store / delete bookkeeping
    SL = "SL"   # second lookup (context-switch probe)


class Outcome(str, Enum):
    SUCCESS = "SUCCESS"
    STORE_FAILED = "STORE_FAILED"
    DELETE_FAILED = "DELETE_FAILED"
    INFER_FAILED = "INFER_FAILED"
    CONTEXT_SWITCH = "CONTEXT_SWITCH"


#: Outcomes that assert the error status bit.
ERROR_OUTCOMES = frozenset(
    {Outcome.STORE_FAILED, Outcome.DELETE_FAILED, Outcome.INFER_FAILED}
)


# members bound once, so that per-cycle code loads none off its class
_SS, _FL, _IR, _SL = (ControllerState.SS, ControllerState.FL,
                      ControllerState.IR, ControllerState.SL)
_CLEAR, _RESET = CommandKind.CLEAR, CommandKind.RESET
_STORE, _DELETE = CommandKind.STORE, CommandKind.DELETE
_PREDICT_FEATURE = CommandKind.PREDICT_FEATURE
_PREDICT_LOCATION = CommandKind.PREDICT_LOCATION
_SUCCESS, _CONTEXT_SWITCH = Outcome.SUCCESS, Outcome.CONTEXT_SWITCH
_STORE_FAILED, _DELETE_FAILED = Outcome.STORE_FAILED, Outcome.DELETE_FAILED
_INFER_FAILED = Outcome.INFER_FAILED
_ALL, _VALID_ONLY = LookupScope.ALL, LookupScope.VALID_ONLY


class CycleTrace(NamedTuple):
    """One clock cycle of controller activity, for trace output.

    A named tuple, not a dataclass: a traced step() builds one every cycle,
    through tuple.__new__ rather than the generated Python-level __new__.
    """

    cycle: int
    state_from: ControllerState
    state_to: ControllerState
    micro_op: str
    valid_entry: bool
    outcome: Outcome | None


@dataclass(slots=True)
class Completion:
    """One command's record, from accept() to the system facade.

    accept() fills in the command and each step counts a cycle. The final
    transition sets outcome, plus classes (an INFER's validated k-hot
    classes, on SUCCESS or CONTEXT_SWITCH) or matched (the row bitmap a
    PREDICT's lookup hit). Fields a command does not produce stay None.
    """

    kind: CommandKind
    query: Bits
    dc: Bits
    cycles: int = 0
    store_full: bool = False
    outcome: Outcome | None = None
    classes: Bits | None = None
    matched: int | None = None


_tuple_new = tuple.__new__


class Controller:
    """Owns the memory for the duration of a command; one transition per step."""

    def __init__(self, memory: MemoryArray):
        self.memory = memory
        self.state = ControllerState.SS
        self.cycle_count = 0
        self._pending: Completion | None = None
        self.completion: Completion | None = None

    @property
    def busy(self) -> bool:
        # the state is SS whenever nothing is pending
        return self._pending is not None

    def accept(self, kind: CommandKind, query: Bits, dc: Bits) -> bool:
        """Arm a command. Rejected (no effect at all) unless idle in SS."""
        if self._pending is not None:
            return False
        self._pending = Completion(kind, query, dc)
        self.completion = None
        return True

    def step(self, trace: bool = True) -> CycleTrace | None:
        """Advance one clock cycle; no-op when idle. Returns the cycle's
        CycleTrace, or None when idle or when trace is false: System.run
        steps without one, since it reads only the completion."""
        p = self._pending
        if p is None:
            return None
        before = self.state
        self.cycle_count += 1
        p.cycles += 1
        if before is _SS:
            micro = self._step_ss(p)
        elif before is _FL:
            micro = self._step_fl(p)
        elif before is _IR:
            micro = self._step_ir(p)
        else:
            micro = self._step_sl(p)
        if trace:
            return _tuple_new(CycleTrace, (self.cycle_count, before, self.state, micro,
                                           self.memory.valid_entry, p.outcome))
        return None

    # --- per-state actions -------------------------------------------------

    def _step_ss(self, p: Completion) -> str:
        kind = p.kind
        mem = self.memory
        if kind is _CLEAR:
            mem.micro_clear()
            self._finish(p, _SUCCESS)
            return "clear"
        if kind is _RESET:
            mem.micro_reset()
            self._finish(p, _SUCCESS)
            return "reset"
        if kind is _PREDICT_FEATURE or kind is _PREDICT_LOCATION:
            saved = mem.valid
            matched, _ = mem.micro_lookup(p.query, p.dc, _VALID_ONLY)
            mem.valid = saved
            self._finish(p, _SUCCESS, matched=matched)
            return "lookup"
        if kind is _STORE or kind is _DELETE:
            # duplicate / target search: exact match over every row
            mem.micro_lookup(p.query, p.dc, _ALL)
        else:  # INFER narrows within the currently valid rows
            mem.micro_lookup(p.query, p.dc, _VALID_ONLY)
        self.state = _FL
        return "lookup"

    def _step_fl(self, p: Completion) -> str:
        mem = self.memory
        hit = mem.valid_entry
        if p.kind is _STORE:
            if hit:
                mem.micro_reset()
                self._finish(p, _STORE_FAILED)
                return "reset"
            p.store_full = mem.micro_store(p.query) is None
            self.state = _IR
            return "store"
        if p.kind is _DELETE:
            if hit:
                mem.micro_delete()
                self.state = _IR
                return "delete"
            mem.micro_reset()
            self._finish(p, _DELETE_FAILED)
            return "reset"
        # INFER
        if hit:
            classes = mem.micro_validate()
            self._finish(p, _SUCCESS, classes=classes)
            return "validate"
        mem.micro_reset()
        self.state = _IR
        return "reset"

    def _step_ir(self, p: Completion) -> str:
        mem = self.memory
        if p.kind is _STORE or p.kind is _DELETE:
            mem.micro_reset()
            self._finish(p, _STORE_FAILED if p.store_full else _SUCCESS)
            return "reset"
        # INFER retry: every valid bit is 1 here, so this searches everything
        mem.micro_lookup(p.query, p.dc, _VALID_ONLY)
        self.state = _SL
        return "lookup"

    def _step_sl(self, p: Completion) -> str:
        mem = self.memory
        if mem.valid_entry:
            classes = mem.micro_validate()
            self._finish(p, _CONTEXT_SWITCH, classes=classes)
            return "validate"
        mem.micro_reset()
        self._finish(p, _INFER_FAILED)
        return "reset"

    def _finish(self, p: Completion, outcome: Outcome,
                classes: Bits | None = None, matched: int | None = None) -> None:
        p.outcome = outcome
        p.classes = classes
        p.matched = matched
        self.completion = p
        self.state = _SS
        self._pending = None
