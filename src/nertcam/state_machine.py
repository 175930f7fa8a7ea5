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

Controller.step is this table: one if-chain whose branches follow its
rows in order, so that a cycle costs one Python call besides its
micro-op, and finishing a command costs none.
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
_INFER = CommandKind.INFER
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
        """Advance one clock cycle: run the micro-op of the module
        docstring's table row for the state, the command and the last
        lookup's result, and move to that row's next state. A no-op when
        idle. Returns the cycle's CycleTrace, or None when idle or when
        trace is false: System.run steps without one, since it reads only
        the completion."""
        p = self._pending
        if p is None:
            return None
        before = self.state
        self.cycle_count += 1
        p.cycles += 1
        kind = p.kind
        mem = self.memory
        # a row that ends the command sets its outcome, and classes or
        # matched when it has them
        after = _SS
        outcome = None
        if before is _SS:
            if kind is _CLEAR:
                mem.micro_clear()
                micro, outcome = "clear", _SUCCESS
            elif kind is _RESET:
                mem.micro_reset()
                micro, outcome = "reset", _SUCCESS
            elif kind is _PREDICT_FEATURE or kind is _PREDICT_LOCATION:
                saved = mem.valid
                p.matched, _ = mem.micro_lookup(p.query, p.dc, _VALID_ONLY)
                mem.valid = saved
                micro, outcome = "lookup", _SUCCESS
            else:
                # STORE and DELETE search every row for an exact match; INFER
                # narrows within the currently valid rows
                mem.micro_lookup(p.query, p.dc, _VALID_ONLY if kind is _INFER else _ALL)
                micro, after = "lookup", _FL
        elif before is _FL:
            hit = mem.valid_entry
            if kind is _STORE:
                if hit:
                    mem.micro_reset()
                    micro, outcome = "reset", _STORE_FAILED
                else:
                    p.store_full = mem.micro_store(p.query) is None
                    micro, after = "store", _IR
            elif kind is _DELETE:
                if hit:
                    mem.micro_delete()
                    micro, after = "delete", _IR
                else:
                    mem.micro_reset()
                    micro, outcome = "reset", _DELETE_FAILED
            elif hit:  # INFER
                p.classes = mem.micro_validate()
                micro, outcome = "validate", _SUCCESS
            else:
                mem.micro_reset()
                micro, after = "reset", _IR
        elif before is _IR:
            if kind is _INFER:
                # the retry: every valid bit is 1 here, so this searches everything
                mem.micro_lookup(p.query, p.dc, _VALID_ONLY)
                micro, after = "lookup", _SL
            else:
                mem.micro_reset()
                micro, outcome = "reset", _STORE_FAILED if p.store_full else _SUCCESS
        elif mem.valid_entry:  # SL, INFER
            p.classes = mem.micro_validate()
            micro, outcome = "validate", _CONTEXT_SWITCH
        else:
            mem.micro_reset()
            micro, outcome = "reset", _INFER_FAILED
        self.state = after
        if outcome is not None:
            p.outcome = outcome
            self.completion = p
            self._pending = None
        if trace:
            return _tuple_new(CycleTrace, (self.cycle_count, before, after, micro,
                                           mem.valid_entry, outcome))
        return None
