"""Controller sequencing: per-command cycle counts, state paths, busy rule,
and the error taxonomy."""

import re

import pytest

from nertcam import (Bits, CommandKind, Controller, ControllerState, CycleTrace,
                     MacroCommand, MemoryArray, NertcamConfig, Outcome, SdrLayout,
                     System, state_machine)
from nertcam.lockstep import mismatches, oracle_for

L333 = SdrLayout(3, 3, 3)
ZERO_DC = Bits.zeros(9)
INFER_DC = Bits.parse("000000111")
PF_DC = Bits.parse("111000111")


def B(text):
    return Bits.parse(text)


def controller_with(*triplets):
    mem = MemoryArray(L333, 4)
    for t in triplets:
        mem.micro_store(B(t))
    return Controller(mem), mem


def drive(ctrl, kind, query, dc):
    """Run one command to completion, returning (completion, traces)."""
    assert ctrl.accept(kind, query, dc)
    traces = []
    while ctrl.busy:
        traces.append(ctrl.step())
    done = ctrl.completion
    assert done is not None
    return done, traces


# --- acceptance / busy ---------------------------------------------------------


def test_accept_only_in_starting_state():
    ctrl, _ = controller_with("001|010|100")
    assert ctrl.accept(CommandKind.INFER, B("001|010|000"), INFER_DC)
    # armed but not yet stepped: still busy for new commands
    assert not ctrl.accept(CommandKind.RESET, B("000|000|000"), ZERO_DC)
    ctrl.step()
    assert ctrl.state is ControllerState.FL
    assert not ctrl.accept(CommandKind.RESET, B("000|000|000"), ZERO_DC)
    ctrl.step()
    assert ctrl.state is ControllerState.SS
    assert not ctrl.busy
    assert ctrl.accept(CommandKind.RESET, B("000|000|000"), ZERO_DC)


def test_rejected_command_has_no_effect():
    ctrl, mem = controller_with("001|010|100")
    ctrl.accept(CommandKind.INFER, B("001|010|000"), INFER_DC)
    image = mem.to_image()
    assert not ctrl.accept(CommandKind.CLEAR, B("000|000|000"), ZERO_DC)
    assert mem.to_image() == image
    while ctrl.busy:
        ctrl.step()
    assert ctrl.completion.kind is CommandKind.INFER


def test_busy_until_return_to_ss():
    ctrl, _ = controller_with()
    ctrl.accept(CommandKind.STORE, B("001|010|100"), ZERO_DC)
    assert ctrl.busy
    ctrl.step()
    assert ctrl.busy and ctrl.state is ControllerState.FL
    ctrl.step()
    assert ctrl.busy and ctrl.state is ControllerState.IR
    ctrl.step()
    assert not ctrl.busy and ctrl.state is ControllerState.SS


def test_idle_step_is_a_no_op():
    ctrl, mem = controller_with("001|010|100")
    image = mem.to_image()
    assert ctrl.step() is None
    assert ctrl.cycle_count == 0
    assert mem.to_image() == image


# --- cycle-count table ------------------------------------------------------------


def test_clear_takes_one_cycle():
    ctrl, mem = controller_with("001|010|100")
    done, traces = drive(ctrl, CommandKind.CLEAR, B("000|000|000"), ZERO_DC)
    assert (done.outcome, done.cycles) == (Outcome.SUCCESS, 1)
    assert [t.micro_op for t in traces] == ["clear"]
    assert mem.occupancy == 0


def test_reset_takes_one_cycle():
    ctrl, _ = controller_with("001|010|100")
    done, traces = drive(ctrl, CommandKind.RESET, B("000|000|000"), ZERO_DC)
    assert (done.outcome, done.cycles) == (Outcome.SUCCESS, 1)
    assert [t.micro_op for t in traces] == ["reset"]


@pytest.mark.parametrize("kind", [CommandKind.PREDICT_FEATURE,
                                  CommandKind.PREDICT_LOCATION])
def test_predict_takes_one_cycle(kind):
    ctrl, _ = controller_with("001|010|100")
    query = B("000|010|000") if kind is CommandKind.PREDICT_FEATURE else B("001|000|000")
    dc = PF_DC if kind is CommandKind.PREDICT_FEATURE else B("000111111")
    done, traces = drive(ctrl, kind, query, dc)
    assert (done.outcome, done.cycles) == (Outcome.SUCCESS, 1)
    assert [t.micro_op for t in traces] == ["lookup"]


def test_store_fresh_takes_three_cycles():
    ctrl, mem = controller_with("001|010|100")
    done, traces = drive(ctrl, CommandKind.STORE, B("010|100|010"), ZERO_DC)
    assert (done.outcome, done.cycles) == (Outcome.SUCCESS, 3)
    assert [t.micro_op for t in traces] == ["lookup", "store", "reset"]
    assert [(t.state_from, t.state_to) for t in traces] == [
        (ControllerState.SS, ControllerState.FL),
        (ControllerState.FL, ControllerState.IR),
        (ControllerState.IR, ControllerState.SS)]
    assert mem.occupancy == 2


def test_store_duplicate_takes_two_cycles():
    ctrl, mem = controller_with("001|010|100")
    done, traces = drive(ctrl, CommandKind.STORE, B("001|010|100"), ZERO_DC)
    assert (done.outcome, done.cycles) == (Outcome.STORE_FAILED, 2)
    assert [t.micro_op for t in traces] == ["lookup", "reset"]
    assert mem.occupancy == 1


def test_store_into_full_memory_reports_full_at_three_cycles():
    mem = MemoryArray(L333, 2)
    mem.micro_store(B("001|010|100"))
    mem.micro_store(B("001|100|010"))
    ctrl = Controller(mem)
    done, traces = drive(ctrl, CommandKind.STORE, B("010|001|001"), ZERO_DC)
    assert (done.outcome, done.cycles) == (Outcome.STORE_FAILED, 3)
    assert [t.micro_op for t in traces] == ["lookup", "store", "reset"]
    assert mem.full and mem.occupancy == 2


def test_delete_present_takes_three_cycles():
    ctrl, mem = controller_with("001|010|100", "001|100|010")
    done, traces = drive(ctrl, CommandKind.DELETE, B("001|100|010"), ZERO_DC)
    assert (done.outcome, done.cycles) == (Outcome.SUCCESS, 3)
    assert [t.micro_op for t in traces] == ["lookup", "delete", "reset"]
    assert mem.occupancy == 1


def test_delete_absent_takes_two_cycles():
    ctrl, mem = controller_with("001|010|100")
    done, traces = drive(ctrl, CommandKind.DELETE, B("010|100|010"), ZERO_DC)
    assert (done.outcome, done.cycles) == (Outcome.DELETE_FAILED, 2)
    assert [t.micro_op for t in traces] == ["lookup", "reset"]
    assert mem.occupancy == 1


def test_infer_hit_takes_two_cycles():
    ctrl, _ = controller_with("001|010|100", "001|100|010")
    done, traces = drive(ctrl, CommandKind.INFER, B("001|010|000"), INFER_DC)
    assert (done.outcome, done.cycles) == (Outcome.SUCCESS, 2)
    assert [t.micro_op for t in traces] == ["lookup", "validate"]
    assert str(done.classes) == "100"


def test_infer_context_switch_takes_four_cycles():
    ctrl, mem = controller_with("001|010|100", "010|100|010")
    done, _ = drive(ctrl, CommandKind.INFER, B("001|010|000"), INFER_DC)
    assert done.outcome is Outcome.SUCCESS
    # the pair below is valid only under the other object
    done, traces = drive(ctrl, CommandKind.INFER, B("010|100|000"), INFER_DC)
    assert (done.outcome, done.cycles) == (Outcome.CONTEXT_SWITCH, 4)
    assert [t.micro_op for t in traces] == ["lookup", "reset", "lookup", "validate"]
    assert [(t.state_from, t.state_to) for t in traces] == [
        (ControllerState.SS, ControllerState.FL),
        (ControllerState.FL, ControllerState.IR),
        (ControllerState.IR, ControllerState.SL),
        (ControllerState.SL, ControllerState.SS)]
    assert str(done.classes) == "010"


def test_infer_unknown_pair_fails_in_four_cycles():
    ctrl, mem = controller_with("001|010|100", "010|100|010")
    done, traces = drive(ctrl, CommandKind.INFER, B("100|001|000"), INFER_DC)
    assert (done.outcome, done.cycles) == (Outcome.INFER_FAILED, 4)
    assert [t.micro_op for t in traces] == ["lookup", "reset", "lookup", "reset"]
    # a failed identification leaves every valid bit set for a fresh start
    assert mem.valid == 0b1111


def test_infer_on_empty_memory_fails():
    ctrl, _ = controller_with()
    done, _ = drive(ctrl, CommandKind.INFER, B("001|010|000"), INFER_DC)
    assert (done.outcome, done.cycles) == (Outcome.INFER_FAILED, 4)


# --- terminal micro-op and valid-bit hygiene -----------------------------------------


def test_multicycle_commands_end_with_reset_or_validate():
    scenarios = [
        (CommandKind.STORE, B("010|100|010"), ZERO_DC),
        (CommandKind.STORE, B("001|010|100"), ZERO_DC),
        (CommandKind.DELETE, B("001|010|100"), ZERO_DC),
        (CommandKind.DELETE, B("100|001|001"), ZERO_DC),
        (CommandKind.INFER, B("001|010|000"), INFER_DC),
        (CommandKind.INFER, B("100|001|000"), INFER_DC),
    ]
    for kind, query, dc in scenarios:
        ctrl, _ = controller_with("001|010|100")
        done, traces = drive(ctrl, kind, query, dc)
        assert traces[-1].micro_op in ("reset", "validate")


def test_context_switch_equals_reset_then_infer():
    stored = ("001|010|100", "010|100|010", "100|001|010")
    query = B("010|100|000")

    a, mem_a = controller_with(*stored)
    drive(a, CommandKind.INFER, B("001|010|000"), INFER_DC)  # narrow to class 100
    done_a, _ = drive(a, CommandKind.INFER, query, INFER_DC)

    b, mem_b = controller_with(*stored)
    drive(b, CommandKind.INFER, B("001|010|000"), INFER_DC)
    drive(b, CommandKind.RESET, B("000|000|000"), ZERO_DC)
    done_b, _ = drive(b, CommandKind.INFER, query, INFER_DC)

    assert done_a.outcome is Outcome.CONTEXT_SWITCH
    assert done_b.outcome is Outcome.SUCCESS
    assert done_a.classes == done_b.classes
    assert mem_a.valid == mem_b.valid


def test_predict_lookup_is_non_destructive():
    ctrl, mem = controller_with("001|010|100", "010|100|010")
    drive(ctrl, CommandKind.INFER, B("001|010|000"), INFER_DC)
    valid_before = mem.valid
    done, _ = drive(ctrl, CommandKind.PREDICT_FEATURE, B("000|100|000"), PF_DC)
    assert mem.valid == valid_before
    # the matched rows were still captured for the prediction map
    assert done.matched == 0
    done, _ = drive(ctrl, CommandKind.PREDICT_FEATURE, B("000|010|000"), PF_DC)
    assert done.matched == 0b0001
    assert str(Bits(mem.row(0), 9)) == "001010100"
    assert mem.valid == valid_before


def test_cycle_trace_is_a_named_tuple_of_the_cycle_fields():
    ctrl, _ = controller_with("001|010|100")
    _, traces = drive(ctrl, CommandKind.RESET, B("000|000|000"), ZERO_DC)
    assert traces == [(1, ControllerState.SS, ControllerState.SS, "reset", False,
                       Outcome.SUCCESS)]
    assert traces[0]._fields == ("cycle", "state_from", "state_to", "micro_op",
                                 "valid_entry", "outcome")
    assert type(traces[0]) is CycleTrace
    assert (traces[0].micro_op, traces[0].outcome) == ("reset", Outcome.SUCCESS)


# --- the docstring's cycle table, executed ------------------------------------------

#: command-column names that are not a CommandKind's own
_TABLE_KINDS = {"PREDICT_F": CommandKind.PREDICT_FEATURE,
                "_L": CommandKind.PREDICT_LOCATION}

#: one stream on a two-row device that reaches every row of the table:
#: A stored, then B, fills the array; C then finds no empty row
_TABLE_SCRIPT = [
    (CommandKind.CLEAR, "000|000|000"),
    (CommandKind.RESET, "000|000|000"),
    (CommandKind.PREDICT_FEATURE, "000|010|000"),
    (CommandKind.PREDICT_LOCATION, "001|000|000"),
    (CommandKind.STORE, "001|010|100"),       # A: stored
    (CommandKind.STORE, "001|010|100"),       # A again: duplicate
    (CommandKind.DELETE, "010|100|010"),      # B: absent
    (CommandKind.STORE, "010|100|010"),       # B: stored, array full
    (CommandKind.STORE, "100|001|001"),       # C: no empty row
    (CommandKind.INFER, "001|010|000"),       # hit: valid narrows to A
    (CommandKind.INFER, "010|100|000"),       # miss in A, hit in all: B
    (CommandKind.INFER, "100|100|000"),       # miss everywhere
    (CommandKind.DELETE, "001|010|100"),      # A: deleted
]


def _table_rows():
    """The module docstring's cycle table: (state, kinds, branch, micro-op,
    next, results) per row. A result is (outcome, cycles, full); one with no
    count of its own keeps the count of the result before it."""
    lines = state_machine.__doc__.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.lstrip().startswith("-----"))
    starts = [m.start() for m in re.finditer(r"-+", lines[rule])]
    cells = []
    for line in lines[rule + 1:]:
        if not line.strip():
            break
        row = [line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]
        if row[0]:
            cells.append(row)
        else:  # the row above's result, continued
            cells[-1][4] += " " + row[4]
    rows = []
    for state, command, micro_op, next_state, result in cells:
        *names, branch = command.split()
        if branch not in ("V", "NV"):
            names, branch = [*names, branch], None
        kinds = [_TABLE_KINDS.get(name) or CommandKind[name]
                 for name in " ".join(names).split(" / ")]
        results, cycles = [], None
        for alternative in filter(None, result.split(", or ")):
            m = re.fullmatch(r"(\w+)(?: \((\d+)(?: cycles?)?\))?( \+ full)?", alternative)
            assert m, alternative
            cycles = int(m[2]) if m[2] else cycles
            results.append((Outcome[m[1].upper()], cycles, bool(m[3])))
        rows.append((state, kinds, branch, re.match(r"[a-z]+", micro_op)[0],
                     next_state, results))
    return rows


def _applies(outcome, kind):
    """A failure outcome names the one kind that can end in it."""
    return not outcome.value.endswith("_FAILED") or outcome.value.startswith(kind.value)


def test_cycle_table_holds_on_a_device():
    """Every row of the cycle table, for each command it names, is reached by
    a device driven through submit() and step(); each cycle there runs the
    row's micro-op into the row's next state, and a finishing row's command
    ends with one of the row's results, each of which is seen."""
    rows = _table_rows()
    assert len(rows) == 15
    system = System(NertcamConfig(L333, capacity=2))
    observed = []
    for kind, text in _TABLE_SCRIPT:
        assert system.submit(MacroCommand(kind, B(text)))
        while system.busy:
            branch = "V" if system.memory.valid_entry else "NV"
            trace = system.step()
            observed.append((trace, kind, branch, system.response))
    for state, kinds, branch, micro_op, next_state, results in rows:
        for kind in kinds:
            row = (state, kind.value, branch)
            matches = [(trace, resp) for trace, k, b, resp in observed
                       if trace.state_from.value == state and k is kind
                       and branch in (None, b)]
            assert matches, row
            expected = {r[0]: r for r in results if _applies(r[0], kind)}
            seen = set()
            for trace, resp in matches:
                assert (trace.micro_op, trace.state_to.value) == (micro_op, next_state), row
                if not expected:
                    assert trace.outcome is None and resp is None, row
                    continue
                assert resp is not None and trace.outcome is resp.outcome, row
                outcome, cycles, full = expected.get(resp.outcome, (None, None, False))
                assert (resp.outcome, resp.cycles) == (outcome, cycles), row
                assert resp.full or not full, row
                seen.add(outcome)
            assert seen == set(expected), row


def test_cycle_table_script_agrees_with_the_oracle():
    """The table's script, on a device and on the oracle in lockstep: every
    command ends with the same outcome, outputs, full flag and cycle count,
    and the device's valid bits mirror the oracle's valid set."""
    config = NertcamConfig(L333, capacity=2)
    system, oracle = System(config), oracle_for(config)
    for kind, text in _TABLE_SCRIPT:
        command = MacroCommand(kind, B(text))
        resp = system.run(command)
        assert mismatches(system, oracle, resp, oracle.apply(command)) == [], (kind, text)
