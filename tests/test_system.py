"""Device facade: submit/step/run, status signals, cycle accounting, and the
end-to-end identification behavior."""

import dataclasses
import inspect
import random

import pytest

from nertcam import (Bits, BusyError, CommandKind, ConfigError, Controller,
                     InputError, LayoutError, MacroCommand, NertcamConfig, Outcome,
                     PaddingMode, PredictionOutput, Response, SdrLayout,
                     StatusOut, System)
from nertcam.prediction_map import zero_output
from nertcam.state_machine import Completion
from nertcam.traces import TraceRecord, record_to_command
from nertcam.workload import fuzz_records


L333 = SdrLayout(3, 3, 3)


def make_system(capacity=4, layout=L333, **kwargs):
    return System(NertcamConfig(layout=layout, capacity=capacity, **kwargs))


def cmd(kind, text, padding=0):
    return MacroCommand(kind, Bits.parse(text), padding=padding)


def store(system, text):
    return system.run(cmd(CommandKind.STORE, text))


# --- construction ----------------------------------------------------------------


def test_fresh_system_is_idle_and_empty():
    system = make_system()
    assert (system.busy, system.memory.full, system.memory.occupancy,
            system.response) == (False, False, 0, None)


def test_full_scale_rows_are_165_bits():
    layout = SdrLayout(128, 25, 10)
    system = make_system(capacity=1024, layout=layout)
    assert layout.total == 163
    _, bits, valid, empty = system.save_image().splitlines()[0].split()
    # triplet plus valid and empty bits
    assert len(bits.replace("|", "")) + len(valid) + len(empty) == 165


def test_grid_dimensions_must_cover_location_bits():
    layout = SdrLayout(128, 25, 10)
    make_system(capacity=4, layout=layout, padding_mode=PaddingMode.grid(5, 5))
    with pytest.raises(ConfigError):
        make_system(capacity=4, layout=layout, padding_mode=PaddingMode.grid(4, 5))


def test_capacity_must_be_positive():
    with pytest.raises(ConfigError):
        make_system(capacity=0)


# --- submit ------------------------------------------------------------------------


def test_submit_accepts_well_formed_store():
    system = make_system()
    assert system.submit(cmd(CommandKind.STORE, "001|010|100"))
    assert system.busy


def test_submit_rejects_malformed_infer():
    system = make_system()
    with pytest.raises(InputError, match="class"):
        system.submit(cmd(CommandKind.INFER, "001|010|100"))
    assert not system.busy


def test_submit_while_busy_is_rejected_without_effect():
    system = make_system()
    system.submit(cmd(CommandKind.STORE, "001|010|100"))
    image = system.save_image()
    assert system.submit(cmd(CommandKind.CLEAR, "000|000|000")) is False
    assert system.save_image() == image
    while system.busy:
        system.step()
    assert system.response.outcome is Outcome.SUCCESS
    assert system.memory.occupancy == 1  # the STORE, not the CLEAR, ran


# --- step / run --------------------------------------------------------------------


def test_infer_steps_through_fl_to_ss():
    system = make_system()
    store(system, "001|010|100")
    system.submit(cmd(CommandKind.INFER, "001|010|000"))
    t1 = system.step()
    assert (t1.state_from.value, t1.state_to.value) == ("SS", "FL")
    assert system.response is None
    t2 = system.step()
    assert t2.state_to.value == "SS"
    assert system.response is not None
    assert system.response.cycles == 2


def test_store_fresh_takes_three_steps():
    system = make_system()
    system.submit(cmd(CommandKind.STORE, "001|010|100"))
    steps = 0
    while system.busy:
        system.step()
        steps += 1
    assert steps == 3
    assert system.response.outcome is Outcome.SUCCESS


def test_idle_step_is_noop():
    system = make_system()
    assert system.step() is None
    assert system.total_cycles == 0


def test_run_clear():
    system = make_system()
    resp = system.run(cmd(CommandKind.CLEAR, "000|000|000"))
    assert (resp.outcome, resp.cycles) == (Outcome.SUCCESS, 1)


def test_run_infer_unstored_pair_fails_in_four_cycles():
    system = make_system()
    store(system, "001|010|100")
    resp = system.run(cmd(CommandKind.INFER, "100|001|000"))
    assert (resp.outcome, resp.cycles) == (Outcome.INFER_FAILED, 4)
    assert resp.error
    assert str(resp.classes) == "000"


def test_run_delete_absent_triplet():
    system = make_system()
    resp = system.run(cmd(CommandKind.DELETE, "001|010|100"))
    assert (resp.outcome, resp.cycles) == (Outcome.DELETE_FAILED, 2)
    assert resp.error


def test_run_while_busy_raises():
    system = make_system()
    system.submit(cmd(CommandKind.STORE, "001|010|100"))
    with pytest.raises(BusyError):
        system.run(cmd(CommandKind.RESET, "000|000|000"))


def test_run_equals_manual_stepping():
    stream = [
        cmd(CommandKind.STORE, "001|010|100"),
        cmd(CommandKind.STORE, "010|100|010"),
        cmd(CommandKind.INFER, "001|010|000"),
        cmd(CommandKind.INFER, "010|100|000"),
        cmd(CommandKind.PREDICT_FEATURE, "000|100|000"),
        cmd(CommandKind.DELETE, "001|010|100"),
        cmd(CommandKind.RESET, "000|000|000"),
    ]
    a = make_system()
    b = make_system()
    for c in stream:
        ra = a.run(c)
        b.submit(c)
        while b.busy:
            b.step()
        rb = b.response
        assert ra == rb


# the three fuzz configs CI runs `nertcam diff` on
CI_FUZZ_CONFIGS = [
    (NertcamConfig(SdrLayout(4, 4, 4), 16), {}),
    (NertcamConfig(SdrLayout(8, 4, 4), 16, khot_features=True), {"khot_features": True}),
    (NertcamConfig(SdrLayout(16, 25, 8), 64, padding_mode=PaddingMode.grid(5, 5)),
     {"max_padding": 2}),
]


@pytest.mark.parametrize("config,fuzz", CI_FUZZ_CONFIGS)
def test_run_in_lockstep_with_submit_and_step(config, fuzz):
    """run() and a submit() + step() loop leave the same device behind at
    every command boundary: response, memory image, cycle total, controller
    state and busy."""
    a, b = System(config), System(config)
    for rec in fuzz_records(config.layout, 2000, seed=99, **fuzz):
        command = record_to_command(rec, config.layout)
        ra = a.run(command)
        assert b.submit(command)
        while b.busy:
            b.step()
        assert ra == b.response
        assert a.save_image() == b.save_image()
        assert a.total_cycles == b.total_cycles
        assert a.controller.state is b.controller.state
        assert a.busy is b.busy is False


def test_run_steps_the_controller_once_per_cycle(monkeypatch):
    """Traced runs count controller steps against cycles, so run() must step
    through Controller.step, once per cycle."""
    steps = 0
    original = Controller.step

    def spy(self):
        nonlocal steps
        steps += 1
        return original(self)

    monkeypatch.setattr(Controller, "step", spy)
    config = NertcamConfig(SdrLayout(16, 25, 8), 64, padding_mode=PaddingMode.grid(5, 5))
    system = System(config)
    kinds = set()
    for rec in fuzz_records(config.layout, 500, seed=3, max_padding=2):
        steps = 0
        resp = system.run(record_to_command(rec, config.layout))
        assert steps == resp.cycles
        kinds.add((rec.op, resp.cycles))
    assert {k for k, _ in kinds} == {k.value for k in CommandKind}
    assert {c for _, c in kinds} == {1, 2, 3, 4}


def test_construction_builds_no_bits(monkeypatch):
    """System(config) builds no Bits: shared outputs are made on first use."""
    built = 0
    original = Bits.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        original(self)

    monkeypatch.setattr(Bits, "__post_init__", counted)
    System(NertcamConfig(SdrLayout(5, 7, 3), 32, padding_mode=PaddingMode.grid(1, 7)))
    assert built == 0


def test_commands_hash_no_layout(monkeypatch):
    """The DC masks and the zero output are kept in the layout instance, so
    once built they are read without hashing the layout."""
    system = make_system()
    commands = [cmd(CommandKind.STORE, "001|010|100"), cmd(CommandKind.INFER, "001|010|000"),
                cmd(CommandKind.PREDICT_FEATURE, "000|010|000", padding=1),
                cmd(CommandKind.PREDICT_LOCATION, "001|000|000"),
                cmd(CommandKind.DELETE, "001|010|100"), cmd(CommandKind.RESET, "000|000|000")]
    system.run(commands[0])  # the first command builds the shared values
    hashed = 0
    original = SdrLayout.__hash__

    def counted(self):
        nonlocal hashed
        hashed += 1
        return original(self)

    monkeypatch.setattr(SdrLayout, "__hash__", counted)
    for command in commands:
        system.run(command)
    assert hashed == 0
    # equal layouts still hash and compare alike
    assert hash(SdrLayout(3, 3, 3)) == hash(L333) and SdrLayout(3, 3, 3) == L333


def test_non_predict_commands_share_one_zero_output():
    system = make_system()
    other = make_system()
    shared = system.run(cmd(CommandKind.RESET, "000|000|000")).prediction
    assert shared == zero_output(L333)
    assert other.run(cmd(CommandKind.CLEAR, "000|000|000")).prediction is shared
    assert store(system, "001|010|100").prediction is shared
    infer = system.run(cmd(CommandKind.INFER, "001|010|000")).prediction
    assert str(infer.classes) == "100"
    assert infer.features is shared.features and infer.locations is shared.locations

    # two responses with one outcome and full flag carry one StatusOut,
    # whether the command went through run() or submit() and step()
    ran, stepped = make_system(capacity=1), make_system(capacity=1)

    def step_through(command):
        assert stepped.submit(command)
        while stepped.step() is not None:
            pass
        return stepped.response

    reset = cmd(CommandKind.RESET, "000|000|000")
    first = ran.run(reset).status
    assert ran.run(reset).status is first
    assert step_through(reset).status is first
    assert first.outcome is Outcome.SUCCESS and not first.error and not first.full
    for device in (ran, stepped):
        store(device, "001|010|100")
    failed = [ran.run(cmd(CommandKind.STORE, "001|010|100")).status,
              step_through(cmd(CommandKind.STORE, "001|010|100")).status,
              ran.run(cmd(CommandKind.STORE, "010|010|100")).status]
    assert failed[0] is failed[1] is failed[2]
    assert failed[0].outcome is Outcome.STORE_FAILED and failed[0].error and failed[0].full
    assert ran.run(reset).status is step_through(reset).status is not first


def test_clear_reset_store_delete_build_no_bits(monkeypatch):
    """Once each kind has run, CLEAR, RESET, STORE and DELETE build no Bits:
    their masks, zero outputs and status values are all shared."""
    system = make_system(capacity=8)
    config = system.config
    for rec in fuzz_records(config.layout, 200, seed=5):
        system.run(record_to_command(rec, config.layout))
    commands = [cmd(CommandKind.CLEAR, "000|000|000"), cmd(CommandKind.RESET, "111|111|111"),
                cmd(CommandKind.STORE, "001|010|100"), cmd(CommandKind.STORE, "001|010|100"),
                cmd(CommandKind.DELETE, "001|010|100"), cmd(CommandKind.DELETE, "001|010|100")]
    built = 0
    original = Bits.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        original(self)

    monkeypatch.setattr(Bits, "__post_init__", counted)
    outcomes = [system.run(c).outcome for c in commands]
    assert built == 0
    assert outcomes == [Outcome.SUCCESS, Outcome.SUCCESS, Outcome.SUCCESS,
                        Outcome.STORE_FAILED, Outcome.SUCCESS, Outcome.DELETE_FAILED]


def _value_objects(x):
    """One of each slotted per-command value object; x (0 or 1) sets one field."""
    bits = Bits.parse("001010100")
    status = StatusOut(Outcome.SUCCESS, False, False)
    prediction = PredictionOutput(Bits.zeros(3), Bits.zeros(3), Bits.parse("100"))
    return [Bits(0b001010100 ^ x, 9),
            MacroCommand(CommandKind.STORE, L333.triplet(2, 1, 0), padding=x),
            StatusOut(Outcome.SUCCESS, False, bool(x)),
            PredictionOutput(Bits(0, 3), Bits(x, 3), Bits(0b100, 3)),
            Response(status, prediction, 2 + x),
            TraceRecord(op="STORE", feature=2, location=1, class_=0, line=x),
            Completion(CommandKind.INFER, bits, Bits.zeros(9), cycles=2 + x)]


def test_value_objects_are_slotted_and_keep_their_semantics():
    """The per-command value objects hold no __dict__. Frozen ones still
    refuse assignment to a field; == and hash still see exactly the fields."""
    for obj, twin, other in zip(_value_objects(0), _value_objects(0), _value_objects(1)):
        cls = type(obj)
        names = [f.name for f in dataclasses.fields(obj)]
        values = tuple(getattr(obj, name) for name in names)
        assert not hasattr(obj, "__dict__")
        assert cls.__slots__ == tuple(names)
        assert obj == twin and obj is not twin and obj != other
        if cls.__dataclass_params__.frozen:
            assert hash(obj) == hash(twin) == hash(values)
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, name, None)
        else:  # Completion is mutable and, like a plain dataclass, unhashable
            with pytest.raises(TypeError):
                hash(obj)
        # no attribute outside the fields can be added (a frozen class's
        # generated __setattr__ raises TypeError here on some versions)
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = None
        assert tuple(getattr(obj, name) for name in names) == values


def test_value_object_constructors_set_every_field(monkeypatch):
    """Bits, MacroCommand, PredictionOutput and Response set their slots in
    their own __init__: it takes the fields in order, with their defaults,
    and positional, keyword and dataclasses.replace construction agree. Bits
    still checks its range and runs __post_init__ once per object built."""
    bits = Bits.parse("001010100")
    prediction = PredictionOutput(Bits.zeros(3), Bits(0b010, 3), Bits(0b100, 3))
    status = StatusOut(Outcome.SUCCESS, False, False)
    cases = [
        (Bits, (0b001010100, 9), (0b1, 12)),
        (MacroCommand, (CommandKind.PREDICT_FEATURE, bits, 2),
         (CommandKind.STORE, Bits.zeros(9), 0)),
        (PredictionOutput, (Bits.zeros(3), Bits(0b010, 3), Bits(0b100, 3)),
         (Bits(0b001, 3), Bits.zeros(3), Bits.zeros(3))),
        (Response, (status, prediction, 3),
         (StatusOut(Outcome.INFER_FAILED, True, True),
          PredictionOutput(Bits.zeros(3), Bits.zeros(3), Bits.zeros(3)), 1)),
    ]
    for cls, args, other_args in cases:
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        params = inspect.signature(cls).parameters
        assert list(params) == names
        assert [p.default for p in params.values()] == [
            inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
            for f in fields]
        obj = cls(*args)
        kwargs = dict(zip(names, args))
        assert tuple(getattr(obj, name) for name in names) == args
        assert cls(**kwargs) == obj
        assert dataclasses.replace(obj) == obj
        assert dataclasses.replace(cls(*other_args), **kwargs) == obj
        for name, value in zip(names, other_args):
            changed = dataclasses.replace(obj, **{name: value})
            assert getattr(changed, name) == value
            assert changed == cls(**{**kwargs, name: value})
        with pytest.raises(TypeError):
            cls(*args[:1])

    command = MacroCommand(CommandKind.STORE, bits)
    assert command.padding == 0
    assert command == MacroCommand(kind=CommandKind.STORE, sdr=bits, padding=0)

    for build in (lambda: Bits(8, 3), lambda: Bits(value=8, width=3),
                  lambda: dataclasses.replace(Bits(7, 3), value=8), lambda: Bits(0, -1)):
        with pytest.raises(LayoutError):
            build()

    built = 0
    original = Bits.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        original(self)

    monkeypatch.setattr(Bits, "__post_init__", counted)
    for build, count in [(lambda: Bits(1, 8), 1), (lambda: Bits(value=1, width=8), 1),
                         (lambda: dataclasses.replace(bits, value=3), 1),
                         (lambda: Bits.parse("0110"), 1), (lambda: Bits.zeros(4), 1),
                         (lambda: L333.split(bits), 3),
                         (lambda: MacroCommand(CommandKind.RESET, bits), 0),
                         (lambda: PredictionOutput(bits, bits, bits), 0),
                         (lambda: Response(status, prediction, 1), 0)]:
        built = 0
        build()
        assert built == count
    # the range check is __post_init__'s: it runs, then raises
    built = 0
    with pytest.raises(LayoutError):
        Bits(8, 3)
    assert built == 1


# --- status ------------------------------------------------------------------------


def test_full_after_capacity_stores():
    system = make_system(capacity=2)
    assert store(system, "001|010|100").outcome is Outcome.SUCCESS
    resp = store(system, "001|100|010")
    assert resp.outcome is Outcome.SUCCESS
    assert resp.full  # pass-through: this store filled the last row
    assert system.memory.full


def test_busy_mid_infer():
    system = make_system()
    store(system, "001|010|100")
    system.submit(cmd(CommandKind.INFER, "001|010|000"))
    system.step()
    assert system.busy
    while system.busy:
        system.step()
    assert not system.busy


def test_cycle_counter_accumulates_per_command_cycles():
    system = make_system()
    total = 0
    for c, expect in [
        (cmd(CommandKind.CLEAR, "000|000|000"), 1),
        (cmd(CommandKind.STORE, "001|010|100"), 3),
        (cmd(CommandKind.STORE, "001|010|100"), 2),
        (cmd(CommandKind.INFER, "001|010|000"), 2),
        (cmd(CommandKind.RESET, "000|000|000"), 1),
    ]:
        resp = system.run(c)
        assert resp.cycles == expect
        total += expect
    assert system.total_cycles == total


# --- outputs -----------------------------------------------------------------------


def test_infer_response_carries_classes():
    system = make_system()
    store(system, "001|010|100")
    store(system, "001|010|010")
    resp = system.run(cmd(CommandKind.INFER, "001|010|000"))
    assert str(resp.classes) == "110"
    assert str(resp.prediction.classes) == "110"  # the one class output
    assert str(resp.prediction.features) == str(resp.prediction.locations) == "000"


def test_predict_response_carries_prediction():
    system = make_system()
    store(system, "001|010|100")
    store(system, "100|010|010")
    resp = system.run(cmd(CommandKind.PREDICT_FEATURE, "000|010|000"))
    assert str(resp.prediction.features) == "101"
    assert str(resp.prediction.classes) == "110"
    assert str(resp.prediction.locations) == "000"
    assert resp.classes == resp.prediction.classes


def test_predict_location_output():
    system = make_system()
    store(system, "001|010|100")
    store(system, "001|100|010")
    resp = system.run(cmd(CommandKind.PREDICT_LOCATION, "001|000|000"))
    assert str(resp.prediction.locations) == "110"
    assert str(resp.prediction.features) == "000"


def test_failed_prediction_is_all_zero():
    system = make_system()
    store(system, "001|010|100")
    resp = system.run(cmd(CommandKind.PREDICT_FEATURE, "000|001|000"))
    assert resp.outcome is Outcome.SUCCESS
    assert resp.prediction == zero_output(L333)


# --- identification end to end -----------------------------------------------------


def test_identification_narrows_to_one_class():
    layout = SdrLayout(4, 4, 4)
    system = make_system(capacity=16, layout=layout)
    objects = {
        0: {0: 0, 1: 1, 2: 2, 3: 3},
        1: {0: 0, 1: 2, 2: 1, 3: 3},
        2: {0: 1, 1: 1, 2: 2, 3: 0},
    }
    for c, mapping in objects.items():
        for loc, feat in mapping.items():
            r = system.run(MacroCommand(
                CommandKind.STORE, layout.triplet(feat, loc, c)))
            assert r.outcome is Outcome.SUCCESS

    rng = random.Random(17)
    for target in objects:
        system.run(MacroCommand(CommandKind.RESET, Bits.zeros(12)))
        locations = list(objects[target])
        rng.shuffle(locations)
        previous = set(range(4))
        for loc in locations:
            resp = system.run(MacroCommand(
                CommandKind.INFER,
                layout.triplet(objects[target][loc], loc)))
            assert resp.outcome is Outcome.SUCCESS
            current = set(resp.classes.hot_positions)
            assert current <= previous  # monotone narrowing
            assert target in current
            previous = current
        assert previous == {target}  # unique map: exactly one class remains


def test_store_discards_identification_in_progress():
    system = make_system()
    store(system, "001|010|100")
    store(system, "010|100|010")
    system.run(cmd(CommandKind.INFER, "001|010|000"))  # narrowed to class 100
    store(system, "100|001|001")
    # narrowing was discarded: the other object's pair is a plain success
    resp = system.run(cmd(CommandKind.INFER, "010|100|000"))
    assert resp.outcome is Outcome.SUCCESS


# --- memory images -----------------------------------------------------------------


def test_image_save_load_round_trip():
    system = make_system()
    store(system, "001|010|100")
    store(system, "010|100|010")
    image = system.save_image()
    other = make_system()
    other.load_image(image)
    assert other.save_image() == image
    resp = other.run(cmd(CommandKind.INFER, "001|010|000"))
    assert str(resp.classes) == "100"


def test_load_image_mid_command_raises_and_changes_nothing():
    """A command in flight keeps its controller: load_image raises BusyError,
    as run() does, and the command still completes with its Response."""
    system = make_system()
    store(system, "001|010|100")
    image = make_system().save_image()
    system.submit(cmd(CommandKind.STORE, "010|100|010"))
    system.step()
    memory, controller = system.memory, system.controller
    before = (system.save_image(), system.total_cycles, controller.state,
              controller.cycle_count)
    with pytest.raises(BusyError):
        system.load_image(image)
    assert system.memory is memory and system.controller is controller
    assert (system.save_image(), system.total_cycles, controller.state,
            controller.cycle_count) == before
    while system.busy:
        system.step()
    assert system.response.outcome is Outcome.SUCCESS and system.response.cycles == 3
    assert system.memory.occupancy == 2 and system.total_cycles == 6
    system.load_image(image)  # idle again: the image loads
    assert system.memory.occupancy == 0


def test_total_cycles_is_the_controller_counter_across_image_loads():
    """total_cycles reads the controller's counter, so run() and step()
    count alike, and loading an image neither restarts nor skips it."""
    system = make_system()
    assert system.total_cycles == system.controller.cycle_count == 0
    store(system, "001|010|100")
    system.submit(cmd(CommandKind.INFER, "001|010|000"))
    cycles = [system.step().cycle for _ in range(2)]
    assert cycles == [4, 5] and system.step() is None
    assert system.total_cycles == system.controller.cycle_count == 5
    image = system.save_image()
    controller = system.controller
    system.load_image(make_system().save_image())
    assert system.total_cycles == system.controller.cycle_count == 5
    assert system.controller is controller and controller.memory is system.memory
    system.submit(cmd(CommandKind.STORE, "010|100|010"))
    assert [system.step().cycle for _ in range(3)] == [6, 7, 8]
    assert system.response.outcome is Outcome.SUCCESS
    assert system.memory.occupancy == 1
    system.load_image(image)
    resp = system.run(cmd(CommandKind.INFER, "001|010|000"))
    assert str(resp.classes) == "100"
    assert system.total_cycles == system.controller.cycle_count == 10


def test_image_capacity_mismatch_is_rejected():
    system = make_system(capacity=4)
    image = system.save_image()
    other = make_system(capacity=8)
    with pytest.raises(ConfigError):
        other.load_image(image)
