"""Top-level device model: preprocess -> memory -> controller -> prediction map.

One System instance is one logical device. Commands are submitted while the
device is idle; each step() call advances exactly one clock cycle and
returns that cycle's CycleTrace. The preprocess and prediction-map blocks
are combinational and consume no cycles; only controller transitions do.

run() is the per-command path: it submits, then drives the controller one
step per cycle itself, without going through step(). Both paths hand the
controller's completion to the Response through _respond(), so run()
returns, and leaves behind, exactly what a manual submit() and step() loop
would. total_cycles is the controller's own cycle counter, so both paths
count alike; it counts on across image loads, which keep the controller
and point it at the new memory.

The per-command path is kept lean, because with the array bit-sliced the
Python calls around it cost more than the array operations. The value
objects a command builds (Bits, MacroCommand, Completion, StatusOut,
PredictionOutput, Response) are slotted dataclasses. Bits, MacroCommand,
PredictionOutput and Response, frozen and built on every command, have a
hand-written __init__ that sets each slot through its member descriptor's
setter, bound once at import: the generated __init__ of a frozen class
goes through object.__setattr__ for each field, at about twice the cost.
Bits.__init__ still ends with __post_init__, so every Bits built is range
checked, and counted when a traced run counts them. validate_command
tests all three sections in one boolean pass, and SdrLayout.triplet sets
an int index inline; each calls a helper only to raise an error or to
take a k-hot feature. Width checks compare inline and call check_width
only to raise. run() and Controller.accept read the pending command
directly, not through the busy property. Each layer stays one called
function (validate_command, build_dc, Controller.step once per cycle,
each micro-op and condense), so a traced run still sees every span.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preprocess import (LINEAR_1D, MacroCommand, PaddingMode, build_dc,
                         validate_command)
from .prediction_map import PredictionOutput, condense, zero_output
from .rtcam import MemoryArray
from .sdr import Bits, SdrLayout
from .state_machine import (Controller, CycleTrace, ERROR_OUTCOMES, Outcome,
                            StatusOut)

#: Section widths used for the benchmark-scale configuration (165-bit rows
#: once the valid and empty bits are counted).
DEFAULT_LAYOUT = SdrLayout(feature_bits=128, location_bits=25, class_bits=10)


#: The ten possible status values, indexed [full][outcome] and shared by
#: every Response; error is set for exactly the ERROR_OUTCOMES.
_STATUS = tuple({outcome: StatusOut(outcome, outcome in ERROR_OUTCOMES, full)
                 for outcome in Outcome}
                for full in (False, True))


class ConfigError(ValueError):
    """Invalid device configuration."""


class BusyError(RuntimeError):
    """run() or load_image() was called while a command is still in flight."""


@dataclass(frozen=True)
class NertcamConfig:
    layout: SdrLayout
    capacity: int
    padding_mode: PaddingMode = LINEAR_1D
    khot_features: bool = False

    def validate(self) -> None:
        if self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {self.capacity}")
        pm = self.padding_mode
        if pm.is_grid and pm.rows * pm.cols != self.layout.location_bits:
            raise ConfigError(
                f"grid {pm.rows}x{pm.cols} does not cover "
                f"{self.layout.location_bits} location bits")


@dataclass(frozen=True, slots=True, init=False)
class Response:
    """Per-command result: status, k-hot outputs, and the cycle count."""

    status: StatusOut
    # k-hot outputs; classes are INFER's validated classes or PREDICT's
    # condensed ones, features and locations are PREDICT's
    prediction: PredictionOutput
    cycles: int

    def __init__(self, status: StatusOut, prediction: PredictionOutput, cycles: int) -> None:
        _response_status(self, status)
        _response_prediction(self, prediction)
        _response_cycles(self, cycles)

    @property
    def classes(self) -> Bits:
        return self.prediction.classes

    @property
    def outcome(self) -> Outcome:
        return self.status.outcome

    @property
    def error(self) -> bool:
        return self.status.error

    @property
    def full(self) -> bool:
        return self.status.full


_response_status = Response.status.__set__
_response_prediction = Response.prediction.__set__
_response_cycles = Response.cycles.__set__


class System:
    """The device facade: submit/step/run plus memory images."""

    def __init__(self, config: NertcamConfig):
        config.validate()
        self.config = config
        self.memory = MemoryArray(config.layout, config.capacity)
        self.controller = Controller(self.memory)
        self.response: Response | None = None

    @property
    def layout(self) -> SdrLayout:
        return self.config.layout

    @property
    def busy(self) -> bool:
        return self.controller.busy

    @property
    def total_cycles(self) -> int:
        """Clock cycles since construction, image loads included."""
        return self.controller.cycle_count

    def submit(self, cmd: MacroCommand) -> bool:
        """Validate, build the DC mask, and arm the controller.

        Returns False (and changes nothing) when the device is busy. Raises
        InputError / LayoutError for malformed commands; nothing is armed
        in that case either.
        """
        config = self.config
        validate_command(cmd, config.layout, config.khot_features)
        dc = build_dc(cmd, config.layout, config.padding_mode)
        accepted = self.controller.accept(cmd.kind, cmd.sdr, dc)
        if accepted:
            self.response = None
        return accepted

    def step(self) -> CycleTrace | None:
        """Advance one clock cycle; returns None when idle."""
        trace = self.controller.step()
        if trace is None:
            return None
        if self.controller.completion is not None:
            self._respond()
        return trace

    def run(self, cmd: MacroCommand) -> Response:
        """submit(), then one controller step per cycle until the command
        completes; returns the Response a manual step() loop would leave."""
        controller = self.controller
        if controller._pending is not None:
            raise BusyError("run() requires an idle device")
        self.submit(cmd)
        while controller.completion is None:
            controller.step()
        return self._respond()

    def _respond(self) -> Response:
        """Turn the controller's completion into the command's Response: the
        one place where run() and step() alike hand a finished command over."""
        done = self.controller.completion
        self.controller.completion = None
        memory = self.memory
        status = _STATUS[memory.full][done.outcome]
        if done.matched is not None:  # a PREDICT's lookup
            prediction = condense(done.matched, done.kind, memory)
        else:
            prediction = zero_output(memory.layout)
            if done.classes is not None:  # an INFER's validated classes
                prediction = PredictionOutput(prediction.features, prediction.locations,
                                              done.classes)
        self.response = Response(status, prediction, done.cycles)
        return self.response

    # --- memory images -----------------------------------------------------

    def save_image(self) -> str:
        return self.memory.to_image()

    def load_image(self, text: str) -> None:
        """Replace memory contents from an image; capacity must match.

        Raises BusyError, and changes nothing, while a command is in flight.
        """
        if self.busy:
            raise BusyError("load_image() requires an idle device")
        mem = MemoryArray.from_image(text, self.layout)
        if mem.capacity != self.config.capacity:
            raise ConfigError(
                f"image has {mem.capacity} rows, device capacity is {self.config.capacity}")
        self.memory = self.controller.memory = mem
        self.response = None

