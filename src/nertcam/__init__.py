"""Behavioral, cycle-accounting model of a reverse-ternary CAM that stores
{feature, location, class} triplets and serves an agent's store, delete,
infer, and predict commands over masked parallel lookups.
"""

from .oracle import AbstractResponse, Oracle
from .preprocess import (CommandKind, InputError, MacroCommand, PaddingMode,
                         build_dc, validate_command)
from .prediction_map import PredictionOutput, condense
from .rtcam import LookupScope, MemoryArray
from .sdr import Bits, LayoutError, SdrLayout, concat
from .state_machine import Controller, ControllerState, CycleTrace, Outcome
from .system import (BusyError, ConfigError, DEFAULT_LAYOUT, NertcamConfig,
                     Response, System)

__version__ = "0.1.0"

__all__ = [
    "AbstractResponse",
    "Bits",
    "BusyError",
    "CommandKind",
    "ConfigError",
    "Controller",
    "ControllerState",
    "CycleTrace",
    "DEFAULT_LAYOUT",
    "InputError",
    "LayoutError",
    "LookupScope",
    "MacroCommand",
    "MemoryArray",
    "NertcamConfig",
    "Oracle",
    "Outcome",
    "PaddingMode",
    "PredictionOutput",
    "Response",
    "SdrLayout",
    "System",
    "build_dc",
    "concat",
    "condense",
    "validate_command",
]
