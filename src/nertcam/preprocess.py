"""Combinational front end: per-command input validation and DC-mask generation.

Each agent command arrives with a full-width input SDR whose required shape
depends on the command:

    STORE / DELETE      feature, location, class all one-hot
    INFER               feature, location one-hot; class all-zero
    PREDICT_FEATURE     location one-hot; feature and class all-zero
    PREDICT_LOCATION    feature one-hot; location and class all-zero
    CLEAR / RESET       input ignored entirely

The generated don't-care mask selects which positions the memory compares.
Location fuzziness ("padding") widens the location section of the mask so
nearby locations also match; padding never touches the feature or class
sections, and only PREDICT_FEATURE accepts a nonzero padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .sdr import Bits, LayoutError, SdrLayout, concat, is_one_hot


class InputError(ValueError):
    """Malformed command input; the message names the offending part."""


class CommandKind(str, Enum):
    CLEAR = "CLEAR"
    RESET = "RESET"
    STORE = "STORE"
    DELETE = "DELETE"
    INFER = "INFER"
    PREDICT_FEATURE = "PREDICT_FEATURE"
    PREDICT_LOCATION = "PREDICT_LOCATION"


@dataclass(frozen=True)
class MacroCommand:
    """One agent command: kind, input SDR, and location-padding amount."""

    kind: CommandKind
    sdr: Bits
    padding: int = 0


@dataclass(frozen=True)
class PaddingMode:
    """Geometry of the location section for padding windows.

    Default is a 1-D line of positions. A 2-D grid (row-major flattening,
    rows * cols = location width) widens by Chebyshev distance instead,
    giving a square window around the hot cell.
    """

    rows: int = 0
    cols: int = 0

    @classmethod
    def linear(cls) -> PaddingMode:
        return cls()

    @classmethod
    def grid(cls, rows: int, cols: int) -> PaddingMode:
        if rows < 1 or cols < 1:
            raise LayoutError(f"grid dimensions must be positive, got {rows}x{cols}")
        return cls(rows, cols)

    @property
    def is_grid(self) -> bool:
        return self.rows > 0


LINEAR_1D = PaddingMode.linear()


def _require_one_hot(section: Bits, name: str) -> None:
    if not is_one_hot(section):
        raise InputError(f"{name} section must be one-hot, got {section}")


def _require_zero(section: Bits, name: str) -> None:
    if not section.is_zero:
        raise InputError(f"{name} section must be all zeros, got {section}")


def _require_feature(section: Bits, khot_features: bool) -> None:
    if khot_features:
        if section.is_zero:
            raise InputError("feature section must be nonzero in k-hot mode")
    else:
        _require_one_hot(section, "feature")


def validate_command(cmd: MacroCommand, layout: SdrLayout,
                     khot_features: bool = False) -> None:
    """Raise InputError unless the command's sections obey its shape.

    CLEAR and RESET discard the input, so any bit pattern passes. The k-hot
    flag relaxes only the feature section (any nonzero pattern, matched by
    exact equality); locations and classes stay strictly one-hot.
    """
    layout.check_width(cmd.sdr)
    if cmd.padding < 0:
        raise InputError(f"padding must be non-negative, got {cmd.padding}")
    if cmd.padding and cmd.kind is not CommandKind.PREDICT_FEATURE:
        raise InputError(f"padding is only accepted on PREDICT_FEATURE, not {cmd.kind.value}")
    if cmd.kind in (CommandKind.CLEAR, CommandKind.RESET):
        return
    feature, location, class_ = layout.split(cmd.sdr)
    if cmd.kind in (CommandKind.STORE, CommandKind.DELETE):
        _require_feature(feature, khot_features)
        _require_one_hot(location, "location")
        _require_one_hot(class_, "class")
    elif cmd.kind is CommandKind.INFER:
        _require_feature(feature, khot_features)
        _require_one_hot(location, "location")
        _require_zero(class_, "class")
    elif cmd.kind is CommandKind.PREDICT_FEATURE:
        _require_zero(feature, "feature")
        _require_one_hot(location, "location")
        _require_zero(class_, "class")
    elif cmd.kind is CommandKind.PREDICT_LOCATION:
        _require_feature(feature, khot_features)
        _require_zero(location, "location")
        _require_zero(class_, "class")


def padding_window(location: Bits, padding: int, mode: PaddingMode = LINEAR_1D) -> Bits:
    """Location-section DC window around a one-hot location.

    Zero padding masks nothing (the hot position itself is compared). For
    padding >= 1 the window includes the hot position plus every position
    within the given distance: string-position distance on a line, Chebyshev
    distance on a grid. Windows clamp at the edges, no wraparound.
    """
    width = location.width
    if padding == 0:
        return Bits.zeros(width)
    hot = location.hot_positions
    if len(hot) != 1:
        raise InputError(f"padding window needs a one-hot location, got {location}")
    i = hot[0]
    if mode.is_grid:
        if mode.rows * mode.cols != width:
            raise LayoutError(
                f"grid {mode.rows}x{mode.cols} does not cover {width} location bits")
        r0, c0 = divmod(i, mode.cols)
        positions = [
            r * mode.cols + c
            for r in range(max(0, r0 - padding), min(mode.rows, r0 + padding + 1))
            for c in range(max(0, c0 - padding), min(mode.cols, c0 + padding + 1))
        ]
    else:
        positions = range(max(0, i - padding), min(width, i + padding + 1))
    return Bits.from_positions(width, positions)


def build_dc(cmd: MacroCommand, layout: SdrLayout,
             mode: PaddingMode = LINEAR_1D) -> Bits:
    """DC mask for a validated command.

    STORE/DELETE compare every bit (all-zero mask); INFER ignores the class
    section; PREDICT_FEATURE ignores feature and class; PREDICT_LOCATION
    ignores location and class. CLEAR/RESET never reach the memory, their
    mask is all-zero by convention.
    """
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    kind = cmd.kind
    if kind in (CommandKind.CLEAR, CommandKind.RESET,
                CommandKind.STORE, CommandKind.DELETE):
        return Bits.zeros(layout.total)
    if kind is CommandKind.INFER or kind is CommandKind.PREDICT_FEATURE:
        _, location, _ = layout.split(cmd.sdr)
        window = padding_window(location, cmd.padding, mode)
        feature_mask = Bits.ones(f) if kind is CommandKind.PREDICT_FEATURE else Bits.zeros(f)
        return concat(feature_mask, window, Bits.ones(c))
    if kind is CommandKind.PREDICT_LOCATION:
        return concat(Bits.zeros(f), Bits.ones(l), Bits.ones(c))
    raise InputError(f"unknown command kind {kind!r}")
