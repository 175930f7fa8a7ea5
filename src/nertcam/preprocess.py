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

from .sdr import Bits, LayoutError, SdrLayout


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


def _require_one_hot(section: int, width: int, name: str) -> None:
    if not (section and not section & (section - 1)):
        raise InputError(f"{name} section must be one-hot, got {Bits(section, width)}")


def _require_zero(section: int, width: int, name: str) -> None:
    if section:
        raise InputError(f"{name} section must be all zeros, got {Bits(section, width)}")


def _require_feature(section: int, width: int, khot_features: bool) -> None:
    if khot_features:
        if not section:
            raise InputError("feature section must be nonzero in k-hot mode")
    else:
        _require_one_hot(section, width, "feature")


def validate_command(cmd: MacroCommand, layout: SdrLayout,
                     khot_features: bool = False) -> None:
    """Raise InputError unless the command's sections obey its shape.

    CLEAR and RESET discard the input, so any bit pattern passes. The k-hot
    flag relaxes only the feature section (any nonzero pattern, matched by
    exact equality); locations and classes stay strictly one-hot.
    """
    layout.check_width(cmd.sdr)
    kind = cmd.kind
    if cmd.padding < 0:
        raise InputError(f"padding must be non-negative, got {cmd.padding}")
    if cmd.padding and kind is not CommandKind.PREDICT_FEATURE:
        raise InputError(f"padding is only accepted on PREDICT_FEATURE, not {kind.value}")
    if kind is CommandKind.CLEAR or kind is CommandKind.RESET:
        return
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    value = cmd.sdr.value
    feature = value >> (l + c)
    location = (value >> c) & ((1 << l) - 1)
    class_ = value & ((1 << c) - 1)
    if kind is CommandKind.STORE or kind is CommandKind.DELETE:
        _require_feature(feature, f, khot_features)
        _require_one_hot(location, l, "location")
        _require_one_hot(class_, c, "class")
    elif kind is CommandKind.INFER:
        _require_feature(feature, f, khot_features)
        _require_one_hot(location, l, "location")
        _require_zero(class_, c, "class")
    elif kind is CommandKind.PREDICT_FEATURE:
        _require_zero(feature, f, "feature")
        _require_one_hot(location, l, "location")
        _require_zero(class_, c, "class")
    elif kind is CommandKind.PREDICT_LOCATION:
        _require_feature(feature, f, khot_features)
        _require_zero(location, l, "location")
        _require_zero(class_, c, "class")


def _window(location: int, width: int, padding: int, mode: PaddingMode) -> int:
    """padding_window on a location section's integer value; returns the mask's."""
    if padding == 0:
        return 0
    if not location or location & (location - 1):
        raise InputError(f"padding window needs a one-hot location, got {Bits(location, width)}")
    if padding < 0:  # an empty window, as the clamped ranges below would give
        return 0
    i = width - location.bit_length()  # string position of the hot bit
    if not mode.is_grid:
        lo, hi = max(0, i - padding), min(width, i + padding + 1)
        return ((1 << (hi - lo)) - 1) << (width - hi)
    rows, cols = mode.rows, mode.cols
    if rows * cols != width:
        raise LayoutError(f"grid {rows}x{cols} does not cover {width} location bits")
    r0, c0 = divmod(i, cols)
    lo, hi = max(0, c0 - padding), min(cols, c0 + padding + 1)
    # the window's columns within one row; row r sits (rows - 1 - r) rows up
    strip = ((1 << (hi - lo)) - 1) << (cols - hi)
    mask = 0
    for r in range(max(0, r0 - padding), min(rows, r0 + padding + 1)):
        mask |= strip << ((rows - 1 - r) * cols)
    return mask


def padding_window(location: Bits, padding: int, mode: PaddingMode = LINEAR_1D) -> Bits:
    """Location-section DC window around a one-hot location.

    Zero padding masks nothing (the hot position itself is compared). For
    padding >= 1 the window includes the hot position plus every position
    within the given distance: string-position distance on a line, Chebyshev
    distance on a grid. Windows clamp at the edges, no wraparound.
    """
    return Bits(_window(location.value, location.width, padding, mode), location.width)


def build_dc(cmd: MacroCommand, layout: SdrLayout,
             mode: PaddingMode = LINEAR_1D) -> Bits:
    """DC mask for a validated command.

    STORE/DELETE compare every bit (all-zero mask); INFER ignores the class
    section; PREDICT_FEATURE ignores feature and class; PREDICT_LOCATION
    ignores location and class. CLEAR/RESET never reach the memory, their
    mask is all-zero by convention.
    """
    l, c = layout.location_bits, layout.class_bits
    total = layout.total
    kind = cmd.kind
    if kind is CommandKind.INFER or kind is CommandKind.PREDICT_FEATURE:
        location = (cmd.sdr.value >> c) & ((1 << l) - 1)
        mask = _window(location, l, cmd.padding, mode) << c | ((1 << c) - 1)
        if kind is CommandKind.PREDICT_FEATURE:
            mask |= (1 << total) - (1 << (l + c))  # the whole feature section
        return Bits(mask, total)
    if kind is CommandKind.PREDICT_LOCATION:
        return Bits((1 << (l + c)) - 1, total)
    if kind in (CommandKind.CLEAR, CommandKind.RESET,
                CommandKind.STORE, CommandKind.DELETE):
        return Bits(0, total)
    raise InputError(f"unknown command kind {kind!r}")
