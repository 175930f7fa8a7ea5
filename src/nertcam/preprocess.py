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

from .sdr import Bits, LayoutError, SdrLayout, value_object


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


@value_object
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

    def __post_init__(self) -> None:
        # (0, 0) is the line; any other pair must be a grid of at least 1x1
        if (self.rows, self.cols) != (0, 0) and (self.rows < 1 or self.cols < 1):
            raise LayoutError(
                f"grid dimensions must be positive, got {self.rows}x{self.cols}")

    @classmethod
    def grid(cls, rows: int, cols: int) -> PaddingMode:
        return cls(rows, cols)

    @property
    def is_grid(self) -> bool:
        return self.rows > 0


LINEAR_1D = PaddingMode()


# each section's rule in validate_command: one-hot, all zeros, or the
# feature rule (one-hot, or any nonzero pattern in k-hot mode)
_ONE_HOT, _ZERO, _FEATURE = "one-hot", "zero", "feature"

#: (feature, location, class) rule of each kind whose input is checked;
#: CLEAR and RESET discard the input and have no entry.
_SHAPES = {
    CommandKind.STORE: (_FEATURE, _ONE_HOT, _ONE_HOT),
    CommandKind.DELETE: (_FEATURE, _ONE_HOT, _ONE_HOT),
    CommandKind.INFER: (_FEATURE, _ONE_HOT, _ZERO),
    CommandKind.PREDICT_FEATURE: (_ZERO, _ONE_HOT, _ZERO),
    CommandKind.PREDICT_LOCATION: (_FEATURE, _ZERO, _ZERO),
}

_PREDICT_FEATURE = CommandKind.PREDICT_FEATURE


def _check_section(rule: str, section: int, width: int, name: str,
                   khot_features: bool) -> None:
    if rule is _ZERO:
        if section:
            raise InputError(f"{name} section must be all zeros, got {Bits(section, width)}")
    elif rule is _FEATURE and khot_features:
        if not section:
            raise InputError("feature section must be nonzero in k-hot mode")
    elif not (section and not section & (section - 1)):
        raise InputError(f"{name} section must be one-hot, got {Bits(section, width)}")


def validate_command(cmd: MacroCommand, layout: SdrLayout,
                     khot_features: bool = False) -> None:
    """Raise InputError unless the command's sections obey its shape.

    CLEAR and RESET discard the input, so any bit pattern passes. The k-hot
    flag relaxes only the feature section (any nonzero pattern, matched by
    exact equality); locations and classes stay strictly one-hot.

    All three sections are tested in one pass; only a command that fails
    it goes through _check_section, section by section, for the error.
    """
    sdr = cmd.sdr
    if sdr.width != layout.total:
        layout.check_width(sdr)
    kind = cmd.kind
    padding = cmd.padding
    if padding:
        if padding < 0:
            raise InputError(f"padding must be non-negative, got {padding}")
        if kind is not _PREDICT_FEATURE:
            raise InputError(f"padding is only accepted on PREDICT_FEATURE, not {kind.value}")
    shape = _SHAPES.get(kind)
    if shape is None:
        return
    rf, rl, rc = shape
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    value = sdr.value
    feature = value >> (l + c)
    location = (value >> c) & ((1 << l) - 1)
    class_ = value & ((1 << c) - 1)
    # each term is _check_section's rule as a boolean
    if ((not feature if rf is _ZERO else feature and (
            khot_features and rf is _FEATURE or not feature & (feature - 1)))
            and (not location if rl is _ZERO else location and (
                khot_features and rl is _FEATURE or not location & (location - 1)))
            and (not class_ if rc is _ZERO else class_ and (
                khot_features and rc is _FEATURE or not class_ & (class_ - 1)))):
        return
    _check_section(rf, feature, f, "feature", khot_features)
    _check_section(rl, location, l, "location", khot_features)
    _check_section(rc, class_, c, "class", khot_features)


def _window(location: int, width: int, padding: int, mode: PaddingMode) -> int:
    """The location-section DC window, as an integer, around the one-hot
    location section value of the given width.

    Zero padding masks nothing (the hot position itself is compared). For
    padding >= 1 the window holds the hot position and every position within
    that distance: string-position distance on a line, Chebyshev distance on
    a grid. Windows clamp at the edges, with no wraparound.
    """
    if padding == 0:
        return 0
    if not location or location & (location - 1):
        raise InputError(f"padding window needs a one-hot location, got {Bits(location, width)}")
    if padding < 0:  # an empty window, as the clamped ranges below would give
        return 0
    i = width - location.bit_length()  # string position of the hot bit
    # a line is the grid of one row
    rows, cols = (mode.rows, mode.cols) if mode.is_grid else (1, width)
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


def _masks(layout: SdrLayout) -> dict[CommandKind, Bits]:
    """Each kind's DC mask at zero padding: the sections its shape requires
    to be zero, and nothing for CLEAR and RESET. Kinds with equal masks share
    one Bits (four per layout), built on first use and kept in layout.shared
    for every command."""
    masks = layout.shared.get(_masks)
    if masks is None:
        total, c = layout.total, layout.class_bits
        lc = layout.location_bits + c
        # the feature, location and class sections' bits
        sections = ((1 << total) - (1 << lc), (1 << lc) - (1 << c), (1 << c) - 1)
        shared: dict[int, Bits] = {}
        masks = layout.shared[_masks] = {}
        for kind in CommandKind:
            value = sum(bits for rule, bits in zip(_SHAPES.get(kind, ()), sections)
                        if rule is _ZERO)
            if value not in shared:
                shared[value] = Bits(value, total)
            masks[kind] = shared[value]
    return masks


def build_dc(cmd: MacroCommand, layout: SdrLayout,
             mode: PaddingMode = LINEAR_1D) -> Bits:
    """DC mask for a validated command.

    STORE/DELETE compare every bit (all-zero mask); INFER ignores the class
    section; PREDICT_FEATURE ignores feature and class; PREDICT_LOCATION
    ignores location and class. CLEAR/RESET never reach the memory, their
    mask is all-zero by convention. Padding widens the location section of
    a PREDICT_FEATURE mask, the only kind validate_command lets carry it;
    every other mask is shared. A padded mask's value is built once per
    (grid rows, grid cols, padding, location), on first use, and kept as
    an int in layout.shared; each command still gets a Bits of its own. A
    padding past the location width is keyed as that width, whose window
    it equals, so the memo holds at most width * width values per mode.
    """
    kind = cmd.kind
    # built masks are a non-empty dict: no call once the layout has them
    base = (layout.shared.get(_masks) or _masks(layout)).get(kind)
    if base is None:
        raise InputError(f"unknown command kind {kind!r}")
    padding = cmd.padding
    if not padding or kind is not _PREDICT_FEATURE:
        return base
    l, c = layout.location_bits, layout.class_bits
    location = (cmd.sdr.value >> c) & ((1 << l) - 1)
    if padding > l:  # every padding from l up gives the whole section
        padding = l
    windows = layout.shared.get(_window)
    if windows is None:
        windows = layout.shared[_window] = {}
    # ints only, so no dataclass __hash__ runs, and the grid shape keeps a
    # line's windows apart from a grid's
    key = (mode.rows, mode.cols, padding, location)
    value = windows.get(key)
    if value is None:
        # _window raises for a location that is not one-hot, so none is kept
        value = windows[key] = base.value | _window(location, l, padding, mode) << c
    return Bits(value, base.width)
