"""Command validation, DC-mask construction, and location padding windows."""

import pytest

from nertcam import (Bits, CommandKind, InputError, LayoutError, MacroCommand,
                     NertcamConfig, PaddingMode, SdrLayout, System, build_dc, concat,
                     validate_command)
from nertcam import preprocess
from nertcam.preprocess import LINEAR_1D, _SHAPES, _check_section
from reference import equality_match, ones, padding_window, split



def cmd(kind, text, padding=0):
    return MacroCommand(kind, Bits.parse(text), padding=padding)


# --- validation ----------------------------------------------------------------


def test_store_all_one_hot_ok(layout333):
    validate_command(cmd(CommandKind.STORE, "001|010|100"), layout333)


def test_infer_rejects_nonzero_class(layout333):
    with pytest.raises(InputError, match="class"):
        validate_command(cmd(CommandKind.INFER, "001|010|100"), layout333)


def test_infer_shape_ok(layout333):
    validate_command(cmd(CommandKind.INFER, "001|010|000"), layout333)


def test_predict_feature_shape(layout333):
    validate_command(cmd(CommandKind.PREDICT_FEATURE, "000|010|000"), layout333)
    with pytest.raises(InputError, match="feature"):
        validate_command(cmd(CommandKind.PREDICT_FEATURE, "001|010|000"), layout333)


def test_predict_location_shape(layout333):
    validate_command(cmd(CommandKind.PREDICT_LOCATION, "001|000|000"), layout333)
    with pytest.raises(InputError, match="location"):
        validate_command(cmd(CommandKind.PREDICT_LOCATION, "001|010|000"), layout333)


@pytest.mark.parametrize("kind", [CommandKind.CLEAR, CommandKind.RESET])
def test_clear_reset_ignore_input(layout333, kind):
    # any bit pattern is accepted and discarded
    validate_command(cmd(kind, "111|111|111"), layout333)
    validate_command(cmd(kind, "000|000|000"), layout333)


@pytest.mark.parametrize("kind,text", [
    (CommandKind.STORE, "011|010|100"),
    (CommandKind.STORE, "000|010|100"),
    (CommandKind.DELETE, "001|011|100"),
    (CommandKind.DELETE, "001|010|110"),
    (CommandKind.INFER, "001|000|000"),
])
def test_malformed_sections_rejected(layout333, kind, text):
    with pytest.raises(InputError):
        validate_command(cmd(kind, text), layout333)


@pytest.mark.parametrize("kind", [
    CommandKind.CLEAR, CommandKind.RESET, CommandKind.STORE, CommandKind.DELETE,
    CommandKind.INFER, CommandKind.PREDICT_LOCATION,
])
def test_padding_only_on_predict_feature(layout333, kind):
    texts = {
        CommandKind.STORE: "001|010|100", CommandKind.DELETE: "001|010|100",
        CommandKind.INFER: "001|010|000", CommandKind.PREDICT_LOCATION: "001|000|000",
    }
    with pytest.raises(InputError, match="padding"):
        validate_command(cmd(kind, texts.get(kind, "000|000|000"), padding=1), layout333)


def test_predict_feature_accepts_padding(layout333):
    validate_command(cmd(CommandKind.PREDICT_FEATURE, "000|010|000", padding=2),
                     layout333)


def test_khot_features_relax_feature_section_only(layout333):
    validate_command(cmd(CommandKind.STORE, "101|010|100"), layout333,
                     khot_features=True)
    validate_command(cmd(CommandKind.INFER, "111|010|000"), layout333,
                     khot_features=True)
    with pytest.raises(InputError, match="feature"):
        validate_command(cmd(CommandKind.STORE, "000|010|100"), layout333,
                         khot_features=True)
    with pytest.raises(InputError, match="location"):
        validate_command(cmd(CommandKind.STORE, "101|011|100"), layout333,
                         khot_features=True)
    # one-hot mode still requires exactly one feature bit
    with pytest.raises(InputError, match="feature"):
        validate_command(cmd(CommandKind.STORE, "101|010|100"), layout333)


# --- DC masks -------------------------------------------------------------------


@pytest.mark.parametrize("kind,text,expect", [
    (CommandKind.STORE, "001|010|100", "000000000"),
    (CommandKind.DELETE, "001|010|100", "000000000"),
    (CommandKind.INFER, "001|010|000", "000000111"),
    (CommandKind.PREDICT_FEATURE, "000|010|000", "111000111"),
    (CommandKind.PREDICT_LOCATION, "001|000|000", "000111111"),
    (CommandKind.CLEAR, "000|000|000", "000000000"),
    (CommandKind.RESET, "000|000|000", "000000000"),
])
def test_dc_masks_at_zero_padding(layout333, kind, text, expect):
    mask = build_dc(cmd(kind, text), layout333)
    assert str(mask) == expect
    # unpadded commands of one kind share one mask per layout value
    assert build_dc(cmd(kind, text), SdrLayout(3, 3, 3)) is mask


@pytest.mark.parametrize("widths", [(3, 3, 3), (4, 7, 4), (16, 25, 8)])
def test_dc_masks_cover_exactly_the_zero_sections(widths):
    """At zero padding a kind's mask is all ones on each section its shape
    requires to be zero and all zeros elsewhere; CLEAR and RESET, with no
    shape, compare everything. Equal masks are one object: four per layout."""
    layout = SdrLayout(*widths)
    masks = {}
    for kind in CommandKind:
        shape = _SHAPES.get(kind, ("compared",) * 3)
        sdr = layout.triplet(*(None if rule == "zero" else 0 for rule in shape))
        masks[kind] = build_dc(MacroCommand(kind, sdr), layout)
        expect = [ones(w) if rule == "zero" else Bits.zeros(w)
                  for rule, w in zip(shape, widths)]
        assert split(layout, masks[kind]) == tuple(expect), kind
    assert len({id(mask) for mask in masks.values()}) == 4
    assert len(set(masks.values())) == 4


def test_dc_padding_only_widens_location(layout333):
    mask = build_dc(cmd(CommandKind.PREDICT_FEATURE, "000|010|000", padding=1),
                    layout333)
    f, l, c = split(layout333, mask)
    assert str(f) == "111"
    assert str(l) == "111"  # window around the middle of a 3-wide section
    assert str(c) == "111"
    # a padded mask is built per command, never the shared unpadded one
    unpadded = build_dc(cmd(CommandKind.PREDICT_FEATURE, "000|010|000"), layout333)
    again = build_dc(cmd(CommandKind.PREDICT_FEATURE, "000|010|000", padding=1),
                     layout333)
    assert again == mask and again is not mask
    assert str(unpadded) == "111000111" and mask is not unpadded


def test_dc_never_pads_feature_or_class():
    layout = SdrLayout(4, 7, 4)
    for p in range(4):
        mask = build_dc(MacroCommand(CommandKind.PREDICT_FEATURE,
                                     layout.triplet(location=3), padding=p),
                        layout)
        f, _, c = split(layout, mask)
        assert str(f) == "1111"
        assert str(c) == "1111"



def _location(layout, mask):
    """A DC mask's location section, as Bits."""
    return split(layout, mask)[1]


def test_padded_windows_are_built_once_per_mode_padding_and_location(monkeypatch):
    """_window runs once per (mode, padding, location) over repeated padded
    PREDICT_FEATUREs, line and grid alike; each mask still equals
    padding_window and is a Bits of its own. A padding past the location
    width reuses that width's windows, which it equals."""
    calls = []
    original = preprocess._window

    def spy(location, width, padding, mode):
        calls.append((mode, padding, location))
        return original(location, width, padding, mode)

    monkeypatch.setattr(preprocess, "_window", spy)
    # no other test pads at this layout, so no window of it is built yet
    layout = SdrLayout(4, 6, 3)
    modes = (LINEAR_1D, PaddingMode.grid(2, 3), PaddingMode.grid(3, 2))
    masks = []
    for _ in range(3):
        for mode in modes:
            for padding in (1, 2, 6, 7, 1000):
                for hot in range(6):
                    command = MacroCommand(CommandKind.PREDICT_FEATURE,
                                           layout.triplet(location=hot), padding=padding)
                    mask = build_dc(command, layout, mode)
                    window = padding_window(Bits.one_hot(6, hot), padding, mode)
                    assert _location(layout, mask) == window
                    masks.append(mask)
    assert len(set(map(id, masks))) == len(masks)
    # paddings 7 and 1000 are keyed as 6, the location width
    assert sorted(map(repr, calls)) == sorted(
        repr((mode, padding, 1 << (5 - hot)))
        for mode in modes for padding in (1, 2, 6) for hot in range(6))


def test_line_and_grid_devices_of_one_layout_keep_their_own_windows():
    """A line device and a 5x5-grid device of one 16,25,8 layout, run in
    turn in one process, each get the window padding_window gives for its
    own mode, at every location and at paddings 1 and 2, which stay apart."""
    layout = SdrLayout(16, 25, 8)
    modes = (LINEAR_1D, PaddingMode.grid(5, 5))
    systems = [System(NertcamConfig(layout, 16, mode)) for mode in modes]
    for _ in range(2):
        for hot in range(25):
            location = Bits.one_hot(25, hot)
            windows = {}
            for padding in (1, 2, 1):
                for system, mode in zip(systems, modes):
                    command = MacroCommand(CommandKind.PREDICT_FEATURE,
                                           layout.triplet(location=hot), padding=padding)
                    config = system.config
                    mask = build_dc(command, config.layout, config.padding_mode)
                    window = padding_window(location, padding, mode)
                    assert _location(layout, mask) == window
                    assert windows.setdefault((mode, padding), mask) == mask
                    # the device itself: its lookup runs under that mask
                    assert system.run(command).cycles == 1
            # paddings 1 and 2 differ at every location, on the line and the grid
            for mode in modes:
                assert windows[mode, 1] != windows[mode, 2]


# --- padding windows ---------------------------------------------------------------


@pytest.mark.parametrize("loc,p,expect", [
    ("00100", 1, "01110"),
    ("10000", 1, "11000"),   # clamped at the left edge, no wraparound
    ("00100", 0, "00000"),
    ("00001", 2, "00111"),
    ("00100", 9, "11111"),   # window larger than the section saturates
])
def test_linear_window_examples(loc, p, expect):
    assert str(padding_window(Bits.parse(loc), p)) == expect


def test_grid_window_center_covers_whole_3x3():
    # oracle: enumerate the Chebyshev<=1 neighbours of cell (1,1) on a 3x3 grid
    expect = sorted(r * 3 + c for r in range(3) for c in range(3)
                    if max(abs(r - 1), abs(c - 1)) <= 1)
    assert expect == list(range(9))
    window = padding_window(Bits.one_hot(9, 4), 1, PaddingMode.grid(3, 3))
    assert str(window) == "111111111"


def test_grid_window_corner_clamps():
    expect = {r * 3 + c for r in range(3) for c in range(3)
              if max(abs(r - 0), abs(c - 0)) <= 1}
    window = padding_window(Bits.one_hot(9, 0), 1, PaddingMode.grid(3, 3))
    assert set(window.hot_positions) == expect == {0, 1, 3, 4}


def test_grid_window_matches_chebyshev_enumeration():
    rows, cols = 4, 5
    mode = PaddingMode.grid(rows, cols)
    for hot in range(rows * cols):
        r0, c0 = divmod(hot, cols)
        for p in range(0, 4):
            window = padding_window(Bits.one_hot(rows * cols, hot), p, mode)
            expect = {r * cols + c for r in range(rows) for c in range(cols)
                      if max(abs(r - r0), abs(c - c0)) <= p} if p else set()
            assert set(window.hot_positions) == expect


def test_grid_window_requires_matching_dimensions():
    from nertcam import LayoutError
    with pytest.raises(LayoutError):
        padding_window(Bits.one_hot(9, 4), 1, PaddingMode.grid(2, 3))


@pytest.mark.parametrize("rows, cols", [(0, 5), (5, 0), (-1, -25), (0, -3), (-1, 5), (3, -2)])
def test_malformed_padding_mode_is_rejected(rows, cols):
    """Only (0, 0), the line, or a grid of at least 1x1 builds; the
    constructor and grid() alike refuse anything else, so a malformed mode
    never reaches a device as a line."""
    for build in (PaddingMode, PaddingMode.grid):
        with pytest.raises(LayoutError, match=f"got {rows}x{cols}"):
            build(rows, cols)
    with pytest.raises(LayoutError):
        System(NertcamConfig(SdrLayout(4, 25, 4), 16, PaddingMode(rows, cols)))
    assert not PaddingMode().is_grid and PaddingMode() == LINEAR_1D
    assert PaddingMode(1, 1).is_grid and PaddingMode.grid(5, 5) == PaddingMode(5, 5)


def test_linear_window_is_contiguous_and_contains_hot():
    for width in (1, 2, 3, 5, 8, 16, 32):
        for hot in range(width):
            for p in range(0, width + 2):
                window = padding_window(Bits.one_hot(width, hot), p)
                pos = window.hot_positions
                if p == 0:
                    assert pos == ()
                    continue
                assert hot in pos
                lo, hi = max(0, hot - p), min(width - 1, hot + p)
                assert pos == tuple(range(lo, hi + 1))


def test_window_mask_matches_iff_within_distance():
    """Equality matching of one-hot locations under the window mask is the
    distance predicate: stored hot index within p of the query hot index."""
    for width in (1, 2, 3, 5, 8, 16, 32):
        for qi in range(width):
            query = Bits.one_hot(width, qi)
            for p in range(0, width + 1):
                window = padding_window(query, p)
                for si in range(width):
                    stored = Bits.one_hot(width, si)
                    assert equality_match(stored, query, window) is (abs(si - qi) <= p)


# --- exhaustive check against the section-object reference ---------------------------


def _ref_window(location, padding, mode):
    """padding_window as written on Bits sections and position lists."""
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


def _ref_validate(command, layout, khot_features):
    """validate_command as written on the split sections."""
    def one_hot(section, name):
        if section.popcount != 1:
            raise InputError(f"{name} section must be one-hot, got {section}")

    def zero(section, name):
        if section.value:
            raise InputError(f"{name} section must be all zeros, got {section}")

    def feature_ok(section):
        if khot_features:
            if not section.value:
                raise InputError("feature section must be nonzero in k-hot mode")
        else:
            one_hot(section, "feature")

    layout.check_width(command.sdr)
    if command.padding < 0:
        raise InputError(f"padding must be non-negative, got {command.padding}")
    if command.padding and command.kind is not CommandKind.PREDICT_FEATURE:
        raise InputError(
            f"padding is only accepted on PREDICT_FEATURE, not {command.kind.value}")
    if command.kind in (CommandKind.CLEAR, CommandKind.RESET):
        return
    feature, location, class_ = split(layout, command.sdr)
    if command.kind in (CommandKind.STORE, CommandKind.DELETE):
        feature_ok(feature)
        one_hot(location, "location")
        one_hot(class_, "class")
    elif command.kind is CommandKind.INFER:
        feature_ok(feature)
        one_hot(location, "location")
        zero(class_, "class")
    elif command.kind is CommandKind.PREDICT_FEATURE:
        zero(feature, "feature")
        one_hot(location, "location")
        zero(class_, "class")
    else:
        feature_ok(feature)
        zero(location, "location")
        zero(class_, "class")


def _ref_build_dc(command, layout, mode):
    """build_dc as the concatenation of per-section masks."""
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    kind = command.kind
    if kind in (CommandKind.INFER, CommandKind.PREDICT_FEATURE):
        _, location, _ = split(layout, command.sdr)
        window = _ref_window(location, command.padding, mode)
        feature = ones(f) if kind is CommandKind.PREDICT_FEATURE else Bits.zeros(f)
        return concat(feature, window, ones(c))
    if kind is CommandKind.PREDICT_LOCATION:
        return concat(Bits.zeros(f), ones(l), ones(c))
    return Bits.zeros(layout.total)


def _outcome(fn, *args):
    """What a call gives: ("ok", result) or (exception class, message)."""
    try:
        return "ok", fn(*args)
    except (InputError, LayoutError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("layout,grid", [
    (SdrLayout(3, 3, 3), PaddingMode.grid(1, 3)),
    (SdrLayout(3, 4, 3), PaddingMode.grid(2, 2)),
])
def test_preprocess_matches_section_reference_exhaustively(layout, grid):
    """Every SDR of the layout, every kind, both feature modes and padding
    0 to 3: validate_command raises what the reference raises, with the same
    message, and build_dc and padding_window give the reference's masks."""
    modes = (PaddingMode(), grid)
    # a line is the grid of one row
    row = PaddingMode.grid(1, layout.location_bits)
    for value in range(1 << layout.total):
        sdr = Bits(value, layout.total)
        _, location, _ = split(layout, sdr)
        for padding in range(4):
            for mode in modes:
                assert (_outcome(padding_window, location, padding, mode)
                        == _outcome(_ref_window, location, padding, mode))
            assert (_outcome(padding_window, location, padding, row)
                    == _outcome(_ref_window, location, padding, row)
                    == _outcome(padding_window, location, padding, PaddingMode()))
            for kind in CommandKind:
                command = MacroCommand(kind, sdr, padding=padding)
                for khot in (False, True):
                    got = _outcome(validate_command, command, layout, khot)
                    assert got == _outcome(_ref_validate, command, layout, khot)
                    if got[0] != "ok":
                        continue
                    for mode in modes:
                        assert (_outcome(build_dc, command, layout, mode)
                                == _outcome(_ref_build_dc, command, layout, mode))


def _ref_per_section(command, layout, khot_features):
    """validate_command before its one-pass check: the width, the padding,
    then _check_section on feature, location and class, in that order."""
    layout.check_width(command.sdr)
    if command.padding < 0:
        raise InputError(f"padding must be non-negative, got {command.padding}")
    if command.padding and command.kind is not CommandKind.PREDICT_FEATURE:
        raise InputError(
            f"padding is only accepted on PREDICT_FEATURE, not {command.kind.value}")
    shape = _SHAPES.get(command.kind)
    if shape is None:
        return
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    value = command.sdr.value
    _check_section(shape[0], value >> (l + c), f, "feature", khot_features)
    _check_section(shape[1], (value >> c) & ((1 << l) - 1), l, "location", khot_features)
    _check_section(shape[2], value & ((1 << c) - 1), c, "class", khot_features)


def test_one_pass_check_matches_per_section_checks(layout333):
    """Every 9-bit SDR (and SDRs one bit short or long), every kind, both
    feature modes and padding -1, 0 and 1: the one-pass check accepts what
    the per-section checks accept, and otherwise raises the same exception
    with the same message, so the first failing section is still named."""
    sdrs = [Bits(value, 9) for value in range(1 << 9)]
    sdrs += [Bits(0b10010010, 8), Bits(0b1001001000, 10)]
    seen = set()
    for sdr in sdrs:
        for kind in CommandKind:
            for khot in (False, True):
                for padding in (-1, 0, 1):
                    command = MacroCommand(kind, sdr, padding=padding)
                    got = _outcome(validate_command, command, layout333, khot)
                    assert got == _outcome(_ref_per_section, command, layout333, khot)
                    seen.add(got[0])
    assert seen == {"ok", InputError, LayoutError}
