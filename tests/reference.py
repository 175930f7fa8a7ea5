"""Bit-level reference helpers that only the tests use.

The device never calls these: the array evaluates its predicates over
bit-sliced columns, and build_dc widens a mask through preprocess._window on
the location section's integer. The tests state the contract on whole Bits
values through them: the two matching predicates, a location padding window,
a layout's section split and an all-ones string. load_image is the memory
image loader as it was written line by line, which MemoryArray.from_image
must agree with.
"""

from __future__ import annotations

from nertcam import Bits, LayoutError, MemoryArray, PaddingMode, SdrLayout
from nertcam.preprocess import LINEAR_1D, _window
from nertcam.rtcam import _INDEX_DIGITS


def ones(width: int) -> Bits:
    return Bits((1 << width) - 1, width)


def split(layout: SdrLayout, sdr: Bits) -> tuple[Bits, Bits, Bits]:
    """Partition a full-width SDR into (feature, location, class) sections."""
    layout.check_width(sdr)
    lc = layout.location_bits + layout.class_bits
    feature = Bits(sdr.value >> lc, layout.feature_bits)
    location = Bits((sdr.value >> layout.class_bits) & ((1 << layout.location_bits) - 1),
                    layout.location_bits)
    class_ = Bits(sdr.value & ((1 << layout.class_bits) - 1), layout.class_bits)
    return feature, location, class_


def equality_match(stored: Bits, query: Bits, dc: Bits) -> bool:
    """Exact equality over every position the mask does not cover.

    True iff stored[p] == query[p] at every position p with dc[p] = 0.
    An all-ones mask matches anything; an all-zeros mask is plain equality.
    """
    if not stored.width == query.width == dc.width:
        raise LayoutError("equality_match operands must share one width")
    care = ((1 << stored.width) - 1) & ~dc.value
    return ((stored.value ^ query.value) & care) == 0


def membership_match(stored: Bits, query: Bits, dc: Bits) -> bool:
    """Set-membership style match used by class validation.

    True iff some position p has dc[p] = 0 and both query[p] and stored[p]
    set. With an all-ones mask the existential is vacuous: no match.
    """
    if not stored.width == query.width == dc.width:
        raise LayoutError("membership_match operands must share one width")
    care = ((1 << stored.width) - 1) & ~dc.value
    return (stored.value & query.value & care) != 0


def padding_window(location: Bits, padding: int, mode: PaddingMode = LINEAR_1D) -> Bits:
    """Location-section DC window around a one-hot location.

    Zero padding masks nothing (the hot position itself is compared). For
    padding >= 1 the window includes the hot position plus every position
    within the given distance: string-position distance on a line, Chebyshev
    distance on a grid. Windows clamp at the edges, no wraparound.
    """
    return Bits(_window(location.value, location.width, padding, mode), location.width)


def load_image(text: str, layout: SdrLayout, khot_features: bool = True) -> MemoryArray:
    """MemoryArray.from_image, one image line at a time: each line is split
    and checked in turn, so the first faulty line raises, at its first
    failing check."""
    total = layout.total
    f = layout.feature_bits
    fl = f + layout.location_bits
    lc = total - f
    location_mask = (1 << layout.location_bits) - 1
    class_mask = (1 << layout.class_bits) - 1
    w = (total + 7) >> 3
    packed: list[bytes] = []                      # each row's w bytes
    raws: list[str] = []                          # each row's bits, no '|'
    valid_text: list[str] = []
    occupied_text: list[str] = []
    first_line: dict[int, int] = {}              # triplet -> image line
    class_valid: dict[int, tuple[str, int]] = {}  # class -> (V, image line)
    for n, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ValueError(f"image line {n}: expected 4 fields, got {len(parts)}")
        index, bits_text, v, e = parts
        if not (index.isascii() and index.isdigit()):
            raise ValueError(f"image line {n}: index {index!r} is not an integer")
        if len(index) > _INDEX_DIGITS or int(index) != len(packed):
            raise ValueError(f"image line {n}: index {index} out of order")
        if v not in ("0", "1") or e not in ("0", "1"):
            raise ValueError(f"image line {n}: V/E must be 0 or 1")
        raw = bits_text.replace("|", "")
        if raw.count("0") + raw.count("1") != len(raw):
            raise LayoutError(f"image line {n}: invalid bit characters in {bits_text!r}")
        if len(raw) != total:
            raise LayoutError(f"image line {n}: expected {total} bits, "
                              f"got {len(raw)} in {bits_text!r}")
        if len(bits_text) != total + 2 or bits_text[f] != "|" or bits_text[fl + 1] != "|":
            raise LayoutError(
                f"image line {n}: expected sections of {f}|{layout.location_bits}|"
                f"{layout.class_bits} bits, got {bits_text!r}")
        value = int(raw, 2)
        if e == "0":
            location = (value >> layout.class_bits) & location_mask
            class_ = value & class_mask
            feature = value >> lc
            if not feature:
                raise ValueError(f"image line {n}: feature section is zero")
            if not khot_features and feature & (feature - 1):
                raise ValueError(f"image line {n}: feature section is not one-hot")
            if location & (location - 1) or not location:
                raise ValueError(f"image line {n}: location section is not one-hot")
            if class_ & (class_ - 1) or not class_:
                raise ValueError(f"image line {n}: class section is not one-hot")
            first = first_line.setdefault(value, n)
            if first != n:
                raise ValueError(f"image line {n}: triplet duplicates image line {first}")
            class_v, class_line = class_valid.setdefault(class_, (v, n))
            if class_v != v:
                raise ValueError(f"image line {n}: valid bit {v} differs from image "
                                 f"line {class_line} of the same class")
        packed.append(value.to_bytes(w, "big"))
        raws.append(raw)
        valid_text.append(v)
        occupied_text.append("1" if e == "0" else "0")
    if not packed:
        raise ValueError("memory image has no rows")
    mem = MemoryArray.__new__(MemoryArray)
    mem._shape(layout, len(packed))
    mem._rows = bytearray(b"".join(packed))
    mem.valid = int("".join(reversed(valid_text)), 2)
    mem.occupied = int("".join(reversed(occupied_text)), 2)
    mem.valid_entry = False
    mem._cols = [sum(int(raw[total - 1 - k]) << i for i, raw in enumerate(raws))
                 for k in range(total)]
    return mem
