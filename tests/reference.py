"""Bit-level reference helpers that only the tests use.

The device never calls these: the array evaluates its predicates over
bit-sliced columns, and build_dc widens a mask through preprocess._window on
the location section's integer. The tests state the contract on whole Bits
values through them: the two matching predicates, a location padding window,
a layout's section split and an all-ones string.
"""

from __future__ import annotations

from nertcam import Bits, LayoutError, PaddingMode, SdrLayout
from nertcam.preprocess import LINEAR_1D, _window


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
