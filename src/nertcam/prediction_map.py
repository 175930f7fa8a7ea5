"""Combinational condenser folding matched rows into k-hot output vectors.

A prediction's matched rows are OR-reduced per section. The section the
agent supplied is forced low (it would only echo the input back), and
non-PREDICT commands emit nothing from this block. An all-zero output
triple means the prediction failed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preprocess import CommandKind
from .rtcam import MemoryArray
from .sdr import Bits, SdrLayout


@dataclass(frozen=True, slots=True, init=False)
class PredictionOutput:
    features: Bits
    locations: Bits
    classes: Bits

    def __init__(self, features: Bits, locations: Bits, classes: Bits) -> None:
        _output_features(self, features)
        _output_locations(self, locations)
        _output_classes(self, classes)

    @property
    def is_empty(self) -> bool:
        """All-zero triple, i.e. no valid prediction."""
        return self.features.is_zero and self.locations.is_zero and self.classes.is_zero


_output_features = PredictionOutput.features.__set__
_output_locations = PredictionOutput.locations.__set__
_output_classes = PredictionOutput.classes.__set__


def zero_output(layout: SdrLayout) -> PredictionOutput:
    """The all-zero triple of a layout, built on first use and kept in
    layout.shared."""
    zero = layout.shared.get(zero_output)
    if zero is None:
        zero = layout.shared[zero_output] = PredictionOutput(
            Bits.zeros(layout.feature_bits), Bits.zeros(layout.location_bits),
            Bits.zeros(layout.class_bits))
    return zero


def condense(matched: int | None, kind: CommandKind,
             memory: MemoryArray) -> PredictionOutput:
    """OR-reduce the sections of the rows in the matched row bitmap, gated
    by command kind.

    Only the columns of the sections output are ORed, and the matched rows
    are counted once: up to half as many rows as those columns are walked
    once, whole, and more are scanned column by column. Non-PREDICT kinds,
    whose matched is None, get the layout's shared all-zero triple.
    """
    layout = memory.layout
    zero = zero_output(layout)
    f, c = layout.feature_bits, layout.class_bits
    lc = layout.location_bits + c
    if kind is CommandKind.PREDICT_FEATURE:
        # its two sections are apart, so or_rows would count the rows twice
        if matched.bit_count() * 2 <= f + c:
            value = memory.walk_rows(matched)
            features, classes = value >> lc, value & ((1 << c) - 1)
        else:
            features = memory.or_rows(matched, lc, None, False)
            classes = memory.or_rows(matched, 0, c, False)
        return PredictionOutput(Bits(features, f), zero.locations, Bits(classes, c))
    if kind is CommandKind.PREDICT_LOCATION:
        # the class section is the lowest, the location section next
        value = memory.or_rows(matched, 0, lc)
        return PredictionOutput(zero.features,
                                Bits(value >> c, layout.location_bits),
                                Bits(value & ((1 << c) - 1), c))
    return zero
