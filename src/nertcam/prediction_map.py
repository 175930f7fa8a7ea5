"""Combinational condenser folding matched rows into k-hot output vectors.

A prediction's matched rows are OR-reduced per section. The section the
agent supplied is forced low (it would only echo the input back), and
non-PREDICT commands emit nothing from this block. An all-zero output
triple means the prediction failed.

condense is where a PREDICT chooses how to read its matched rows: it
counts them once, walks a few whole rows with MemoryArray.walk_rows, and
has MemoryArray.or_rows scan the output columns for more.
"""

from __future__ import annotations

from .preprocess import CommandKind
from .rtcam import MemoryArray
from .sdr import Bits, SdrLayout, value_object


@value_object
class PredictionOutput:
    features: Bits
    locations: Bits
    classes: Bits


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

    Only the columns of the sections output are ORed. The matched rows are
    counted once, to choose how: up to half as many rows as those columns
    are walked once, whole (MemoryArray.walk_rows), and more are scanned
    column by column (MemoryArray.or_rows). Non-PREDICT kinds, whose
    matched is None, get the layout's shared all-zero triple.
    """
    layout = memory.layout
    zero = zero_output(layout)
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    lc = l + c
    feature = kind is CommandKind.PREDICT_FEATURE
    if not feature and kind is not CommandKind.PREDICT_LOCATION:
        return zero
    # the class section is the lowest, the location section next
    if matched.bit_count() * 2 <= (f + c if feature else lc):
        value = memory.walk_rows(matched)
    elif feature:
        # the feature and class sections are apart: one scan each
        value = memory.or_rows(matched, lc, layout.total) << lc | memory.or_rows(matched, 0, c)
    else:
        value = memory.or_rows(matched, 0, lc)
    classes = Bits(value & ((1 << c) - 1), c)
    if feature:
        return PredictionOutput(Bits(value >> lc, f), zero.locations, classes)
    return PredictionOutput(zero.features, Bits(value >> c & ((1 << l) - 1), l), classes)
