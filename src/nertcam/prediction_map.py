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


@dataclass(frozen=True, slots=True)
class PredictionOutput:
    features: Bits
    locations: Bits
    classes: Bits

    @property
    def is_empty(self) -> bool:
        """All-zero triple, i.e. no valid prediction."""
        return self.features.is_zero and self.locations.is_zero and self.classes.is_zero


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

    Only the columns of the sections output are ORed. Non-PREDICT kinds,
    whose matched is None, get the layout's shared all-zero triple.
    """
    layout = memory.layout
    zero = zero_output(layout)
    c = layout.class_bits
    if kind is CommandKind.PREDICT_FEATURE:
        lc = layout.location_bits + c
        return PredictionOutput(Bits(memory.or_rows(matched, lc), layout.feature_bits),
                                zero.locations,
                                Bits(memory.or_rows(matched, 0, c), c))
    if kind is CommandKind.PREDICT_LOCATION:
        # the class section is the lowest, the location section next
        value = memory.or_rows(matched, 0, layout.location_bits + c)
        return PredictionOutput(zero.features,
                                Bits(value >> c, layout.location_bits),
                                Bits(value & ((1 << c) - 1), c))
    return zero
