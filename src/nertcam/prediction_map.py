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
from .sdr import Bits


@dataclass(frozen=True)
class PredictionOutput:
    features: Bits
    locations: Bits
    classes: Bits

    @property
    def is_empty(self) -> bool:
        """All-zero triple, i.e. no valid prediction."""
        return self.features.is_zero and self.locations.is_zero and self.classes.is_zero


def condense(matched: int | None, kind: CommandKind,
             memory: MemoryArray) -> PredictionOutput:
    """OR-reduce the sections of the rows in the matched row bitmap, gated
    by command kind.

    Non-PREDICT kinds, whose matched is None, get an all-zero triple.
    """
    layout = memory.layout
    if kind is CommandKind.PREDICT_FEATURE or kind is CommandKind.PREDICT_LOCATION:
        features, locations, classes = layout.split(
            Bits(memory.or_rows(matched), layout.total))
        if kind is CommandKind.PREDICT_FEATURE:
            locations = Bits.zeros(layout.location_bits)
        else:
            features = Bits.zeros(layout.feature_bits)
        return PredictionOutput(features, locations, classes)
    return PredictionOutput(Bits.zeros(layout.feature_bits),
                            Bits.zeros(layout.location_bits),
                            Bits.zeros(layout.class_bits))
