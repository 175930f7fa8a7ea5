"""Combinational condenser folding matched rows into k-hot output vectors.

A prediction's matched rows are OR-reduced per section. The section the
agent supplied is forced low (it would only echo the input back), and
non-PREDICT commands emit nothing from this block. An all-zero output
triple means the prediction failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .preprocess import CommandKind
from .rtcam import Entry
from .sdr import Bits, SdrLayout


@dataclass(frozen=True)
class PredictionOutput:
    features: Bits
    locations: Bits
    classes: Bits

    @property
    def is_empty(self) -> bool:
        """All-zero triple, i.e. no valid prediction."""
        return self.features.is_zero and self.locations.is_zero and self.classes.is_zero


def condense(matched: Sequence[Entry] | None, kind: CommandKind,
             layout: SdrLayout) -> PredictionOutput:
    """OR-reduce the matched rows' sections, gated by command kind.

    Non-PREDICT kinds, whose matched is None, get an all-zero triple.
    """
    features = locations = classes = 0
    if kind is CommandKind.PREDICT_FEATURE or kind is CommandKind.PREDICT_LOCATION:
        for e in matched:
            f, l, c = layout.split(e.sdr)
            features |= f.value
            locations |= l.value
            classes |= c.value
        if kind is CommandKind.PREDICT_FEATURE:
            locations = 0
        else:
            features = 0
    return PredictionOutput(Bits(features, layout.feature_bits),
                            Bits(locations, layout.location_bits),
                            Bits(classes, layout.class_bits))
