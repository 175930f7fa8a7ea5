"""Golden reference model with plain set semantics, for differential testing.

State is a set of (feature, location, class) index triplets plus the set of
currently valid classes. No bit masks, no match vectors: each command is
applied abstractly, so a matching bug in the bit-level device would have to
be reinvented here in set form to go unnoticed. The only shared surface is
the canonical SDR text rendering, which the oracle parses with its own
substring arithmetic. Each command branch states its cycle count as its own
literal, taken from the cycle table and not from the controller, so a
controller that takes a different path to the same answer diverges too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preprocess import CommandKind, MacroCommand
from .state_machine import Outcome


@dataclass(frozen=True)
class AbstractResponse:
    """Outcome, index-set outputs and cycle count, comparable field-by-field
    to a Response."""

    outcome: Outcome
    classes: frozenset[int]
    features: frozenset[int]
    locations: frozenset[int]
    full: bool
    cycles: int


class Oracle:
    """Set-semantics model of the six commands.

    Feature keys are the raw feature-section text so that one-hot and k-hot
    features are both compared by exact equality. Location and class are
    plain indices. The padding window is evaluated as a distance predicate
    on indices (line distance, or Chebyshev distance on the configured
    grid), never as a mask.
    """

    def __init__(self, feature_bits: int, location_bits: int, class_bits: int,
                 capacity: int, grid: tuple[int, int] | None = None):
        self.feature_bits = feature_bits
        self.location_bits = location_bits
        self.class_bits = class_bits
        self.capacity = capacity
        self.grid = grid
        self.triplets: set[tuple[str, int, int]] = set()
        self.valid: set[int] = set(range(class_bits))

    # --- decoding ----------------------------------------------------------

    def _sections(self, cmd: MacroCommand) -> tuple[str, str, str]:
        text = str(cmd.sdr)
        f = self.feature_bits
        l = self.location_bits
        return text[:f], text[f:f + l], text[f + l:]

    @staticmethod
    def _hot_index(section: str) -> int:
        return section.index("1")

    def _within_window(self, stored_loc: int, query_loc: int, padding: int) -> bool:
        if padding == 0:
            return stored_loc == query_loc
        if self.grid is None:
            return abs(stored_loc - query_loc) <= padding
        _, cols = self.grid
        r1, c1 = divmod(stored_loc, cols)
        r2, c2 = divmod(query_loc, cols)
        return max(abs(r1 - r2), abs(c1 - c2)) <= padding

    def _response(self, outcome: Outcome, cycles: int, classes: set[int] = frozenset(),
                  features: set[int] = frozenset(),
                  locations: set[int] = frozenset()) -> AbstractResponse:
        return AbstractResponse(outcome, frozenset(classes), frozenset(features),
                                frozenset(locations), len(self.triplets) == self.capacity,
                                cycles)

    # --- commands ------------------------------------------------------------

    def apply(self, cmd: MacroCommand) -> AbstractResponse:
        kind = cmd.kind
        if kind is CommandKind.CLEAR:
            self.triplets.clear()
            self.valid = set(range(self.class_bits))
            return self._response(Outcome.SUCCESS, 1)
        if kind is CommandKind.RESET:
            self.valid = set(range(self.class_bits))
            return self._response(Outcome.SUCCESS, 1)
        feature, location, class_ = self._sections(cmd)
        if kind is CommandKind.STORE:
            return self._store((feature, self._hot_index(location), self._hot_index(class_)))
        if kind is CommandKind.DELETE:
            return self._delete((feature, self._hot_index(location), self._hot_index(class_)))
        if kind is CommandKind.INFER:
            return self._infer(feature, self._hot_index(location))
        if kind is CommandKind.PREDICT_FEATURE:
            return self._predict_feature(self._hot_index(location), cmd.padding)
        if kind is CommandKind.PREDICT_LOCATION:
            return self._predict_location(feature)
        raise ValueError(f"unknown command kind {kind!r}")

    def _store(self, t: tuple[str, int, int]) -> AbstractResponse:
        # the device resets valid bits on every store path, success or not
        self.valid = set(range(self.class_bits))
        # a duplicate is found by the first lookup; a store that finds no
        # empty row still takes the full three cycles
        if t in self.triplets:
            return self._response(Outcome.STORE_FAILED, 2)
        if len(self.triplets) == self.capacity:
            return self._response(Outcome.STORE_FAILED, 3)
        self.triplets.add(t)
        return self._response(Outcome.SUCCESS, 3)

    def _delete(self, t: tuple[str, int, int]) -> AbstractResponse:
        self.valid = set(range(self.class_bits))
        if t not in self.triplets:
            return self._response(Outcome.DELETE_FAILED, 2)
        self.triplets.remove(t)
        return self._response(Outcome.SUCCESS, 3)

    def _infer(self, feature: str, location: int) -> AbstractResponse:
        everywhere = {c for (f, l, c) in self.triplets if f == feature and l == location}
        narrowed = everywhere & self.valid
        if narrowed:
            self.valid = narrowed
            return self._response(Outcome.SUCCESS, 2, classes=narrowed)
        # a miss among the candidates costs a second lookup over all rows
        if everywhere:
            # the pair belongs to objects outside the current candidate set
            self.valid = everywhere
            return self._response(Outcome.CONTEXT_SWITCH, 4, classes=everywhere)
        self.valid = set(range(self.class_bits))
        return self._response(Outcome.INFER_FAILED, 4)

    def _predict_feature(self, location: int, padding: int) -> AbstractResponse:
        features: set[int] = set()
        classes: set[int] = set()
        for f, l, c in self.triplets:
            if c in self.valid and self._within_window(l, location, padding):
                features.update(i for i, ch in enumerate(f) if ch == "1")
                classes.add(c)
        return self._response(Outcome.SUCCESS, 1, classes=classes, features=features)

    def _predict_location(self, feature: str) -> AbstractResponse:
        locations: set[int] = set()
        classes: set[int] = set()
        for f, l, c in self.triplets:
            if c in self.valid and f == feature:
                locations.add(l)
                classes.add(c)
        return self._response(Outcome.SUCCESS, 1, classes=classes, locations=locations)
