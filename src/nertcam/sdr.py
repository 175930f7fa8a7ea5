"""Fixed-width bit strings, SDR section layout, and the two matching predicates.

An SDR here is a bit string partitioned into feature | location | class
sections, written left to right (the leftmost character is the first
feature bit). The same container also represents don't-care masks (1 =
ignore that position) and single-section k-hot vectors.

Positions are string positions: 0-based, left to right. "Adjacent"
locations are adjacent string positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class LayoutError(ValueError):
    """Width or section-layout violation."""


@dataclass(frozen=True, slots=True, init=False)
class Bits:
    """A value-semantic bit string of fixed width.

    Internally an int, MSB-first, so that ``str()`` reads exactly like the
    canonical text form (position 0 is the most significant bit). Bit-exact
    textual round trip is part of the contract.
    """

    value: int
    width: int

    def __init__(self, value: int, width: int) -> None:
        # the slots' own setters: the generated __init__ of a frozen class
        # sets each field through object.__setattr__, at about twice the cost
        _bits_value(self, value)
        _bits_width(self, width)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.width < 0:
            raise LayoutError(f"negative width {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise LayoutError(f"value 0x{self.value:x} does not fit in {self.width} bits")

    @classmethod
    def zeros(cls, width: int) -> Bits:
        return cls(0, width)

    @classmethod
    def ones(cls, width: int) -> Bits:
        return cls((1 << width) - 1, width)

    @classmethod
    def one_hot(cls, width: int, position: int) -> Bits:
        if not 0 <= position < width:
            raise LayoutError(f"hot position {position} outside width {width}")
        return cls(1 << (width - 1 - position), width)

    @classmethod
    def from_positions(cls, width: int, positions: Iterable[int]) -> Bits:
        value = 0
        for p in positions:
            if not 0 <= p < width:
                raise LayoutError(f"position {p} outside width {width}")
            value |= 1 << (width - 1 - p)
        return cls(value, width)

    @classmethod
    def parse(cls, text: str, width: int | None = None) -> Bits:
        """Parse '0'/'1' text; a '|' between sections is accepted and ignored."""
        raw = text.replace("|", "")
        if raw and set(raw) - {"0", "1"}:
            raise LayoutError(f"invalid bit characters in {text!r}")
        if width is not None and len(raw) != width:
            raise LayoutError(f"expected {width} bits, got {len(raw)} in {text!r}")
        return cls(int(raw, 2) if raw else 0, len(raw))

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b") if self.width else ""

    @property
    def popcount(self) -> int:
        return self.value.bit_count()

    @property
    def hot_positions(self) -> tuple[int, ...]:
        """String positions of the set bits, ascending."""
        out = []
        v = self.value
        while v:
            low = v & -v
            out.append(self.width - low.bit_length())
            v ^= low
        out.reverse()
        return tuple(out)


_bits_value = Bits.value.__set__
_bits_width = Bits.width.__set__


def concat(*parts: Bits) -> Bits:
    """Concatenate left to right; the first part lands in the leftmost positions."""
    value = 0
    width = 0
    for p in parts:
        value = (value << p.width) | p.value
        width += p.width
    return Bits(value, width)


#: SdrLayout.shared's dict of each layout value
_SHARED: dict[SdrLayout, dict] = {}


@dataclass(frozen=True)
class SdrLayout:
    """Section widths of an SDR: feature | location | class, in that order."""

    feature_bits: int
    location_bits: int
    class_bits: int

    def __post_init__(self) -> None:
        for name in ("feature_bits", "location_bits", "class_bits"):
            if getattr(self, name) < 1:
                raise LayoutError(f"{name} must be >= 1")

    @cached_property
    def total(self) -> int:
        # computed on first read and kept in the instance; not a field, so
        # == and hash still see only the three widths
        return self.feature_bits + self.location_bits + self.class_bits

    @cached_property
    def shared(self) -> dict:
        """Constants other blocks build once per layout value, such as the DC
        masks, keyed by the function that builds them. Equal layouts share
        one dict; only the first read on an instance hashes the layout."""
        return _SHARED.setdefault(self, {})

    def check_width(self, bits: Bits) -> None:
        if bits.width != self.total:
            raise LayoutError(f"SDR width {bits.width} != layout total {self.total}")

    def split(self, sdr: Bits) -> tuple[Bits, Bits, Bits]:
        """Partition a full-width SDR into (feature, location, class) sections."""
        self.check_width(sdr)
        lc = self.location_bits + self.class_bits
        feature = Bits(sdr.value >> lc, self.feature_bits)
        location = Bits((sdr.value >> self.class_bits) & ((1 << self.location_bits) - 1),
                        self.location_bits)
        class_ = Bits(sdr.value & ((1 << self.class_bits) - 1), self.class_bits)
        return feature, location, class_

    def triplet(self, feature: int | Bits | None = None, location: int | None = None,
                class_: int | None = None) -> Bits:
        """Full-width SDR from each section's hot index; a missing section is zero.

        A k-hot feature section may be passed as Bits of the feature width.
        """
        # an in-range int index is set inline; _section_value takes a Bits
        # feature and raises for an index outside its section
        f, l, c = self.feature_bits, self.location_bits, self.class_bits
        value = 0
        if feature is not None:
            value = (1 << (f - 1 - feature) if type(feature) is int and 0 <= feature < f
                     else _section_value("feature", f, feature)) << (l + c)
        if location is not None:
            value |= (1 << (l - 1 - location) if type(location) is int and 0 <= location < l
                      else _section_value("location", l, location)) << c
        if class_ is not None:
            value |= (1 << (c - 1 - class_) if type(class_) is int and 0 <= class_ < c
                      else _section_value("class", c, class_))
        return Bits(value, self.total)

    def pretty(self, sdr: Bits) -> str:
        """Human-readable text with '|' between sections."""
        if sdr.width != self.total:
            self.check_width(sdr)
        return self.pretty_value(sdr.value)

    def pretty_value(self, value: int) -> str:
        """pretty() of a full-width SDR's value, which must fit the layout:
        one format of the whole value, sliced at the section bounds."""
        text = format(value, f"0{self.total}b")
        f = self.feature_bits
        fl = f + self.location_bits
        return f"{text[:f]}|{text[f:fl]}|{text[fl:]}"


def _section_value(name: str, width: int, hot: int | Bits | None) -> int:
    """One section's value for SdrLayout.triplet: zero, the hot index's bit,
    or a Bits of the section width."""
    if hot is None:
        return 0
    if isinstance(hot, Bits):
        if hot.width != width:
            raise LayoutError(f"{name} section width {hot.width} != layout {width}")
        return hot.value
    if 0 <= hot < width:
        return 1 << (width - 1 - hot)
    raise LayoutError(f"{name} index {hot} outside width {width}")


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
