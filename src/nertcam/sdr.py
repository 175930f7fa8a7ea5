"""Fixed-width bit strings and the SDR section layout.

An SDR here is a bit string partitioned into feature | location | class
sections, written left to right (the leftmost character is the first
feature bit). The same container also represents don't-care masks (1 =
ignore that position) and single-section k-hot vectors.

Positions are string positions: 0-based, left to right. "Adjacent"
locations are adjacent string positions.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Iterable


class LayoutError(ValueError):
    """Width or section-layout violation."""


def value_object(cls: type) -> type:
    """Make cls a frozen slotted dataclass whose __init__ sets each field
    through its slot's own setter.

    The __init__ dataclass generates for a frozen class goes through
    object.__setattr__ for each field, at about twice the cost, and every
    command builds several of these objects. This one takes the fields in
    order, with their defaults, calls each slot's member-descriptor setter,
    bound once per class, and ends with self.__post_init__() when the class
    defines one. Like dataclasses, it builds the __init__ from source with
    exec.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    # the bound setters are the globals of the __init__ built here
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    if hasattr(cls, "__post_init__"):
        # looked up on self, so that a replaced __post_init__ is the one called
        body += "    self.__post_init__()\n"
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(f.default for f in fields(cls) if f.default is not MISSING)
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@value_object
class Bits:
    """A value-semantic bit string of fixed width.

    Internally an int, MSB-first, so that ``str()`` reads exactly like the
    canonical text form (position 0 is the most significant bit). Bit-exact
    textual round trip is part of the contract.
    """

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise LayoutError(f"negative width {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise LayoutError(f"value 0x{self.value:x} does not fit in {self.width} bits")

    @classmethod
    def zeros(cls, width: int) -> Bits:
        return cls(0, width)

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
