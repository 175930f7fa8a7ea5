"""The reverse-ternary CAM array: N rows of binary triplets matched against
masked queries.

Each row stores a full feature|location|class triplet plus a valid bit (is
the row still a candidate in the current identification?) and an empty bit
(is the row unused?). Queries carry the don't-care mask; stored rows are
strictly binary. A lookup evaluates every row in parallel (here: a loop
whose result equals the parallel definition) and overwrites the valid bits
with the match result. An empty row never matches anything.

Six single-cycle micro-ops drive the array: clear, reset, store, delete,
lookup, validate. Sequencing between them belongs to the controller, not
to this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .sdr import Bits, LayoutError, SdrLayout


class LookupScope(Enum):
    """Row population a lookup considers: previously-valid rows, or all rows."""
    VALID_ONLY = "valid_only"
    ALL = "all"


class MatchMode(Enum):
    EQUALITY = "equality"
    MEMBERSHIP = "membership"


@dataclass
class Entry:
    """One memory row: a full-width triplet plus valid and empty bits.

    A cleared or deleted row keeps whatever bits it held (they are dead; the
    empty bit suppresses every match). Cleared rows report valid=1 so a
    reset leaves the whole array uniform; this is unobservable externally.
    """

    sdr: Bits
    valid: bool = True
    empty: bool = True


class MemoryArray:
    """Fixed-capacity array of Entry rows with the six micro-ops.

    Single-writer: the controller serializes all micro-ops. Construction
    leaves the array cleared (every row empty, valid, zeroed).
    """

    def __init__(self, layout: SdrLayout, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.layout = layout
        self.capacity = capacity
        self.entries: list[Entry] = [Entry(Bits.zeros(layout.total)) for _ in range(capacity)]
        self._occupied = 0
        self._valid_entry = False

    @property
    def full(self) -> bool:
        return self._occupied == self.capacity

    @property
    def occupancy(self) -> int:
        """Number of non-empty rows. Instrumentation, not an architectural signal."""
        return self._occupied

    # --- micro-ops -------------------------------------------------------

    def micro_clear(self) -> None:
        """Drop all stored information: every row empty, valid, zeroed."""
        zero = Bits.zeros(self.layout.total)
        for e in self.entries:
            e.sdr = zero
            e.valid = True
            e.empty = True
        self._occupied = 0
        self._valid_entry = False

    def micro_reset(self) -> None:
        """Set every valid bit back to 1; stored triplets are untouched."""
        for e in self.entries:
            e.valid = True

    def micro_lookup(self, query: Bits, dc: Bits,
                     scope: LookupScope = LookupScope.VALID_ONLY,
                     mode: MatchMode = MatchMode.EQUALITY) -> tuple[tuple[bool, ...], bool]:
        """Masked compare of every row; valid bits are overwritten with the result.

        A row matches iff it is non-empty, in scope (ALL ignores the prior
        valid bit), and its triplet satisfies the mode's predicate against
        the query under the mask. Returns (per-row match vector, OR-reduce).
        """
        self.layout.check_width(query)
        self.layout.check_width(dc)
        q = query.value
        care = ((1 << self.layout.total) - 1) & ~dc.value
        scope_all = scope is LookupScope.ALL
        eq = mode is MatchMode.EQUALITY
        match: list[bool] = []
        any_hit = False
        for e in self.entries:
            if e.empty or not (scope_all or e.valid):
                hit = False
            elif eq:
                hit = ((e.sdr.value ^ q) & care) == 0
            else:
                hit = (e.sdr.value & q & care) != 0
            e.valid = hit
            match.append(hit)
            any_hit |= hit
        self._valid_entry = any_hit
        return tuple(match), any_hit

    def micro_validate(self) -> Bits:
        """Close the valid set over classes and emit the k-hot class vector.

        Unions the class sections of the currently valid rows, then re-marks
        every non-empty row whose class falls in that union. The re-marking
        is the internal membership lookup: query carries the union in the
        class section, the mask covers everything except the union's hot
        positions.
        """
        union = 0
        class_mask = (1 << self.layout.class_bits) - 1
        for e in self.entries:
            if e.valid and not e.empty:
                union |= e.sdr.value & class_mask
        total = self.layout.total
        # the class section is the lowest, so the union is already in place
        query = Bits(union, total)
        dc = Bits(((1 << total) - 1) ^ union, total)
        self.micro_lookup(query, dc, LookupScope.ALL, MatchMode.MEMBERSHIP)
        return Bits(union, self.layout.class_bits)

    def micro_store(self, triplet: Bits) -> int | None:
        """Write the triplet into the lowest-index empty row.

        Returns the row index, or None when no empty row exists (the array
        is full and unchanged). The caller must have established there is
        no exact duplicate first.
        """
        self.layout.check_width(triplet)
        for i, e in enumerate(self.entries):
            if e.empty:
                e.sdr = triplet
                e.empty = False
                e.valid = True
                self._occupied += 1
                return i
        return None

    def micro_delete(self) -> int:
        """Mark every valid, non-empty row as empty.

        A lookup leaves exactly its matched rows valid, so after one this
        releases what it matched. Contents stay in place but are dead.
        Returns the number of rows released.
        """
        released = 0
        for e in self.entries:
            if e.valid and not e.empty:
                e.empty = True
                released += 1
        self._occupied -= released
        return released

    # --- reads and valid-bit bookkeeping ---------------------------------

    def matched_rows(self) -> list[Entry]:
        """Valid, non-empty rows: after a lookup, exactly the rows it matched."""
        return [e for e in self.entries if e.valid and not e.empty]

    @property
    def valid_entry(self) -> bool:
        return self._valid_entry

    def snapshot_valid(self) -> list[bool]:
        return [e.valid for e in self.entries]

    def restore_valid(self, snapshot: list[bool]) -> None:
        for e, v in zip(self.entries, snapshot):
            e.valid = v

    # --- memory-image text format ----------------------------------------

    def to_image(self) -> str:
        """One row per line: `index feature|location|class V E`. Bit-exact."""
        lines = []
        for i, e in enumerate(self.entries):
            lines.append(f"{i} {self.layout.pretty(e.sdr)} {int(e.valid)} {int(e.empty)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_image(cls, text: str, layout: SdrLayout) -> MemoryArray:
        """Rebuild an array from its image; capacity = number of lines."""
        rows: list[Entry] = []
        for n, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"image line {n + 1}: expected 4 fields, got {len(parts)}")
            index, bits_text, v, e = parts
            if not (index.isascii() and index.isdigit()):
                raise ValueError(f"image line {n + 1}: index {index!r} is not an integer")
            if int(index) != len(rows):
                raise ValueError(f"image line {n + 1}: index {index} out of order")
            if v not in ("0", "1") or e not in ("0", "1"):
                raise ValueError(f"image line {n + 1}: V/E must be 0 or 1")
            try:
                sdr = layout.parse(bits_text)
            except LayoutError as exc:
                raise LayoutError(f"image line {n + 1}: {exc}") from exc
            rows.append(Entry(sdr, valid=v == "1", empty=e == "1"))
        if not rows:
            raise ValueError("memory image has no rows")
        mem = cls(layout, len(rows))
        mem.entries = rows
        mem._occupied = sum(1 for r in rows if not r.empty)
        return mem
