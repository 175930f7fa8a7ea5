"""The reverse-ternary CAM array: N rows of binary triplets matched against
masked queries.

Each row stores a full feature|location|class triplet plus a valid bit (is
the row still a candidate in the current identification?) and an empty bit
(is the row unused?). Queries carry the don't-care mask; stored rows are
strictly binary. A lookup compares every row at once and overwrites the
valid bits with the match result. An empty row never matches anything.

The array is held bit-sliced, as the match lines of CAM hardware see it:
besides each row's triplet value it keeps one row bitmap per bit position
(bit i set when row i holds a 1 there), and the valid and occupied bits as
row bitmaps. A lookup ANDs together the columns of the query's cared
1-positions, then drops the candidates that hold a 1 at a cared
0-position, and a validate ORs the class columns of the classes it keeps.
Each such operation on a row bitmap touches one bit per row.

Three kinds of step walk a set of rows instead: dropping candidates by
checking their rows, validate's union of the valid rows' classes, and
the OR of a few rows in or_rows and condense. A walk takes the highest
set bit each time, and it is bounded: past a quarter of the cared
0-positions, or past class_bits rows, the column OR takes over, and
or_rows and condense walk only a bitmap of at most half as many rows as
the columns they would scan. Candidates that no cared 1-position
narrowed skip the walk. So a micro-op costs a number of big-integer
operations set by the layout width, not by the row count. Lookup and
validate apply no popcount, negation or complement to a row bitmap: in
CPython each of these runs over every digit of the bitmap, and the last
two build a new one as well. A PREDICT's condense takes one popcount of
its matched rows, only to choose between one walk of whole rows and a
scan of its output columns.

Six single-cycle micro-ops drive the array: clear, reset, store, delete,
lookup, validate. Sequencing between them belongs to the controller, not
to this module.
"""

from __future__ import annotations

from enum import Enum

from .sdr import Bits, LayoutError, SdrLayout


class LookupScope(Enum):
    """Row population a lookup considers: previously-valid rows, or all rows."""
    VALID_ONLY = "valid_only"
    ALL = "all"


class MemoryArray:
    """Fixed-capacity bit-sliced array with the six micro-ops.

    rows[i] is row i's triplet value; valid and occupied are row bitmaps
    (bit i for row i). A cleared or deleted row keeps whatever bits it held
    (they are dead; the occupied bit gates every match). Cleared rows report
    valid=1 so a reset leaves the whole array uniform; this is unobservable
    externally.

    Single-writer: the controller serializes all micro-ops. Construction
    leaves the array cleared (every row empty, valid, zeroed).
    """

    def __init__(self, layout: SdrLayout, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.layout = layout
        self.capacity = capacity
        self._all_rows = (1 << capacity) - 1
        self.micro_clear()

    @property
    def full(self) -> bool:
        return self.occupied == self._all_rows

    @property
    def occupancy(self) -> int:
        """Number of non-empty rows. Instrumentation, not an architectural signal."""
        return self.occupied.bit_count()

    # --- micro-ops -------------------------------------------------------

    def micro_clear(self) -> None:
        """Drop all stored information: every row empty, valid, zeroed."""
        self.rows = [0] * self.capacity
        # _cols[k] has bit i set iff bit k of rows[i] is set
        self._cols = [0] * self.layout.total
        self.valid = self._all_rows
        self.occupied = 0
        # OR-reduce of the last lookup or validate: did any row match?
        self.valid_entry = False

    def micro_reset(self) -> None:
        """Set every valid bit back to 1; stored triplets are untouched."""
        self.valid = self._all_rows

    def micro_lookup(self, query: Bits, dc: Bits,
                     scope: LookupScope = LookupScope.VALID_ONLY) -> tuple[int, bool]:
        """Masked compare of every row; valid bits are overwritten with the result.

        A row matches iff it is non-empty, in scope (ALL ignores the prior
        valid bit), and its triplet equals the query at every position the
        mask does not cover. Returns (match row bitmap, OR-reduce).
        """
        layout = self.layout
        total = layout.total
        if query.width != total or dc.width != total:
            layout.check_width(query)
            layout.check_width(dc)
        q = query.value
        care = ((1 << total) - 1) ^ dc.value
        match = self.occupied
        if scope is not LookupScope.ALL:
            match &= self.valid
        cols = self._cols
        ones = q & care
        narrowed = ones != 0
        while ones and match:  # AND the cared 1-positions' columns, highest first
            k = ones.bit_length() - 1
            match &= cols[k]
            ones ^= 1 << k
        zeros = care ^ (care & q)
        if match and zeros:
            # with no cared 1-position, as in a padded PREDICT_FEATURE, the
            # candidates are every row in scope: too many to check one by one
            if narrowed:
                match = self._drop_by_rows(match, zeros)
            else:
                match = self._drop_by_columns(match, zeros)
        any_hit = match != 0
        self.valid = match
        self.valid_entry = any_hit
        return match, any_hit

    def _drop_by_rows(self, match: int, zeros: int) -> int:
        """Clear each candidate row that holds a 1 where zeros is set.

        Checks the candidates' rows, highest index first. A row check costs
        about as much as ORing one column, so after as many checks as a
        quarter of the positions in zeros, _drop_by_columns finishes the
        job: few candidates cost few checks, and many waste at most a
        quarter of the column OR.
        """
        rows = self.rows
        budget = zeros.bit_count() >> 2
        left = match
        while left and budget:
            budget -= 1
            i = left.bit_length() - 1
            row = 1 << i
            left ^= row
            if rows[i] & zeros:
                match ^= row
        if left:
            return self._drop_by_columns(match, zeros)
        return match

    def _drop_by_columns(self, match: int, zeros: int) -> int:
        """Clear each candidate row that holds a 1 where zeros is set."""
        return match ^ (match & self._any_column(zeros))

    def _any_column(self, positions: int) -> int:
        """Row bitmap of the rows holding a 1 at some position set in positions."""
        rows = 0
        cols = self._cols
        while positions:
            k = positions.bit_length() - 1
            rows |= cols[k]
            positions ^= 1 << k
        return rows

    def micro_validate(self) -> Bits:
        """Close the valid set over classes and emit the k-hot class vector.

        Unions the class sections of the currently valid rows, then re-marks
        as valid exactly the non-empty rows whose class section meets that
        union. The union ORs the rows themselves when there are at most
        class_bits of them, and the class columns otherwise.
        """
        c = self.layout.class_bits
        live = self.valid & self.occupied
        rows = self.rows
        union = 0
        budget = c
        left = live
        while left and budget:
            budget -= 1
            i = left.bit_length() - 1
            union |= rows[i]
            left ^= 1 << i
        if left:
            # the class section is the lowest, so column k is class bit k;
            # more than c rows are live, so or_rows need not count them
            union = self.or_rows(live, 0, c, False)
        else:
            union &= (1 << c) - 1
        self.valid = self.occupied & self._any_column(union)
        self.valid_entry = self.valid != 0
        return Bits(union, c)

    def micro_store(self, triplet: Bits) -> int | None:
        """Write the triplet into the lowest-index empty row.

        Returns the row index, or None when no empty row exists (the array
        is full and unchanged). The caller must have established there is
        no exact duplicate first.
        """
        layout = self.layout
        if triplet.width != layout.total:
            layout.check_width(triplet)
        free = self._all_rows ^ self.occupied
        if not free:
            return None
        row = free & -free
        i = row.bit_length() - 1
        cols = self._cols
        value = triplet.value
        changed = self.rows[i] ^ value
        while changed:  # flip the columns where old and new row differ
            k = changed.bit_length() - 1
            cols[k] ^= row
            changed ^= 1 << k
        self.rows[i] = value
        self.occupied |= row
        self.valid |= row
        return i

    def micro_delete(self) -> int:
        """Mark every valid, non-empty row as empty.

        A lookup leaves exactly its matched rows valid, so after one this
        releases what it matched. Contents stay in place but are dead.
        Returns the number of rows released.
        """
        released = self.valid & self.occupied
        self.occupied ^= released
        return released.bit_count()

    # --- reads and valid-bit bookkeeping ---------------------------------

    def matched_rows(self) -> int:
        """Valid, non-empty rows as a bitmap: after a lookup, the rows it matched."""
        return self.valid & self.occupied

    def or_rows(self, rows: int, lo: int = 0, hi: int | None = None,
                walk: bool = True) -> int:
        """OR of the triplet values of the rows set in a row bitmap.

        Only value bits lo to hi - 1 (least significant first; hi defaults
        to the layout width) are ORed, and the result is shifted down by lo.
        Up to half as many rows as columns are ORed row by row, highest
        first; more rows, or walk=False, scan the columns instead. Choosing
        costs one popcount of the bitmap, which walk=False skips.
        """
        if hi is None:
            hi = self.layout.total
        if walk and rows.bit_count() * 2 <= hi - lo:
            return (self.walk_rows(rows) >> lo) & ((1 << (hi - lo)) - 1)
        # one character per column, lowest first: with a cold cache, the
        # columns read in ascending order measured faster than descending
        bits = ["1" if col & rows else "0" for col in self._cols[lo:hi]]
        return int("".join(bits)[::-1], 2) if bits else 0

    def walk_rows(self, rows: int) -> int:
        """OR of the whole triplet values of the rows set in a row bitmap,
        read row by row, highest first: one step per row, so worth it only
        for a few rows."""
        table = self.rows
        value = 0
        while rows:
            i = rows.bit_length() - 1
            value |= table[i]
            rows ^= 1 << i
        return value

    # --- memory-image text format ----------------------------------------

    def to_image(self) -> str:
        """One row per line: `index feature|location|class V E`. Bit-exact."""
        pretty = self.layout.pretty_value
        # row i's valid and empty bits, as characters indexed by i
        valid = format(self.valid, f"0{self.capacity}b")[::-1]
        empty = format(self._all_rows ^ self.occupied, f"0{self.capacity}b")[::-1]
        lines = [f"{i} {pretty(row)} {v} {e}"
                 for i, (row, v, e) in enumerate(zip(self.rows, valid, empty))]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_image(cls, text: str, layout: SdrLayout) -> MemoryArray:
        """Rebuild an array from its image; capacity = number of lines.

        Each line reads `index feature|location|class V E`, with the three
        sections at the layout's widths. Non-empty rows must satisfy the
        device invariants: a nonzero feature section, one-hot location and
        class sections, no duplicate triplet, and one valid bit per class.
        Empty rows are dead and not checked.
        """
        total = layout.total
        f = layout.feature_bits
        fl = f + layout.location_bits
        lc = total - f
        location_mask = (1 << layout.location_bits) - 1
        class_mask = (1 << layout.class_bits) - 1
        rows: list[int] = []
        raws: list[str] = []                          # each row's bits, no '|'
        valid_text: list[str] = []
        occupied_text: list[str] = []
        first_line: dict[int, int] = {}              # triplet -> image line
        class_valid: dict[int, tuple[str, int]] = {}  # class -> (V, image line)
        for n, line in enumerate(text.splitlines(), 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"image line {n}: expected 4 fields, got {len(parts)}")
            index, bits_text, v, e = parts
            if not (index.isascii() and index.isdigit()):
                raise ValueError(f"image line {n}: index {index!r} is not an integer")
            if int(index) != len(rows):
                raise ValueError(f"image line {n}: index {index} out of order")
            if v not in ("0", "1") or e not in ("0", "1"):
                raise ValueError(f"image line {n}: V/E must be 0 or 1")
            raw = bits_text.replace("|", "")
            if raw.count("0") + raw.count("1") != len(raw):
                raise LayoutError(f"image line {n}: invalid bit characters in {bits_text!r}")
            if len(raw) != total:
                raise LayoutError(f"image line {n}: expected {total} bits, "
                                  f"got {len(raw)} in {bits_text!r}")
            if len(bits_text) != total + 2 or bits_text[f] != "|" or bits_text[fl + 1] != "|":
                raise LayoutError(
                    f"image line {n}: expected sections of {f}|{layout.location_bits}|"
                    f"{layout.class_bits} bits, got {bits_text!r}")
            value = int(raw, 2)
            if e == "0":
                location = (value >> layout.class_bits) & location_mask
                class_ = value & class_mask
                if not value >> lc:
                    raise ValueError(f"image line {n}: feature section is zero")
                if location & (location - 1) or not location:
                    raise ValueError(f"image line {n}: location section is not one-hot")
                if class_ & (class_ - 1) or not class_:
                    raise ValueError(f"image line {n}: class section is not one-hot")
                first = first_line.setdefault(value, n)
                if first != n:
                    raise ValueError(f"image line {n}: triplet duplicates image line {first}")
                class_v, class_line = class_valid.setdefault(class_, (v, n))
                if class_v != v:
                    raise ValueError(f"image line {n}: valid bit {v} differs from image "
                                     f"line {class_line} of the same class")
            rows.append(value)
            raws.append(raw)
            valid_text.append(v)
            occupied_text.append("1" if e == "0" else "0")
        if not rows:
            raise ValueError("memory image has no rows")
        mem = cls(layout, len(rows))
        mem.rows = rows
        mem.valid = int("".join(reversed(valid_text)), 2)
        mem.occupied = int("".join(reversed(occupied_text)), 2)
        # transpose in one step: with the rows' bits joined last row first,
        # bit k of every row sits at stride total from total - 1 - k, and
        # the slice reads as column k, its highest row first. Leading zeros
        # are stripped, since int() sizes its result by the text's length.
        bits = "".join(reversed(raws))
        mem._cols = [int(bits[total - 1 - k::total].lstrip("0") or "0", 2)
                     for k in range(total)]
        return mem
