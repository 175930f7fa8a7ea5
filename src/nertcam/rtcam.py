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
row bitmaps. The triplet values sit in one byte buffer as codes, so a row
takes no Python object of its own. A code holds one field per section: 0
for an all-zero section, p + 1 for a single 1 at section bit p, in
(width + 1).bit_length() bits. That is 3 bytes a row at the full-scale
163-bit layout, where the row's bits take 21. A row with two or more 1s in
some section, such as a k-hot feature, gets the escape code, every field
all ones, and its bits, ceil(total / 8) bytes big-endian, go in a second
buffer, allocated with the first such row. A lookup ANDs together the
columns of the query's cared 1-positions, then drops the candidates that
hold a 1 at a cared 0-position, and a validate ORs the class columns of
the classes it keeps. Each such operation on a row bitmap touches one bit
per row.

Three kinds of step walk a set of rows instead: dropping candidates by
checking their rows, validate's union of the valid rows' classes, and
walk_rows, the OR of a few whole rows. A walk takes the highest set bit
each time, and it is bounded: past a quarter of the cared 0-positions,
or past class_bits rows, the column OR takes over. or_rows always scans
its columns; condense chooses between it and walk_rows with one popcount
of its matched rows, and walks only a bitmap of at most half as many
rows as the columns it would scan. Candidates that no cared 1-position
narrowed skip the walk. Each walk step slices its row's code out of the
buffer and decodes it inline, three table lookups ORed, with the tables
bound once per walk: a call to row() would add a method call and a range
check, about half as much again as the read. So a micro-op
costs a number of big-integer operations set by the layout width, not by
the row count. Lookup and validate apply no popcount, negation or
complement to a row bitmap: in CPython each of these runs over every
digit of the bitmap, and the last two build a new one as well.

A memory image loads the same way, with no Python step per line. Its
lines are split once, and string operations over all rows check the
fields. Each column is a stride slice of one bit text, every row padded
to its bytes, reversed. The device invariants are checked on the
columns, in big-integer operations set by the layout width, and
duplicates with one set of the live rows' bit texts. Each code bit is an
OR of columns, and the code buffer one int() of a bit text that holds
them as stride slices; the rows' own bit text is parsed only when some
row needs the escape buffer. Only a faulty image costs more: its first
faulty line is found by a bisection over the prefixes of its rows,
loading each one it tries.

Six single-cycle micro-ops drive the array: clear, reset, store, delete,
lookup, validate. Sequencing between them belongs to the controller, not
to this module.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress, count, islice, repeat
from typing import NamedTuple

from .sdr import Bits, LayoutError, SdrLayout

# bound once: the walks call it once per row read
_from_bytes = int.from_bytes

#: The most digits an image index may have: int()'s default limit on
#: decimal text on CPython 3.11+, so that no supported version reads a
#: longer index, and every one rejects it the same way
_INDEX_DIGITS = 4300


def _binary(text: str) -> bool:
    """Does text hold only the characters 0 and 1?"""
    return text.isascii() and not text.encode("ascii").translate(None, b"01")


def _hot_rows(columns: list[int]) -> tuple[int, int]:
    """Row bitmaps of the rows with a 1 in some of columns, and of the rows
    with a 1 in exactly one."""
    some = more = 0
    for col in columns:
        more |= some & col
        some |= col
    return some, some ^ more


class _Codec(NamedTuple):
    """How MemoryArray codes its rows at one layout; _codec builds it.

    A code holds one field per section, feature | location | class with the
    class field lowest: 0 for an all-zero section, p + 1 for a single 1 at
    bit p of the section. A field is (width + 1).bit_length() bits wide, so
    no section's field reaches all ones, and escape, the code whose every
    field is all ones, marks a row held in full. features[v] is the row's
    bits for feature field v, already in place, and likewise locations and
    classes: a code decodes as one entry of each table, ORed.
    """

    code_bytes: int
    row_bytes: int
    escape: int
    feature_at: int     # the feature field's lowest bit
    class_width: int    # the class field's width: the location field's lowest bit
    location_mask: int  # a location field's value, once shifted down
    class_mask: int
    features: list[int]
    locations: list[int]
    classes: list[int]


def _codec(layout: SdrLayout) -> _Codec:
    """Build the layout's row codec and keep it in layout.shared, under this
    function, where MemoryArray looks it up."""
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    fw, lw, cw = (f + 1).bit_length(), (l + 1).bit_length(), (c + 1).bit_length()
    codec = layout.shared[_codec] = _Codec(
        code_bytes=(fw + lw + cw + 7) >> 3, row_bytes=(layout.total + 7) >> 3,
        escape=(1 << (fw + lw + cw)) - 1, feature_at=lw + cw, class_width=cw,
        location_mask=(1 << lw) - 1, class_mask=(1 << cw) - 1,
        features=[0] + [1 << k for k in range(l + c, layout.total)],
        locations=[0] + [1 << k for k in range(c, l + c)],
        classes=[0] + [1 << k for k in range(c)])
    return codec


class LookupScope(Enum):
    """Row population a lookup considers: previously-valid rows, or all rows."""
    VALID_ONLY = "valid_only"
    ALL = "all"


class MemoryArray:
    """Fixed-capacity bit-sliced array with the six micro-ops.

    Row i's code is the big-endian integer in bytes [i * k, (i + 1) * k) of
    one bytearray, k = codec.code_bytes (see _Codec). A row whose code is
    the escape code has its triplet value in bytes [i * w, (i + 1) * w) of
    a second bytearray, w = ceil(layout.total / 8). That buffer comes with
    the first such row, stored or loaded, and only those rows' bytes in it
    are read; a cleared array has none. row(i) decodes row i; the
    micro-ops' row walks decode inline.
    valid and occupied are row bitmaps (bit i for row i), as is each of the
    layout.total columns. A cleared or deleted row keeps whatever bits it
    held (they are dead; the occupied bit gates every match). Cleared rows
    report valid=1 so a reset leaves the whole array uniform; this is
    unobservable externally.

    Single-writer: the controller serializes all micro-ops. Construction
    leaves the array cleared (every row empty, valid, zeroed).
    """

    def __init__(self, layout: SdrLayout, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._shape(layout, capacity)
        self.micro_clear()

    def _shape(self, layout: SdrLayout, capacity: int) -> None:
        """Set the dimensions; micro_clear or from_image sets the state."""
        self.layout = layout
        self.capacity = capacity
        self._all_rows = (1 << capacity) - 1
        # a built codec is a non-empty tuple: no call once the layout has one
        self._codec = layout.shared.get(_codec) or _codec(layout)

    @property
    def full(self) -> bool:
        return self.occupied == self._all_rows

    @property
    def occupancy(self) -> int:
        """Number of non-empty rows. Instrumentation, not an architectural signal."""
        return self.occupied.bit_count()

    def row(self, i: int) -> int:
        """Row i's triplet value; raises IndexError outside 0..capacity-1."""
        if not 0 <= i < self.capacity:
            raise IndexError(f"row {i} out of range 0..{self.capacity - 1}")
        k, w, escape, fa, cw, lm, cm, ft, lt, ct = self._codec
        code = _from_bytes(self._rows[i * k:(i + 1) * k], "big")
        if code == escape:
            return _from_bytes(self._escape[i * w:(i + 1) * w], "big")
        return ft[code >> fa] | lt[code >> cw & lm] | ct[code & cm]

    # --- micro-ops -------------------------------------------------------

    def micro_clear(self) -> None:
        """Drop all stored information: every row empty, valid, zeroed."""
        self._rows = bytearray(self.capacity * self._codec.code_bytes)
        self._escape = None
        # _cols[k] has bit i set iff bit k of row(i) is set
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
        rows = self._rows
        k, w, escape, fa, cw, lm, cm, ft, lt, ct = self._codec
        budget = zeros.bit_count() >> 2
        left = match
        while left and budget:
            budget -= 1
            i = left.bit_length() - 1
            row = 1 << i
            left ^= row
            j = i * k
            code = _from_bytes(rows[j:j + k], "big")
            if code == escape:
                j = i * w
                value = _from_bytes(self._escape[j:j + w], "big")
            else:
                value = ft[code >> fa] | lt[code >> cw & lm] | ct[code & cm]
            if value & zeros:
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
        rows = self._rows
        codec = self._codec
        k, cm, classes = codec.code_bytes, codec.class_mask, codec.classes
        union = 0
        budget = c
        left = live
        while left and budget:
            budget -= 1
            i = left.bit_length() - 1
            j = i * k
            # the class field is the code's lowest, and all ones only in escape
            field = _from_bytes(rows[j:j + k], "big") & cm
            union |= classes[field] if field != cm else self.row(i)
            left ^= 1 << i
        if left:
            # the class section is the lowest, so column k is class bit k
            union = self.or_rows(live, 0, c)
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
        rows = self._rows
        k, w, escape, fa, cw, lm, cm, ft, lt, ct = self._codec
        value = triplet.value
        j = i * k
        old = _from_bytes(rows[j:j + k], "big")
        old = (ft[old >> fa] | lt[old >> cw & lm] | ct[old & cm] if old != escape
               else _from_bytes(self._escape[i * w:(i + 1) * w], "big"))
        changed = old ^ value
        while changed:  # flip the columns where old and new row differ
            b = changed.bit_length() - 1
            cols[b] ^= row
            changed ^= 1 << b
        c = layout.class_bits
        lc = c + layout.location_bits
        feature = value >> lc
        location = (value ^ feature << lc) >> c
        class_ = value & ((1 << c) - 1)
        # a section's field is its bit length, if no section holds two 1s:
        # so when the row holds one 1 for each nonzero section
        if value.bit_count() == (feature != 0) + (location != 0) + (class_ != 0):
            rows[j:j + k] = (feature.bit_length() << fa | location.bit_length() << cw
                             | class_.bit_length()).to_bytes(k, "big")
        else:
            rows[j:j + k] = escape.to_bytes(k, "big")
            if self._escape is None:
                self._escape = bytearray(self.capacity * w)
            self._escape[i * w:(i + 1) * w] = value.to_bytes(w, "big")
        self.occupied |= row
        self.valid |= row
        return i

    def micro_delete(self) -> int:
        """Mark every valid, non-empty row as empty.

        A lookup leaves exactly its matched rows valid, so after one this
        releases what it matched. Contents stay in place but are dead.
        Returns the released rows as a row bitmap. It is not counted here:
        a popcount runs over every digit of the bitmap, and the controller
        does not need the count.
        """
        released = self.valid & self.occupied
        self.occupied ^= released
        return released

    # --- reads and valid-bit bookkeeping ---------------------------------

    def matched_rows(self) -> int:
        """Valid, non-empty rows as a bitmap: after a lookup, the rows it matched."""
        return self.valid & self.occupied

    def or_rows(self, rows: int, lo: int, hi: int) -> int:
        """OR of value bits lo to hi - 1 (least significant first) of the
        rows set in a row bitmap, shifted down by lo.

        Scans those columns, however few rows are set; walk_rows reads the
        rows themselves, which condense chooses for a few rows.
        """
        # one character per column, lowest first: with a cold cache, the
        # columns read in ascending order measured faster than descending
        bits = ["1" if col & rows else "0" for col in self._cols[lo:hi]]
        return int("".join(bits)[::-1], 2) if bits else 0

    def walk_rows(self, rows: int) -> int:
        """OR of the whole triplet values of the rows set in a row bitmap,
        read row by row, highest first: one step per row, so worth it only
        for a few rows."""
        table = self._rows
        k, w, escape, fa, cw, lm, cm, ft, lt, ct = self._codec
        value = 0
        while rows:
            i = rows.bit_length() - 1
            j = i * k
            code = _from_bytes(table[j:j + k], "big")
            if code == escape:
                j = i * w
                value |= _from_bytes(self._escape[j:j + w], "big")
            else:
                value |= ft[code >> fa] | lt[code >> cw & lm] | ct[code & cm]
            rows ^= 1 << i
        return value

    # --- memory-image text format ----------------------------------------

    def to_image(self) -> str:
        """One row per line: `index feature|location|class V E`. Bit-exact."""
        pretty = self.layout.pretty_value
        row = self.row
        # row i's valid and empty bits, as characters indexed by i
        valid = format(self.valid, f"0{self.capacity}b")[::-1]
        empty = format(self._all_rows ^ self.occupied, f"0{self.capacity}b")[::-1]
        lines = [f"{i} {pretty(row(i))} {v} {e}" for i, v, e in zip(count(), valid, empty)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_image(cls, text: str, layout: SdrLayout,
                   khot_features: bool = True) -> MemoryArray:
        """Rebuild an array from its image; capacity = number of lines.

        Each line reads `index feature|location|class V E`, with the three
        sections at the layout's widths. Non-empty rows must satisfy the
        device invariants: a nonzero feature section, one-hot when
        khot_features is False (a System passes its config's flag; the
        array alone takes any feature bits), one-hot location and class
        sections, no duplicate triplet, and one valid bit per class.
        Empty rows are dead and not checked. Blank lines are skipped, and an
        index may carry leading zeros, up to 4,300 digits in all.

        The lines are split once, then checked and loaded as a whole, with
        no Python step per line. A faulty image raises the error of its
        first faulty line, for the first of that line's checks to fail, in
        the order _load lists them.
        """
        lines = list(map(str.split, text.splitlines()))
        rows = list(filter(None, lines))
        if not rows:
            raise ValueError("memory image has no rows")
        try:
            return cls._load(rows, lines, layout, khot_features)
        except ValueError as exc:
            error, good, bad = exc, 0, len(rows)
        # each prefix of a prefix that passes every check passes too, so a
        # bisection finds the shortest failing prefix: it ends at the first
        # faulty row, and its load raised that row's error
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                cls._load(rows[:mid], lines, layout, khot_features)
                good = mid
            except ValueError as exc:
                error, bad = exc, mid
        raise error

    @classmethod
    def _load(cls, rows: list[list[str]], lines: list[list[str]],
              layout: SdrLayout, khot_features: bool) -> MemoryArray:
        """Check rows, each a non-blank image line's fields, and load them.

        Each check covers every row at once; lines, every image line's
        fields, gives only the line numbers of an error. The checks run in
        the order a line's are listed: field count, index, V/E, bit
        characters, bit count, section separators, and on non-empty rows
        the feature, location and class sections, duplicates and the valid
        bit per class. An error names the last row: when every shorter
        prefix of rows passes, that row holds the failing check.
        """
        n = len(rows)
        total = layout.total
        f, c = layout.feature_bits, layout.class_bits
        fl = f + layout.location_bits
        lc = total - f

        def line_of(r: int) -> int:
            return next(islice(compress(count(1), lines), r, None))

        def error(kind: type[ValueError], message: str) -> ValueError:
            return kind(f"image line {line_of(n - 1)}: {message}")

        if set(map(len, rows)) != {4}:
            raise error(ValueError, f"expected 4 fields, got {len(rows[-1])}")
        index, bits, v_fields, e_fields = zip(*rows)
        digits = "".join(index)
        if not (digits.isascii() and digits.isdigit()):
            raise error(ValueError, f"index {index[-1]!r} is not an integer")
        # stripped of its leading zeros, row 0's index is the empty string
        if (max(map(len, index)) > _INDEX_DIGITS
                or list(map(str.lstrip, index, repeat("0"))) != ["", *map(str, range(1, n))]):
            raise error(ValueError, f"index {index[-1]} out of order")
        v = "".join(v_fields)
        e = "".join(e_fields)
        if len(v) != n or len(e) != n or not _binary(v + e):
            raise error(ValueError, "V/E must be 0 or 1")
        # every row's bits, each after its w bytes' pad: once the '|'s are
        # dropped, 8 * w characters a row
        w = (total + 7) >> 3
        pad = "0" * (8 * w - total)
        joined = pad + pad.join(bits)
        padded = joined.replace("|", "")
        if not _binary(padded):
            raise error(LayoutError, f"invalid bit characters in {bits[-1]!r}")
        # all rows total + 2 characters long, with 2 '|'s each, both in place
        step = len(pad) + total + 2
        bars = "|" * n
        if (set(map(len, bits)) != {total + 2} or len(padded) != 8 * w * n
                or joined[len(pad) + f::step] != bars or joined[len(pad) + fl + 1::step] != bars):
            last = bits[-1]
            got = len(last) - last.count("|")
            if got != total:
                raise error(LayoutError, f"expected {total} bits, got {got} in {last!r}")
            raise error(LayoutError, f"expected sections of {f}|{layout.location_bits}|"
                                     f"{c} bits, got {last!r}")
        # transpose in one step: in the reversed text, bit k of every row
        # sits at stride 8 * w from k, and the slice reads as column k, its
        # highest row first. Leading zeros are stripped, since int() sizes
        # its result by the text's length.
        backward = padded[::-1]
        cols = [int(backward[k::8 * w].lstrip("0") or "0", 2) for k in range(total)]
        valid = int(v[::-1], 2)
        occupied = ((1 << n) - 1) ^ int(e[::-1], 2)
        some, one = _hot_rows(cols[lc:])
        if some & occupied != occupied:
            raise error(ValueError, "feature section is zero")
        if not khot_features and one & occupied != occupied:
            raise error(ValueError, "feature section is not one-hot")
        # rows, dead ones too, with two or more 1s in some section
        escaped = some ^ one
        for name, section in (("location", cols[c:lc]), ("class", cols[:c])):
            some, one = _hot_rows(section)
            if one & occupied != occupied:
                raise error(ValueError, f"{name} section is not one-hot")
            escaped |= some ^ one
        live = list(compress(bits, map("0".__eq__, e)))
        if len(set(live)) != len(live):
            # on the shortest failing prefix the last row is live, as is
            # its first twin; a longer prefix's error is not raised
            first = next((r for r in range(n) if e[r] == "0" and bits[r] == bits[-1]), n - 1)
            raise error(ValueError, f"triplet duplicates image line {line_of(first)}")
        for col in cols[:c]:
            members = col & occupied
            if members & valid not in (0, members):
                first = (members & -members).bit_length() - 1
                raise error(ValueError, f"valid bit {v[-1]} differs from image "
                                        f"line {line_of(first)} of the same class")
        # built once, without cls(): its micro_clear would allocate a row
        # store and zero columns only for them to be replaced
        mem = cls.__new__(cls)
        mem._shape(layout, n)
        codec = mem._codec
        # each code bit, lowest first, as a row bitmap: an escaped row sets
        # every field bit, and bit t of a field is the OR of the section's
        # columns whose field value, position + 1, has bit t set
        code_bits = []
        for lo, hi in ((0, c), (c, lc), (lc, total)):
            section = cols[lo:hi]
            for t in range((hi - lo + 1).bit_length()):
                bit = escaped
                for field, col in enumerate(section, 1):
                    if field >> t & 1:
                        bit |= col
                code_bits.append(bit)
        # transpose in one step: row i's code is the characters
        # [i * step, (i + 1) * step) of one bit text, code bit b at the
        # step - 1 - b-th, each code bit's characters a stride slice
        step = 8 * codec.code_bytes
        text = bytearray(b"0" * (step * n))
        for b, bit in enumerate(code_bits):
            text[step - 1 - b::step] = format(bit, f"0{n}b")[::-1].encode()
        mem._rows = bytearray(int(text, 2).to_bytes(codec.code_bytes * n, "big"))
        # every row in full, but only an escaped row's bytes are read
        mem._escape = bytearray(int(padded, 2).to_bytes(w * n, "big")) if escaped else None
        mem._cols = cols
        mem.valid = valid
        mem.occupied = occupied
        mem.valid_entry = False
        return mem
