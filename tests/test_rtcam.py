"""Memory-array micro-ops: clear, reset, lookup, validate, store, delete."""

import gc
import random
import re
import tracemalloc

import pytest

from nertcam import (Bits, CommandKind, LayoutError, LookupScope, MemoryArray,
                     PredictionOutput, SdrLayout, concat, condense)
from reference import equality_match, load_image, membership_match, split


def B(text):
    return Bits.parse(text)


def rows_of(bitmap):
    """Row indices set in a row bitmap, ascending."""
    return [i for i in range(bitmap.bit_length()) if bitmap >> i & 1]


def mem333(*triplets):
    """Array of 4 rows over the 3/3/3 layout, preloaded with triplet texts."""
    mem = MemoryArray(SdrLayout(3, 3, 3), 4)
    for t in triplets:
        assert mem.micro_store(B(t)) is not None
    return mem


INFER_DC = "000000111"


# --- clear / reset -------------------------------------------------------------


def test_clear_marks_every_row_empty_and_valid():
    mem = mem333("001|010|100", "001|100|010")
    mem.micro_clear()
    assert (mem.valid, mem.occupied) == (0b1111, 0)
    assert not mem.full and mem.occupancy == 0
    _, hit = mem.micro_lookup(B("001|010|000"), B(INFER_DC))
    assert not hit


def test_clear_is_idempotent():
    mem = mem333("001|010|100")
    mem.micro_clear()
    snapshot = mem.to_image()
    mem.micro_clear()
    assert mem.to_image() == snapshot


def test_reset_restores_valid_bits_only():
    mem = mem333("001|010|100", "001|100|010", "010|001|001")
    mem.valid = 0b1010  # rows 0 and 2 invalid
    before = [mem.row(i) for i in range(4)]
    mem.micro_reset()
    assert mem.valid == 0b1111
    assert [mem.row(i) for i in range(4)] == before  # triplets untouched
    mem.micro_reset()
    assert mem.valid == 0b1111


# --- lookup ----------------------------------------------------------------------


def test_lookup_narrows_to_matching_pair():
    # set oracle: only class 100 contains the pair (feature 001, location 010)
    mem = mem333("001|010|100", "001|100|010")
    match, hit = mem.micro_lookup(B("001|010|000"), B(INFER_DC), LookupScope.VALID_ONLY)
    assert match == 0b0001
    assert hit
    assert mem.valid == 0b0001


def test_lookup_unstored_pair_finds_nothing():
    mem = mem333("001|010|100", "001|100|010")
    match, hit = mem.micro_lookup(B("100|001|000"), B(INFER_DC))
    assert match == 0
    assert not hit


def test_lookup_on_empty_memory():
    mem = MemoryArray(SdrLayout(3, 3, 3), 4)
    _, hit = mem.micro_lookup(B("001|010|000"), B(INFER_DC))
    assert not hit


def test_lookup_never_matches_empty_rows():
    mem = mem333("001|010|100")
    mem.micro_lookup(B("001|010|100"), B("111111111"), LookupScope.ALL)
    # all-ones mask matches every stored row, but only the occupied one
    assert mem.matched_rows() == 0b0001


def test_valid_only_is_all_intersect_prior_valid():
    rng = random.Random(11)
    layout = SdrLayout(3, 3, 3)
    for _ in range(100):
        rows = [f"{rng.getrandbits(9):09b}" for _ in range(5)]
        a = MemoryArray(layout, 5)
        b = MemoryArray(layout, 5)
        for t in rows:
            a.micro_store(B(t))
            b.micro_store(B(t))
        valid = rng.getrandbits(5)
        a.valid = b.valid = valid
        query = Bits(rng.getrandbits(9), 9)
        dc = Bits(rng.getrandbits(9), 9)
        narrow, _ = a.micro_lookup(query, dc, LookupScope.VALID_ONLY)
        wide, _ = b.micro_lookup(query, dc, LookupScope.ALL)
        assert narrow == wide & valid


def test_lookup_agrees_with_match_predicates():
    """A one-row array is exactly the sdr-level equality predicate, exhaustively."""
    layout = SdrLayout(1, 1, 2)  # 4-bit rows
    for sv in range(16):
        for qv in range(16):
            for dv in range(16):
                s, q, d = Bits(sv, 4), Bits(qv, 4), Bits(dv, 4)
                mem = MemoryArray(layout, 1)
                mem.micro_store(s)
                _, hit = mem.micro_lookup(q, d, LookupScope.ALL)
                assert hit is equality_match(s, q, d)


def test_lookup_matches_predicates_row_by_row(monkeypatch):
    """Multi-row reference: on rows with arbitrary bits, the match bitmap is
    equality_match applied row by row over the in-scope occupied rows, and
    validate's union and class closure are membership_match row by row."""
    paths = {"_drop_by_rows": 0, "_drop_by_columns": 0}
    for name in paths:
        def spy(self, match, zeros, _name=name, _drop=getattr(MemoryArray, name)):
            paths[_name] += 1
            return _drop(self, match, zeros)
        monkeypatch.setattr(MemoryArray, name, spy)

    layout = SdrLayout(8, 8, 4)
    width = layout.total
    ones = (1 << width) - 1
    rng = random.Random(5)

    def sparse(p):
        return sum(1 << k for k in range(width) if rng.random() < p)

    for capacity in (1, 7, 64, 300):
        for _ in range(40):
            mem = MemoryArray(layout, capacity)
            for _ in range(capacity):
                mem.micro_store(Bits(rng.getrandbits(width), width))
            mem.valid = rng.getrandbits(capacity)
            mem.micro_delete()  # released rows keep their (dead) bits
            valid = rng.getrandbits(capacity)
            for scope in LookupScope:
                query = Bits(sparse(rng.choice((0.1, 0.5, 0.9))), width)
                dc = Bits(sparse(rng.choice((0.1, 0.5, 0.9))), width)
                mem.valid = valid
                match, hit = mem.micro_lookup(query, dc, scope)
                expected = 0
                for i, row in enumerate(map(mem.row, range(mem.capacity))):
                    in_scope = mem.occupied >> i & 1 and (
                        scope is LookupScope.ALL or valid >> i & 1)
                    if in_scope and equality_match(Bits(row, width), query, dc):
                        expected |= 1 << i
                assert match == expected == mem.valid
                assert hit is (expected != 0)
            # validate: class k is in the union iff some valid occupied row
            # holds it; the closure keeps the occupied rows that meet the union
            mem.valid = valid
            classes = mem.micro_validate()
            union = 0
            for k in range(layout.class_bits):
                query, dc = Bits(1 << k, width), Bits(ones ^ 1 << k, width)
                if any(mem.occupied >> i & 1 and valid >> i & 1
                       and membership_match(Bits(row, width), query, dc)
                       for i, row in enumerate(map(mem.row, range(mem.capacity)))):
                    union |= 1 << k
            assert classes == Bits(union, layout.class_bits)
            query, dc = Bits(union, width), Bits(ones ^ union, width)
            closed = 0
            for i, row in enumerate(map(mem.row, range(mem.capacity))):
                if mem.occupied >> i & 1 and membership_match(Bits(row, width), query, dc):
                    closed |= 1 << i
            assert mem.valid == closed
            assert mem.valid_entry is (closed != 0)
    # both exact ways of dropping survivors at cared 0-positions were taken
    assert paths["_drop_by_rows"] > 0 and paths["_drop_by_columns"] > 0


def _edge_rows(rng, capacity, count):
    """Row bitmap of count rows, drawn from both ends of the array and between."""
    ends = [*range(4), *range(capacity - 4, capacity)]
    picked = rng.sample(ends, min(count, len(ends)))
    picked += rng.sample(range(4, capacity - 4), max(0, count - len(picked)))
    return sum(1 << i for i in picked)


def test_read_paths_match_predicates_over_many_digits(monkeypatch):
    """Row bitmaps of hundreds of rows span many 30-bit digits of a Python
    int. Every drop path of a lookup (row checks alone, row checks that
    run out of budget and hand over to the column OR, the column OR
    alone, with or without a cared 1-position) and both ways validate
    builds its class union agree with the predicates row by row, for
    candidates at low and high row indices. Once a cared 1-position has
    narrowed the candidates, the escaped ones are checked against every
    cared 0-position, and then all of them against the cared 0-positions
    of the sections that no cared 1-position narrowed."""
    calls: list[str] = []
    drops: list[tuple[int, int]] = []  # each drop call's (match, zeros)
    for name in ("_drop_by_rows", "_drop_by_columns"):
        def spy(self, match, zeros, _name=name, _drop=getattr(MemoryArray, name)):
            calls.append(_name)
            drops.append((match, zeros))
            return _drop(self, match, zeros)
        monkeypatch.setattr(MemoryArray, name, spy)
    or_rows = MemoryArray.or_rows

    def or_rows_spy(self, *args):
        calls.append("or_rows")
        return or_rows(self, *args)
    monkeypatch.setattr(MemoryArray, "or_rows", or_rows_spy)

    layout = SdrLayout(16, 8, 4)
    width = layout.total
    ones = (1 << width) - 1
    c, lc = layout.class_bits, layout.location_bits + layout.class_bits
    sections = [(1 << hi) - (1 << lo) for lo, hi in ((0, c), (c, lc), (lc, width))]
    rng = random.Random(11)
    seen = set()
    for capacity in (300, 1000):
        mem = MemoryArray(layout, capacity)
        for _ in range(capacity):
            mem.micro_store(Bits(rng.getrandbits(width), width))
        # released rows keep their (dead) bits; the end rows stay live
        mem.valid = sum(1 << i for i in rng.sample(range(4, capacity - 4), capacity // 10))
        mem.micro_delete()
        cases = []
        for _ in range(80):
            # few cared positions drop by columns at once; more let row
            # checks run until the candidates or the budget run out
            cases.append((_edge_rows(rng, capacity, rng.choice((1, 3, 4, 5, 40, capacity))),
                          rng.choice(list(LookupScope)),
                          rng.sample(range(width), rng.choice((2, 3, 6, 16, width))),
                          rng.choice((0, rng.getrandbits(width),
                                      mem.row(rng.randrange(capacity))))))
        # row checks that drop the first or the last row: it holds the one
        # cared 1-position, and 1s at cared 0-positions
        for end in (0, capacity - 1):
            cases.append((_edge_rows(rng, capacity, 8), LookupScope.VALID_ONLY,
                          range(width), 1 << (mem.row(end).bit_length() - 1)))
        for valid, scope, cared, query in cases:
            dc = Bits(ones ^ sum(1 << k for k in cared), width)
            query = Bits(query, width)
            mem.valid = valid
            calls.clear()
            drops.clear()
            match, hit = mem.micro_lookup(query, dc, scope)
            expected = 0
            candidates = 0  # in-scope rows holding every cared 1-position
            escaped = 0  # the candidates held in full
            cared_ones = query.value & ~dc.value
            for i, row in enumerate(map(mem.row, range(mem.capacity))):
                in_scope = mem.occupied >> i & 1 and (
                    scope is LookupScope.ALL or valid >> i & 1)
                if in_scope and equality_match(Bits(row, width), query, dc):
                    expected |= 1 << i
                if in_scope and row & cared_ones == cared_ones:
                    candidates |= 1 << i
                    escaped |= _escaped(layout, row) << i
            assert match == expected == mem.valid
            assert hit is (expected != 0)
            # the drop passes due: (name, candidates, cared 0-positions)
            zeros = (ones ^ dc.value) & ~query.value
            passes = []
            if candidates and zeros and not cared_ones:
                passes.append(("not narrowed", candidates, zeros))
            elif candidates and zeros:
                if escaped:
                    passes.append(("escaped", escaped, zeros))
                free = sum(zeros & s for s in sections if not cared_ones & s)
                # the coded candidates, and the escaped ones that passed
                left = candidates ^ escaped | escaped & expected
                if free and left:
                    passes.append(("free", left, free))
            for name, rows, cared_zeros in passes:
                assert drops[0] == (rows, cared_zeros)
                # row checks are budgeted at a quarter of the cared 0-positions
                budget = cared_zeros.bit_count() // 4
                if name == "not narrowed":
                    assert calls[:1] == ["_drop_by_columns"]
                    path = "columns, not narrowed"
                elif rows.bit_count() <= budget:
                    assert calls[:1] == ["_drop_by_rows"]
                    path = "rows"
                else:
                    assert calls[:2] == ["_drop_by_rows", "_drop_by_columns"]
                    path = "handover" if budget else "columns at once"
                taken = 1 if path in ("rows", "columns, not narrowed") else 2
                del calls[:taken], drops[:taken]
                seen.add((name, path))
            assert calls == []

            mem.valid = valid
            calls.clear()
            classes = mem.micro_validate()
            live = [i for i in range(capacity) if mem.occupied >> i & 1 and valid >> i & 1]
            union = 0
            for k in range(layout.class_bits):
                query, dc = Bits(1 << k, width), Bits(ones ^ 1 << k, width)
                if any(membership_match(Bits(mem.row(i), width), query, dc) for i in live):
                    union |= 1 << k
            assert classes == Bits(union, layout.class_bits)
            query, dc = Bits(union, width), Bits(ones ^ union, width)
            closed = 0
            for i, row in enumerate(map(mem.row, range(mem.capacity))):
                if mem.occupied >> i & 1 and membership_match(Bits(row, width), query, dc):
                    closed |= 1 << i
            assert mem.valid == closed
            assert mem.valid_entry is (closed != 0)
            # the rows themselves are ORed up to class_bits of them
            assert calls == (["or_rows"] if len(live) > layout.class_bits else [])
            seen.add("union by columns" if calls else "union by rows")
    assert seen == {("escaped", "rows"), ("escaped", "handover"), ("escaped", "columns at once"),
                    ("free", "rows"), ("free", "columns at once"),
                    ("not narrowed", "columns, not narrowed"),
                    "union by rows", "union by columns"}


def test_or_rows_matches_row_by_row_or_over_many_digits():
    """or_rows over every section and range, the empty one and the top one
    among them, equals OR-ing the chosen rows' bits one row at a time."""
    layout = SdrLayout(16, 8, 4)
    width = layout.total
    rng = random.Random(3)
    capacity = 700
    mem = MemoryArray(layout, capacity)
    for _ in range(capacity):
        mem.micro_store(Bits(rng.getrandbits(width) & rng.getrandbits(width), width))
    top = layout.location_bits + layout.class_bits
    ranges = [(0, width), (0, layout.class_bits), (layout.class_bits, top),
              (top, width), (5, 5), (width, width), (0, 0)]
    for count in (0, 1, 2, 7, 100, capacity):
        rows = _edge_rows(rng, capacity, count)
        for lo, hi in ranges:
            span = hi - lo
            expected = 0
            for i in rows_of(rows):
                expected |= mem.row(i) >> lo & ((1 << span) - 1)
            assert mem.or_rows(rows, lo, hi) == expected


class _RowReadLog(bytearray):
    """A row buffer of size bytes a row that logs (name, row index) for each
    row read, a slice or a single byte, so that a test can tell which rows a
    walk read."""

    def __init__(self, items, log, name, size):
        super().__init__(items)
        self.log = log
        self.name = name
        self.size = size
        self.keys = []  # each read's subscript, an int or a slice

    def __getitem__(self, key):
        start = key if isinstance(key, int) else key.start
        self.log.append((self.name, start // self.size))
        self.keys.append(key)
        return super().__getitem__(key)


class _ColumnReadLog(list):
    """_cols that logs "scan" for each read: a scan reads columns, not rows."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, key):
        self.log.append("scan")
        return super().__getitem__(key)


def _spied_memory(layout, capacity, rng):
    """A memory of rows, half of random bits and half one-hot triplets, a
    tenth of them deleted (dead rows keep their bits), with the code buffer,
    the escape buffer of the rows held in full and _cols logging their
    reads; returns (memory, log)."""
    width = layout.total
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    mem = MemoryArray(layout, capacity)
    for _ in range(capacity):
        mem.micro_store(Bits(rng.getrandbits(width), width) if rng.random() < 0.5
                        else layout.triplet(rng.randrange(f), rng.randrange(l), rng.randrange(c)))
    mem.valid = sum(1 << i for i in rng.sample(range(capacity), capacity // 10))
    mem.micro_delete()
    log: list = []
    codec = mem._codec
    mem._rows = _RowReadLog(mem._rows, log, "code", codec.code_bytes)
    mem._escape = _RowReadLog(mem._escape, log, "escape", codec.row_bytes)
    mem._cols = _ColumnReadLog(mem._cols, log)
    return mem, log


def _escaped(layout, value):
    """Does a row of this value have two or more 1s in some section, and so
    sit in full in the escape buffer?"""
    return any(section.popcount > 1 for section in split(layout, Bits(value, layout.total)))


def _read_once(mem, log, rows):
    """Did the log record one read of each row set in the rows bitmap,
    highest first: its code, and its full bytes right after when escaped?"""
    read = list(log)  # before row() below logs reads of its own
    expected = []
    for i in reversed(rows_of(rows)):
        expected.append(("code", i))
        if _escaped(mem.layout, mem.row(i)):
            expected.append(("escape", i))
    return read == expected


def test_or_rows_scans_columns_and_walk_rows_reads_rows():
    """or_rows scans the columns in range with one slice of _cols, however
    few rows the bitmap holds, and walk_rows reads each set row once. Both
    equal a row-by-row OR, dead rows included, over every section, the
    whole row and empty ranges."""
    layout = SdrLayout(16, 8, 4)
    width = layout.total
    c, lc = layout.class_bits, layout.location_bits + layout.class_bits
    ranges = [(0, c), (c, lc), (lc, width), (0, width), (0, 0), (c, c), (width, width)]
    rng = random.Random(17)
    for capacity in (64, 1000):
        mem, log = _spied_memory(layout, capacity, rng)
        for count in (0, 1, 2, 3, 4, 5, 8, 9, 14, 15, 16, 40, capacity):
            rows = _edge_rows(rng, capacity, count)
            expected = 0
            for i in rows_of(rows):
                expected |= mem.row(i)
            log.clear()
            assert mem.walk_rows(rows) == expected
            assert _read_once(mem, log, rows)
            for lo, hi in ranges:
                log.clear()
                assert mem.or_rows(rows, lo, hi) == expected >> lo & ((1 << (hi - lo)) - 1)
                assert log == ["scan"]


def test_condense_matches_row_by_row_on_both_sides_of_the_walk(monkeypatch):
    """condense gives the row-by-row OR of the matched rows' sections, dead
    rows included, gated by kind, whether it walks the rows or scans the
    columns. It counts the matched rows once, for both kinds: up to half as
    many rows as the columns it outputs are walked once, each row read
    once, and every output section is sliced from that OR; more rows have
    or_rows scan the output sections' columns."""
    scans: list[tuple] = []
    or_rows = MemoryArray.or_rows

    def or_rows_spy(self, rows, lo, hi):
        scans.append((lo, hi))
        return or_rows(self, rows, lo, hi)
    monkeypatch.setattr(MemoryArray, "or_rows", or_rows_spy)

    layout = SdrLayout(16, 8, 4)
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    zero = {"features": Bits.zeros(f), "locations": Bits.zeros(l)}
    rng = random.Random(29)
    seen = set()
    for capacity in (64, 1000):
        mem, log = _spied_memory(layout, capacity, rng)
        table = [mem.row(i) for i in range(capacity)]
        # the thresholds are 10 rows (feature + class) and 6 (location + class)
        for count in (0, 1, 5, 6, 7, 9, 10, 11, 30, capacity):
            matched = _edge_rows(rng, capacity, count)
            value = 0
            for i in rows_of(matched):
                value |= table[i]
            expected = {"features": Bits(value >> (l + c), f),
                        "locations": Bits(value >> c & ((1 << l) - 1), l),
                        "classes": Bits(value & ((1 << c) - 1), c)}
            # each kind's gated section, its output columns and the or_rows
            # calls that scan them: PREDICT_FEATURE's two sections are apart,
            # PREDICT_LOCATION's two are one range
            for kind, gated, columns, calls in (
                    (CommandKind.PREDICT_FEATURE, "locations", f + c,
                     [(l + c, layout.total), (0, c)]),
                    (CommandKind.PREDICT_LOCATION, "features", l + c, [(0, l + c)])):
                log.clear()
                scans.clear()
                out = condense(matched, kind, mem)
                assert out == PredictionOutput(**{**expected, gated: zero[gated]})
                if count * 2 <= columns:
                    # one walk, each matched row read once
                    assert _read_once(mem, log, matched) and scans == []
                    seen.add((kind, "walk"))
                else:
                    # one slice of _cols per section range, no row read
                    assert log == ["scan"] * len(calls) and scans == calls
                    seen.add((kind, "scan"))
    assert seen == {(kind, branch) for kind in (CommandKind.PREDICT_FEATURE,
                                                CommandKind.PREDICT_LOCATION)
                    for branch in ("walk", "scan")}


def test_exact_lookups_read_only_escaped_candidates():
    """A well-formed lookup, one 1 in each section it cares about (the
    STORE and DELETE, INFER, PREDICT_LOCATION and unpadded PREDICT_FEATURE
    masks), matches as the predicate does, row by row. On an array of
    one-hot rows it reads no row. On an array that mixes them with rows
    held in full, it reads only escaped candidates, the rows holding every
    cared 1-position, highest first, each one's escape bytes alone, up to
    the budget of a quarter of the cared 0-positions."""
    layout = SdrLayout(16, 8, 4)
    width = layout.total
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    ones = (1 << width) - 1
    feature_s, location_s, class_s = ones ^ ((1 << (l + c)) - 1), ((1 << l) - 1) << c, (1 << c) - 1
    dcs = (0, class_s, location_s | class_s, feature_s | class_s)
    rng = random.Random(23)
    seen = set()
    for capacity in (64, 300):
        mem, log = _spied_memory(layout, capacity, rng)
        one_hot = MemoryArray(layout, capacity)
        for _ in range(capacity):
            one_hot.micro_store(layout.triplet(rng.randrange(f), rng.randrange(l),
                                               rng.randrange(c)))
        one_hot.valid = sum(1 << i for i in rng.sample(range(capacity), capacity // 10))
        one_hot.micro_delete()
        assert one_hot._escape is None
        one_hot_log: list = []
        one_hot._rows = _RowReadLog(one_hot._rows, one_hot_log, "code",
                                    one_hot._codec.code_bytes)
        for array, reads in ((one_hot, one_hot_log), (mem, log)):
            table = [array.row(i) for i in range(capacity)]
            coded = [value for value in table if not _escaped(layout, value)]
            for _ in range(30):
                query = Bits(rng.choice(coded) if rng.random() < 0.7 else layout.triplet(
                    rng.randrange(f), rng.randrange(l), rng.randrange(c)).value, width)
                dc = Bits(rng.choice(dcs), width)
                scope = rng.choice(list(LookupScope))
                array.valid = valid = rng.getrandbits(capacity)
                scoped = array.occupied if scope is LookupScope.ALL else array.occupied & valid
                cared_ones = query.value & ~dc.value
                expected = candidates = 0
                for i, value in enumerate(table):
                    if scoped >> i & 1 and equality_match(Bits(value, width), query, dc):
                        expected |= 1 << i
                    if (scoped >> i & 1 and value & cared_ones == cared_ones
                            and _escaped(layout, value)):
                        candidates |= 1 << i
                reads.clear()
                assert array.micro_lookup(query, dc, scope) == (expected, expected != 0)
                budget = ((ones ^ dc.value) & ~query.value).bit_count() // 4
                checked = list(reversed(rows_of(candidates)))[:budget]
                assert [r for r in reads if r != "scan"] == [("escape", i) for i in checked]
                if checked:
                    seen.add("escaped read")
                    assert array is mem
    assert seen == {"escaped read"}


# --- validate ----------------------------------------------------------------------


def test_validate_unions_and_closes_over_classes():
    mem = mem333("001|010|100", "010|100|010", "100|001|001", "001|100|100")
    mem.valid = 0b0011  # row 3, class 100 elsewhere: must be re-marked
    classes = mem.micro_validate()
    assert str(classes) == "110"
    assert mem.valid == 0b1011
    # the closed-over valid set is what matched_rows reports
    assert rows_of(mem.matched_rows()) == [0, 1, 3]


def test_validate_closure_oracle():
    # union-then-closure oracle over random valid assignments
    rng = random.Random(23)
    layout = SdrLayout(3, 3, 3)
    for _ in range(100):
        mem = MemoryArray(layout, 6)
        stored = []
        for _ in range(rng.randrange(7)):
            t = concat(Bits.one_hot(3, rng.randrange(3)),
                       Bits.one_hot(3, rng.randrange(3)),
                       Bits.one_hot(3, rng.randrange(3)))
            if mem.micro_store(t) is not None:
                stored.append(t)
        mem.valid = rng.getrandbits(6)

        def klass(i):
            return split(layout, Bits(mem.row(i), 9))[2].hot_positions[0]

        union = {klass(i) for i in rows_of(mem.valid & mem.occupied)}
        classes = mem.micro_validate()
        assert set(classes.hot_positions) == union
        for i in rows_of(mem.occupied):
            assert bool(mem.valid >> i & 1) is (klass(i) in union)


def test_validate_single_class_is_one_hot():
    mem = mem333("001|010|100", "010|100|100")
    mem.micro_lookup(B("001|010|000"), B(INFER_DC))
    classes = mem.micro_validate()
    assert classes.popcount == 1
    assert str(classes) == "100"
    # closure marked the other row of the same class valid too
    assert mem.valid == 0b0011


def test_validate_builds_one_bits(monkeypatch):
    """Validate reads the class columns directly: its result is the only Bits."""
    mem = mem333("001|010|100", "010|100|010", "100|001|001")
    mem.valid = 0b0011
    built = 0
    original = Bits.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        original(self)

    monkeypatch.setattr(Bits, "__post_init__", counted)
    mem.micro_validate()
    assert built == 1


def test_validate_with_no_valid_rows():
    mem = mem333("001|010|100")
    mem.valid = 0b1110
    classes = mem.micro_validate()
    assert classes == Bits.zeros(3)
    assert not mem.valid & mem.occupied



@pytest.mark.parametrize("layout", [SdrLayout(16, 8, 4), SdrLayout(4, 4, 300)])
def test_validate_walk_reads_the_class_byte_then_escape_bytes(layout):
    """Up to class_bits valid rows, validate walks them highest first and
    reads each one once: a class field of at most 8 bits as the code's last
    byte alone, a wider one in the sliced code, and an escaped row's escape
    bytes right after. Its union and closure equal the predicates."""
    width = layout.total
    ones = (1 << width) - 1
    rng = random.Random(31)
    mem, log = _spied_memory(layout, 64, rng)
    k = mem._codec.code_bytes
    narrow = (layout.class_bits + 1).bit_length() <= 8
    seen = set()
    for count in (0, 1, 2, 3, 4):
        valid = _edge_rows(rng, 64, count)
        live = valid & mem.occupied
        mem.valid = valid
        log.clear()
        mem._rows.keys.clear()
        classes = mem.micro_validate()
        assert mem._rows.keys == [i * k + k - 1 if narrow else slice(i * k, (i + 1) * k)
                                  for i in reversed(rows_of(live))]
        # the closure then scans the class columns of the union
        assert _read_once(mem, [r for r in log if r != "scan"], live)
        seen.update(_escaped(layout, mem.row(i)) for i in rows_of(live))
        union = 0
        for c in range(layout.class_bits):
            query, dc = Bits(1 << c, width), Bits(ones ^ 1 << c, width)
            if any(membership_match(Bits(mem.row(i), width), query, dc) for i in rows_of(live)):
                union |= 1 << c
        assert classes == Bits(union, layout.class_bits)
    assert seen == {True, False}


def test_validate_of_a_class_field_wider_than_a_byte_matches_predicates():
    """At 4,4,300 the class field is 9 bits, so validate reads it from the
    sliced code. On coded and escaped rows, dead ones among them, its union
    and closure equal membership_match row by row, by the walk and by the
    column OR."""
    layout = SdrLayout(4, 4, 300)
    assert (layout.class_bits + 1).bit_length() > 8
    width = layout.total
    ones = (1 << width) - 1
    rng = random.Random(37)
    seen = set()
    for capacity in (8, 400):
        for _ in range(20):
            mem = MemoryArray(layout, capacity)
            for _ in range(capacity):
                mem.micro_store(Bits(rng.getrandbits(width), width) if rng.random() < 0.5
                                else layout.triplet(rng.randrange(4), rng.randrange(4),
                                                    rng.randrange(300)))
            mem.valid = sum(1 << i for i in rng.sample(range(capacity), capacity // 10))
            mem.micro_delete()
            valid = rng.choice(((1 << capacity) - 1,
                                rng.getrandbits(capacity) & rng.getrandbits(capacity)))
            mem.valid = valid
            live = rows_of(valid & mem.occupied)
            classes = mem.micro_validate()
            union = 0
            rows = [Bits(mem.row(i), width) for i in range(capacity)]
            for c in range(layout.class_bits):
                query, dc = Bits(1 << c, width), Bits(ones ^ 1 << c, width)
                if any(membership_match(rows[i], query, dc) for i in live):
                    union |= 1 << c
            assert classes == Bits(union, layout.class_bits)
            query, dc = Bits(union, width), Bits(ones ^ union, width)
            closed = sum(1 << i for i in rows_of(mem.occupied)
                         if membership_match(rows[i], query, dc))
            assert mem.valid == closed
            assert mem.valid_entry is (closed != 0)
            seen.add("walk" if len(live) <= layout.class_bits else "columns")
            seen.update(_escaped(layout, rows[i].value) for i in live)
    assert seen == {"walk", "columns", True, False}


# --- store / delete ---------------------------------------------------------------


def test_store_uses_lowest_empty_row():
    mem = mem333("001|010|100", "001|100|010")
    assert mem.micro_store(B("010|010|001")) == 2
    assert mem.occupancy == 3


def test_store_reports_full():
    mem = MemoryArray(SdrLayout(3, 3, 3), 2)
    assert mem.micro_store(B("001|010|100")) == 0
    assert mem.micro_store(B("001|100|010")) == 1
    assert mem.full
    image = mem.to_image()
    assert mem.micro_store(B("010|010|001")) is None
    assert mem.to_image() == image  # memory unchanged on a failed store


def test_micro_ops_reject_operands_of_the_wrong_width():
    """A lookup's query or mask, or a stored triplet, of a width other than
    the layout's raises LayoutError and leaves the array as it was."""
    mem = mem333("001|010|100")
    image = mem.to_image()
    for query, dc in ((B("0010101000"), Bits.zeros(9)), (B("001|010|100"), Bits.zeros(8))):
        with pytest.raises(LayoutError, match=r"^SDR width (10|8) != layout total 9$"):
            mem.micro_lookup(query, dc)
    with pytest.raises(LayoutError, match=r"^SDR width 8 != layout total 9$"):
        mem.micro_store(B("00101010"))
    assert mem.to_image() == image and mem.valid_entry is False


def test_store_then_exact_lookup_matches():
    mem = mem333()
    t = B("010|001|100")
    mem.micro_store(t)
    _, hit = mem.micro_lookup(t, Bits.zeros(9), LookupScope.ALL)
    assert hit


def test_delete_clears_matched_rows():
    mem = mem333("001|010|100", "001|100|010")
    mem.micro_lookup(B("001|100|010"), Bits.zeros(9), LookupScope.ALL)
    assert mem.micro_delete().bit_count() == 1
    assert not mem.occupied >> 1 & 1
    assert mem.occupancy == 1
    _, hit = mem.micro_lookup(B("001|100|010"), Bits.zeros(9), LookupScope.ALL)
    assert not hit  # delete-then-exact-lookup never matches


def test_store_delete_round_trip_restores_occupancy():
    mem = mem333("001|010|100")
    before = mem.occupancy
    t = B("100|100|001")
    mem.micro_store(t)
    mem.micro_lookup(t, Bits.zeros(9), LookupScope.ALL)
    mem.micro_delete()
    assert mem.occupancy == before


def test_delete_clears_full_flag():
    mem = MemoryArray(SdrLayout(3, 3, 3), 2)
    mem.micro_store(B("001|010|100"))
    mem.micro_store(B("001|100|010"))
    assert mem.full
    mem.micro_lookup(B("001|010|100"), Bits.zeros(9), LookupScope.ALL)
    mem.micro_delete()
    assert not mem.full


def test_occupancy_accounting_over_random_ops():
    rng = random.Random(42)
    layout = SdrLayout(3, 3, 3)
    mem = MemoryArray(layout, 4)
    live = 0

    def lookup(query, dc, scope=LookupScope.VALID_ONLY):
        # the valid bits are the match result: nothing else records it
        match, hit = mem.micro_lookup(query, dc, scope)
        assert match == mem.valid
        assert hit is (match != 0)
        return match

    for _ in range(300):
        op = rng.choice(("store", "delete", "clear", "lookup", "reset"))
        t = concat(Bits.one_hot(3, rng.randrange(3)),
                   Bits.one_hot(3, rng.randrange(3)),
                   Bits.one_hot(3, rng.randrange(3)))
        if op == "store":
            lookup(t, Bits.zeros(9), LookupScope.ALL)
            if not mem.valid_entry:
                if mem.micro_store(t) is not None:
                    live += 1
            mem.micro_reset()
        elif op == "delete":
            match = lookup(t, Bits.zeros(9), LookupScope.ALL)
            if mem.valid_entry:
                occupied = mem.occupied
                live -= mem.micro_delete().bit_count()
                # exactly the matched rows were released
                assert occupied & ~mem.occupied == match
            mem.micro_reset()
        elif op == "clear":
            mem.micro_clear()
            live = 0
        elif op == "lookup":
            lookup(t, Bits(rng.getrandbits(9), 9))
        else:
            mem.micro_reset()
        assert mem.occupancy == live == len(rows_of(mem.occupied))


# --- outputs and images --------------------------------------------------------------


def test_read_outputs_after_lookup():
    mem = mem333("001|010|100", "001|100|010")
    mem.micro_lookup(B("001|010|000"), B(INFER_DC))
    assert [str(Bits(mem.row(i), 9)) for i in rows_of(mem.matched_rows())] == ["001010100"]
    assert mem.valid_entry
    assert not mem.full


def test_read_outputs_after_clear():
    mem = mem333("001|010|100")
    mem.micro_clear()
    assert mem.matched_rows() == 0
    assert not mem.valid_entry
    assert not mem.full


def test_full_after_filling_every_row():
    mem = MemoryArray(SdrLayout(3, 3, 3), 3)
    for t in ("001|010|100", "001|100|010", "010|001|001"):
        mem.micro_store(B(t))
    assert mem.full


def test_image_round_trip_is_bit_exact():
    mem = mem333("001|010|100", "001|100|010")
    mem.valid = 0b1110
    # a deleted row keeps its dead contents in the image
    mem.micro_lookup(B("001|100|010"), Bits.zeros(9), LookupScope.ALL)
    mem.micro_delete()
    image = mem.to_image()
    restored = MemoryArray.from_image(image, SdrLayout(3, 3, 3))
    assert restored.to_image() == image
    assert restored.capacity == 4
    assert restored.occupancy == 1
    assert ([restored.row(i) for i in range(4)], restored.valid, restored.occupied) == \
        ([mem.row(i) for i in range(4)], mem.valid, mem.occupied)
    assert restored._cols == mem._cols  # the transpose rebuilt every column


def test_image_format_shape():
    mem = mem333("001|010|100")
    lines = mem.to_image().splitlines()
    assert lines[0] == "0 001|010|100 1 0"
    assert lines[1] == "1 000|000|000 1 1"


def test_image_parse_errors():
    layout = SdrLayout(3, 3, 3)
    with pytest.raises(ValueError, match="4 fields"):
        MemoryArray.from_image("0 001|010|100 1\n", layout)
    with pytest.raises(ValueError, match="out of order"):
        MemoryArray.from_image("1 001|010|100 1 0\n", layout)
    with pytest.raises(ValueError, match="no rows"):
        MemoryArray.from_image("", layout)
    with pytest.raises(ValueError, match="image line 2: index 'x' is not an integer"):
        MemoryArray.from_image("0 001|010|100 1 0\nx 001|010|100 1 0\n", layout)
    with pytest.raises(LayoutError, match="image line 1: invalid bit characters"):
        MemoryArray.from_image("0 001|0x0|100 1 0\n", layout)
    with pytest.raises(LayoutError, match="image line 2: expected 9 bits, got 8"):
        MemoryArray.from_image("0 001|010|100 1 0\n1 001|010|10 1 0\n", layout)
    # non-empty rows must keep the device invariants
    with pytest.raises(ValueError, match="image line 1: location section is not one-hot"):
        MemoryArray.from_image("0 001|011|100 1 0\n", layout)
    with pytest.raises(ValueError, match="image line 2: class section is not one-hot"):
        MemoryArray.from_image("0 001|010|100 1 0\n1 001|010|110 1 0\n", layout)
    with pytest.raises(ValueError, match="image line 1: class section is not one-hot"):
        MemoryArray.from_image("0 001|010|000 1 0\n", layout)
    with pytest.raises(ValueError, match="image line 1: feature section is zero"):
        MemoryArray.from_image("0 000|010|100 1 0\n", layout)
    with pytest.raises(ValueError, match="image line 3: triplet duplicates image line 1"):
        MemoryArray.from_image("0 001|010|100 1 0\n1 010|010|100 1 0\n"
                               "2 001|010|100 1 0\n", layout)
    with pytest.raises(ValueError, match="image line 2: valid bit 0 differs from "
                                         "image line 1 of the same class"):
        MemoryArray.from_image("0 001|010|100 1 0\n1 010|100|100 0 0\n", layout)


@pytest.mark.parametrize("layout,bits", [
    (SdrLayout(3, 3, 3), "0010|10|100"),
    (SdrLayout(3, 3, 3), "001010100"),
    (SdrLayout(3, 3, 3), "|||001010100"),
    (SdrLayout(3, 3, 3), "001||010100"),
    (SdrLayout(3, 3, 3), "001|010|100|"),
    (SdrLayout(4, 3, 2), "0001|00|100"),
])
def test_image_requires_the_section_separators_it_writes(layout, bits):
    """Separators missing, repeated or out of place are not dropped: the row
    would load as if written f|l|c. Dead rows are held to the form too."""
    widths = f"{layout.feature_bits}|{layout.location_bits}|{layout.class_bits}"
    good = layout.pretty(layout.triplet(0, 0, 0))
    for e in "01":
        with pytest.raises(LayoutError, match=re.escape(
                f"image line 2: expected sections of {widths} bits, got {bits!r}")):
            MemoryArray.from_image(f"0 {good} 1 0\n1 {bits} 1 {e}\n", layout)


def _random_image(rng, layout, capacity):
    """Image text of a reachable state, built here and not by to_image: live
    rows hold distinct triplets with k-hot features and one V bit per class;
    dead rows hold any bits but a column left zero, and the top tenth of the
    rows is dead and zero. Also returns each row's value, V and E."""
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    total = layout.total
    zero_column = 1 << rng.randrange(total)
    class_v = [rng.choice("01") for _ in range(c)]
    seen: set[int] = set()
    lines, rows = [], []
    for i in range(capacity):
        if i >= capacity - capacity // 10:
            value, v, e = 0, rng.choice("01"), "1"
        elif rng.random() < 0.3:
            value, v, e = rng.getrandbits(total) & ~zero_column, rng.choice("01"), "1"
        else:
            value = 0
            while not value or value in seen or value & zero_column:
                feature = sum(1 << k for k in rng.sample(range(f), rng.randint(1, min(4, f))))
                class_ = rng.randrange(c)
                value = feature << (l + c) | 1 << (c + rng.randrange(l)) | 1 << class_
            seen.add(value)
            v, e = class_v[class_], "0"
        bits = format(value, f"0{total}b")
        lines.append(f"{i} {bits[:f]}|{bits[f:f + l]}|{bits[f + l:]} {v} {e}")
        rows.append((value, v, e))
    return "\n".join(lines) + "\n", rows


# characters a random edit writes: bits, separators, whitespace that splits a
# line (tab) or ends one (\n, \r, \x0b, \x0c), and characters no field allows
_EDIT_CHARS = "0011||  \t\n\r\x0b\x0c2x_+\u0661"


def _edit(rng, text):
    """text with one random edit: a character replaced, inserted or deleted,
    a line duplicated or blank lines inserted, a V or E flipped, a space
    widened, a leading zero on an index, or one line's triplet copied into
    another."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    kind = rng.randrange(9)
    if kind < 3:
        at = rng.randrange(len(text))
        char = rng.choice(_EDIT_CHARS)
        return text[:at] + (char, char + text[at], "")[kind] + text[at + 1:]
    if kind == 3:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == 4:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", " ", "\t \t")))
    elif kind == 5:
        fields = lines[i].split(" ")
        k = rng.choice((2, 3))
        if k < len(fields):
            fields[k] = {"0": "1", "1": "0"}.get(fields[k], fields[k])
        lines[i] = " ".join(fields)
    elif kind == 6:
        lines[i] = lines[i].replace(" ", rng.choice(("  ", "\t", " \t ")), rng.randint(1, 3))
    elif kind == 7:
        lines[i] = "0" + lines[i]
    else:
        fields = lines[i].split(" ")
        fields[1:2] = rng.choice(lines).split(" ")[1:2]
        lines[i] = " ".join(fields)
    return "\n".join(lines) + rng.choice(("\n", "", "\r\n"))


def _load_or_error(load, text, layout, *flags):
    """The loaded array's state, or the type and message of what load raised."""
    try:
        mem = load(text, layout, *flags)
    except ValueError as exc:
        return type(exc), str(exc)
    rows = [mem.row(i) for i in range(mem.capacity)]
    return rows, mem._cols, mem.valid, mem.occupied, mem.capacity


@pytest.mark.parametrize("layout", [SdrLayout(3, 3, 3), SdrLayout(4, 2, 2),
                                    SdrLayout(8, 4, 4), SdrLayout(128, 25, 10)],
                         ids=lambda layout: f"{layout.total}bits")
def test_image_load_matches_the_line_by_line_reference(layout):
    """from_image, which checks and loads every line at once, agrees with
    the reference that reads one line at a time: on valid images and on
    images with up to three random edits, both load equal arrays, or both
    raise the same exception with the same message, whether the device
    takes k-hot features or not."""
    rng = random.Random(layout.total)
    accepted = rejected = edited_and_accepted = one_hot_accepted = khot_refused = 0
    for _ in range(400):
        text, _ = _random_image(rng, layout, rng.randint(1, 12))
        edits = rng.choice((0, 1, 1, 2, 3))
        for _ in range(edits):
            text = _edit(rng, text)
        expected = _load_or_error(load_image, text, layout, True)
        assert _load_or_error(MemoryArray.from_image, text, layout, True) == expected, text
        one_hot = _load_or_error(load_image, text, layout, False)
        assert _load_or_error(MemoryArray.from_image, text, layout, False) == one_hot, text
        one_hot_accepted += isinstance(one_hot[0], list)
        khot_refused += str(one_hot[-1]).endswith(": feature section is not one-hot")
        if isinstance(expected[0], list):
            accepted += 1
            edited_and_accepted += edits > 0
        else:
            rejected += 1
    assert accepted >= 100 and rejected >= 100 and edited_and_accepted >= 50
    # a one-hot device loads some images and refuses many for a k-hot row
    assert one_hot_accepted >= 10 and khot_refused >= 100


def test_image_index_longer_than_int_reads_is_out_of_order():
    """An index may carry leading zeros, up to 4,300 digits in all: int()'s
    default limit on decimal text. A longer one is out of order, with its
    image line, and not the interpreter's digit-limit error."""
    layout = SdrLayout(3, 3, 3)
    for zeros in (2, 4300):
        mem = MemoryArray.from_image(f"{'0' * zeros} 001|010|100 1 0\n"
                                     f"{'0' * (zeros - 1)}1 001|100|100 1 0\n", layout)
        assert (mem.capacity, mem.occupancy) == (2, 2)
    for text, line in ((f"{'0' * 4301} 001|010|100 1 0\n", 1),
                       (f"0 001|010|100 1 0\n\n{'0' * 5000}1 001|100|100 1 0\n", 3)):
        index = text.splitlines()[line - 1].split()[0]
        with pytest.raises(ValueError, match=f"^image line {line}: index {index} out of order$"):
            MemoryArray.from_image(text, layout)


def test_image_round_trip_over_many_digits():
    """from_image over hundreds of rows (row bitmaps of many 30-bit digits,
    row values of two) equals a row-by-row reference load, and to_image
    writes the image back byte for byte."""
    layout = SdrLayout(40, 9, 5)
    rng = random.Random(16)
    for capacity in (300, 1000):
        text, rows = _random_image(rng, layout, capacity)
        mem = MemoryArray.from_image(text, layout)
        assert [mem.row(i) for i in range(capacity)] == [value for value, _, _ in rows]
        assert mem.valid == sum(1 << i for i, (_, v, _) in enumerate(rows) if v == "1")
        assert mem.occupied == sum(1 << i for i, (_, _, e) in enumerate(rows) if e == "0")
        assert mem._cols == [sum((value >> k & 1) << i for i, (value, _, _) in enumerate(rows))
                             for k in range(layout.total)]
        assert 0 in mem._cols  # a column no row holds a 1 in
        assert mem.to_image() == text


@pytest.mark.parametrize("layout", [SdrLayout(3, 2, 2), SdrLayout(4, 2, 2), SdrLayout(3, 3, 3),
                                    SdrLayout(8, 4, 4), SdrLayout(9, 4, 4),
                                    SdrLayout(128, 25, 10)],
                         ids=lambda layout: f"{layout.total}bits")
def test_row_store_is_exact_at_byte_boundaries(layout):
    """Rows of 7, 8, 9, 16, 17 and 163 bits, packed into whole bytes: rows
    of arbitrary bits are stored, a tenth deleted, and new values stored
    over those dead rows. Every row reads back within the layout's width,
    the columns are the rows' transpose (no pad bit of a row's first byte
    reaches one), and an image round trip restores every row."""
    width = layout.total
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    rng = random.Random(width)
    capacity = 40
    mem = MemoryArray(layout, capacity)
    for _ in range(capacity):
        mem.micro_store(Bits(rng.getrandbits(width), width))
    dead = sorted(rng.sample(range(capacity), capacity // 10))
    mem.valid = sum(1 << i for i in dead)
    mem.micro_delete()
    # distinct well-formed triplets, so that an image can hold them live
    fresh: list[int] = []
    for i in dead:
        value = 0
        while not value or value in fresh:
            value = ((rng.getrandbits(f) or 1) << (l + c) | 1 << (c + rng.randrange(l))
                     | 1 << rng.randrange(c))
        fresh.append(value)
        assert mem.micro_store(Bits(value, width)) == i
    rows = [mem.row(i) for i in range(capacity)]
    assert all(row >> width == 0 for row in rows)
    assert [rows[i] for i in dead] == fresh
    assert mem._cols == [sum((row >> k & 1) << i for i, row in enumerate(rows))
                         for k in range(width)]
    for i in (-1, capacity):
        with pytest.raises(IndexError):
            mem.row(i)
    # live image rows must keep the device invariants: release the rows of
    # arbitrary bits, which the image still holds as dead rows
    mem.valid = mem.occupied ^ sum(1 << i for i in dead)
    mem.micro_delete()
    image = mem.to_image()
    loaded = MemoryArray.from_image(image, layout)
    assert loaded.to_image() == image
    assert [loaded.row(i) for i in range(capacity)] == rows
    assert (loaded._cols, loaded.valid, loaded.occupied) == (mem._cols, mem.valid, mem.occupied)


def _check_rows(mem, values, rng):
    """Every row reads back as values holds it, the columns are the rows'
    transpose, and lookups match equality_match row by row."""
    capacity, width = mem.capacity, mem.layout.total
    assert [mem.row(i) for i in range(capacity)] == values
    assert mem._cols == [sum((value >> k & 1) << i for i, value in enumerate(values))
                         for k in range(width)]
    occupied, valid = mem.occupied, mem.valid
    for _ in range(100):
        query = Bits(rng.choice(values) if rng.random() < 0.8 else rng.getrandbits(width), width)
        dc = Bits(rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width), width)
        scope = rng.choice((LookupScope.ALL, LookupScope.VALID_ONLY))
        mem.valid = rng.getrandbits(capacity)
        scoped = occupied if scope is LookupScope.ALL else occupied & mem.valid
        expected = sum(1 << i for i, value in enumerate(values)
                       if scoped >> i & 1 and equality_match(Bits(value, width), query, dc))
        assert mem.micro_lookup(query, dc, scope) == (expected, expected != 0)
    mem.valid = valid


@pytest.mark.parametrize("layout", [SdrLayout(3, 7, 1), SdrLayout(8, 4, 4),
                                    SdrLayout(128, 25, 10)],
                         ids=lambda layout: f"{layout.total}bits")
def test_rows_read_back_through_their_codes(layout):
    """Rows with a zero section, one-hot rows and rows with two or more 1s
    in a section (held in full in the escape buffer, allocated with the
    first of them) read back exactly, live or dead: stored, deleted and
    stored over with the other kind in both directions, and through an
    image round trip that loads as the line-by-line reference does."""
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    width = layout.total
    rng = random.Random(width)
    capacity = 48

    def draw(escaped):
        while True:
            hot = [rng.sample(range(size), min(size, rng.choice((0, 1, 1, 1, 2, 5))))
                   for size in (f, l, c)]
            value = sum(1 << (p + (l + c, c, 0)[s]) for s in range(3) for p in hot[s])
            if _escaped(layout, value) == escaped:
                return value

    mem = MemoryArray(layout, capacity)
    values = [draw(False) for _ in range(4)] + [draw(i % 3 == 0) for i in range(capacity - 4)]
    for i, value in enumerate(values):
        assert mem.micro_store(Bits(value, width)) == i
        assert (mem._escape is None) == (i < 4)
    _check_rows(mem, values, rng)
    # a third of the rows released keep their values, and each is stored
    # over with a row of the other kind
    dead = sorted(rng.sample(range(capacity), capacity // 3))
    mem.valid = sum(1 << i for i in dead)
    mem.micro_delete()
    _check_rows(mem, values, rng)
    was_escaped = [_escaped(layout, values[i]) for i in dead]
    assert True in was_escaped and False in was_escaped
    for i, escaped in zip(dead, was_escaped):
        values[i] = draw(not escaped)
        assert mem.micro_store(Bits(values[i], width)) == i
    _check_rows(mem, values, rng)
    kinds = {"escaped" if _escaped(layout, value) else
             "one-hot" if all(s.popcount for s in split(layout, Bits(value, width))) else
             "zero section" for value in values}
    assert kinds == {"zero section", "escaped", "one-hot"}
    # an image holds live only the rows a device may hold; the rest stay dead
    seen = set()
    for i, value in enumerate(values):
        feature, location, class_ = split(layout, Bits(value, width))
        if feature.popcount and location.popcount == class_.popcount == 1 and value not in seen:
            seen.add(value)
        else:
            mem.valid = 1 << i
            mem.micro_delete()
    mem.micro_reset()
    assert 5 <= mem.occupancy < capacity
    image = mem.to_image()
    loaded = MemoryArray.from_image(image, layout)
    assert loaded._escape is not None
    _check_rows(loaded, values, rng)
    assert (loaded.valid, loaded.occupied) == (mem.valid, mem.occupied)
    assert loaded.to_image() == image
    reference = load_image(image, layout)
    assert [reference.row(i) for i in range(capacity)] == values
    assert (reference._cols, reference.valid, reference.occupied) == \
        (loaded._cols, loaded.valid, loaded.occupied)
    # a clear drops the escape buffer with every row
    loaded.micro_clear()
    assert loaded._escape is None and loaded.to_image() == MemoryArray(layout, capacity).to_image()


def _codes_escaped(mem):
    """Row bitmap of the rows whose code is the escape code."""
    k, escape = mem._codec.code_bytes, mem._codec.escape
    return sum(1 << i for i in range(mem.capacity)
               if int.from_bytes(mem._rows[i * k:(i + 1) * k], "big") == escape)


def test_escaped_rows_follow_their_codes():
    """MemoryArray._escaped, the rows a lookup checks one by one, is the
    row bitmap of the rows whose code is the escape code, dead rows too:
    after a store of either kind of row over the other, a delete, a clear
    and an image load, and over a random run of them."""
    layout = SdrLayout(3, 3, 3)
    mem = MemoryArray(layout, 4)

    def store(text):
        return mem.micro_store(Bits.parse(text))

    def delete(i):
        mem.valid = 1 << i
        mem.micro_delete()

    assert mem._escaped == _codes_escaped(mem) == 0
    assert (store("011|010|100"), store("001|010|100")) == (0, 1)
    assert mem._escaped == _codes_escaped(mem) == 0b01
    delete(0)  # a dead row keeps its code
    assert mem._escaped == _codes_escaped(mem) == 0b01
    assert store("100|001|001") == 0  # coded over escaped
    assert mem._escaped == _codes_escaped(mem) == 0
    delete(1)
    assert store("110|100|010") == 1  # escaped over coded
    assert mem._escaped == _codes_escaped(mem) == 0b10
    assert store("110|100|001") == 2
    mem.micro_reset()
    loaded = MemoryArray.from_image(mem.to_image(), layout)
    assert loaded._escaped == _codes_escaped(loaded) == mem._escaped == 0b110
    mem.micro_clear()
    assert mem._escaped == _codes_escaped(mem) == 0

    # a random run over a wider layout: k-hot features and one-hot rows,
    # stored over dead rows of either kind, released, cleared and reloaded
    layout = SdrLayout(8, 4, 4)
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    rng = random.Random(31)
    mem = MemoryArray(layout, 16)
    kinds = set()
    for _ in range(600):
        roll = rng.random()
        if roll < 0.6:
            feature = Bits(rng.randrange(1, 1 << f), f) if rng.random() < 0.4 else rng.randrange(f)
            value = layout.triplet(feature, rng.randrange(l), rng.randrange(c))
            live = {mem.row(i) for i in rows_of(mem.occupied)}
            if value.value not in live and mem.micro_store(value) is not None:
                kinds.add(_escaped(layout, value.value))
        elif roll < 0.9:
            mem.valid = rng.getrandbits(mem.capacity)
            mem.micro_delete()
        elif roll < 0.97:
            mem.micro_reset()
            mem = MemoryArray.from_image(mem.to_image(), layout)
        else:
            mem.micro_clear()
        assert mem._escaped == _codes_escaped(mem)
        assert mem._escaped == sum(_escaped(layout, mem.row(i)) << i
                                   for i in range(mem.capacity))
    assert kinds == {True, False}


def test_full_scale_array_holds_no_object_per_row():
    """A 16,384-row array at the full-scale layout, loaded from an image of
    16,000 live rows with k-hot features, holds at most 0.80 MB: 21 bytes a
    row in the escape buffer, a 3-byte code a row, and 163 column bitmaps
    of 2 KB each. An int object per row would add about 0.5 MB more."""
    layout = SdrLayout(128, 25, 10)
    capacity, live = 16384, 16000
    pretty = layout.pretty_value
    rng = random.Random(163)
    # random features made distinct by their low bits, so that every column
    # is dense; one-hot locations and classes, one V bit for all
    values = [(rng.getrandbits(114) << 14 | i + 1) << 35 | 1 << (10 + i % 25) | 1 << i % 10
              for i in range(live)]
    lines = [f"{i} {pretty(value)} 1 0" for i, value in enumerate(values)]
    lines += [f"{i} {pretty(0)} 1 1" for i in range(live, capacity)]
    text = "\n".join(lines) + "\n"
    gc.collect()
    tracemalloc.start()
    try:
        mem = MemoryArray.from_image(text, layout)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (mem.capacity, mem.occupancy) == (capacity, live)
    assert held <= 0.80e6, f"{held / 1e6:.3f} MB"


def test_full_scale_one_hot_array_holds_a_code_per_row():
    """A 16,384-row array at the full-scale layout, loaded from an image of
    16,000 distinct one-hot rows, holds at most 0.45 MB: a 3-byte code a
    row, no escape buffer, and 163 column bitmaps of 2 KB each."""
    layout = SdrLayout(128, 25, 10)
    capacity, live = 16384, 16000
    pretty = layout.pretty_value
    # every feature, location and class 0 to 4 once together
    values = [layout.triplet(i % 128, i // 128 % 25, i // 3200).value for i in range(live)]
    lines = [f"{i} {pretty(value)} 1 0" for i, value in enumerate(values)]
    lines += [f"{i} {pretty(0)} 1 1" for i in range(live, capacity)]
    text = "\n".join(lines) + "\n"
    gc.collect()
    tracemalloc.start()
    try:
        mem = MemoryArray.from_image(text, layout)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (mem.capacity, mem.occupancy, mem._escape) == (capacity, live, None)
    assert [mem.row(i) for i in range(0, live, 997)] == values[::997]
    assert held <= 0.45e6, f"{held / 1e6:.3f} MB"


def test_image_checks_only_non_empty_rows():
    layout = SdrLayout(3, 3, 3)
    # a k-hot feature is allowed; empty rows are dead and may hold anything
    mem = MemoryArray.from_image("0 011|010|100 1 0\n1 010|100|010 0 0\n"
                                 "2 011|010|100 0 1\n3 000|011|110 1 1\n", layout)
    assert (mem.occupancy, mem.valid) == (2, 0b1001)
