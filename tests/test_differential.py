"""Lockstep device-vs-oracle runs over seeded fuzz streams and fault injection,
and the comparator they share, field by field."""

import random
from dataclasses import replace

import pytest

from nertcam import (AbstractResponse, Bits, MemoryArray, NertcamConfig, Outcome,
                     PaddingMode, PredictionOutput, Response, SdrLayout, System)
from nertcam.lockstep import diff_records, mismatches, oracle_for, valid_bits_mirror
from nertcam.traces import TraceRecord
from nertcam.workload import fuzz_records


def run_diff(config, records):
    return diff_records(System(config), oracle_for(config), records)


def test_fuzz_small_layout_no_divergence():
    config = NertcamConfig(layout=SdrLayout(4, 4, 4), capacity=16)
    records = fuzz_records(config.layout, 10_000, seed=1234)
    assert run_diff(config, records) is None


def test_fuzz_medium_layout_no_divergence():
    config = NertcamConfig(layout=SdrLayout(8, 8, 8), capacity=64)
    records = fuzz_records(config.layout, 1_000, seed=99)
    assert run_diff(config, records) is None


def test_fuzz_with_linear_padding():
    config = NertcamConfig(layout=SdrLayout(4, 8, 4), capacity=24)
    records = fuzz_records(config.layout, 3_000, seed=7, max_padding=3)
    assert run_diff(config, records) is None


def test_fuzz_with_grid_padding():
    config = NertcamConfig(layout=SdrLayout(4, 9, 4), capacity=24,
                           padding_mode=PaddingMode.grid(3, 3))
    records = fuzz_records(config.layout, 3_000, seed=21, max_padding=2)
    assert run_diff(config, records) is None


def test_fuzz_with_khot_features():
    config = NertcamConfig(layout=SdrLayout(4, 4, 4), capacity=16,
                           khot_features=True)
    records = fuzz_records(config.layout, 3_000, seed=5, khot_features=True)
    assert run_diff(config, records) is None


def test_mixed_one_hot_and_khot_rows_no_divergence(monkeypatch):
    """A k-hot device at 16,25,8 with 256 rows takes one stream that
    interleaves one-hot and k-hot fuzz records, less their CLEARs, so that
    it fills with coded rows and rows held in full together. No record
    diverges, and hundreds of lookups match both kinds of row at once."""
    lookup = MemoryArray.micro_lookup
    mixed = 0

    def spy(self, *args):
        nonlocal mixed
        match, hit = lookup(self, *args)
        mixed += bool(match & self._escaped) and bool(match & ~self._escaped)
        return match, hit
    monkeypatch.setattr(MemoryArray, "micro_lookup", spy)

    config = NertcamConfig(layout=SdrLayout(16, 25, 8), capacity=256, khot_features=True)
    one_hot = fuzz_records(config.layout, 3_000, seed=99)
    khot = fuzz_records(config.layout, 3_000, seed=99, khot_features=True)
    records = [r for pair in zip(one_hot, khot) for r in pair if r.op != "CLEAR"]
    system = System(config)
    assert diff_records(system, oracle_for(config), records) is None
    memory = system.memory
    assert memory.full
    assert memory.occupied & memory._escaped and memory.occupied & ~memory._escaped
    assert mixed >= 100


def test_fuzz_is_seed_deterministic():
    layout = SdrLayout(4, 4, 4)
    assert fuzz_records(layout, 200, seed=3) == fuzz_records(layout, 200, seed=3)
    assert fuzz_records(layout, 200, seed=3) != fuzz_records(layout, 200, seed=4)


def test_corrupted_memory_diverges_at_first_affected_record():
    config = NertcamConfig(layout=SdrLayout(4, 4, 4), capacity=8)
    system = System(config)
    oracle = oracle_for(config)
    stores = [TraceRecord(op="STORE", feature=f, location=l, class_=c)
              for f, l, c in [(0, 0, 0), (1, 1, 1), (2, 2, 2)]]
    assert diff_records(system, oracle, stores) is None

    # flip the stored feature bit of row 1 behind the device's back
    image = system.save_image().splitlines()
    assert image[1].startswith("1 0100|0100|0100")
    image[1] = image[1].replace("0100|0100|0100", "0010|0100|0100")
    system.load_image("\n".join(image) + "\n")

    probes = [
        TraceRecord(op="INFER", feature=0, location=0),  # row 0 intact: agrees
        TraceRecord(op="RESET"),
        TraceRecord(op="INFER", feature=1, location=1),  # touches the corrupt row
        TraceRecord(op="INFER", feature=2, location=2),
    ]
    div = diff_records(system, oracle, probes)
    assert div is not None
    assert div.seq == 2
    assert "outcome" in div.fields


# --- the comparator, field by field ------------------------------------------------

def _valid_rows_by_row_walk(memory, classes):
    """Reference for valid_bits_mirror: the occupied rows that should be
    valid, found by walking every occupied row and testing its class
    section against the classes."""
    wanted = Bits.from_positions(memory.layout.class_bits, classes).value
    expected = 0
    occupied = memory.occupied
    while occupied:
        row = occupied & -occupied
        if memory.row(row.bit_length() - 1) & wanted:
            expected |= row
        occupied ^= row
    return expected


def test_valid_bits_mirror_matches_row_walk():
    """On rows with arbitrary bits (no, one or several class bits set),
    random valid and occupied bitmaps and random class sets, the column form
    gives the row walk's answer, both when the bits mirror and when not."""
    rng = random.Random(17)
    answers = {True: 0, False: 0}
    for layout in (SdrLayout(4, 4, 4), SdrLayout(8, 9, 10)):
        width, c = layout.total, layout.class_bits
        for capacity in (1, 7, 64, 300):  # above 30 rows a bitmap has several digits
            for _ in range(30):
                mem = MemoryArray(layout, capacity)
                for _ in range(capacity):
                    high = rng.getrandbits(width - c) << c
                    class_bits = rng.choice((0, 1 << rng.randrange(c), rng.getrandbits(c)))
                    mem.micro_store(Bits(high | class_bits, width))
                mem.occupied = rng.getrandbits(capacity)  # freed rows keep their bits
                classes = rng.sample(range(c), rng.randrange(c + 1))
                expected = _valid_rows_by_row_walk(mem, classes)
                for valid in (rng.getrandbits(capacity),
                              expected | rng.getrandbits(capacity) & ~mem.occupied,
                              expected ^ (mem.occupied & -mem.occupied)):
                    mem.valid = valid
                    want = valid & mem.occupied == expected
                    assert valid_bits_mirror(mem, classes) is want
                    answers[want] += 1
    assert answers[True] > 100 and answers[False] > 100


def _agreeing_pair():
    """A hand-built device Response and the oracle answer that matches it."""
    resp = Response(Outcome.SUCCESS, False,
                    PredictionOutput(Bits.from_positions(4, [1, 2]),
                                     Bits.from_positions(4, [3]),
                                     Bits.from_positions(4, [0])), cycles=3)
    expected = AbstractResponse(Outcome.SUCCESS, frozenset({0}), frozenset({1, 2}),
                                frozenset({3}), False, 3)
    return resp, expected


@pytest.mark.parametrize("name, value", [
    ("outcome", Outcome.CONTEXT_SWITCH),
    ("classes", frozenset({0, 1})),
    ("features", frozenset({1})),
    ("locations", frozenset()),
    ("full", True),
    ("cycles", 2),
])
def test_mismatches_names_the_one_differing_field(name, value):
    config = NertcamConfig(layout=SdrLayout(4, 4, 4), capacity=8)
    system, oracle = System(config), oracle_for(config)
    resp, expected = _agreeing_pair()
    assert mismatches(system, oracle, resp, expected) == []
    assert mismatches(system, oracle, resp, replace(expected, **{name: value})) == [name]


def test_corrupted_valid_bits_diverge_on_valid_bits_alone():
    config = NertcamConfig(layout=SdrLayout(4, 4, 4), capacity=8)
    system = System(config)
    oracle = oracle_for(config)
    setup = [TraceRecord(op="STORE", feature=f, location=l, class_=c)
             for f, l, c in [(0, 0, 0), (1, 1, 1), (2, 2, 2)]]
    setup.append(TraceRecord(op="INFER", feature=1, location=1))
    assert diff_records(system, oracle, setup) is None
    assert oracle.valid == {1}

    # mark row 0, of class 0, valid behind the device's back
    system.memory.valid |= 1
    # a prediction for a feature no row holds matches nothing on either
    # side, and leaves the valid bits as it found them
    div = diff_records(system, oracle, [TraceRecord(op="PREDICT_LOCATION", feature=3)])
    assert div is not None
    assert div.seq == 0
    assert div.fields == ("valid_bits",)
