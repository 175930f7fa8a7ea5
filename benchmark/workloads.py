"""The benchmark's workloads: device configuration, preload and command stream.

Every input comes from the seed: the same seed gives the same dataset, the
same memory image and the same command stream. Streams are endless
generators of trace records; the harness decides how many to take.

identify    16,000 preloaded triplets; objects sensed one feature at a time,
            with a padded PREDICT_FEATURE per object. Read path: lookup,
            validate, condense.
learn       the same device held full; deletes, stores and failing stores.
            Write path: lookup over all rows, store, delete, reset.
fuzz_small  a 64-row device fed the seeded fuzz stream of all seven command
            kinds. Rows are few, so per-command overhead dominates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Iterator

from nertcam import Bits, NertcamConfig, PaddingMode, SdrLayout, System, concat
from nertcam.cli import fuzz_records, generate_dataset, store_trace
from nertcam.traces import TraceRecord

Triplet = tuple[int, int, int]

BIG_LAYOUT = SdrLayout(feature_bits=128, location_bits=25, class_bits=10)
GRID = (5, 5)
BIG_CAPACITY = 16_384
CLASSES = 10
SAMPLES = 64  # 10 classes x 64 samples x 25 locations = 16,000 triplets
# One feature is kept out of the dataset, so an INFER that senses it is
# unknown everywhere and ends as INFER_FAILED.
FEATURE_POOL = BIG_LAYOUT.feature_bits - 1
UNKNOWN_FEATURE = BIG_LAYOUT.feature_bits - 1

SENSATIONS_PER_OBJECT = 12  # identification takes 4 to 5 at this size
P_NO_RESET = 0.05           # object starts without a RESET: CONTEXT_SWITCH
P_UNKNOWN = 0.01            # sensation of an unknown pair: INFER_FAILED
PREDICT_PADDING = 1

SMALL_LAYOUT = SdrLayout(feature_bits=16, location_bits=25, class_bits=8)
SMALL_CAPACITY = 64
FUZZ_CHUNK = 10_000
FUZZ_MAX_PADDING = 2


@dataclass
class Inputs:
    """What set-up produces before the device is built."""

    image: str | None
    preload: list[Triplet] = field(default_factory=list)
    maps: dict[tuple[int, int], dict[int, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    config: NertcamConfig
    # sim statistics are taken over this many leading commands, so they
    # repeat exactly for a seed however long the run
    sim_prefix: int
    make_inputs: Callable[[int], Inputs]
    make_stream: Callable[[int, Inputs], Iterator[TraceRecord]]


def build_device(config: NertcamConfig, inputs: Inputs) -> System:
    """Construct the device and preload its memory image, if any."""
    system = System(config)
    if inputs.image is not None:
        system.load_image(inputs.image)
    return system


def preload_records(inputs: Inputs) -> list[TraceRecord]:
    """The preloaded triplets as STOREs, for stepping the oracle to the same state."""
    return [TraceRecord(op="STORE", feature=f, location=l, class_=c)
            for f, l, c in inputs.preload]


def memory_image(layout: SdrLayout, capacity: int, triplets: list[Triplet]) -> str:
    """Memory image text: the triplets in rows 0.., the remaining rows empty."""
    lines = []
    for i, (f, l, c) in enumerate(triplets):
        sdr = concat(Bits.one_hot(layout.feature_bits, f),
                     Bits.one_hot(layout.location_bits, l),
                     Bits.one_hot(layout.class_bits, c))
        lines.append(f"{i} {layout.pretty(sdr)} 1 0")
    zero = layout.pretty(Bits.zeros(layout.total))
    lines.extend(f"{i} {zero} 1 1" for i in range(len(triplets), capacity))
    return "\n".join(lines) + "\n"


def _dataset(seed: int) -> tuple[dict[tuple[int, int], dict[int, int]], list[Triplet]]:
    ds = generate_dataset(CLASSES, GRID, FEATURE_POOL, SAMPLES, BIG_LAYOUT, seed=seed)
    return ds.maps, [(r.feature, r.location, r.class_) for r in store_trace(ds)]


def _absent_triplet(rng: random.Random, stored: set[Triplet]) -> Triplet:
    while True:
        t = (rng.randrange(BIG_LAYOUT.feature_bits), rng.randrange(BIG_LAYOUT.location_bits),
             rng.randrange(BIG_LAYOUT.class_bits))
        if t not in stored:
            return t


# --- identify ------------------------------------------------------------------

def identify_inputs(seed: int) -> Inputs:
    maps, triplets = _dataset(seed)
    return Inputs(memory_image(BIG_LAYOUT, BIG_CAPACITY, triplets), triplets, maps)


def identify_stream(seed: int, inputs: Inputs) -> Iterator[TraceRecord]:
    """Per object: RESET, then random-order sensations; after the first one,
    a padded PREDICT_FEATURE asks which feature the next location holds."""
    rng = random.Random(f"identify-{seed}")
    objects = sorted(inputs.maps)
    locations = range(BIG_LAYOUT.location_bits)
    while True:
        sensed = inputs.maps[rng.choice(objects)]
        if rng.random() >= P_NO_RESET:
            yield TraceRecord(op="RESET")
        order = rng.sample(locations, SENSATIONS_PER_OBJECT)
        for k, loc in enumerate(order):
            feature = UNKNOWN_FEATURE if rng.random() < P_UNKNOWN else sensed[loc]
            yield TraceRecord(op="INFER", feature=feature, location=loc)
            if k == 0:
                yield TraceRecord(op="PREDICT_FEATURE", location=order[1],
                                  padding=PREDICT_PADDING)


# --- learn ---------------------------------------------------------------------

def learn_inputs(seed: int) -> Inputs:
    """The identify dataset, topped up with random absent triplets until full."""
    _, triplets = _dataset(seed)
    rng = random.Random(f"learn-fill-{seed}")
    stored = set(triplets)
    while len(triplets) < BIG_CAPACITY:
        t = _absent_triplet(rng, stored)
        stored.add(t)
        triplets.append(t)
    return Inputs(memory_image(BIG_LAYOUT, BIG_CAPACITY, triplets), triplets)


def learn_stream(seed: int, inputs: Inputs) -> Iterator[TraceRecord]:
    """Rounds of five commands on a full device: a duplicate STORE, a STORE
    while full and a DELETE of an absent triplet, in random order, then a
    DELETE of a stored triplet and a STORE into the row it freed."""
    rng = random.Random(f"learn-{seed}")
    stored_list = list(inputs.preload)
    stored = set(stored_list)

    def rec(op: str, t: Triplet) -> TraceRecord:
        return TraceRecord(op=op, feature=t[0], location=t[1], class_=t[2])

    while True:
        failing = [rec("STORE", rng.choice(stored_list)),
                   rec("STORE", _absent_triplet(rng, stored)),
                   rec("DELETE", _absent_triplet(rng, stored))]
        rng.shuffle(failing)
        yield from failing
        i = rng.randrange(len(stored_list))
        old = stored_list[i]
        new = _absent_triplet(rng, stored)
        stored.remove(old)
        stored.add(new)
        stored_list[i] = new
        yield rec("DELETE", old)
        yield rec("STORE", new)


# --- fuzz_small ----------------------------------------------------------------

def fuzz_inputs(seed: int) -> Inputs:
    return Inputs(image=None)


def fuzz_stream(seed: int, inputs: Inputs) -> Iterator[TraceRecord]:
    for chunk in count():
        yield from fuzz_records(SMALL_LAYOUT, FUZZ_CHUNK, seed=seed * 1_000_003 + chunk,
                                max_padding=FUZZ_MAX_PADDING)


WORKLOADS = {
    w.name: w for w in (
        Workload("identify",
                 NertcamConfig(BIG_LAYOUT, BIG_CAPACITY, PaddingMode.grid(*GRID)),
                 sim_prefix=1_500, make_inputs=identify_inputs,
                 make_stream=identify_stream),
        Workload("learn",
                 NertcamConfig(BIG_LAYOUT, BIG_CAPACITY, PaddingMode.grid(*GRID)),
                 sim_prefix=1_500, make_inputs=learn_inputs,
                 make_stream=learn_stream),
        Workload("fuzz_small",
                 NertcamConfig(SMALL_LAYOUT, SMALL_CAPACITY, PaddingMode.grid(*GRID)),
                 sim_prefix=20_000, make_inputs=fuzz_inputs,
                 make_stream=fuzz_stream),
    )
}
