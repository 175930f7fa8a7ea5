"""Device-vs-oracle comparison: one comparator, and lockstep runs over traces.

The oracle imports nothing from the device, so what compares the two lives
here: views that render a device Response and an oracle AbstractResponse
with the same keys, the check that the device's valid bits mirror the
oracle's valid set, and diff_records, which runs both models over a trace
and reports the first record on which they differ.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .oracle import AbstractResponse, Oracle
from .preprocess import InputError
from .rtcam import MemoryArray
from .sdr import Bits, LayoutError
from .system import NertcamConfig, Response, System
from .traces import ParseError, TraceRecord, record_to_command


def oracle_for(config: NertcamConfig) -> Oracle:
    grid = ((config.padding_mode.rows, config.padding_mode.cols)
            if config.padding_mode.is_grid else None)
    return Oracle(config.layout.feature_bits, config.layout.location_bits,
                  config.layout.class_bits, config.capacity, grid=grid)


def response_view(resp: Response) -> dict[str, object]:
    """A Response's outputs and cycle count as report values; the oracle's
    have the same keys."""
    prediction = resp.prediction
    return {"outcome": resp.outcome.value,
            "classes": list(prediction.classes.hot_positions),
            "features": list(prediction.features.hot_positions),
            "locations": list(prediction.locations.hot_positions),
            "full": resp.full, "cycles": resp.cycles}


def oracle_view(abst: AbstractResponse) -> dict[str, object]:
    """An oracle response as response_view renders a Response."""
    return {"outcome": abst.outcome.value, "classes": sorted(abst.classes),
            "features": sorted(abst.features), "locations": sorted(abst.locations),
            "full": abst.full, "cycles": abst.cycles}


def _render(view: dict[str, object]) -> str:
    """A view as one divergence-report string: name=value pairs."""
    return " ".join(f"{name}={value}" for name, value in view.items())


def valid_bits_mirror(memory: MemoryArray, classes: Iterable[int]) -> bool:
    """At macro-op boundaries the valid bit of each occupied row must be
    exactly the indicator of that row holding a 1 at the position of one of
    the classes, the oracle's valid set.

    The class section is the lowest, so column k is class bit k, and the
    rows to expect are the occupied rows in the OR of those classes'
    columns: the OR that micro_validate's class closure takes.
    """
    wanted = Bits.from_positions(memory.layout.class_bits, classes).value
    occupied = memory.occupied
    return memory.valid & occupied == occupied & memory._any_column(wanted)


def mismatches(system: System, oracle: Oracle, resp: Response,
               expected: AbstractResponse) -> list[str]:
    """The fields on which the device's response and the oracle's differ, in
    view order, then "valid_bits" when the device's valid bits do not mirror
    the oracle's valid set. Empty when the two models agree."""
    want = oracle_view(expected)
    bad = [name for name, value in response_view(resp).items() if value != want[name]]
    if not valid_bits_mirror(system.memory, oracle.valid):
        bad.append("valid_bits")
    return bad


@dataclass(frozen=True)
class Divergence:
    seq: int
    record: TraceRecord
    fields: tuple[str, ...]
    system_value: str
    oracle_value: str


def diff_records(system: System, oracle: Oracle,
                 records: list[TraceRecord]) -> Divergence | None:
    """Run both models in lockstep; return the first divergence, if any."""
    for seq, rec in enumerate(records):
        try:
            cmd = record_to_command(rec, system.layout)
            resp = system.run(cmd)
        except (InputError, ParseError, LayoutError):
            continue  # oracle only models validated commands
        expected = oracle.apply(cmd)
        bad = mismatches(system, oracle, resp, expected)
        if bad:
            return Divergence(seq, rec, tuple(bad), _render(response_view(resp)),
                              _render(oracle_view(expected)))
    return None
