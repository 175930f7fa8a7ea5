"""Line-delimited trace, config, and report formats for the CLI harness.

Traces are JSON objects, one per line. Sections are given as hot-bit
indices (the readable form for one-hot data); a k-hot feature section may
be given as a bit string under "feature_bits". Examples:

    {"op": "STORE", "feature": 5, "location": 12, "class": 3}
    {"op": "INFER", "feature": 5, "location": 12}
    {"op": "PREDICT_FEATURE", "location": 12, "padding": 1}
    {"op": "PREDICT_LOCATION", "feature": 5}
    {"op": "RESET"}

Config files are a single JSON object with the device parameters; CLI flags
override file values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .preprocess import LINEAR_1D, CommandKind, MacroCommand, PaddingMode
from .sdr import Bits, LayoutError, SdrLayout
from .system import ConfigError, DEFAULT_LAYOUT, NertcamConfig


class ParseError(ValueError):
    """Bad trace or config input; message carries the line number."""


_OPTIONAL_FIELDS = {"feature", "feature_bits", "location", "class", "padding"}

#: Each op's command kind.
_OP_KINDS = {kind.value: kind for kind in CommandKind}


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One replayable command with index-encoded sections."""

    op: str
    feature: int | None = None
    feature_bits: str | None = None
    location: int | None = None
    class_: int | None = None
    padding: int = 0
    line: int = 0

    def to_dict(self) -> dict[str, object]:
        """The record's trace fields: op, and each section or padding it sets."""
        obj: dict[str, object] = {"op": self.op}
        for name, value in (("feature", self.feature), ("feature_bits", self.feature_bits),
                            ("location", self.location), ("class", self.class_)):
            if value is not None:
                obj[name] = value
        if self.padding:
            obj["padding"] = self.padding
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _is_int(v: object) -> bool:
    """A JSON integer; bools are ints in Python but not here."""
    return isinstance(v, int) and not isinstance(v, bool)


def parse_record(text: str, line: int = 0) -> TraceRecord:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {line}: not valid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict) or "op" not in obj:
        raise ParseError(f"line {line}: each record needs an 'op' field")
    op = obj["op"]
    if op not in _OP_KINDS:
        raise ParseError(f"line {line}: unknown op {op!r}")
    unknown = set(obj) - _OPTIONAL_FIELDS - {"op"}
    if unknown:
        raise ParseError(f"line {line}: unknown fields {sorted(unknown)}")

    def _index(name: str) -> int | None:
        v = obj.get(name)
        if v is None:
            return None
        if not _is_int(v) or v < 0:
            raise ParseError(f"line {line}: {name} must be a non-negative integer")
        return v

    fb = obj.get("feature_bits")
    if fb is not None and (not isinstance(fb, str) or set(fb) - {"0", "1"}):
        raise ParseError(f"line {line}: feature_bits must be a 0/1 string")
    return TraceRecord(op=op, feature=_index("feature"), feature_bits=fb,
                       location=_index("location"), class_=_index("class"),
                       padding=_index("padding") or 0, line=line)


def parse_trace(lines: Iterable[str]) -> Iterator[TraceRecord]:
    for n, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        yield parse_record(text, line=n)


def load_trace(path: str | Path) -> list[TraceRecord]:
    with open(path) as fh:
        return list(parse_trace(fh))


def record_to_command(rec: TraceRecord, layout: SdrLayout) -> MacroCommand:
    """Build the full-width command SDR from a record's indices."""
    feature: int | Bits | None = rec.feature
    if rec.feature_bits is not None and feature is not None:
        raise ParseError(f"line {rec.line}: give feature or feature_bits, not both")
    try:
        if rec.feature_bits is not None:
            feature = Bits.parse(rec.feature_bits, width=layout.feature_bits)
        sdr = layout.triplet(feature, rec.location, rec.class_)
    except LayoutError as exc:
        raise ParseError(f"line {rec.line}: {exc}") from exc
    # an op outside the table still raises CommandKind's ValueError
    kind = _OP_KINDS.get(rec.op) or CommandKind(rec.op)
    return MacroCommand(kind, sdr, rec.padding)


# --- config files ----------------------------------------------------------

def config_from_json(text: str) -> NertcamConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ParseError("config must be a JSON object")
    known = {"feature_bits", "location_bits", "class_bits", "entries",
             "grid", "khot_features"}
    unknown = set(obj) - known
    if unknown:
        raise ParseError(f"unknown config fields {sorted(unknown)}")

    def _int(name: str, default: int) -> int:
        v = obj.get(name, default)
        if not _is_int(v):
            raise ParseError(f"config field {name!r} must be an integer, got {v!r}")
        return v

    layout = SdrLayout(
        feature_bits=_int("feature_bits", DEFAULT_LAYOUT.feature_bits),
        location_bits=_int("location_bits", DEFAULT_LAYOUT.location_bits),
        class_bits=_int("class_bits", DEFAULT_LAYOUT.class_bits),
    )
    grid = obj.get("grid")
    if grid is not None:
        if not isinstance(grid, list) or len(grid) != 2 or not all(map(_is_int, grid)):
            raise ParseError("grid must be a two-element integer list [rows, cols]")
        mode = PaddingMode.grid(grid[0], grid[1])
    else:
        mode = LINEAR_1D
    khot = obj.get("khot_features", False)
    if not isinstance(khot, bool):
        raise ParseError(f"config field 'khot_features' must be true or false, got {khot!r}")
    config = NertcamConfig(layout=layout, capacity=_int("entries", 1024),
                           padding_mode=mode, khot_features=khot)
    try:
        config.validate()
    except ConfigError as exc:
        raise ParseError(str(exc)) from exc
    return config


def load_config(path: str | Path) -> NertcamConfig:
    return config_from_json(Path(path).read_text())
