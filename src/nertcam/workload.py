"""Workloads for the device: synthetic datasets with their store and infer
traces, seeded fuzz streams, and trace replay with identification
accounting.

Every generator is seeded, so the same arguments give the same records.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

from .lockstep import response_view
from .preprocess import _SHAPES, _ZERO, CommandKind, InputError
from .sdr import LayoutError, SdrLayout
from .state_machine import Outcome
from .system import Response, System
from .traces import ParseError, TraceRecord, record_to_command


# --- dataset generation ------------------------------------------------------

@dataclass
class Dataset:
    """Synthetic per-class sensory maps on a location grid.

    maps[(class_index, sample_index)] is a dict location -> feature. Within
    one (class, location) cell the samples carry distinct features, so every
    generated triplet is unique and a full store trace fills exactly
    classes * samples * grid_size entries.
    """

    layout: SdrLayout
    grid: tuple[int, int]
    classes: int
    samples: int
    feature_pool: int
    seed: int
    maps: dict[tuple[int, int], dict[int, int]] = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {
            "layout": [self.layout.feature_bits, self.layout.location_bits,
                       self.layout.class_bits],
            "grid": list(self.grid),
            "classes": self.classes,
            "samples": self.samples,
            "feature_pool": self.feature_pool,
            "seed": self.seed,
            "maps": {
                f"{c}/{s}": {str(loc): feat for loc, feat in sorted(m.items())}
                for (c, s), m in sorted(self.maps.items())
            },
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def generate_dataset(classes: int, grid: tuple[int, int], feature_pool: int,
                     samples: int, layout: SdrLayout, seed: int = 0) -> Dataset:
    rows, cols = grid
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    locations = rows * cols
    if locations != layout.location_bits:
        raise ValueError(f"grid {rows}x{cols} does not cover "
                         f"{layout.location_bits} location bits")
    if feature_pool < 1:
        raise ValueError(f"feature pool must be >= 1, got {feature_pool}")
    if feature_pool > layout.feature_bits:
        raise ValueError(f"feature pool {feature_pool} exceeds "
                         f"{layout.feature_bits} feature bits")
    if classes < 1:
        raise ValueError(f"classes must be >= 1, got {classes}")
    if classes > layout.class_bits:
        raise ValueError(f"{classes} classes exceed {layout.class_bits} class bits")
    if not 1 <= samples <= feature_pool:
        raise ValueError(f"samples must be in [1, {feature_pool}], got {samples}")
    rng = random.Random(seed)
    ds = Dataset(layout, grid, classes, samples, feature_pool, seed)
    for c in range(classes):
        for s in range(samples):
            ds.maps[(c, s)] = {}
        for loc in range(locations):
            feats = rng.sample(range(feature_pool), samples)
            for s in range(samples):
                ds.maps[(c, s)][loc] = feats[s]
    return ds


def store_trace(ds: Dataset) -> list[TraceRecord]:
    out = []
    for (c, s) in sorted(ds.maps):
        for loc, feat in sorted(ds.maps[(c, s)].items()):
            out.append(TraceRecord(op="STORE", feature=feat, location=loc, class_=c))
    return out


def infer_trace(ds: Dataset, order: str = "sequential", seed: int = 0) -> list[TraceRecord]:
    """Per object: a RESET then one INFER per location, in the given order."""
    if order not in ("sequential", "random"):
        raise ValueError(f"order must be sequential or random, got {order!r}")
    rng = random.Random(seed)
    out = []
    for (c, s) in sorted(ds.maps):
        sensing = sorted(ds.maps[(c, s)])
        if order == "random":
            rng.shuffle(sensing)
        out.append(TraceRecord(op="RESET"))
        for loc in sensing:
            out.append(TraceRecord(op="INFER", feature=ds.maps[(c, s)][loc],
                                   location=loc))
    return out


# --- fuzzing ---------------------------------------------------------------------

_FUZZ_OPS = (
    (CommandKind.STORE, 22),
    (CommandKind.DELETE, 12),
    (CommandKind.INFER, 33),
    (CommandKind.PREDICT_FEATURE, 10),
    (CommandKind.PREDICT_LOCATION, 10),
    (CommandKind.RESET, 10),
    (CommandKind.CLEAR, 3),
)


def fuzz_records(layout: SdrLayout, count: int, seed: int = 0,
                 khot_features: bool = False, max_padding: int = 0) -> list[TraceRecord]:
    """Seeded stream of well-formed random commands: each draws the sections
    its shape does not require to be zero."""
    if max_padding < 0:
        raise ValueError(f"max_padding must be >= 0, got {max_padding}")
    rng = random.Random(seed)
    kinds = [k for k, w in _FUZZ_OPS for _ in range(w)]
    out = []
    for _ in range(count):
        kind = rng.choice(kinds)
        feature = feature_bits = location = class_ = None
        padding = 0
        rf, rl, rc = _SHAPES.get(kind, (_ZERO, _ZERO, _ZERO))
        if rf is not _ZERO:
            if khot_features:
                value = rng.randrange(1, 1 << layout.feature_bits)
                feature_bits = format(value, f"0{layout.feature_bits}b")
            else:
                feature = rng.randrange(layout.feature_bits)
        if rl is not _ZERO:
            location = rng.randrange(layout.location_bits)
        if rc is not _ZERO:
            class_ = rng.randrange(layout.class_bits)
        if kind is CommandKind.PREDICT_FEATURE and max_padding:
            padding = rng.randrange(max_padding + 1)
        out.append(TraceRecord(op=kind.value, feature=feature, feature_bits=feature_bits,
                               location=location, class_=class_, padding=padding))
    return out


# --- trace replay -------------------------------------------------------------

INPUT_ERROR = "INPUT_ERROR"


@dataclass
class ReplaySummary:
    records: int = 0
    total_cycles: int = 0
    identifications: int = 0
    sensations_to_one_hot: list[int] = field(default_factory=list)
    context_switches: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    input_errors: int = 0

    def to_dict(self) -> dict:
        mean = (sum(self.sensations_to_one_hot) / len(self.sensations_to_one_hot)
                if self.sensations_to_one_hot else None)
        return {
            "records": self.records,
            "total_cycles": self.total_cycles,
            "identifications": self.identifications,
            "mean_sensations_to_one_hot": mean,
            "context_switches": self.context_switches,
            "errors": dict(sorted(self.errors.items())),
            "input_errors": self.input_errors,
        }


def _record_report(seq: int, rec: TraceRecord, resp: Response | None,
                   detail: str = "") -> dict:
    """One record's report: the record's fields, then the Response's view,
    or INPUT_ERROR with the error's detail when there is none."""
    rep: dict[str, object] = {"seq": seq, **rec.to_dict()}
    if resp is None:
        rep.update(outcome=INPUT_ERROR, detail=detail)
    else:
        rep.update(response_view(resp))
    return rep


def replay_records(system: System, records: list[TraceRecord], emit: Callable[[str], None],
                   trace_cycles: bool = False) -> ReplaySummary:
    """Replay a trace, passing each record's report line (and, with
    trace_cycles, each cycle's line before it) to emit; input errors are
    reported per record and do not stop the run.

    Identification accounting: sensations count INFERs since the current
    identification began; an identification completes at the first one-hot
    class output. Context switches start a new identification at that same
    sensation; stores, deletes, resets, clears and failed infers start a
    fresh cycle at zero.
    """
    summary = ReplaySummary()
    sensations = 0
    identified = False
    for seq, rec in enumerate(records):
        summary.records += 1
        try:
            cmd = record_to_command(rec, system.layout)
            if trace_cycles:
                system.submit(cmd)
                while system.busy:
                    t = system.step()
                    emit(json.dumps({
                        "cycle": t.cycle, "from": t.state_from.value,
                        "to": t.state_to.value, "micro_op": t.micro_op,
                        "valid_entry": t.valid_entry,
                        "outcome": t.outcome.value if t.outcome else None,
                    }, sort_keys=True, separators=(",", ":")))
                resp = system.response
            else:
                resp = system.run(cmd)
        except (InputError, ParseError, LayoutError) as exc:
            summary.input_errors += 1
            rep = _record_report(seq, rec, None, str(exc))
        else:
            summary.total_cycles += resp.cycles
            if resp.error:
                name = resp.outcome.value
                summary.errors[name] = summary.errors.get(name, 0) + 1
            kind = cmd.kind
            if kind is CommandKind.INFER:
                sensations += 1
                if resp.outcome is Outcome.CONTEXT_SWITCH:
                    summary.context_switches += 1
                    sensations = 1
                    identified = False
                if resp.outcome in (Outcome.SUCCESS, Outcome.CONTEXT_SWITCH):
                    if resp.classes.popcount == 1 and not identified:
                        summary.identifications += 1
                        summary.sensations_to_one_hot.append(sensations)
                        identified = True
                else:
                    sensations = 0
                    identified = False
            elif (kind is not CommandKind.PREDICT_FEATURE
                  and kind is not CommandKind.PREDICT_LOCATION):
                sensations = 0
                identified = False
            rep = _record_report(seq, rec, resp)
        emit(json.dumps(rep, sort_keys=True, separators=(",", ":")))
    return summary
