"""Command-line harness: dataset generation, trace replay, differential runs
against the set-semantics oracle, and throughput benchmarking.

Subcommands:
    gen    write a synthetic dataset plus store/infer traces
    run    replay a trace through the device and report per-record results
    diff   replay a trace (or a seeded fuzz stream) through device and oracle
           in lockstep; exit 2 on the first divergence
    bench  per-op wall-time sweep across storage sizes

Exit codes: 0 ok, 1 input or parse error, 2 divergence found.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .oracle import AbstractResponse, Oracle
from .preprocess import (_SHAPES, _ZERO, LINEAR_1D, CommandKind, InputError,
                         MacroCommand, PaddingMode)
from .rtcam import LookupScope
from .sdr import Bits, LayoutError, SdrLayout
from .state_machine import Outcome
from .system import DEFAULT_LAYOUT, NertcamConfig, Response, System
from .traces import (ParseError, TraceRecord, load_config, load_trace,
                     record_to_command)


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


def _view(resp: Response) -> dict[str, object]:
    """A Response's outputs as report values; the oracle's have the same keys."""
    prediction = resp.prediction
    return {"outcome": resp.outcome.value,
            "classes": list(prediction.classes.hot_positions),
            "features": list(prediction.features.hot_positions),
            "locations": list(prediction.locations.hot_positions),
            "full": resp.full}


def _oracle_view(abst: AbstractResponse) -> dict[str, object]:
    """An oracle response as _view renders a Response."""
    return {"outcome": abst.outcome.value, "classes": sorted(abst.classes),
            "features": sorted(abst.features), "locations": sorted(abst.locations),
            "full": abst.full}


def _render(view: dict[str, object]) -> str:
    """A view as one divergence-report string: name=value pairs."""
    return " ".join(f"{name}={value}" for name, value in view.items())


def _record_report(seq: int, rec: TraceRecord, resp: Response | None,
                   detail: str = "") -> dict:
    """One record's report: the record's fields, then the Response's view and
    cycles, or INPUT_ERROR with the error's detail when there is none."""
    rep: dict[str, object] = {"seq": seq, **rec.to_dict()}
    if resp is None:
        rep.update(outcome=INPUT_ERROR, detail=detail)
    else:
        rep.update(_view(resp), cycles=resp.cycles)
    return rep


def replay_records(system: System, records: list[TraceRecord],
                   emit=None, trace_cycles: bool = False) -> tuple[list[dict], ReplaySummary]:
    """Replay a trace; input errors are reported per record and do not stop the run.

    Identification accounting: sensations count INFERs since the current
    identification began; an identification completes at the first one-hot
    class output. Context switches start a new identification at that same
    sensation; stores, deletes, resets, clears and failed infers start a
    fresh cycle at zero.
    """
    summary = ReplaySummary()
    sensations = 0
    identified = False
    reports = []
    for seq, rec in enumerate(records):
        summary.records += 1
        try:
            cmd = record_to_command(rec, system.layout)
            if trace_cycles:
                system.submit(cmd)
                while system.busy:
                    t = system.step()
                    if emit and t:
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
        reports.append(rep)
        if emit:
            emit(json.dumps(rep, sort_keys=True, separators=(",", ":")))
    return reports, summary


# --- differential runs ---------------------------------------------------------

@dataclass(frozen=True)
class Divergence:
    seq: int
    record: TraceRecord
    fields: tuple[str, ...]
    system_value: str
    oracle_value: str


def _valid_bits_mirror_oracle(system: System, oracle: Oracle) -> bool:
    """At macro-op boundaries the device's valid bit of each non-empty row
    must be exactly the indicator of that row's class being in the oracle's
    valid set."""
    mem = system.memory
    oracle_classes = Bits.from_positions(system.layout.class_bits, oracle.valid).value
    expected = 0
    occupied = mem.occupied
    while occupied:
        row = occupied & -occupied
        # the class section is the lowest and one-hot in a non-empty row
        if mem.rows[row.bit_length() - 1] & oracle_classes:
            expected |= row
        occupied ^= row
    return mem.valid & mem.occupied == expected


def diff_records(system: System, oracle: Oracle,
                 records: list[TraceRecord]) -> Divergence | None:
    """Run both models in lockstep; return the first divergence, if any."""
    for seq, rec in enumerate(records):
        try:
            cmd = record_to_command(rec, system.layout)
            resp = system.run(cmd)
        except (InputError, ParseError, LayoutError):
            continue  # oracle only models validated commands
        sys_view, ora_view = _view(resp), _oracle_view(oracle.apply(cmd))
        bad = [name for name, value in sys_view.items() if value != ora_view[name]]
        if not _valid_bits_mirror_oracle(system, oracle):
            bad.append("valid_bits")
        if bad:
            return Divergence(seq, rec, tuple(bad), _render(sys_view), _render(ora_view))
    return None


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


def oracle_for(config: NertcamConfig) -> Oracle:
    grid = ((config.padding_mode.rows, config.padding_mode.cols)
            if config.padding_mode.is_grid else None)
    return Oracle(config.layout.feature_bits, config.layout.location_bits,
                  config.layout.class_bits, config.capacity, grid=grid)


# --- benchmarking ---------------------------------------------------------------

def run_bench(layout: SdrLayout, entries_list: list[int], iterations: int,
              seed: int = 0) -> list[dict]:
    """Per-op mean wall time for each storage size.

    The lookup row times the raw array search (a full-width exact match over
    every row); store/infer/predict rows time whole commands through the
    device, cycles included.
    """
    results = []
    for n in entries_list:
        combos = layout.feature_bits * layout.location_bits * layout.class_bits
        if n > combos:
            raise ValueError(f"cannot fill {n} entries: layout has {combos} triplets")
        rng = random.Random(seed)
        config = NertcamConfig(layout=layout, capacity=n)
        system = System(config)
        triplets = []
        seen = set()
        while len(triplets) < n:
            t = (rng.randrange(layout.feature_bits), rng.randrange(layout.location_bits),
                 rng.randrange(layout.class_bits))
            if t not in seen:
                seen.add(t)
                triplets.append(t)

        def _cmd(kind: CommandKind, f=None, l=None, c=None) -> MacroCommand:
            return MacroCommand(kind, layout.triplet(f, l, c))

        t0 = time.perf_counter()
        for f, l, c in triplets:
            system.run(_cmd(CommandKind.STORE, f, l, c))
        store_s = time.perf_counter() - t0
        results.append({"entries": n, "op": "store", "iterations": len(triplets),
                        "mean_us": store_s / len(triplets) * 1e6,
                        "ops_per_s": len(triplets) / store_s})

        probe = layout.triplet(*triplets[0])
        dc = Bits.zeros(layout.total)
        t0 = time.perf_counter()
        for _ in range(iterations):
            system.memory.micro_lookup(probe, dc, LookupScope.ALL)
        lookup_s = time.perf_counter() - t0
        system.memory.micro_reset()
        results.append({"entries": n, "op": "lookup", "iterations": iterations,
                        "mean_us": lookup_s / iterations * 1e6,
                        "ops_per_s": iterations / lookup_s})

        infer_s = 0.0
        for i in range(iterations):
            f, l, c = triplets[i % len(triplets)]
            cmd = _cmd(CommandKind.INFER, f, l)
            t0 = time.perf_counter()
            system.run(cmd)
            infer_s += time.perf_counter() - t0
            system.run(_cmd(CommandKind.RESET))
        results.append({"entries": n, "op": "infer_hit", "iterations": iterations,
                        "mean_us": infer_s / iterations * 1e6,
                        "ops_per_s": iterations / infer_s})

        t0 = time.perf_counter()
        for i in range(iterations):
            system.run(_cmd(CommandKind.PREDICT_FEATURE, l=triplets[i % len(triplets)][1]))
        predict_s = time.perf_counter() - t0
        results.append({"entries": n, "op": "predict_feature", "iterations": iterations,
                        "mean_us": predict_s / iterations * 1e6,
                        "ops_per_s": iterations / predict_s})
    return results


# --- argument plumbing -----------------------------------------------------------

def _parse_ints(text: str, n: int | None, what: str) -> tuple[int, ...]:
    """n comma-separated integers, or any number of them when n is None."""
    parts = text.split(",")
    if (n is not None and len(parts) != n
            or not all(p.strip().lstrip("-").isdigit() for p in parts)):
        count = "" if n is None else f"{n} "
        raise ValueError(f"{what} must be {count}comma-separated integers")
    return tuple(int(p) for p in parts)


def _layout(text: str | None) -> SdrLayout:
    """The --layout flag's F,L,C section widths; DEFAULT_LAYOUT without it."""
    return DEFAULT_LAYOUT if text is None else SdrLayout(*_parse_ints(text, 3, "--layout"))


def build_config(args: argparse.Namespace) -> NertcamConfig:
    """Config file first, then flag overrides."""
    if args.config:
        config = load_config(args.config)
        layout, capacity = config.layout, config.capacity
        mode, khot = config.padding_mode, config.khot_features
    else:
        layout, capacity, mode, khot = DEFAULT_LAYOUT, 1024, LINEAR_1D, False
    if args.layout is not None:
        layout = _layout(args.layout)
    if args.entries is not None:
        capacity = args.entries
    if args.grid is not None:
        mode = PaddingMode.grid(*_parse_ints(args.grid, 2, "--grid"))
    khot = khot or args.khot
    config = NertcamConfig(layout=layout, capacity=capacity, padding_mode=mode,
                           khot_features=khot)
    config.validate()
    return config


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--layout", metavar="F,L,C", help="section widths override")
    p.add_argument("--entries", type=int, help="storage capacity override")
    p.add_argument("--grid", metavar="R,C", help="2-D location grid for padding")
    p.add_argument("--khot", action="store_true", help="accept k-hot feature sections")


def cmd_gen(args: argparse.Namespace) -> int:
    layout = _layout(args.layout)
    rows, cols = _parse_ints(args.grid, 2, "--grid") if args.grid is not None else (5, 5)
    ds = generate_dataset(args.classes, (rows, cols), args.features, args.samples,
                          layout, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "dataset.json").write_text(ds.to_json())
    (out / "store.trace").write_text(
        "".join(r.to_json() + "\n" for r in store_trace(ds)))
    (out / "infer.trace").write_text(
        "".join(r.to_json() + "\n" for r in infer_trace(ds, args.order, args.seed)))
    print(f"wrote dataset.json, store.trace, infer.trace to {out}")
    return 0


def _load_records(paths: list[str]) -> list[TraceRecord]:
    """The records of the trace files, in order; none at all is an error, as
    a replay or diff of nothing would pass vacuously."""
    records = [r for path in paths for r in load_trace(path)]
    if not records:
        raise ValueError(f"trace has no records: {', '.join(paths)}")
    return records


def cmd_run(args: argparse.Namespace) -> int:
    config = build_config(args)
    records = _load_records(args.trace)
    system = System(config)
    _, summary = replay_records(system, records, emit=print,
                                trace_cycles=args.trace_cycles)
    print(json.dumps({"summary": summary.to_dict()}, sort_keys=True,
                     separators=(",", ":")))
    return 1 if summary.input_errors else 0


def cmd_diff(args: argparse.Namespace) -> int:
    config = build_config(args)
    if args.trace:
        records = _load_records(args.trace)
    else:
        if args.ops < 1:
            raise ValueError(f"--ops must be >= 1, got {args.ops}")
        records = fuzz_records(config.layout, args.ops, seed=args.seed,
                               khot_features=config.khot_features,
                               max_padding=args.max_padding)
    system = System(config)
    oracle = oracle_for(config)
    div = diff_records(system, oracle, records)
    if div is None:
        print(json.dumps({"divergences": 0, "records": len(records)}))
        return 0
    print(json.dumps({
        "divergences": 1, "seq": div.seq, "record": div.record.to_dict(),
        "fields": list(div.fields), "system": div.system_value,
        "oracle": div.oracle_value,
    }, sort_keys=True))
    return 2


def cmd_bench(args: argparse.Namespace) -> int:
    layout = _layout(args.layout)
    entries = (list(_parse_ints(args.entries, None, "--entries"))
               if args.entries is not None else [64, 128, 256, 512, 1024])
    if args.iterations < 1:
        raise ValueError(f"--iterations must be >= 1, got {args.iterations}")
    for row in run_bench(layout, entries, args.iterations, seed=args.seed):
        print(json.dumps(row, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nertcam",
        description="Reverse-ternary CAM reference-frame memory model")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset and traces")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--features", type=int, default=128, help="feature pool size")
    p.add_argument("--samples", type=int, default=1, help="samples per class")
    p.add_argument("--order", choices=("sequential", "random"), default="sequential")
    p.add_argument("--layout", metavar="F,L,C")
    p.add_argument("--grid", metavar="R,C")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="replay a trace and report results")
    _add_config_flags(p)
    p.add_argument("--trace", required=True, action="append",
                   help="trace file; repeat to replay several in order")
    p.add_argument("--trace-cycles", action="store_true",
                   help="emit one record per clock cycle")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("diff", help="lockstep device-vs-oracle comparison")
    _add_config_flags(p)
    p.add_argument("--trace", action="append",
                   help="trace file; repeat to replay several (omit to fuzz)")
    p.add_argument("--ops", type=int, default=10000, help="fuzz command count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-padding", type=int, default=0)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("bench", help="per-op timing across storage sizes")
    p.add_argument("--layout", metavar="F,L,C")
    p.add_argument("--entries", help="comma-separated capacities")
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InputError, LayoutError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
