"""Command-line tool: argument parsing and printing around the library's
workloads, lockstep runs and throughput benchmark.

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
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

from .lockstep import diff_records, oracle_for
from .preprocess import CommandKind, InputError, MacroCommand, PaddingMode
from .rtcam import LookupScope
from .sdr import Bits, LayoutError, SdrLayout
from .system import DEFAULT_LAYOUT, NertcamConfig, System
from .traces import ParseError, TraceRecord, config_from_json, load_config, load_trace
from .workload import (fuzz_records, generate_dataset, infer_trace,
                       replay_records, store_trace)


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

#: one item of an integer-list flag, once stripped: ASCII digits and an
#: optional minus, so that int() accepts it and no other spelling gets by
_INT = re.compile(r"-?[0-9]+")


def _parse_ints(text: str, n: int | None, what: str) -> tuple[int, ...]:
    """n comma-separated integers, or any number of them when n is None."""
    parts = text.split(",")
    if (n is not None and len(parts) != n
            or not all(_INT.fullmatch(p.strip()) for p in parts)):
        count = "" if n is None else f"{n} "
        raise ValueError(f"{what} must be {count}comma-separated integers")
    return tuple(int(p) for p in parts)


def _layout(text: str | None) -> SdrLayout:
    """The --layout flag's F,L,C section widths; DEFAULT_LAYOUT without it."""
    return DEFAULT_LAYOUT if text is None else SdrLayout(*_parse_ints(text, 3, "--layout"))


def build_config(args: argparse.Namespace) -> NertcamConfig:
    """Config file first (config_from_json's defaults without one), then
    flag overrides."""
    config = load_config(args.config) if args.config else config_from_json("{}")
    overrides: dict[str, object] = {}
    if args.layout is not None:
        overrides["layout"] = _layout(args.layout)
    if args.entries is not None:
        overrides["capacity"] = args.entries
    if args.grid is not None:
        overrides["padding_mode"] = PaddingMode.grid(*_parse_ints(args.grid, 2, "--grid"))
    if args.khot:
        overrides["khot_features"] = True
    return replace(config, **overrides)


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
    summary = replay_records(system, records, print, trace_cycles=args.trace_cycles)
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
