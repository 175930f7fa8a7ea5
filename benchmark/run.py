#!/usr/bin/env python3
"""nertcam benchmark: run one workload for one seed and print its metrics.

    python3 benchmark/run.py --workload identify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.
--workload all runs every workload in turn; its last line then carries
each workload's metrics under "<workload>.<metric>".

Load model: one agent in a closed loop, one process, one thread. The agent
sends its next command only after System.run returns, so nothing queues.
The timed path of a command is record_to_command followed by System.run;
generating inputs, building the device and checking each response against
the set-semantics oracle all happen outside the timer. Times are host
time, scaled to a reference host speed by a probe timed alongside (see
PROBE_REFERENCE_S); metrics marked sim come from the modelled device and
repeat exactly for a seed, because they are taken over a fixed number of
leading commands.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same prefix of
the stream once untraced and once with span shims around each layer's
public callables, and prints the per-layer metrics (see layers.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full record of the run is also written to
.bench_out/results/ for compare.py, and the traced run's spans to
.bench_out/spans/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# Set-up is repeated before and after the timed pass, half each side, so
# that it samples the host at two times; quick set-ups repeat until
# SETUP_MIN_SECONDS have passed on each side.
SETUP_REPS = 6
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_REPS = 200
MEMORY_COMMANDS = 2000    # the memory pass runs this many commands,
MEMORY_SECONDS = 2.0      # or stops after this long
SPAN_COMMANDS = 2000      # commands whose spans are written out
ACCOUNTING_TOLERANCE = 1e-6
# Other tenants can make the host up to twice as slow for seconds to
# minutes at a time, slowing every code path alike. A probe (HostProbe) is
# timed every BLOCK_SECONDS of the timed pass and around every set-up. Each
# time is scaled by PROBE_REFERENCE_S over the probe time around it, so it
# reads as it would on a host where the probe takes PROBE_REFERENCE_S. The
# run's record keeps the raw times too.
BLOCK_SECONDS = 1.0
PROBE_ROWS = 4096
PROBE_BUILDS = 512
PROBE_REFERENCE_S = 700e-6
# per-layer counts of the traced run that are sim statistics
SIM_LAYER_METRICS = ("rtcam.lookups_per_cmd", "rtcam.rows_matched_per_lookup",
                     "rtcam.lookup_hit_ratio", "rtcam.occupancy_rows",
                     "prediction_map.rows_per_condense", "state_machine.steps_per_cmd",
                     "sdr.bits_per_cmd")
clock = time.perf_counter


def import_package() -> None:
    """Import nertcam from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nertcam
    except ImportError as exc:
        raise SystemExit(f"error: cannot import nertcam from {src}: {exc}")
    if Path(nertcam.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: nertcam imported from {nertcam.__file__}, not {src}")


import_package()
from nertcam import traces  # noqa: E402
from nertcam.cli import oracle_for  # noqa: E402
from nertcam.state_machine import Outcome  # noqa: E402

from layers import SELF_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, build_device, preload_records  # noqa: E402


# --- one pass over the command stream --------------------------------------------

@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    # per command, None where it raised: record_to_command + System.run,
    # System.run alone, and the block it ran in
    busy_s: list[float | None] = field(default_factory=list)
    run_s: list[float | None] = field(default_factory=list)
    block: list[int] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # before each block, and after the last
    kinds: list[str] = field(default_factory=list)
    occupancy: list[int] = field(default_factory=list)
    records: list = field(default_factory=list)     # sim prefix only
    responses: list = field(default_factory=list)   # sim prefix only
    errors: list[str] = field(default_factory=list)

    def scales(self) -> list[float]:
        """Per command, the factor to the reference host speed."""
        return [2 * PROBE_REFERENCE_S / (self.probes[b] + self.probes[b + 1])
                for b in self.block]

    def times(self, first: int | None = None, scaled: bool = True):
        """(busy, run) seconds of the commands that completed, among the first."""
        scales = self.scales() if scaled else [1.0] * self.attempted
        done = [n for n in range(self.attempted)[:first] if self.run_s[n] is not None]
        return ([self.busy_s[n] * scales[n] for n in done],
                [self.run_s[n] * scales[n] for n in done])

    def cmds_per_s(self, first: int | None = None) -> float:
        busy, _ = self.times(first)
        return len(busy) / sum(busy)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _hot(bits) -> frozenset[int]:
    return frozenset(bits.hot_positions)


def disagreement(kind: str, resp, expected) -> list[str]:
    """Fields on which a device response and the oracle's answer differ."""
    classes = resp.classes if kind == "INFER" else resp.prediction.classes
    return [name for name, ok in (
        ("outcome", resp.outcome is expected.outcome),
        ("classes", _hot(classes) == expected.classes),
        ("features", _hot(resp.prediction.features) == expected.features),
        ("locations", _hot(resp.prediction.locations) == expected.locations),
        ("full", resp.full == expected.full),
    ) if not ok]


def measure(system, stream, layout, *, deadline: float, min_cmds: int,
            max_cmds: int | None = None, sim_prefix: int,
            oracle=None, tracer: Tracer | None = None) -> Pass:
    """Run commands until the deadline has passed and at least min_cmds ran."""
    p = Pass(probes=[probe()])
    next_probe = clock() + BLOCK_SECONDS
    while p.attempted < min_cmds or clock() < deadline:
        if max_cmds is not None and p.attempted >= max_cmds:
            break
        rec = next(stream)
        n = p.attempted
        p.attempted += 1
        if tracer is not None:
            tracer.cmd = n
        cmd = resp = None
        t0 = clock()
        try:
            cmd = traces.record_to_command(rec, layout)
            t1 = clock()
            resp = system.run(cmd)
            t2 = clock()
        except Exception as exc:  # a command that raises is a failed command
            p.fail(f"command {n} {rec.to_json()} raised {exc!r}")
        if tracer is not None:
            tracer.cmd = -1
        p.busy_s.append(t2 - t0 if resp is not None else None)
        p.run_s.append(t2 - t1 if resp is not None else None)
        p.block.append(len(p.probes) - 1)
        p.kinds.append(rec.op)
        if n < sim_prefix:
            p.records.append(rec)
            p.responses.append(resp)
        if tracer is not None:
            p.occupancy.append(system.memory.occupancy)
        if oracle is not None and cmd is not None:
            expected = oracle.apply(cmd)
            if resp is not None:
                bad = disagreement(rec.op, resp, expected)
                if bad:
                    p.fail(f"command {n} {rec.to_json()} disagrees with the oracle on {bad}")
        if clock() >= next_probe:
            p.probes.append(probe())
            next_probe = clock() + BLOCK_SECONDS
    p.probes.append(probe())
    return p


@dataclass(frozen=True)
class _Cell:
    """A checked, frozen value object, built the way the package builds Bits."""

    value: int
    width: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"{self.value} does not fit in {self.width} bits")


class HostProbe:
    """The shapes of work the package does, at a fixed size: a scan over
    PROBE_ROWS objects holding row-sized integers, as the memory array's
    loops do, and PROBE_BUILDS value objects built, as condense and the
    per-command plumbing do. Calling it times both, best of three each:
    the host's speed now."""

    class _Row:
        __slots__ = ("value", "valid")

        def __init__(self, value: int):
            self.value = value
            self.valid = True

    def __init__(self, bits: int = 163):
        rng = random.Random(0)
        self.rows = [self._Row(rng.getrandbits(bits)) for _ in range(PROBE_ROWS)]
        self.query = rng.getrandbits(bits)
        self.care = (1 << bits) - 1

    def __call__(self) -> float:
        scan = build = float("inf")
        for _ in range(3):
            t0 = clock()
            hits = 0
            for row in self.rows:
                if row.valid and ((row.value ^ self.query) & self.care) == 0:
                    hits += 1
            t1 = clock()
            for row in self.rows[:PROBE_BUILDS]:
                _Cell(row.value >> 100, 63)
            t2 = clock()
            scan = min(scan, t1 - t0)
            build = min(build, t2 - t1)
        return scan + build


probe = HostProbe()


# --- set-up, memory and sim statistics ----------------------------------------------

def set_up(wl: Workload, seed: int):
    """Inputs, device construction and preload: one timed set-up."""
    t0 = clock()
    inputs = wl.make_inputs(seed)
    system = build_device(wl.config, inputs)
    return inputs, system, clock() - t0


def timed_setups(wl: Workload, seed: int, reps: int):
    """At least `reps` set-ups, more while they are quick. Returns each one's
    raw seconds and the factor to the reference host speed, from the probes
    either side of it, and the inputs and device of the last."""
    out: list[tuple[float, float]] = []
    gc.collect()
    before = probe()
    while len(out) < reps or (sum(t for t, _ in out) < SETUP_MIN_SECONDS
                              and len(out) < SETUP_MAX_REPS):
        inputs, system, seconds = set_up(wl, seed)
        after = probe()
        out.append((seconds, 2 * PROBE_REFERENCE_S / (before + after)))
        before = after
    return out, inputs, system


def make_oracle(wl: Workload, inputs):
    oracle = oracle_for(wl.config)
    for rec in preload_records(inputs):
        oracle.apply(traces.record_to_command(rec, wl.config.layout))
    return oracle


def memory_mb(wl: Workload, seed: int) -> float:
    """Mean host memory the device holds over a stream prefix after set-up.

    Inputs are built before tracemalloc starts, so only what the device
    allocates and still holds is counted. The heap is sampled after each
    command, so the mean does not hinge on the state the stream ends in.
    """
    inputs = wl.make_inputs(seed)
    cmds = [traces.record_to_command(r, wl.config.layout)
            for r in islice(wl.make_stream(seed, inputs), MEMORY_COMMANDS)]
    gc.collect()
    tracemalloc.start()
    try:
        system = build_device(wl.config, inputs)
        deadline = clock() + MEMORY_SECONDS
        held = []
        for cmd in cmds:
            system.run(cmd)
            held.append(tracemalloc.get_traced_memory()[0])
            if clock() > deadline:
                break
    finally:
        tracemalloc.stop()
    return statistics.fmean(held) / 1e6


def sim_stats(records, responses) -> dict:
    """Simulated statistics of the stream prefix.

    Identification accounting follows `nertcam run`: sensations count INFERs
    since the identification began, which completes at the first one-hot
    class output; a context switch restarts the count at that sensation,
    and any other non-PREDICT command or a failed INFER restarts it at zero.
    """
    cycles = 0
    outcomes: Counter[str] = Counter()
    to_id: list[int] = []
    sensations = 0
    identified = False
    for rec, resp in zip(records, responses):
        outcome = resp.outcome if resp is not None else None
        outcomes[f"{rec.op}:{outcome.value if outcome else 'RAISED'}"] += 1
        cycles += resp.cycles if resp is not None else 0
        if rec.op == "INFER":
            sensations += 1
            if outcome is Outcome.CONTEXT_SWITCH:
                sensations = 1
                identified = False
            if outcome in (Outcome.SUCCESS, Outcome.CONTEXT_SWITCH):
                if resp.classes.popcount == 1 and not identified:
                    to_id.append(sensations)
                    identified = True
            else:
                sensations = 0
                identified = False
        elif rec.op not in ("PREDICT_FEATURE", "PREDICT_LOCATION"):
            sensations = 0
            identified = False
    return {
        "sim_cycles_per_cmd": cycles / len(records),
        "sensations_to_id_mean": statistics.fmean(to_id) if to_id else None,
        "identifications": len(to_id),
        "outcomes": dict(sorted(outcomes.items())),
    }


def benchmark_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(BENCH_DIR.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_repeats(workload: str, seed: int, prefix: int, stats: dict) -> None:
    """Exit loudly when a sim statistic differs from an earlier run of this
    seed with the same benchmark code."""
    path = OUT_DIR / "sim" / f"{workload}-s{seed}.json"
    key = {"benchmark": benchmark_digest(), "sim_prefix": prefix}
    try:
        old = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        old = None
    merged = dict(stats)
    if old is not None and old.get("key") == key:
        differ = sorted(k for k in stats.keys() & old["stats"].keys()
                        if stats[k] != old["stats"][k])
        if differ:
            for k in differ:
                print(f"error: sim statistic {k} = {stats[k]!r} differs from "
                      f"{old['stats'][k]!r} in an earlier run of {workload} "
                      f"seed {seed} ({path})", file=sys.stderr)
            raise SystemExit(3)
        merged = {**old["stats"], **stats}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"key": key, "stats": merged}, sort_keys=True, indent=1))


# --- the two kinds of run ------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl: Workload, seed: int, seconds: float) -> tuple[Pass, dict, dict]:
    setups, inputs, system = timed_setups(wl, seed, SETUP_REPS // 2)
    oracle = make_oracle(wl, inputs)
    gc.collect()
    p = measure(system, wl.make_stream(seed, inputs), wl.config.layout,
                deadline=clock() + seconds, min_cmds=wl.sim_prefix,
                sim_prefix=wl.sim_prefix, oracle=oracle)
    del system, oracle
    setups += timed_setups(wl, seed, SETUP_REPS // 2)[0]
    sim = sim_stats(p.records, p.responses)
    busy, run = p.times()
    raw_busy, raw_run = p.times(scaled=False)
    metrics = {
        "cmds_per_s": len(busy) / sum(busy),
        "cmd_p50_us": percentile(run, 50) * 1e6,
        "cmd_p99_us": percentile(run, 99) * 1e6,
        "setup_s": statistics.median(t * k for t, k in setups),
        "mem_mb": memory_mb(wl, seed),
        "sim_cycles_per_cmd": sim["sim_cycles_per_cmd"],
    }
    notes = {"samples": len(run), "setup_reps": len(setups), "sim": sim,
             "probe_us": [x * 1e6 for x in p.probes],
             "raw": {"cmds_per_s": len(raw_busy) / sum(raw_busy),
                     "cmd_p50_us": percentile(raw_run, 50) * 1e6,
                     "cmd_p99_us": percentile(raw_run, 99) * 1e6,
                     "setup_s": statistics.median(t for t, _ in setups)}}
    return p, metrics, notes


def per_layer(wl: Workload, seed: int, seconds: float, run_id: str) -> tuple[Pass, dict, dict]:
    layout = wl.config.layout
    k = wl.sim_prefix
    inputs, system, _ = set_up(wl, seed)
    oracle = make_oracle(wl, inputs)
    gc.collect()
    deadline = clock() + seconds
    untraced = measure(system, wl.make_stream(seed, inputs), layout, deadline=0.0,
                       min_cmds=k, max_cmds=k, sim_prefix=k)
    del system
    tracer = Tracer(k)
    tracer.install()
    try:
        # rtcam.load_image_s is the median over these set-ups
        _, inputs, system = timed_setups(wl, seed, 3)
        gc.collect()
        p = measure(system, wl.make_stream(seed, inputs), layout, deadline=deadline,
                    min_cmds=k, sim_prefix=k, oracle=oracle, tracer=tracer)
    finally:
        tracer.uninstall()
    for n, (a, b) in enumerate(zip(untraced.responses, p.responses)):
        if a != b:
            p.fail(f"command {n}: traced response {b} differs from untraced {a}")
    p.failed += untraced.failed

    metrics = tracer.metrics(p.kinds, p.occupancy, p.scales())
    # both rates over the same leading commands, so their ratio is the
    # tracing overhead alone
    metrics["trace.cmds_per_s"] = p.cmds_per_s(k)
    metrics["trace.untraced_cmds_per_s"] = untraced.cmds_per_s(k)
    metrics["trace.slowdown"] = metrics["trace.untraced_cmds_per_s"] / metrics["trace.cmds_per_s"]
    layer_sum = sum(v for name, v in metrics.items() if name in SELF_METRICS)
    metrics["trace.accounted_frac"] = layer_sum / metrics["system.run_us"]
    sim = sim_stats(p.records, p.responses)
    if abs(metrics["trace.accounted_frac"] - 1) > ACCOUNTING_TOLERANCE:
        p.fail(f"layer self times add up to {layer_sum} us, traced System.run "
               f"takes {metrics['system.run_us']} us")
    steps = metrics.get("state_machine.steps_per_cmd")
    if steps is not None and steps != sim["sim_cycles_per_cmd"]:
        p.fail(f"{steps} controller steps per command, but "
               f"{sim['sim_cycles_per_cmd']} sim cycles per command")
    tracer.write(OUT_DIR / "spans" / f"{run_id}.jsonl", SPAN_COMMANDS)
    sim.update({m: metrics[m] for m in SIM_LAYER_METRICS if m in metrics})
    notes = {"samples": len(p.run_s), "sim": sim,
             "untraced_commands": untraced.attempted}
    return p, metrics, notes


def unit(name: str) -> str:
    if name.endswith("cmds_per_s"):
        return "1/s"
    if name.endswith("_us") or ".run_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac", "slowdown")):
        return "ratio"
    if name == "sim_cycles_per_cmd":
        return "cycles"
    return "count"


def run_workload(wl: Workload, args: argparse.Namespace) -> dict:
    """Run one workload, print its report and write its record; returns the
    result line."""
    run_id = f"{wl.name}-t{args.trace}-s{args.seed}-{time.time_ns()}"

    if args.trace:
        p, metrics, notes = per_layer(wl, args.seed, args.seconds, run_id)
    else:
        p, metrics, notes = end_to_end(wl, args.seed, args.seconds)
    check_repeats(wl.name, args.seed, wl.sim_prefix, notes["sim"])

    sim = notes["sim"]
    print(f"nertcam benchmark: workload {wl.name}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print(f"  {p.attempted} commands attempted, {p.failed} failed "
          f"(failed_frac {p.failed / p.attempted:g}); "
          f"{notes['samples']} timed samples; sim over the first {len(p.records)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit(name)}")
    if sim["sensations_to_id_mean"] is not None:
        print(f"  {'sensations_to_id_mean':34s} {sim['sensations_to_id_mean']:14.6f} "
              f"count (sim, {sim['identifications']} identifications)")
    for message in p.errors:
        print(f"  failure: {message}", file=sys.stderr)

    result = {
        "correct": p.failed == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    args.results.mkdir(parents=True, exist_ok=True)
    (args.results / f"{run_id}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "result": result, "notes": notes,
        "failed_frac": p.failed / p.attempted,
        "env": {"python": platform.python_version(), "machine": platform.machine(),
                "nproc": os.cpu_count()},
    }, sort_keys=True, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT_DIR / "results",
                        help="directory for the full record of each run")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
