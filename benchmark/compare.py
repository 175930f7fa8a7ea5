#!/usr/bin/env python3
"""Compare two result sets of the nertcam benchmark: parent against change.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py --summary DIR [--revision REV]

A result set is a directory of the records benchmark/run.py writes (its
--results option). Runs of the two sets are paired by workload and seed, so
run both sides on the same seeds and alternate which side runs first.

For every workload and end-to-end metric the comparison prints each side's
median and quartiles, the share of pairs the change won and the metric's
bound from BENCHMARK.json, and a verdict:

    improved    the change won at least 9 in 10 pairs and its median is
                better by more than the parent's own quartile spread
    unresolved  a side's quartile spread is wider than the bound, and not
                every run of the change beats every run of the parent
    worse       the change's median is worse by more than the bound
    unchanged   otherwise

A workload's row takes the worst verdict of its metrics (worse, then
unresolved, then improved). Sim statistics must be identical for a seed on
both sides; any difference is listed. Traced runs (--trace 1) give the
per-layer medians and deltas, to show where a saving sits.

--summary prints the medians and quartiles of one result set as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERDICT_ORDER = ("worse", "unresolved", "improved", "unchanged")


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Records by (workload, trace), ordered by seed, then by run."""
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        runs[rec["workload"], rec["trace"]].append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def values(recs: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if metric in r["result"]["metrics"]]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def pairs(parent: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    by_seed: dict[int, list[float]] = defaultdict(list)
    for r in change:
        if metric in r["result"]["metrics"]:
            by_seed[r["seed"]].append(r["result"]["metrics"][metric]["value"])
    out = []
    for r in parent:
        mine = by_seed.get(r["seed"])
        if mine and metric in r["result"]["metrics"]:
            out.append((r["result"]["metrics"][metric]["value"], mine.pop(0)))
    return out


def verdict(parent: list[float], change: list[float], paired: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, dict]:
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    won = sum(sign * (c - p) > 0 for p, c in paired)
    share_won = won / len(paired) if paired else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    loss = -sign * (cm - pm) / abs(pm) if pm else 0.0
    if share_won >= 0.9 and sign * (cm - pm) > p3 - p1:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif loss > bound:
        v = "worse"
    else:
        v = "unchanged"
    return v, {"parent": (p1, pm, p3), "change": (c1, cm, c3), "won": share_won,
               "pairs": len(paired), "spread": spread, "bound": bound}


def sim_differences(parent: list[dict], change: list[dict]) -> list[str]:
    out = []
    for r in parent:
        for c in change:
            if c["seed"] != r["seed"]:
                continue
            a, b = r["notes"]["sim"], c["notes"]["sim"]
            for key in sorted(a.keys() & b.keys()):
                if a[key] != b[key]:
                    out.append(f"seed {r['seed']}: {key} {a[key]!r} -> {b[key]!r}")
    return sorted(set(out))


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    parent, change = load(parent_dir), load(change_dir)
    workloads = [w["name"] for w in spec["workloads"]]
    worst = "unchanged"
    print(f"{'workload':11s} {'metric':20s} {'parent q1/med/q3':>34s} "
          f"{'change q1/med/q3':>34s} {'won':>5s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        p_runs, c_runs = parent.get((w, 0), []), change.get((w, 0), [])
        if not p_runs or not c_runs:
            print(f"{w:11s} no untraced runs on one side or both")
            continue
        row = []
        for m in spec["end_to_end"]:
            pv, cv = values(p_runs, m["name"]), values(c_runs, m["name"])
            if not pv or not cv:
                continue
            v, d = verdict(pv, cv, pairs(p_runs, c_runs, m["name"]), m["better"], m["bound"])
            row.append(v)
            print(f"{w:11s} {m['name']:20s} {_fmt(d['parent']):>34s} {_fmt(d['change']):>34s} "
                  f"{d['won']:5.2f} {d['spread']:7.3f} {d['bound']:6.2f}  {v}"
                  f"  ({d['pairs']} pairs)")
        row_verdict = min(row, key=VERDICT_ORDER.index) if row else "unresolved"
        for line in sim_differences(p_runs + parent.get((w, 1), []),
                                    c_runs + change.get((w, 1), [])):
            print(f"{w:11s} sim differs: {line}")
            row_verdict = "worse"
        print(f"{w:11s} {'VERDICT':20s} {row_verdict}")
        worst = min(worst, row_verdict, key=VERDICT_ORDER.index)

    print()
    print(f"{'workload':11s} {'per-layer metric':34s} {'parent':>14s} {'change':>14s} "
          f"{'delta':>14s} {'delta %':>8s}")
    for w in workloads:
        p_runs, c_runs = parent.get((w, 1), []), change.get((w, 1), [])
        if not p_runs or not c_runs:
            continue
        for m in spec["per_layer"]:
            pv, cv = values(p_runs, m["name"]), values(c_runs, m["name"])
            if not pv and not cv:
                continue
            pm = statistics.median(pv) if pv else None
            cm = statistics.median(cv) if cv else None
            if pm is None or cm is None:
                print(f"{w:11s} {m['name']:34s} {_num(pm):>14s} {_num(cm):>14s} "
                      f"{'absent':>14s}")
                continue
            pct = f"{(cm - pm) / pm * 100:+8.1f}" if pm else ""
            print(f"{w:11s} {m['name']:34s} {pm:14.4f} {cm:14.4f} {cm - pm:+14.4f} {pct}")
    return 1 if worst == "worse" else 0


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{x:.6g}" for x in q)


def _num(x: float | None) -> str:
    return "absent" if x is None else f"{x:.4f}"


def summary(directory: Path, spec: dict, revision: str | None) -> int:
    runs = load(directory)
    env = next((r["env"] for recs in runs.values() for r in recs), {})
    out: dict = {"revision": revision, "env": env, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            recs = runs.get((w, trace), [])
            metrics = {}
            for m in spec[key]:
                xs = values(recs, m["name"])
                if xs:
                    q1, med, q3 = quartiles(xs)
                    metrics[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                          "unit": m["unit"]}
            entry[key] = {"runs": len(recs), "seeds": sorted({r["seed"] for r in recs}),
                          "metrics": metrics}
        if entry["end_to_end"]["runs"]:
            fracs = [r["failed_frac"] for r in runs[(w, 0)]]
            entry["end_to_end"]["failed_frac_max"] = max(fracs)
        out["workloads"][w] = entry
    print(json.dumps(out, indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", type=Path, metavar="DIR")
    parser.add_argument("--summary", action="store_true",
                        help="summarise one result set as JSON")
    parser.add_argument("--revision", help="revision measured, recorded by --summary")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    if args.summary:
        if len(args.dirs) != 1:
            parser.error("--summary takes one directory")
        return summary(args.dirs[0], spec, args.revision)
    if len(args.dirs) != 2:
        parser.error("give a parent and a change directory")
    return compare(args.dirs[0], args.dirs[1], spec)


if __name__ == "__main__":
    sys.exit(main())
