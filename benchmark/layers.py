"""Span shims for the traced run, installed from outside the package.

Each shim wraps one public callable at a layer boundary and records a span
(name, start, end, parent span, command id) in flat in-memory arrays. A
layer's self time is its spans' duration minus the part covered by its
child spans. Callables that a later version of the package no longer has
are skipped, and the metrics that depend only on them are reported absent.

Only the traced run installs the shims; the untraced run measures the
package as it is.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# (owner: module or module:Class, attribute, span name)
SPANS = (
    ("nertcam.traces", "record_to_command", "traces.to_command"),
    ("nertcam.system:System", "run", "system.run"),
    # the names nertcam.system imported, so that System's own calls are seen
    ("nertcam.system", "validate_command", "preprocess.validate"),
    ("nertcam.system", "build_dc", "preprocess.build_dc"),
    ("nertcam.system", "condense", "prediction_map.condense"),
    ("nertcam.state_machine:Controller", "step", "state_machine.step"),
    ("nertcam.rtcam:MemoryArray", "micro_lookup", "rtcam.lookup"),
    ("nertcam.rtcam:MemoryArray", "micro_validate", "rtcam.validate"),
    ("nertcam.rtcam:MemoryArray", "micro_store", "rtcam.store"),
    ("nertcam.rtcam:MemoryArray", "micro_delete", "rtcam.delete"),
    ("nertcam.rtcam:MemoryArray", "micro_reset", "rtcam.reset"),
    ("nertcam.rtcam:MemoryArray", "micro_clear", "rtcam.clear"),
    ("nertcam.rtcam:MemoryArray", "snapshot_valid", "rtcam.snapshot_valid"),
    ("nertcam.rtcam:MemoryArray", "matched_rows", "rtcam.matched_rows"),
    ("nertcam.rtcam:MemoryArray", "restore_valid", "rtcam.restore_valid"),
    ("nertcam.rtcam:MemoryArray", "from_image", "rtcam.load_image"),
)

# the shims' own bookkeeping inside System.run, reported so that the
# layer self times still add up to the traced run time
OBSERVE = "trace.observe"

# per-command self-time metrics (µs per command) and the spans each sums
SELF_METRICS = {
    "rtcam.lookup_us": ("rtcam.lookup",),
    "rtcam.validate_us": ("rtcam.validate",),
    "rtcam.store_us": ("rtcam.store",),
    "rtcam.delete_us": ("rtcam.delete",),
    "rtcam.reset_us": ("rtcam.reset",),
    "rtcam.clear_us": ("rtcam.clear",),
    "rtcam.snapshot_restore_us": ("rtcam.snapshot_valid", "rtcam.matched_rows",
                                  "rtcam.restore_valid"),
    "prediction_map.condense_us": ("prediction_map.condense",),
    "state_machine.step_self_us": ("state_machine.step",),
    "preprocess.validate_us": ("preprocess.validate",),
    "preprocess.build_dc_us": ("preprocess.build_dc",),
    "system.self_us": ("system.run",),
    "trace.observe_us": (OBSERVE,),
}

COMMAND_KINDS = ("CLEAR", "RESET", "STORE", "DELETE", "INFER",
                 "PREDICT_FEATURE", "PREDICT_LOCATION")
PREDICT_KINDS = ("PREDICT_FEATURE", "PREDICT_LOCATION")


def _resolve(owner: str) -> Any | None:
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def _matched(rows: Any) -> int | None:
    """Rows set in a match vector: per-row flags or a row bitmap."""
    if isinstance(rows, int):
        return rows.bit_count()
    if isinstance(rows, (tuple, list)):
        return rows.count(True)
    return None


def _rows(rows: Any) -> int | None:
    """Rows handed to condense: a row collection or a row bitmap."""
    if isinstance(rows, int):
        return rows.bit_count()
    try:
        return len(rows)
    except TypeError:
        return None


class Tracer:
    """In-memory span recorder plus the per-command counts the shims take."""

    def __init__(self, sim_prefix: int):
        self.sim_prefix = sim_prefix
        self.cmd = -1  # id of the command being run; -1 during set-up
        self.names: list[str] = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_cmd = array("l")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()
        self._undo: list[Callable[[], None]] = []

    # --- recording -------------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add to a count; only the sim prefix is counted, so counts repeat exactly."""
        if 0 <= self.cmd < self.sim_prefix:
            self.counts[name] += value

    def wrap(self, fn: Callable, name: str,
             observe: Callable[[tuple, Any], None] | None = None) -> Callable:
        """Wrap fn in a span. An observer runs after the span, in a span of
        its own, so that its cost is not charged to the caller's self time."""
        idx = self._name_index(name)
        observe_idx = self._name_index(OBSERVE)
        names, start, end = self.span_name, self.start, self.end
        parent, span_cmd, stack = self.parent, self.span_cmd, self._stack
        clock = time.perf_counter

        def begin(name_idx: int) -> int:
            i = len(start)
            names.append(name_idx)
            parent.append(stack[-1] if stack else -1)
            span_cmd.append(self.cmd)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            return i

        def finish(i: int) -> None:
            end[i] = clock()
            stack.pop()

        def shim(*args, **kwargs):
            i = begin(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if observe is not None:
                j = begin(observe_idx)
                try:
                    observe(args, result)
                finally:
                    finish(j)
            return result

        return shim

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _observe_lookup(self, args: tuple, result: Any) -> None:
        try:
            rows, hit = result
        except (TypeError, ValueError):
            return
        matched = _matched(rows)
        if matched is not None:
            self.count("lookup_rows", matched)
            self.count("lookup_hits", bool(hit))
            self.count("lookups_observed")

    def _observe_condense(self, args: tuple, result: Any) -> None:
        matched, kind = args[0], args[1]
        if getattr(kind, "value", None) in PREDICT_KINDS:
            rows = _rows(matched)
            if rows is not None:
                self.count("condense_rows", rows)
                self.count("predict_condenses")

    def install(self) -> None:
        observers = {"rtcam.lookup": self._observe_lookup,
                     "prediction_map.condense": self._observe_condense}
        self.installed.add(OBSERVE)
        for owner_name, attr, name in SPANS:
            owner = _resolve(owner_name)
            if owner is None or not hasattr(owner, attr):
                continue
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                shim = classmethod(self.wrap(original.__func__, name, observers.get(name)))
            else:
                shim = self.wrap(original, name, observers.get(name))
            setattr(owner, attr, shim)
            self._undo.append(lambda o=owner, a=attr, f=original: setattr(o, a, f))
            self.installed.add(name)
        bits = _resolve("nertcam.sdr:Bits")
        post_init = inspect.getattr_static(bits, "__post_init__", None) if bits else None
        if post_init is not None:
            def counted(obj, _orig=post_init):
                self.count("bits")
                _orig(obj)
            bits.__post_init__ = counted
            self._undo.append(lambda: setattr(bits, "__post_init__", post_init))
            self.installed.add("sdr.bits")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # --- results -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def metrics(self, kinds: list[str], occupancy: list[int],
                scales: list[float]) -> dict[str, float]:
        """Per-layer metrics over every traced command; counts over the sim
        prefix. Each command's times are multiplied by its entry in scales,
        and set-up times by their median."""
        n = len(kinds)
        prefix = min(n, self.sim_prefix)
        names = self.names
        self_us: dict[str, float] = defaultdict(float)
        run_us_by_kind: dict[str, float] = defaultdict(float)
        span_calls: dict[str, int] = defaultdict(int)
        load_image_s = []
        for i, own in enumerate(self.self_times()):
            name = names[self.span_name[i]]
            cmd = self.span_cmd[i]
            if cmd < 0:
                if name == "rtcam.load_image":
                    load_image_s.append(self.end[i] - self.start[i])
                continue
            self_us[name] += own * 1e6 * scales[cmd]
            if name == "system.run":
                run_us_by_kind[kinds[cmd]] += (self.end[i] - self.start[i]) * 1e6 * scales[cmd]
            if cmd < prefix:
                span_calls[name] += 1

        out: dict[str, float] = {}
        for metric, spans in SELF_METRICS.items():
            if any(s in self.installed for s in spans):
                out[metric] = sum(self_us[s] for s in spans) / n
        if "system.run" in self.installed:
            out["system.run_us"] = sum(run_us_by_kind.values()) / n
            per_kind = defaultdict(int)
            for k in kinds:
                per_kind[k] += 1
            for k in COMMAND_KINDS:
                out[f"system.run_us.{k}"] = (run_us_by_kind[k] / per_kind[k]
                                             if per_kind[k] else 0.0)
        if "traces.to_command" in self.installed:
            out["traces.to_command_us"] = self_us["traces.to_command"] / n
        if "rtcam.load_image" in self.installed:
            out["rtcam.load_image_s"] = (statistics.median(load_image_s)
                                         * statistics.median(scales)
                                         if load_image_s else 0.0)

        c = self.counts
        if "rtcam.lookup" in self.installed:
            out["rtcam.lookups_per_cmd"] = span_calls["rtcam.lookup"] / prefix
            if c["lookups_observed"] or not span_calls["rtcam.lookup"]:
                looked = c["lookups_observed"]
                out["rtcam.rows_matched_per_lookup"] = c["lookup_rows"] / looked if looked else 0.0
                out["rtcam.lookup_hit_ratio"] = c["lookup_hits"] / looked if looked else 0.0
        out["rtcam.occupancy_rows"] = sum(occupancy[:prefix]) / prefix
        if "prediction_map.condense" in self.installed:
            calls = c["predict_condenses"]
            out["prediction_map.rows_per_condense"] = c["condense_rows"] / calls if calls else 0.0
        if "state_machine.step" in self.installed:
            out["state_machine.steps_per_cmd"] = span_calls["state_machine.step"] / prefix
        if "sdr.bits" in self.installed:
            out["sdr.bits_per_cmd"] = c["bits"] / prefix
        return out

    def write(self, path: Path, max_commands: int) -> None:
        """Write the spans of the first commands as JSON lines, times in µs."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            for i, name_idx in enumerate(self.span_name):
                cmd = self.span_cmd[i]
                if cmd >= max_commands:
                    continue
                fh.write(json.dumps({
                    "id": i, "name": self.names[name_idx], "cmd": cmd,
                    "parent": self.parent[i],
                    "start_us": round((self.start[i] - t0) * 1e6, 3),
                    "end_us": round((self.end[i] - t0) * 1e6, 3),
                }, separators=(",", ":")) + "\n")
