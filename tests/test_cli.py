"""End-to-end CLI: dataset generation, trace replay, diff, and bench."""

import hashlib
import json

import pytest

from nertcam import SdrLayout
from nertcam.cli import main
from nertcam.workload import (fuzz_records, generate_dataset, infer_trace,
                              store_trace)

L_SMALL = SdrLayout(8, 9, 4)  # 3x3 grid


# --- dataset generation -------------------------------------------------------


def test_gen_counts_one_sample():
    layout = SdrLayout(128, 25, 10)
    ds = generate_dataset(10, (5, 5), 128, 1, layout, seed=7)
    assert len(store_trace(ds)) == 250  # 10 classes x 25 locations


def test_gen_counts_twenty_samples():
    layout = SdrLayout(128, 25, 10)
    ds = generate_dataset(10, (5, 5), 128, 20, layout, seed=7)
    records = store_trace(ds)
    assert len(records) == 5000
    # distinct features per (class, location) make every triplet unique
    triplets = {(r.feature, r.location, r.class_) for r in records}
    assert len(triplets) == 5000


def test_gen_is_seed_deterministic(tmp_path):
    for out in ("a", "b"):
        code = main(["gen", "--classes", "4", "--grid", "3,3", "--features", "8",
                     "--layout", "8,9,4", "--seed", "11",
                     "--out-dir", str(tmp_path / out)])
        assert code == 0
    for name in ("dataset.json", "store.trace", "infer.trace"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_gen_parameter_errors(tmp_path, capsys):
    # an empty override is an error, not a request for the default, and so
    # is an item that is not ASCII digits with an optional minus
    for flags in (["--layout", ""], ["--grid", ""], ["--layout", "", "--grid", ""],
                  ["--grid=--5,5"], ["--layout=²,4,4"], ["--grid=+5,5"], ["--grid=1_0,5"]):
        code = main(["gen", *flags, "--out-dir", str(tmp_path)])
        assert code == 1
        what = "--layout must be 3" if "layout" in flags[0] else "--grid must be 2"
        assert f"error: {what} comma-separated integers" in capsys.readouterr().err
    # a grid that covers the location bits with negative dimensions
    for grid in ("-5,-5", "-1,-25"):
        code = main(["gen", f"--grid={grid}", "--out-dir", str(tmp_path)])
        assert code == 1
        assert ("grid dimensions must be positive, got " + grid.replace(",", "x")
                in capsys.readouterr().err)
    assert not any(tmp_path.iterdir())
    layout = SdrLayout(8, 9, 4)
    with pytest.raises(ValueError, match="grid"):
        generate_dataset(4, (2, 3), 8, 1, layout)
    with pytest.raises(ValueError, match="feature pool"):
        generate_dataset(4, (3, 3), 9, 1, layout)
    with pytest.raises(ValueError, match="classes"):
        generate_dataset(5, (3, 3), 8, 1, layout)
    with pytest.raises(ValueError, match="samples"):
        generate_dataset(4, (3, 3), 8, 9, layout)
    # no classes: an error, not an empty dataset and empty traces
    for classes in ("0", "-2"):
        code = main(["gen", "--classes", classes, "--grid", "3,3", "--features", "8",
                     "--layout", "8,9,4", "--out-dir", str(tmp_path)])
        assert code == 1
        assert f"classes must be >= 1, got {classes}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    with pytest.raises(ValueError, match="classes must be >= 1, got 0"):
        generate_dataset(0, (3, 3), 8, 1, layout)
    # no features: the error names the feature pool, not --samples
    for features in ("0", "-1"):
        code = main(["gen", "--classes", "4", "--grid", "3,3", "--features", features,
                     "--layout", "8,9,4", "--out-dir", str(tmp_path)])
        assert code == 1
        assert f"feature pool must be >= 1, got {features}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    with pytest.raises(ValueError, match="feature pool must be >= 1, got 0"):
        generate_dataset(4, (3, 3), 0, 1, layout)


def test_infer_trace_resets_between_objects():
    ds = generate_dataset(2, (3, 3), 8, 1, L_SMALL, seed=1)
    records = infer_trace(ds, "sequential")
    assert [r.op for r in records[:10]] == ["RESET"] + ["INFER"] * 9
    assert len(records) == 2 * 10


# --- run ------------------------------------------------------------------------


def _gen_and_run(tmp_path, capsys, extra_lines=(), order="random"):
    main(["gen", "--classes", "4", "--grid", "3,3", "--features", "8",
          "--layout", "8,9,4", "--seed", "3", "--order", order,
          "--out-dir", str(tmp_path)])
    capsys.readouterr()  # drop the gen status line
    if extra_lines:
        with open(tmp_path / "store.trace", "a") as fh:
            fh.writelines(line + "\n" for line in extra_lines)
    code = main(["run", "--layout", "8,9,4", "--entries", "64",
                 "--trace", str(tmp_path / "store.trace"),
                 "--trace", str(tmp_path / "infer.trace")])
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])["summary"]
    return code, [json.loads(line) for line in out[:-1]], summary


def test_run_identifies_every_object(tmp_path, capsys):
    code, records, summary = _gen_and_run(tmp_path, capsys)
    assert code == 0
    assert summary["identifications"] == 4
    assert summary["context_switches"] == 0
    assert summary["errors"] == {}
    assert summary["input_errors"] == 0
    assert summary["records"] == 4 * 9 + 4 * 10
    assert summary["mean_sensations_to_one_hot"] <= 9
    # reports carry enough to reconstruct the command stream
    assert all("op" in r for r in records)
    infer_reports = [r for r in records if r["op"] == "INFER"]
    assert all(set(r) >= {"seq", "feature", "location", "outcome", "cycles"}
               for r in infer_reports)


def test_run_continues_past_duplicate_store(tmp_path, capsys):
    dup = '{"op":"STORE","feature":0,"location":0,"class":0}'
    main(["gen", "--classes", "1", "--grid", "3,3", "--features", "8",
          "--layout", "8,9,4", "--seed", "0", "--out-dir", str(tmp_path)])
    capsys.readouterr()  # drop the gen status line
    trace = tmp_path / "t.trace"
    first = (tmp_path / "store.trace").read_text().splitlines()[0]
    trace.write_text(first + "\n" + first + "\n")
    code = main(["run", "--layout", "8,9,4", "--entries", "16",
                 "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in out[:-1]]
    assert code == 0  # a failed store is a status, not an input error
    assert [r["outcome"] for r in records] == ["SUCCESS", "STORE_FAILED"]
    assert json.loads(out[-1])["summary"]["errors"] == {"STORE_FAILED": 1}


def test_run_empty_trace(tmp_path, capsys):
    """A replay of no records is an error, not a zero summary."""
    trace = tmp_path / "empty.trace"
    trace.write_text("")
    for path in (str(trace), "/dev/null"):
        code = main(["run", "--layout", "8,9,4", "--entries", "4", "--trace", path])
        captured = capsys.readouterr()
        assert code == 1
        assert f"trace has no records: {path}" in captured.err
        assert captured.out == ""


def test_run_reports_input_errors_and_exits_nonzero(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text(
        '{"op":"STORE","feature":0,"location":0,"class":0}\n'
        '{"op":"INFER","feature":0,"location":0,"class":1}\n'  # class must be absent
        '{"op":"STORE","feature":99,"location":0,"class":0}\n'  # index out of range
        '{"op":"INFER","feature":0,"location":0}\n')
    code = main(["run", "--layout", "8,9,4", "--entries", "4",
                 "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in out[:-1]]
    assert code == 1
    assert [r["outcome"] for r in records] == [
        "SUCCESS", "INPUT_ERROR", "INPUT_ERROR", "SUCCESS"]
    assert json.loads(out[-1])["summary"]["input_errors"] == 2


def test_run_trace_cycles_emits_per_cycle_records(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text('{"op":"STORE","feature":0,"location":0,"class":0}\n')
    code = main(["run", "--layout", "8,9,4", "--entries", "4", "--trace-cycles",
                 "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    cycles = [json.loads(line) for line in out if "micro_op" in line]
    assert [c["micro_op"] for c in cycles] == ["lookup", "store", "reset"]
    assert [c["from"] for c in cycles] == ["SS", "FL", "IR"]
    assert cycles[-1]["outcome"] == "SUCCESS"


def test_run_parse_error_exits_one(tmp_path, capsys):
    trace = tmp_path / "broken.trace"
    trace.write_text("{not json\n")
    code = main(["run", "--layout", "8,9,4", "--entries", "4",
                 "--trace", str(trace)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # an explicit zero capacity is rejected, not replaced by the default
    trace.write_text('{"op": "RESET"}\n')
    for command in ("run", "diff"):
        code = main([command, "--layout", "8,4,2", "--entries", "0",
                     "--trace", str(trace)])
        assert code == 1
        assert "capacity must be >= 1, got 0" in capsys.readouterr().err
    # so is an empty override, with a message rather than a traceback
    code = main(["run", "--layout", "", "--trace", str(trace)])
    assert code == 1
    assert "error: --layout must be 3 comma-separated integers" in capsys.readouterr().err
    # and an item int() would not read, named by its flag
    for flag, what in (("--grid=--5,5", "--grid must be 2"),
                       ("--layout=²,4,4", "--layout must be 3")):
        code = main(["run", flag, "--trace", str(trace)])
        assert code == 1
        assert f"error: {what} comma-separated integers" in capsys.readouterr().err


# --- diff ------------------------------------------------------------------------


def test_diff_fuzz_clean(capsys):
    code = main(["diff", "--layout", "4,4,4", "--entries", "16",
                 "--ops", "2000", "--seed", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["divergences"] == 0


def test_diff_trace_clean(tmp_path, capsys):
    main(["gen", "--classes", "4", "--grid", "3,3", "--features", "8",
          "--layout", "8,9,4", "--seed", "3", "--out-dir", str(tmp_path)])
    capsys.readouterr()  # drop the gen status line
    code = main(["diff", "--layout", "8,9,4", "--entries", "64",
                 "--trace", str(tmp_path / "store.trace"),
                 "--trace", str(tmp_path / "infer.trace")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["divergences"] == 0


def test_diff_with_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"feature_bits": 4, "location_bits": 4, "class_bits": 4, '
                      '"entries": 16}\n')
    code = main(["diff", "--config", str(config), "--ops", "500", "--seed", "2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["records"] == 500


def test_run_without_config_builds_the_empty_config_files_device(tmp_path, capsys,
                                                                  monkeypatch):
    """run with no --config and run with a {} config file build equal
    devices, with or without flag overrides."""
    import nertcam.cli as cli_mod
    from nertcam import DEFAULT_LAYOUT, NertcamConfig, PaddingMode, System

    built = []

    def spy(config):
        built.append(config)
        return System(config)

    monkeypatch.setattr(cli_mod, "System", spy)
    trace = tmp_path / "one.trace"
    trace.write_text('{"op":"RESET"}\n')
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    flags = ["--layout", "4,9,4", "--entries", "8", "--grid", "3,3", "--khot"]
    for extra in ([], flags):
        for config in ([], ["--config", str(empty)]):
            assert main(["run", "--trace", str(trace), *config, *extra]) == 0
    capsys.readouterr()
    assert built[0] == built[1] == NertcamConfig(DEFAULT_LAYOUT, 1024)
    assert built[2] == built[3] == NertcamConfig(
        SdrLayout(4, 9, 4), 8, PaddingMode.grid(3, 3), khot_features=True)


@pytest.mark.parametrize("flags,message", [
    (["--ops", "-5"], "--ops must be >= 1, got -5"),
    (["--ops", "0"], "--ops must be >= 1, got 0"),
    (["--max-padding", "-1"], "max_padding must be >= 0, got -1"),
])
def test_diff_rejects_bad_fuzz_flags(flags, message, capsys):
    """A fuzz run of no commands would pass vacuously; a negative padding
    bound names the parameter rather than failing inside the RNG."""
    code = main(["diff", "--layout", "4,4,4", "--entries", "16", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert message in captured.err
    assert captured.out == ""
    with pytest.raises(ValueError, match="max_padding"):
        fuzz_records(SdrLayout(4, 4, 4), 10, max_padding=-1)


def test_diff_ignores_ops_with_a_trace(tmp_path, capsys):
    trace = tmp_path / "one.trace"
    trace.write_text('{"op":"STORE","feature":0,"location":0,"class":0}\n')
    code = main(["diff", "--layout", "4,4,4", "--entries", "16", "--ops", "0",
                 "--trace", str(trace)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"divergences": 0, "records": 1}


def test_diff_rejects_an_empty_trace(tmp_path, capsys):
    """A diff of no records would pass vacuously, as a fuzz run of no ops would;
    an empty file among non-empty ones is fine."""
    empty = tmp_path / "empty.trace"
    empty.write_text("\n")
    one = tmp_path / "one.trace"
    one.write_text('{"op":"STORE","feature":0,"location":0,"class":0}\n')
    for paths in ([str(empty)], ["/dev/null"], [str(empty), "/dev/null"]):
        code = main(["diff", "--layout", "4,4,4", "--entries", "16",
                     *(flag for path in paths for flag in ("--trace", path))])
        captured = capsys.readouterr()
        assert code == 1
        assert f"trace has no records: {', '.join(paths)}" in captured.err
        assert captured.out == ""
    code = main(["diff", "--layout", "4,4,4", "--entries", "16",
                 "--trace", str(empty), "--trace", str(one)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"divergences": 0, "records": 1}


# --- bench ----------------------------------------------------------------------


def test_bench_zero_iterations(capsys):
    """A run of no iterations would print a result line of another shape
    than the per-op rows, and pass vacuously."""
    for iterations in ("0", "-3"):
        code = main(["bench", "--layout", "8,8,8", "--entries", "8",
                     "--iterations", iterations])
        captured = capsys.readouterr()
        assert code == 1
        assert f"--iterations must be >= 1, got {iterations}" in captured.err
        assert captured.out == ""


def test_bench_reports_per_op_rows(capsys):
    code = main(["bench", "--layout", "8,8,8", "--entries", "8,16",
                 "--iterations", "5"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    rows = [json.loads(line) for line in out]
    assert {(r["entries"], r["op"]) for r in rows} == {
        (n, op) for n in (8, 16)
        for op in ("store", "lookup", "infer_hit", "predict_feature")}
    assert all(r["mean_us"] > 0 and r["ops_per_s"] > 0 for r in rows)


def test_bench_rejects_unfillable_capacity(capsys):
    code = main(["bench", "--layout", "2,2,2", "--entries", "64",
                 "--iterations", "1"])
    assert code == 1
    assert "cannot fill" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--layout", ""], "--layout must be 3 comma-separated integers"),
    (["--entries", ""], "--entries must be comma-separated integers"),
    (["--layout", "", "--entries", ""], "--layout must be 3 comma-separated integers"),
    (["--entries", "8,"], "--entries must be comma-separated integers"),
    (["--entries", "8,x"], "--entries must be comma-separated integers"),
])
def test_bench_rejects_malformed_overrides(flags, message, capsys):
    code = main(["bench", *flags, "--iterations", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


# --- report invariants -------------------------------------------------------


def test_report_reconstructs_the_command_stream(tmp_path, capsys):
    code, records, _ = _gen_and_run(tmp_path, capsys)
    assert code == 0
    original = [json.loads(line) for path in ("store.trace", "infer.trace")
                for line in (tmp_path / path).read_text().splitlines()]
    rebuilt = []
    for r in records:
        cmd = {"op": r["op"]}
        for key in ("feature", "feature_bits", "location", "class", "padding"):
            if key in r:
                cmd[key] = r[key]
        rebuilt.append(cmd)
    assert rebuilt == original


def test_run_output_is_byte_deterministic(tmp_path, capsys):
    main(["gen", "--classes", "4", "--grid", "3,3", "--features", "8",
          "--layout", "8,9,4", "--seed", "3", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    outputs = []
    for _ in range(2):
        code = main(["run", "--layout", "8,9,4", "--entries", "64",
                     "--trace", str(tmp_path / "store.trace"),
                     "--trace", str(tmp_path / "infer.trace")])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_diff_divergence_exits_two(tmp_path, capsys, monkeypatch):
    # forcing a fake divergence checks the reporting and exit-code plumbing
    import nertcam.cli as cli_mod
    from nertcam.lockstep import Divergence
    from nertcam.traces import TraceRecord

    def fake_diff(system, oracle, records):
        return Divergence(3, TraceRecord(op="INFER", feature=0, location=0),
                          ("classes",), "sys-view", "oracle-view")

    monkeypatch.setattr(cli_mod, "diff_records", fake_diff)
    code = main(["diff", "--layout", "4,4,4", "--entries", "16", "--ops", "10"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["divergences"] == 1
    assert out["seq"] == 3
    assert out["fields"] == ["classes"]


# --- golden output ---------------------------------------------------------------


_GOLDEN_GEN = ["gen", "--classes", "4", "--grid", "3,3", "--features", "8",
               "--layout", "8,9,4", "--samples", "2", "--seed", "3",
               "--order", "random", "--out-dir", "data"]


def _write_trace(name, records):
    with open(name, "w") as fh:
        fh.writelines(r.to_json() + "\n" for r in records)
    return name


def _golden_args(case):
    """Build a case's inputs under the current directory; return its argv."""
    replay = ["run", "--layout", "8,9,4", "--entries", "128",
              "--trace", "data/store.trace", "--trace", "data/infer.trace"]
    if case == "gen":
        return _GOLDEN_GEN
    if case in ("run", "run_cycles"):
        main(_GOLDEN_GEN)
        return replay + (["--trace-cycles"] if case == "run_cycles" else [])
    if case == "run_grid_padding_cycles":
        trace = _write_trace("grid.trace", fuzz_records(
            SdrLayout(16, 25, 8), 1500, seed=5, max_padding=2))
        return ["run", "--layout", "16,25,8", "--entries", "64", "--grid", "5,5",
                "--trace-cycles", "--trace", trace]
    if case == "run_khot":
        trace = _write_trace("khot.trace", fuzz_records(
            SdrLayout(8, 4, 4), 1500, seed=6, khot_features=True))
        return ["run", "--layout", "8,4,4", "--entries", "16", "--khot",
                "--trace", trace]
    if case == "run_input_errors":
        with open("bad.trace", "w") as fh:
            fh.write(
                '{"op":"STORE","feature":0,"location":0,"class":0}\n'
                '{"op":"INFER","feature":0,"location":0,"class":1}\n'
                '{"op":"STORE","feature":99,"location":0,"class":0}\n'
                '{"op":"PREDICT_LOCATION","feature":0,"padding":1}\n'
                '{"op":"STORE","feature_bits":"101","location":0,"class":0}\n'
                '{"op":"INFER","feature":0,"location":0}\n'
                '{"op":"PREDICT_FEATURE","location":0}\n')
        return ["run", "--layout", "8,9,4", "--entries", "4", "--trace", "bad.trace"]
    diff = ["diff", "--ops", "10000", "--seed", "99"]
    if case == "diff_444":
        return diff + ["--layout", "4,4,4", "--entries", "16"]
    if case == "diff_khot":
        return diff + ["--layout", "8,4,4", "--entries", "16", "--khot"]
    if case == "diff_grid":
        return diff + ["--layout", "16,25,8", "--entries", "64", "--grid", "5,5",
                       "--max-padding", "2"]
    raise AssertionError(case)


#: SHA-256 of stdout and the exit code per case. Only a deliberate change of
#: CLI output may record new digests.
GOLDEN = {
    "gen": ("db1b4fc14d26c737fccf4f871bc86af1d7e298abf20a71066b489f68b5486824", 0),
    "run": ("b3f2d092b6fa05e2f2923175ad5487db98eb137720827d39b7a4a4780ac775b6", 0),
    "run_cycles": ("2a9b649eae01934a21260f08ef3c4055e3c8ae2b6742591a0ff9f23311b27ba9", 0),
    "run_grid_padding_cycles":
        ("b46a2ddc7ff8de8568be38b39672f99c49b9f188d22697d996a56c28b8a4a478", 0),
    "run_khot": ("6b555423201261a02263195a7e47dbf6f777cd1ffbab78d66423afbd314083e9", 0),
    "run_input_errors":
        ("f4c6380f427914d2b059e6081aa6c2b7fc7ac061495e8d66c9425fc39220a15a", 1),
    "diff_444": ("69a48eb5d7a4c2b3e38043aab39c65a440465193d6e4007b1b58a0cd8be5c7ad", 0),
    "diff_khot": ("69a48eb5d7a4c2b3e38043aab39c65a440465193d6e4007b1b58a0cd8be5c7ad", 0),
    "diff_grid": ("69a48eb5d7a4c2b3e38043aab39c65a440465193d6e4007b1b58a0cd8be5c7ad", 0),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_matches_golden_digest(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = _golden_args(case)
    capsys.readouterr()  # drop output of input generation
    code = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, code) == GOLDEN[case]
