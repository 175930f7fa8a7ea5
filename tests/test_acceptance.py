"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from contextlib import contextmanager

from nertcam import (Bits, CommandKind, LookupScope, MacroCommand,
                     MemoryArray, NertcamConfig, Outcome, SdrLayout, System,
                     build_dc, concat)
from reference import equality_match, padding_window
from nertcam.lockstep import diff_records, oracle_for
from nertcam.traces import record_to_command
from nertcam.workload import fuzz_records, generate_dataset, store_trace


FULL_SCALE = SdrLayout(128, 25, 10)  # 163-bit SDRs, 165-bit rows


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] C{number} {title}: FAIL")
        raise
    print(f"[ACCEPTANCE] C{number} {title}: PASS")


def cmd(kind, text, padding=0):
    return MacroCommand(kind, Bits.parse(text), padding=padding)


def test_c1_dc_mask_fidelity(layout333):
    with criterion(1, "DC-mask fidelity"):
        assert str(build_dc(cmd(CommandKind.STORE, "001|010|100"), layout333)) \
            == "000000000"
        assert str(build_dc(cmd(CommandKind.DELETE, "001|010|100"), layout333)) \
            == "000000000"
        assert str(build_dc(cmd(CommandKind.INFER, "001|010|000"), layout333)) \
            == "000000111"
        assert str(build_dc(cmd(CommandKind.PREDICT_FEATURE, "000|010|000"),
                            layout333)) == "111000111"
        assert str(build_dc(cmd(CommandKind.PREDICT_LOCATION, "001|000|000"),
                            layout333)) == "000111111"


def test_c2_padding_fidelity():
    with criterion(2, "padding fidelity"):
        query = Bits.parse("00100")
        mask = padding_window(query, 1)
        assert str(mask) == "01110"
        accepted = {text for text in ("10000", "01000", "00100", "00010", "00001")
                    if equality_match(Bits.parse(text), query, mask)}
        assert accepted == {"00100", "01000", "00010"}


def test_c3_cycle_count_table():
    layout = SdrLayout(3, 3, 3)

    def fresh(*triplets):
        system = System(NertcamConfig(layout=layout, capacity=4))
        for t in triplets:
            assert system.run(cmd(CommandKind.STORE, t)).outcome is Outcome.SUCCESS
        return system

    with criterion(3, "cycle-count table"):
        s = fresh("001|010|100")
        assert s.run(cmd(CommandKind.CLEAR, "000|000|000")).cycles == 1
        assert s.run(cmd(CommandKind.RESET, "000|000|000")).cycles == 1

        s = fresh("001|010|100")
        assert s.run(cmd(CommandKind.PREDICT_FEATURE, "000|010|000")).cycles == 1
        assert s.run(cmd(CommandKind.PREDICT_LOCATION, "001|000|000")).cycles == 1

        s = fresh("001|010|100")
        dup = s.run(cmd(CommandKind.STORE, "001|010|100"))
        assert (dup.outcome, dup.cycles) == (Outcome.STORE_FAILED, 2)
        ok = s.run(cmd(CommandKind.STORE, "010|100|010"))
        assert (ok.outcome, ok.cycles) == (Outcome.SUCCESS, 3)

        absent = s.run(cmd(CommandKind.DELETE, "100|001|001"))
        assert (absent.outcome, absent.cycles) == (Outcome.DELETE_FAILED, 2)
        gone = s.run(cmd(CommandKind.DELETE, "010|100|010"))
        assert (gone.outcome, gone.cycles) == (Outcome.SUCCESS, 3)

        s = fresh("001|010|100", "010|100|010")
        hit = s.run(cmd(CommandKind.INFER, "001|010|000"))
        assert (hit.outcome, hit.cycles) == (Outcome.SUCCESS, 2)
        ctx = s.run(cmd(CommandKind.INFER, "010|100|000"))
        assert (ctx.outcome, ctx.cycles) == (Outcome.CONTEXT_SWITCH, 4)
        bad = s.run(cmd(CommandKind.INFER, "100|001|000"))
        assert (bad.outcome, bad.cycles) == (Outcome.INFER_FAILED, 4)


def test_c4_oracle_equivalence():
    with criterion(4, "oracle equivalence (seeded fuzz)"):
        small = NertcamConfig(layout=SdrLayout(4, 4, 4), capacity=16)
        records = fuzz_records(small.layout, 10_000, seed=20240817)
        assert diff_records(System(small), oracle_for(small), records) is None

        medium = NertcamConfig(layout=SdrLayout(8, 8, 8), capacity=64)
        records = fuzz_records(medium.layout, 1_000, seed=31)
        assert diff_records(System(medium), oracle_for(medium), records) is None


def _infer(system, feature, location):
    return system.run(MacroCommand(
        CommandKind.INFER, system.layout.triplet(feature, location)))


def _reset(system):
    return system.run(MacroCommand(CommandKind.RESET,
                                   Bits.zeros(system.layout.total)))


def test_c5_sequential_identification():
    with criterion(5, "sequential identification"):
        # unique-map dataset: 10 classes on a 5x5 grid, one sample each
        ds = generate_dataset(10, (5, 5), 128, 1, FULL_SCALE, seed=5050)
        maps = {c: ds.maps[(c, 0)] for c in range(10)}
        assert len({tuple(sorted(m.items())) for m in maps.values()}) == 10

        system = System(NertcamConfig(layout=FULL_SCALE, capacity=256))
        for rec in store_trace(ds):
            resp = system.run(record_to_command(rec, FULL_SCALE))
            assert resp.outcome is Outcome.SUCCESS

        rng = random.Random(99)
        for target in range(10):
            for _ in range(100):
                order = list(range(25))
                rng.shuffle(order)
                _reset(system)
                previous = set(range(10))
                sensations = 0
                for loc in order:
                    resp = _infer(system, maps[target][loc], loc)
                    sensations += 1
                    assert resp.outcome is Outcome.SUCCESS
                    current = set(resp.classes.hot_positions)
                    assert current <= previous  # monotone non-increasing
                    previous = current
                    if len(current) == 1:
                        break
                assert sensations <= 25
                assert previous == {target}

        # overlapping maps: convergence exactly at the first sensation that
        # tells the classes apart, computed independently on index sets
        base = dict(maps[0])
        variant_b = dict(base)
        variant_c = dict(base)
        for loc in (3, 17):
            variant_b[loc] = (base[loc] + 1) % 128
        for loc in (8, 11, 22):
            variant_c[loc] = (base[loc] + 2) % 128
        overlapping = {0: base, 1: variant_b, 2: variant_c}

        system = System(NertcamConfig(layout=FULL_SCALE, capacity=128))
        for c, mapping in overlapping.items():
            for loc, feat in mapping.items():
                resp = system.run(MacroCommand(
                    CommandKind.STORE, FULL_SCALE.triplet(feat, loc, c)))
                assert resp.outcome is Outcome.SUCCESS

        for _ in range(100):
            order = list(range(25))
            rng.shuffle(order)
            survivors = set(overlapping)
            expected_first = None
            for k, loc in enumerate(order, start=1):
                survivors = {c for c in survivors
                             if overlapping[c][loc] == base[loc]}
                if survivors == {0} and expected_first is None:
                    expected_first = k
            assert expected_first is not None

            _reset(system)
            actual_first = None
            for k, loc in enumerate(order, start=1):
                resp = _infer(system, base[loc], loc)
                assert resp.outcome is Outcome.SUCCESS
                if resp.classes.popcount == 1 and actual_first is None:
                    actual_first = k
                    assert resp.classes.hot_positions == (0,)
                    break
            assert actual_first == expected_first


def test_c6_context_switch_detection():
    layout = SdrLayout(16, 9, 4)
    differ = {1, 7}  # locations where the second object disagrees
    rng = random.Random(7)
    map_a = {loc: rng.randrange(16) for loc in range(9)}
    map_b = {loc: (feat + 1) % 16 if loc in differ else feat
             for loc, feat in map_a.items()}

    def build():
        system = System(NertcamConfig(layout=layout, capacity=32))
        for c, mapping in ((0, map_a), (1, map_b)):
            for loc, feat in mapping.items():
                assert system.run(MacroCommand(
                    CommandKind.STORE,
                    layout.triplet(feat, loc, c))).outcome is Outcome.SUCCESS
        return system

    with criterion(6, "context-switch detection"):
        # the second object's stream opens with shared sensations, so the
        # switch must surface exactly at its first unique pair
        shared = [loc for loc in range(9) if loc not in differ]
        b_order = shared[:4] + [1] + shared[4:] + [7]
        unique_at = b_order.index(1)

        system = build()
        for loc in range(9):
            assert _infer(system, map_a[loc], loc).outcome is Outcome.SUCCESS

        outcomes = []
        suffix = []
        for loc in b_order:
            resp = _infer(system, map_b[loc], loc)
            outcomes.append(resp.outcome)
            if len(outcomes) > unique_at:
                suffix.append(resp)
        assert outcomes[:unique_at] == [Outcome.SUCCESS] * unique_at
        assert outcomes[unique_at] is Outcome.CONTEXT_SWITCH
        assert Outcome.CONTEXT_SWITCH not in outcomes[unique_at + 1:]

        # a fresh-RESET replay of the suffix matches record for record
        replay = build()
        for loc in range(9):
            assert _infer(replay, map_a[loc], loc).outcome is Outcome.SUCCESS
        _reset(replay)
        for i, loc in enumerate(b_order[unique_at:]):
            resp = _infer(replay, map_b[loc], loc)
            assert resp.classes == suffix[i].classes
            if i == 0:
                assert resp.outcome is Outcome.SUCCESS  # only the status differs
            else:
                assert resp.outcome is suffix[i].outcome


def test_c7_capacity_at_full_scale():
    with criterion(7, "capacity at 1024 entries, 165-bit rows"):
        assert FULL_SCALE.total == 163
        system = System(NertcamConfig(layout=FULL_SCALE, capacity=1024))

        def triplet(i):
            return FULL_SCALE.triplet(i % 128, (i // 128) % 25, (i // 3200) % 10)

        for i in range(1024):
            resp = system.run(MacroCommand(CommandKind.STORE, triplet(i)))
            assert resp.outcome is Outcome.SUCCESS
        assert system.memory.full
        assert system.memory.occupancy == 1024

        overflow = system.run(MacroCommand(CommandKind.STORE, triplet(1024)))
        assert overflow.outcome is Outcome.STORE_FAILED
        assert overflow.full

        freed = system.run(MacroCommand(CommandKind.DELETE, triplet(0)))
        assert freed.outcome is Outcome.SUCCESS
        assert not freed.full
        assert not system.memory.full


def test_c8_scaling_smoke():
    with criterion(8, "scaling smoke (lookup under 1 ms, at-most-linear)"):
        mem = MemoryArray(FULL_SCALE, 1024)
        for i in range(1024):
            mem.micro_store(FULL_SCALE.triplet(i % 128, (i // 128) % 25,
                                               (i // 3200) % 10))
        probe = FULL_SCALE.triplet(5, 3, 1)
        dc = Bits.zeros(FULL_SCALE.total)
        best = min(_timed(mem, probe, dc) for _ in range(30))
        assert best < 1e-3  # single 163-bit lookup across 1024 rows

        lookup_us = {}
        for n in (64, 128, 256, 512, 1024):
            # filled as `nertcam bench` fills its device: seeded distinct
            # triplets, the first of them the probe
            rng = random.Random(0)
            triplets = {}
            while len(triplets) < n:
                triplets.setdefault((rng.randrange(128), rng.randrange(25), rng.randrange(10)))
            mem = MemoryArray(FULL_SCALE, n)
            for t in triplets:
                mem.micro_store(FULL_SCALE.triplet(*t))
            probe = FULL_SCALE.triplet(*next(iter(triplets)))
            t0 = time.perf_counter()
            for _ in range(30):
                mem.micro_lookup(probe, dc, LookupScope.ALL)
            lookup_us[n] = (time.perf_counter() - t0) / 30 * 1e6
        assert lookup_us[1024] < 1000.0
        # 16x more rows may cost at most 16x (plus generous noise slack)
        assert lookup_us[1024] <= lookup_us[64] * 16 * 2.5


def _timed(mem, probe, dc):
    t0 = time.perf_counter()
    mem.micro_lookup(probe, dc, LookupScope.ALL)
    return time.perf_counter() - t0
