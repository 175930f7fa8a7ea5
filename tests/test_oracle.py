"""Set-semantics reference model used for differential testing."""

from nertcam import Bits, CommandKind, MacroCommand, Oracle, Outcome, SdrLayout


L333 = SdrLayout(3, 3, 3)


def oracle333(capacity=4, grid=None):
    return Oracle(3, 3, 3, capacity, grid=grid)


def cmd(layout, kind, feature=None, location=None, class_=None, padding=0):
    return MacroCommand(kind, layout.triplet(feature, location, class_),
                        padding=padding)


def test_store_and_infer_success():
    o = oracle333()
    assert o.apply(cmd(L333, CommandKind.STORE, 0, 0, 0)).outcome is Outcome.SUCCESS
    assert o.apply(cmd(L333, CommandKind.STORE, 0, 1, 1)).outcome is Outcome.SUCCESS
    resp = o.apply(cmd(L333, CommandKind.INFER, 0, 0))
    assert resp.outcome is Outcome.SUCCESS
    assert resp.classes == {0}
    assert o.valid == {0}


def test_infer_context_switch_when_pair_is_off_object():
    o = oracle333()
    o.apply(cmd(L333, CommandKind.STORE, 0, 0, 0))
    o.apply(cmd(L333, CommandKind.STORE, 0, 1, 1))
    o.apply(cmd(L333, CommandKind.INFER, 0, 0))
    resp = o.apply(cmd(L333, CommandKind.INFER, 0, 1))
    assert resp.outcome is Outcome.CONTEXT_SWITCH
    assert resp.classes == {1}
    assert o.valid == {1}


def test_infer_on_empty_set_fails_and_resets_valid():
    o = oracle333()
    resp = o.apply(cmd(L333, CommandKind.INFER, 0, 0))
    assert resp.outcome is Outcome.INFER_FAILED
    assert resp.classes == frozenset()
    assert o.valid == {0, 1, 2}


def test_store_duplicate_and_capacity():
    o = oracle333(capacity=2)
    assert o.apply(cmd(L333, CommandKind.STORE, 0, 0, 0)).outcome is Outcome.SUCCESS
    dup = o.apply(cmd(L333, CommandKind.STORE, 0, 0, 0))
    assert dup.outcome is Outcome.STORE_FAILED
    assert not dup.full
    o.apply(cmd(L333, CommandKind.STORE, 1, 1, 1))
    overflow = o.apply(cmd(L333, CommandKind.STORE, 2, 2, 2))
    assert overflow.outcome is Outcome.STORE_FAILED
    assert overflow.full


def test_store_resets_valid_even_on_failure():
    o = oracle333()
    o.apply(cmd(L333, CommandKind.STORE, 0, 0, 0))
    o.apply(cmd(L333, CommandKind.INFER, 0, 0))
    assert o.valid == {0}
    o.apply(cmd(L333, CommandKind.STORE, 0, 0, 0))  # duplicate, fails
    assert o.valid == {0, 1, 2}


def test_delete_semantics():
    o = oracle333()
    assert o.apply(cmd(L333, CommandKind.DELETE, 0, 0, 0)).outcome is Outcome.DELETE_FAILED
    o.apply(cmd(L333, CommandKind.STORE, 0, 0, 0))
    assert o.apply(cmd(L333, CommandKind.DELETE, 0, 0, 0)).outcome is Outcome.SUCCESS
    assert o.triplets == set()


def test_clear_and_reset():
    o = oracle333()
    o.apply(cmd(L333, CommandKind.STORE, 0, 0, 0))
    o.apply(cmd(L333, CommandKind.INFER, 0, 0))
    o.apply(cmd(L333, CommandKind.RESET, None, None))
    assert o.valid == {0, 1, 2}
    assert o.triplets
    o.apply(cmd(L333, CommandKind.CLEAR, None, None))
    assert o.triplets == set()


def test_predict_feature_respects_valid_set_and_window():
    o = oracle333()
    o.apply(cmd(L333, CommandKind.STORE, 0, 0, 0))
    o.apply(cmd(L333, CommandKind.STORE, 1, 1, 0))
    o.apply(cmd(L333, CommandKind.STORE, 2, 0, 1))
    o.apply(cmd(L333, CommandKind.INFER, 0, 0))  # valid = {0}
    exact = o.apply(cmd(L333, CommandKind.PREDICT_FEATURE, location=1))
    assert exact.features == {1}
    assert exact.classes == {0}
    padded = o.apply(cmd(L333, CommandKind.PREDICT_FEATURE, location=1, padding=1))
    assert padded.features == {0, 1}  # window now spans locations 0..2
    assert padded.locations == frozenset()
    assert o.valid == {0}  # predictions never disturb the candidate set


def test_predict_location():
    o = oracle333()
    o.apply(cmd(L333, CommandKind.STORE, 0, 0, 0))
    o.apply(cmd(L333, CommandKind.STORE, 0, 2, 1))
    resp = o.apply(cmd(L333, CommandKind.PREDICT_LOCATION, feature=0))
    assert resp.locations == {0, 2}
    assert resp.classes == {0, 1}
    assert resp.features == frozenset()


def test_grid_window_uses_chebyshev_distance():
    layout = SdrLayout(3, 9, 3)
    o = Oracle(3, 9, 3, 8, grid=(3, 3))
    o.apply(cmd(layout, CommandKind.STORE, 0, 0, 0))   # cell (0,0)
    o.apply(cmd(layout, CommandKind.STORE, 1, 8, 0))   # cell (2,2)
    resp = o.apply(cmd(layout, CommandKind.PREDICT_FEATURE, location=4, padding=1))
    assert resp.features == {0, 1}  # the whole grid is within Chebyshev 1 of center
    resp = o.apply(cmd(layout, CommandKind.PREDICT_FEATURE, location=0, padding=1))
    assert resp.features == {0}     # (2,2) is distance 2 from (0,0)


def test_khot_feature_keys_compare_exactly():
    o = oracle333()
    khot = Bits.parse("101|010|100")
    o.apply(MacroCommand(CommandKind.STORE, khot))
    miss = MacroCommand(CommandKind.INFER, Bits.parse("100|010|000"))
    assert o.apply(miss).outcome is Outcome.INFER_FAILED
    hit = MacroCommand(CommandKind.INFER, Bits.parse("101|010|000"))
    assert o.apply(hit).outcome is Outcome.SUCCESS
    resp = o.apply(MacroCommand(CommandKind.PREDICT_FEATURE, Bits.parse("000|010|000")))
    assert resp.features == {0, 2}  # union of the k-hot feature's bits
