"""Output condenser: OR-reduction of matched rows, gated by command kind."""

import random

import pytest

from nertcam import Bits, CommandKind, MemoryArray, SdrLayout, concat, condense
from nertcam.prediction_map import zero_output

L333 = SdrLayout(3, 3, 3)


def memory(*texts):
    """A memory holding the triplet texts in rows 0.., one spare row."""
    mem = MemoryArray(L333, len(texts) + 1)
    for t in texts:
        mem.micro_store(Bits.parse(t))
    return mem


def test_predict_feature_unions_features_and_classes():
    # union oracle: features {001, 100} -> 101, classes {100, 010} -> 110
    mem = memory("001|010|100", "100|010|010", "010|001|001")
    out = condense(0b011, CommandKind.PREDICT_FEATURE, mem)  # row 2 unmatched
    assert str(out.features) == "101"
    assert str(out.locations) == "000"
    assert str(out.classes) == "110"
    assert out != zero_output(L333)


def test_predict_location_with_no_matches_is_all_zero():
    out = condense(0, CommandKind.PREDICT_LOCATION, memory("001|010|100"))
    assert out == zero_output(L333)


def test_predict_location_gates_features_low():
    mem = memory("001|010|100", "001|100|010")
    out = condense(0b11, CommandKind.PREDICT_LOCATION, mem)
    assert str(out.features) == "000"
    assert str(out.locations) == "110"
    assert str(out.classes) == "110"


@pytest.mark.parametrize("kind", [CommandKind.INFER, CommandKind.STORE,
                                  CommandKind.DELETE, CommandKind.CLEAR,
                                  CommandKind.RESET])
def test_non_predict_commands_emit_nothing(kind):
    mem = memory("001|010|100", "100|010|010")
    assert condense(0b11, kind, mem) == zero_output(L333)


def test_outputs_are_exact_unions_with_bounded_popcount():
    rng = random.Random(9)
    for _ in range(100):
        mem = MemoryArray(L333, 8)
        matched = 0
        f_union = l_union = c_union = 0
        for _ in range(rng.randrange(8)):
            f, l, c = (rng.randrange(3) for _ in range(3))
            t = concat(Bits.one_hot(3, f), Bits.one_hot(3, l), Bits.one_hot(3, c))
            row = mem.micro_store(t)
            if rng.random() < 0.5:
                continue  # stored but not matched: must not reach the output
            matched |= 1 << row
            f_union |= Bits.one_hot(3, f).value
            l_union |= Bits.one_hot(3, l).value
            c_union |= Bits.one_hot(3, c).value
        for kind in (CommandKind.PREDICT_FEATURE, CommandKind.PREDICT_LOCATION):
            out = condense(matched, kind, mem)
            assert out.classes.value == c_union
            if kind is CommandKind.PREDICT_FEATURE:
                assert out.features.value == f_union
                assert out.locations.value == 0
            else:
                assert out.locations.value == l_union
                assert out.features.value == 0
            # gating: never both sections nonzero
            assert not out.features.value or not out.locations.value
            for section in (out.features, out.locations, out.classes):
                assert section.popcount <= matched.bit_count()


def test_one_hot_class_output_iff_single_shared_class():
    same = memory("001|010|100", "010|100|100")
    out = condense(0b11, CommandKind.PREDICT_FEATURE, same)
    assert out.classes.popcount == 1
    mixed = memory("001|010|100", "010|100|010")
    out = condense(0b11, CommandKind.PREDICT_FEATURE, mixed)
    assert out.classes.popcount == 2


def test_condense_matches_row_by_row_or_on_arbitrary_rows():
    """Rows with arbitrary bits, dead rows among them: each PREDICT output is
    the OR of the matched live rows, section by section, with the echoed
    section gated low. The gated section's columns are never read."""
    layout = SdrLayout(8, 6, 4)
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    width = layout.total
    rng = random.Random(17)
    for capacity in (1, 5, 64):
        for _ in range(30):
            mem = MemoryArray(layout, capacity)
            for _ in range(capacity):
                mem.micro_store(Bits(rng.getrandbits(width), width))
            mem.valid = rng.getrandbits(capacity)
            mem.micro_delete()  # released rows keep their (dead) bits
            matched = rng.getrandbits(capacity) & mem.occupied
            union = 0
            for i, row in enumerate(mem.rows):
                if matched >> i & 1:
                    union |= row
            feature, location, class_ = layout.split(Bits(union, width))
            cols = mem._cols
            for kind, gated in ((CommandKind.PREDICT_FEATURE, range(c, c + l)),
                                (CommandKind.PREDICT_LOCATION, range(c + l, width))):
                # a gated column that is read raises TypeError
                mem._cols = [None if k in gated else col for k, col in enumerate(cols)]
                out = condense(matched, kind, mem)
                assert out.classes == class_
                if kind is CommandKind.PREDICT_FEATURE:
                    assert (out.features, out.locations) == (feature, Bits.zeros(l))
                else:
                    assert (out.features, out.locations) == (Bits.zeros(f), location)
