"""Bit-string container, section layout, and the two matching predicates.

The matching predicates are checked against character-level brute-force
oracles so the int-packed implementation cannot hide an indexing slip.
"""

import random

import pytest

from nertcam import Bits, LayoutError, SdrLayout, concat
from nertcam.sdr import _section_value
from reference import equality_match, membership_match, ones, split


def brute_equality(stored: str, query: str, dc: str) -> bool:
    return all(s == q for s, q, d in zip(stored, query, dc) if d == "0")


def brute_membership(stored: str, query: str, dc: str) -> bool:
    return any(d == "0" and q == "1" and s == "1"
               for s, q, d in zip(stored, query, dc))


def B(text: str) -> Bits:
    return Bits.parse(text)


# --- container basics --------------------------------------------------------


def test_parse_str_round_trip():
    for text in ("001010100", "000000000", "1", "0", "111000111"):
        assert str(Bits.parse(text)) == text


def test_parse_accepts_section_separators():
    assert str(Bits.parse("001|010|100")) == "001010100"
    assert Bits.parse("001|010|100", width=9) == Bits.parse("001010100")


def test_parse_rejects_bad_input():
    with pytest.raises(LayoutError):
        Bits.parse("0012")
    with pytest.raises(LayoutError):
        Bits.parse("0101", width=5)


def test_leftmost_character_is_position_zero():
    b = B("100000000")
    assert b.hot_positions == (0,)
    assert Bits.one_hot(9, 0) == b
    assert Bits.one_hot(9, 8) == B("000000001")


def test_hot_positions_ascend():
    assert B("0110100").hot_positions == (1, 2, 4)
    assert B("0000").hot_positions == ()
    assert Bits.from_positions(7, [4, 1, 2]) == B("0110100")


def test_constructors_and_ops():
    assert str(Bits.zeros(4)) == "0000"
    assert str(ones(4)) == "1111"
    assert B("0101").popcount == 2


def test_value_must_fit_width():
    with pytest.raises(LayoutError):
        Bits(8, 3)
    Bits(7, 3)  # fits


# --- layout and split --------------------------------------------------------


def test_layout_requires_positive_widths():
    with pytest.raises(LayoutError):
        SdrLayout(0, 3, 3)
    with pytest.raises(LayoutError):
        SdrLayout(3, 3, 0)


@pytest.mark.parametrize("text,expect", [
    ("001010100", ("001", "010", "100")),
    ("000000000", ("000", "000", "000")),
    ("111000111", ("111", "000", "111")),
])
def test_split_examples(layout333, text, expect):
    f, l, c = split(layout333, B(text))
    assert (str(f), str(l), str(c)) == expect


def test_split_width_mismatch(layout333):
    with pytest.raises(LayoutError):
        split(layout333, B("0101"))


def test_split_concat_identity_across_widths():
    rng = random.Random(7)
    for fw in (1, 2, 3, 7, 16, 64, 128, 256):
        for lw in (1, 5, 25, 256):
            for cw in (1, 10, 256):
                layout = SdrLayout(fw, lw, cw)
                value = rng.getrandbits(layout.total)
                sdr = Bits(value, layout.total)
                f, l, c = split(layout, sdr)
                assert concat(f, l, c) == sdr
                assert str(f) + str(l) + str(c) == str(sdr)


def test_triplet_checks_section_widths(layout333):
    with pytest.raises(LayoutError, match="feature section width 4"):
        layout333.triplet(B("0011"), 1, 0)
    assert layout333.triplet(B("001"), 1, 0) == B("001010100")


def test_triplet_from_hot_indices(layout333):
    assert layout333.triplet(2, 1, 0) == B("001|010|100")
    assert layout333.triplet(class_=2) == B("000|000|001")
    assert layout333.triplet() == Bits.zeros(9)
    assert SdrLayout(4, 2, 3).triplet(B("1011"), 0) == B("1011|10|000")


@pytest.mark.parametrize("args,message", [
    ((3, 0, 0), "feature index 3 outside width 3"),
    ((0, 3, 0), "location index 3 outside width 3"),
    ((0, 0, -1), "class index -1 outside width 3"),
])
def test_triplet_index_range(layout333, args, message):
    with pytest.raises(LayoutError, match=message):
        layout333.triplet(*args)


def _ref_triplet(layout, feature=None, location=None, class_=None):
    """SdrLayout.triplet with every section through _section_value."""
    l, c = layout.location_bits, layout.class_bits
    return Bits(_section_value("feature", layout.feature_bits, feature) << (l + c)
                | _section_value("location", l, location) << c
                | _section_value("class", c, class_),
                layout.total)


def _result(fn, *args):
    """What a call gives: ("ok", result) or ("raises", message)."""
    try:
        return "ok", fn(*args)
    except LayoutError as exc:
        return "raises", str(exc)


def test_inline_triplet_matches_section_value_path():
    """Every in-range index of every section, a missing section and a k-hot
    feature give the _section_value path's SDR; -1, the section width and a
    wrong-width feature raise its LayoutError, first section first."""
    layout = SdrLayout(4, 3, 5)
    f, l, c = layout.feature_bits, layout.location_bits, layout.class_bits
    features = [None, *range(f), B("1011"), B("0000")]
    for feature in features:
        for location in (None, *range(l)):
            for class_ in (None, *range(c)):
                args = (feature, location, class_)
                got = layout.triplet(*args)
                assert got == _ref_triplet(layout, *args)
                assert type(got) is Bits
    bad = {"feature": (-1, f, B("101"), B("10110")), "location": (-1, l), "class": (-1, c)}
    for section, values in bad.items():
        for value in values:
            for others in (0, None, -1):
                args = {"feature": others, "location": others, "class_": others}
                args["class_" if section == "class" else section] = value
                got = _result(layout.triplet, args["feature"], args["location"],
                              args["class_"])
                assert got[0] == "raises"
                assert got == _result(_ref_triplet, layout, args["feature"],
                                      args["location"], args["class_"])


def test_pretty(layout333):
    assert layout333.pretty(B("001010100")) == "001|010|100"
    assert SdrLayout(4, 1, 2).pretty(B("0000101")) == "0000|1|01"
    with pytest.raises(LayoutError, match="SDR width 8 != layout total 9"):
        layout333.pretty(B("00101010"))


# --- one-hot: a popcount of one ----------------------------------------------


@pytest.mark.parametrize("text,expect", [
    ("010", True), ("000", False), ("110", False), ("1", True), ("001", True),
])
def test_is_one_hot(text, expect):
    assert (B(text).popcount == 1) is expect


# --- equality match ----------------------------------------------------------


def test_equality_match_frozen_examples():
    # expected values computed with the per-bit brute-force oracle
    cases = [
        ("001010100", "001010000", "000000111", True),
        ("001010100", "010010000", "000000111", False),
    ]
    for stored, query, dc, expect in cases:
        assert brute_equality(stored, query, dc) is expect
        assert equality_match(B(stored), B(query), B(dc)) is expect


def test_equality_match_all_ones_mask_matches_anything():
    rng = random.Random(3)
    for _ in range(50):
        s = Bits(rng.getrandbits(9), 9)
        q = Bits(rng.getrandbits(9), 9)
        assert equality_match(s, q, ones(9))


def test_equality_match_zero_mask_is_equality():
    s = B("001010100")
    assert equality_match(s, s, Bits.zeros(9))
    assert not equality_match(s, B("001010101"), Bits.zeros(9))


def test_equality_match_width_mismatch():
    with pytest.raises(LayoutError):
        equality_match(B("01"), B("011"), B("011"))


def test_equality_match_exhaustive_vs_oracle_width4():
    for sv in range(16):
        for qv in range(16):
            for dv in range(16):
                s, q, d = Bits(sv, 4), Bits(qv, 4), Bits(dv, 4)
                expect = brute_equality(str(s), str(q), str(d))
                assert equality_match(s, q, d) is expect
                # symmetry
                assert equality_match(q, s, d) is expect


def test_equality_match_monotone_in_masking():
    # adding don't-care bits can only preserve a match, never break one
    for sv in range(16):
        for qv in range(16):
            for dv in range(16):
                s, q, d = Bits(sv, 4), Bits(qv, 4), Bits(dv, 4)
                if equality_match(s, q, d):
                    wider = Bits(dv | (sv ^ qv) & 0xF, 4)
                    assert equality_match(s, q, Bits(dv | wider.value, 4))
                    for extra in range(16):
                        assert equality_match(s, q, Bits(dv | extra, 4))


# --- membership match --------------------------------------------------------


def test_membership_match_frozen_examples():
    cases = [
        ("000000010", "000000110", "111111001", True),
        ("000000001", "000000110", "111111001", False),
    ]
    for stored, query, dc, expect in cases:
        assert brute_membership(stored, query, dc) is expect
        assert membership_match(B(stored), B(query), B(dc)) is expect


def test_membership_match_all_ones_mask_is_vacuous():
    rng = random.Random(5)
    for _ in range(50):
        s = Bits(rng.getrandbits(9), 9)
        q = Bits(rng.getrandbits(9), 9)
        assert not membership_match(s, q, ones(9))


def test_membership_match_exhaustive_vs_oracle_width4():
    for sv in range(16):
        for qv in range(16):
            for dv in range(16):
                s, q, d = Bits(sv, 4), Bits(qv, 4), Bits(dv, 4)
                expect = brute_membership(str(s), str(q), str(d))
                assert membership_match(s, q, d) is expect
                if expect:
                    # some unmasked query bit must be hot
                    unmasked_hot = sum(1 for qc, dc_ in zip(str(q), str(d))
                                       if qc == "1" and dc_ == "0")
                    assert unmasked_hot >= 1


def test_membership_one_hot_class_is_set_membership():
    """For one-hot stored class and a mask exposing exactly the query's hot
    positions, membership holds iff the stored hot index is in the query's
    hot set. Exhaustive for class widths up to 10."""
    for width in range(1, 11):
        for stored_idx in range(width):
            stored = Bits.one_hot(width, stored_idx)
            for qv in range(1 << width):
                query = Bits(qv, width)
                # zeros exactly at the query-hot positions
                dc = Bits(qv ^ ((1 << width) - 1), width)
                expect = stored_idx in query.hot_positions
                assert membership_match(stored, query, dc) is expect
