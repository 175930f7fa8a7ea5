"""Trace-record and config-file parsing."""

import pytest

from nertcam import CommandKind, SdrLayout
from nertcam.traces import (ParseError, TraceRecord, config_from_json,
                            parse_record, parse_trace, record_to_command)


def test_record_json_round_trip():
    records = [
        TraceRecord(op="STORE", feature=5, location=12, class_=3),
        TraceRecord(op="INFER", feature=5, location=12),
        TraceRecord(op="PREDICT_FEATURE", location=12, padding=1),
        TraceRecord(op="PREDICT_LOCATION", feature=5),
        TraceRecord(op="STORE", feature_bits="0110", location=1, class_=0),
        TraceRecord(op="RESET"),
        TraceRecord(op="CLEAR"),
    ]
    for r in records:
        again = parse_record(r.to_json())
        assert again.to_json() == r.to_json()


def test_parse_record_errors():
    with pytest.raises(ParseError, match="not valid JSON"):
        parse_record("{oops", line=3)
    with pytest.raises(ParseError, match="'op'"):
        parse_record('{"feature": 1}', line=1)
    with pytest.raises(ParseError, match="unknown op"):
        parse_record('{"op": "LOOKUP"}', line=2)
    with pytest.raises(ParseError, match="unknown fields"):
        parse_record('{"op": "RESET", "bogus": 1}')
    with pytest.raises(ParseError, match="non-negative integer"):
        parse_record('{"op": "STORE", "feature": -1, "location": 0, "class": 0}')
    with pytest.raises(ParseError, match="feature_bits"):
        parse_record('{"op": "STORE", "feature_bits": "01x"}')


def test_parse_trace_skips_blanks_and_comments():
    lines = [
        "",
        "# a comment",
        '{"op": "RESET"}',
        "   ",
        '{"op": "INFER", "feature": 0, "location": 1}',
    ]
    records = list(parse_trace(lines))
    assert [r.op for r in records] == ["RESET", "INFER"]
    assert [r.line for r in records] == [3, 5]


def test_record_to_command_builds_one_hot_sections():
    layout = SdrLayout(4, 4, 4)
    rec = parse_record('{"op": "STORE", "feature": 0, "location": 2, "class": 3}')
    cmd = record_to_command(rec, layout)
    assert cmd.kind is CommandKind.STORE
    assert str(cmd.sdr) == "100000100001"


def test_record_to_command_khot_feature_bits():
    layout = SdrLayout(4, 4, 4)
    rec = parse_record('{"op": "INFER", "feature_bits": "0110", "location": 0}')
    cmd = record_to_command(rec, layout)
    assert str(cmd.sdr) == "011010000000"


def test_record_to_command_index_out_of_width():
    layout = SdrLayout(4, 4, 4)
    rec = parse_record('{"op": "STORE", "feature": 9, "location": 0, "class": 0}',
                       line=12)
    with pytest.raises(ParseError, match="line 12"):
        record_to_command(rec, layout)


def test_record_to_command_rejects_both_feature_forms():
    layout = SdrLayout(4, 4, 4)
    rec = TraceRecord(op="STORE", feature=1, feature_bits="0110", location=0, class_=0)
    with pytest.raises(ParseError, match="not both"):
        record_to_command(rec, layout)


def test_record_to_command_rejects_unknown_op():
    # records built directly, not parsed, can carry any op
    with pytest.raises(ValueError, match="BOGUS") as excinfo:
        record_to_command(TraceRecord(op="BOGUS"), SdrLayout(4, 4, 4))
    assert not isinstance(excinfo.value, ParseError)


def test_config_round_trip():
    from nertcam import NertcamConfig, PaddingMode
    config = NertcamConfig(layout=SdrLayout(128, 25, 10), capacity=512,
                           padding_mode=PaddingMode.grid(5, 5), khot_features=True)
    text = ('{"feature_bits": 128, "location_bits": 25, "class_bits": 10, '
            '"entries": 512, "grid": [5, 5], "khot_features": true}')
    assert config_from_json(text) == config


def test_config_defaults():
    config = config_from_json("{}")
    assert config.layout == SdrLayout(128, 25, 10)
    assert config.capacity == 1024
    assert not config.padding_mode.is_grid


def test_config_errors():
    with pytest.raises(ParseError, match="unknown config fields"):
        config_from_json('{"entires": 64}')
    with pytest.raises(ParseError, match="grid"):
        config_from_json('{"grid": [4, 5]}')  # 4x5 != 25 location bits
    with pytest.raises(ParseError, match="two-element"):
        config_from_json('{"grid": [25]}')
    with pytest.raises(ParseError, match="JSON"):
        config_from_json("not json")
    # types are checked, never coerced
    with pytest.raises(ParseError, match="khot_features"):
        config_from_json('{"khot_features": "false"}')
    with pytest.raises(ParseError, match="feature_bits"):
        config_from_json('{"feature_bits": 4.9}')
    with pytest.raises(ParseError, match="entries"):
        config_from_json('{"entries": true}')
    with pytest.raises(ParseError, match="grid"):
        config_from_json('{"grid": [true, 25]}')


@pytest.mark.parametrize("text", ['{"feature_bits": 0}', '{"location_bits": -3}',
                                  '{"grid": [0, 5]}', '{"entries": 0}',
                                  '{"grid": [5, 4]}'])
def test_every_bad_config_value_is_a_parse_error(text):
    """A layout width, grid or capacity that no device can have is reported
    as the config's ParseError, whichever block of the device rejects it."""
    with pytest.raises(ParseError):
        config_from_json(text)
