"""CSV ingest: files with Windows line ends or whitespace-only lines after
the last value take the numpy.loadtxt fast path with the row parser's
values, and the row parser decodes the whole file before it parses."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import ParseError, ingest_csv
from ordinalwalk.analysis import _loadtxt_column, _parse_rows, _stripped_end

finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
TAILS = ["", "\n", "\n\n", "\n  \n", "\n\t\n", "\n \n\n", "\n\t \n  "]


@st.composite
def texts(draw):
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(finite, min_size=width, max_size=width),
                         min_size=1, max_size=12))
    lines = [",".join(row) for row in rows]
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(("t", "close", "x")[:width]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.sampled_from(TAILS)).replace("\n", end)
    column = draw(st.integers(0, width - 1))
    return end.join(lines) + tail, column, header


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("lines") / "data.csv"


@settings(max_examples=300, deadline=None)
@given(case=texts())
def test_crlf_and_whitespace_tails_take_the_fast_path(csv_path, case):
    text, column, header = case
    csv_path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _loadtxt_column(csv_path, column, header)
    assert values is not None
    want = np.asarray(_parse_rows(csv_path, column, header))
    assert values.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", ["1\n\n2\n", "1\r\n\r\n2\r\n", "1\n\n2\n \n", "1\r\n \r\n2\r\n"])
def test_malformed_files_still_reach_the_row_parser_silently(csv_path, text):
    csv_path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _loadtxt_column(csv_path, 0, False) is None
        with pytest.raises(ParseError):
            ingest_csv(csv_path)


def test_a_lone_carriage_return_is_left_to_the_row_parser(csv_path):
    csv_path.write_bytes(b"1\r\n2\r3\r\n")
    assert _loadtxt_column(csv_path, 0, False) is None
    assert ingest_csv(csv_path).values.tolist() == [1.0, 2.0, 3.0]


def test_a_bad_byte_is_reported_before_any_parse_error(csv_path):
    # the file is decoded whole before the first row is parsed, so the bad
    # byte on the last line wins over the bad cell on the first
    csv_path.write_bytes(b"abc\n" + b"1.0\n" * 20_000 + b"\xff\n")
    with pytest.raises(ParseError, match=r"line 20002: byte 0xff is not UTF-8"):
        ingest_csv(csv_path)


@settings(max_examples=300, deadline=None)
@given(body=st.binary(max_size=300),
       tail=st.lists(st.sampled_from(b" \t\n\r\x0b\x0c"), max_size=1000).map(bytes))
def test_the_end_of_the_content_is_found_without_stripping_the_whole_file(body, tail):
    # tails past 64 bytes take several doubling pieces to step over
    data = body + tail
    assert _stripped_end(data) == len(data.rstrip())
