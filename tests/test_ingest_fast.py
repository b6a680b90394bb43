"""CSV ingest: the numpy.loadtxt fast path against the row parser.

`reference_ingest` is a copy of ingest_csv as it was when csv.reader and
float() read every file row by row. ingest_csv must return the same array,
bit for bit, or raise the same exception type with the same message, on
every text built below: well-formed files (which the fast path reads) and
files with blank lines, short rows, odd cells, quotes, carriage returns or
a byte-order mark (which it must hand to the row parser).
"""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import EmptyError, ParseError, TimeSeries, ingest_csv
from ordinalwalk.analysis import _loadtxt_column


def reference_ingest(path, column=0, header=False):
    if isinstance(column, str) and not header:
        raise ParseError(f"{path}: selecting column {column!r} by name needs header=True")
    if isinstance(column, int) and column < 0:
        raise ParseError(f"{path}: column index must be >= 0, got {column}")
    values = []
    pending_blank = None
    index = column if isinstance(column, int) else None
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or all(cell.strip() == "" for cell in row):
                if pending_blank is None:
                    pending_blank = lineno
                continue
            if pending_blank is not None:
                raise ParseError(f"{path}: line {pending_blank}: blank line mid-series")
            if header and lineno == 1:
                if isinstance(column, str):
                    names = [cell.strip() for cell in row]
                    if column not in names:
                        raise ParseError(
                            f"{path}: line 1: no column named {column!r} "
                            f"(have {names})"
                        )
                    index = names.index(column)
                continue
            if index >= len(row):
                raise ParseError(
                    f"{path}: line {lineno}: row has {len(row)} cells, "
                    f"need column {index}"
                )
            cell = row[index].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}: {cell!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: line {lineno}: {cell!r} is not finite")
            values.append(value)
    if not values:
        raise EmptyError(f"{path}: no data rows")
    return TimeSeries(np.asarray(values))


def outcome(read, path, column, header):
    try:
        return ("ok", read(path, column, header).values.tobytes())
    except (ParseError, EmptyError) as exc:
        return (type(exc).__name__, str(exc))


# --------------------------------------------------------------------------
# CSV texts
# --------------------------------------------------------------------------

NAMES = ("t", "close", "x")
finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
odd = st.sampled_from([
    "nan", "inf", "-inf", "1e400", "-1e400", "1_000", "١٢", "", " ",
    "\t", "abc", " 1.5 ", "\t2", " 3", "+.5", "5.", "0x10", '"1.5"', '"', '"a', 'b"', "#4",
])
cell = st.one_of(finite, finite, finite, odd)


@st.composite
def clean_texts(draw):
    """Well-formed files: one or more numeric columns, optional header,
    trailing blank or whitespace-only lines."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(finite, min_size=width, max_size=width),
                         min_size=1, max_size=12))
    lines = [",".join(row) for row in rows]
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(NAMES[:width]))
    tail = draw(st.sampled_from(["", "\n", "\n\n", "\n\n\n", "\n  \n", "\n\t\n"]))
    if tail == "" and draw(st.booleans()):
        tail = "\n"
    column = draw(st.one_of(st.integers(0, width - 1),
                            st.sampled_from(NAMES[:width]).filter(lambda _: header)))
    return "\n".join(lines) + tail, column, header


@st.composite
def messy_texts(draw):
    """Files built to break the fast path's assumptions."""
    rows = draw(st.lists(st.lists(cell, min_size=0, max_size=3), min_size=0, max_size=10))
    lines = [",".join(row) for row in rows]
    header = draw(st.booleans())
    if header:
        lines.insert(0, draw(st.sampled_from(["t,close", "close", "", " , ", "t,\"close\""])))
    lines += draw(st.sampled_from([[], [""], ["", ""], [" "]]))
    ends = draw(st.sampled_from([st.just("\n"), st.sampled_from(["\n", "\r\n", "\r"])]))
    text = "".join(line + draw(ends) for line in lines[:-1]) + (lines[-1] if lines else "")
    if draw(st.booleans()):
        text = "\ufeff" + text
    column = draw(st.one_of(st.integers(0, 3), st.sampled_from(NAMES + ("missing",))))
    return text, column, header


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "data.csv"


def write(path, text):
    path.write_bytes(text.encode("utf-8"))


# --------------------------------------------------------------------------
# the gate
# --------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(case=st.one_of(clean_texts(), messy_texts()))
def test_ingest_matches_row_parser(csv_path, case):
    text, column, header = case
    write(csv_path, text)
    assert outcome(ingest_csv, csv_path, column, header) == \
        outcome(reference_ingest, csv_path, column, header)


def test_ingest_holds_a_long_column_once(tmp_path):
    # 1e6 rows are 7.6 MiB of float64: the fast path's array becomes the
    # series itself, where a copy of it would trace about 16 MiB
    path = tmp_path / "long.csv"
    values = (np.arange(1_000_000) % 977) * 0.25
    path.write_text("\n".join(map(repr, values.tolist())) + "\n")
    tracemalloc.start()
    try:
        series = ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.values.tobytes() == values.tobytes()
    assert peak < 12 * 2**20, f"traced {peak / 2**20:.1f} MiB"


@settings(max_examples=200, deadline=None)
@given(case=clean_texts())
def test_well_formed_files_take_the_fast_path(csv_path, case):
    text, column, header = case
    write(csv_path, text.rstrip() + "\n")
    values = _loadtxt_column(csv_path, column, header)
    assert values is not None
    assert values.tobytes() == reference_ingest(csv_path, column, header).values.tobytes()


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(
    st.text(alphabet="0123456789.eE+-_ naifINFxX\t ١٢#,", max_size=10),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"), max_size=10),
))
def test_fast_path_accepts_no_cell_float_rejects(csv_path, text):
    write(csv_path, f"1\n{text}\n2\n")
    values = _loadtxt_column(csv_path, 0, False)
    if values is not None:
        cell = text.split(",")[0].strip()
        assert values[1].tobytes() == np.float64(float(cell)).tobytes()


@pytest.mark.parametrize("text, column, header", [
    ("1\n\n2\n", 0, False),                 # blank line mid-series, skipped by loadtxt
    ("1\nnan\n", 0, False),                 # non-finite, read by loadtxt
    ("1\n1e400\n", 0, False),
    ("1\n1_000\n", 0, False),               # accepted by float(), rejected by loadtxt
    ("1\n١٢\n", 0, False),
    ("\n1\n2\n", 0, False),                 # leading blank line
    ("\nt\n1\n", 0, True),                  # blank header line
    (",\n1\n", 0, True),                    # a header line of empty cells is blank
    ("t,close\n1\n", 1, True),              # short row
    ("t\n", 0, True),                       # header only
    ("\ufeffclose\n1.5\n2.5\n", "close", True),  # byte-order mark
    ("\ufeff\ufeffclose\n1.5\n", "close", True),  # a second one belongs to the name
    ("\ufeff", 0, False),
    ('"1"\n2\n', 0, False),
    ('1,"a\n2,b"\n', 0, False),              # one quoted record over two lines
    ("1\r\n2\r\n", 0, False),
    ("1\r2\n\n3\n", 0, False),               # a lone carriage return ends a line
])
def test_ingest_edge_cases_match_row_parser(csv_path, text, column, header):
    write(csv_path, text)
    assert outcome(ingest_csv, csv_path, column, header) == \
        outcome(reference_ingest, csv_path, column, header)
