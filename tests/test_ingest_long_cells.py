"""Long cells: one behaviour on both ingest paths.

Cells may be longer than csv's default field limit (131 072 characters).
In a column that is not read such a cell is accepted, whichever path reads
the file: the numpy.loadtxt fast path never sees it, and the row parser
reads records of any length. In the column read, a finite number is read
however long it is written, and a bad cell that long is named by its line,
with csv's message, instead of being quoted. The process-wide
csv.field_size_limit() is the same after a read as before it.
"""

import csv

import pytest

from ordinalwalk import ParseError, ingest_csv
from ordinalwalk.analysis import _loadtxt_column
from ordinalwalk.cli import main

ROWS = ["1.0,a", "2.0," + "x" * 200_000, "3.0,b", "4.0,c", "5.0,d"]

# copy name -> (text, whether the fast path reads it)
COPIES = {
    "lf": ("\n".join(ROWS) + "\n", True),
    "crlf": ("\r\n".join(ROWS) + "\r\n", True),
    "lone cr": ("\r".join(ROWS) + "\r", False),
    "quoted cell": ("\n".join(ROWS).replace("3.0,b", '"3.0",b') + "\n", False),
}


@pytest.mark.parametrize("name", sorted(COPIES))
def test_a_long_cell_outside_the_column_read_is_accepted(name, tmp_path, capsys):
    text, fast = COPIES[name]
    path = tmp_path / "long.csv"
    path.write_bytes(text.encode())
    limit = csv.field_size_limit()
    assert (_loadtxt_column(path, 0, False) is not None) is fast
    assert ingest_csv(path).values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert csv.field_size_limit() == limit
    argv = ["analyze", str(path), "--orders", "3", "--replicates", "0", "--walk-length", "100"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("end", ["\n", "\r"])
def test_a_long_number_in_the_column_read_is_read(end, tmp_path):
    path = tmp_path / "long.csv"
    path.write_bytes(end.join(["1.0", "2.0", "0" * 200_000 + "1", "3.0", ""]).encode())
    assert (_loadtxt_column(path, 0, False) is not None) is (end == "\n")
    assert ingest_csv(path).values.tolist() == [1.0, 2.0, 1.0, 3.0]


@pytest.mark.parametrize("end", ["\n", "\r"])
@pytest.mark.parametrize("cell", ["9" * 200_000, "y" * 200_000])
def test_a_long_bad_cell_in_the_column_read_is_named_not_quoted(cell, end, tmp_path):
    path = tmp_path / "long.csv"
    path.write_bytes(end.join(["1.0", "2.0", cell, "3.0", ""]).encode())
    limit = csv.field_size_limit()
    with pytest.raises(ParseError, match=rf"line 3: field larger than field limit \({limit}\)$"):
        ingest_csv(path)
    assert csv.field_size_limit() == limit
