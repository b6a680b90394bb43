"""An oracle call pays only for its own work.

A subcommand named first is the only one the CLI registers, and the usage
still lists all six; any other argv registers all six, as before. The
sweep's volumes are one integer sum each, rounded once, so `fractions`
(and the `decimal` it loads) stays unloaded, and the oracle reads each
b's step law and closed form once. Each pattern computes its rank once.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import all_patterns, cli, closed_form_uniform, lex_rank, nullmodels, patterns

SRC = Path(__file__).resolve().parents[1] / "src"
USAGE = "usage: ordinalwalk [-h] {analyze,window,simulate,nullmodel,classes,oracle} ...\n"


def fraction_volumes(acc: np.ndarray, cells: int) -> np.ndarray:
    """The sum it replaced: per column, Fractions over the share denominators."""
    return np.array([float(sum(Fraction(int(c), k) for k, c in enumerate(col) if k and c)
                           / cells) for col in acc.T])


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 24), columns=st.integers(1, 6), data=st.data(),
       cells=st.integers(1, 2 ** 53))
def test_the_integer_sum_rounds_as_the_fraction_sum(k, columns, data, cells):
    counts = data.draw(st.lists(st.integers(0, 2 ** 53), min_size=(k + 1) * columns,
                                max_size=(k + 1) * columns))
    acc = np.array(counts, dtype=np.int64).reshape(k + 1, columns)
    got = nullmodels._rounded_volumes(acc, cells)
    assert got.dtype == np.float64
    assert got.tobytes() == fraction_volumes(acc, cells).tobytes()


def test_an_oracle_run_loads_no_fractions(tmp_path):
    argv = ["oracle", "--n", "4", "--b", "0.6", "--resolution", "40",
            "-o", str(tmp_path / "o.csv")]
    code = (f"import sys; from ordinalwalk.cli import main; main({argv!r}); "
            "print([m for m in ('fractions', 'decimal') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
    assert len((tmp_path / "o.csv").read_text().splitlines()) == 1 + 24


def test_oracle_calls_volume_oracle_through_cli_once_per_pattern(tmp_path, monkeypatch):
    # the benchmark's tracer wraps ordinalwalk.cli.volume_oracle
    models = []

    def counted(pattern, model, resolution):
        models.append(model)
        return nullmodels.volume_oracle(pattern, model, resolution)

    monkeypatch.setattr(cli, "volume_oracle", counted)
    out = tmp_path / "o.csv"
    assert cli.main(["oracle", "--n", "4", "--b", "0.37,0.61", "--resolution", "30",
                     "-o", str(out)]) == 0
    assert len(models) == 2 * 24 and len({id(m) for m in models}) == 2  # one step law per b
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[1] for row in rows[:24]] == [str(p) for p in all_patterns(4)]
    closed = closed_form_uniform(4, 0.61).weights
    assert [float(row[3]) for row in rows[24:]] == closed.tolist()


def test_oracle_runs_rank_each_pattern_once_per_process(tmp_path, monkeypatch):
    ranked = []

    def counted(pattern):
        ranked.append(pattern)
        return lex_rank(pattern)

    monkeypatch.setattr(patterns, "lex_rank", counted)
    for run in range(2):
        assert cli.main(["oracle", "--n", "4", "--b", "0.6,0.7", "--resolution", "40",
                         "-o", str(tmp_path / f"{run}.csv")]) == 0
    assert len(ranked) <= 24  # the cached patterns keep their ranks


def _registered(monkeypatch, argv):
    """The top-level parser and the subcommand parsers main builds for argv."""
    built = []

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", spy)
    try:
        cli.main(argv)
    except SystemExit:  # -h prints the help and exits
        pass
    (parser, commands), = built
    return parser, list(commands)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_subcommand_named_first_is_registered_alone(monkeypatch, command, capsys):
    parser, commands = _registered(monkeypatch, [command, "--bogus"])
    assert commands == [command]
    assert parser.format_usage() == USAGE
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [["-h", "analyze"], ["--bogus", "analyze"], [], ["bogus"]])
def test_any_other_argv_registers_all_six(monkeypatch, argv, capsys):
    parser, commands = _registered(monkeypatch, argv)
    assert commands == list(cli._COMMANDS)
    assert parser.format_usage() == USAGE
    if argv[:1] == ["bogus"]:  # the argument keeps its name in the errors
        assert capsys.readouterr().err.startswith(
            "usage error: argument command: invalid choice: 'bogus'")
