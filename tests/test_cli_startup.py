"""CLI start-up: one flag table feeds every subcommand's parser and config
keys, a call builds only the flags of the subcommand it names, and the
modules only one command uses load on first use."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ordinalwalk.cli import _COMMANDS, _FLAGS, _build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def _options(parser) -> set[str]:
    """The names of a parser's arguments, as the table gives them: not -h,
    nor the --no- form argparse adds to a switch."""
    return {name for action in parser._actions for name in action.option_strings or [action.dest]
            if name not in ("-h", "--help") and not name.startswith("--no-")}


def test_a_plain_import_loads_neither_the_pool_nor_fractions():
    code = ("import sys, ordinalwalk.cli; "
            "print([m for m in ('concurrent.futures', 'fractions') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_window_still_runs_its_pool(tmp_path, monkeypatch, capsysbinary):
    pools = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = tmp_path / "series.csv"
    path.write_text("".join(f"{(i * 7919) % 101 + 0.5 * i}\n" for i in range(300)))
    assert main(["window", str(path), "-W", "150", "-S", "75", "--seed", "2", "--orders", "3",
                 "--replicates", "0", "--walk-length", "2000"]) == 0
    assert pools == [2]  # two cores, three windows
    doc = json.loads(capsysbinary.readouterr().out)
    assert [w["window_start"] for w in doc["windows"]] == [1, 76, 151]


def _takers() -> dict[str, set[str]]:
    """Every option string of the table, with the subcommands it names."""
    takers = {}
    for commands, names, _ in _FLAGS:
        for name in names:
            takers.setdefault(name, set()).update(commands.split())
    return takers


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_flag_reaches_exactly_the_subcommands_it_names(command):
    _, commands = _build_parser(command)
    assert list(commands) == list(_COMMANDS)
    expected = {name for name, takers in _takers().items() if command in takers}
    assert _options(commands[command]) == expected
    for other, parser in commands.items():
        if other != command:
            assert _options(parser) == set()  # registered, but never built


@pytest.mark.parametrize("flag, takers", [
    ("--walk-length", {"analyze", "window", "nullmodel"}),
    ("--seed", {"analyze", "window", "simulate", "nullmodel"}),  # no classes, no oracle
    ("--column", {"analyze", "window", "nullmodel"}),
    ("--config", set(_COMMANDS)),
])
def test_a_flag_reaches_the_subcommands_that_take_it(flag, takers):
    assert {name for name in _COMMANDS
            if flag in _options(_build_parser(name)[1][name])} == takers


@pytest.mark.parametrize("command", [None, "frobnicate"])
def test_a_name_that_is_no_subcommand_builds_no_flags(command):
    _, commands = _build_parser(command)
    assert all(_options(parser) == set() for parser in commands.values())
