"""The README's Python examples run as written, in order, in one namespace,
and its JSON example is what the CLI commands above it print."""

import json
import re
from pathlib import Path

from ordinalwalk.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


def test_readme_python_blocks_run():
    namespace: dict = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)


SIMULATE = ["simulate", "--kind", "walk", "--step-family", "uniform", "--b", "0.6",
            "--length", "5000", "--seed", "5", "-o", "walk.csv"]
ANALYZE = ["analyze", "walk.csv", "--seed", "11"]


def test_readme_json_example_is_what_its_commands_print(tmp_path, monkeypatch, capsysbinary):
    text = README.read_text(encoding="utf-8")
    commands = " ".join(text.replace("\\\n", " ").split())
    for argv in (SIMULATE, ANALYZE):
        assert "ordinalwalk " + " ".join(argv) in commands
    (example,) = re.findall(r"^```json\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    monkeypatch.chdir(tmp_path)
    assert main(SIMULATE) == 0 and main(ANALYZE) == 0
    printed = json.loads(capsysbinary.readouterr().out)
    printed["reports"] = [report for report in printed["reports"] if report["n"] == 4]
    assert json.loads(example) == printed  # the README cuts the n = 5 report
