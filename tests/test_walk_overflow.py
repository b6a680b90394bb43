"""A walk whose sum overflows is refused with the typed error alone.

numpy warns when a sum passes the largest float; the walk sums ignore that
warning, and every caller refuses the non-finite sum, so the CLI prints
one `numerical error` line and the library raises RangeError, also where
warnings are errors.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from ordinalwalk import GeneratorSpec, NullSpec, RangeError, StepModel, build_nulls, generate
from ordinalwalk import patterns
from ordinalwalk.nullmodels import _drawn_counts

SRC = Path(__file__).resolve().parents[1] / "src"
REFUSAL = "numerical error: series values must be finite\n"

#: a finite series whose steps, +-1.5e308, overflow a walk that takes two alike in a row
ALTERNATING = np.where(np.arange(300) % 2, 1.5e308, 0.0)


@pytest.mark.parametrize("argv", [
    ["analyze", "alternating.csv", "--orders", "3", "--replicates", "2",
     "--walk-length", "600"],
    ["analyze", "walk.csv", "--null", "normal", "--mu", "1e308", "--orders", "3",
     "--null-samples", "10", "--replicates", "0"],
    ["nullmodel", "--family", "associated", "--input", "alternating.csv", "--n", "3"],
    ["simulate", "--kind", "walk", "--step-family", "normal", "--mu", "1e308", "--length", "3"],
], ids=["analyze-associated", "analyze-normal", "nullmodel-associated", "simulate-walk"])
def test_the_cli_prints_only_the_typed_error(tmp_path, argv):
    (tmp_path / "alternating.csv").write_text("".join(f"{v!r}\n" for v in ALTERNATING.tolist()))
    (tmp_path / "walk.csv").write_text("".join(f"{v!r}\n" for v in np.arange(50.0).tolist()))
    code = f"import sys; from ordinalwalk.cli import main; sys.exit(main({argv!r}))"
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (done.returncode, done.stderr) == (3, REFUSAL)


@pytest.mark.parametrize("run", [
    lambda: build_nulls(ALTERNATING, (3,), NullSpec(walk_length=600), 1),
    lambda: build_nulls((), (3,), NullSpec(StepModel.normal(1e308, 1.0), samples=10), 1),
    lambda: generate(GeneratorSpec("walk", 3, step=StepModel.normal(1e308, 1.0))),
], ids=["associated", "parametric", "generate"])
def test_an_overflowing_walk_raises_the_range_error_not_the_warning(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RangeError, match="series values must be finite"):
            run()


def test_a_long_walk_that_overflows_in_a_later_block_raises_the_range_error():
    # steps of 3e307 pass the largest float at the walk's seventh value,
    # in its second block of five
    with warnings.catch_warnings(), patch.object(patterns, "_CHUNK", 5):
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RangeError, match="series values must be finite"):
            _drawn_counts(StepModel.normal(3e307, 1.0), 1, 20, (3,), 1, 0)
