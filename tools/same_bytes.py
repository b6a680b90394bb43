"""Check that two source trees print the same bytes for a fixed set of CLI runs.

    python tools/same_bytes.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `ordinalwalk` package,
such as the `src` directory of two checkouts. The script writes its own
seeded inputs to a temporary directory: a 2 000-point uniform-step walk,
a 5 000-point series that turns from a walk into the logistic map, and a
200 000-row tie-heavy tick series, whose rows and associated walks are
longer than one rank block. It runs every command below once with each
tree on PYTHONPATH, compares stdout, stderr and exit code, prints one
line per command, and exits 1 if any of them differ. It needs only numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WALK, REGIME, TICKS = "walk2k.csv", "regime5k.csv", "ticks200k.csv"

COMMANDS = [
    ("analyze default", ["analyze", WALK, "--seed", "1"]),
    ("analyze strict d=2", ["analyze", WALK, "--ties", "strict", "--delay", "2",
                            "--seed", "2"]),
    ("analyze jitter d=2", ["analyze", WALK, "--ties", "jitter", "--jitter-scale", "0.05",
                            "--delay", "2", "--seed", "3"]),
    ("analyze orders 3..7 d=3 csv", ["analyze", WALK, "--orders", "3,4,5,6,7", "--delay", "3",
                                     "--format", "csv", "--seed", "4"]),
    ("analyze uniform sampled", ["analyze", WALK, "--null", "uniform", "--b", "0.6",
                                 "--null-samples", "200000", "--orders", "3,5,7",
                                 "--replicates", "20", "--format", "csv", "--seed", "5"]),
    ("analyze uniform closed form", ["analyze", WALK, "--null", "uniform", "--b", "0.6",
                                     "--closed-form", "--orders", "3,4", "--replicates", "20",
                                     "--seed", "6"]),
    ("analyze normal closed form", ["analyze", WALK, "--null", "normal", "--closed-form",
                                    "--orders", "3,4", "--replicates", "0"]),
    ("analyze normal sampled d=3 plotdata", ["analyze", WALK, "--null", "normal", "--mu", "0.1",
                                             "--null-samples", "100000", "--orders", "3,7",
                                             "--delay", "3", "--replicates", "10",
                                             "--format", "plotdata", "--seed", "7"]),
    ("analyze ticks stable orders 3..7", ["analyze", TICKS, "--orders", "3,4,5,6,7", "--null",
                                          "uniform", "--b", "0.5", "--null-samples", "100000",
                                          "--replicates", "0", "--format", "plotdata",
                                          "--seed", "8"]),
    ("analyze ticks strict", ["analyze", TICKS, "--ties", "strict", "--seed", "9"]),
    ("analyze ticks jitter associated", ["analyze", TICKS, "--ties", "jitter", "--jitter-scale",
                                         "0.01", "--orders", "3,5,7", "--walk-length", "600000",
                                         "--replicates", "3", "--seed", "10"]),
    ("analyze ticks jitter d=3 plotdata", ["analyze", TICKS, "--ties", "jitter",
                                           "--jitter-scale", "0.01", "--orders", "3,4",
                                           "--delay", "3", "--walk-length", "600000",
                                           "--replicates", "3", "--format", "plotdata",
                                           "--seed", "11"]),
    ("window default", ["window", REGIME, "--format", "csv", "--seed", "12"]),
    ("window jitter", ["window", REGIME, "--ties", "jitter", "--jitter-scale", "0.05",
                       "--walk-length", "100000", "--replicates", "50", "--seed", "13"]),
    ("nullmodel uniform sampled", ["nullmodel", "--family", "uniform", "--b", "0.3", "--n", "5",
                                   "--samples", "100000", "--seed", "14"]),
    ("nullmodel normal closed form", ["nullmodel", "--family", "normal", "--closed-form",
                                      "--n", "4"]),
    ("nullmodel associated csv", ["nullmodel", "--family", "associated", "--input", WALK,
                                  "--n", "4", "--walk-length", "50000", "--format", "csv",
                                  "--seed", "15"]),
    ("analyze orders 3..7 no band", ["analyze", WALK, "--orders", "3,4,5,6,7",
                                     "--replicates", "0", "--seed", "16"]),
    ("nullmodel associated n=2", ["nullmodel", "--family", "associated", "--input", WALK,
                                  "--n", "2", "--walk-length", "50000", "--seed", "17"]),
    ("classes n=3", ["classes", "--n", "3"]),
    ("classes n=4", ["classes", "--n", "4"]),
    ("classes n=5", ["classes", "--n", "5"]),
    ("classes n=7 closure", ["classes", "--n", "7", "--closure"]),
    ("oracle n=4", ["oracle", "--n", "4", "--b", "0.37", "--resolution", "300"]),
    ("oracle n=5", ["oracle", "--n", "5", "--b", "0.6", "--resolution", "40"]),
    ("oracle n=3", ["oracle", "--n", "3", "--b", "0.3", "--resolution", "200"]),
    ("simulate walk csv", ["simulate", "--kind", "walk", "--step-family", "uniform", "--b", "0.6",
                           "--length", "3000", "--seed", "5"]),
    ("simulate sine json", ["simulate", "--kind", "sine", "--length", "100", "--format", "json"]),
    ("nullmodel uniform closed form csv", ["nullmodel", "--family", "uniform", "--b", "0.6",
                                           "--n", "4", "--closed-form", "--format", "csv"]),
]


def _write(path: Path, values: np.ndarray) -> None:
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="ascii")


def _logistic(x: float, length: int) -> np.ndarray:
    out = np.empty(length)
    for i in range(length):
        out[i], x = x, 4.0 * x * (1.0 - x)
    return out


def write_inputs(work: Path) -> None:
    rng = np.random.default_rng(2024)
    walk = np.concatenate(([0.0], np.cumsum(rng.uniform(-0.4, 0.6, 1999))))
    _write(work / WALK, walk)
    regime = np.concatenate(([0.0], np.cumsum(rng.uniform(-0.4, 0.6, 2499))))
    _write(work / REGIME, np.concatenate((regime, _logistic(0.3, 2500))))
    # normal steps of 4 ticks on a quarter-tick grid: about 10 % are zero
    ticks = np.rint(np.cumsum(rng.normal(0.0, 4.0, 200_000)))
    _write(work / TICKS, (ticks + 4000.0) * 0.25)


def run(src: Path, argv: list[str], work: Path) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "ordinalwalk.cli", *argv], cwd=work,
                          env=env, capture_output=True, check=False)
    return done.stdout, done.stderr, done.returncode


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/same_bytes.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = map(Path, args)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        for label, command in COMMANDS:
            before, after = run(old, command, work), run(new, command, work)
            parts = [name for name, a, b in zip(("stdout", "stderr", "exit"), before, after)
                     if a != b]
            differ += bool(parts)
            verdict = "DIFF " + ",".join(parts) if parts else "same"
            print(f"{verdict:<12} exit {after[2]}  {label}: {' '.join(command)}", flush=True)
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands print the same bytes")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
