"""Compare the seed-to-seed spread of kl_to_model between two source trees.

    python tools/null_precision.py OLD_SRC [NEW_SRC] [--seeds 30]

OLD_SRC and NEW_SRC are directories that hold the `ordinalwalk` package,
such as the `src` directory of two checkouts. For each configuration
below, every tree analyzes one fixed uniform-step walk (b = 0.6) under
null seeds 0 .. seeds-1, in a subprocess with that tree on PYTHONPATH,
so only the null and band streams change from seed to seed. The script
prints one markdown row per (configuration, order): the mean and standard
deviation of kl_to_model for each tree, the ratio of the stds (new / old)
and the difference of the means in combined standard errors. It needs
only numpy. With one tree it prints that tree's rows alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

#: (label, series length N, band replicates R, orders)
CONFIGS = [
    ("N=1258 R=400", 1258, 400, (4, 5)),
    ("N=2000 R=400", 2000, 400, (4, 5)),
    ("N=2000 R=0", 2000, 0, (4, 5, 6, 7)),
    ("N=20000 R=0", 20_000, 0, (4, 5, 6, 7)),
]

#: run in each tree: kl_to_model per seed and order, as JSON on stdout
WORKER = """
import json, sys
import numpy as np
from ordinalwalk import AnalysisConfig, analyze
length, replicates, orders, seeds = json.loads(sys.argv[1])
steps = np.random.default_rng(2024).uniform(-0.4, 0.6, length - 1)
series = np.concatenate(([0.0], np.cumsum(steps)))
kl = [[r.kl_to_model for r in analyze(series, AnalysisConfig(
          orders=tuple(orders), replicates=replicates, seed=seed))]
      for seed in range(seeds)]
print(json.dumps(kl))
"""


def run(src: Path, length: int, replicates: int, orders, seeds: int) -> np.ndarray:
    """kl_to_model of one tree, shape (seeds, orders)."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    done = subprocess.run(
        [sys.executable, "-c", WORKER, json.dumps([length, replicates, orders, seeds])],
        env=env, capture_output=True, text=True, check=True)
    return np.array(json.loads(done.stdout))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    seeds = 30
    if "--seeds" in args:
        at = args.index("--seeds")
        seeds = int(args[at + 1])
        del args[at:at + 2]
    if not 1 <= len(args) <= 2 or seeds < 2:
        print("usage: python tools/null_precision.py OLD_SRC [NEW_SRC] [--seeds S >= 2]",
              file=sys.stderr)
        return 2
    trees = [Path(a) for a in args]
    head = "| config | n | " + " | ".join(
        f"{name} mean | {name} std" for name in ("old", "new")[:len(trees)])
    if len(trees) == 2:
        head += " | std ratio | mean diff / SE"
    print(f"kl_to_model over {seeds} null seeds\n\n{head} |")
    print("|" + "---|" * head.count("|"))
    for label, length, replicates, orders in CONFIGS:
        kls = [run(tree, length, replicates, orders, seeds) for tree in trees]
        for i, n in enumerate(orders):
            cols = [k[:, i] for k in kls]
            cells = [f"{c.mean():.4e} | {c.std(ddof=1):.3e}" for c in cols]
            if len(cols) == 2:
                old, new = cols
                se = np.hypot(old.std(ddof=1), new.std(ddof=1)) / np.sqrt(seeds)
                z = (new.mean() - old.mean()) / se if se else 0.0
                cells += [f"{new.std(ddof=1) / old.std(ddof=1):.3f}", f"{z:+.2f}"]
            print(f"| {label} | {n} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
