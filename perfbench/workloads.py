"""The benchmark's workloads: seeded inputs, commands and output checks.

Each workload writes its inputs from the benchmark seed alone, gives the
command line of its k-th operation and of a small set-up operation, and
checks an operation's output file against the reference counter in
reference.py or against properties the method must have. No check
compares against stored output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import reference

WALK_B = 0.6  # P(step > 0) of the uniform-step walks, steps on [b-1, b]


def write_series(path: Path, values) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(map(repr, np.asarray(values, dtype=float).tolist())) + "\n")


def uniform_walk(rng, length: int, b: float = WALK_B) -> np.ndarray:
    walk = np.zeros(length)
    np.cumsum(rng.uniform(b - 1.0, b, length - 1), out=walk[1:])
    return walk


def logistic_map(x0: float, length: int) -> np.ndarray:
    out = np.empty(length)
    x = x0
    for i in range(length):
        out[i] = x
        x = 4.0 * x * (1.0 - x)
    return out


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class Workload:
    """One workload; subclasses set name, units_per_op and the methods."""

    name = ""
    units_per_op = 0.0

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def op_seed(self, k: int) -> str:
        return str(1000 * self.seed + k)

    def argv(self, k: int, out: Path) -> list[str]:
        raise NotImplementedError

    def setup_argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, k: int, out: Path) -> list[str]:
        """Problems found in operation k's output; empty when correct."""
        raise NotImplementedError


def _check_report(rep: dict, values: np.ndarray, label: str) -> list[str]:
    # entropy, missing count and momentum excesses against the reference
    n = rep["n"]
    counts = reference.pattern_counts(values, n)
    up, down = reference.epsilons(counts, reference.pattern_counts(values, 2), n)
    problems = []
    if abs(rep["permutation_entropy"] - reference.entropy(counts)) > 1e-12:
        problems.append(f"{label} n={n}: entropy {rep['permutation_entropy']} "
                        f"!= reference {reference.entropy(counts)}")
    if rep["missing_count"] != int(np.count_nonzero(counts == 0)):
        problems.append(f"{label} n={n}: missing {rep['missing_count']} != reference")
    if abs(rep["epsilon_up"] - up) > 1e-12 or abs(rep["epsilon_down"] - down) > 1e-12:
        problems.append(f"{label} n={n}: epsilons differ from reference")
    if not rep["kl_to_model"] >= 0:
        problems.append(f"{label} n={n}: kl_to_model {rep['kl_to_model']} < 0")
    return problems


class AnalyzeWalk2k(Workload):
    """Default analyze of a 2,000-point uniform-step walk (b = 0.6)."""

    name = "analyze-walk2k"
    units_per_op = 2000  # series points analysed

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.values = uniform_walk(self.rng, 2000)
        self.path = work / "walk2k.csv"
        self.small = work / "walk200.csv"
        write_series(self.path, self.values)
        write_series(self.small, self.values[:200])

    def argv(self, k, out):
        return ["analyze", str(self.path), "--seed", self.op_seed(k), "-o", str(out)]

    def setup_argv(self, out):
        return ["analyze", str(self.small), "--seed", "1", "--walk-length", "2000",
                "--replicates", "4", "-o", str(out)]

    def check(self, k, out):
        reports = json.loads(out.read_text())["reports"]
        problems = [] if [r["n"] for r in reports] == [4, 5] else ["orders are not 4,5"]
        for rep in reports:
            problems += _check_report(rep, self.values, "series")
            if abs(rep["kl_to_model"] - rep["kl_band_mean"]) > 6 * rep["kl_band_std"]:
                problems.append(f"n={rep['n']}: kl {rep['kl_to_model']} outside the "
                                "6-sigma band of its own replicates")
        return problems


class WindowRegime5k(Workload):
    """window with CLI defaults over a walk that turns into the logistic map."""

    name = "window-regime5k"
    window, stride, half = 1258, 250, 2500
    starts = tuple(range(1, 5000 - 1258 + 2, 250))  # 1, 251, ..., 3501
    units_per_op = len(starts) * window  # window points analysed

    def __init__(self, work, seed):
        super().__init__(work, seed)
        walk = uniform_walk(self.rng, self.half)
        self.values = np.concatenate([walk, logistic_map(self.rng.uniform(0.1, 0.9),
                                                         self.half)])
        self.path = work / "regime5k.csv"
        self.small = work / "regime400.csv"
        write_series(self.path, self.values)
        write_series(self.small, self.values[:400])

    def argv(self, k, out):
        return ["window", str(self.path), "--seed", self.op_seed(k), "--format", "csv",
                "-o", str(out)]

    def setup_argv(self, out):
        return ["window", str(self.small), "--window", "200", "--stride", "100",
                "--seed", "1", "--walk-length", "2000", "--replicates", "4",
                "--format", "csv", "-o", str(out)]

    def check(self, k, out):
        rows = _read_rows(out)
        starts = tuple(sorted({int(r["window_start"]) for r in rows}))
        if starts != self.starts or len(rows) != 2 * len(self.starts):
            return [f"window starts {starts} (rows {len(rows)}) are not {self.starts}"]
        problems = []
        for row in rows:
            start, n = int(row["window_start"]), int(row["n"])
            values = self.values[start - 1:start - 1 + self.window]
            counts = reference.pattern_counts(values, n)
            label = f"window {start} n={n}"
            if abs(float(row["pe"]) - reference.entropy(counts)) > 1e-12:
                problems.append(f"{label}: entropy differs from reference")
            missing = int(row["missing"])
            if missing != int(np.count_nonzero(counts == 0)):
                problems.append(f"{label}: missing count differs from reference")
            z = (float(row["kl"]) - float(row["kl_mean"])) / float(row["kl_std"])
            if start - 1 + self.window <= self.half and not abs(z) <= 6:
                problems.append(f"{label}: walk window has band z-score {z:.2f}")
            if start - 1 >= self.half:
                if not z > 6:
                    problems.append(f"{label}: logistic window has band z-score {z:.2f}")
                if n == 4 and missing < 1:
                    problems.append(f"{label}: logistic window shows no forbidden pattern")
        return problems


# Exact pattern probabilities of a walk with steps uniform on [-1/2, 1/2]
# (b = 1/2), as tabulated in the paper, by level and the patterns at it.
UNIFORM_HALF = {
    3: ((1 / 4, "123 321"), (1 / 8, "132 213 231 312")),
    4: ((1 / 8, "1234 4321"),
        (1 / 16, "1243 2134 3421 4312"),
        (1 / 24, "1324 1342 3124 2431 4213 4231"),
        (1 / 48, "1423 2314 1432 2143 3214 2341 3412 4123 2413 3142 3241 4132")),
}


def uniform_half(n: int) -> np.ndarray:
    """The exact b = 1/2 probabilities of order n, in lexicographic order."""
    level = {word: p for p, words in UNIFORM_HALF[n] for word in words.split()}
    return np.array([level[word] for word in reference.pattern_words(n)])


class Ticks1m(Workload):
    """analyze of a 1,000,000-row tie-heavy tick series, Monte Carlo null."""

    name = "ticks1m"
    rows = 1_000_000
    orders = (3, 4, 5, 6, 7)
    null_samples = 1_000_000
    units_per_op = rows  # rows ingested

    def __init__(self, work, seed):
        super().__init__(work, seed)
        # normal steps of sd 4 ticks on a quarter-tick grid: about 10% of
        # steps round to zero, so ties are common
        ticks = np.rint(np.cumsum(self.rng.normal(0.0, 4.0, self.rows))).astype(np.int64)
        self.values = (ticks + 4000) * 0.25
        self.path = work / "ticks1m.csv"
        self.small = work / "ticks2k.csv"
        write_series(self.path, self.values)
        write_series(self.small, self.values[:2000])
        self.counts = {n: reference.pattern_counts(self.values, n) for n in self.orders}

    def _flags(self, samples):
        return ["--orders", ",".join(map(str, self.orders)), "--null", "uniform",
                "--b", "0.5", "--null-samples", str(samples), "--replicates", "0",
                "--format", "plotdata"]

    def argv(self, k, out):
        return ["analyze", str(self.path), *self._flags(self.null_samples),
                "--seed", self.op_seed(k), "-o", str(out)]

    def setup_argv(self, out):
        return ["analyze", str(self.small), *self._flags(1000), "--seed", "1",
                "-o", str(out)]

    def check(self, k, out):
        rows = _read_rows(out)
        problems = []
        for n in self.orders:
            mine = [r for r in rows if int(r["n"]) == n]
            if tuple(r["pattern"] for r in mine) != reference.pattern_words(n):
                problems.append(f"n={n}: patterns are not all of S_n in lexicographic order")
                continue
            counts = self.counts[n]
            empirical = np.array([float(r["empirical"]) for r in mine])
            if not np.array_equal(empirical, counts / counts.sum()):
                problems.append(f"n={n}: empirical column differs from reference counts")
            null = np.array([float(r["null"]) for r in mine])
            if abs(null.sum() - 1.0) > 1e-9:
                problems.append(f"n={n}: null column sums to {null.sum()}")
            if n in UNIFORM_HALF:
                exact = uniform_half(n)
                se = np.sqrt(exact * (1 - exact) / self.null_samples)
                worst = float(np.max(np.abs(null - exact) / se))
                if worst > 5:
                    problems.append(f"n={n}: null is {worst:.1f} standard errors "
                                    "from the exact b=1/2 values")
        return problems


class OracleN4(Workload):
    """oracle --n 4 --resolution 2000 with a distinct b per operation."""

    name = "oracle-n4"
    resolution = 2000
    units_per_op = resolution ** 3  # grid cells of the order-4 step cube

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.offset = self.rng.random()

    def b(self, k: int) -> float:
        # golden-ratio sequence: distinct in every operation of a run, so
        # the program's per-b sweep cache never serves a repeat, and spread
        # evenly over [0.2, 0.8] whatever the seed
        return round(0.2 + 0.6 * ((self.offset + k * 0.6180339887498949) % 1.0), 9)

    def argv(self, k, out):
        return ["oracle", "--n", "4", "--b", repr(self.b(k)),
                "--resolution", str(self.resolution), "-o", str(out)]

    def setup_argv(self, out):
        return ["oracle", "--n", "4", "--b", "0.6", "--resolution", "40", "-o", str(out)]

    def check(self, k, out):
        b = self.b(k)
        rows = _read_rows(out)
        volume = {r["pattern"]: float(r["volume"]) for r in rows}
        words = tuple(r["pattern"] for r in rows)
        if {float(r["b"]) for r in rows} != {b} or words != reference.pattern_words(4):
            return [f"b={b}: output does not list the 24 patterns once for b"]
        problems = []
        if abs(sum(volume.values()) - 1.0) > 1e-9:
            problems.append(f"b={b}: volumes sum to {sum(volume.values())}")
        if abs(volume["1234"] - b ** 3) > 0.003 or abs(volume["4321"] - (1 - b) ** 3) > 0.003:
            problems.append(f"b={b}: monotone volumes are off b^3 and (1-b)^3")
        for word, v in volume.items():
            rc = "".join(str(5 - int(c)) for c in reversed(word))
            if abs(v - volume[rc]) > 0.003:
                problems.append(f"b={b}: {word} and its reverse-complement {rc} differ")
        return problems


WORKLOADS = {w.name: w for w in (AnalyzeWalk2k, WindowRegime5k, Ticks1m, OracleN4)}
