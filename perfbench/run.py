"""Benchmark of the ordinalwalk CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory. One operation is one ordinalwalk command, run through
ordinalwalk.cli.main(argv) in a warm worker process (worker.py) that
writes its output to a file. The benchmark is a closed loop with one
client: it sends the next operation when the last has finished, for S
seconds, then checks every output and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are end to end: setup_s, op_s.p50,
throughput_per_s and peak_rss_mb. With --trace 1 every other operation
runs under the outside-in tracer (tracer.py) and the metrics are per
layer, averaged over the traced operations, plus trace.overhead_s.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7


class Worker:
    """The warm process that runs the program's operations."""

    def __init__(self, src: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def request(self, **message) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure_setup(src: Path, argv: list[str]) -> float:
    """Median wall time of a fresh interpreter that imports ordinalwalk and
    runs the workload's small set-up operation once."""
    cmd = [sys.executable, str(WORKER), str(src), "--once", *argv]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)  # untimed: fills file and byte-code caches
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(layers: dict, ops: int, overhead_s: float) -> dict:
    """Per-layer metrics from the tracer's layer totals: times and counts
    per traced operation, rates over the layer's own self time."""
    empty = {"calls": 0, "self_s": 0.0, "counts": {}, "self_by_parent": {}}

    def get(layer):
        return layers.get(layer, empty)

    def self_s(layer):
        return get(layer)["self_s"] / ops

    def count(layer, key):
        return get(layer)["counts"].get(key, 0) / ops

    def rate(layer, key):
        entry = get(layer)
        return entry["counts"].get(key, 0) / entry["self_s"] if entry["self_s"] else 0.0

    def group(prefix, field):
        return sum(v[field] for k, v in layers.items() if k.startswith(prefix)) / ops

    def called_by(layer):
        # the rank kernel's self time, split by the layer that called it
        return get(ed)["self_by_parent"].get(layer, 0.0) / ops

    ed = "patterns.empirical_distribution"
    mc = "nullmodels.monte_carlo_distribution"
    oracle = "nullmodels.volume_oracle"
    values = {
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "analysis.ingest_csv.self_s": (self_s("analysis.ingest_csv"), "s"),
        "analysis.ingest_csv.rows_per_s": (rate("analysis.ingest_csv", "rows"), "1/s"),
        "analysis.analyze_run.self_s": (self_s("analysis.analyze_run"), "s"),
        "analysis.windowed_run.self_s": (self_s("analysis.windowed_run"), "s"),
        "analysis.emit.self_s": (self_s("analysis.emit"), "s"),
        "analysis.emit.bytes": (count("analysis.emit", "bytes"), "B"),
        f"{ed}.calls": (get(ed)["calls"] / ops, "count"),
        f"{ed}.windows": (count(ed, "windows"), "count"),
        f"{ed}.windows_per_s": (rate(ed, "windows"), "1/s"),
        f"{ed}.self_s.data": (called_by("analysis.analyze_run"), "s"),
        f"{ed}.self_s.null": (called_by("nullmodels.build_null"), "s"),
        f"{ed}.self_s.band": (called_by("nullmodels.bootstrap_band"), "s"),
        "nullmodels.associated_walk.self_s": (self_s("nullmodels.associated_walk"), "s"),
        "nullmodels.associated_walk.steps": (count("nullmodels.associated_walk", "steps"),
                                             "count"),
        "nullmodels.build_null.self_s": (self_s("nullmodels.build_null"), "s"),
        "nullmodels.build_null.calls": (get("nullmodels.build_null")["calls"] / ops, "count"),
        "nullmodels.bootstrap_band.self_s": (self_s("nullmodels.bootstrap_band"), "s"),
        "nullmodels.bootstrap_band.replicates": (
            count("nullmodels.bootstrap_band", "replicates"), "count"),
        f"{mc}.self_s": (self_s(mc), "s"),
        f"{mc}.samples_per_s": (rate(mc, "samples"), "1/s"),
        f"{oracle}.self_s": (self_s(oracle), "s"),
        f"{oracle}.calls": (get(oracle)["calls"] / ops, "count"),
        f"{oracle}.cells_per_s": (rate(oracle, "cells"), "1/s"),
        "metrics.self_s": (group("metrics.", "self_s"), "s"),
        "metrics.kl_divergence.calls": (get("metrics.kl_divergence")["calls"] / ops, "count"),
        "classes.self_s": (group("classes.", "self_s"), "s"),
        "classes.calls": (group("classes.", "calls"), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(args) -> dict:
    root = HERE.parent
    src = root / "src"
    if not (src / "ordinalwalk" / "__init__.py").is_file():
        raise SystemExit(f"no ordinalwalk package under {src}; run from a source checkout")
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        setup_s = None if args.trace else measure_setup(src, workload.setup_argv(work / "setup.out"))
        worker = Worker(src)
        try:
            warm = worker.request(argv=workload.setup_argv(work / "warm.out"))
            if warm["rc"] != 0:
                raise RuntimeError(f"warm-up operation failed: {warm}")
            ops = []
            start = time.perf_counter()
            while len(ops) < 1 + args.trace or time.perf_counter() - start < args.seconds:
                k = len(ops)
                traced = bool(args.trace and k % 2)
                out = work / f"op{k}.out"
                ops.append((k, out, traced, worker.request(
                    argv=workload.argv(k, out), trace=traced)))
            stats = worker.request(stats=True)
        finally:
            worker.close()

        failed = 0
        problems = []
        for k, out, traced, result in ops:
            if result["rc"] != 0:
                failed += 1
                print(f"operation {k} failed: {result}", file=sys.stderr)
                continue
            try:
                problems += [f"operation {k}: {p}" for p in workload.check(k, out)]
            except (OSError, ValueError, LookupError, TypeError, ZeroDivisionError) as exc:
                problems.append(f"operation {k}: output cannot be checked: {exc!r}")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

        seconds = [r["seconds"] for _, _, traced, r in ops if not traced]
        if args.trace:
            traced_s = [r["seconds"] for _, _, traced, r in ops if traced]
            overhead = statistics.median(traced_s) - statistics.median(seconds)
            for layer in stats["absent"]:
                print(f"trace: layer {layer} is absent from the program")
            metrics = layer_metrics(stats["layers"], len(traced_s), overhead)
        else:
            ok = len(ops) - failed
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_s.p50": {"value": statistics.median(seconds), "unit": "s"},
                "throughput_per_s": {"value": workload.units_per_op * ok / sum(seconds),
                                     "unit": "1/s"},
                "peak_rss_mb": {"value": stats["peak_rss_mb"], "unit": "MiB"},
            }
        return {"correct": not problems, "attempted": len(ops), "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    print(json.dumps(run(parser.parse_args())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
