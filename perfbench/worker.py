"""Warm process that runs ordinalwalk commands for the benchmark.

    python3 perfbench/worker.py SRC             serve requests
    python3 perfbench/worker.py SRC --once ARG  run one command, exit with its code

SRC is the directory holding the ordinalwalk package. In serve mode each
stdin line is a JSON request and each reply one JSON line on the
original stdout (the program's own stdout is sent to stderr):

    {"argv": [...], "trace": false}  -> {"rc": 0, "seconds": 0.71, "error": null}
    {"stats": true}                  -> {"peak_rss_mb": ..., "layers": {...}, "absent": [...]}

An operation is one call of ordinalwalk.cli.main(argv), timed around the
call. The worker holds no benchmark inputs or reference results, so its
peak resident memory is that of the program's operations.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import traceback


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _oracle_cells(args, kwargs, result):
    # One sweep of the resolution^(n-1) grid cells of the step cube serves
    # all n! patterns of a b; credit each call with its 1/n! share.
    order = _arg(args, kwargs, 0, "pattern").order
    return {"cells": _arg(args, kwargs, 2, "resolution") ** (order - 1) / math.factorial(order)}


# (module attribute the program calls through, layer name, work count)
TARGETS = (
    ("ordinalwalk.cli", "main", "cli.main", None),
    ("ordinalwalk.cli", "ingest_csv", "analysis.ingest_csv",
     lambda a, k, r: {"rows": len(r)}),
    ("ordinalwalk.cli", "analyze_run", "analysis.analyze_run", None),
    ("ordinalwalk.analysis", "analyze_run", "analysis.analyze_run", None),
    ("ordinalwalk.cli", "windowed_run", "analysis.windowed_run", None),
    ("ordinalwalk.cli", "emit", "analysis.emit", lambda a, k, r: {"bytes": len(r)}),
    ("ordinalwalk.analysis", "empirical_distribution", "patterns.empirical_distribution",
     lambda a, k, r: {"windows": r.sample_count}),
    ("ordinalwalk.nullmodels", "empirical_distribution", "patterns.empirical_distribution",
     lambda a, k, r: {"windows": r.sample_count}),
    ("ordinalwalk.analysis", "build_null", "nullmodels.build_null", None),
    ("ordinalwalk.analysis", "bootstrap_band", "nullmodels.bootstrap_band",
     lambda a, k, r: {"replicates": len(r.samples)}),
    ("ordinalwalk.nullmodels", "associated_walk", "nullmodels.associated_walk",
     lambda a, k, r: {"steps": len(r) - 1}),
    ("ordinalwalk.nullmodels", "monte_carlo_distribution",
     "nullmodels.monte_carlo_distribution", lambda a, k, r: {"samples": r.sample_count}),
    ("ordinalwalk.cli", "volume_oracle", "nullmodels.volume_oracle", _oracle_cells),
    ("ordinalwalk.analysis", "permutation_entropy", "metrics.permutation_entropy", None),
    ("ordinalwalk.analysis", "missing_pattern_count", "metrics.missing_pattern_count", None),
    ("ordinalwalk.analysis", "g_statistic", "metrics.g_statistic", None),
    ("ordinalwalk.analysis", "momentum_epsilon", "metrics.momentum_epsilon", None),
    ("ordinalwalk.nullmodels", "kl_divergence", "metrics.kl_divergence", None),
    ("ordinalwalk.analysis", "equivalence_classes", "classes.equivalence_classes", None),
    ("ordinalwalk.analysis", "rc_closure", "classes.rc_closure", None),
)


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(argv) -> dict:
    import ordinalwalk.cli
    start = time.perf_counter()
    try:
        rc, error = ordinalwalk.cli.main(argv), None
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc()
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return {"rc": rc, "seconds": time.perf_counter() - start, "error": error}


def serve(replies) -> None:
    tracer = None
    for op, line in enumerate(sys.stdin):
        request = json.loads(line)
        if request.get("stats"):
            reply = {"peak_rss_mb": peak_rss_mb(),
                     "layers": tracer.layers if tracer else {},
                     "absent": tracer.absent if tracer else []}
        elif request.get("trace"):
            if tracer is None:
                from tracer import Tracer
                tracer = Tracer(TARGETS)
            with tracer.installed(op):
                reply = run_op(request["argv"])
        else:
            reply = run_op(request["argv"])
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import ordinalwalk.cli
    if "--once" in sys.argv:
        return ordinalwalk.cli.main(sys.argv[sys.argv.index("--once") + 1:])
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    serve(replies)
    return 0


if __name__ == "__main__":
    sys.exit(main())
