"""One timed sample, run in a fresh interpreter by ``run.py``.

Usage: child.py WORKLOAD SEED TRACE SPAWN_TIME RESULT_JSON

Runs in the sample's working directory.  Generates the workload's inputs,
optionally installs the tracer, calls ``recaudit.cli.main`` with the
workload's verb, and writes timings (and, when traced, per-layer totals)
to RESULT_JSON.  SPAWN_TIME is the parent's ``time.monotonic()`` just
before it started this process; the clock is shared across processes.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    name, seed, trace, spawned, result_path = argv
    import recaudit.cli
    import tracer
    import workloads

    workload = workloads.WORKLOADS[name]
    workloads.write_inputs(workload, int(seed), ".")
    spans = None
    if trace == "1":
        spans = tracer.Tracer()
        tracer.install(spans)

    verb_called = time.monotonic()
    start = time.perf_counter()
    code = recaudit.cli.main(workload.argv())
    wall = time.perf_counter() - start

    result = {
        "exit_code": code,
        "setup_s": verb_called - float(spawned),
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "recaudit_file": recaudit.__file__,
    }
    if spans is not None:
        result["layers"] = tracer.layer_results(spans, workload.layers, wall)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
