"""Benchmark entry point: one workload, one seed, a fixed measuring time.

Usage (from the repository root):

    python3 perfbench/run.py --workload audit-train --seed 1 --seconds 40 --trace 0

Each sample is a fresh child interpreter that generates the workload's
inputs at the seed and calls ``recaudit.cli.main`` once.  Samples run until
the next one would overrun ``--seconds``.  With ``--trace 0`` the result
holds the end-to-end metrics (medians over the samples); with ``--trace 1``
the samples come in plain/traced pairs and the result holds the per-layer
metrics of BENCHMARK.json, among them the tracing overhead and the
machine-speed probe.

Every sample's outputs are checked (exit code, expected files, metric
ranges, the planted gap flagged, the control not flagged, byte-identical
outputs across the run's samples).  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the line
before it, prefixed ``perfbench``, records the samples, the probe, the
thread environment and the runtime versions.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

# the only parallelism is the workload's own --threads
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 120
SIGNIFICANCE = 0.01


def child_env() -> dict:
    # bytecode is compiled once by the warm-up child, whatever the caller's
    # environment says, so set-up time does not depend on it
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def runtime_versions() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": workloads.usable_cores()}


def machine_probe_ms() -> float:
    """Wall time of a fixed mix of the program's kinds of work (a pure-Python
    loop, numpy sorts, small dense solves), to tell host speed drift apart
    from a change in the program."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    values = np.arange(40_000, dtype=np.float64)
    for _ in range(40):
        values = np.sort(values[::-1]) + 1.0
    factors = np.linspace(0.0, 1.0, 200 * 50).reshape(200, 50)
    rhs = np.ones(50)
    for _ in range(200):
        np.linalg.solve(factors.T @ factors + np.eye(50), rhs)
    return (time.perf_counter() - start) * 1000.0


def run_child(workload: workloads.Workload, seed: int, trace: bool,
              sample_dir: Path) -> tuple[dict, float]:
    """Run one sample in a fresh interpreter; returns (child result, probe)."""
    shutil.rmtree(sample_dir, ignore_errors=True)
    sample_dir.mkdir(parents=True)
    probe = machine_probe_ms()
    result_path = sample_dir / "result.json"
    with open(sample_dir / "child.log", "wb") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), workload.name, str(seed),
                 "1" if trace else "0", repr(spawned), str(result_path)],
                cwd=sample_dir, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"child ran over {CHILD_TIMEOUT_S} s"}, probe
    if proc.returncode != 0 or not result_path.exists():
        tail = (sample_dir / "child.log").read_text(errors="replace")[-2000:]
        return {"error": f"child exited {proc.returncode}: {tail}"}, probe
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), probe


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_sample(workload: workloads.Workload, sample_dir: Path,
                 result: dict) -> list[str]:
    """Correctness checks on one sample's outputs; returns the failures."""
    if "error" in result:
        return [result["error"]]
    if result["exit_code"] != 0:
        return [f"verb exited {result['exit_code']}"]
    if not Path(result["recaudit_file"]).resolve().is_relative_to(SRC.resolve()):
        return [f"imported recaudit from {result['recaudit_file']}"]
    out = sample_dir / workloads.OUT_DIR
    missing = [n for n in workload.expected_files() if not (out / n).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]

    failures = []
    rows = _read_csv(out / "metrics_per_user.csv")
    if not rows:
        failures.append("metrics_per_user.csv has no rows")
    for row in rows:
        if not all(0.0 <= float(row[m]) <= 1.0 for m in ("ndcg", "mrr", "rbp")):
            failures.append(f"metric out of [0, 1] for user {row['user_id']}")
            break

    stats_rows = {(r["scheme"], r["metric"]): r for r in _read_csv(out / "stats_summary.csv")}
    gender = stats_rows.get(("gender", "ndcg"))
    if gender is None or gender["p_bonferroni"] in ("", "not_testable") \
            or float(gender["p_bonferroni"]) >= SIGNIFICANCE:
        failures.append("gender/ndcg gap not flagged")
    means = {r["group"]: r["mean_ndcg"] for r in _read_csv(out / "group_summary.csv")
             if r["scheme"] == "gender"}
    if not means.get("m") or not means.get("f") or float(means["m"]) <= float(means["f"]):
        failures.append(f"gender mean ndcg not m > f: {means}")
    for metric in ("ndcg", "mrr", "rbp"):
        control = stats_rows.get(("last_digit", metric))
        if control is not None and control["p_bonferroni"] not in ("", "not_testable") \
                and float(control["p_bonferroni"]) < SIGNIFICANCE:
            failures.append(f"last_digit/{metric} flagged")

    if workload.verb == "audit":
        with open(out / "manifest.json", encoding="utf-8") as fh:
            recorded = json.load(fh)["dataset"]["n_interactions"]
        if recorded != input_nnz(sample_dir):
            failures.append(f"manifest n_interactions {recorded} != input "
                            f"{input_nnz(sample_dir)}")
    return failures


def input_nnz(sample_dir: Path) -> int:
    """Interactions in the cleaned matrix: the generator writes one line per
    distinct user-item pair and no row is malformed or cold-start removed."""
    with open(sample_dir / workloads.DATA_DIR / "interactions.tsv", "rb") as fh:
        return sum(1 for _ in fh)


def output_digest(sample_dir: Path) -> str:
    """SHA-256 over the deterministic CSVs and manifest.json."""
    out = sample_dir / workloads.OUT_DIR
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.csv")) + sorted(out.glob("manifest.json")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def measure(workload: workloads.Workload, seed: int, seconds: float,
            trace: bool, work: Path) -> list[dict]:
    """Run samples until the next would overrun ``seconds``.  With ``trace``
    the samples come in plain/traced pairs, and every other pair runs its
    traced sample first, so drift within a run does not bias the overhead."""
    sample_dir = work / "sample"
    samples = []
    deadline = time.monotonic() + seconds
    while True:
        pair, second = divmod(len(samples), 2)
        traced = trace and (second == 1) != (pair % 2 == 1)
        began = time.monotonic()
        result, probe = run_child(workload, seed, traced, sample_dir)
        failures = check_sample(workload, sample_dir, result)
        sample = {"traced": traced, "probe_ms": probe, "failures": failures,
                  "duration_s": time.monotonic() - began}
        if not failures:
            sample.update(result, nnz=input_nnz(sample_dir),
                          digest=output_digest(sample_dir))
        samples.append(sample)
        longest = max(s["duration_s"] for s in samples)
        enough = len(samples) >= (2 if trace else MIN_SAMPLES)
        if enough and (not trace or len(samples) % 2 == 0) \
                and time.monotonic() + longest > deadline:
            return samples


def load_units(section: str) -> dict:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def end_to_end(good: list[dict], units: dict) -> dict:
    """Metric name -> (median over the successful samples, unit)."""
    values = {
        "wall_s": [s["wall_s"] for s in good],
        "nnz_per_s": [s["nnz"] / s["wall_s"] for s in good],
        "peak_rss_mib": [s["peak_rss_mib"] for s in good],
        "setup_s": [s["setup_s"] for s in good],
    }
    return {name: (statistics.median(values[name]), unit) for name, unit in units.items()}


def per_layer(samples: list[dict], units: dict) -> dict:
    """Metric name -> (median over the traced samples, unit), for every
    per-layer metric of BENCHMARK.json.  The tracing overhead is the median
    of traced minus plain wall time over the pairs where both succeeded."""
    pairs = [(a, b) if b["traced"] else (b, a)
             for a, b in zip(samples[0::2], samples[1::2])
             if not a["failures"] and not b["failures"]]
    if not pairs:
        return {}
    traced = [t for _, t in pairs]
    special = {
        "trace.overhead_s": statistics.median(t["wall_s"] - p["wall_s"]
                                              for p, t in pairs),
        "trace.unattributed_s": statistics.median(
            t["layers"]["unattributed_s"] for t in traced),
        "machine.probe_ms": statistics.median(s["probe_ms"] for s in samples),
    }
    out = {}
    for name, unit in units.items():
        if name in special:
            value = special[name]
        else:
            value = statistics.median(tracer.layer_metric(name, t["layers"]["totals"])
                                      for t in traced)
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)  # before numpy loads, for the probe

    if not (SRC / "recaudit" / "cli.py").is_file():
        print(f"perfbench: no recaudit sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        # compile the package once so no timed sample pays for bytecode
        subprocess.run([sys.executable, "-c", "import recaudit.cli, recaudit.synthetic"],
                       env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
        samples = measure(workload, args.seed, args.seconds, args.trace == 1, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [s for s in samples if not s["failures"]]
    digests = sorted({s["digest"] for s in good})
    failed = len(samples) - len(good)
    if len(digests) > 1:
        failed = len(samples)  # the byte-identity contract holds for no sample
    if args.trace:
        measured = per_layer(samples, load_units("per_layer"))
        if not measured:
            failed = len(samples)  # no plain/traced pair to report
    else:
        measured = end_to_end(good, load_units("end_to_end")) if good else {}
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in measured.items()}

    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "threads": workload.threads, "users": workload.users, "items": workload.items,
        "environment": THREAD_ENV, **runtime_versions(),
        "digests": digests, "fail_frac": failed / len(samples),
        "samples": [{k: s.get(k) for k in ("traced", "probe_ms", "wall_s", "setup_s",
                                           "peak_rss_mib", "nnz", "failures")}
                    for s in samples],
    }
    print("perfbench " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
