"""Run every workload over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/steady.py                      # one run per workload
    python3 perfbench/steady.py --runs 10 --save set1.json
    python3 perfbench/steady.py --trace              # also one traced run each
    python3 perfbench/steady.py --compare set1.json set2.json

Runs go round-robin over the workloads, reversing the order every round,
so a slow phase of the host lands on all workloads instead of one.  Round
i runs ``run.py`` at seed i (from 1) for BENCHMARK.json's run_seconds; the
traced runs use seed 1.  The report gives, per workload and
metric, the median, quartiles and quartile spread (as a share of the
median) next to the bound in BENCHMARK.json, the machine-speed probe's
quartiles over the same runs, and fail_frac = failed / attempted samples.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                           f"{proc.stderr[-3000:]}")
    detail = json.loads(lines[-2].split(" ", 1)[1])
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "detail": detail}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(runs: list[dict], spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    plain = [r for r in runs if not r["trace"]]
    for workload in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in plain if r["workload"] == workload]
        if not mine:
            continue
        attempted = sum(r["result"]["attempted"] for r in mine)
        failed = sum(r["result"]["failed"] for r in mine)
        d = mine[0]["detail"]
        print(f"\n{workload}: {len(mine)} runs, {attempted} samples, "
              f"fail_frac {failed / attempted:.3f} (count), seeds "
              f"{[r['seed'] for r in mine]}, {d['users']}x{d['items']}, "
              f"--threads {d['threads']}, nproc {d['nproc']}, python {d['python']}, "
              f"numpy {d['numpy']}, {d['blas']}, {d['environment']}")
        print(f"  {'metric':16s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        probes = [statistics.median(s["probe_ms"] for s in r["detail"]["samples"])
                  for r in mine]
        rows = [(name, m["unit"], [r["result"]["metrics"][name]["value"] for r in mine],
                 bounds[name]) for name, m in mine[0]["result"]["metrics"].items()]
        rows.append(("machine.probe_ms", "ms", probes, None))
        for name, unit, values, bound in rows:
            q1, q2, q3 = quartiles(values)
            bound_text = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {name:16s} {unit:6s} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{(q3 - q1) / q2:7.3f} {bound_text}")
    for r in runs:
        if r["trace"]:
            print(f"\n{r['workload']} traced (seed {r['seed']}, "
                  f"{r['result']['attempted']} samples, failed {r['result']['failed']}):")
            for name, m in r["result"]["metrics"].items():
                print(f"  {name:26s} {m['value']:14.6g} {m['unit']}")


def compare(first: list[dict], second: list[dict], spec: dict) -> int:
    """Median shift of every end-to-end metric between two sets, against its
    bound (positive = worse), and output digests of equal seeds."""
    worse = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in [w["name"] for w in spec["workloads"]]:
            a = [r["result"]["metrics"][name]["value"] for r in first
                 if r["workload"] == workload and not r["trace"]]
            b = [r["result"]["metrics"][name]["value"] for r in second
                 if r["workload"] == workload and not r["trace"]]
            if not a or not b:
                continue
            shift = sign * (statistics.median(b) / statistics.median(a) - 1.0)
            flag = "WORSE" if shift > bound else "ok"
            worse += shift > bound
            print(f"{workload:16s} {name:14s} shift {shift:+.3f} bound {bound:.2f} {flag}")
    digests = {}
    for r in first + second:
        key = (r["workload"], r["seed"])
        digests.setdefault(key, set()).update(r["detail"]["digests"])
    differing = [key for key, values in digests.items() if len(values) > 1]
    print(f"output digests differing for equal seeds: {differing or 'none'}")
    return 1 if worse or differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="runs per workload")
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per workload")
    parser.add_argument("--save", help="write the raw runs to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar="SET",
                        help="compare two saved sets instead of running")
    args = parser.parse_args(argv)
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        return compare(sets[0], sets[1], spec)

    names = [w["name"] for w in spec["workloads"]]
    runs = []
    for i in range(args.runs):
        for name in (names if i % 2 == 0 else names[::-1]):
            runs.append(run_once(name, 1 + i, spec["run_seconds"], False))
            print(f"{name} seed {1 + i}: {json.dumps(runs[-1]['result'])}",
                  file=sys.stderr, flush=True)
    if args.trace:
        for name in names:
            runs.append(run_once(name, 1, spec["run_seconds"], True))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(runs, fh)
    report(runs, spec)
    failed = sum(r["result"]["failed"] for r in runs)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
