"""The benchmark's tracer still finds every pipeline function it wraps: a
traced ``perfbench/child.py`` sample of ``report-rerender`` and of
``audit-rank`` exits 0, records every layer its workload expects and
counts one pop-index user per workload user.  The samples run in a temporary directory, and nothing is written under
``perfbench/``."""

import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PERFBENCH = ROOT / "perfbench"


def tree(root: Path) -> dict:
    """Every path under ``root`` with its size and modification time."""
    return {str(p): (p.stat().st_size, p.stat().st_mtime_ns) for p in root.rglob("*")}


@pytest.mark.parametrize("workload, layers", [("report-rerender", "COMMON_LAYERS"),
                                              ("audit-rank", "AUDIT_LAYERS")])
def test_traced_sample_reaches_every_layer(workload, layers, tmp_path):
    before = tree(PERFBENCH)
    # run_path compiles the file without writing its bytecode
    namespace = runpy.run_path(str(PERFBENCH / "workloads.py"))
    expected = namespace[layers]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), workload, "1", "1",
         repr(time.monotonic()), "result.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert result["exit_code"] == 0
    assert set(expected) <= set(result["layers"]["totals"])
    # the pop-index stage fills one profile row per matrix user, and the
    # workload's every user keeps a non-empty row
    assert result["layers"]["totals"]["popindex"]["counts"]["users"] == \
        namespace["WORKLOADS"][workload].users
    assert tree(PERFBENCH) == before
