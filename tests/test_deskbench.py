"""The traced deskbench result: one round of exact-laws with --trace 1 must end
in a strict JSON line that is correct and names every per-layer metric of
BENCHMARK.json, so that removing a function or attribute the tracer reads
shows here and not only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


def test_traced_exact_laws_result_names_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "deskbench/run.py", "--workload", "exact-laws",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    wanted = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == wanted
