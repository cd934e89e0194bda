"""The traced deskbench result: one round of each workload with --trace 1 must
end in a strict JSON line that is correct and names every per-layer metric of
BENCHMARK.json, so that removing a function or attribute the tracer reads
shows here and not only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


# per workload, the metrics that must count some work: the tracer reads them
# from functions the workload reaches only through the program's names
COUNTED = {
    "exact-laws": (),
    "monte-carlo": ("rsk.ensemble_runs",),
    "rsk-trajectory": ("rsk.signals",),
}


@pytest.mark.parametrize("workload", sorted(COUNTED))
def test_traced_result_names_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, "deskbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    wanted = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == wanted
    for name in COUNTED[workload]:
        assert result["metrics"][name]["value"] > 0, name
