"""Write one benchmark record of this checkout, and optionally of a parent checkout.

    python3 benchmarks/record.py --out BENCH_<n>.json [--parent DIR]

For each side (this checkout as "change", and with --parent a checkout of the
parent commit as "parent") the record holds:

- the result line of every deskbench workload of BENCHMARK.json at seed 3,
  run for BENCHMARK.json's run_seconds, with --trace 0 and with --trace 1;
- the wall time, the pass/fail counts and the id of each failed test of the
  tier-1 suite (`python -m pytest -q --continue-on-collection-errors` with
  src on the path, and `-rf` for the `FAILED <id>` lines);
- each acceptance criterion's time against its budget, read from the line
  tests/test_acceptance.py prints for it during that tier-1 run;
- the wall time and exit code of the desk battery, `python -m hlsixv.cli
  verify all --seed 42` with src on the path.

It also records the machine: Python, numpy and scipy versions, core count,
CPU model and whether numba imports.  With two sides, every measurement runs
on both before the next one starts, alternating which side goes first.
Run it on an otherwise idle machine: every number is a wall time.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
CRITERION = re.compile(
    r"ACCEPTANCE +(\d+) \[(PASS|FAIL)\] (.*): statistic (\S+), "
    r"([0-9.]+)s \(budget ([0-9.]+)s\)"
)
COUNT = re.compile(r"(\d+) (passed|failed|error)")
FAILED = re.compile(r"^FAILED (.+?)(?: - .*)?$")


def machine() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def commit(side: Path):
    """The checkout's commit, marked -dirty when its files differ from it."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                          cwd=side, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def deskbench(side: Path, workload: str, seconds: float, trace: int) -> dict:
    """The strict-JSON result line of one deskbench run."""
    proc = subprocess.run(
        [sys.executable, "deskbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side, capture_output=True, text=True, timeout=1800,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"deskbench {workload} --trace {trace} in {side} "
                           f"exited {proc.returncode}: {proc.stderr[-2000:]}")

    def reject(name):
        raise ValueError(f"non-finite number {name} in the result line")

    return json.loads(proc.stdout.splitlines()[-1], parse_constant=reject)


def src_env(side: Path) -> dict:
    """The environment with the side's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(side / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def verify_all(side: Path) -> dict:
    """Wall time and exit code of the desk battery through the CLI."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hlsixv.cli", "verify", "all", "--seed", "42"],
        cwd=side, env=src_env(side), capture_output=True, text=True, timeout=3600,
    )
    return {"wall_s": time.perf_counter() - t0, "exit_code": proc.returncode}


def tier1(side: Path) -> dict:
    """Wall time and counts of the tier-1 suite, and the acceptance lines."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=side, env=src_env(side), capture_output=True, text=True, timeout=3600,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    summary = lines[-1] if lines else ""
    counts = {kind: int(n) for n, kind in COUNT.findall(summary)}
    criteria = [
        {"criterion": int(m[1]), "status": m[2], "label": m[3],
         "statistic": float(m[4]), "elapsed_s": float(m[5]),
         "budget_s": float(m[6])}
        for m in (CRITERION.search(line) for line in lines) if m
    ]
    return {
        "wall_s": wall,
        "exit_code": proc.returncode,
        "summary": summary,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "errors": counts.get("error", 0),
        "failed_tests": [m[1] for m in map(FAILED.match, lines) if m],
        "criteria": sorted(criteria, key=lambda c: c["criterion"]),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--parent", type=Path,
                   help="a checkout of the parent commit, measured as 'parent'")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {"change": ROOT}
    if args.parent:
        sides = {"parent": args.parent.resolve(), "change": ROOT}
    record = {
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "machine": machine(),
        "seed": SEED,
        "run_seconds": seconds,
        "sides": {name: {"commit": commit(path), "deskbench": {w: {} for w in workloads}}
                  for name, path in sides.items()},
    }

    jobs = [(w, trace) for trace in (0, 1) for w in workloads]
    jobs += [("tier1", None), ("verify_all", None)]
    for n, (what, trace) in enumerate(jobs):
        order = list(sides.items())
        if n % 2:
            order.reverse()
        for name, path in order:
            print(f"record: {name} {what} trace={trace}", file=sys.stderr, flush=True)
            side = record["sides"][name]
            if what == "tier1":
                side["tier1"] = tier1(path)
            elif what == "verify_all":
                side["verify_all"] = verify_all(path)
            else:
                result = deskbench(path, what, seconds, trace)
                side["deskbench"][what][f"trace{trace}"] = result

    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
