"""Desk-scale benchmark of hlsixv: one workload per run, checked for correctness.

    python3 deskbench/run.py --workload exact-laws --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
`src` directory.  A run makes the workload's inputs from --seed, times set-up
in fresh interpreters, then repeats whole rounds of the workload until the
next round would end after --seconds.  The hlsixv lattice cache is emptied
before every round.  With --trace 0 it times the rounds on a reference clock
(see refclock.py) and prints the end-to-end metrics; with --trace 1 it wraps
the program's public functions and prints the per-layer metrics, saving the
last round's spans under .deskbench/.  The last line of standard output is
the result; the line before it holds run details.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5


def import_program():
    """Import hlsixv from this checkout's src, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import hlsixv
    except ImportError as exc:
        sys.exit(f"deskbench: cannot import hlsixv from {SRC}: {exc}")
    if not Path(hlsixv.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"deskbench: hlsixv resolved to {hlsixv.__file__}, outside {SRC}")
    return hlsixv


def machine_facts(hlsixv) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "active_mode": getattr(hlsixv, "ACTIVE_MODE", None),
    }


def time_setup(workload: str, seed: int) -> float:
    """Interpreter start until hlsixv is imported and the inputs are made."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["exact-laws", "monte-carlo", "rsk-trajectory"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the program, make the inputs and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    hlsixv = import_program()
    import refclock
    import workloads

    make_inputs, run_round = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    if args.setup_only:
        return 0

    setup = []
    tracer = clock = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    else:
        setup = [time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
        clock = refclock.RefClock()

    round_s, round_refs, work = [], [], []
    attempted = failed = wrong = 0
    notes: list = []
    start = time.perf_counter()
    if clock:
        clock.start()
    try:
        while True:
            workloads.reset_caches()
            if tracer:
                tracer.begin_round()
            sampled = clock.sampling_s if clock else 0.0
            r0 = clock.now() if clock else 0.0
            t0 = time.perf_counter()
            tally = run_round(inputs)
            dt = time.perf_counter() - t0
            if clock:
                round_refs.append(clock.now() - r0)
                dt -= clock.sampling_s - sampled
            if tracer:
                tracer.end_round()
            round_s.append(dt)
            work.append(tally.work)
            attempted += tally.attempted
            failed += tally.failed
            wrong += tally.wrong
            notes += tally.notes
            if time.perf_counter() - start + statistics.median(round_s) > args.seconds:
                break
    finally:
        if clock:
            clock.stop()

    if tracer:
        metrics = tracer.per_layer()
        metrics["trace.wall_s"] = {"value": statistics.median(round_s), "unit": "s"}
        trace_file = ROOT / ".deskbench" / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_file)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_ref": {"value": statistics.median(round_refs), "unit": "ref"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "work_per_ref": {
                "value": statistics.median(w / r for w, r in zip(work, round_refs)),
                "unit": "1/ref",
            },
        }
        trace_file = None

    for note in notes[:10]:
        sys.stderr.write(f"deskbench: failed: {note}\n")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(round_s),
        "round_s": round_s,
        "wall_s": statistics.median(round_s),
        "round_refs": round_refs,
        "reference_passes": clock.passes if clock else 0,
        "setup_samples_s": setup,
        "work_per_round": tally.work,
        "machine": machine_facts(hlsixv),
        "spans_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
