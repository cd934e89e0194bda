"""Time each hot kernel, the Monte Carlo ensembles, the outcome counter and
the two sides of the coupled RSK trajectory on fixed desk-scale inputs.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from hlsixv import _kernels
from hlsixv import hl_process as hl
from hlsixv import rsk
from hlsixv import verify as vf


def timeit(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_scatter():
    lat = hl.get_lattice(3, 24)
    n = len(lat.mu_idx)
    vec = np.random.RandomState(0).random_sample(len(lat.states))
    data = np.random.RandomState(1).random_sample(n)
    out = np.zeros_like(vec)
    return timeit(_kernels.scatter_accumulate, lat.mu_idx, lat.lam_idx, data,
                  vec, out), f"{n} edges"


def bench_edges(rows, cap):
    parts = _kernels.box_partitions(rows, cap)
    return timeit(_kernels.build_interlacing_edges, parts), \
        f"{len(parts)} states, {rows}x{cap}"


def bench_rsk():
    rates = [1.0, 0.8, 0.6]
    taus = [0.5, 1.0, 1.6]
    return timeit(rsk.rsk_first_column_ensemble, rates, 0.5, taus, 20000,
                  1), "20k runs"


def bench_rsk_top():
    return timeit(rsk.rsk_top_level_ensemble, [1.0, 0.8], 0.5, 0.6, 100000,
                  1), "100k runs"


def bench_halfcont():
    rates = np.array([1.0, 0.8, 0.6])
    taus = np.array([0.5, 1.0, 1.6])
    return timeit(_kernels.half_continuous_grid_ensemble, rates, 0.5, taus,
                  20000, 1), "20k runs"


def bench_sixv():
    a = np.array([0.5, 0.4, 0.3])
    b = np.array([0.5, 0.45, 0.3])
    heights = np.array([3, 3, 3], dtype=np.int64)
    return timeit(_kernels.six_vertex_tcode_counts, a, b, 0.4, heights, 20000,
                  1), "20k samples"


def bench_counts():
    # first columns of the rsk_first_column_ensemble input, as verify counts them
    arr = rsk.rsk_first_column_ensemble([1.0, 0.8, 0.6], 0.5, [0.5, 1.0, 1.6],
                                        20000, 1)
    return timeit(vf._vector_counts, arr), "20k x 9"


def bench_coupled(stepper, start, events):
    """Mean time per event of one side of a coupled trajectory of `events`
    signals from `start` at six levels (criterion 8's seed and t)."""
    rng = np.random.default_rng(108)
    signals = [(int(rng.integers(1, 7)), list(rng.random(6)))
               for _ in range(events)]

    def run():
        state = start
        for k, buf in signals:
            state = stepper(state, k, 0.38, iter(buf).__next__, record=[])

    return timeit(run) / events, f"per event, {events} ev"


BENCHES = [
    ("build_interlacing_edges", lambda: bench_edges(3, 20)),
    ("build_interlacing_edges", lambda: bench_edges(4, 12)),
    ("scatter_accumulate", bench_scatter),
    ("rsk_first_column_ensemble", bench_rsk),
    ("rsk_top_level_ensemble", bench_rsk_top),
    ("half_continuous_grid_ensemble", bench_halfcont),
    ("six_vertex_tcode_counts", bench_sixv),
    ("verify._vector_counts", bench_counts),
    ("sets_apply_signal",
     lambda: bench_coupled(rsk.sets_apply_signal, rsk.SetSystem(6), 1000)),
    ("sets_apply_signal",
     lambda: bench_coupled(rsk.sets_apply_signal, rsk.SetSystem(6), 10000)),
    ("rsk_apply_signal",
     lambda: bench_coupled(rsk.rsk_apply_signal, rsk.PartitionArray(6), 1000)),
    ("rsk_apply_signal",
     lambda: bench_coupled(rsk.rsk_apply_signal, rsk.PartitionArray(6), 10000)),
]


def _fmt(seconds):
    if seconds < 1e-3:
        return f"{seconds*1e6:8.2f}us"
    return f"{seconds*1e3:8.2f}ms"


def main():
    header = f"{'kernel':34s} {'size':20s} {'best of 3':>10s}"
    print(header)
    print("-" * len(header))
    for name, bench in BENCHES:
        best, size = bench()
        print(f"{name:34s} {size:20s} {_fmt(best)}")


if __name__ == "__main__":
    main()
