"""Print SHA-256 digests of every exact law and seeded output of hlsixv.

    python3 benchmarks/digest.py

Imports hlsixv from the src directory next to this script, so a copy of the
script inside another checkout digests that checkout.  Two checkouts whose
lines agree compute the same outputs bit for bit:

- laws: for one draw of `verify.draw_matched_params` per sign string S with
  M, N <= 3 (seed SEED), the Hall-Littlewood support, string, first-column
  and every marginal law, the sequence law when M N <= 4, and the six-vertex
  outgoing, string and cut-column laws: outcomes in order with their
  probabilities, and the mass deficit, at `hl_process.row_cap`;
- samplers: five `SequenceSampler` draws, `sample_outgoing_counts` and the
  edge arrays of five `sample_edges` runs at fixed seeds;
- verify: the `verify.run_all(seed=42)` reports without `runtime`;
- trajectories: at seeds TRAJECTORY_SEEDS, `rsk.run_rsk` on 6 levels with
  snapshots and its `events`, the `rsk.run_sets` complements, and the
  `rsk.run_pushtasep` events and final state on 60 sites; the rows reach
  the hundreds;
- ensembles: the raw int32 records of `rsk.rsk_first_column_ensemble`,
  `rsk.rsk_top_level_ensemble` and `six_vertex.half_continuous_height_ensemble`
  at seed ENSEMBLE_SEED, each of `_kernels.ENSEMBLE_BLOCK + 5` runs, so
  that the runs span a block boundary;
- all: one digest over the five;
- zeros: for each sign string S with M N <= 6, one draw of
  `verify.draw_matched_params` (seed SEED) with one a_i or b_j set to 0 in
  turn, at row caps ZERO_CAPS: the Hall-Littlewood sequence law, every
  marginal law and 20 `SequenceSampler` draws.  A zero parameter leaves
  states that no path returns to ∅ from, which the sequence tables must
  drop.  It is printed after all, so that all stays comparable with the
  digests recorded before it.
- fresh: for each sign string S with M = N <= 3, one draw of
  `verify.draw_matched_params` (seed SEED), the Hall-Littlewood string,
  support and first-column laws at row cap FRESH_CAP, each on an emptied
  `hl_process._LATTICES`.  Every other line reaches its lattices through
  `row_cap`'s full forward sweep; these laws read lattices that only the
  bounded string walk has stepped on.  It is printed last, so that every
  earlier line stays comparable with the digests recorded before it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hlsixv import _kernels  # noqa: E402
from hlsixv import hl_process as hl  # noqa: E402
from hlsixv import partitions as pt  # noqa: E402
from hlsixv import rsk  # noqa: E402
from hlsixv import six_vertex as sv  # noqa: E402
from hlsixv import verify as vf  # noqa: E402

SEED = 20
TRAJECTORY_SEEDS = (4, 17)
RSK_RATES = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)
RSK_T = 0.38
RSK_HORIZON = 400.0
PUSH_RATES = tuple(0.5 + (i % 7) / 6 for i in range(60))
PUSH_HORIZON = 10.0
ENSEMBLE_SEED = 31
ENSEMBLE_RATES = (1.0, 0.7, 0.4)
ENSEMBLE_T = 0.42
ENSEMBLE_TAUS = (0.4, 0.9, 1.7)
ZERO_CAPS = (4, 9)
FRESH_CAP = 16


def _law(dist) -> str:
    return repr((list(dist.items()), dist.mass_deficit))


def _domains():
    rng = np.random.default_rng(SEED)
    for M in (1, 2, 3):
        for N in (1, 2, 3):
            for S in pt.enumerate_sign_class(M, N, +1):
                t, a, b = vf.draw_matched_params(rng, M, N)
                yield M, N, S, t, a, b


def laws():
    for M, N, S, t, a, b in _domains():
        spec = hl.HLProcessSpec(t=t, a=a, b=b, S=S)
        cap = hl.row_cap(spec)
        yield repr((M, N, S, t, a, b, cap))
        yield _law(hl.exact_support_distribution(spec, cap))
        yield _law(hl.exact_support_string_distribution(spec, cap))
        yield _law(hl.exact_first_column_distribution(spec, cap))
        for pos in range(1, M + N):
            yield _law(hl.exact_marginal_distribution(spec, pos, cap))
        if M * N <= 4:
            yield _law(hl.exact_sequence_distribution(spec, cap))
        params = sv.SixVertexParams(t=t, a=a, b=b)
        domain = sv.JaggedDomain(M, N, S)
        yield _law(sv.exact_outgoing_distribution(params, domain))
        yield _law(sv.exact_outgoing_string_distribution(params, domain))
        yield _law(sv.exact_cut_column_distribution(params, domain))


def zeros():
    rng = np.random.default_rng(SEED)
    for M, N in ((M, N) for M in range(1, 7) for N in range(1, 7) if M * N <= 6):
        for S in pt.enumerate_sign_class(M, N, +1):
            t, a, b = vf.draw_matched_params(rng, M, N)
            for k in range(M + N):
                za = tuple(0.0 if i == k else x for i, x in enumerate(a))
                zb = tuple(0.0 if M + j == k else x for j, x in enumerate(b))
                spec = hl.HLProcessSpec(t=t, a=za, b=zb, S=S)
                for cap in ZERO_CAPS:
                    yield repr((M, N, S, t, za, zb, cap))
                    yield _law(hl.exact_sequence_distribution(spec, cap))
                    for pos in range(1, M + N):
                        yield _law(hl.exact_marginal_distribution(spec, pos, cap))
                    sampler = hl.SequenceSampler(spec, cap, seed=k)
                    yield repr([sampler.sample() for _ in range(20)])


def fresh():
    rng = np.random.default_rng(SEED)
    for M in (1, 2, 3):
        for S in pt.enumerate_sign_class(M, M, +1):
            t, a, b = vf.draw_matched_params(rng, M, M)
            spec = hl.HLProcessSpec(t=t, a=a, b=b, S=S)
            yield repr((M, S, t, a, b, FRESH_CAP))
            for law in (hl.exact_support_string_distribution, hl.exact_support_distribution,
                        hl.exact_first_column_distribution):
                hl._LATTICES.clear()
                yield _law(law(spec, FRESH_CAP))


def samplers():
    spec = hl.HLProcessSpec(t=0.4, a=(0.3, 0.5), b=(0.4, 0.2), S="+-+-")
    sampler = hl.SequenceSampler(spec, hl.row_cap(spec), seed=5)
    yield repr([sampler.sample() for _ in range(5)])
    params = sv.SixVertexParams(t=0.35, a=(0.5, 0.3, 0.4), b=(0.6, 0.2, 0.5))
    domain = sv.JaggedDomain(3, 3, "++-+--")
    yield repr(sorted(sv.sample_outgoing_counts(params, domain, 5000, seed=7).items()))
    vert, horiz = sv.sample_edges(params, domain, 5, seed=9)
    yield repr((vert.tolist(), horiz.tolist()))


def verify():
    for report in vf.run_all(seed=42):
        d = report.to_json_dict()
        del d["runtime"]
        yield json.dumps(d, sort_keys=True)


def trajectories():
    for seed in TRAJECTORY_SEEDS:
        events: list = []
        traj = rsk.run_rsk(RSK_RATES, RSK_T, RSK_HORIZON, seed,
                           snapshot_times=(50.0, 200.0, RSK_HORIZON), events=events)
        yield repr([(tau, arr.levels) for tau, arr in traj])
        yield repr(events)
        sets = rsk.run_sets(RSK_RATES, RSK_T, RSK_HORIZON, seed)
        yield repr([sorted(c) for c in sets.complements])
        events, state = rsk.run_pushtasep(PUSH_RATES, RSK_T, PUSH_HORIZON, seed)
        yield repr((events, state.occupied))


def ensembles():
    runs = _kernels.ENSEMBLE_BLOCK + 5
    for out in (
        rsk.rsk_first_column_ensemble(ENSEMBLE_RATES, ENSEMBLE_T, ENSEMBLE_TAUS,
                                      runs, ENSEMBLE_SEED),
        rsk.rsk_top_level_ensemble(ENSEMBLE_RATES, ENSEMBLE_T, ENSEMBLE_TAUS[-1],
                                   runs, ENSEMBLE_SEED),
        sv.half_continuous_height_ensemble(ENSEMBLE_T, ENSEMBLE_RATES,
                                           ENSEMBLE_TAUS, runs, ENSEMBLE_SEED),
    ):
        yield repr(out.shape)
        yield np.ascontiguousarray(out, dtype="<i4").tobytes()


def _digest(part) -> bytes:
    h = hashlib.sha256()
    for line in part():
        # text lines end in a newline, raw arrays go in as they are
        h.update(line if isinstance(line, bytes) else line.encode() + b"\n")
    return h.digest()


def main() -> None:
    total = hashlib.sha256()
    for name, part in (("laws", laws), ("samplers", samplers), ("verify", verify),
                       ("trajectories", trajectories), ("ensembles", ensembles)):
        digest = _digest(part)
        total.update(digest)
        print(f"{name} {digest.hex()}")
    print(f"all {total.hexdigest()}")
    print(f"zeros {_digest(zeros).hex()}")
    print(f"fresh {_digest(fresh).hex()}")


if __name__ == "__main__":
    main()
