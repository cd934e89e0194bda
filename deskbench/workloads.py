"""The three workloads: inputs made from the seed, one round of operations,
and the gates each operation's outputs must pass.

Every operation is one identity check or one trajectory.  It fails when it
raises or when one of its gates misses; a miss also marks the run incorrect.
Gates compare two computations the program makes apart from each other (the
Hall-Littlewood lattice DP against the six-vertex transfer sweep, sampled
counts against an exact law, the array dynamics against the set dynamics),
or test properties the method must have, such as normalization and
interlacing.  No gate compares against stored output.

The program is reached through module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2

from hlsixv import cli
from hlsixv import hl_process as hl
from hlsixv import moments as mo
from hlsixv import partitions as pt
from hlsixv import rsk
from hlsixv import six_vertex as sv
from hlsixv import tboson as tb
from hlsixv import verify as vf

TV_TOL = 1e-9
MASS_TOL = 1e-10
DEFICIT_TOL = 1e-12
P_FLOOR = 1e-3


@dataclass
class Tally:
    """Operations attempted, failed and wrong in one round, plus the work done."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    work: int = 0  # checks, samples or signals, as the workload counts them
    notes: list = field(default_factory=list)

    def op(self, label, fn):
        """Run one operation; fn returns its gate misses (empty when all hold)."""
        self.attempted += 1
        try:
            misses = fn()
        except Exception as exc:  # a program error fails this operation only
            self.failed += 1
            self.notes.append(f"{label}: {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            return
        if misses:
            self.failed += 1
            self.wrong += 1
            self.notes.append(f"{label}: " + "; ".join(misses))


def _tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _law_misses(name, dist, with_deficit=False):
    misses = []
    total = sum(dist.outcomes.values())
    if abs(total - 1.0) > MASS_TOL:
        misses.append(f"{name} sums to {total!r}")
    if with_deficit and not abs(dist.mass_deficit) < DEFICIT_TOL:
        misses.append(f"{name} mass_deficit {dist.mass_deficit!r}")
    return misses


def _pi_closed_form(spec) -> float:
    """Pi^S: product over steps i < j with S(i) = +, S(j) = - of (1 - t a b)/(1 - a b).

    An independent check on hl_process.normalization_pi, which the
    mass_deficit of every law is measured against.
    """
    steps = spec.steps()
    pi = 1.0
    for i, (kind_i, a) in enumerate(steps):
        if kind_i != "+":
            continue
        for kind_j, b in steps[i + 1:]:
            if kind_j == "-":
                pi *= (1.0 - spec.t * a * b) / (1.0 - a * b)
    return pi


def _pearson_p(counts: dict, law: dict, min_expected=5.0) -> float:
    """Chi-square p-value of counts against an exact law, pooling small cells.

    Kept apart from verify.chi_square_gof so that the gate does not rest on
    the code under test.
    """
    n = sum(counts.values())
    cells = sorted(law.items(), key=lambda kv: kv[1])
    stat, dof = 0.0, -1
    obs = exp = 0.0
    for key, p in cells:
        obs += counts.get(key, 0)
        exp += n * p
        if exp >= min_expected:
            stat += (obs - exp) ** 2 / exp
            dof += 1
            obs = exp = 0.0
    if exp > 0:
        stat += (obs - exp) ** 2 / exp
    return float(chi2.sf(stat, max(dof, 1)))


def _majority(pvals) -> bool:
    return sum(1 for p in pvals if p > P_FLOOR) >= 2


# ---------------------------------------------------------------------------
# exact-laws


EXACT_CAP = 16  # every draw is kept only if its minimal row cap fits this lattice
MOMENT_DRAWS = 8
EXCHANGE_DRAWS = 2


def exact_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    domains = []
    for M in (1, 2, 3):
        for N in (1, 2, 3):
            for S in pt.enumerate_sign_class(M, N, +1):
                while True:
                    t, a, b = vf.draw_matched_params(rng, M, N)
                    spec = hl.HLProcessSpec(t=t, a=a, b=b, S=S)
                    if hl.minimal_row_cap(spec) <= EXACT_CAP:
                        break
                domains.append((M, N, S, t, a, b))
    moments = []
    for i in range(MOMENT_DRAWS):
        k = 1 + i % 2
        N = 1 + int(rng.integers(0, 2))
        ms = sorted((int(v) for v in rng.integers(1, 4, size=k)), reverse=True)
        t = float(rng.uniform(0.4, 0.75))
        a = tuple(float(v) for v in rng.uniform(0.05, 0.3, size=max(ms)))
        b = tuple(float(v) for v in rng.uniform(0.05, 0.3, size=N))
        moments.append((k, ms, N, t, a, b))
    exchange = [tuple(float(v) for v in rng.uniform(0.1, 0.9, size=3))
                for _ in range(EXCHANGE_DRAWS)]
    return {"domains": domains, "moments": moments, "exchange": exchange}


def exact_round(inp: dict) -> Tally:
    tally = Tally()
    for M, N, S, t, a, b in inp["domains"]:
        spec = hl.HLProcessSpec(t=t, a=a, b=b, S=S)
        params = sv.SixVertexParams(t=t, a=a, b=b)
        domain = sv.JaggedDomain(M, N, S)
        label = f"M={M} N={N} S={pt.signs_to_str(S)}"
        support = {}

        def support_match():
            hdist = hl.exact_support_distribution(spec, EXACT_CAP)
            vdist = sv.exact_outgoing_distribution(params, domain)
            support["law"] = hdist.outcomes
            misses = _law_misses("HL support law", hdist, with_deficit=True)
            misses += _law_misses("6v outgoing law", vdist)
            pi = hl.normalization_pi(spec)
            if abs(pi - _pi_closed_form(spec)) > 1e-12 * pi:
                misses.append(f"Pi^S {pi!r} differs from the closed form")
            tv = _tv(hdist.outcomes, vdist.outcomes)
            if not tv < TV_TOL:
                misses.append(f"support TV {tv!r}")
            return misses

        def height_match():
            hdist = hl.exact_first_column_distribution(spec, EXACT_CAP)
            vdist = sv.exact_cut_column_distribution(params, domain)
            misses = _law_misses("first-column law", hdist, with_deficit=True)
            misses += _law_misses("cut-path height law", vdist)
            tv = _tv(hdist.outcomes, vdist.outcomes)
            if not tv < TV_TOL:
                misses.append(f"height TV {tv!r}")
            return misses

        def brute_force():
            seqs = hl.exact_sequence_distribution(spec, EXACT_CAP)
            misses = _law_misses("sequence law", seqs, with_deficit=True)
            pushed: dict = {}
            for seq, p in seqs.items():
                key = tuple(hl.support_of_sequence(seq, S))
                pushed[key] = pushed.get(key, 0.0) + p
            tv = _tv(pushed, support.get("law", {}))
            if not tv < TV_TOL:
                misses.append(f"brute-force pushforward TV {tv!r}")
            return misses

        tally.op(f"support-match {label}", support_match)
        tally.op(f"height-match {label}", height_match)
        if M * N <= 4:
            tally.op(f"brute-force {label}", brute_force)

    def point_moment():
        v = mo.hl_moment(1, [1], 1, 0.5, (0.5,), (0.5,))
        return [] if abs(v - 4.0 / 7.0) < 1e-9 else [f"hl_moment {v!r} != 4/7"]

    tally.op("moment 4/7", point_moment)
    for k, ms, N, t, a, b in inp["moments"]:
        def moment_match():
            lhs, rhs, diff = mo.moment_match_check(k, ms, N, t, a, b)
            exact = vf.hl_exact_moment(k, ms, N, t, a, b)
            exact6 = vf.sixv_exact_moment(k, ms, N, t, a, b)
            misses = []
            if not diff < 1e-7:
                misses.append(f"contour moments differ by {diff!r}")
            worst = max(abs(lhs - exact), abs(rhs - exact6))
            if not worst < 1e-8:
                misses.append(f"contour vs exact moment {worst!r}")
            return misses

        tally.op(f"moment-match k={k} ms={ms} N={N}", moment_match)
    for a, b, t in inp["exchange"]:
        for which in ("CA", "CB", "DA", "DB"):
            def exchange():
                r = tb.verify_exchange_relation(which, 3, 3, a, b, t)
                return [] if r < 1e-11 else [f"residual {r!r}"]

            tally.op(f"exchange {which} L=3 cap=3", exchange)
    tally.work = tally.attempted
    return tally


# ---------------------------------------------------------------------------
# monte-carlo


RSK_SAMPLES = 20000
PLANCHEREL = {"rates": (1.0, 0.8), "t": 0.5, "tau": 0.6, "level": 2, "K": 64,
              "samples": 100000}
SIXV_DOMAIN = "+-++--"
SIXV_SAMPLES = 20000


def _fmt(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


def mc_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    # fixed sum of rates and last tau: the ensembles simulate the same
    # expected number of events whatever the seed
    rates = np.sort(rng.uniform(0.5, 1.0, size=3))[::-1]
    rates = rates * (2.4 / rates.sum())
    taus = sorted(float(x) for x in rng.uniform(0.3, 1.5, size=2)) + [1.6]
    return {
        "seed": seed,
        "rsk_argv": ["verify", "rsk", "--rates", _fmt(rates),
                     "--t", repr(float(rng.uniform(0.4, 0.6))), "--taus", _fmt(taus),
                     "--samples", str(RSK_SAMPLES), "--seed", str(seed)],
        "plancherel_argv": ["verify", "plancherel",
                            "--rates", _fmt(PLANCHEREL["rates"]),
                            "--t", repr(PLANCHEREL["t"]), "--tau", repr(PLANCHEREL["tau"]),
                            "--level-n", str(PLANCHEREL["level"]), "--K", str(PLANCHEREL["K"]),
                            "--samples", str(PLANCHEREL["samples"]), "--seed", str(seed)],
        "sixv": (float(rng.uniform(0.3, 0.5)),
                 tuple(float(v) for v in rng.uniform(0.3, 0.5, size=3)),
                 tuple(float(v) for v in rng.uniform(0.3, 0.5, size=3))),
    }


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def mc_round(inp: dict) -> Tally:
    tally = Tally()

    def rsk_field():
        code, reports = _run_cli(inp["rsk_argv"])
        if code != 0 or not reports:
            return [f"verify rsk exited {code}"]
        rep = reports[0]
        misses = []
        if not _majority(rep["details"]["p_values"]):
            misses.append(f"p-values {rep['details']['p_values']}")
        if list(rep["sample_sizes"]) != [RSK_SAMPLES, RSK_SAMPLES]:
            misses.append(f"sample sizes {rep['sample_sizes']}")
        return misses

    def plancherel():
        code, reports = _run_cli(inp["plancherel_argv"])
        if code != 0 or not reports:
            return [f"verify plancherel exited {code}"]
        rep = reports[0]
        misses = []
        if not rep["details"]["tv_K"] < 0.02:
            misses.append(f"tv_K {rep['details']['tv_K']!r}")
        if list(rep["sample_sizes"]) != [PLANCHEREL["samples"]]:
            misses.append(f"sample sizes {rep['sample_sizes']}")
        return misses

    def sixv_samples():
        t, a, b = inp["sixv"]
        params = sv.SixVertexParams(t=t, a=a, b=b)
        domain = sv.JaggedDomain(3, 3, pt.parse_signs(SIXV_DOMAIN))
        law = sv.exact_outgoing_string_distribution(params, domain).outcomes
        misses, pvals = [], []
        for j in range(3):
            counts = sv.sample_outgoing_counts(params, domain, SIXV_SAMPLES, inp["seed"] + j)
            if sum(counts.values()) != SIXV_SAMPLES:
                misses.append(f"counts sum to {sum(counts.values())}")
            if any(law.get(k, 0.0) == 0.0 for k in counts):
                misses.append("sampled an outgoing string of probability 0")
            pvals.append(_pearson_p(counts, law))
        if not _majority(pvals):
            misses.append(f"p-values {pvals}")
        return misses

    tally.op("verify rsk", rsk_field)
    tally.op("verify plancherel", plancherel)
    tally.op("six-vertex samples", sixv_samples)
    # two ensembles per seed in verify rsk, the top-level ensemble, the samples
    tally.work = 3 * 2 * RSK_SAMPLES + PLANCHEREL["samples"] + 3 * SIXV_SAMPLES
    return tally


# ---------------------------------------------------------------------------
# rsk-trajectory


LEVELS = 6
RSK_T = 0.38
COUPLED_SIGNALS = 5000
CHECKPOINT = 1000
RUN_HORIZON = 600.0  # about 2700 signals at total rate 4.5
PUSH_SITES = 60
PUSH_HORIZON = 10.0


def rsk_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.5, 1.0, size=LEVELS)
    push = rng.uniform(0.5, 1.5, size=PUSH_SITES)
    return {
        "seed": seed,
        "levels": [int(k) for k in rng.integers(1, LEVELS + 1, size=COUPLED_SIGNALS)],
        "uniforms": rng.random((COUPLED_SIGNALS, LEVELS)).tolist(),
        "rates": tuple(float(c) for c in rates * (4.5 / rates.sum())),
        "push_rates": tuple(float(c) for c in push * (PUSH_SITES / push.sum())),
    }


def _interlacing_misses(levels) -> list:
    for k, lv in enumerate(levels, start=1):
        if len(lv) != k or any(lv[i] < lv[i + 1] for i in range(k - 1)):
            return [f"level {k} is not a {k}-row partition: {lv}"]
        if k > 1:
            below = levels[k - 2]
            if not all(lv[i] >= below[i] >= lv[i + 1] for i in range(k - 1)):
                return [f"levels {k - 1} and {k} do not interlace"]
    return []


def _size_misses(levels, signals_at) -> list:
    """|lambda^(m)| must equal the number of signals at levels <= m."""
    misses = []
    for m, lv in enumerate(levels, start=1):
        want = sum(signals_at[1:m + 1])
        if sum(lv) != want:
            misses.append(f"|lambda^({m})| = {sum(lv)}, signals at levels <= {m}: {want}")
    return misses


def rsk_round(inp: dict) -> Tally:
    tally = Tally()
    final = {}

    def coupled():
        arr = rsk.PartitionArray(LEVELS)
        sets = rsk.SetSystem(LEVELS)
        signals_at = [0] * (LEVELS + 1)
        misses = []
        for step, (k, buf) in enumerate(zip(inp["levels"], inp["uniforms"]), start=1):
            rec_a, rec_s = [], []
            arr = rsk.rsk_apply_signal(arr, k, RSK_T, iter(buf).__next__, record=rec_a)
            sets = rsk.sets_apply_signal(sets, k, RSK_T, iter(buf).__next__, record=rec_s)
            signals_at[k] += 1
            if rec_a != rec_s:
                misses.append(f"records differ at signal {step}")
            if step % CHECKPOINT == 0 or step == len(inp["levels"]):
                if rsk.sets_from_array(arr) != sets or rsk.array_from_sets(sets) != arr:
                    misses.append(f"bijection fails at signal {step}")
                misses += _interlacing_misses(arr.levels)
                misses += _size_misses(arr.levels, signals_at)
        return misses

    def run_array():
        events: list = []
        traj = rsk.run_rsk(inp["rates"], RSK_T, RUN_HORIZON, inp["seed"],
                           validate=True, events=events)
        arr = traj[-1][1]
        final["array"] = arr
        # one signal per event time; its level is the lowest level it moved
        first_level: dict = {}
        for time, level, _, _ in events:
            first_level[time] = min(level, first_level.get(time, level))
        signals_at = [0] * (LEVELS + 1)
        for level in first_level.values():
            signals_at[level] += 1
        final["signals"] = len(first_level)
        return _interlacing_misses(arr.levels) + _size_misses(arr.levels, signals_at)

    def run_sets():
        sets = rsk.run_sets(inp["rates"], RSK_T, RUN_HORIZON, inp["seed"])
        arr = final.get("array")
        # same seed, same draws: the set dynamics track the array dynamics
        if arr is None or rsk.sets_from_array(arr) != sets or rsk.array_from_sets(sets) != arr:
            return ["run_sets does not match run_rsk under the bijection"]
        return []

    def pushtasep():
        events, state = rsk.run_pushtasep(inp["push_rates"], RSK_T, PUSH_HORIZON, inp["seed"])
        final["rings"] = len(events)
        occ = [True] * PUSH_SITES
        escapes = 0
        for _, site, src, dst in events:
            if src is None:
                if occ[site - 1]:
                    return [f"clock at occupied site {site} moved nothing"]
                continue
            if src != site or not occ[src - 1]:
                return [f"move from {src} on a ring at {site}"]
            occ[src - 1] = False
            if dst is None:
                escapes += 1
            elif occ[dst - 1] or dst <= src:
                return [f"move {src} -> {dst} into an occupied or earlier site"]
            else:
                occ[dst - 1] = True
        misses = []
        if occ != list(state.occupied):
            misses.append("replayed events do not give the final state")
        if sum(state.occupied) != PUSH_SITES - escapes:
            misses.append(f"{sum(state.occupied)} occupied, {PUSH_SITES - escapes} expected")
        return misses

    tally.op("coupled array/set trajectory", coupled)
    tally.op("run_rsk validate=True", run_array)
    tally.op("run_sets", run_sets)
    tally.op("run_pushtasep", pushtasep)
    tally.work = COUPLED_SIGNALS + 2 * final.get("signals", 0) + final.get("rings", 0)
    return tally


WORKLOADS = {
    "exact-laws": (exact_inputs, exact_round),
    "monte-carlo": (mc_inputs, mc_round),
    "rsk-trajectory": (rsk_inputs, rsk_round),
}


def reset_caches():
    """Empty the lattice cache, so every round pays for its lattices as a
    fresh interpreter (and so every CLI call) does."""
    cache = getattr(hl, "_LATTICES", None)
    if cache is not None:
        cache.clear()
