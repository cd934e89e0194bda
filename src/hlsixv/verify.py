"""Statistical and exact comparison harness: one check per theorem.

Exact checks compare total-variation distances of exactly computed laws.
Of the Monte Carlo checks, the RSK field check runs a two-sample chi-square
with a p-value floor and a 3-seed majority rule to absorb honest
statistical flakiness; the Plancherel check runs one seed and gates the TV
of the empirical law from the K-fold law, and its fall at 2K.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2 as _chi2

from . import hl_process as hl
from . import moments as mo
from . import partitions as pt
from . import rsk
from . import six_vertex as sv
from . import tboson as tb
from .distributions import DiscreteDistribution, tv_distance

# pass thresholds of the checks
EXACT_TV = 1e-9  # TV between the two exact laws of a domain
MOMENT_GAP = 1e-7  # between the two contour-integral moments
MOMENT_ORACLE = 1e-8  # between a contour moment and its exact-law value
YANG_BAXTER_RESIDUAL = 1e-12
EXCHANGE_RESIDUAL = 1e-11
P_FLOOR = 1e-3  # chi-square p-value a seed of the 3-seed majority must beat
PLANCHEREL_TV = 0.02  # empirical law against the K-fold law
PLANCHEREL_RATIO = 0.7  # most of the TV at K left at 2K, beyond sampling noise
MIN_EXPECTED = 5.0  # least expected count of a pooled cell against an exact law
MIN_COMBINED = 10.0  # least count of a pooled cell of two samples together

# the finite-L exchange relations are checked on L sites with occupations <= cap
EXCHANGE_L = 2
EXCHANGE_CAP = 2


@dataclass
class ComparisonReport:
    name: str
    mode: str  # 'exact' | 'chi-square' | 'TV'
    statistic: float
    threshold: float
    passed: bool
    sample_sizes: tuple = ()
    seeds: tuple = ()
    runtime: float = 0.0
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "passed": bool(self.passed),
            "sample_sizes": list(self.sample_sizes),
            "seeds": list(self.seeds),
            "runtime": self.runtime,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# statistics


def chi_square_gof(counts: dict, expected: DiscreteDistribution) -> tuple:
    """(statistic, dof, p_value) for observed counts against an exact law.

    Cells with expected count below MIN_EXPECTED are pooled smallest-first.
    Observing an outcome of zero expected probability is an error.
    """
    n = sum(counts.values())
    for k in counts:
        if expected[k] == 0.0 and counts[k] > 0:
            raise ValueError(f"observed outcome {k!r} has zero expected probability")
    cells = sorted(expected.items(), key=lambda kv: (kv[1], str(kv[0])))
    pooled = []
    acc_obs, acc_exp = 0.0, 0.0
    for k, p in cells:
        acc_obs += counts.get(k, 0)
        acc_exp += n * p
        if acc_exp >= MIN_EXPECTED:
            pooled.append((acc_obs, acc_exp))
            acc_obs, acc_exp = 0.0, 0.0
    if acc_exp > 0:
        if pooled:
            o, e = pooled[-1]
            pooled[-1] = (o + acc_obs, e + acc_exp)
        else:
            raise ValueError("all mass pooled away: too few expected counts")
    stat = sum((o - e) ** 2 / e for o, e in pooled)
    dof = max(len(pooled) - 1, 1)
    return stat, dof, float(_chi2.sf(stat, dof))


def two_sample_chi_square(counts1: dict, counts2: dict) -> tuple:
    """(statistic, dof, p_value) comparing two multinomial samples."""
    n1 = sum(counts1.values())
    n2 = sum(counts2.values())
    keys = sorted(set(counts1) | set(counts2), key=str)
    raw = [(counts1.get(k, 0), counts2.get(k, 0)) for k in keys]
    raw.sort(key=lambda oc: oc[0] + oc[1])
    pooled = []
    a1 = a2 = 0
    for o1, o2 in raw:
        a1 += o1
        a2 += o2
        if a1 + a2 >= MIN_COMBINED:
            pooled.append((a1, a2))
            a1 = a2 = 0
    if (a1 or a2) and pooled:
        o1, o2 = pooled[-1]
        pooled[-1] = (o1 + a1, o2 + a2)
    r1 = np.sqrt(n2 / n1)
    r2 = np.sqrt(n1 / n2)
    stat = sum(
        (r1 * o1 - r2 * o2) ** 2 / (o1 + o2) for o1, o2 in pooled if o1 + o2 > 0
    )
    dof = max(len(pooled) - 1, 1)
    return stat, dof, float(_chi2.sf(stat, dof))


# ---------------------------------------------------------------------------
# parameter draws shared by the randomized suites


def draw_matched_params(rng, M: int, N: int, max_ab: float = 0.30,
                        t_range=(0.2, 0.8)) -> tuple:
    """(t, a, b) satisfying the product conditions with truncation headroom."""
    t = float(rng.uniform(*t_range))
    a = tuple(float(x) for x in rng.uniform(0.05, 0.55, size=M))
    bmax = min(0.55, max_ab / max(a))
    b = tuple(float(x) for x in rng.uniform(0.05, bmax, size=N))
    return t, a, b


# ---------------------------------------------------------------------------
# exact checks


def _exact_match(label, M, N, S, t, a, b, row_cap, hl_law, sv_law) -> ComparisonReport:
    """TV between hl_law(spec, row_cap) and sv_law(params, domain) on the
    domain of S, at row_cap or else hl.row_cap(spec)."""
    start = time.perf_counter()
    spec = hl.HLProcessSpec(t=t, a=tuple(a), b=tuple(b), S=pt.parse_signs(S))
    row_cap = row_cap or hl.row_cap(spec)
    hdist = hl_law(spec, row_cap)
    params = sv.SixVertexParams(t=t, a=tuple(a), b=tuple(b))
    vdist = sv_law(params, sv.JaggedDomain(M, N, spec.S))
    tv = tv_distance(hdist, vdist)
    return ComparisonReport(
        name=f"{label} M={M} N={N} S={pt.signs_to_str(spec.S)}",
        mode="exact",
        statistic=tv,
        threshold=EXACT_TV,
        passed=tv < EXACT_TV,
        runtime=time.perf_counter() - start,
        details={"row_cap": row_cap, "mass_deficit": hdist.mass_deficit},
    )


def check_support_match(M, N, S, t, a, b, row_cap=None) -> ComparisonReport:
    """TV between the HL support law and the 6v outgoing-edge law."""
    return _exact_match("support-match", M, N, S, t, a, b, row_cap,
                        hl.exact_support_distribution, sv.exact_outgoing_distribution)


def check_height_match(M, N, S, t, a, b, row_cap=None) -> ComparisonReport:
    """TV between the joint first-column law and the cut-path height law."""
    return _exact_match("height-match", M, N, S, t, a, b, row_cap,
                        hl.exact_first_column_distribution,
                        sv.exact_cut_column_distribution)


def hl_exact_moment(k, ms, N, t, a, b) -> float:
    """E[t^{sum (N - lambda'_1(m_i))}] from the exact first-column law."""
    ms = [int(m) for m in ms]
    M = max(ms)
    S = tuple([1] * M + [-1] * N)
    spec = hl.HLProcessSpec(t=t, a=tuple(a)[:M], b=tuple(b), S=S)
    dist = hl.exact_first_column_distribution(spec, hl.row_cap(spec))
    return dist.expectation(
        lambda cols: t ** sum(N - cols[m - 1] for m in ms)
    )


def sixv_exact_moment(k, ms, N, t, a, b) -> float:
    """E[Q^{sum h(m_i+1, N)}] from the exact joint height law."""
    ms = [int(m) for m in ms]
    params = sv.SixVertexParams(t=t, a=tuple(a)[: max(ms)], b=tuple(b))
    dist = sv.joint_height_distribution(params, max(ms), N, [(m + 1, N) for m in ms])
    return dist.expectation(lambda hs: t ** sum(hs))


def check_moment_match(k, ms, N, t, a, b) -> ComparisonReport:
    """Contour-integral moments of both models against each other and the
    exact-distribution values."""
    start = time.perf_counter()
    lhs, rhs, diff = mo.moment_match_check(k, ms, N, t, a, b)
    exact = hl_exact_moment(k, ms, N, t, a, b)
    exact6 = sixv_exact_moment(k, ms, N, t, a, b)
    worst_oracle = max(abs(lhs - exact), abs(rhs - exact6), abs(exact - exact6))
    passed = diff < MOMENT_GAP and worst_oracle < MOMENT_ORACLE
    return ComparisonReport(
        name=f"moment-match k={k} ms={list(ms)} N={N}",
        mode="exact",
        statistic=max(diff, worst_oracle),
        threshold=MOMENT_GAP,
        passed=passed,
        runtime=time.perf_counter() - start,
        details={"hl": lhs, "sixv": rhs, "exact": exact, "exact_6v": exact6},
    )


# ---------------------------------------------------------------------------
# Monte Carlo checks


def _vector_counts(arr: np.ndarray, key=tuple) -> dict:
    """Counts of the per-run outcome vectors arr[r] (flattened), keyed by
    key(row as a tuple of ints), in order of first appearance.

    Each row is encoded as one int64 in mixed radix over the per-column
    spans and the codes are counted in one sort, so only the distinct rows
    are turned into keys.  A column whose span exceeds the number of
    rows is renumbered densely first, and the code built so far is
    renumbered densely whenever the next column would overflow it.
    """
    flat = arr.reshape(arr.shape[0], int(np.prod(arr.shape[1:])))
    if not len(flat):
        return {}
    code = np.zeros(len(flat), dtype=np.int64)
    radix = 1  # code < radix
    for col in flat.T:
        lo, hi = int(col.min()), int(col.max())
        if hi - lo >= len(flat):
            col = np.unique(col, return_inverse=True)[1]
            lo, hi = 0, int(col.max())
        span = hi - lo + 1
        if radix * span >= 2**62:
            code = np.unique(code, return_inverse=True)[1]
            radix = int(code.max()) + 1
        code = code * span + (col.astype(np.int64) - lo)
        radix *= span
    # an unstable sort groups the rows by code, and the least row of each
    # group is its code's first appearance: only the distinct codes are
    # sorted by it
    perm = np.argsort(code)
    code = code[perm]
    starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    first = np.minimum.reduceat(perm, starts)
    counts = np.diff(starts, append=len(code))
    order = np.argsort(first)
    out: dict = {}
    for row, c in zip(flat[first[order]].tolist(), counts[order].tolist()):
        k = key(tuple(row))
        out[k] = out.get(k, 0) + c
    return out


def check_rsk_field(rates, t, taus, samples: int, seed: int) -> ComparisonReport:
    """Joint law of {y - first_column(level y)} on the (tau, y) grid against
    the half-continuous height field, with identification b_y = c_y.

    Two independent ensembles per seed; 3-seed majority on the chi-square
    p-value.
    """
    start = time.perf_counter()
    rates = [float(c) for c in rates]
    n = len(rates)
    taus = sorted(float(x) for x in taus)
    if not taus:  # two empty fields would match with p = 1
        raise ValueError("need at least one query time")
    pvals = []
    seeds = (seed, seed + 1, seed + 2)
    for s in seeds:
        cols = rsk.rsk_first_column_ensemble(rates, t, taus, samples, s)
        gaps = np.arange(1, n + 1)[None, None, :] - cols
        heights = sv.half_continuous_height_ensemble(t, rates, taus, samples, s + 7919)
        stat, dof, p = two_sample_chi_square(
            _vector_counts(gaps), _vector_counts(heights)
        )
        pvals.append(p)
    passes = sum(1 for p in pvals if p > P_FLOOR)
    return ComparisonReport(
        name=f"rsk-field rates={rates} taus={taus}",
        mode="chi-square",
        statistic=float(np.median(pvals)),
        threshold=P_FLOOR,
        passed=passes >= 2,
        sample_sizes=(samples, samples),
        seeds=seeds,
        runtime=time.perf_counter() - start,
        details={"p_values": pvals},
    )


def check_plancherel_marginal(rates, t, tau, level: int, K: int, samples: int,
                              seed: int) -> ComparisonReport:
    """Empirical top-level law against the K-fold discretized Plancherel law.

    Reports TV at K and 2K (the O(1/K) trend) plus a chi-square at 2K for
    the pure sampling-noise component.
    """
    start = time.perf_counter()
    if not 1 <= level <= len(rates):
        raise ValueError(f"level {level} outside 1..{len(rates)}, one per rate")
    if not tau >= 0.0:  # false for nan too
        raise ValueError(f"need tau >= 0, got {tau}")
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    rates = [float(c) for c in rates][:level]
    ens = rsk.rsk_top_level_ensemble(rates, t, tau, samples, seed)
    counts = _vector_counts(ens, key=pt.strip_zeros)

    def exact_law(kk):
        spec = hl.plancherel_spec(t, rates, tau, kk)
        return hl.exact_marginal_distribution(spec, level, hl.row_cap(spec))

    empirical = DiscreteDistribution({k: c / samples for k, c in counts.items()})
    law_k = exact_law(K)
    law_2k = exact_law(2 * K)
    tv_k = tv_distance(empirical, law_k)
    tv_2k = tv_distance(empirical, law_2k)
    # expected TV of the empirical law from its own truth, cell by cell
    noise = 0.5 * sum(
        np.sqrt(2.0 * p * (1.0 - p) / (np.pi * samples))
        for p in law_2k.outcomes.values()
    )
    ratio_ok = tv_2k < PLANCHEREL_RATIO * tv_k + 2 * noise
    _, _, p2k = chi_square_gof(counts, law_2k)
    passed = tv_k < PLANCHEREL_TV and ratio_ok
    return ComparisonReport(
        name=f"plancherel level={level} K={K} tau={tau}",
        mode="TV",
        statistic=tv_k,
        threshold=PLANCHEREL_TV,
        passed=bool(passed),
        sample_sizes=(samples,),
        seeds=(seed,),
        runtime=time.perf_counter() - start,
        details={
            "tv_K": tv_k,
            "tv_2K": tv_2k,
            "noise_scale": float(noise),
            "chi2_p_at_2K": p2k,
        },
    )


def _residual_report(name, worst, threshold, seed, start) -> ComparisonReport:
    """An exact check that passes when its worst residual is below threshold."""
    return ComparisonReport(
        name=name,
        mode="exact",
        statistic=worst,
        threshold=threshold,
        passed=worst < threshold,
        seeds=(seed,),
        runtime=time.perf_counter() - start,
    )


def check_yang_baxter(trials: int, seed: int) -> ComparisonReport:
    start = time.perf_counter()
    worst = tb.yang_baxter_max_residual(trials, seed)
    return _residual_report(f"yang-baxter trials={trials}", worst,
                            YANG_BAXTER_RESIDUAL, seed, start)


def check_exchange_relations(draws: int, seed: int) -> ComparisonReport:
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        a = float(rng.uniform(0.1, 0.9))
        b = float(rng.uniform(0.1, 0.9))
        t = float(rng.uniform(0.1, 0.9))
        for which in ("CA", "CB", "DA", "DB"):
            worst = max(worst, tb.verify_exchange_relation(
                which, EXCHANGE_L, EXCHANGE_CAP, a, b, t))
    name = f"exchange-relations L={EXCHANGE_L} cap={EXCHANGE_CAP} draws={draws}"
    return _residual_report(name, worst, EXCHANGE_RESIDUAL, seed, start)


# ---------------------------------------------------------------------------
# the desk-scale suite


def run_all(seed: int = 0) -> list:
    """The full battery at reduced desk sizes; every report must pass."""
    rng = np.random.default_rng(seed)
    reports = [check_yang_baxter(300, seed), check_exchange_relations(10, seed + 1)]
    for M in (1, 2):
        for N in (1, 2):
            for S in pt.enumerate_sign_class(M, N, +1):
                t, a, b = draw_matched_params(rng, M, N)
                reports.append(check_support_match(M, N, S, t, a, b))
                reports.append(check_height_match(M, N, S, t, a, b))
    for k, ms, N in ((1, (1,), 1), (1, (2,), 2), (2, (2, 1), 2)):
        t, a, b = draw_matched_params(rng, max(ms), N, max_ab=0.2, t_range=(0.4, 0.7))
        reports.append(check_moment_match(k, ms, N, t, a, b))
    reports.append(
        check_rsk_field((1.0, 0.8), 0.5, (0.7, 1.4), samples=20000, seed=seed + 11)
    )
    reports.append(
        check_plancherel_marginal(
            (1.0, 0.8), 0.5, 0.6, level=2, K=64, samples=40000, seed=seed + 13
        )
    )
    return reports


def summarize(reports) -> str:
    lines = []
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{flag}] {r.name}: {r.mode} statistic {r.statistic:.3e} "
            f"(threshold {r.threshold:.1e}, {r.runtime:.2f}s)"
        )
    return "\n".join(lines)
