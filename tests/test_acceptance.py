"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here at the value the criterion states; nothing is
deferred to later calibration.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from hlsixv import hl_process as hl
from hlsixv import moments as mo
from hlsixv import partitions as pt
from hlsixv import rsk
from hlsixv import six_vertex as sv
from hlsixv import tboson as tb
from hlsixv import verify as vf
from hlsixv.distributions import tv_distance


def _report(num, label, ok, stat, budget, elapsed):
    flag = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {num:2d} [{flag}] {label}: statistic {stat:.3e}, "
        f"{elapsed:.1f}s (budget {budget:.0f}s)"
    )
    assert ok, f"criterion {num} failed with statistic {stat}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_01_yang_baxter_residuals():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        i1, i2, j1, j2 = (int(v) for v in rng.integers(0, 2, size=4))
        m, n = (int(v) for v in rng.integers(0, 5, size=2))
        a, b = (float(v) for v in rng.uniform(0.02, 0.98, size=2))
        t = float(rng.uniform(0.05, 0.95))
        worst = max(worst, tb.verify_yang_baxter(i1, i2, j1, j2, m, n, a, b, t))
    _report(1, "Yang-Baxter 1000 draws", worst < 1e-12, worst, 1.0,
            time.perf_counter() - start)


def test_02_row_operator_elements_vs_skew_polynomials():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    box = [tuple(l) for l in pt.partitions_in_box(4, 4)]
    worst = 0.0
    for _ in range(10):
        x = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(0.05, 0.95))
        for lam in box:
            nl = pt.num_rows(lam)
            for mu in box:
                nm = pt.num_rows(mu)
                p = pt.skew_p_one(lam, mu, x, t)
                q = pt.skew_q_one(lam, mu, x, t)
                want = {
                    "A": p if nl == nm else 0.0,
                    "B": p if nl == nm + 1 else 0.0,
                    "Cbar": q if nl == nm + 1 else 0.0,
                    "Dbar": q if nl == nm else 0.0,
                }
                for kind, w in want.items():
                    got = tb.row_operator_element(kind, x, lam, mu, 4, t)
                    worst = max(worst, abs(got - w))
    _report(2, "skew-HL matrix elements, 4x4 box", worst <= 1e-13, worst, 5.0,
            time.perf_counter() - start)


def test_03_exchange_relations():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(100):
        a, b, t = (float(v) for v in rng.uniform(0.1, 0.9, size=3))
        L = 2 + (i % 2)  # L <= 3
        for which in ("CA", "CB", "DA", "DB"):
            worst = max(worst, tb.verify_exchange_relation(which, L, 3, a, b, t))
    _report(3, "finite-L exchange relations", worst < 1e-11, worst, 30.0,
            time.perf_counter() - start)


def _all_domains(max_mn=3):
    for M in range(1, max_mn + 1):
        for N in range(1, max_mn + 1):
            for S in pt.enumerate_sign_class(M, N, +1):
                yield M, N, S


def test_04_support_match_exhaustive():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for M, N, S in _all_domains(3):
        for _ in range(5):
            t, a, b = vf.draw_matched_params(rng, M, N)
            r = vf.check_support_match(M, N, S, t, a, b)
            worst = max(worst, r.statistic)
    _report(4, "support law = outgoing-edge law (all S, M,N<=3, 5 draws)",
            worst < 1e-9, worst, 300.0, time.perf_counter() - start)


def test_05_height_match_exhaustive():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for M, N, S in _all_domains(3):
        for _ in range(5):
            t, a, b = vf.draw_matched_params(rng, M, N)
            r = vf.check_height_match(M, N, S, t, a, b)
            worst = max(worst, r.statistic)
    _report(5, "first-column laws = cut-path height laws", worst < 1e-9,
            worst, 300.0, time.perf_counter() - start)


def test_06_moment_formulas():
    start = time.perf_counter()
    v = mo.hl_moment(1, [1], 1, 0.5, (0.5,), (0.5,))
    point_ok = abs(v - 4.0 / 7.0) < 1e-9
    rng = np.random.default_rng(106)
    worst_pair = 0.0
    worst_oracle = 0.0
    for i in range(50):
        k = 1 + (i % 2)
        N = 1 + int(rng.integers(0, 2))
        ms = sorted((int(v) for v in rng.integers(1, 4, size=k)), reverse=True)
        t = float(rng.uniform(0.4, 0.75))
        a = tuple(float(v) for v in rng.uniform(0.05, 0.3, size=max(ms)))
        b = tuple(float(v) for v in rng.uniform(0.05, 0.3, size=N))
        lhs, rhs, diff = mo.moment_match_check(k, ms, N, t, a, b)
        worst_pair = max(worst_pair, diff)
        exact = vf.hl_exact_moment(k, ms, N, t, a, b)
        exact6 = vf.sixv_exact_moment(k, ms, N, t, a, b)
        worst_oracle = max(worst_oracle, abs(lhs - exact), abs(rhs - exact6))
    ok = point_ok and worst_pair < 1e-7 and worst_oracle < 1e-8
    _report(6, "moment match + exact oracles, 50 draws", ok,
            max(worst_pair, worst_oracle), 120.0, time.perf_counter() - start)


def test_07_contour_deformation_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(4):
        t = float(rng.uniform(0.45, 0.7))
        a = tuple(float(v) for v in rng.uniform(0.05, 0.25, size=2))
        b = tuple(float(v) for v in rng.uniform(0.05, 0.25, size=2))
        base = mo.select_contours("hl", 2, [2, 1], t, a, b).radii
        v0 = mo.hl_moment(2, [2, 1], 2, t, a, b, radii=base)
        for scale in (0.8, 0.9, 0.97, 1.02, 1.05):
            v = mo.hl_moment(2, [2, 1], 2, t, a, b,
                             radii=tuple(r * scale for r in base))
            worst = max(worst, abs(v - v0))
    _report(7, "contour deformation invariance", worst < 1e-9, worst, 60.0,
            time.perf_counter() - start)


def test_08_array_set_coupling_10k_events():
    """Coupled trajectories agree move for move at every event (the per-level
    (level, value) records determine both state updates), with full bijection
    equality re-checked at checkpoints and at the end."""
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    t = 0.38
    arr = rsk.PartitionArray(6)
    sets = rsk.SetSystem(6)
    mismatches = 0
    for step in range(10_000):
        k = int(rng.integers(1, 7))
        buf = list(rng.random(6))
        rec_a, rec_s = [], []
        arr = rsk.rsk_apply_signal(arr, k, t, iter(buf).__next__, record=rec_a)
        sets = rsk.sets_apply_signal(sets, k, t, iter(buf).__next__, record=rec_s)
        if rec_a != rec_s:
            mismatches += 1
        if step % 1000 == 999 and rsk.sets_from_array(arr) != sets:
            mismatches += 1
    ok = (
        mismatches == 0
        and rsk.sets_from_array(arr) == sets
        and rsk.array_from_sets(sets) == arr
    )
    _report(8, "array/set coupling over 10^4 events", ok, float(mismatches),
            10.0, time.perf_counter() - start)


def test_09_rsk_field_vs_half_continuous():
    start = time.perf_counter()
    # the worked example's transition probabilities, reproduced exactly
    t = 0.47
    arr = rsk.PartitionArray(4, [[5], [6, 2], [9, 2, 2], [10, 6, 2, 1]])
    R = (1 - t) / (1 - t**2)
    push = rsk.rsk_apply_signal(arr, 2, t, iter([R - 1e-12]).__next__)
    pull = rsk.rsk_apply_signal(arr, 2, t, iter([R + 1e-12]).__next__)
    example_ok = (
        push.levels == [[5], [6, 3], [9, 3, 2], [10, 7, 2, 1]]
        and pull.levels == [[5], [6, 3], [9, 3, 2], [10, 6, 3, 1]]
    )
    r = vf.check_rsk_field(
        (1.0, 0.8, 0.6), 0.5, (0.5, 1.0, 1.6), samples=100_000, seed=109
    )
    ok = example_ok and r.passed
    _report(9, "RSK first columns = half-continuous heights (3x3 grid)",
            ok, r.statistic, 600.0, time.perf_counter() - start)


def test_10_plancherel_approximation_trend():
    start = time.perf_counter()
    r = vf.check_plancherel_marginal(
        (1.0, 0.8), 0.5, 0.6, level=2, K=64, samples=100_000, seed=110
    )
    d = r.details
    ok = r.passed and d["tv_K"] < 0.02
    _report(10, "Plancherel O(1/K) trend (TV64, TV128)", ok, d["tv_K"], 600.0,
            time.perf_counter() - start)


def test_11_structural_invariant_sweeps():
    start = time.perf_counter()
    rng = np.random.default_rng(111)
    # six vertex: conservation and height monotonicity on sampled states
    params = sv.SixVertexParams(t=0.4, a=(0.5, 0.35, 0.3), b=(0.5, 0.45, 0.3))
    dom = sv.JaggedDomain(3, 3, pt.parse_signs("+-++--"))
    vert, horiz = sv.sample_edges(params, dom, 200, seed=111)
    index = dom.vertices()
    for (x, y), i in index.items():
        h_in = horiz[index[x - 1, y]] if x > 1 else True
        v_in = vert[index[x, y - 1]] if y > 1 else False
        assert np.all(h_in * 1 + v_in * 1 == horiz[i] * 1 + vert[i] * 1)
    assert np.all(sv.outgoing_occupancy(dom, vert, horiz).sum(axis=0) == dom.N)
    H = dom.column_heights()
    for y in range(1, 4):
        run = sv.edge_heights(
            dom, vert, [(x, y) for x in range(1, 5) if x == 1 or H[x - 2] >= y]
        )
        assert np.all((0 <= run) & (run <= y))
        assert np.all(np.isin(run[:-1] - run[1:], (0, 1)))
    # RSK: interlacing after every event
    rsk.run_rsk((1.0, 0.7, 0.5, 0.4), 0.45, 30.0, seed=7, validate=True)
    # HL sampling: row bounds and support/column duality
    spec = hl.HLProcessSpec(t=0.35, a=(0.4, 0.3), b=(0.45, 0.3), S="+-+-")
    sampler = hl.SequenceSampler(spec, 16, seed=5)
    for _ in range(500):
        seq = sampler.sample()
        cols = hl.first_columns(seq)
        for i, c in enumerate(cols, start=1):
            p, m = pt.prefix_counts(spec.S, i)
            assert c <= min(p, spec.N - m)
        T = hl.support_string(seq, spec.S)
        assert cols == hl.first_columns_from_strings(spec.S, T)
    # normalization of every exact law used above
    worst = 0.0
    for M, N, S in _all_domains(2):
        t, a, b = vf.draw_matched_params(rng, M, N)
        spec = hl.HLProcessSpec(t=t, a=a, b=b, S=S)
        cap = hl.minimal_row_cap(spec)
        for dist in (
            hl.exact_support_distribution(spec, cap),
            hl.exact_first_column_distribution(spec, cap),
            sv.exact_outgoing_distribution(
                sv.SixVertexParams(t=t, a=a, b=b), sv.JaggedDomain(M, N, S)
            ),
        ):
            worst = max(worst, abs(dist.total_mass() - 1.0))
    _report(11, "structural invariant sweeps", worst < 1e-10, worst, 120.0,
            time.perf_counter() - start)
