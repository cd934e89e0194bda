import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlsixv import rsk
from hlsixv import six_vertex as sv
from hlsixv import partitions as pt
from hlsixv.distributions import DiscreteDistribution, tv_distance


def params11(t=0.25, a=0.5, b=0.5):
    return sv.SixVertexParams(t=t, a=(a,), b=(b,))


def test_vertex_probabilities_values_and_sums():
    p = sv.SixVertexParams(t=0.25, a=(1.0,), b=(0.5,))  # ab = 1/2
    pp = sv.vertex_probabilities(p, 1, 1)
    assert pp[0] == pytest.approx(4 / 7)
    assert pp[1] == pytest.approx(3 / 7)
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform(0.05, 0.95)
        a, b = rng.uniform(0.05, 0.95, size=2)
        pp = sv.vertex_probabilities(sv.SixVertexParams(t=t, a=(a,), b=(b,)), 1, 1)
        assert pp[0] + pp[1] == pytest.approx(1.0, abs=1e-14)
        assert pp[2] + pp[3] == pytest.approx(1.0, abs=1e-14)
        assert all(0.0 <= v <= 1.0 for v in pp)


def test_native_form_reproduces_matched():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = rng.uniform(0.1, 0.9)
        a, b = rng.uniform(0.05, 0.9, size=2)
        if a * b >= 1:
            continue
        matched = sv.SixVertexParams(t=t, a=(a,), b=(b,))
        Q, xi, u = matched.to_native()
        native = sv.native_vertex_probabilities(Q, xi[0], u[0])
        for x, y in zip(sv.vertex_probabilities(matched, 1, 1), native):
            assert x == pytest.approx(y, abs=1e-14)
        back = sv.SixVertexParams.from_native(Q, xi, u)
        assert back.a[0] == pytest.approx(a, abs=1e-14)
        assert back.b[0] == pytest.approx(b, abs=1e-14)


def test_param_validation():
    with pytest.raises(ValueError):
        sv.SixVertexParams(t=0.5, a=(1.5,), b=(0.8,))
    with pytest.raises(ValueError):
        sv.SixVertexParams.from_native(0.5, (1.0,), (1.0,))  # xi u <= 1/sqrt(Q)


def test_jagged_domain_fig6_conventions():
    dom = sv.JaggedDomain(6, 5, pt.parse_signs("++-++--+-+-"))
    assert dom.mu == (4, 3, 1, 1)
    assert dom.column_heights() == [5, 5, 4, 4, 2, 1]
    assert dom.outgoing_edges() == [
        ("up", 1, 5),
        ("up", 2, 5),
        ("right", 2, 5),
        ("up", 3, 4),
        ("up", 4, 4),
        ("right", 4, 4),
        ("right", 4, 3),
        ("up", 5, 2),
        ("right", 5, 2),
        ("up", 6, 1),
        ("right", 6, 1),
    ]


def assert_runs_valid(domain, vert, horiz):
    """Every run of sample_edges conserves paths at every vertex, with paths
    entering on the left of every row, and occupies N cut edges."""
    index = domain.vertices()
    for (x, y), i in index.items():
        h_in = horiz[index[x - 1, y]] if x > 1 else True
        v_in = vert[index[x, y - 1]] if y > 1 else False
        assert np.all(h_in * 1 + v_in * 1 == horiz[i] * 1 + vert[i] * 1), (x, y)
    assert np.all(sv.outgoing_occupancy(domain, vert, horiz).sum(axis=0) == domain.N)


def height_points(domain):
    """Every point whose height the domain fixes, by rows."""
    H = domain.column_heights()
    return [
        (x, y) for y in range(1, domain.N + 1) for x in range(1, domain.M + 2)
        if x == 1 or H[x - 2] >= y
    ]


def assert_heights_step(domain, vert):
    """h(1, y) = y, 0 <= h <= y, and h steps by 0 or 1 in x and in y."""
    pts = height_points(domain)
    h = dict(zip(pts, sv.edge_heights(domain, vert, pts)))
    for (x, y), hv in h.items():
        assert np.all((0 <= hv) & (hv <= y))
        if x == 1:
            assert np.all(hv == y)
        if (x + 1, y) in h:
            assert set(np.unique(hv - h[x + 1, y])) <= {0, 1}
        if (x, y + 1) in h:
            assert set(np.unique(h[x, y + 1] - hv)) <= {0, 1}


def test_sample_edges_valid_and_deterministic():
    params = sv.SixVertexParams(t=0.4, a=(0.5, 0.3, 0.4), b=(0.6, 0.5, 0.3))
    dom = sv.JaggedDomain(3, 3, pt.parse_signs("+-+-+-"))
    vert, horiz = sv.sample_edges(params, dom, 30, seed=9)
    again = sv.sample_edges(params, dom, 30, seed=9)
    assert np.array_equal(vert, again[0]) and np.array_equal(horiz, again[1])
    assert vert.dtype == horiz.dtype == bool
    assert vert.shape == horiz.shape == (sum(dom.column_heights()), 30)
    assert_runs_valid(dom, vert, horiz)


def test_height_boundary_and_monotonicity():
    params = sv.SixVertexParams(t=0.4, a=(0.5, 0.3), b=(0.6, 0.5, 0.3))
    dom = sv.JaggedDomain.rectangular(2, 3)
    vert, _ = sv.sample_edges(params, dom, 40, seed=0)
    assert len(height_points(dom)) == 9
    assert_heights_step(dom, vert)


def test_outgoing_partition_cases():
    dom = sv.JaggedDomain.rectangular(1, 1)
    # run 0 turns up at (1, 1), run 1 passes straight
    vert, horiz = np.array([[True, False]]), np.array([[False, True]])
    strings = [
        tuple(-1 if b else 1 for b in col)
        for col in sv.outgoing_occupancy(dom, vert, horiz).T
    ]
    assert strings == [(-1, 1), (1, -1)]
    assert [pt.partition_from_string(T, 1, 1) for T in strings] == [(1,), ()]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda M: st.integers(1, 4).flatmap(
        lambda N: st.sampled_from(list(pt.enumerate_sign_class(M, N, +1))).map(
            lambda S: sv.JaggedDomain(M, N, S)))),
    st.floats(0.05, 0.95),
    st.lists(st.floats(0.0, 0.95), min_size=8, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_sample_edges_invariants_on_jagged_domains(dom, t, ab, seed):
    """On every run: paths are conserved, N cut edges are occupied, the
    heights step by 0 or 1 from h(1, y) = y, and sample_outgoing_counts
    counts the strings of sample_edges at the same seed, across blocks."""
    from hlsixv import _kernels

    params = sv.SixVertexParams(t=t, a=ab[:dom.M], b=ab[4:4 + dom.N])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "ENSEMBLE_BLOCK", 7)
        vert, horiz = sv.sample_edges(params, dom, 20, seed)
        counts = sv.sample_outgoing_counts(params, dom, 20, seed)
    assert_runs_valid(dom, vert, horiz)
    assert_heights_step(dom, vert)
    strings = {}
    for col in sv.outgoing_occupancy(dom, vert, horiz).T:
        T = tuple(-1 if b else 1 for b in col)
        strings[T] = strings.get(T, 0) + 1
    assert counts == strings


def test_exact_outgoing_1x1_closed_form():
    dist = sv.exact_outgoing_distribution(params11(), sv.JaggedDomain.rectangular(1, 1))
    assert dist[((), ())] == pytest.approx(0.8)
    assert dist[((1,), ())] == pytest.approx(0.2)


def test_small_ab_concentrates_on_empty():
    params = sv.SixVertexParams(t=0.4, a=(1e-9, 1e-9), b=(0.5, 0.5))
    dist = sv.exact_outgoing_distribution(params, sv.JaggedDomain.rectangular(2, 2))
    assert dist[((), ())] == pytest.approx(1.0, abs=1e-8)


def naive_state_enumeration(params, domain):
    """Brute-force oracle: resolve vertices one by one over all branchings."""
    H = domain.column_heights()
    verts = [(x, y) for x in range(1, domain.M + 1) for y in range(1, H[x - 1] + 1)]
    verts.sort(key=lambda p: (p[0] + p[1], p[0]))
    results = {}

    def rec(i, vert, horiz, prob):
        if i == len(verts):
            T = tuple(
                -1 if (vert if kind == "up" else horiz)[x, y] else 1
                for kind, x, y in domain.outgoing_edges()
            )
            key = (pt.partition_from_string(T, domain.M, domain.N), domain.mu)
            results[key] = results.get(key, 0.0) + prob
            return
        x, y = verts[i]
        h_in = True if x == 1 else horiz[(x - 1, y)]
        v_in = False if y == 1 else vert[(x, y - 1)]
        p_pass, p_up, p_vert, p_right = sv.vertex_probabilities(params, x, y)
        if h_in and v_in:
            options = [(1.0, True, True)]
        elif not h_in and not v_in:
            options = [(1.0, False, False)]
        elif h_in:
            options = [(p_pass, True, False), (p_up, False, True)]
        else:
            options = [(p_vert, False, True), (p_right, True, False)]
        for w, oh, ov in options:
            horiz[(x, y)] = oh
            vert[(x, y)] = ov
            rec(i + 1, vert, horiz, prob * w)
        del horiz[(x, y)], vert[(x, y)]

    rec(0, {}, {}, 1.0)
    return DiscreteDistribution(results)


@pytest.mark.parametrize("M,N", [(2, 2), (2, 3)])
def test_transfer_matrix_vs_naive_enumeration(M, N):
    rng = np.random.default_rng(M * 10 + N)
    for _ in range(20):
        t = rng.uniform(0.1, 0.9)
        a = tuple(rng.uniform(0.05, 0.9, size=M))
        b = tuple(rng.uniform(0.05, min(0.9, 0.95 / max(a)), size=N))
        params = sv.SixVertexParams(t=t, a=a, b=b)
        dom = sv.JaggedDomain.rectangular(M, N)
        fast = sv.exact_outgoing_distribution(params, dom)
        slow = naive_state_enumeration(params, dom)
        assert tv_distance(fast, slow) < 1e-13


def test_transfer_matrix_vs_naive_on_jagged():
    rng = np.random.default_rng(5)
    for S in ["+-+-", "++-+--", "+-++--"]:
        signs = pt.parse_signs(S)
        M = sum(1 for s in signs if s == 1)
        N = len(signs) - M
        t = rng.uniform(0.2, 0.8)
        a = tuple(rng.uniform(0.1, 0.6, size=M))
        b = tuple(rng.uniform(0.1, 0.6, size=N))
        params = sv.SixVertexParams(t=t, a=a, b=b)
        dom = sv.JaggedDomain(M, N, signs)
        assert tv_distance(
            sv.exact_outgoing_distribution(params, dom),
            naive_state_enumeration(params, dom),
        ) < 1e-13


def test_joint_height_examples():
    params = params11()
    one = sv.joint_height_distribution(params, 1, 1, [(1, 1)])
    assert one[(1,)] == pytest.approx(1.0)
    law = sv.joint_height_distribution(params, 1, 1, [(2, 1)])
    assert law[(0,)] == pytest.approx(0.2)
    assert law[(1,)] == pytest.approx(0.8)
    p5 = sv.SixVertexParams(t=0.5, a=(0.5,), b=(0.5,))
    law5 = sv.joint_height_distribution(p5, 1, 1, [(2, 1)])
    moment = sum(v * 0.5**h[0] for h, v in law5.items())
    assert moment == pytest.approx(4 / 7, abs=1e-14)


def test_joint_height_outside_domain_rejected():
    params = sv.SixVertexParams(t=0.5, a=(0.4, 0.4), b=(0.4, 0.4))
    dom = sv.JaggedDomain(2, 2, pt.parse_signs("+-+-"))  # column 2 has height 1
    with pytest.raises(ValueError):
        sv.exact_joint_height_distribution(params, dom, [(3, 2)])
    sv.exact_joint_height_distribution(params, dom, [(2, 2), (3, 1)])


def test_heights_consistent_with_joint_law():
    params = sv.SixVertexParams(t=0.45, a=(0.5, 0.4), b=(0.55, 0.35))
    dom = sv.JaggedDomain.rectangular(2, 2)
    pts = [(2, 1), (3, 2), (2, 2)]
    law = sv.exact_joint_height_distribution(params, dom, pts)
    counts = {}
    vert, _ = sv.sample_edges(params, dom, 4000, seed=17)
    for key in sv.edge_heights(dom, vert, pts).T:
        counts[tuple(key)] = counts.get(tuple(key), 0) + 1
    from hlsixv.verify import chi_square_gof

    stat, dof, p = chi_square_gof(counts, law)
    assert p > 1e-3


def test_bulk_tcode_sampler_matches_exact():
    from hlsixv.verify import chi_square_gof

    params = sv.SixVertexParams(t=0.35, a=(0.5, 0.35), b=(0.5, 0.4))
    for dom in (
        sv.JaggedDomain.rectangular(2, 2),
        sv.JaggedDomain(2, 2, pt.parse_signs("+-+-")),
    ):
        counts = sv.sample_outgoing_counts(params, dom, 100_000, seed=3)
        exact = sv.exact_outgoing_string_distribution(params, dom)
        stat, dof, p = chi_square_gof(counts, exact)
        assert p > 1e-3
        assert all(sum(1 for s in T if s == -1) == dom.N for T in counts)


def test_half_continuous_single_row_law():
    t, b1 = 0.5, 0.8
    taus = (0.5, 1.5)
    ens = sv.half_continuous_height_ensemble(t, (b1,), taus, 30000, seed=11)
    for j, tau in enumerate(taus):
        frac = np.mean(ens[:, j, 0] == 1)
        assert frac == pytest.approx(np.exp(-b1 * tau), abs=0.02)
    assert np.all((ens == 0) | (ens == 1))


def test_half_continuous_ensemble_sorts_query_times():
    args = (0.4, (1.0, 0.7))
    h1 = sv.half_continuous_height_ensemble(*args, (2.0, 0.2), 500, seed=1)
    h2 = sv.half_continuous_height_ensemble(*args, (0.2, 2.0), 500, seed=1)
    assert np.array_equal(h1, h2)


def test_half_continuous_monotone_and_deterministic():
    args = (0.4, (1.0, 0.7, 0.5), (0.5, 1.0, 2.5), 1)
    h1 = sv.half_continuous_height_ensemble(*args, seed=4)[0]
    h2 = sv.half_continuous_height_ensemble(*args, seed=4)[0]
    assert np.array_equal(h1, h2)
    # heights cumulative in y, non-increasing in tau
    assert np.all(np.diff(h1, axis=1) >= 0)
    assert np.all(np.diff(h1, axis=0) <= 0)


_rows = st.integers(1, 6)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.0, 0.95),
    _rows.flatmap(lambda n: st.lists(
        st.tuples(
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.integers(1, n),
            st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n),
        ),
        min_size=1, max_size=8,
    )),
)
def test_excursion_batch_matches_pushtasep_clock(t, runs):
    """Each run of the batched excursion equals the t-PushTASEP clock ring at
    the same row, fed coin column z at each empty row z it reaches."""
    occ = np.array([o for o, _, _ in runs]).T
    level = np.array([k for _, k, _ in runs])
    coins = np.array([c for _, _, c in runs])
    before = occ.copy()
    sv._excursion_batch(occ, level, coins, t)
    for r, (o, k, c) in enumerate(runs):
        state = rsk.PushTASEPState(len(o), list(o))
        reached = [c[z] for z in range(k, len(o)) if not o[z]]
        rsk.pushtasep_apply_clock(state, k, t, iter(reached).__next__)
        assert occ[:, r].tolist() == state.occupied, (before[:, r], k)


def test_seeded_sampler_streams_are_pinned():
    ens = sv.half_continuous_height_ensemble(
        0.4, (1.0, 0.7, 0.5), (0.5, 1.0, 2.5), 200, seed=99
    )
    assert ens.sum(axis=0).tolist() == [
        [125, 268, 435], [81, 188, 327], [17, 75, 168]
    ]
    params = sv.SixVertexParams(t=0.35, a=(0.5, 0.35), b=(0.5, 0.4))
    counts = sv.sample_outgoing_counts(
        params, sv.JaggedDomain.rectangular(2, 2), 2000, seed=99
    )
    assert counts == {
        (1, 1, -1, -1): 1133, (-1, 1, -1, 1): 356, (-1, 1, 1, -1): 199,
        (1, -1, -1, 1): 167, (1, -1, 1, -1): 106, (-1, -1, 1, 1): 39,
    }
