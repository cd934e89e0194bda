from itertools import product
from math import comb

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings, strategies as st

from hlsixv import hl_process as hl
from hlsixv import partitions as pt
from hlsixv import six_vertex as sv
from hlsixv.distributions import tv_distance


def spec11(t=0.25, a=0.5, b=0.5):
    return hl.HLProcessSpec(t=t, a=(a,), b=(b,), S="+-")


def test_spec_validation():
    with pytest.raises(ValueError):
        hl.HLProcessSpec(t=1.2, a=(0.5,), b=(0.5,), S="+-")
    with pytest.raises(ValueError):
        hl.HLProcessSpec(t=0.5, a=(2.0,), b=(0.6,), S="+-")
    with pytest.raises(ValueError):
        hl.HLProcessSpec(t=0.5, a=(0.5,), b=(0.5,), S="-+")


def test_normalization_pi_single_pair():
    assert hl.normalization_pi(spec11()) == pytest.approx(1.25)


def test_normalization_pi_degenerate_limit():
    spec = hl.HLProcessSpec(t=0.7, a=(1e-8, 1e-8), b=(1e-8,), S="++-")
    assert hl.normalization_pi(spec) == pytest.approx(1.0, abs=1e-7)


def test_normalization_pi_ascending_full_product():
    t, a, b = 0.3, (0.4, 0.25), (0.5, 0.2, 0.3)
    spec = hl.HLProcessSpec(t=t, a=a, b=b, S="++---")
    expect = 1.0
    for ai in a:
        for bj in b:
            expect *= (1 - t * ai * bj) / (1 - ai * bj)
    assert hl.normalization_pi(spec) == pytest.approx(expect, rel=1e-14)


def test_sequence_weight_examples():
    spec = spec11(t=0.3, a=0.4, b=0.5)
    for r in range(1, 5):
        w = hl.sequence_weight(((r,),), spec)
        assert w == pytest.approx(0.4**r * 0.5**r * (1 - 0.3))
    assert hl.sequence_weight(((),), spec) == 1.0
    spec2 = hl.HLProcessSpec(t=0.3, a=(0.4, 0.4), b=(0.5,), S="++-")
    assert hl.sequence_weight(((2,), (1,)), spec2) == 0.0  # not nested


def test_exact_sequence_distribution_geometric():
    spec = spec11()
    dist = hl.exact_sequence_distribution(spec, 40)
    assert dist[((),)] == pytest.approx(0.8, abs=1e-10)
    for r in range(1, 8):
        expect = 0.2 * 0.75 * 0.25 ** (r - 1)
        assert dist[(((r,)),)] == pytest.approx(expect, abs=1e-10) or dist[
            ((r,),)
        ] == pytest.approx(expect, abs=1e-10)
    assert abs(dist.mass_deficit) < 1e-12


def test_exact_sequence_point_mass_at_small_a():
    spec = hl.HLProcessSpec(t=0.4, a=(1e-13,), b=(0.5,), S="+-")
    dist = hl.exact_sequence_distribution(spec, 6)
    assert dist[((),)] == pytest.approx(1.0, abs=1e-12)


def test_sequence_count_matches_enumeration():
    for M in (1, 2):
        for N in (1, 2):
            for S in pt.enumerate_sign_class(M, N, +1):
                for a in ((0.4, 0.3)[:M], (0.0, 0.3)[:M]):
                    spec = hl.HLProcessSpec(t=0.35, a=a, b=(0.45, 0.3)[:N], S=S)
                    for cap in (3, 8):
                        lat = hl.get_lattice(min(M, N), cap)
                        tables = hl._step_tables(lat, spec)[1]
                        n = sum(1 for _ in hl._enumerate_sequences(lat, tables))
                        assert hl._count_sequences(lat, tables) == n


SIGNS_UP_TO_2 = [(M, N, S) for M in (1, 2) for N in (1, 2)
                 for S in pt.enumerate_sign_class(M, N, +1)]
_param = st.one_of(st.just(0.0), st.floats(0.05, 0.95))


@pytest.mark.parametrize("M, N, S", SIGNS_UP_TO_2)
@settings(max_examples=50, deadline=None)
@given(cap=st.integers(1, 6), t=st.floats(0.05, 0.95),
       a=st.lists(_param, min_size=2, max_size=2),
       b=st.lists(_param, min_size=2, max_size=2))
def test_enumeration_matches_partition_reference(M, N, S, cap, t, a, b):
    """The lattice walk of _enumerate_sequences against sequences built from
    partitions.py alone: every sequence of box partitions that keeps the row
    bounds and has positive sequence_weight, and nothing else."""
    spec = hl.HLProcessSpec(t=t, a=a[:M], b=b[:N], S=S)
    candidates = []
    for i in range(1, M + N):
        p, m = pt.prefix_counts(spec.S, i)
        candidates.append(list(pt.partitions_in_box(min(p, N - m), cap)))
    expected = {}
    for seq in product(*candidates):
        w = hl.sequence_weight(seq, spec)
        if w > 0:
            expected[seq] = w
    lat = hl.get_lattice(min(M, N), cap)
    got = list(hl._enumerate_sequences(lat, hl._step_tables(lat, spec)[1]))
    assert len(got) == len(dict(got))
    got = dict(got)
    assert got.keys() == expected.keys()
    for seq, w in got.items():
        assert abs(w - expected[seq]) <= 1e-14 * expected[seq]


def test_exact_sequence_distribution_refuses_before_enumerating(monkeypatch):
    spec = hl.HLProcessSpec(t=0.3, a=(0.3, 0.3), b=(0.3, 0.3), S="++--")
    lat = hl.get_lattice(2, 40)
    assert hl._count_sequences(lat, hl._step_tables(lat, spec)[1]) == 259161
    monkeypatch.setattr(hl, "MAX_SEQUENCES", 1000)
    with pytest.raises(ValueError, match="259161 sequences, more than 1000"):
        hl.exact_sequence_distribution(spec, 40)
    spec3 = hl.HLProcessSpec(t=0.3, a=(0.3,) * 3, b=(0.3,) * 3, S="+++---")
    with pytest.raises(hl.LatticeTooLarge):
        hl.exact_sequence_distribution(spec3, 400)


def two_variable_hl_p(lam, x1, x2, t):
    """Explicit 2-variable Hall-Littlewood P for at most 2 rows."""
    l1, l2 = (lam + (0, 0))[:2]
    if l1 == l2:
        return (x1 * x2) ** l1
    return x1**l1 * x2**l2 * (x1 - t * x2) / (x1 - x2) + x2**l1 * x1**l2 * (
        x2 - t * x1
    ) / (x2 - x1)


def test_marginal_matches_two_variable_p():
    t, a, b = 0.35, (0.4, 0.3), (0.45,)
    spec = hl.HLProcessSpec(t=t, a=a, b=b, S="++-")
    dist = hl.exact_sequence_distribution(spec, 30)
    marg = {}
    for seq, p in dist.items():
        lam = seq[1]
        marg[lam] = marg.get(lam, 0.0) + p
    ref = {
        lam: two_variable_hl_p(lam, a[0], a[1], t) * pt.skew_q_one(lam, (), b[0], t)
        for lam in pt.partitions_in_box(1, 3)
    }
    z = sum(
        two_variable_hl_p(lam, a[0], a[1], t) * pt.skew_q_one(lam, (), b[0], t)
        for lam in pt.partitions_in_box(1, 60)
    )
    for lam, val in ref.items():
        assert marg.get(pt.strip_zeros(lam), 0.0) == pytest.approx(val / z, abs=1e-8)


def test_normalization_identity_enumerated_vs_pi():
    rng = np.random.default_rng(3)
    for S in ["+-", "++--", "+-+-", "++-"]:
        signs = pt.parse_signs(S)
        M = sum(1 for s in signs if s == 1)
        N = len(signs) - M
        t = rng.uniform(0.2, 0.7)
        a = tuple(rng.uniform(0.05, 0.4, size=M))
        b = tuple(rng.uniform(0.05, 0.4, size=N))
        spec = hl.HLProcessSpec(t=t, a=a, b=b, S=signs)
        cap = hl.minimal_row_cap(spec)
        dist = hl.exact_sequence_distribution(spec, cap)
        assert abs(dist.mass_deficit) < 1e-12


def fig2_sequence():
    """Diagonal slices of the plane partition in the ascending example."""
    rows = [(3, 3, 3, 3, 2, 2), (3, 3, 1), (3, 2, 1), (1,)]

    def entry(r, c):
        if 0 <= r < len(rows) and 0 <= c < len(rows[r]):
            return rows[r][c]
        return 0

    seq = []
    for d in range(-3, 6):
        slice_vals = [
            entry(r, r + d) for r in range(4) if entry(r, r + d) > 0
        ]
        seq.append(tuple(sorted(slice_vals, reverse=True)))
    return tuple(seq)


def test_support_of_fig2_sequence():
    S = pt.parse_signs("++++------")
    seq = fig2_sequence()
    assert len(seq) == 9
    T = hl.support_string(seq, S)
    assert pt.signs_to_str(T) == "-+--++---+"
    sk = hl.support_of_sequence(seq, S)
    assert sk.outer == (6, 3, 3, 1)
    assert sk.inner == ()


def test_first_columns_fig2():
    seq = fig2_sequence()
    cols = hl.first_columns(seq)
    assert cols == (1, 1, 2, 3, 2, 1, 1, 1, 1)
    S = pt.parse_signs("++++------")
    T = hl.support_string(seq, S)
    assert hl.first_columns_from_strings(S, T) == cols


def test_support_simple_cases():
    sk = hl.support_of_sequence(((1,),), "+-")
    assert sk == ((1,), ())
    assert hl.support_string(((1,),), "+-") == (-1, 1)
    allempty = ((), (), ())
    sk2 = hl.support_of_sequence(allempty, "++--")
    assert sk2 == ((), ())
    assert hl.support_string(allempty, "++--") == (1, 1, -1, -1)
    assert hl.first_columns(((), ())) == (0, 0)
    assert hl.first_columns(((1,),)) == (1,)


def test_support_corrupt_sequence_rejected():
    with pytest.raises(ValueError):
        hl.support_string(((2, 2),), "+-")  # column jump of 2 in one step


def _per_call_support(seq, S):
    """(T, nu(T)/mu(S)) the way support_string and support_of_sequence
    computed it on every call before their caches."""
    S = pt.parse_signs(S)
    if len(seq) != len(S) - 1:
        raise ValueError(f"{len(seq)} partitions for {len(S)} signs")
    rows = [0] + [len(pt.as_partition(lam)) for lam in seq] + [0]
    T = []
    for i, si in enumerate(S):
        step = rows[i + 1] - rows[i]
        if si == 1:
            if step not in (0, 1):
                raise ValueError(f"first-column increment {step} at step {i+1}")
            T.append(1 if step == 0 else -1)
        else:
            if step not in (0, -1):
                raise ValueError(f"first-column decrement {-step} at step {i+1}")
            T.append(1 if step == -1 else -1)
    T = tuple(T)
    return T, hl.SkewDiagram(pt._traced_partition(T), pt._traced_partition(S))


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@st.composite
def _pushforward_inputs(draw):
    """A sign string and a sequence whose row counts follow it step by step
    (valid when they end at 0), sometimes corrupted, with tuple or list
    partitions and a str, tuple or list S."""
    S = draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=7))
    seq, r = [], 0
    for s in S[:-1]:
        r = max(0, r + draw(st.sampled_from((0, s))))
        parts = draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))
        seq.append(tuple(sorted(parts, reverse=True)) + (0,) * draw(st.integers(0, 1)))
    corrupt = draw(st.sampled_from((None, "length", "negative", "unsorted", "jump")))
    i = draw(st.integers(0, max(0, len(seq) - 1)))
    if corrupt == "length":
        seq = seq[:-1] if seq and draw(st.booleans()) else seq + [()]
    elif corrupt and seq:
        seq[i] = {"negative": (2, -1), "unsorted": (1, 2),
                  "jump": seq[i] + (1, 1)}[corrupt]
    if draw(st.booleans()):
        seq = [list(lam) for lam in seq]
    S = draw(st.sampled_from((pt.signs_to_str(S), tuple(S), list(S))))
    return seq, S


@settings(max_examples=200, deadline=None)
@given(_pushforward_inputs())
def test_cached_pushforward_equals_the_per_call_rule(inputs):
    seq, S = inputs
    ref = _outcome(_per_call_support, seq, S)
    ref_rows = _outcome(lambda: tuple(pt.num_rows(pt.as_partition(lam)) for lam in seq))
    for _ in range(2):  # a repeated call, cached or not, gives the same
        if isinstance(ref, type):
            assert _outcome(hl.support_string, seq, S) is ref
            assert _outcome(hl.support_of_sequence, seq, S) is ref
        else:
            assert hl.support_string(seq, S) == ref[0]
            assert hl.support_of_sequence(seq, S) == ref[1]
        assert _outcome(hl.first_columns, seq) == ref_rows
    assert hl._rows_of.cache_parameters()["maxsize"] is not None
    assert hl._support_of_rows.cache_parameters()["maxsize"] is not None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_support_and_column_laws_push_the_string_law_forward(data):
    """Both models' support laws, and the first-column law, are their string
    laws with each T mapped, entry for entry and bit for bit."""
    M, N = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    S = data.draw(st.sampled_from(list(pt.enumerate_sign_class(M, N, +1))))
    t = data.draw(st.floats(0.1, 0.9))
    a = tuple(data.draw(st.floats(0.05, 0.6)) for _ in range(M))
    b = tuple(data.draw(st.floats(0.05, 0.6)) for _ in range(N))
    spec = hl.HLProcessSpec(t=t, a=a, b=b, S=S)
    params = sv.SixVertexParams(t=t, a=a, b=b)
    domain = sv.JaggedDomain(M, N, S)

    def nu_mu(T):
        return pt.partition_from_string(T, M, N), spec.mu()

    strings = hl.exact_support_string_distribution(spec, 8)
    six_strings = sv.exact_outgoing_string_distribution(params, domain)
    for law, string_law, f in (
        (hl.exact_support_distribution(spec, 8), strings, nu_mu),
        (hl.exact_first_column_distribution(spec, 8), strings,
         lambda T: hl.first_columns_from_strings(S, T)),
        (sv.exact_outgoing_distribution(params, domain), six_strings, nu_mu),
    ):
        assert list(law.items()) == [(f(T), p) for T, p in string_law.items()]
        assert law.mass_deficit == string_law.mass_deficit
        assert abs(law.total_mass() - 1.0) <= 1e-12
    assert abs(strings.total_mass() - 1.0) <= 1e-12
    assert abs(six_strings.total_mass() - 1.0) <= 1e-12


def test_exact_support_distribution_closed_form():
    dist = hl.exact_support_distribution(spec11(), 40)
    assert dist[((), ())] == pytest.approx(0.8, abs=1e-10)
    assert dist[((1,), ())] == pytest.approx(0.2, abs=1e-10)
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-10)


def test_exact_support_small_a_concentrates():
    spec = hl.HLProcessSpec(t=0.4, a=(1e-13, 1e-13), b=(0.5,), S="++-")
    dist = hl.exact_support_distribution(spec, 6)
    assert dist[((), ())] == pytest.approx(1.0, abs=1e-10)
    # jagged string: the mass sits on the minimal diagram mu(S)/mu(S)
    spec2 = hl.HLProcessSpec(t=0.4, a=(1e-13, 1e-13), b=(0.5, 0.4), S="+-+-")
    dist2 = hl.exact_support_distribution(spec2, 6)
    assert spec2.mu() == (1,)
    assert dist2[((1,), (1,))] == pytest.approx(1.0, abs=1e-10)


def test_exact_support_matches_enumeration():
    rng = np.random.default_rng(11)
    for S in ["+-+-", "++--", "+-+--"]:
        signs = pt.parse_signs(S)
        M = sum(1 for s in signs if s == 1)
        N = len(signs) - M
        t = rng.uniform(0.2, 0.6)
        a = tuple(rng.uniform(0.1, 0.4, size=M))
        b = tuple(rng.uniform(0.1, 0.4, size=N))
        spec = hl.HLProcessSpec(t=t, a=a, b=b, S=signs)
        cap = hl.minimal_row_cap(spec)
        fast = hl.exact_support_distribution(spec, cap)
        brute = {}
        seq_dist = hl.exact_sequence_distribution(spec, cap)
        for seq, p in seq_dist.items():
            key = tuple(hl.support_of_sequence(seq, signs))
            brute[key] = brute.get(key, 0.0) + p
        assert set(brute) == set(fast.outcomes)
        for key, p in brute.items():
            assert fast[key] == pytest.approx(p, abs=1e-11)


def test_first_column_distribution_consistency():
    spec = hl.HLProcessSpec(t=0.3, a=(0.4, 0.3), b=(0.45, 0.2), S="+-+-")
    cap = hl.minimal_row_cap(spec)
    cols = hl.exact_first_column_distribution(spec, cap)
    brute = {}
    for seq, p in hl.exact_sequence_distribution(spec, cap).items():
        key = hl.first_columns(seq)
        brute[key] = brute.get(key, 0.0) + p
    for key in set(brute) | set(cols.outcomes):
        assert cols[key] == pytest.approx(brute.get(key, 0.0), abs=1e-11)


@pytest.mark.parametrize("rows,cap", [(1, 6), (2, 6), (3, 6), (4, 3), (5, 3)])
def test_lattice_matches_interlacing_oracle(rows, cap):
    lat = hl.get_lattice(rows, cap)
    box = list(pt.partitions_in_box(rows, cap))
    assert sorted(lat.states) == sorted(box)
    expected = {(mu, lam) for lam in box for mu in box if pt.interlaces(lam, mu)}
    lam_idx, colinc = _edge_lams(lat)
    edges = [(lat.states[m], lat.states[l]) for m, l in zip(lat.mu_idx, lam_idx)]
    # lam_1 >= mu_1 >= ... >= mu_rows is one non-increasing sequence in [0, cap]
    assert len(edges) == len(expected) == comb(cap + 2 * rows, 2 * rows)
    assert set(edges) == expected
    for (mu, lam), inc in zip(edges, colinc):
        assert pt.num_rows(lam) - pt.num_rows(mu) == inc
    assert np.array_equal(lat.colinc, colinc)
    a, t = 0.37, 0.3
    # column i of each image is the full step applied to the unit vector at
    # state i
    units = np.eye(len(lat.states))
    up = np.add(*lat.apply(lat.operator("+", a, t), units))
    down = np.add(*lat.apply(lat.operator("-", a, t), units))
    for i, src in enumerate(lat.states):
        for j, dst in enumerate(lat.states):
            p = pt.skew_p_one(dst, src, a, t)
            q = pt.skew_q_one(src, dst, a, t)
            assert abs(up[j, i] - p) <= 1e-15 * abs(p)
            assert abs(down[j, i] - q) <= 1e-15 * abs(q)


def _edge_lams(lat):
    """lam and the first-column increment of each edge, in lattice edge
    order: the rows of lat.indptr are 2 lam + colinc."""
    rows = np.repeat(np.arange(len(lat.indptr) - 1), np.diff(lat.indptr))
    return rows // 2, rows % 2


def _bincount_step(lat, vec, kind, x, t, colinc=None, backward=False):
    """The reference step: one weighted np.bincount over the edge list, which
    adds each target's terms in lattice edge order."""
    n = len(lat.states)
    lam_idx, inc = _edge_lams(lat)
    keep = np.ones(len(inc), dtype=bool) if colinc is None else inc == colinc
    mu, lam = lat.mu_idx[keep], lam_idx[keep]
    weight = lat.class_weights(kind, x, t)[lat.edge_class[keep]]
    src, dst = (mu, lam) if kind == "+" else (lam, mu)
    if backward:
        src, dst = dst, src
    return np.bincount(dst, weights=vec[src] * weight, minlength=n)


@pytest.mark.parametrize("rows,cap", [(1, 9), (2, 6), (3, 5), (4, 3)])
def test_operator_step_equals_bincount_reference(rows, cap):
    lat = hl.get_lattice(rows, cap)
    n = len(lat.states)
    lam_idx, inc = _edge_lams(lat)
    # lattice edge order: lam, then colinc, then mu, each edge once
    key = (lam_idx * 2 + inc) * n + lat.mu_idx
    assert np.all(np.diff(key) > 0)
    rng = np.random.default_rng(rows * 100 + cap)
    for _ in range(3):
        x, t = rng.uniform(0.05, 0.95, size=2)
        vecs = rng.random((n, 4))
        vecs[rng.random((n, 4)) < 0.3] = 0.0
        for kind, backward in product("+-", (False, True)):
            op = lat.operator(kind, x, t, backward=backward)
            block = lat.apply(op, vecs)
            for j in range(vecs.shape[1]):
                one = lat.apply(op, vecs[:, j])
                for colinc in (0, 1):
                    ref = _bincount_step(lat, vecs[:, j], kind, x, t, colinc, backward)
                    assert np.array_equal(one[colinc], ref)
                    assert np.array_equal(block[colinc][:, j], ref)


@pytest.mark.parametrize("rows,cap", [(1, 9), (2, 6), (3, 5)])
def test_full_step_is_the_sum_of_its_halves(rows, cap):
    """Each full step of a sweep adds the colinc-1 half to the colinc-0 half,
    bit for bit, and equals the bincount sum over all edges to rounding."""
    lat = hl.get_lattice(rows, cap)
    rng = np.random.default_rng(rows)
    for kind, backward in product("+-", (False, True)):
        op = lat.operator(kind, 0.37, 0.3, backward=backward)
        vecs = hl._sweep(lat, [op] * 3)
        for before, after in zip(vecs, vecs[1:]):
            assert np.array_equal(after, np.add(*lat.apply(op, before)))
        vec = rng.random(len(lat.states))
        ref = _bincount_step(lat, vec, kind, 0.37, 0.3, backward=backward)
        assert np.allclose(np.add(*lat.apply(op, vec)), ref, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("rows,cap", [(1, 9), (2, 6), (3, 5)])
def test_operator_data_is_the_gathered_class_weights(rows, cap):
    """The stored values of every step operator are its class weights
    gathered by edge class, bit for bit."""
    lat = hl.get_lattice(rows, cap)
    for kind, backward in product("+-", (False, True)):
        expect = lat.class_weights(kind, 0.37, 0.3)[lat.edge_class]
        data = lat.operator(kind, 0.37, 0.3, backward=backward).data
        assert data.dtype == expect.dtype
        assert data.tobytes() == expect.tobytes()


def _recursive_support_masses(lat, steps, t, i, vec, tbits, masses):
    """The support masses by a depth-first walk of the T-prefix tree, T bit
    +1 before -1, one reference step per node."""
    if i == len(steps):
        m = vec[lat.index[pt.EMPTY]]
        if m > 0.0:
            masses[tuple(tbits)] = m
        return
    kind, param = steps[i]
    for tbit in (1, -1):
        # T bit +1: no first-column increment on a plus, a decrement on a minus
        colinc = (tbit == 1) == (kind == "-")
        out = _bincount_step(lat, vec, kind, param, t, colinc=int(colinc))
        if np.any(out):
            _recursive_support_masses(lat, steps, t, i + 1, out, tbits + [tbit], masses)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data(), st.floats(0.05, 0.9))
def test_level_walk_sums_the_support_masses_in_depth_first_order(M, N, data, t):
    S = data.draw(st.sampled_from(sorted(pt.enumerate_sign_class(M, N, +1))))
    a = data.draw(st.lists(st.floats(0.05, 0.6), min_size=M, max_size=M))
    b = data.draw(st.lists(st.floats(0.05, 0.6), min_size=N, max_size=N))
    spec = hl.HLProcessSpec(t=t, a=a, b=b, S=S)
    cap = 6
    lat = hl.get_lattice(min(M, N), cap)
    vec = np.zeros(len(lat.states))
    vec[lat.index[pt.EMPTY]] = 1.0
    masses = {}
    _recursive_support_masses(lat, spec.steps(), t, 0, vec, [], masses)
    total = sum(masses.values())
    expected = [((pt.partition_from_string(T, M, N), spec.mu()), m / total)
                for T, m in masses.items()]
    dist = hl.exact_support_distribution(spec, cap)
    assert list(dist.items()) == expected
    assert dist.mass_deficit == 1.0 - total / hl.normalization_pi(spec)


def _full_lattice_string_masses(lat, steps, t):
    """The level walk of _string_masses over every state of the lattice at
    every step: the oracle of the walk over the states within the row
    bounds."""
    n = len(lat.states)
    vecs = np.zeros((n, 1))
    vecs[lat.empty] = 1.0
    tbits = np.zeros((1, 0), dtype=np.int8)
    for (kind, _), op in zip(steps, hl._operators(lat, steps, t)):
        half0, half1 = lat.apply(op, vecs)
        out = np.empty((n, 2 * vecs.shape[1]))
        out[:, 0::2], out[:, 1::2] = (half0, half1) if kind == "+" else (half1, half0)
        live = out.any(axis=0)
        vecs = out[:, live]
        tbits = np.column_stack(
            (np.repeat(tbits, 2, axis=0), np.tile((1, -1), len(tbits)))
        )[live]
    masses = {
        tuple(T): m for T, m in zip(tbits.tolist(), vecs[lat.empty].tolist()) if m > 0.0
    }
    return masses, sum(masses.values())


@st.composite
def _walk_specs(draw):
    """A spec with M, N <= 3, t in (0.05, 0.9), and sometimes one a_i or b_j
    set to 0."""
    M, N = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    S = draw(st.sampled_from(sorted(pt.enumerate_sign_class(M, N, +1))))
    a = draw(st.lists(st.floats(0.05, 0.9), min_size=M, max_size=M))
    b = draw(st.lists(st.floats(0.05, 0.9), min_size=N, max_size=N))
    if draw(st.booleans()):
        params = draw(st.sampled_from((a, b)))
        params[draw(st.integers(0, len(params) - 1))] = 0.0
    return hl.HLProcessSpec(t=draw(st.floats(0.05, 0.9)), a=a, b=b, S=S)


@settings(max_examples=150, deadline=None)
@given(_walk_specs(), st.integers(0, 10))
def test_live_state_walk_equals_the_full_lattice_walk(spec, cap):
    """The walk over the states within the row bounds sums every string's
    mass, and their total, bit for bit as the walk over the whole lattice,
    in the same order."""
    lat = hl.get_lattice(min(spec.M, spec.N), cap)
    masses, total = hl._string_masses(lat, spec.steps(), spec.t)
    ref_masses, ref_total = _full_lattice_string_masses(lat, spec.steps(), spec.t)
    assert list(masses) == list(ref_masses)
    assert np.array(list(masses.values())).tobytes() == \
        np.array(list(ref_masses.values())).tobytes()
    assert np.float64(total).tobytes() == np.float64(ref_total).tobytes()


@settings(max_examples=60, deadline=None)
@given(_walk_specs(), st.integers(0, 8))
def test_live_states_keep_the_row_bounds(spec, cap):
    """At every step i, each state with forward mass and completion mass has
    at most b_i rows, and with positive parameters and cap >= 1 some such
    state has exactly b_i rows: the bounds are the exact liveness rule's."""
    lat = hl.get_lattice(min(spec.M, spec.N), cap)
    nrows = np.array([len(lam) for lam in lat.states])
    bounds = hl._row_bounds(spec.steps(), lat.rows)
    assert bounds[0] == bounds[-1] == 0
    positive = cap >= 1 and min(spec.a + spec.b) > 0
    for i, (fwd, bwd) in enumerate(zip(hl._forward_sweep(lat, spec),
                                       hl._backward_masses(lat, spec))):
        live = nrows[(fwd > 0) & (bwd > 0)]
        assert live.max() <= bounds[i]
        if positive:
            assert live.max() == bounds[i]


def _parent_operator(lat, kind, param, t, backward=False):
    """The step matrix over every state, as built from the lattice's arrays
    alone."""
    n = len(lat.states)
    data = lat.class_weights(kind, param, t).take(lat.edge_class)
    if (kind == "+") != backward:
        return sparse.csr_matrix((data, lat.mu_idx, lat.indptr), shape=(2 * n, n))
    return sparse.csc_matrix((data, 2 * lat.mu_idx + lat.colinc, lat.indptr[::2]),
                             shape=(2 * n, n))


def _same_matrix(op, ref):
    return (op.format == ref.format and op.shape == ref.shape
            and op.indptr.tobytes() == ref.indptr.tobytes()
            and op.indices.tobytes() == ref.indices.tobytes()
            and op.data.tobytes() == ref.data.tobytes())


@pytest.mark.parametrize("rows,cap", [(1, 9), (2, 6), (3, 5)])
def test_operator_at_the_lattice_row_count_is_the_full_step(rows, cap):
    lat = hl.get_lattice(rows, cap)
    for kind, backward in product("+-", (False, True)):
        ref = _parent_operator(lat, kind, 0.37, 0.3, backward)
        for bounds in (None, (rows, rows)):
            op = lat.operator(kind, 0.37, 0.3, backward=backward, bounds=bounds)
            assert _same_matrix(op, ref)


@pytest.mark.parametrize("rows,cap", [(2, 6), (3, 5)])
def test_bounded_operator_is_the_full_step_between_kept_states(rows, cap):
    """A bounded step keeps the full step's entries between the kept states,
    each kept target row with its terms in their stored order."""
    lat = hl.get_lattice(rows, cap)
    nrows = np.array([len(lam) for lam in lat.states])
    for kind, backward in product("+-", (False, True)):
        full = lat.operator(kind, 0.37, 0.3, backward=backward)
        for bounds in product(range(rows + 1), repeat=2):
            op = lat.operator(kind, 0.37, 0.3, backward=backward, bounds=bounds)
            # the states the step's vectors run over: before, then after it
            before, after = (np.flatnonzero(nrows <= b) for b in bounds)
            if backward:
                before, after = after, before
            targets = np.ravel(2 * after[:, None] + (0, 1))
            ref = full.tocsr()[targets][:, before]
            op = op.tocsr()
            assert op.shape == ref.shape
            assert np.array_equal(op.indptr, ref.indptr)
            assert np.array_equal(op.indices, ref.indices)
            assert op.data.tobytes() == ref.data.tobytes()


def test_string_walk_applies_each_step_once(monkeypatch):
    """The string law of a fresh (spec, cap) makes M + N apply calls, one
    per step, and builds each distinct (step, bounds) operator once."""
    hl._LATTICES.clear()
    calls, built = [], []
    apply, operator = hl._Lattice.apply, hl._Lattice.operator

    def spy_apply(lat, op, vecs):
        calls.append(vecs.shape)
        return apply(lat, op, vecs)

    def spy_operator(lat, *args, **kwargs):
        built.append((args, kwargs))
        return operator(lat, *args, **kwargs)

    monkeypatch.setattr(hl._Lattice, "apply", spy_apply)
    monkeypatch.setattr(hl._Lattice, "operator", spy_operator)
    hl.exact_support_string_distribution(SPEC33, 10)
    assert len(calls) == SPEC33.M + SPEC33.N
    assert calls[0] == (1, 1)
    assert len(built) == len(set(map(repr, built)))


def test_lattice_keeps_at_most_10_bytes_per_edge():
    """mu and class per edge as int32 and colinc as int8, once each, and the
    row pointer; no step applied leaves an operator on the lattice."""
    lat = hl.get_lattice(3, 16)
    vec = np.ones(len(lat.states))
    for kind, backward in product("+-", (False, True)):
        lat.apply(lat.operator(kind, 0.3, 0.4, backward=backward), vec)
    held = sum(v.nbytes for v in vars(lat).values() if isinstance(v, np.ndarray))
    assert held <= 10 * len(lat.mu_idx)


def test_lattice_too_large_fails_before_building():
    with pytest.raises(hl.LatticeTooLarge, match=str(comb(406, 6))):
        hl.get_lattice(3, 400)
    assert (3, 400) not in hl._LATTICES


@pytest.mark.parametrize("law", [
    lambda spec: hl.exact_support_distribution(spec, 11),
    lambda spec: hl.exact_first_column_distribution(spec, 11),
    lambda spec: hl.exact_marginal_distribution(spec, 2, 11),
    lambda spec: hl.exact_sequence_distribution(spec, 11),
    lambda spec: hl.SequenceSampler(spec, 11, seed=1).sample(),
    hl.row_cap,
], ids=["support", "first-column", "marginal", "sequence", "sampler", "row_cap"])
def test_exact_laws_free_the_lattice_with_the_cache(law):
    """No reference cycle keeps a lattice (or the memo on it) alive once
    _LATTICES drops it, so a cleared cache frees every lattice without
    waiting for the cyclic collector."""
    import gc
    import weakref

    spec = hl.HLProcessSpec(t=0.3, a=(0.4, 0.3), b=(0.4, 0.3), S="+-+-")
    hl._LATTICES.clear()
    gc.disable()
    try:
        law(spec)
        refs = [weakref.ref(lat) for lat in hl._LATTICES.values()]
        assert refs
        hl._LATTICES.clear()
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def _same_law(d, e):
    """d and e list the same outcomes in the same order with the same
    probabilities and deficit, bit for bit."""
    return (list(d.outcomes) == list(e.outcomes)
            and np.array(list(d.outcomes.values())).tobytes()
            == np.array(list(e.outcomes.values())).tobytes()
            and np.float64(d.mass_deficit).tobytes() == np.float64(e.mass_deficit).tobytes())


SPEC33 = hl.HLProcessSpec(t=0.35, a=(0.4, 0.3, 0.5), b=(0.45, 0.2, 0.3), S="+-++--")


@pytest.mark.parametrize("spec", [
    SPEC33, hl.HLProcessSpec(t=0.3, a=(0.4, 0.3), b=(0.45, 0.2), S="++--"),
], ids=["+-++--", "++--"])
def test_step_tables_list_candidates_in_colinc_then_target_order(spec):
    """Each source's candidates of both kinds of step come in (colinc,
    target) order, as a lexicographic sort of the edge list puts them."""
    lat = hl.get_lattice(min(spec.M, spec.N), 5)
    lam_idx, inc = _edge_lams(lat)
    steps = spec.steps()
    bwd, tables = hl._step_tables(lat, spec)
    assert len(tables) == len(steps)
    for i, ((kind, x), (indptr, dst, weight)) in enumerate(zip(steps, tables)):
        w = lat.class_weights(kind, x, spec.t)[lat.edge_class]
        src, tgt = (lat.mu_idx, lam_idx) if kind == "+" else (lam_idx, lat.mu_idx)
        keep = (w != 0.0) & (bwd[i + 1][tgt] > 0)
        src, tgt, c, w = src[keep], tgt[keep], inc[keep], w[keep]
        order = np.lexsort((tgt, c, src))
        assert np.array_equal(np.repeat(np.arange(len(lat.states)), np.diff(indptr)),
                              src[order])
        assert np.array_equal(dst, tgt[order])
        assert weight.tobytes() == w[order].tobytes()


@pytest.mark.parametrize("M, N, S", SIGNS_UP_TO_2 + [
    (M, N, S) for M, N in ((2, 3), (3, 2), (3, 3))
    for S in pt.enumerate_sign_class(M, N, +1)])
@settings(max_examples=20, deadline=None)
@given(cap=st.integers(1, 5), t=st.floats(0.05, 0.95),
       a=st.lists(_param, min_size=3, max_size=3),
       b=st.lists(_param, min_size=3, max_size=3))
def test_step_tables_keep_only_edges_that_return_to_empty(M, N, S, cap, t, a, b):
    """With zero parameters among a and b, every target of table i is a
    source with an edge in table i+1, and the last table's targets are the
    empty partition: no path through the tables ends early."""
    spec = hl.HLProcessSpec(t=t, a=a[:M], b=b[:N], S=S)
    lat = hl.get_lattice(min(M, N), cap)
    tables = hl._step_tables(lat, spec)[1]
    for (_, dst, _), (indptr, _, _) in zip(tables, tables[1:]):
        assert np.all(indptr[dst + 1] > indptr[dst])
    assert np.all(tables[-1][1] == lat.empty)


@pytest.mark.parametrize("law", [
    hl.exact_support_string_distribution,
    hl.exact_support_distribution,
    hl.exact_first_column_distribution,
], ids=["string", "support", "first-column"])
def test_memoized_string_laws_equal_a_recompute(law, monkeypatch):
    """A law read from the lattice's memo, after each other law of the same
    (spec, cap) was asked for, equals the law summed on a fresh lattice bit
    for bit, and costs no DP step."""
    cap = 10
    hl._LATTICES.clear()
    fresh = law(SPEC33, cap)
    hl._LATTICES.clear()
    for other in (hl.exact_support_string_distribution, hl.exact_support_distribution,
                  hl.exact_first_column_distribution):
        other(SPEC33, cap)
    steps = []
    monkeypatch.setattr(hl._Lattice, "apply", lambda lat, op, vecs: steps.append(op))
    assert _same_law(law(SPEC33, cap), fresh)
    assert steps == []


def test_marginals_read_the_memoized_forward_sweep():
    """exact_marginal_distribution at every position, reading the forward
    sweep that row_cap's DP left on the lattice, equals the marginal from a
    fresh prefix sweep bit for bit."""
    spec = SPEC33
    cap = hl.row_cap(spec)
    lat = hl.get_lattice(3, cap)
    steps = spec.steps()
    assert ("forward", spec.t, tuple(steps)) in lat.memo
    for pos in range(1, spec.M + spec.N):
        fwd = hl._sweep(lat, hl._operators(lat, steps[:pos], spec.t))[-1]
        bwd = hl._sweep(lat, hl._operators(lat, steps[pos:], spec.t, backward=True)[::-1])[-1]
        mass = fwd * bwd
        expect = hl._law(spec, {lat.states[i]: mass[i] for i in np.nonzero(mass)[0]},
                         mass.sum())
        assert hl._forward_sweep(lat, spec)[pos].tobytes() == fwd.tobytes()
        assert _same_law(hl.exact_marginal_distribution(spec, pos, cap), expect)


def test_marginals_build_each_backward_step_once(monkeypatch):
    """Over every position of SPEC33 the marginals share one memoized,
    read-only backward sweep: each distinct backward step is built once."""
    spec, cap = SPEC33, 10
    hl._LATTICES.clear()
    built = []
    operator = hl._Lattice.operator

    def spy(lat, kind, param, t, backward=False):
        if backward:
            built.append((kind, param))
        return operator(lat, kind, param, t, backward)

    monkeypatch.setattr(hl._Lattice, "operator", spy)
    for pos in range(1, spec.M + spec.N):
        hl.exact_marginal_distribution(spec, pos, cap)
    assert sorted(built) == sorted(set(spec.steps()))
    with pytest.raises(ValueError):
        hl._backward_masses(hl.get_lattice(3, cap), spec)[3][0] = 1.0


def test_changing_a_returned_law_leaves_the_memo_alone():
    spec = SPEC33
    first = hl.exact_first_column_distribution(spec, 10)
    expect = list(first.items())
    key = next(iter(first.outcomes))
    first.outcomes[key] = 5.0
    first.outcomes.pop(next(reversed(first.outcomes)))
    again = hl.exact_first_column_distribution(spec, 10)
    assert again.outcomes is not first.outcomes
    assert list(again.items()) == expect
    marg = hl.exact_marginal_distribution(spec, 3, 10)
    with pytest.raises(ValueError):
        hl._forward_sweep(hl.get_lattice(3, 10), spec)[3][0] = 1.0
    marg.outcomes.clear()
    assert len(hl.exact_marginal_distribution(spec, 3, 10)) > 0


def test_memo_keeps_at_most_its_bound_most_recent_last():
    hl._LATTICES.clear()
    lat = hl.get_lattice(1, 9)
    specs = [hl.HLProcessSpec(t=t, a=(0.4,), b=(0.3,), S="+-")
             for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]
    for i, spec in enumerate(specs):
        hl.exact_support_string_distribution(spec, 9)
        # a hit on the oldest law makes it the most recent one
        hl.exact_support_string_distribution(specs[0], 9)
        assert len(lat.memo) <= hl.MEMO_ENTRIES
        assert next(reversed(lat.memo)) == ("string", 0.1, tuple(specs[0].steps()))
    assert [key[1] for key in lat.memo] == [0.4, 0.5, 0.6, 0.1]


def _cached_bytes():
    return sum(lat.nbytes for lat in hl._LATTICES.values())


def test_lattice_cache_stays_within_its_byte_bound(monkeypatch):
    """Past MAX_CACHED_BYTES, get_lattice and a memoized DP drop the least
    recently used lattices, a cache hit counting as a use."""
    hl._LATTICES.clear()
    monkeypatch.setattr(hl, "MAX_CACHED_BYTES", 14_000)
    used = []
    for key in [(1, 9), (3, 4), (2, 7), (1, 20), (1, 30), (2, 8), (3, 5)]:
        for k in (key, (2, 6)):
            hl.get_lattice(*k)
            used = [u for u in used if u != k] + [k]
            assert _cached_bytes() <= 14_000
            # the cache holds the lattices used last, in the order of use
            assert list(hl._LATTICES) == used[-len(hl._LATTICES):]
    assert len(hl._LATTICES) < len(used)
    # a forward sweep grows (2, 6) and drops the lattice used least recently
    assert list(hl._LATTICES) == [(3, 5), (2, 6)]
    hl.get_lattice(1, 9)
    spec = hl.HLProcessSpec(t=0.3, a=(0.4, 0.3), b=(0.3,) * 6, S="++------")
    hl._forward_mass(spec, 6)
    assert len(hl.get_lattice(2, 6).memo) == 1
    assert _cached_bytes() <= 14_000
    assert list(hl._LATTICES) == [(1, 9), (2, 6)]


def test_an_evicted_lattice_comes_back_with_the_same_arrays(monkeypatch):
    hl._LATTICES.clear()
    old = hl.get_lattice(2, 6)
    monkeypatch.setattr(hl, "MAX_CACHED_BYTES", old.nbytes)
    hl.get_lattice(1, 9)
    assert list(hl._LATTICES) == [(1, 9)]
    new = hl.get_lattice(2, 6)
    assert new is not old
    assert new.states == old.states and new.index == old.index
    for name, arr in vars(old).items():
        if isinstance(arr, np.ndarray):
            assert getattr(new, name).dtype == arr.dtype
            assert np.array_equal(getattr(new, name), arr), name
    # the lattice in use stays even when it alone is over the bound
    monkeypatch.setattr(hl, "MAX_CACHED_BYTES", 0)
    assert hl.get_lattice(1, 9) is hl._LATTICES[(1, 9)]
    assert list(hl._LATTICES) == [(1, 9)]


def test_row_bound_invariant():
    spec = hl.HLProcessSpec(t=0.3, a=(0.4, 0.3), b=(0.45, 0.2), S="+-+-")
    for seq, p in hl.exact_sequence_distribution(spec, 12).items():
        for i, lam in enumerate(seq, start=1):
            pcount, mcount = pt.prefix_counts(spec.S, i)
            assert pt.num_rows(lam) <= min(pcount, spec.N - mcount)


def test_exact_marginal_distribution_vs_enumeration():
    spec = hl.HLProcessSpec(t=0.3, a=(0.4, 0.3), b=(0.45, 0.2), S="++--")
    cap = hl.minimal_row_cap(spec)
    for pos in (1, 2, 3):
        marg = hl.exact_marginal_distribution(spec, pos, cap)
        brute = {}
        for seq, p in hl.exact_sequence_distribution(spec, cap).items():
            lam = seq[pos - 1]
            brute[lam] = brute.get(lam, 0.0) + p
        for key in set(brute) | set(marg.outcomes):
            assert marg[key] == pytest.approx(brute.get(key, 0.0), abs=1e-11)


def test_sampler_deterministic_and_exact():
    spec = hl.HLProcessSpec(t=0.35, a=(0.45, 0.3), b=(0.4, 0.35), S="++--")
    assert hl.sample_sequence(spec, 20, seed=5) == hl.sample_sequence(spec, 20, seed=5)
    assert hl.sample_sequence(spec, 20, seed=5) != hl.sample_sequence(spec, 20, seed=6)


def test_sampler_chi_square_against_support_law():
    from hlsixv.verify import chi_square_gof

    spec = hl.HLProcessSpec(t=0.35, a=(0.45, 0.3), b=(0.4, 0.35), S="++--")
    cap = hl.minimal_row_cap(spec)
    sampler = hl.SequenceSampler(spec, cap, seed=123)
    counts = {}
    n = 100_000
    for _ in range(n):
        seq = sampler.sample()
        key = tuple(hl.support_of_sequence(seq, spec.S))
        counts[key] = counts.get(key, 0) + 1
    expected = hl.exact_support_distribution(spec, cap)
    stat, dof, p = chi_square_gof(counts, expected)
    assert p > 1e-3


def test_support_vector_duality_on_samples():
    spec = hl.HLProcessSpec(t=0.3, a=(0.35, 0.3), b=(0.4, 0.3), S="+-+-")
    sampler = hl.SequenceSampler(spec, 16, seed=77)
    for _ in range(200):
        seq = sampler.sample()
        T = hl.support_string(seq, spec.S)
        assert hl.first_columns(seq) == hl.first_columns_from_strings(spec.S, T)


def test_sampler_small_a_always_empty():
    spec = hl.HLProcessSpec(t=0.4, a=(1e-13,), b=(0.5,), S="+-")
    sampler = hl.SequenceSampler(spec, 6, seed=1)
    assert all(sampler.sample() == ((),) for _ in range(50))


def test_spec_json_round_trip():
    spec = hl.HLProcessSpec(t=0.3, a=(0.4, 0.3), b=(0.45,), S="++-")
    assert hl.HLProcessSpec.from_json(spec.to_json()) == spec
    loaded = hl.HLProcessSpec.from_json(
        {"t": 0.25, "a": [0.5], "b": [0.5], "S": "+-"}
    )
    assert loaded == spec11()


def test_ascending_process_definition_directly():
    """The joint law of the nested prefix matches the ascending-process weight
    P(lam1; a1) P(lam2/lam1; a2) Q(lam2; b1, b2) over the product normalizer,
    with the two-variable Q computed by an independent chain sum."""
    t, a, b = 0.3, (0.4, 0.35), (0.3, 0.25)
    spec = hl.HLProcessSpec(t=t, a=a, b=b, S="++--")
    cap = hl.minimal_row_cap(spec)
    dist = hl.exact_sequence_distribution(spec, cap)
    marg = {}
    for seq, p in dist.items():
        key = (seq[0], seq[1])
        marg[key] = marg.get(key, 0.0) + p

    def q_two(lam):
        return sum(
            pt.skew_q_one(lam, mu, b[0], t) * pt.skew_q_one(mu, (), b[1], t)
            for mu in pt.partitions_in_box(2, cap)
        )

    denom = 1.0
    for ai in a:
        for bj in b:
            denom *= (1 - t * ai * bj) / (1 - ai * bj)
    for (l1, l2), p in marg.items():
        w = (
            pt.skew_p_one(l1, (), a[0], t)
            * pt.skew_p_one(l2, l1, a[1], t)
            * q_two(l2)
            / denom
        )
        assert p == pytest.approx(w, abs=1e-10)


def test_plancherel_spec_shape():
    spec = hl.plancherel_spec(0.5, (1.0, 0.7), 1.3, 16)
    assert spec.M == 2 and spec.N == 16
    assert spec.b[0] == pytest.approx(1.3 / (0.5 * 16))
    assert len(set(spec.b)) == 1


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 2), st.integers(1, 20), st.floats(0.1, 0.9),
       st.floats(0.05, 1.0), st.floats(0.005, 0.5))
def test_row_cap_is_the_first_bucket_within_the_deficit(M, N, t, a, b):
    """The default cap's support law loses at most 1e-12 of Pi^S, and the
    bucket below it, when the tail bound allows that bucket, loses more."""
    spec = hl.HLProcessSpec(t=t, a=(a,) * M, b=(min(b, 0.5 / a),) * N,
                            S=(1,) * M + (-1,) * N)
    cap = hl.row_cap(spec)
    assert cap % 8 == 0 and cap >= hl.minimal_row_cap(spec)
    assert hl.exact_support_distribution(spec, cap).mass_deficit <= 1e-12
    if cap - 8 >= hl.minimal_row_cap(spec):
        assert hl.exact_support_distribution(spec, cap - 8).mass_deficit > 1e-12


def test_truncation_error(monkeypatch):
    spec = spec11()
    monkeypatch.setattr(hl, "TAIL_CAP_MAX", 50)
    with pytest.raises(hl.TruncationError):
        hl.minimal_row_cap(hl.HLProcessSpec(t=0.5, a=(0.999,), b=(0.999,), S="+-"))


def test_row_cap_stops_when_widening_leaves_the_deficit():
    """At plancherel_spec(K=3972) the forward sweep's rounding leaves a
    deficit near 1.3e-12 at caps 16 and 24 alike, above DEFICIT_TOL: row_cap
    stops at the first widening that does not lower it, where it used to
    widen the cap without end."""
    spec = hl.plancherel_spec(0.5, (1.0, 0.8), 0.6, 3972)
    with pytest.raises(hl.TruncationError,
                       match=r"deficit \S+ at row cap 24 is no lower than at cap 16"):
        hl.row_cap(spec)
