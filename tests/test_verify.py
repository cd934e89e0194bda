from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hlsixv import hl_process as hl
from hlsixv import rsk, six_vertex as sv
from hlsixv import verify as vf
from hlsixv.distributions import DiscreteDistribution, tv_distance


def test_tv_distance_cases():
    p = DiscreteDistribution({"a": 0.8, "b": 0.2})
    assert tv_distance(p, p) == 0.0
    q = DiscreteDistribution({"c": 1.0})
    assert tv_distance(p, q) == pytest.approx(1.0)
    r = DiscreteDistribution({"a": 0.7, "b": 0.3})
    assert tv_distance(p, r) == pytest.approx(0.1)


def test_exact_law_widens_the_cap_to_the_realized_deficit():
    spec = hl.plancherel_spec(0.5, (1.0, 0.8), 0.6, 128)
    # the tail bound's cap falls short: its realized deficit is near 1e-7
    assert hl.minimal_row_cap(spec) <= 8
    assert hl.exact_marginal_distribution(spec, 2, 8).mass_deficit > 1e-8
    assert hl.row_cap(spec) == 16
    assert hl.exact_marginal_distribution(spec, 2, 16).mass_deficit <= 1e-12
    report = vf.check_support_match(1, 1, "+-", 0.5, (0.4,), (0.4,), row_cap=8)
    assert report.details["row_cap"] == 8


def test_chi_square_exact_proportional_counts():
    expected = DiscreteDistribution({"a": 0.5, "b": 0.3, "c": 0.2})
    counts = {"a": 500, "b": 300, "c": 200}
    stat, dof, p = vf.chi_square_gof(counts, expected)
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert dof == 2
    assert p == pytest.approx(1.0)


def test_chi_square_hand_computed_fixture():
    # 1000 draws over 3 cells with expected (0.5, 0.3, 0.2):
    # chi2 = (480-500)^2/500 + (330-300)^2/300 + (190-200)^2/200
    expected = DiscreteDistribution({"a": 0.5, "b": 0.3, "c": 0.2})
    counts = {"a": 480, "b": 330, "c": 190}
    stat, dof, p = vf.chi_square_gof(counts, expected)
    hand = 400 / 500 + 900 / 300 + 100 / 200
    assert stat == pytest.approx(hand, abs=1e-9)
    assert dof == 2


def test_chi_square_zero_probability_outcome_errors():
    expected = DiscreteDistribution({"a": 1.0})
    with pytest.raises(ValueError):
        vf.chi_square_gof({"a": 5, "z": 1}, expected)


def test_chi_square_pooling():
    expected = DiscreteDistribution({"a": 0.96} | {f"t{i}": 0.001 for i in range(40)})
    counts = {"a": 96, **{f"t{i}": 0 for i in range(40)}}
    counts["t0"] = 4
    stat, dof, p = vf.chi_square_gof(counts, expected)
    assert dof >= 1
    with pytest.raises(ValueError):
        vf.chi_square_gof({"x": 1}, DiscreteDistribution({"x": 1.0}))


def test_two_sample_chi_square_behaviour():
    rng = np.random.default_rng(1)
    same1 = {k: int(v) for k, v in zip("abcd", rng.multinomial(5000, [0.4, 0.3, 0.2, 0.1]))}
    same2 = {k: int(v) for k, v in zip("abcd", rng.multinomial(5000, [0.4, 0.3, 0.2, 0.1]))}
    _, _, p_same = vf.two_sample_chi_square(same1, same2)
    assert p_same > 1e-3
    diff = {k: int(v) for k, v in zip("abcd", rng.multinomial(5000, [0.1, 0.2, 0.3, 0.4]))}
    _, _, p_diff = vf.two_sample_chi_square(same1, diff)
    assert p_diff < 1e-6


def test_check_support_and_height_small():
    r = vf.check_support_match(2, 1, "++-", 0.4, (0.4, 0.3), (0.5,))
    assert r.passed and r.mode == "exact"
    r2 = vf.check_height_match(1, 2, "+--", 0.4, (0.4,), (0.5, 0.3))
    assert r2.passed


def test_height_match_specializes_to_horizontal_line_theorem():
    """For ascending S the first M coordinates give the single-line statement:
    (N - lambda'_1(m, N))_m and (h(m+1, N))_m share one joint law."""
    from hlsixv import hl_process as hl
    from hlsixv import six_vertex as sv

    t, a, b = 0.4, (0.45, 0.3), (0.5, 0.35)
    M, N = 2, 2
    spec = hl.HLProcessSpec(t=t, a=a, b=b, S="++--")
    cap = hl.minimal_row_cap(spec)
    cols = hl.exact_first_column_distribution(spec, cap)
    shifted = cols.map_keys(lambda v: tuple(N - c for c in v[:M]))
    params = sv.SixVertexParams(t=t, a=a, b=b)
    heights = sv.joint_height_distribution(
        params, M, N, [(m + 1, N) for m in range(1, M + 1)]
    )
    assert tv_distance(shifted, heights) < 1e-9


def test_check_moment_match_small():
    r = vf.check_moment_match(1, (1,), 1, 0.5, (0.5,), (0.5,))
    assert r.passed
    assert r.details["hl"] == pytest.approx(4 / 7, abs=1e-9)


def test_report_serialization():
    r = vf.check_support_match(1, 1, "+-", 0.25, (0.5,), (0.5,))
    d = r.to_json_dict()
    assert d["passed"] is True
    assert set(d) >= {"name", "mode", "statistic", "threshold", "runtime"}


def test_check_rsk_field_small():
    r = vf.check_rsk_field((1.0, 0.7), 0.5, (0.6, 1.2), samples=8000, seed=2)
    assert r.passed, r.details


def test_check_plancherel_small():
    r = vf.check_plancherel_marginal(
        (1.0, 0.8), 0.5, 0.6, level=2, K=64, samples=30000, seed=3
    )
    assert r.passed, r.details
    assert r.details["tv_2K"] < r.details["tv_K"]


@pytest.mark.parametrize("level", [0, 3])
def test_check_plancherel_rejects_a_level_without_a_rate(level):
    with pytest.raises(ValueError, match=r"level .* outside 1\.\.2"):
        vf.check_plancherel_marginal((1.0, 0.8), 0.5, 0.6, level=level, K=64,
                                     samples=100, seed=3)


def test_check_rsk_field_needs_a_query_time(monkeypatch):
    """An empty tau list is refused before any draw, where two empty fields
    used to match with p-values 1.0 and pass."""

    def no_draw(*args):
        raise AssertionError("an ensemble drew")

    monkeypatch.setattr(rsk, "rsk_first_column_ensemble", no_draw)
    monkeypatch.setattr(sv, "half_continuous_height_ensemble", no_draw)
    with pytest.raises(ValueError, match="need at least one query time"):
        vf.check_rsk_field((1.0, 0.7), 0.5, (), samples=100, seed=2)


def _no_generator(monkeypatch):
    def no_draw(*args):
        raise AssertionError("an ensemble drew")

    monkeypatch.setattr(np.random, "RandomState", no_draw)


@pytest.mark.parametrize("runs", [0, -5])
@pytest.mark.parametrize("ensemble", [
    lambda runs: rsk.rsk_first_column_ensemble((1.0, 0.8), 0.5, (0.7,), runs, 1),
    lambda runs: rsk.rsk_top_level_ensemble((1.0, 0.8), 0.5, 0.7, runs, 1),
    lambda runs: sv.half_continuous_height_ensemble(0.5, (1.0, 0.8), (0.7,), runs, 1),
    lambda runs: vf.check_rsk_field((1.0, 0.8), 0.5, (0.7,), runs, 1),
    lambda runs: vf.check_plancherel_marginal((1.0, 0.8), 0.5, 0.6, 2, 64, runs, 1),
], ids=["rsk-first-column", "rsk-top-level", "half-continuous", "check-rsk-field",
        "check-plancherel"])
def test_ensembles_need_a_run(monkeypatch, ensemble, runs):
    """Fewer than one run is refused before any draw, where 0 used to divide
    by zero in the checks and -5 to reach numpy's negative-dimensions error."""
    _no_generator(monkeypatch)
    with pytest.raises(ValueError, match=f"need at least one run, got {runs}"):
        ensemble(runs)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6)
        | st.tuples(st.integers(0, 300), st.just(1)),
        elements=st.integers(-4, 4) | st.integers(-2**62, 2**62),
    )
)
def test_vector_counts_match_tuple_counter(arr):
    flat = arr.reshape(len(arr), int(np.prod(arr.shape[1:])))
    expected = Counter(tuple(int(v) for v in row) for row in flat)
    counts = vf._vector_counts(arr)
    assert counts == expected
    assert list(counts) == list(expected)  # first appearance first
    assert all(type(v) is int for key in counts for v in key)
    stripped = vf._vector_counts(arr, key=lambda row: row[:1])
    assert stripped == Counter(tuple(int(v) for v in row[:1]) for row in flat)


def _wide_column(rng):
    """400 rows whose first column spans far more values than there are rows."""
    return np.column_stack([rng.integers(-2**40, 2**40, size=400) // 2**30,
                            rng.integers(0, 3, size=400)])


@pytest.mark.parametrize("make", [
    lambda rng: rng.integers(0, 3, size=(20000, 3, 3)),
    lambda rng: rng.integers(0, 400, size=(100000, 2)),
    _wide_column,
], ids=["20000x3x3", "100000x2", "wide-column"])
def test_vector_counts_of_ensemble_sized_arrays(make):
    """Counts of arrays as large as the checks count equal Counter's, keyed
    in order of first appearance."""
    arr = make(np.random.default_rng(11))
    flat = arr.reshape(len(arr), -1)
    expected = Counter(tuple(int(v) for v in row) for row in flat)
    counts = vf._vector_counts(arr)
    assert counts == expected
    assert list(counts) == list(expected)
