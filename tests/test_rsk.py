import itertools
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from hlsixv import _kernels, rsk, six_vertex as sv


def fixed(*us):
    return iter([float(u) for u in us]).__next__


def test_worked_example_probabilities():
    t = 0.37
    arr = rsk.PartitionArray(4, [[5], [6, 2], [9, 2, 2], [10, 6, 2, 1]])
    R = (1 - t) / (1 - t**2)
    push = rsk.rsk_apply_signal(arr, 2, t, fixed(R - 1e-12))
    pull = rsk.rsk_apply_signal(arr, 2, t, fixed(R + 1e-12))
    assert push.levels == [[5], [6, 3], [9, 3, 2], [10, 7, 2, 1]]
    assert pull.levels == [[5], [6, 3], [9, 3, 2], [10, 6, 3, 1]]
    push.validate()
    pull.validate()


def test_signal_freezes_lower_levels_and_increments_one_row_each():
    rng = np.random.default_rng(0)
    arr = rsk.PartitionArray(5)
    for _ in range(300):
        k = int(rng.integers(1, 6))
        new = rsk.rsk_apply_signal(arr, k, 0.45, rng)
        new.validate()
        for m in range(1, k):
            assert new.level(m) == arr.level(m)
        for m in range(k, 6):
            diff = sum(new.level(m)) - sum(arr.level(m))
            assert diff == 1
            changed = sum(
                1 for x, y in zip(new.level(m), arr.level(m)) if x != y
            )
            assert changed == 1
        arr = new


def test_all_zero_cascade_is_deterministic():
    arr = rsk.PartitionArray(4)
    new = rsk.rsk_apply_signal(arr, 1, 0.5, fixed())  # must consume no draws
    assert new.levels == [[1], [1, 0], [1, 0, 0], [1, 0, 0, 0]]
    new2 = rsk.rsk_apply_signal(new, 2, 0.5, fixed())
    assert new2.levels == [[1], [1, 1], [1, 1, 0], [1, 1, 0, 0]]


def test_blocked_free_and_nearest_neighbor_fig7():
    arr = rsk.PartitionArray(4, [[5], [6, 2], [9, 2, 2], [10, 6, 2, 1]])
    # in (10,6,2,1) the rows 1, 6, 10 are free and 2 is blocked
    free = [not rsk.is_blocked(arr, 4, i) for i in (1, 2, 3, 4)]
    assert free == [True, True, False, True]
    # nearest neighbor of lambda^(3)_3 = 2 is lambda^(4)_2 = 6
    assert rsk.nearest_neighbor_index(arr, 3, 3) == 2
    assert arr.level(4)[1] == 6


def test_run_rsk_zero_horizon_and_determinism():
    traj = rsk.run_rsk((1.0, 0.5), 0.4, 1e-12, seed=3, snapshot_times=())
    assert traj[-1][1].levels == [[0], [0, 0]]
    t1 = rsk.run_rsk((1.0, 0.5), 0.4, 2.0, seed=5, snapshot_times=(1.0, 2.0))
    t2 = rsk.run_rsk((1.0, 0.5), 0.4, 2.0, seed=5, snapshot_times=(1.0, 2.0))
    assert [a.levels for _, a in t1] == [a.levels for _, a in t2]


def test_level_one_is_poisson():
    c1, tau, n = 0.9, 2.0, 4000
    counts = {}
    for seed in range(n):
        traj = rsk.run_rsk((c1,), 0.5, tau, seed=seed, snapshot_times=(tau - 1e-9,))
        v = traj[0][1].level(1)[0]
        counts[v] = counts.get(v, 0) + 1
    from hlsixv.verify import chi_square_gof
    from hlsixv.distributions import DiscreteDistribution

    law = {(k,): stats.poisson.pmf(k, c1 * tau) for k in range(40)}
    stat, dof, p = chi_square_gof(
        {(k,): v for k, v in counts.items()}, DiscreteDistribution(law)
    )
    assert p > 1e-3


def test_fig9_set_dynamics_trace():
    t = 0.41
    sets = rsk.SetSystem(3)
    # signal levels 3, 1, 2, 2 with the displayed branch probabilities
    s1 = rsk.sets_apply_signal(sets, 3, t, fixed())
    assert s1.complements == [set(), set(), {0}]
    s2 = rsk.sets_apply_signal(s1, 1, t, fixed((1 - t) - 1e-12))
    assert s2.complements == [{0}, set(), {1}]
    s3 = rsk.sets_apply_signal(s2, 2, t, fixed())
    assert s3.complements == [{0}, {0}, {1}]
    R = (1 - t) / (1 - t**2)
    s4 = rsk.sets_apply_signal(s3, 2, t, fixed(R + 1e-12))
    assert s4.complements == [{0}, {0, 1}, {1}]


def test_sets_signal_removes_min():
    sets = rsk.SetSystem(2, [{0, 1, 3}, set()])
    out = rsk.sets_apply_signal(sets, 1, 0.5, fixed(0.99))
    assert 2 in out.complements[0]  # min of {2, 4, 5, ...} was removed


def test_bijection_round_trips():
    arr = rsk.PartitionArray(4, [[5], [6, 2], [9, 2, 2], [10, 6, 2, 1]])
    sets = rsk.sets_from_array(arr)
    assert rsk.array_from_sets(sets) == arr
    vac = rsk.PartitionArray(3)
    assert rsk.sets_from_array(vac).complements == [set(), set(), set()]
    assert rsk.array_from_sets(rsk.SetSystem(3)) == vac


def test_counter_partition_is_conjugate():
    from hlsixv import partitions as pt

    arr = rsk.PartitionArray(4, [[5], [6, 2], [9, 2, 2], [10, 6, 2, 1]])
    sets = rsk.sets_from_array(arr)
    for m in range(1, 5):
        lam = pt.strip_zeros(tuple(arr.level(m)))
        assert rsk.counter_partition(sets, m) == pt.conjugate(lam)


def test_counter_partition_is_conjugate_on_a_long_trajectory():
    """After 10^4 set events on 6 levels, with values past a thousand, every
    level's counter partition is the conjugate of the array's level."""
    from hlsixv import partitions as pt

    rng = np.random.default_rng(108)
    sets = rsk.SetSystem(6)
    for _ in range(10_000):
        k, buf = int(rng.integers(1, 7)), list(rng.random(6))
        rsk._sets_signal_inplace(sets, k, 0.38, iter(buf).__next__)
    assert max(b[-1] for b in sets._bounds) > 1000
    arr = rsk.array_from_sets(sets)
    for m in range(1, 7):
        lam = pt.strip_zeros(tuple(arr.level(m)))
        assert rsk.counter_partition(sets, m) == pt.conjugate(lam)


@pytest.mark.parametrize("level", [0, 7])
def test_counter_partition_level_outside_range_raises(level):
    with pytest.raises(ValueError, match=r"outside 1\.\.6"):
        rsk.counter_partition(rsk.SetSystem(6), level)


def test_array_set_coupling_pathwise():
    rng = np.random.default_rng(7)
    t = 0.36
    arr = rsk.PartitionArray(6)
    sets = rsk.SetSystem(6)
    for step in range(2000):
        k = int(rng.integers(1, 7))
        buf = list(rng.random(6))
        arr = rsk.rsk_apply_signal(arr, k, t, iter(buf).__next__)
        sets = rsk.sets_apply_signal(sets, k, t, iter(buf).__next__)
        assert rsk.sets_from_array(arr) == sets
    assert rsk.array_from_sets(sets) == arr


def test_pushtasep_single_jump_geometric():
    t = 0.55
    n = 20000
    rng = np.random.default_rng(13)
    counts = {}
    for _ in range(n):
        state = rsk.PushTASEPState(40, [True] + [False] * 39)
        move = rsk.pushtasep_apply_clock(state, 1, t, rng)
        counts[move[1]] = counts.get(move[1], 0) + 1
    for r in range(2, 8):
        frac = counts.get(r, 0) / n
        expect = (1 - t) * t ** (r - 2)  # displacement r-1 from site 1
        assert frac == pytest.approx(expect, abs=0.01)


def test_pushtasep_empty_clock_is_noop():
    state = rsk.PushTASEPState(5, [True, False, True, True, False])
    before = list(state.occupied)
    assert rsk.pushtasep_apply_clock(state, 2, 0.5, fixed()) is None
    assert state.occupied == before


def test_pushtasep_push_chain():
    # fully packed prefix: particle at 1 pushes through 2..4, first empty is 5
    state = rsk.PushTASEPState(6, [True, True, True, True, False, False])
    move = rsk.pushtasep_apply_clock(state, 1, 0.4, fixed(0.0))  # stop at once
    assert move == (1, 5)
    assert state.occupied == [False, True, True, True, True, False]


def test_pushtasep_matches_set_zero_marginal():
    rng = np.random.default_rng(23)
    t = 0.44
    n = 6
    sets = rsk.SetSystem(n)
    push = rsk.PushTASEPState(n)
    for step in range(4000):
        k = int(rng.integers(1, n + 1))
        buf = list(rng.random(n))
        sets = rsk.sets_apply_signal(sets, k, t, iter(buf).__next__)
        rsk.pushtasep_apply_clock(push, k, t, iter(buf).__next__)
        zero_marginal = [sets.contains(l, 0) for l in range(1, n + 1)]
        assert zero_marginal == push.occupied


def _packed(arrays):
    """Runs of PartitionArray as the [n, n, runs] block of the ensembles."""
    n = arrays[0].n_max
    L = np.full((n, n, len(arrays)), -1, dtype=np.int32)
    for r, arr in enumerate(arrays):
        for m, lv in enumerate(arr.levels):
            L[m, : m + 1, r] = lv
    return L


_coins = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=6, max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.floats(0.0, 0.95),
    st.lists(
        st.tuples(st.lists(st.tuples(st.integers(1, 6), _coins), max_size=30),
                  st.integers(1, 6), _coins),
        min_size=1, max_size=8,
    ),
)
def test_batch_step_matches_reference_stepper(n, t, runs):
    """Each run of the batched event step equals the reference stepper fed
    the run's coin row, from random arrays built by the reference."""
    arrays = []
    for history, _, _ in runs:
        arr = rsk.PartitionArray(n)
        for k, buf in history:
            rsk._apply_signal_inplace(arr.levels, n, min(k, n), t, iter(buf).__next__)
        arrays.append(arr)
    L = _packed(arrays)
    k = np.array([min(level, n) for _, level, _ in runs])
    U = np.array([coins[:n] for _, _, coins in runs])
    rsk._apply_signal_batch(L, k, t, U)
    for r, arr in enumerate(arrays):
        rsk._apply_signal_inplace(arr.levels, n, int(k[r]), t, iter(U[r]).__next__)
        arr.validate()
    assert np.array_equal(L, _packed(arrays))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.floats(0.0, 0.95),
    st.lists(
        st.tuples(st.lists(st.tuples(st.integers(1, 6), _coins), max_size=20),
                  st.integers(1, 6), _coins),
        min_size=2, max_size=10,
    ),
    st.sets(st.integers(1, 9), max_size=4),
)
def test_batch_step_runs_do_not_depend_on_the_block(n, t, runs, cuts):
    """Stepping a block of runs equals stepping the pieces of any split of
    it, run for run, so a wide block gives each run what a narrow one would."""
    arrays = []
    for history, _, _ in runs:
        arr = rsk.PartitionArray(n)
        for k, buf in history:
            rsk._apply_signal_inplace(arr.levels, n, min(k, n), t, iter(buf).__next__)
        arrays.append(arr)
    L = _packed(arrays)
    k = np.array([min(level, n) for _, level, _ in runs])
    U = np.array([coins[:n] for _, _, coins in runs])
    whole = L.copy()
    rsk._apply_signal_batch(whole, k, t, U)
    bounds = [0, *sorted(c for c in cuts if c < len(runs)), len(runs)]
    for lo, hi in zip(bounds, bounds[1:]):
        piece = L[:, :, lo:hi].copy()
        rsk._apply_signal_batch(piece, k[lo:hi], t, U[lo:hi])
        assert np.array_equal(piece, whole[:, :, lo:hi]), (lo, hi)


@pytest.mark.parametrize("n", range(1, 7))
def test_wide_batch_step_matches_reference_stepper(n):
    """A block of 3000 runs, as wide as the ensembles step, equals the
    reference stepper run for run: states built by the reference, a third
    of the coin rows drawn from the rule's R values themselves, so that a
    coin equal to R shows the push test's strict <, and blocks whose lowest
    signalled level is 1, 2 and n."""
    runs = 3000
    rng = np.random.default_rng(40 + n)
    t = float(rng.uniform(0.05, 0.95))
    arrays = []
    for _ in range(runs):
        arr = rsk.PartitionArray(n)
        for k in rng.integers(1, n + 1, size=rng.integers(0, 16)):
            rsk._apply_signal_inplace(arr.levels, n, int(k), t, rng.random)
        arrays.append(arr)
    L = _packed(arrays)
    # R for a tie of E = 1..n rows at ival, and 1 - t; a tie of E = 0 rows
    # has R = 1, which no coin in [0, 1) reaches
    r_values = [(1.0 - t) / (1.0 - t ** e) for e in range(2, n + 2)] + [1.0 - t]
    U = rng.random((runs, n))
    U[::3] = rng.choice(r_values, size=U[::3].shape)
    for lowest in sorted({1, min(2, n), n}):
        k = rng.integers(lowest, n + 1, size=runs)
        k[0] = lowest
        block = L.copy()
        rsk._apply_signal_batch(block, k, t, U)
        want = [arr.copy() for arr in arrays]
        for r, arr in enumerate(want):
            rsk._apply_signal_inplace(arr.levels, n, int(k[r]), t, iter(U[r]).__next__)
        assert np.array_equal(block, _packed(want)), lowest


def _first_free_row(upper, lower, lo):
    """Value oracle of the rule's search: the smallest free value >= lo of two
    neighbouring levels, found by rows.  The free values of two interlacing
    levels are [upper[0], inf) and the gaps [upper[i], lower[i-1]) for
    i >= 1, so the answer is lo when lo > upper[0] and otherwise the
    smallest free row value >= lo.  A start strictly inside a gap would be
    free itself; the rule starts at 0, and at ival+1 after a push."""
    w = upper[0]
    if lo > w:
        return lo
    # rows run from high to low values, so the last free row >= lo is the answer
    for x, y in zip(upper[1:], lower):
        if x < lo:
            break
        if x < y:
            w = x
    return w


def _counting_signal(levels, n_max, k, t, uniform, record):
    """Reference event rule: counts the rows above and at ival of both levels
    at every level it reaches, and finds the moved row by value."""
    ival = _first_free_row(levels[k - 1], levels[k - 2] if k > 1 else (), 0)
    lv = levels[k - 1]
    lv[lv.index(ival)] += 1
    record.append((k, ival))
    for m in range(k + 1, n_max + 1):
        upper, lower = levels[m - 1], levels[m - 2]
        # rows above and at ival of both levels in one pass; upper has one
        # row more than lower, read after the loop
        up_above = up_at = low_above = low_at = 0
        for x, y in zip(upper, lower):
            if x > ival:
                up_above += 1
            elif x == ival:
                up_at += 1
            if y > ival:
                low_above += 1
            elif y == ival:
                low_at += 1
        x = upper[-1]
        if x > ival:
            up_above += 1
        elif x == ival:
            up_at += 1
        # the level below already moved a row from ival to ival+1, so its
        # pre-event column ival+1 is one less than the current count
        if up_above == low_above - 1:
            w = ival
        else:
            if ival >= 1 and up_above + up_at == low_above + low_at:
                r_prob = (1.0 - t) / (1.0 - t ** (up_at + 1))
            else:
                r_prob = 1.0 - t
            if uniform() < r_prob:
                # the search starts at ival+1, where the row of level m-1
                # that moved from ival to ival+1 counts as it did before
                w = _first_free_row(upper, lower, ival + 1)
            else:
                w = ival
        upper[upper.index(w)] += 1
        record.append((m, w))
        ival = w


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.floats(0.0, 0.95),
    st.lists(st.tuples(st.integers(1, 6), _coins), max_size=80),
    st.integers(0, 2**32 - 1),
)
def test_row_local_rule_matches_counting_reference(n, t, signals, seed):
    """The row-local event rule equals the counting rule state for state and
    record for record, and the row it reports is the one that moved: the
    last row above the value it moved from.  run_rsk's event rows, which
    come from those reports, equal the rescan of the level."""
    levels = [[0] * m for m in range(1, n + 1)]
    ref = [[0] * m for m in range(1, n + 1)]
    for k, buf in signals:
        k = min(k, n)
        rec, rec_ref = [], []
        rsk._apply_signal_inplace(levels, n, k, t, iter(buf).__next__, rec)
        _counting_signal(ref, n, k, t, iter(buf).__next__, rec_ref)
        assert levels == ref
        assert [(m, v) for m, v, _ in rec] == rec_ref
        for m, v, row in rec:
            assert row == sum(x > v for x in levels[m - 1]) - 1
            assert levels[m - 1][row] == v + 1
    # the level clock needs t > 0; about len(signals) events
    events: list = []
    traj = rsk.run_rsk([1.0] * n, max(t, 0.01), len(signals) / n, seed, events=events)
    replay = [[0] * m for m in range(1, n + 1)]
    for _, m, row, new in events:
        lv = replay[m - 1]
        lv[row - 1] = new
        assert row == sum(x > new - 1 for x in lv)
    assert replay == traj[-1][1].levels


def test_seeded_ensemble_streams_are_pinned():
    rates, t = [1.0, 0.7, 0.4], 0.42
    cols = rsk.rsk_first_column_ensemble(rates, t, [0.4, 0.9, 1.7], 200, 99)
    assert cols.sum(axis=0).tolist() == [
        [65, 107, 135], [123, 216, 260], [170, 297, 366]
    ]
    top = rsk.rsk_top_level_ensemble(rates, t, 1.7, 200, 99)
    assert top.sum(axis=0).tolist() == [488, 186, 32]


_ENSEMBLES = {
    "first-column": lambda taus, runs: rsk.rsk_first_column_ensemble(
        [1.0, 0.7, 0.4], 0.42, taus, runs, 5),
    "top-level": lambda taus, runs: rsk.rsk_top_level_ensemble(
        [1.0, 0.7, 0.4], 0.42, taus[-1], runs, 5),
    "half-continuous": lambda taus, runs: sv.half_continuous_height_ensemble(
        0.42, [1.0, 0.7, 0.4], taus, runs, 5),
}


# column sums of all ENSEMBLE_BLOCK + 5 runs, then of the 5 past the boundary
_BLOCK_PINS = {
    "first-column": ([[10733, 18003, 22180], [19450, 32688, 40531],
                      [26819, 46587, 58974]],
                     [[1, 2, 2], [2, 4, 4], [4, 7, 8]]),
    "top-level": ([81940, 29714, 5436], [12, 3, 0]),
    "half-continuous": ([[22040, 47525, 76191], [13323, 32805, 57808],
                         [5954, 18983, 39512]],
                        [[4, 8, 13], [3, 6, 11], [1, 3, 7]]),
}


@pytest.mark.parametrize("name", sorted(_ENSEMBLES))
def test_seeded_ensemble_streams_are_pinned_across_a_block_boundary(name):
    """The stream of blocks of ENSEMBLE_BLOCK = 32768 runs, block after block."""
    assert _kernels.ENSEMBLE_BLOCK == 32768
    block = _kernels.ENSEMBLE_BLOCK
    out = _ENSEMBLES[name]([0.4, 0.9, 1.7], block + 5)
    assert out.shape[0] == block + 5
    assert out.dtype == np.int32
    total, tail = _BLOCK_PINS[name]
    assert out.sum(axis=0).tolist() == total
    assert out[block:].sum(axis=0).tolist() == tail


@pytest.mark.parametrize("name", sorted(_ENSEMBLES))
def test_ensemble_runs_do_not_depend_on_later_blocks(name):
    """Runs of the first block are the same whatever number of runs follows."""
    block = _kernels.ENSEMBLE_BLOCK
    taus = [0.2, 0.5]
    whole = _ENSEMBLES[name](taus, block)
    longer = _ENSEMBLES[name](taus, block + 5)
    assert longer.shape[0] == block + 5
    assert np.array_equal(longer[:block], whole)


@pytest.mark.parametrize("name", ["first-column", "half-continuous"])
def test_ensemble_records_every_tau_passed_in_one_wait(name):
    """Taus 1e-9 apart fall in one waiting time of every run here, which then
    records its one state at each of them."""
    taus = [0.3, 0.3 + 1e-9, 0.3 + 2e-9, 0.9]
    out = _ENSEMBLES[name](taus, 500)
    assert np.array_equal(out[:, 0], out[:, 1])
    assert np.array_equal(out[:, 0], out[:, 2])
    assert not np.array_equal(out[:, 0], out[:, 3])  # the runs did move


def _first_free_value(upper, lower, lo):
    """Oracle: the smallest v >= lo with #{x in upper : x > v} == #{x in lower
    : x > v}, the first value >= lo that is free between two neighbouring
    levels.  Both counts stay constant between consecutive row values, so
    the scan jumps from one row value to the next."""
    v = lo
    while sum(x > v for x in upper) != sum(x > v for x in lower):
        v = min(x for x in (*upper, *lower) if x > v)
    return v


def _reachable(n, events):
    """Every array reachable from the empty array within `events` events,
    over every signalled level and every coin branch, as tuples of levels."""
    frontier = seen = {tuple((0,) * m for m in range(1, n + 1))}
    # a coin of 0 always pushes; one just below 1 pushes only when R = 1
    branches = (0.0, 1.0 - 1e-12)
    for _ in range(events):
        reached = set()
        for levels in frontier:
            for k in range(1, n + 1):
                for coins in itertools.product(branches, repeat=n - k):
                    lv = [list(x) for x in levels]
                    rsk._apply_signal_inplace(lv, n, k, 0.5, iter(coins).__next__)
                    reached.add(tuple(map(tuple, lv)))
        frontier = reached - seen
        seen = seen | reached
    return seen


def _free_search_sites(n, events):
    """(upper, lower, i, row) of every _nearest_free_row call the event rule
    makes on the way to the arrays `_reachable(n, events)`: the search from
    row i and the row it returned."""
    sites = set()
    search = rsk._nearest_free_row

    def spy(upper, lower, i):
        row = search(upper, lower, i)
        sites.add((tuple(upper), tuple(lower), i, row))
        return row

    with mock.patch.object(rsk, "_nearest_free_row", spy):
        _reachable(n, events)
    return sites


@pytest.mark.parametrize("n, events", [(2, 14), (3, 9), (4, 6), (5, 5)])
def test_first_free_rows_matches_value_scan_where_the_rule_searches(n, events):
    """At every search the event rule makes on every reachable array, the row
    the search returns starts its value's cluster, and its value is the
    value scan's answer and the batched search's at the rule's start: lo = 0
    on the signalled level, searched from its last row, and lo = ival+1
    after a push, searched from the row r of the level below that moved
    from ival to ival+1, so lo = lower[r]."""
    sites = _free_search_sites(n, events)
    assert len(sites) > 150
    for upper, lower, i, row in sites:
        lo = lower[i] if i < len(lower) else 0
        want = _first_free_value(upper, lower, lo)
        assert upper[row] == want, (upper, lower, i)
        assert upper.index(upper[row]) == row, (upper, lower, i)
        got = rsk._first_free_rows(np.array(upper)[:, None],
                                   np.array(lower, dtype=int)[:, None], np.array([lo]))
        assert got.tolist() == [want], (upper, lower, i)


@pytest.mark.parametrize("n, events", [(2, 10), (3, 7), (4, 5), (5, 4)])
def test_nearest_neighbor_index_is_the_nearest_unblocked_row(n, events):
    """Fig. 7 on every reachable array, at every level k and every row i:
    the nearest neighbour is the unblocked row of level k+1 with index <= i
    and the smallest value, found here by brute force over is_blocked."""
    for levels in _reachable(n, events):
        arr = rsk.PartitionArray(n, levels)
        for k in range(1, n):
            upper = arr.level(k + 1)
            for i in range(1, k + 2):
                free = [j for j in range(1, i + 1) if not rsk.is_blocked(arr, k + 1, j)]
                want = min(free, key=lambda j: upper[j - 1])
                assert rsk.nearest_neighbor_index(arr, k, i) == want, (levels, k, i)


@pytest.mark.parametrize("i", [-1, 0, 5])
def test_nearest_neighbor_index_row_outside_range_raises(i):
    arr = rsk.PartitionArray(4, [[5], [6, 2], [9, 2, 2], [10, 6, 2, 1]])
    with pytest.raises(ValueError, match=rf"row {i} outside 1..4"):
        rsk.nearest_neighbor_index(arr, 3, i)


def test_first_free_rows_skips_a_start_inside_a_gap():
    """Free values of upper (5, 1) over lower (4,) are [1, 4) and [5, inf):
    from lo = 2, inside the gap, the value scan answers 2 but the row search
    answers the next free row value, 5.  The event rule never starts there."""
    upper, lower = np.array([[5], [1]]), np.array([[4]])
    assert _first_free_value([5, 1], [4], 2) == 2
    for lo, want in [(2, 5), (1, 1), (7, 7)]:
        assert _first_free_row([5, 1], [4], lo) == want
        assert rsk._first_free_rows(upper, lower, np.array([lo])).tolist() == [want]


@st.composite
def neighbour_levels(draw, max_rows=6, max_value=30):
    """(upper, lower): levels m and m-1 of an interlacing array."""
    m = draw(st.integers(1, max_rows))
    vals = draw(st.lists(st.integers(0, max_value), min_size=2 * m - 1,
                         max_size=2 * m - 1))
    vals.sort(reverse=True)
    return vals[0::2], vals[1::2]


@settings(max_examples=300, deadline=None)
@given(neighbour_levels(), st.integers(0, 40))
def test_first_free_value_matches_value_scan(pair, lo):
    """The oracle's jumps skip no free value: it equals stepping v by one."""
    upper, lower = pair
    v = lo
    while sum(x > v for x in upper) != sum(x > v for x in lower):
        v += 1
    assert _first_free_value(upper, lower, lo) == v


def test_partition_array_copy_is_independent_and_keeps_tau():
    arr = rsk.PartitionArray(3, [[4], [4, 1], [5, 2, 0]], tau=1.25)
    snap = arr.copy()
    assert snap == arr and snap.tau == 1.25 and snap.n_max == 3
    arr.levels[2][0] += 1
    arr.tau = 2.0
    assert snap.levels == [[4], [4, 1], [5, 2, 0]] and snap.tau == 1.25
    snap.levels[1][1] = 0
    assert arr.levels[1] == [4, 1]


@pytest.mark.parametrize("levels, message", [
    ([[3], [3, 1], [2, 3, 0]], "level 3 not sorted"),
    ([[3], [1, 4]], "level 2 not sorted"),
    ([[3], [4, 1], [5, 2, 2]], "interlacing broken between levels 2, 3"),
    ([[3], [2, 1]], "interlacing broken between levels 1, 2"),
])
def test_validate_names_the_broken_rule(levels, message):
    arr = rsk.PartitionArray(len(levels), levels)
    with pytest.raises(AssertionError, match=message):
        arr.validate()


class _ScriptedRng:
    """Stands in for a Generator: fixed waiting times and level uniforms."""

    def __init__(self, uniforms):
        self._uniforms = iter(uniforms)

    def exponential(self, scale):
        return 0.1

    def random(self):
        return next(self._uniforms)


def test_clock_picks_the_searchsorted_level_on_a_cumulative_rate():
    """u * total landing exactly on a cumulative rate picks the level
    np.searchsorted's default side gives."""
    rates = (1.0, 1.0, 2.0)  # cum (1, 2, 4), total 4: exact in binary
    cum = np.cumsum(rates)
    us = [0.0, 0.25, 0.5, 0.75, 1.0, 0.3]
    rings = list(_kernels._clock_rings(rates, 0.5, 0.65, _ScriptedRng(us)))
    assert [k for _, k in rings] == [
        min(1 + int(np.searchsorted(cum, u * 4.0)), 3) for u in us
    ] == [1, 1, 2, 3, 3, 2]


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 1e12])
def test_clock_rejects_a_horizon_that_cannot_run_before_any_draw(horizon):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="finite time horizon|clock rings"):
        next(_kernels._clock_rings((1.0, 1.0), 0.5, horizon, rng))
    assert rng.bit_generator.state == state


def test_clock_rejects_a_negative_horizon_before_any_draw():
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"need a time horizon >= 0, got -1.0"):
        next(_kernels._clock_rings((1.0, 1.0), 0.5, -1.0, rng))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("run", [rsk.run_rsk, rsk.run_sets, rsk.run_pushtasep])
def test_runs_reject_a_negative_horizon(run):
    """Without snapshots run_rsk used to return [(-1.0, empty array)]; a
    horizon of 0 stays valid and rings nothing."""
    with pytest.raises(ValueError, match="need a time horizon >= 0"):
        run((1.0, 1.0), 0.5, -1, 3)
    run((1.0, 1.0), 0.5, 0.0, 3)


def _no_draw():
    raise AssertionError("drew a uniform")


_SINGLE_STEPS = {
    "array": lambda t, u: rsk.rsk_apply_signal(rsk.PartitionArray(3), 1, t, u),
    "sets": lambda t, u: rsk.sets_apply_signal(rsk.SetSystem(3), 1, t, u),
    "pushtasep": lambda t, u: rsk.pushtasep_apply_clock(rsk.PushTASEPState(5), 1, t, u),
}


@pytest.mark.parametrize("t", [1.0, 1.5, -0.1, float("nan")])
@pytest.mark.parametrize("step", sorted(_SINGLE_STEPS))
def test_single_steps_reject_t_outside_0_1_before_any_draw(step, t):
    """With t > 1 no coin pushes: pushtasep_apply_clock at t = 1.5 used to
    return (1, None), an escape."""
    with pytest.raises(ValueError, match=r"need 0 <= t < 1, got"):
        _SINGLE_STEPS[step](t, _no_draw)


def test_single_steps_take_t_zero():
    assert _SINGLE_STEPS["array"](0.0, _no_draw).levels == [[1], [1, 0], [1, 0, 0]]
    assert _SINGLE_STEPS["sets"](0.0, _no_draw) == rsk.SetSystem(3, [{0}, (), ()])
    assert _SINGLE_STEPS["pushtasep"](0.0, _no_draw) == (1, None)  # pushed out


@pytest.mark.parametrize("taus, runs", [([0.5, 1e7], 1), ([1.0], _kernels.MAX_EXPECTED_RINGS)])
def test_ensemble_rejects_more_rings_than_the_cap(taus, runs):
    """The expected ring count is the total rate times the last time, times
    the number of runs."""
    with pytest.raises(ValueError, match="clock rings, more than"):
        rsk.rsk_first_column_ensemble([1.0, 1.0], 0.5, taus, runs, 3)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.floats(0.0, 0.95),
    st.lists(
        st.tuples(st.integers(1, 6),
                  st.lists(st.floats(0.0, 1.0, exclude_max=True),
                           min_size=6, max_size=6)),
        max_size=40,
    ),
)
def test_every_event_keeps_interlacing_and_bijection(n, t, signals):
    arr = rsk.PartitionArray(n)
    for k, buf in signals:
        arr = rsk.rsk_apply_signal(arr, min(k, n), t, iter(buf).__next__)
        arr.validate()
        assert rsk.array_from_sets(rsk.sets_from_array(arr)) == arr


@pytest.mark.parametrize("k", [0, -1, 4])
def test_sets_signal_level_outside_range_raises(k):
    sets = rsk.SetSystem(3)
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        rsk.sets_apply_signal(sets, k, 0.5, fixed(0.5, 0.5))
    assert sets == rsk.SetSystem(3)


@pytest.mark.parametrize("k", [0, -1, 4])
def test_array_signal_level_outside_range_raises(k):
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        rsk.rsk_apply_signal(rsk.PartitionArray(3), k, 0.5, fixed(0.5, 0.5))


# a complement: a prefix [0, p) together with sparse elements anywhere
_complement = st.tuples(st.integers(0, 30), st.sets(st.integers(0, 60))).map(
    lambda p: set(range(p[0])) | p[1]
)
_complement_lists = st.integers(1, 6).flatmap(
    lambda n: st.lists(_complement, min_size=n, max_size=n)
)


@pytest.mark.parametrize("level", [0, -1, 4])
def test_level_reads_outside_range_raise(level):
    """Level 0 and -1 must not index the top level from the end."""
    sets = rsk.SetSystem(3, [{0}, {1}, {0, 2}])
    arr = rsk.PartitionArray(3, [[2], [2, 1], [3, 1, 0]])
    reads = [lambda: sets.contains(level, 0), lambda: sets.min_of(level),
             lambda: sets.h_count(0, level), lambda: arr.level(level)]
    for read in reads:
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            read()


@pytest.mark.parametrize("comps", [[], [set()], [set()] * 4])
def test_set_system_needs_one_complement_per_level(comps):
    with pytest.raises(ValueError, match="one complement per level"):
        rsk.SetSystem(3, comps)


@settings(max_examples=200, deadline=None)
@given(_complement_lists)
def test_complements_round_trip(comps):
    n = len(comps)
    sets = rsk.SetSystem(n, comps)
    assert sets.complements == comps
    for level, comp in enumerate(comps, start=1):
        assert sets.min_of(level) == min(set(range(len(comp) + 1)) - comp)
        for x in range(-1, 93):
            assert sets.contains(level, x) == (x >= 0 and x not in comp)


@settings(max_examples=200, deadline=None)
@given(_complement_lists, st.data())
def test_set_system_equality_is_canonical(comps, data):
    n = len(comps)
    sets = rsk.SetSystem(n, comps)
    assert sets == rsk.SetSystem(n, [set(c) for c in comps]) == sets.copy()
    level = data.draw(st.integers(0, n - 1))
    x = data.draw(st.integers(0, 70))
    other = [set(c) for c in comps]
    other[level] ^= {x}
    assert rsk.SetSystem(n, other) != sets
    other[level] ^= {x}
    assert rsk.SetSystem(n, other) == sets
    assert rsk.SetSystem(n + 1, comps + [set()]) != sets
    with pytest.raises(ValueError, match="one complement per level"):
        rsk.SetSystem(n + 1, comps)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.floats(0.0, 0.95),
    st.lists(st.tuples(st.integers(1, 6), _coins), min_size=2, max_size=60),
)
def test_set_step_leaves_its_input_unchanged(n, t, signals):
    """sets_apply_signal equals the in-place step on a full copy, and neither
    it nor a later step on its output changes the system it was given."""
    sets = rsk.SetSystem(n)
    for k, buf in signals[:-2]:
        rsk._sets_signal_inplace(sets, min(k, n), t, iter(buf).__next__)
    before = sets.copy()
    (k, buf), (k2, buf2) = signals[-2:]
    out = rsk.sets_apply_signal(sets, min(k, n), t, iter(buf).__next__)
    ref = sets.copy()
    rsk._sets_signal_inplace(ref, min(k, n), t, iter(buf).__next__)
    assert out == ref
    rsk.sets_apply_signal(out, min(k2, n), t, iter(buf2).__next__)
    assert out == ref
    assert sets == before


def _reference_sets_signal(comps, k, t, uniform, record):
    """The set rule on plain complement sets, with a snapshot of the pre-event
    sets for the rule-4b count."""
    pre = [set(c) for c in comps]

    def has(cs, level, x):
        return x >= 0 and x not in cs[level - 1]

    i = min(set(range(len(comps[k - 1]) + 1)) - comps[k - 1])
    comps[k - 1].add(i)
    record.append((k, i))
    for m in range(k + 1, len(comps) + 1):
        if has(comps, m, i):
            record.append((m, i))
            continue
        if has(comps, m, i - 1):
            d = sum(has(pre, l, i) - has(pre, l, i - 1) for l in range(1, m + 1))
            r_prob = (1.0 - t) / (1.0 - t ** (d + 1))
        else:
            r_prob = 1.0 - t
        if uniform() < r_prob:
            comps[m - 1].discard(i)
            i += 1
            while i in comps[m - 1]:
                i += 1
            comps[m - 1].add(i)
        record.append((m, i))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.floats(0.0, 0.95),
    st.lists(st.tuples(st.integers(1, 6), _coins), max_size=80),
)
def test_set_stepper_matches_plain_set_reference_and_array(n, t, signals):
    sets = rsk.SetSystem(n)
    comps = [set() for _ in range(n)]
    arr = rsk.PartitionArray(n)
    for k, buf in signals:
        k = min(k, n)
        rec_s, rec_ref, rec_a = [], [], []
        sets = rsk.sets_apply_signal(sets, k, t, iter(buf).__next__, record=rec_s)
        _reference_sets_signal(comps, k, t, iter(buf).__next__, rec_ref)
        arr = rsk.rsk_apply_signal(arr, k, t, iter(buf).__next__, record=rec_a)
        assert rec_s == rec_ref == rec_a
        assert sets.complements == comps
        assert sets == rsk.SetSystem(n, comps)
        assert rsk.sets_from_array(arr) == sets
        assert rsk.array_from_sets(sets) == arr


def test_set_levels_stay_at_most_m_intervals():
    """In the setting of the timing test below, after every one of 10^4
    events the complement of V_m is at most m intervals, kept as strictly
    increasing bounds, while the values themselves grow past a thousand."""
    rng = np.random.default_rng(108)
    sets = rsk.SetSystem(6)
    for _ in range(10_000):
        k, buf = int(rng.integers(1, 7)), list(rng.random(6))
        rsk._sets_signal_inplace(sets, k, 0.38, iter(buf).__next__)
        for m, bounds in enumerate(sets._bounds, start=1):
            assert len(bounds) % 2 == 0 and len(bounds) <= 2 * m, (m, bounds)
            assert all(x < y for x, y in zip(bounds, bounds[1:])), (m, bounds)
    assert max(b[-1] for b in sets._bounds) > 1000


def test_set_step_cost_stays_flat_in_event_count():
    """The set side's time per event over events 9000-10000 stays within 2x
    of its time over events 1000-2000 (best of 3, windows interleaved).
    Windows are timed in process CPU time, which other processes on the
    machine do not inflate the way they do wall time."""
    rng = np.random.default_rng(108)
    events = [(int(rng.integers(1, 7)), list(rng.random(6))) for _ in range(10_000)]
    sets = rsk.SetSystem(6)
    starts = {}
    for step, (k, buf) in enumerate(events):
        if step in (1000, 9000):
            starts[step] = sets
        sets = rsk.sets_apply_signal(sets, k, 0.38, iter(buf).__next__)

    def window(start):
        s = starts[start]
        t0 = time.process_time()
        for k, buf in events[start:start + 1000]:
            s = rsk.sets_apply_signal(s, k, 0.38, iter(buf).__next__)
        return time.process_time() - t0

    early, late = float("inf"), float("inf")
    for _ in range(3):
        early = min(early, window(1000))
        late = min(late, window(9000))
    assert late <= 2.0 * early, (early, late)
