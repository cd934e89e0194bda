"""Continuous-time Hall-Littlewood RSK dynamics on interlacing partition
arrays, the equivalent set-valued dynamics, and the t-PushTASEP.

Array dynamics.  Level k holds a partition with exactly k rows (zeros kept),
interlacing with its neighbours; all rows start at zero.  A Poisson signal at
level k increments the smallest free row value of level k (a row is free when
it is strictly below the row up-left of it), and the move propagates upward.
When the incoming value v is still free at the next level the move is forced
onto the first row of its v-cluster (this keeps interlacing after the lower
increment); otherwise a coin with success probability R pushes the first row
of the nearest free value above v, and with probability 1-R the first row of
the v-cluster moves instead.  R = 1-t when the count of v-rows matches the
level below (minus the mover), and (1-t)/(1-t^{E+1}) with E = #v-rows
otherwise.  The propagation is expressed through free-value sets
V_m = {v : col_{v+1}(level m) = col_{v+1}(level m-1)}, which is also the
bridge to the set-valued dynamics below.  Both searches of the rule are
Fig. 7's nearest unblocked row (`_nearest_free_row`): the last free row at
or above a start row, which is the row that moves.  The signalled level
starts at its last row, a push at the row of the level below that moved.

Set dynamics.  V_i starts as all of Z>=0; a signal at level k removes
min V_k, and the removed element i scans upward: levels containing i are
crossed unchanged, at levels missing i a coin of probability R inserts i and
removes the next element above (the new removed element continues the scan).
Both dynamics, driven by the same uniforms, produce identical trajectories
under the bijection col_{j}(level m) = col_j(level m-1) + 1{j-1 not in V_m}.
Under it the complement of V_m is the union of the row gaps [prev[j], lv[j])
of levels m-1 and m (prev[m-1] = 0), so it is at most m intervals however
far the rows have grown, and `SetSystem` stores it as the sorted bounds of
those intervals.  An event reads and rewrites bounds, never runs of values,
at O(m log m) per level it crosses; neither its cost nor that of a copy or
of the bijection grows with the number of events so far.

The array stepper works at the row an event moved.  The row r of level
m-1 that moved from ival to ival+1 splits level m by interlacing: its rows
before r lie above ival and its rows after r at or below it, so the forced
move, the tie and the row that moves next are all read at row r and the
ival-clusters after it.

The single-trajectory steppers draw lazily from a `uniform()` callable (one
draw per random branch); coupled runs share draws per event.  The ensembles
step blocks of `_kernels.ENSEMBLE_BLOCK` runs in lockstep with numpy on an
int32 block L[level, row, run], runs on the last axis, and get their draws
in batches from the driver: per event a row of coins for each run, read in
the order `_apply_signal_inplace` would draw them.  The batched step
`_apply_signal_batch` evaluates the rule on every run of the block at every
level and keeps the result of the runs that move, so a run's new state
depends only on its own state, level and coins, whatever else is in the
block; the block size changes a seeded output only through the order of
the driver's draws.  It works on whole rows of runs: a run's coins are
read at a running flat position of the coin matrix, and a move adds a
one-hot mask of rows to its level in place, so no run is indexed alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from math import isfinite

import numpy as np

from . import _kernels, partitions as pt


# ---------------------------------------------------------------------------
# partition arrays


class PartitionArray:
    """Interlacing triangular array; level k keeps exactly k rows."""

    def __init__(self, n_max: int, levels=None, tau: float = 0.0):
        self.n_max = n_max
        if levels is None:
            self.levels = [[0] * k for k in range(1, n_max + 1)]
        else:
            self.levels = [list(map(int, lv)) for lv in levels]
            if [len(lv) for lv in self.levels] != list(range(1, n_max + 1)):
                raise ValueError("level k must have exactly k rows")
        self.tau = float(tau)

    def level(self, k: int) -> list:
        _check_level(k, self.n_max)
        return self.levels[k - 1]

    def copy(self) -> "PartitionArray":
        # the levels are already int lists of the right lengths: skip __init__
        out = PartitionArray.__new__(PartitionArray)
        out.n_max, out.levels, out.tau = self.n_max, [lv[:] for lv in self.levels], self.tau
        return out

    def first_columns(self) -> tuple:
        """lambda^(k)'_1 for k = 1..n_max."""
        return tuple(sum(1 for v in lv if v > 0) for lv in self.levels)

    def validate(self):
        """AssertionError unless every level is sorted and interlaces with the
        one below.  Levels k-1 and k pass when the chain lv[0] >= below[0] >=
        lv[1] >= ... >= lv[k-1] holds, which also sorts level k; which of
        the two failed is worked out only when the chain breaks."""
        for k in range(2, self.n_max + 1):
            lv, below = self.levels[k - 1], self.levels[k - 2]
            for x, y, z in zip(lv, below, lv[1:]):
                if not x >= y >= z:
                    if any(a < b for a, b in zip(lv, lv[1:])):
                        raise AssertionError(f"level {k} not sorted: {lv}")
                    raise AssertionError(
                        f"interlacing broken between levels {k-1}, {k}"
                    )

    def __eq__(self, other):
        return isinstance(other, PartitionArray) and self.levels == other.levels

    def __repr__(self):
        return f"PartitionArray({self.levels}, tau={self.tau})"


def is_blocked(array: PartitionArray, k: int, i: int) -> bool:
    """Row i (1-based) of level k is blocked when equal to row i-1 of level k-1."""
    if i == 1:
        return False
    return array.level(k)[i - 1] == array.level(k - 1)[i - 2]


def nearest_neighbor_index(array: PartitionArray, k: int, i: int) -> int:
    """Smallest free row of level k+1 with index <= i, 1 <= i <= k+1 (1-based)."""
    if not 1 <= i <= k + 1:
        raise ValueError(f"row {i} outside 1..{k + 1}")
    return _nearest_free_row(array.level(k + 1), array.level(k), i - 1) + 1


def rsk_apply_signal(array: PartitionArray, k: int, t: float, uniform,
                     record=None) -> PartitionArray:
    """New array after one signal at level k; uniform() supplies U(0,1) draws.

    When `record` is a list, (level, value) is appended for every row
    increment (the row of that value moved up by one).
    """
    _check_level(k, array.n_max)
    if not 0.0 <= t < 1.0:  # nan fails too; the run_* drivers need t > 0
        raise ValueError(f"need 0 <= t < 1, got {t}")
    out = array.copy()
    rec = [] if record is not None else None
    _apply_signal_inplace(out.levels, out.n_max, k, t, _as_uniform(uniform), rec)
    if record is not None:
        record += [(m, v) for m, v, _ in rec]
    return out


def _check_level(k, n_max):
    if not 1 <= k <= n_max:
        raise ValueError(f"level {k} outside 1..{n_max}")


def _as_uniform(u):
    if callable(u):
        return u
    return u.random  # numpy Generator


def _nearest_free_row(upper, lower, i):
    """Last free row at or above row i of level `upper` over the level below
    it, `lower`: row 0 is always free, and row j >= 1 is free when
    upper[j] < lower[j-1].  Rows fall in value, so it is the free row of
    smallest value among rows 0..i, and it starts its value's cluster:
    upper[j-1] >= lower[j-1] > upper[j].  This is the one search of the
    event rule, and `_first_free_rows` is its batched form by value.
    """
    while i and upper[i] >= lower[i - 1]:
        i -= 1
    return i


def _apply_signal_inplace(levels, n_max, k, t, uniform, record=None):
    """One signal at level k on the rows `levels`, in place, every move
    found by row with `_nearest_free_row`, none by value.

    When `record` is a list, (level, value, row) is appended per level >= k:
    the row that moved, by index, and the value it moved from.
    """
    lv = levels[k - 1]
    r = _nearest_free_row(lv, levels[k - 2] if k > 1 else (), k - 1)
    ival = lv[r]
    lv[r] += 1
    if record is not None:
        record.append((k, ival, r))
    for m in range(k + 1, n_max + 1):
        upper, lower = levels[m - 1], levels[m - 2]
        # row r of lower, the first at ival, has moved to ival+1.  By
        # interlacing the rows of upper before r lie above ival, the rows
        # after r at or below it, and upper[r] >= ival
        if upper[r] == ival:
            # both levels had r rows above ival: ival is still free at
            # level m, and the move is forced onto row r
            w = ival
        else:
            # rows before r count alike on both levels, so the tie compares
            # the ival-clusters that start after row r
            end = r + 1
            while end < m and upper[end] == ival:
                end += 1
            low = r + 1
            while low < m - 1 and lower[low] == ival:
                low += 1
            if ival >= 1 and end == low:
                r_prob = (1.0 - t) / (1.0 - t ** (end - r))
            else:
                r_prob = 1.0 - t
            if uniform() < r_prob:
                # the nearest free row above ival: rows 0..r of upper are
                # the rows above ival, and the search reads lower only
                # above its moved row r
                r = _nearest_free_row(upper, lower, r)
                w = upper[r]
            else:
                # the ival-cluster of upper starts right after row r
                w = ival
                r += 1
        upper[r] += 1
        if record is not None:
            record.append((m, w, r))
        ival = w


def run_rsk(rates, t: float, tau_max: float, seed: int, snapshot_times=(),
            validate: bool = False, events=None) -> list:
    """Event-driven trajectory; returns [(tau, PartitionArray)] at snapshots.

    rates are the level clock intensities c_1..c_n, one per tracked level
    (`_kernels._level_clock`).  validate=True re-checks interlacing after
    every event.  Passing a list as `events` collects (time, level, row,
    new_value) per row move.  A snapshot time that is not finite, is
    negative or lies beyond tau_max raises ValueError before any draw.
    """
    rng = np.random.default_rng(seed)
    arr = PartitionArray(len(rates))
    snaps = [float(s) for s in snapshot_times]
    for s in snaps:
        if not (isfinite(s) and s >= 0.0):
            raise ValueError(f"need finite snapshot times >= 0, got {s}")
    snaps.sort()
    if snaps and snaps[-1] > tau_max:
        raise ValueError("snapshot beyond horizon")
    out = []

    def take(until):
        while len(out) < len(snaps) and snaps[len(out)] < until:
            snap = arr.copy()
            snap.tau = snaps[len(out)]
            out.append((snap.tau, snap))

    for time, k in _kernels._clock_rings(rates, t, tau_max, rng):
        take(time)
        rec = [] if events is not None else None
        _apply_signal_inplace(arr.levels, arr.n_max, k, t, rng.random, rec)
        if rec is not None:
            events += [(time, m, row + 1, v + 1) for m, v, row in rec]
        if validate:
            arr.validate()
    take(float("inf"))
    arr.tau = tau_max
    if not snaps:
        out.append((tau_max, arr))
    return out


def _first_free_rows(upper, lower, lo):
    """The value `_nearest_free_row` finds, for a block of runs in one pass:
    upper [m, runs] and lower [m-1, runs] hold two neighbouring levels, runs
    on the last axis, and lo [runs] the per-run start.  Same row rule: a row
    is a candidate when it is row 0 or upper[i] < lower[i-1], and the answer
    is the smallest candidate value >= lo, or lo when lo > upper[0].  The
    rule starts it at 0, and at ival+1 after a push, never strictly inside a
    gap upper[i] < lo < lower[i-1], where lo itself would be free.  Rows hold
    values >= 0, so raising every other row to max(upper[0], lo), which is
    at least every candidate, leaves the candidates' minimum as the row
    minimum.
    """
    other = upper < lo
    other[1:] |= upper[1:] >= lower
    return np.maximum(upper, np.maximum(upper[0], lo) * other).min(axis=0)


def _apply_signal_batch(L, k, t, U):
    """_apply_signal_inplace on a block of runs at once.

    L [n, n, runs] holds row i of level m of run r in L[m-1, i, r] for
    i < m, and -1 in the other slots: runs on the last axis, so the counts
    of a level are sums over its rows (axis 0 of L[m-1, :m]).  Run r gets a
    signal at level k[r] and reads its coins from the row U[r] in order, one
    per level whose move is not forced.  The tests, the free-value search
    (`_first_free_rows` at the two starts the rule uses), the R formula and
    the push target are those of the reference, applied level by level to
    the whole block: every run is searched and counted at every level, and
    only the runs that move (k <= m) keep the result.  No step indexes runs
    one by one: a run reads its next coin at a running flat position of U,
    and the move adds a one-hot mask of rows to the level in place.
    """
    n, runs = L.shape[0], L.shape[2]
    # row counts fit a signed type that holds -1..n, int8 up to n = 127
    count = np.min_scalar_type(-n - 1)
    # entry E <= n is R for a tie with E rows at ival, the last one 1 - t
    r_table = np.append((1.0 - t) / (1.0 - t ** (np.arange(n + 1) + 1)), 1.0 - t)
    coins = U.ravel()
    pos = np.arange(0, runs * n, n)  # run r's next coin is coins[pos[r]]
    ival = np.zeros(runs, dtype=L.dtype)
    moved = ival  # no run draws at the first level, whatever this holds
    for m in range(int(k.min()), n + 1):
        upper = L[m - 1, :m]
        lower = L[m - 2, :m - 1] if m > 1 else upper[:0]
        begin = k == m
        # the level below moved its row `moved` from ival to ival+1, so
        # the move is forced when as many rows of level m lie above ival
        col_up = (upper > ival).sum(axis=0, dtype=count)
        draws = (k < m) & (col_up != moved)
        ge_up = (upper >= ival).sum(axis=0, dtype=count)
        tie = (ival >= 1) & (ge_up == (lower >= ival).sum(axis=0, dtype=count))
        r_prob = r_table.take((ge_up - col_up + 1) * tie - 1)
        push = draws & (coins.take(pos) < r_prob)
        pos += draws
        # the push search starts at ival+1, where the row of level m-1 that
        # moved from ival to ival+1 counts as it did before
        free = _first_free_rows(upper, lower, (ival + 1) * ~begin)
        w = np.where(begin | push, free, ival)
        # rows fall from row 0, so the row that moves is the first at or
        # below w, the one after the rows above it; a run with k > m adds 0
        above = upper > w
        hit = ~above
        hit[1:] &= above[:-1]
        hit &= k <= m
        upper += hit
        if m < n:
            moved = above.sum(axis=0, dtype=count)
        ival = w


def _rsk_ensemble(rates, t, taus, n_runs, seed, observe):
    """Records observe(L) of RSK runs from the empty array at the sorted taus.

    Runs step in lockstep (`_kernels._lockstep_ensemble`) on the int32 block
    L [level, row, run] of `_apply_signal_batch`; after the waiting times
    and the level uniforms, each step reads the driver's [runs, levels]
    matrix of coins, row r feeding run r's event.
    """
    n = len(rates)
    empty = np.where(np.tri(n, dtype=bool), 0, -1).astype(np.int32)

    def start(runs):
        return np.repeat(empty[:, :, None], runs, axis=2)

    def step(L, k, U):
        _apply_signal_batch(L, k, t, U)

    return _kernels._lockstep_ensemble(
        rates, t, np.asarray(taus, dtype=float), n_runs, seed, start, observe, step
    )


def rsk_first_column_ensemble(rates, t, taus, n_runs, seed) -> np.ndarray:
    """Ensemble of first-column vectors: [runs, taus, levels] (int32).

    Runs start from the empty array and step the event rule in its batched
    form `_apply_signal_batch`, a block of `_kernels.ENSEMBLE_BLOCK` runs at
    a time, drawing from RandomState(seed) as `_rsk_ensemble` describes.
    """
    taus = sorted(float(x) for x in taus)
    return _rsk_ensemble(rates, t, taus, n_runs, seed,
                         lambda L: (L > 0).sum(axis=1).T)


def rsk_top_level_ensemble(rates, t, tau, n_runs, seed) -> np.ndarray:
    """Ensemble of the top tracked level's partition at tau: [runs, levels].

    Same stepping and stream as `rsk_first_column_ensemble`.
    """
    out = _rsk_ensemble(rates, t, [float(tau)], n_runs, seed, lambda L: L[-1].T)
    return out[:, 0]


# ---------------------------------------------------------------------------
# set-valued dynamics


class SetSystem:
    """V_1..V_n as complements within Z>=0 (everything present initially).

    The complement of V_m is kept as the sorted bounds [lo_0, hi_0, lo_1,
    hi_1, ...] of disjoint, non-adjacent intervals [lo_j, hi_j), so that x is
    missing from V_m exactly when bisect_right(bounds, x) is odd.  The bounds
    of a set system are unique, so two systems are equal when their bounds
    are.  On the states the dynamics reach, level m holds at most m
    intervals (see `sets_from_array`).
    """

    def __init__(self, n_max: int, complements=None):
        self.n_max = n_max
        if complements is None:
            complements = [()] * n_max
        if len(complements) != n_max:
            raise ValueError("need one complement per level")
        self._bounds = []
        for comp in complements:
            xs = sorted(set(map(int, comp)))
            if xs and xs[0] < 0:
                raise ValueError("complements lie in Z>=0")
            bounds: list = []
            for x in xs:
                if bounds and bounds[-1] == x:
                    bounds[-1] = x + 1
                else:
                    bounds += (x, x + 1)
            self._bounds.append(bounds)

    @classmethod
    def _from_bounds(cls, n_max, bounds) -> "SetSystem":
        out = cls.__new__(cls)
        out.n_max, out._bounds = n_max, bounds
        return out

    @property
    def intervals(self) -> list:
        """The complement of each V_m as the [lo, hi] pairs of its intervals
        [lo, hi), in increasing order (a fresh copy)."""
        return [[[lo, hi] for lo, hi in zip(b[0::2], b[1::2])] for b in self._bounds]

    @property
    def complements(self) -> list:
        """The complement of each V_m as a plain set (a fresh copy)."""
        return [{x for lo, hi in iv for x in range(lo, hi)} for iv in self.intervals]

    def copy(self) -> "SetSystem":
        return SetSystem._from_bounds(self.n_max, [b[:] for b in self._bounds])

    def contains(self, level: int, x: int) -> bool:
        _check_level(level, self.n_max)
        return x >= 0 and not bisect_right(self._bounds[level - 1], x) & 1

    def min_of(self, level: int) -> int:
        _check_level(level, self.n_max)
        b = self._bounds[level - 1]
        return b[1] if b and b[0] == 0 else 0

    def h_count(self, r: int, m: int) -> int:
        """h^(r)(m) = #{l <= m : r in V_l}."""
        _check_level(m, self.n_max)
        return sum(1 for l in range(1, m + 1) if self.contains(l, r))

    def __eq__(self, other):
        return (
            isinstance(other, SetSystem)
            and self.n_max == other.n_max
            and self._bounds == other._bounds
        )

    def __repr__(self):
        return f"SetSystem(n_max={self.n_max}, bounds={self._bounds})"


def sets_apply_signal(sets: SetSystem, k: int, t: float, uniform,
                      record=None) -> SetSystem:
    """New SetSystem after one signal at level k.

    When `record` is a list, (level, value) is appended per level >= k: the
    element removed there, or the incoming element when the level is crossed
    unchanged (mirroring the array-side row increments one for one).
    """
    _check_level(k, sets.n_max)
    if not 0.0 <= t < 1.0:  # nan fails too; the run_* drivers need t > 0
        raise ValueError(f"need 0 <= t < 1, got {t}")
    # the event changes levels k..n only, so the levels below share their bounds
    bounds = sets._bounds[:k - 1] + [b[:] for b in sets._bounds[k - 1:]]
    out = SetSystem._from_bounds(sets.n_max, bounds)
    _sets_signal_inplace(out, k, t, _as_uniform(uniform), record)
    return out


def _sets_signal_inplace(sets: SetSystem, k: int, t: float, uniform, record=None):
    levels = sets._bounds
    # i = min V_k leaves V_k: it ends the complement's interval from 0, or is 0
    b = levels[k - 1]
    if b and b[0] == 0:
        i = b[1]
        if len(b) > 2 and b[2] == i + 1:
            del b[1:3]
        else:
            b[1] = i + 1
    else:
        i = 0
        if b and b[0] == 1:
            b[0] = 0
        else:
            b[0:0] = (0, 1)
    if record is not None:
        record.append((k, i))
    for m in range(k, sets.n_max):
        b = levels[m]
        p = bisect_right(b, i)
        if not p & 1:
            # i in V_{m+1}: the level is crossed unchanged
            if record is not None:
                record.append((m + 1, i))
            continue
        lo, hi = b[p - 1], b[p]
        if lo == i >= 1:
            # i-1 in V_{m+1}: rule 4b with d = h^(i) - h^(i-1) over levels
            # 1..m+1 before the event.  Only the levels below m+1 are read:
            # the event so far took its first i from level k and, at each
            # push, put the current i back and took the next, so they held
            # the current i once more before the event and i-1 as often,
            # while level m+1 holds i-1 but not i.  A level adds one where
            # i ends a complement interval and takes one where i starts one
            d = 0
            for bl in levels[:m]:
                q = bisect_left(bl, i)
                if q < len(bl) and bl[q] == i:
                    d += 1 if q & 1 else -1
            r_prob = (1.0 - t) / (1.0 - t ** (d + 1))
        else:
            r_prob = 1.0 - t
        if uniform() < r_prob:
            # i leaves [lo, hi), and the next element of V_{m+1} above it,
            # hi, joins what is left above i: [lo, i) and [i+1, hi+1), the
            # latter merged with the next interval when that starts at hi+1
            if p + 1 < len(b) and b[p + 1] == hi + 1:
                end, above = p + 2, [i + 1]
            else:
                end, above = p + 1, [i + 1, hi + 1]
            b[p - 1:end] = [lo, i, *above] if lo < i else above
            i = hi
        if record is not None:
            record.append((m + 1, i))


def run_sets(rates, t: float, tau_max: float, seed: int) -> SetSystem:
    """Event-driven set dynamics to time tau_max; rates as in `run_rsk`, with
    the same draws."""
    rng = np.random.default_rng(seed)
    sets = SetSystem(len(rates))
    for _, k in _kernels._clock_rings(rates, t, tau_max, rng):
        _sets_signal_inplace(sets, k, t, rng.random)
    return sets


# ---------------------------------------------------------------------------
# bijection between the two state spaces


def sets_from_array(array: PartitionArray) -> SetSystem:
    """i in V_m  iff  #rows<=i of level m exceeds that of level m-1 by one.

    Equivalently i is missing from V_m iff lv[j] > i >= prev[j] for some row
    j, with prev[m-1] = 0: the complement of V_m is the union of the row gaps
    [prev[j], lv[j]), read from the last row up, the empty gaps left out and
    the touching ones merged.  So level m holds at most m intervals.
    """
    levels = []
    prev: list = []
    for lv in array.levels:
        bounds: list = []
        for hi, lo in zip(reversed(lv), (0, *reversed(prev))):
            if lo < hi:
                if bounds and bounds[-1] == lo:
                    bounds[-1] = hi
                else:
                    bounds += (lo, hi)
        levels.append(bounds)
        prev = lv
    return SetSystem._from_bounds(array.n_max, levels)


def array_from_sets(sets: SetSystem) -> PartitionArray:
    """Inverse of sets_from_array: col_j(m) = col_j(m-1) + 1{j-1 not in V_m}.

    Row j of level m ends the gap [prev[j], lv[j]) of `sets_from_array`: it
    is the end of the complement interval that holds prev[j] (prev[j] itself
    when V_m holds it), capped at prev[j-1], where two touching gaps merged.
    """
    levels = []
    prev: list = []
    for bounds in sets._bounds:
        lv = []
        cap = float("inf")
        for lo in (*prev, 0):
            p = bisect_right(bounds, lo)
            lv.append(min(bounds[p] if p & 1 else lo, cap))
            cap = lo
        levels.append(lv)
        prev = lv
    return PartitionArray(sets.n_max, levels)


def counter_partition(sets: SetSystem, m: int) -> tuple:
    """(m - h^(0), m - h^(1), ...): the conjugate of the level-m partition,
    where m - h^(r)(m) counts the complements of levels 1..m that hold r."""
    _check_level(m, sets.n_max)
    levels = sets._bounds[:m]
    diff = [0] * (max((b[-1] for b in levels if b), default=0) + 1)
    for b in levels:
        for lo, hi in zip(b[0::2], b[1::2]):
            diff[lo] += 1
            diff[hi] -= 1
    return pt.strip_zeros(tuple(accumulate(diff)))


# ---------------------------------------------------------------------------
# t-PushTASEP


@dataclass
class PushTASEPState:
    """Occupation on sites 1..n_sites (initially fully packed)."""

    n_sites: int
    occupied: list = field(default_factory=list)

    def __post_init__(self):
        if not self.occupied:
            self.occupied = [True] * self.n_sites

    def copy(self):
        return PushTASEPState(self.n_sites, list(self.occupied))


def pushtasep_apply_clock(state: PushTASEPState, k: int, t: float, uniform):
    """Clock ring at site k (1-based).  Returns (src, dst) or None.

    dst is None when the active particle escapes past the tracked window.
    """
    if not 0.0 <= t < 1.0:  # nan fails too; the run_* drivers need t > 0
        raise ValueError(f"need 0 <= t < 1, got {t}")
    uniform = _as_uniform(uniform)
    occ = state.occupied
    if not occ[k - 1]:
        return None
    occ[k - 1] = False
    z = k + 1
    while z <= state.n_sites:
        if occ[z - 1]:
            z += 1  # push: the occupant carries on as the active particle
        elif uniform() < 1.0 - t:
            occ[z - 1] = True
            return (k, z)
        else:
            z += 1
    return (k, None)


def run_pushtasep(rates, t: float, horizon: float, seed: int) -> tuple:
    """Event-driven t-PushTASEP from the packed state.

    rates gives one clock rate per tracked site (`_kernels._level_clock`).
    Returns (events, state) with events = [(time, site_rung, src_or_None,
    dst_or_None)].
    """
    rng = np.random.default_rng(seed)
    state = PushTASEPState(len(rates))
    events = []
    for time, k in _kernels._clock_rings(rates, t, horizon, rng):
        move = pushtasep_apply_clock(state, k, t, rng.random) or (None, None)
        events.append((time, k) + move)
    return events, state
