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
bridge to the set-valued dynamics below.  Both searches of the rule, from 0
on the signalled level and from v+1 after a push, read one row rule: the
free values are [row 0, inf) and the gaps [row i, row i-1 of the level
below) that are not empty, so the search returns the smallest free row
value >= its start (`_first_free_row`, batched as `_first_free_rows`).

Set dynamics.  V_i starts as all of Z>=0; a signal at level k removes
min V_k, and the removed element i scans upward: levels containing i are
crossed unchanged, at levels missing i a coin of probability R inserts i and
removes the next element above (the new removed element continues the scan).
Both dynamics, driven by the same uniforms, produce identical trajectories
under the bijection col_{j}(level m) = col_j(level m-1) + 1{j-1 not in V_m}.
`SetSystem` stores the complement of V_m as a floor f = min V_m plus the
sparse set of missing elements above f: the complement is [0, f) | extras.
Removing f advances the floor through the extras, inserting an element below
f lowers the floor and moves the gap into the extras.  The floors grow with
the event count while the extras stay small (about 500 elements over six
levels after 10^4 events), so the cost of an event, of a copy and of the
bijection no longer grows with the number of events so far.

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
the driver's draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def nearest_neighbor_index(array: PartitionArray, k: int, i: int):
    """Smallest free row of level k+1 with index <= i (1-based), or None."""
    best = None
    for j in range(1, i + 1):
        if not is_blocked(array, k + 1, j):
            v = array.level(k + 1)[j - 1]
            if best is None or v < array.level(k + 1)[best - 1]:
                best = j
    return best


def rsk_apply_signal(array: PartitionArray, k: int, t: float, uniform,
                     record=None) -> PartitionArray:
    """New array after one signal at level k; uniform() supplies U(0,1) draws.

    When `record` is a list, (level, value) is appended for every row
    increment (the row of that value moved up by one).
    """
    _check_level(k, array.n_max)
    out = array.copy()
    _apply_signal_inplace(out.levels, out.n_max, k, t, _as_uniform(uniform), record)
    return out


def _check_level(k, n_max):
    if not 1 <= k <= n_max:
        raise ValueError(f"signal level {k} outside 1..{n_max}")


def _as_uniform(u):
    if callable(u):
        return u
    return u.random  # numpy Generator


def _first_free_row(upper, lower, lo):
    """Smallest free value >= lo of two neighbouring levels, found by rows.

    The free values of two interlacing levels are [upper[0], inf) and the
    gaps [upper[i], lower[i-1]) for i >= 1: row 0 is always free, and row i
    is free when upper[i] < lower[i-1].  The answer is lo when lo > upper[0],
    and otherwise the smallest free row value >= lo.  This is the one free
    search of the event rule, and `_first_free_rows` is its batched form.
    A start strictly inside a gap, upper[i] < lo < lower[i-1], would be free
    itself, but the rule never searches from there: it starts at 0 on the
    signalled level and at ival+1 after a push.
    """
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


def _apply_signal_inplace(levels, n_max, k, t, uniform, record=None):
    ival = _first_free_row(levels[k - 1], levels[k - 2] if k > 1 else (), 0)
    lv = levels[k - 1]
    lv[lv.index(ival)] += 1
    if record is not None:
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
        if record is not None:
            record.append((m, w))
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
            for m, v in rec:
                # the moved row is the last of the (v+1)-cluster it joined
                row = sum(x > v for x in arr.levels[m - 1])
                events.append((time, m, row, v + 1))
        if validate:
            arr.validate()
    take(float("inf"))
    arr.tau = tau_max
    if not snaps:
        out.append((tau_max, arr))
    return out


def _first_free_rows(upper, lower, lo):
    """`_first_free_row` for a block of runs in one pass: upper [m, runs] and
    lower [m-1, runs] hold two neighbouring levels, runs on the last axis,
    and lo [runs] the per-run start.  Same row rule: a row is a candidate
    when it is row 0 or upper[i] < lower[i-1], and the answer is the
    smallest candidate value >= lo, or lo when lo > upper[0].
    """
    free = upper >= lo
    free[1:] &= upper[1:] < lower
    return np.where(free, upper, np.maximum(upper[0], lo)).min(axis=0)


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
    only the runs that move (k <= m) keep the result.
    """
    n, runs = L.shape[0], L.shape[2]
    run_ids = np.arange(runs)
    # row counts fit a signed type that holds -1..n, int8 up to n = 127
    count = np.min_scalar_type(-n - 1)
    # entry E <= n is R for a tie with E rows at ival, the last one 1 - t
    r_table = np.append((1.0 - t) / (1.0 - t ** (np.arange(n + 1) + 1)), 1.0 - t)
    coin = np.zeros(runs, dtype=np.intp)
    ival = np.zeros(runs, dtype=L.dtype)
    for m in range(int(k.min()), n + 1):
        upper = L[m - 1, :m]
        lower = L[m - 2, :m - 1] if m > 1 else upper[:0]
        begin = k == m
        # the level below already moved a row from ival to ival+1, so its
        # pre-event column ival+1 is one less than the current count
        col_up = (upper > ival).sum(axis=0, dtype=count)
        col_low = (lower > ival).sum(axis=0, dtype=count)
        draws = (k < m) & (col_up != col_low - 1)
        ge_up = (upper >= ival).sum(axis=0, dtype=count)
        tie = (ival >= 1) & (ge_up == (lower >= ival).sum(axis=0, dtype=count))
        r_prob = r_table[np.where(tie, ge_up - col_up, -1)]
        push = draws & (U[run_ids, coin] < r_prob)
        coin += draws
        # the push search starts at ival+1, where the row of level m-1 that
        # moved from ival to ival+1 counts as it did before
        free = _first_free_rows(upper, lower, np.where(begin, 0, ival + 1))
        w = np.where(begin | push, free, ival)
        # rows fall from row 0, so the first row at w follows the rows above
        # it; a run with k > m adds 0 there (row <= m < n)
        row = (upper > w).sum(axis=0, dtype=count)
        L[m - 1, row, run_ids] += k <= m
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

    Level m is stored as its floor f = min V_m and the sparse set of
    complement elements above f, so that the complement is [0, f) | extras.
    """

    def __init__(self, n_max: int, complements=None):
        self.n_max = n_max
        if not complements:
            complements = [()] * n_max
        if len(complements) != n_max:
            raise ValueError("need one complement per level")
        self._floors = []
        self._extras = []
        for comp in complements:
            comp = set(map(int, comp))
            if comp and min(comp) < 0:
                raise ValueError("complements lie in Z>=0")
            f = 0
            while f in comp:
                f += 1
            self._floors.append(f)
            self._extras.append({x for x in comp if x > f})

    @classmethod
    def _from_parts(cls, n_max, floors, extras) -> "SetSystem":
        out = cls.__new__(cls)
        out.n_max, out._floors, out._extras = n_max, floors, extras
        return out

    @property
    def complements(self) -> list:
        """The complement of each V_m as a plain set (a fresh copy)."""
        return [set(range(f)) | e for f, e in zip(self._floors, self._extras)]

    def copy(self) -> "SetSystem":
        return SetSystem._from_parts(
            self.n_max, list(self._floors), [set(e) for e in self._extras]
        )

    def contains(self, level: int, x: int) -> bool:
        return x >= self._floors[level - 1] and x not in self._extras[level - 1]

    def min_of(self, level: int) -> int:
        return self._floors[level - 1]

    def h_count(self, r: int, m: int) -> int:
        """h^(r)(m) = #{l <= m : r in V_l}."""
        return sum(1 for l in range(1, m + 1) if self.contains(l, r))

    def __eq__(self, other):
        return (
            isinstance(other, SetSystem)
            and self.n_max == other.n_max
            and self._floors == other._floors
            and self._extras == other._extras
        )

    def __repr__(self):
        return (f"SetSystem(n_max={self.n_max}, floors={self._floors}, "
                f"extras={self._extras})")


def sets_apply_signal(sets: SetSystem, k: int, t: float, uniform,
                      record=None) -> SetSystem:
    """New SetSystem after one signal at level k.

    When `record` is a list, (level, value) is appended per level >= k: the
    element removed there, or the incoming element when the level is crossed
    unchanged (mirroring the array-side row increments one for one).
    """
    _check_level(k, sets.n_max)
    # the event changes levels k..n only, so the levels below share their sets
    extras = sets._extras[:k - 1] + [set(e) for e in sets._extras[k - 1:]]
    out = SetSystem._from_parts(sets.n_max, list(sets._floors), extras)
    _sets_signal_inplace(out, k, t, _as_uniform(uniform), record)
    return out


def _sets_signal_inplace(sets: SetSystem, k: int, t: float, uniform, record=None):
    floors, extras = sets._floors, sets._extras
    i = floors[k - 1]
    e = extras[k - 1]
    f = i + 1
    while f in e:
        e.remove(f)
        f += 1
    floors[k - 1] = f
    if record is not None:
        record.append((k, i))
    for m in range(k, sets.n_max):
        f, e = floors[m], extras[m]
        if i >= f and i not in e:
            if record is not None:
                record.append((m + 1, i))
            continue
        j = i - 1
        if j >= f and j not in e:
            # d = h^(i) - h^(i-1) over levels 1..m+1 before the event.  Only
            # the levels below m+1 are read: the event so far took its first
            # i from level k and, at each push, put the current i back and
            # took the next, so they held the current i once more before the
            # event and i-1 as often, while level m+1 holds i-1 but not i
            d = 0
            for fl, el in zip(floors[:m], extras):
                if i >= fl and i not in el:
                    d += 1
                if j >= fl and j not in el:
                    d -= 1
            r_prob = (1.0 - t) / (1.0 - t ** (d + 1))
        else:
            r_prob = 1.0 - t
        if uniform() < r_prob:
            # insert i and remove the next element of V_m above it
            if i < f:
                # the floor drops to i; the gap up to the old floor and the
                # old floor itself stay out of V_m
                e.update(range(i + 1, f + 1))
                floors[m] = i
                v = f
            else:
                e.discard(i)
                v = i + 1
                while v in e:
                    v += 1
                e.add(v)
            if record is not None:
                record.append((m + 1, v))
            i = v
        elif record is not None:
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


def _level_floor_extras(lv, prev):
    """Floor and extras of the complement of V_m from levels m and m-1.

    i is missing from V_m iff #{x in lv : x > i} != #{x in prev : x > i},
    for i below the top row lv[0].  Both counts stay constant between
    consecutive row values, so the complement is a union of such runs.
    """
    top = lv[0]
    cuts = sorted({x for x in (*lv, *prev) if x < top} | {0})
    floor = None
    extras = set()
    for lo, hi in zip(cuts, cuts[1:] + [top]):
        if sum(1 for x in lv if x > lo) == sum(1 for x in prev if x > lo):
            if floor is None:
                floor = lo
        elif floor is not None:
            extras.update(range(lo, hi))
    return (top if floor is None else floor), extras


def sets_from_array(array: PartitionArray) -> SetSystem:
    """i in V_m  iff  #rows<=i of level m exceeds that of level m-1 by one."""
    floors, extras = [], []
    prev: list = []
    for lv in array.levels:
        f, e = _level_floor_extras(lv, prev)
        floors.append(f)
        extras.append(e)
        prev = lv
    return SetSystem._from_parts(array.n_max, floors, extras)


def array_from_sets(sets: SetSystem, n_max=None) -> PartitionArray:
    """Inverse of sets_from_array: col_j(m) = col_j(m-1) + 1{j-1 not in V_m}.

    Row i of level m counts the x with c(x) = #{l <= m : x not in V_l} >= i.
    The floors alone give c(x) >= i exactly for x below the i-th largest
    floor; each extra x, below p(x) of the floors and in e(x) of the extras,
    adds one to rows p(x)+1 .. p(x)+e(x).
    """
    if n_max is None:
        n_max = sets.n_max
    if not 0 <= n_max <= sets.n_max:
        raise ValueError(f"n_max {n_max} outside the {sets.n_max} tracked levels")
    mult: dict = {}
    levels = []
    for m in range(n_max):
        for x in sets._extras[m]:
            mult[x] = mult.get(x, 0) + 1
        floors = sorted(sets._floors[:m + 1], reverse=True)
        lv = list(floors)
        for x, e in mult.items():
            p = sum(1 for f in floors if f > x)
            for row in range(p, p + e):
                lv[row] += 1
        levels.append(lv)
    return PartitionArray(n_max, levels)


def counter_partition(sets: SetSystem, m: int) -> tuple:
    """(m - h^(0), m - h^(1), ...): the conjugate of the level-m partition."""
    top = max(  # largest missing element, -1 when no level misses one
        (max(e) if e else f - 1 for f, e in zip(sets._floors, sets._extras)),
        default=-1,
    )
    vals = [m - sets.h_count(r, m) for r in range(0, top + 2)]
    return pt.strip_zeros(tuple(vals))


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
