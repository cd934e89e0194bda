"""Hot numeric kernels in plain Python/numpy: the interlacing-lattice edge
builder and the step that applies its sparse operators, and the level clock
with the lockstep driver of the Monte Carlo ensembles.

The lattice builder is vectorized and works for any number of rows.  It
builds one stratum at a time, the edges whose lam has r rows and whose
first-column increment colinc is c, enumerating each state's interlacing
partners as a mixed-radix product of row ranges, already in (lam, mu)
order, and keys each edge by |lam| - |mu| and the equality pattern that
fixes its skew Hall-Littlewood factors, each factor given by the multiset of
its (1 - t^e) exponents.  hl_process keeps the strata once, in one cached
layout grouped by colinc, then lam, then mu, and gathers the class weights
of one step, for given x and t, into a sparse operator split by colinc.
scatter_accumulate applies one: every step of hl_process's DP, and its
sequence count, call it.  A CSR or CSC matrix product adds each target's
terms from 0 in stored order, so its sums are the same bit for bit on every
run.

Every continuous-time dynamics is driven by one Poisson clock that rings
level k at rate c_k: _level_clock checks its inputs, _check_horizon how
long it may ring, _clock_rings rings it for one run and _lockstep_ensemble
for blocks of runs.

The Monte Carlo ensembles step blocks of ENSEMBLE_BLOCK = 32768 runs
together with numpy: the half-continuous ensemble of six_vertex and the RSK
ensembles of rsk through _lockstep_ensemble, one clock event per step across
the runs of a block.  Their states keep the runs on the last axis, so a
reduction over a level's rows adds whole contiguous rows of runs.  The
driver makes every draw from `np.random.RandomState(seed)`, in a fixed
order, so a seed fixes the output.  The draws of a step are made for the
whole block at once, so the block size is part of that stream: a seeded
ensemble of more runs than one block depends on it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import comb, isfinite

import numpy as np


def scatter_accumulate(op, vecs):
    """op @ vecs for a scipy CSR or CSC matrix op and one vector or a matrix
    of column vectors: each entry adds its terms from 0 in op's stored
    order."""
    return op @ vecs


def _level_clock(rates, t):
    """(n, cum, total = cum[-1]) of the clock that rings level k = 1..n at
    rate c_k.  ValueError unless the rates are positive and 0 < t < 1."""
    rates = [float(c) for c in rates]
    if not rates or any(c <= 0 for c in rates):
        raise ValueError("need one positive rate per tracked level")
    if not 0.0 < t < 1.0:
        raise ValueError(f"need 0 < t < 1, got {t}")
    cum = np.cumsum(rates)
    return len(rates), cum, float(cum[-1])


# The most clock rings a run or an ensemble may expect (total rate x horizon,
# times the number of runs): far above every caller, far below a run that
# would not end.
MAX_EXPECTED_RINGS = 10**7


def _check_horizon(total, horizon, runs=1):
    """ValueError unless horizon is finite and runs runs of a clock of total
    rate expect at most MAX_EXPECTED_RINGS rings before it."""
    if not isfinite(horizon):
        raise ValueError(f"need a finite time horizon, got {horizon}")
    expected = total * horizon * runs
    if expected > MAX_EXPECTED_RINGS:
        raise ValueError(
            f"horizon {horizon} expects about {expected:.3g} clock rings, "
            f"more than {MAX_EXPECTED_RINGS}"
        )


def _clock_rings(rates, t, horizon, rng):
    """(time, level) of each ring of the level clock before horizon: per
    ring one exponential waiting time at the total rate from the Generator
    rng, then one uniform for the level.  Inputs and the horizon, which must
    be finite and >= 0, are checked at the first ring, before any draw."""
    n, cum, total = _level_clock(rates, t)
    _check_horizon(total, horizon)
    if horizon < 0:
        raise ValueError(f"need a time horizon >= 0, got {horizon}")
    # bisect_left counts the cum below the value, as _lockstep_ensemble does,
    # on the same float64 values
    cum = cum.tolist()
    exponential, random = rng.exponential, rng.random
    scale = 1.0 / total
    time = 0.0
    while True:
        time += exponential(scale)
        if time >= horizon:
            return
        yield time, min(1 + bisect_left(cum, random() * total), n)


# Runs of a Monte Carlo ensemble are stepped together in blocks of this many,
# which bounds the temporaries whatever the number of runs.  A step costs a
# fixed number of numpy calls whatever its width, so a wide block takes far
# fewer steps for the same runs: a 20000-run ensemble at about 2.4 expected
# events per run takes about 14 steps in one block and 60-70 in blocks of
# 4096, while an RSK block of 3 levels keeps about 1 MB of state.
ENSEMBLE_BLOCK = 32768


def _lockstep_ensemble(rates, t, taus, n_runs, seed, start, observe, step):
    """Records of n_runs runs driven by the level clock of rates, at the
    sorted times taus: an int32 array [n_runs, len(taus), ...].

    start(runs) gives the initial state of a block of runs, runs on its last
    axis; observe(state) gives the record of each run of a state, runs on
    its first axis; and step(state, level, coins) applies one event to every
    run of state, run r at level[r] in 1..n reading the coin row coins[r] of
    a [runs, n] matrix.  Fewer than one run, times that are negative or not
    finite, or more expected rings than MAX_EXPECTED_RINGS over all runs,
    raise ValueError before any draw.  The runs of a block step in
    lockstep.  Each step draws the waiting times of the block's live runs at
    once, records every tau a run passes in one scatter with one flat index
    (run i at the j-th tau is row i len(taus) + j of the output viewed as
    [n_runs * len(taus), ...]), drops the runs whose next event falls past
    the last tau, and steps the others after one level uniform and one row
    of n coins each, in that order.
    """
    n, cum, total = _level_clock(rates, t)
    if n_runs < 1:
        raise ValueError(f"need at least one run, got {n_runs}")
    # a nan or inf time is the horizon np.max gives, refused as not finite
    _check_horizon(total, float(np.max(taus, initial=0.0)), n_runs)
    if not np.all(taus >= 0.0):
        raise ValueError(f"need finite query times >= 0, got {taus.tolist()}")
    rs = np.random.RandomState(seed)
    record_shape = observe(start(0)).shape[1:]
    out = np.zeros((n_runs, len(taus)) + record_shape, dtype=np.int32)
    flat = out.reshape((n_runs * len(taus),) + record_shape)
    for first in range(0, n_runs, ENSEMBLE_BLOCK):
        ids = np.arange(first, min(first + ENSEMBLE_BLOCK, n_runs))
        state = start(len(ids))
        time = np.zeros(len(ids))
        passed = np.zeros(len(ids), dtype=np.intp)  # taus recorded so far
        while len(ids):
            nxt = time + rs.exponential(1.0 / total, size=len(ids))
            now = np.searchsorted(taus, nxt)  # the taus before the next event
            rec = np.flatnonzero(passed < now)
            if len(rec):
                owner, offset = _repeat_ranges(now[rec] - passed[rec])
                seen = observe(state.take(rec, axis=-1))
                first_row = ids[rec] * len(taus) + passed[rec]
                flat[first_row[owner] + offset] = seen[owner]
            live = np.flatnonzero(now < len(taus))
            ids, state, time, passed = (ids[live], state.take(live, axis=-1),
                                        nxt[live], now[live])
            if len(ids):
                u = rs.random_sample(len(ids))
                level = np.minimum(1 + (cum[:, None] < u * total).sum(axis=0), n)
                step(state, level, rs.random_sample((len(ids), n)))
    return out


def _repeat_ranges(counts):
    """(owner, offset) over sum(counts) slots: slot k belongs to item owner[k]
    and is its offset[k]-th slot, offsets running 0..counts[owner]-1."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    return owner, offset


def box_partitions(rows, cap):
    """All partitions with at most `rows` rows and parts <= cap, as an
    (n, rows) zero-padded array in lexicographic order."""
    parts = np.arange(cap + 1).reshape(-1, 1)
    for _ in range(rows - 1):
        owner, last = _repeat_ranges(parts[:, -1] + 1)
        parts = np.column_stack([parts[owner], last])
    return parts


def _box_rank_tables(rows, cap):
    """rank[i][mu_i] summed over the rows is the position of mu in
    box_partitions(rows, cap).  Row i adds the number of partitions that agree
    with mu above row i and are smaller in it: sum over v < mu_i of the
    C(v + rows-1-i, rows-1-i) tails, which is C(mu_i + rows-1-i, rows-i)."""
    return [
        np.array([comb(v + rows - 1 - i, rows - i) for v in range(cap + 1)],
                 dtype=np.intp)
        for i in range(rows)
    ]


# every pattern of up to 5 rows (4^5); a lattice of many rows may meet
# millions, so the cache is bounded
@lru_cache(maxsize=1024)
def run_factors(pattern, rows):
    """Exponent counts (e = 1..rows) of the P and Q skew factors of one edge.

    pattern[j] tells whether z_j = z_{j+1} in the merged sequence z = (lam_1,
    mu_1, lam_2, ..., mu_rows, 0).  A maximal run of one value that ends
    before the trailing 0 has a value v > 0.  If it starts and ends on mu
    entries it holds k of them and k - 1 lam entries, so m_v(lam) + 1 =
    m_v(mu) = k and P gets a factor (1 - t^k).  If it starts and ends on lam
    entries then m_v(lam) = m_v(mu) + 1 = k, a factor of Q.  A run with one
    end of each kind has m_v(lam) = m_v(mu) and gives no factor.
    """
    counts = ([0] * rows, [0] * rows)  # runs ending on lam (Q), on mu (P)
    start = 0
    for j, same in enumerate(pattern):
        if not same:
            if (j - start) % 2 == 0:
                counts[j % 2][(j - start) // 2] += 1
            start = j + 1
    qcounts, pcounts = counts
    return tuple(pcounts), tuple(qcounts)


def lattice_states(rows, cap):
    """(parts, offsets) of the interlacing lattice on partitions with at most
    `rows` rows and parts <= cap: parts is an (n, rows) zero-padded array of
    the states ordered by their number of rows, then lexicographically, and
    the states with r rows are parts[offsets[r]:offsets[r + 1]], so the
    states with at most r rows are the first offsets[r + 1] = C(cap + r, r).
    The r-row block is box_partitions(r, cap - 1) + 1."""
    offsets = [0] + [comb(cap + r, r) for r in range(rows + 1)]
    parts = np.zeros((offsets[-1], rows), dtype=np.intp)
    for r in range(1, rows + 1):
        parts[offsets[r]:offsets[r + 1], :r] = box_partitions(r, cap - 1) + 1
    return parts, offsets


def lex_ranks(parts, cap):
    """The position of each row of parts in box_partitions(rows, cap)."""
    rank = _box_rank_tables(parts.shape[1], cap)
    return sum(rank[i][parts[:, i]] for i in range(parts.shape[1]))


def edge_counts(parts):
    """(2, n) array: the number of edges mu < lam of each state lam of parts
    whose first-column increment colinc is 0 (row 0) and 1 (row 1).  With r
    rows, mu_i ranges over [lam_{i+1}, lam_i] for i < r, and mu_r is 0 on
    colinc 1 and in [1, lam_r] on colinc 0; the empty partition has one
    edge, to itself, of colinc 0."""
    n, rows = parts.shape
    nrows = np.count_nonzero(parts, axis=1)
    lower = np.zeros_like(parts)
    lower[:, :-1] = parts[:, 1:]
    width = parts - lower + 1
    last = np.maximum(nrows - 1, 0)
    # the product of the widths of the rows above the last
    width[np.arange(n), last] = 1
    base = width.prod(axis=1)
    lam_last = parts[np.arange(n), last]
    return np.stack((np.where(nrows > 0, base * lam_last, 1),
                     np.where(nrows > 0, base, 0)))


def _renumber(key):
    """(dense, present): the values of the intp array key numbered 0, 1, ...
    in increasing order, and the values present, by one bincount (no sort)."""
    table = np.bincount(key)
    present = np.flatnonzero(table)
    table[present] = np.arange(len(present))
    return table[key], present


def build_interlacing_edges(rows, cap, r, colinc):
    """The stratum (r, colinc) of the interlacing lattice of lattice_states(
    rows, cap): the edges mu < lam where lam has r rows and mu has r -
    colinc, as (mu_idx, edge_class, class_delta, class_pattern).

    Each lam of the r-row block gets the Cartesian product of its row ranges
    [lam_{i+1}, lam_i] for i < r, and [1, lam_r] (colinc 0) or {0} (colinc
    1) for the last row, enumerated in mixed radix with the last row
    fastest, so the edges come grouped by lam in state order and then by mu
    lexicographically.  mu's position, the int32 mu_idx, is the offset of
    its row block plus the rank of mu - 1 in box_partitions(r - colinc,
    cap - 1).

    An edge's weight in a process step is x^{|lam| - |mu|} times its skew
    factor, which depends only on which neighbours of the merged sequence
    lam_1 >= mu_1 >= ... >= mu_rows >= 0 are equal.  The int32 edge_class
    numbers the (|lam| - |mu|, equality pattern) pairs that occur in the
    stratum: class k has |lam| - |mu| = class_delta[k] and the pattern
    class_pattern[k], the tuple of the 2 rows flags [lam_i = mu_i], [mu_i =
    lam_{i+1}] for i = 1..rows, lam_{rows+1} = 0, that run_factors reads.
    A pattern's key grows by one base-4 digit per row and is renumbered
    densely once its range passes the edge count or 4^6, so the keys and
    the pattern list stay below 4 max(min(edges, 4^6), patterns present)
    whatever the number of rows.
    """
    if r == 0:
        # the empty partition's one edge, to itself (colinc 0), equal in every row
        return (np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32),
                np.zeros(1, dtype=np.intp), [(True, True) * rows])
    lam = box_partitions(r, cap - 1) + 1
    below = np.zeros_like(lam)  # lam_{i+1}, 0 under the last row
    below[:, :-1] = lam[:, 1:]
    # mu_i ranges over [low_i, high_i]
    low, high = below.copy(), lam.copy()
    if colinc:
        high[:, -1] = 0
    else:
        low[:, -1] = 1
    width = high - low + 1
    lam_idx, k = _repeat_ranges(width.prod(axis=1))
    mu_rows = r - colinc
    rank = _box_rank_tables(mu_rows, cap - 1)
    mu_idx = np.full_like(lam_idx, comb(cap + mu_rows - 1, mu_rows - 1) if mu_rows else 0)
    delta = lam.sum(axis=1)[lam_idx]
    key = np.zeros_like(lam_idx)
    patterns = [(True, True) * (rows - r)]  # rows r+1..rows are 0 = 0 = 0
    for i in reversed(range(r)):  # in place where it can, to bound memory
        w = width[:, i][lam_idx]
        mu = k % w
        k //= w
        mu += low[:, i][lam_idx]
        key *= 4
        key += 2 * (mu == lam[:, i][lam_idx]) + (mu == below[:, i][lam_idx])
        present = range(4 * len(patterns))
        if len(present) > min(len(key), 4**6):  # keep only the patterns present
            key, present = _renumber(key)
            present = present.tolist()
        patterns = [(bool(c & 2), bool(c & 1)) + patterns[c >> 2] for c in present]
        if i < mu_rows:
            mu_idx += rank[i][mu - 1]
        delta -= mu
    # |lam| - |mu| <= lam_1 <= cap
    key *= cap + 1
    key += delta
    edge_class, present = _renumber(key)
    pattern, class_delta = np.divmod(present, cap + 1)
    return (mu_idx.astype(np.int32), edge_class.astype(np.int32), class_delta,
            [patterns[p] for p in pattern.tolist()])
