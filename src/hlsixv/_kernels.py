"""Hot numeric kernels in plain Python/numpy: the interlacing-lattice edge
builder and its scatter-accumulate step, the half-continuous six vertex height
ensemble and the six vertex outgoing-edge code sampler.

The lattice builder is vectorized and works for any number of rows.  It
enumerates each state's interlacing partners as a mixed-radix product of row
ranges and sorts the edges into classes of equal |lam| - |mu| and equal skew
Hall-Littlewood factors, each factor given by the multiset of its (1 - t^e)
exponents; hl_process turns the classes into edge weights for given x and t.

The samplers draw from `np.random.RandomState(seed)` in a fixed order, so a
seed fixes their output.
"""

from __future__ import annotations

from math import comb

import numpy as np


def scatter_accumulate(src, dst, data, vec_in, vec_out):
    np.add.at(vec_out, dst, vec_in[src] * data)


def half_continuous_grid_ensemble(brates, t, taus, n_runs, seed):
    """Heights h(tau, y) = #occupied rows among 1..y, per run and grid point."""
    rs = np.random.RandomState(seed)
    n_rows = brates.shape[0]
    n_taus = taus.shape[0]
    out = np.zeros((n_runs, n_taus, n_rows), dtype=np.int32)
    for run in range(n_runs):
        occ = [True] * n_rows
        time = 0.0
        ptr = 0
        while ptr < n_taus:
            total = sum(brates[y] for y in range(n_rows) if occ[y])
            nxt = time + rs.exponential(1.0 / total) if total > 0.0 else np.inf
            while ptr < n_taus and taus[ptr] < nxt:
                h = 0
                for y in range(n_rows):
                    if occ[y]:
                        h += 1
                    out[run, ptr, y] = h
                ptr += 1
            if ptr >= n_taus:
                break
            u = rs.random_sample() * total
            acc = 0.0
            row = 0
            for y in range(n_rows):
                if occ[y]:
                    acc += brates[y]
                    if acc >= u:
                        row = y
                        break
            occ[row] = False
            z = row + 1
            while z < n_rows:
                if occ[z]:
                    z += 1  # crossing, probability 1
                elif rs.random_sample() < 1.0 - t:
                    occ[z] = True
                    break
                else:
                    z += 1
            time = nxt
    return out


def six_vertex_tcode_counts(a, b, t, heights, n_samples, seed):
    """Counts of outgoing-edge occupancy codes (bit i = cut edge i occupied)."""
    rs = np.random.RandomState(seed)
    m_cols = a.shape[0]
    n_rows = b.shape[0]
    counts = np.zeros(1 << (m_cols + n_rows), dtype=np.int64)
    for _ in range(n_samples):
        hbits = [False] + [True] * n_rows
        code = 0
        pos = 0
        for x in range(m_cols):
            hx = heights[x]
            v = False
            for y in range(1, hx + 1):
                ab = a[x] * b[y - 1]
                in_h = hbits[y]
                if in_h and v:
                    out_h, out_v = True, True
                elif not in_h and not v:
                    out_h, out_v = False, False
                elif in_h:
                    if rs.random_sample() < (1.0 - ab) / (1.0 - t * ab):
                        out_h, out_v = True, False
                    else:
                        out_h, out_v = False, True
                else:
                    if rs.random_sample() < t * (1.0 - ab) / (1.0 - t * ab):
                        out_h, out_v = False, True
                    else:
                        out_h, out_v = True, False
                hbits[y] = out_h
                v = out_v
            if v:
                code |= 1 << pos
            pos += 1
            hnext = heights[x + 1] if x + 1 < m_cols else 0
            for y in range(hx, hnext, -1):
                if hbits[y]:
                    code |= 1 << pos
                pos += 1
        counts[code] += 1
    return counts


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


def _renumber(code):
    """Dense keys 0..k-1 for the distinct values of code, in increasing order,
    and those values."""
    present = np.flatnonzero(np.bincount(code))
    relabel = np.zeros(present[-1] + 1, dtype=np.intp)
    relabel[present] = np.arange(len(present))
    return relabel[code], present


def _run_factors(pattern, rows):
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


def build_interlacing_edges(parts):
    """Edges mu < lam of the interlacing lattice on parts = box_partitions(rows, cap).

    Each state lam gets the Cartesian product of its row ranges
    [lam_{i+1}, lam_i], enumerated in mixed radix with the last row fastest,
    so edges come grouped by lam in state order and then by mu
    lexicographically.  An edge's weight in a process step is
    x^{|lam| - |mu|} times its skew factor, so edges are grouped into the few
    classes of equal delta = |lam| - |mu| and equal P and Q factors.

    Returns the intp arrays mu_idx, lam_idx and edge_class, the int8
    first-column increment colinc, delta per class, and for P and for Q a
    pair (key per class, exponent counts per key) describing the factor
    prod_e (1 - t^e)^count_e.

    The skew factors depend only on which neighbours of the merged sequence
    lam_1 >= mu_1 >= ... >= mu_rows >= 0 are equal.  mu_i equals lam_i at the
    top of its range and lam_{i+1} at the bottom, so each edge is keyed by
    that equality pattern, renumbered densely row by row, and the few
    distinct patterns are read by _run_factors.
    """
    rows = parts.shape[1]
    lower = np.zeros_like(parts)
    lower[:, :-1] = parts[:, 1:]
    width = parts - lower + 1
    lam_idx, k = _repeat_ranges(width.prod(axis=1))
    rank = _box_rank_tables(rows, int(parts[-1, 0]))
    mu_idx = np.zeros_like(lam_idx)
    delta = parts.sum(axis=1)[lam_idx]
    colinc = np.count_nonzero(parts, axis=1).astype(np.int8)[lam_idx]
    key = np.zeros_like(lam_idx)
    patterns = [()]
    for i in reversed(range(rows)):  # in place where it can, to bound memory
        w = width[:, i][lam_idx]
        mu = k % w
        k //= w
        key *= 4
        key += 2 * (mu == w - 1)  # mu_i = lam_i
        key += mu == 0  # mu_i = lam_{i+1}
        mu += lower[:, i][lam_idx]
        mu_idx += rank[i][mu]
        delta -= mu
        colinc -= mu > 0
        key, present = _renumber(key)
        patterns = [(bool(c & 2), bool(c & 1)) + patterns[c >> 2] for c in present]
    edge_class, present = _renumber(delta * len(patterns) + key)
    class_delta, class_pattern = np.divmod(present, len(patterns))
    factors = []
    for side in zip(*(_run_factors(p, rows) for p in patterns)):
        distinct = sorted(set(side))
        lookup = {f: n for n, f in enumerate(distinct)}
        keys = np.array([lookup[f] for f in side], dtype=np.intp)
        factors.append((keys[class_pattern], distinct))
    pfactors, qfactors = factors
    return mu_idx, lam_idx, colinc, edge_class, class_delta, pfactors, qfactors
