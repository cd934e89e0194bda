"""Hot numeric kernels in plain Python/numpy: the interlacing-lattice edge
builder and its scatter-accumulate step, the half-continuous six vertex height
ensemble and the six vertex outgoing-edge code sampler.

The samplers draw from `np.random.RandomState(seed)` in a fixed order, so a
seed fixes their output.
"""

from __future__ import annotations

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


def _count_interlacing_edges(parts, rows):
    """Total number of mu interlacing below each lam (padded 4-wide parts)."""
    n = parts.shape[0]
    total = 0
    for s in range(n):
        cnt = 1
        for i in range(rows):
            hi = parts[s, i]
            lo = parts[s, i + 1] if i + 1 < 4 else 0
            cnt *= hi - lo + 1
        total += cnt
    return total


def build_interlacing_edges(parts, rows, cap, id2idx):
    """Edge arrays (mu_idx, lam_idx, delta, pcode, qcode, colinc) for all
    interlaced pairs mu < lam over the given states.

    pcode/qcode encode the skew Hall-Littlewood (1 - t^e) factor multisets in
    base 5 by exponent e; see hl_process for decoding.
    """
    n_edges = _count_interlacing_edges(parts, rows)
    mu_idx = np.zeros(n_edges, dtype=np.int32)
    lam_idx = np.zeros(n_edges, dtype=np.int32)
    delta = np.zeros(n_edges, dtype=np.int16)
    pcode = np.zeros(n_edges, dtype=np.int16)
    qcode = np.zeros(n_edges, dtype=np.int16)
    colinc = np.zeros(n_edges, dtype=np.int8)
    base = cap + 1
    mu = np.zeros(4, dtype=np.int64)
    e = 0
    for s in range(parts.shape[0]):
        lam = parts[s]
        lo0 = lam[1] if rows > 1 else 0
        for m0 in range(lo0, lam[0] + 1):
            mu[0] = m0
            lo1 = lam[2] if rows > 2 else 0
            hi1 = lam[1] if rows > 1 else 0
            for m1 in range(lo1, hi1 + 1):
                mu[1] = m1
                lo2 = lam[3] if rows > 3 else 0
                hi2 = lam[2] if rows > 2 else 0
                for m2 in range(lo2, hi2 + 1):
                    mu[2] = m2
                    hi3 = lam[3] if rows > 3 else 0
                    for m3 in range(0, hi3 + 1):
                        mu[3] = m3
                        mid = 0
                        for i in range(rows):
                            mid = mid * base + mu[i]
                        d = 0
                        lrows = 0
                        mrows = 0
                        for i in range(4):
                            d += lam[i] - mu[i]
                            if lam[i] > 0:
                                lrows += 1
                            if mu[i] > 0:
                                mrows += 1
                        pc = 0
                        for i in range(4):
                            v = mu[i]
                            if v > 0 and (i == 0 or mu[i - 1] != v):
                                mmu = 0
                                mla = 0
                                for j in range(4):
                                    if mu[j] == v:
                                        mmu += 1
                                    if lam[j] == v:
                                        mla += 1
                                if mla + 1 == mmu:
                                    pc += 5 ** (mmu - 1)
                        qc = 0
                        for i in range(4):
                            v = lam[i]
                            if v > 0 and (i == 0 or lam[i - 1] != v):
                                mmu = 0
                                mla = 0
                                for j in range(4):
                                    if mu[j] == v:
                                        mmu += 1
                                    if lam[j] == v:
                                        mla += 1
                                if mla == mmu + 1:
                                    qc += 5 ** (mla - 1)
                        mu_idx[e] = id2idx[mid]
                        lam_idx[e] = s
                        delta[e] = d
                        pcode[e] = pc
                        qcode[e] = qc
                        colinc[e] = lrows - mrows
                        e += 1
    return mu_idx, lam_idx, delta, pcode, qcode, colinc
