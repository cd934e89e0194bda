"""Stochastic six vertex model in a quadrant, truncated to (possibly jagged)
finite domains: one blocked Markovian sampler of the edges, the outgoing
string and heights read from them, exact transfer-matrix enumeration of the
same observables, and the half-continuous limit.

Conventions.  Vertices are (x, y), x = column >= 1, y = row >= 1.  Paths enter
occupied on the left of every row and travel up-right.  A vertex with a single
incoming horizontal edge passes straight with probability (1-ab)/(1-t ab) and
turns up otherwise; a single incoming vertical edge continues up with
probability t(1-ab)/(1-t ab) and turns right otherwise (a = a_x, b = b_y).
The height h(x, y) counts paths through or to the right of (x, y); it is pinned
to h(x, y) = y - #{occupied vertical edges (c, y)->(c, y+1), c < x}, the unique
reading with h(1, y) = y that matches the first-column laws of the matched
Hall-Littlewood process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, partitions as pt
from .distributions import DiscreteDistribution


@dataclass(frozen=True)
class SixVertexParams:
    """Matched-form parameters (t, a_x per column, b_y per row)."""

    t: float
    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        if not 0.0 < self.t < 1.0:
            raise ValueError(f"need 0 < t (=Q) < 1, got {self.t}")
        if any(x < 0 for x in self.a) or any(x < 0 for x in self.b):
            raise ValueError("parameters must be non-negative")
        for i, ax in enumerate(self.a):
            for j, by in enumerate(self.b):
                if ax * by >= 1.0:
                    raise ValueError(f"a_{i+1} b_{j+1} = {ax * by} >= 1")

    @classmethod
    def from_native(cls, Q: float, xi, u) -> "SixVertexParams":
        """Convert (Q, xi_x, u_y) with xi_x u_y > 1/sqrt(Q) to matched form."""
        xi = tuple(float(v) for v in xi)
        u = tuple(float(v) for v in u)
        if not 0.0 < Q < 1.0:
            raise ValueError(f"need 0 < Q < 1, got {Q}")
        for x, xv in enumerate(xi):
            for y, uv in enumerate(u):
                if xv * uv <= 1.0 / math.sqrt(Q):
                    raise ValueError(
                        f"xi_{x+1} u_{y+1} = {xv * uv} <= 1/sqrt(Q) = {1/math.sqrt(Q)}"
                    )
        a = tuple(math.sqrt(Q) / v for v in xi)
        b = tuple(1.0 / (Q * v) for v in u)
        return cls(t=Q, a=a, b=b)

    def to_native(self) -> tuple:
        """(Q, xi, u) with t = Q, xi_x = sqrt(t)/a_x, u_y = 1/(t b_y)."""
        Q = self.t
        xi = tuple(math.sqrt(Q) / ax for ax in self.a)
        u = tuple(1.0 / (Q * by) for by in self.b)
        return Q, xi, u


def vertex_branches(ab: float, t: float, h: bool, v: bool) -> tuple:
    """The outcomes (probability, h_out, v_out) of a vertex with column-row
    product ab entered by a path on the left iff h and from below iff v.

    With one path in there are two branches, and a sampler takes the first
    when a uniform falls below its probability; with none or two there is
    one sure branch.
    """
    if h == v:
        return ((1.0, h, v),)
    d = 1.0 - t * ab
    if h:
        return (((1.0 - ab) / d, True, False), ((1.0 - t) * ab / d, False, True))
    return ((t * (1.0 - ab) / d, False, True), ((1.0 - t) / d, True, False))


def vertex_probabilities(params: SixVertexParams, x: int, y: int) -> tuple:
    """(P(horizontal pass), P(turn up), P(vertical pass), P(turn right)) at (x,y)."""
    ab = params.a[x - 1] * params.b[y - 1]
    (p_pass, _, _), (p_up, _, _) = vertex_branches(ab, params.t, True, False)
    (p_vert, _, _), (p_right, _, _) = vertex_branches(ab, params.t, False, True)
    return p_pass, p_up, p_vert, p_right


def native_vertex_probabilities(Q: float, xi_x: float, u_y: float) -> tuple:
    """Same four probabilities straight from the native parameterization."""
    s = xi_x * u_y
    rq = math.sqrt(Q)
    d = 1.0 - s / rq
    return (
        (1.0 / Q - s / rq) / d,
        (1.0 - 1.0 / Q) / d,
        (1.0 - rq * s) / d,
        (Q - 1.0) * (s / rq) / d,
    )


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class JaggedDomain:
    """Quadrant truncation below the down-right cut path encoded by S."""

    M: int
    N: int
    S: tuple

    def __post_init__(self):
        object.__setattr__(self, "S", pt.parse_signs(self.S))
        if not pt.in_sign_class(self.S, self.M, self.N, +1):
            raise ValueError(
                f"S = {pt.signs_to_str(self.S)} not in S^+_{{{self.M},{self.N}}}"
            )

    @classmethod
    def rectangular(cls, M: int, N: int) -> "JaggedDomain":
        return cls(M, N, tuple([1] * M + [-1] * N))

    @property
    def mu(self) -> tuple:
        """Excised region mu(S), checked against the string bijection."""
        return pt.partition_from_string(self.S, self.M, self.N)

    def cut_points(self) -> list:
        """(x_i, y_i) for i = 0..M+N: right steps on +, down steps on -."""
        pts = [(0, self.N)]
        x, y = 0, self.N
        for s in self.S:
            if s == 1:
                x += 1
            else:
                y -= 1
            pts.append((x, y))
        return pts

    def column_heights(self) -> list:
        """H_x = top row of column x, for x = 1..M (non-increasing)."""
        H = []
        for i, (x, y) in enumerate(self.cut_points()[1:], start=1):
            if self.S[i - 1] == 1:
                H.append(y)
        return H

    def vertices(self) -> dict:
        """{(x, y): i}: the vertices column by column and bottom to top, the
        order the samplers visit them in, and i, the row of each in the
        edge arrays of `sample_edges`."""
        H = self.column_heights()
        order = [(x, y) for x in range(1, self.M + 1) for y in range(1, H[x - 1] + 1)]
        return {v: i for i, v in enumerate(order)}

    def outgoing_edges(self) -> list:
        """Cut-order outgoing edges: ('up', x, y), the edge above vertex
        (x, y), or ('right', x, y), the edge to its right.  Their x never
        decreases."""
        out = []
        pts = self.cut_points()
        for i, s in enumerate(self.S, start=1):
            x, y = pts[i]
            if s == 1:
                out.append(("up", x, y))
            else:
                out.append(("right", x, y + 1))
        return out


# ---------------------------------------------------------------------------
# exact transfer-matrix enumeration


def _column_outcomes(params, x, hx, hbits):
    """All resolutions of column x: (prob, out_hbits, vert_bits).

    hbits[y-1] is the entering horizontal edge of row y; vert_bits[y-1] the
    vertical edge above (x, y) (the last one is the column's top exit).
    """
    results = []

    def rec(y, v, acc_h, acc_v, prob):
        if y > hx:
            results.append((prob, tuple(acc_h), tuple(acc_v)))
            return
        ab = params.a[x - 1] * params.b[y - 1]
        for w, oh, ov in vertex_branches(ab, params.t, hbits[y - 1], v):
            acc_h.append(oh)
            acc_v.append(ov)
            rec(y + 1, ov, acc_h, acc_v, prob * w)
            acc_h.pop()
            acc_v.pop()

    rec(1, False, [], [], 1.0)
    return results


def _sweep(params, domain, update, init):
    """Generic left-to-right DP; `update(tracker, x, vert_bits, out_h)` folds
    per-column information into the hashable tracker state."""
    H = domain.column_heights()
    states = {(tuple([True] * H[0]), init): 1.0}
    for x in range(1, domain.M + 1):
        hx = H[x - 1]
        hnext = H[x] if x < domain.M else 0
        new: dict = {}
        for (hbits, trk), prob in states.items():
            for w, out_h, vert_bits in _column_outcomes(params, x, hx, hbits):
                ntrk = update(trk, x, vert_bits, out_h)
                nh = out_h[:hnext]
                key = (nh, ntrk)
                new[key] = new.get(key, 0.0) + prob * w
        states = new
    out: dict = {}
    for (_, trk), prob in states.items():
        out[trk] = out.get(trk, 0.0) + prob
    return out


MAX_EXACT_SIZE = 14  # largest M + N of an exact outgoing law: the sweep keeps ~2^(M+N) states


def exact_outgoing_string_distribution(
    params: SixVertexParams, domain: JaggedDomain
) -> DiscreteDistribution:
    """Exact law of the outgoing string T, T(i) = -1 where cut edge i is
    occupied."""
    if domain.M + domain.N > MAX_EXACT_SIZE:
        raise ValueError("domain too large for exact enumeration")
    # column x resolves the cut edges of abscissa x, which come next in T
    column_edges: dict = {}
    for kind, x, y in domain.outgoing_edges():
        column_edges.setdefault(x, []).append((kind == "up", y - 1))

    def update(T, x, vert_bits, out_h):
        return T + tuple(
            -1 if (vert_bits if up else out_h)[row] else 1
            for up, row in column_edges[x]
        )

    dist = DiscreteDistribution(_sweep(params, domain, update, ()))
    dist.check_normalized(1e-12)
    return dist


def exact_outgoing_distribution(
    params: SixVertexParams, domain: JaggedDomain
) -> DiscreteDistribution:
    """Exact law of the outgoing skew diagram nu(T)/mu(S): the string law
    pushed forward."""
    mu = domain.mu
    return exact_outgoing_string_distribution(params, domain).map_keys(
        lambda T: (pt.partition_from_string(T, domain.M, domain.N), mu)
    )


def _height_points(domain: JaggedDomain, points) -> list:
    """points as (x, y) int pairs, each a point whose height the domain
    fixes: 1 <= y <= N, 1 <= x <= M + 1, and every column left of x reaches
    row y.  ValueError otherwise."""
    H = domain.column_heights()
    points = [(int(x), int(y)) for x, y in points]
    for x, y in points:
        if not (1 <= y <= domain.N and 1 <= x <= domain.M + 1):
            raise ValueError(f"point {(x, y)} outside domain")
        if x > 1 and H[x - 2] < y:
            raise ValueError(f"point {(x, y)} above the cut path")
    return points


def exact_joint_height_distribution(
    params: SixVertexParams, domain: JaggedDomain, points
) -> DiscreteDistribution:
    """Exact joint law of (h(x_j, y_j)) at the given points."""
    H = domain.column_heights()
    points = _height_points(domain, points)

    def update(counters, x, vert_bits, out_h):
        hx = H[x - 1]
        lst = list(counters)
        for j, (px, py) in enumerate(points):
            if x < px and py <= hx and vert_bits[py - 1]:
                lst[j] += 1
        return tuple(lst)

    raw = _sweep(params, domain, update, tuple([0] * len(points)))
    outcomes = {
        tuple(py - c for (px, py), c in zip(points, cnt)): p
        for cnt, p in raw.items()
    }
    dist = DiscreteDistribution(outcomes)
    dist.check_normalized(1e-12)
    return dist


def joint_height_distribution(
    params: SixVertexParams, M: int, N: int, points
) -> DiscreteDistribution:
    """Joint height law on the rectangular M x N domain."""
    return exact_joint_height_distribution(
        params, JaggedDomain.rectangular(M, N), points
    )


def exact_cut_column_distribution(
    params: SixVertexParams, domain: JaggedDomain
) -> DiscreteDistribution:
    """Joint law of (y_i - h(x_i + 1, y_i)) along the cut path, i = 1..M+N-1."""
    pts = domain.cut_points()[1 : domain.M + domain.N]
    dist = exact_joint_height_distribution(
        params, domain, [(x + 1, y) for x, y in pts]
    )
    return dist.map_keys(
        lambda hs: tuple(y - h for (x, y), h in zip(pts, hs))
    )


# ---------------------------------------------------------------------------
# bulk sampling


def sample_edges(
    params: SixVertexParams, domain: JaggedDomain, n_samples: int, seed: int
) -> tuple:
    """(vert, horiz): bool [vertices, runs], the edge above and the edge to
    the right of each vertex in n_samples independent states, the vertices
    in the order of `JaggedDomain.vertices`.

    Runs are drawn in blocks of `_kernels.ENSEMBLE_BLOCK` from
    RandomState(seed).  Within a block the vertices are visited column by
    column, bottom to top, and each vertex draws one uniform per run of the
    block, used only where exactly one path enters: the path keeps its
    direction when the uniform falls below the first branch of
    vertex_branches.
    """
    H = domain.column_heights()
    rs = np.random.RandomState(seed)
    vert = np.empty((sum(H), n_samples), dtype=bool)
    horiz = np.empty_like(vert)
    for first in range(0, n_samples, _kernels.ENSEMBLE_BLOCK):
        runs = slice(first, min(first + _kernels.ENSEMBLE_BLOCK, n_samples))
        size = runs.stop - first
        i = 0
        for x in range(1, domain.M + 1):
            v = np.zeros(size, dtype=bool)
            for y in range(1, H[x - 1] + 1):
                p_pass, _, p_vert, _ = vertex_probabilities(params, x, y)
                in_h = horiz[i - H[x - 2], runs] if x > 1 else True
                keep = rs.random_sample(size) < np.where(in_h, p_pass, p_vert)
                horiz[i, runs] = np.where(in_h, v | keep, v & ~keep)
                v = vert[i, runs] = in_h ^ v ^ horiz[i, runs]  # paths are conserved
                i += 1
    return vert, horiz


def outgoing_occupancy(domain: JaggedDomain, vert, horiz) -> np.ndarray:
    """bool [M + N, runs]: row i is set where cut edge i is occupied, T(i) =
    -1, in the runs of `sample_edges`."""
    index = domain.vertices()
    return np.stack([
        (vert if kind == "up" else horiz)[index[x, y]]
        for kind, x, y in domain.outgoing_edges()
    ])


def edge_heights(domain: JaggedDomain, vert, points) -> np.ndarray:
    """int [points, runs]: h(x, y) = y - #{c < x : vert(c, y)} at each point
    (checked as in exact_joint_height_distribution) of the `sample_edges` runs."""
    index = domain.vertices()
    return np.array([
        y - vert[[index[c, y] for c in range(1, x)]].sum(axis=0)
        for x, y in _height_points(domain, points)
    ])


def sample_outgoing_counts(
    params: SixVertexParams, domain: JaggedDomain, n_samples: int, seed: int
) -> dict:
    """Monte Carlo counts of outgoing strings T over the n_samples states of
    `sample_edges`."""
    vert, horiz = sample_edges(params, domain, n_samples, seed)
    codes = np.zeros(n_samples, dtype=np.int64)
    for i, occupied in enumerate(outgoing_occupancy(domain, vert, horiz)):
        codes |= occupied.astype(np.int64) << i
    size = domain.M + domain.N
    counts = np.bincount(codes, minlength=1 << size)
    out = {}
    for code in np.nonzero(counts)[0]:
        T = tuple(-1 if (int(code) >> i) & 1 else 1 for i in range(size))
        out[T] = int(counts[code])
    return out


# ---------------------------------------------------------------------------
# half-continuous limit


def _excursion_batch(occ, level, coins, t):
    """One ring of the half-continuous dynamics in each run of a block.

    occ [rows, runs] holds the occupied rows, runs on the last axis; run r
    is rung at row level[r] (1-based).  A ring on an empty row does nothing.
    A ring on an occupied row empties it and sends an excursion up the rows:
    it crosses occupied rows surely and, at each empty row z (0-based),
    stops there and fills it when coins[r, z] < 1 - t, or else carries on;
    past the last row it leaves.  This is the rule of
    `rsk.pushtasep_apply_clock`, which reads the same coin at the same row.
    """
    runs = np.arange(occ.shape[1])
    row = level - 1
    climbing = occ[row, runs]
    occ[row, runs] = False
    for z in range(1, occ.shape[0]):
        stop = climbing & (row < z) & ~occ[z] & (coins[:, z] < 1.0 - t)
        occ[z] |= stop
        climbing &= ~stop


def half_continuous_height_ensemble(
    t: float, rates, query_times, n_runs: int, seed: int
) -> np.ndarray:
    """Heights h(tau, y) = #occupied rows among 1..y of independent runs of
    the half-continuous model: [n_runs, n_times, n_rows], the times in
    increasing order.

    Rows start occupied, and the path on row y turns up at rate b_y =
    rates[y-1] into the excursion of `_excursion_batch`.  The sampler is
    uniformized (Jensen 1953): the level clock of the rates rings row y with
    probability b_y / sum_y b_y, and a ring on an empty row does nothing,
    which keeps the law of the process with rate b_y on each occupied row.
    Runs step in lockstep (`_kernels._lockstep_ensemble`) on occ [row, run];
    after the waiting times and the level uniforms, each step reads the
    driver's [runs, rows] matrix of coins, row r feeding run r's excursion.
    """
    n_rows = len(rates)

    def start(runs):
        return np.ones((n_rows, runs), dtype=bool)

    def step(occ, level, coins):
        _excursion_batch(occ, level, coins, t)

    taus = np.asarray(sorted(float(q) for q in query_times))
    return _kernels._lockstep_ensemble(
        rates, t, taus, n_runs, seed, start, lambda occ: np.cumsum(occ, axis=0).T, step
    )
