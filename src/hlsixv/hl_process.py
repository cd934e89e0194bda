"""Hall-Littlewood processes: weights, exact distributions, and samplers.

A process is specified by t, positive parameters a_1..a_M and b_1..b_N, and a
sign string S in S^+_{M,N}.  Step i of the process multiplies in a one-variable
skew factor: P_{next/prev}(a_{p(i)}) on a plus, Q_{prev/next}(b_{N-m(i)+1}) on
a minus, with empty partitions at both ends.

Exact computations run on a cached interlacing lattice (partitions with at
most min(M,N) rows, for any number of rows, and parts <= row_cap) whose
edges carry the skew-factor structure; parts above row_cap carry total mass
below a geometric tail bound, and the realized truncation deficit is reported
against the closed-form normalization constant.  The lattice keeps its edges
once, as one list sorted by (lam, colinc, mu), where colinc is the
first-column increment of the edge, which fixes the bit T(i) of the
outgoing string.  Each law gathers the weights of each of its distinct
steps into one sparse operator split by colinc, then applies it with
_kernels.scatter_accumulate: the level walk of the string law takes its two
halves apart, and a full step adds them.  Every half adds a target's terms
in lattice edge order, so the exact laws are the same bit for bit on every
run.  The DP sums the law of the outgoing string T; the support law
nu(T)/mu(S) and the first-column law are its pushforwards.
The string DP walks the live states only.  After steps 1..i a sequence that
returns to the empty partition has at most b_i = min(p(i), N - m(i), rows)
rows (_row_bounds), so step i maps the states with at most b_{i-1} rows to
those with at most b_i rows, from and back to {empty}.  The rule is
structural, so zero parameters change nothing: a plus adds at most one row,
so a state above p(i) rows carries exactly 0 mass, and a minus removes at
most one, so a state above N - m(i) rows reaches only states above the next
bound.  Dropping them drops only +0.0 terms and T-prefixes whose mass at
empty ends at 0, so every string's mass keeps its bits.
Each lattice keeps the last few string laws and forward and backward sweeps
summed on it (_memoized), so the support and first-column laws of one (spec,
cap) share one DP, and the marginals of one (spec, cap) share one forward
and one backward sweep.  The memo dies with its lattice; _LATTICES keeps at
most MAX_CACHED_BYTES and drops the least recently used lattice first.  The
marginals and the step tables of the enumerator, its count and the exact
sampler read one backward sweep: a table keeps the edges whose target can
still return to empty.  That bwd > 0 pruning is exact, and those layers need
the backward masses anyway; the string DP has none, and a backward sweep
would cost it M+N more operator builds, about what the row bounds save.
The support pushforward of a sequence validates each distinct partition,
and traces each distinct (row counts, S), once per process in bounded
caches, so pushing a whole sequence law costs a few dictionary hits per
sequence.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np
from scipy import sparse

from . import _kernels, partitions as pt
from .distributions import DiscreteDistribution

SkewDiagram = namedtuple("SkewDiagram", ["outer", "inner"])


class TruncationError(ValueError):
    """Requested row cap cannot meet the truncation tolerance."""


@dataclass(frozen=True)
class HLProcessSpec:
    t: float
    a: tuple
    b: tuple
    S: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        object.__setattr__(self, "S", pt.parse_signs(self.S))
        if not 0.0 < self.t < 1.0:
            raise ValueError(f"need 0 < t < 1, got {self.t}")
        if any(x < 0 for x in self.a) or any(x < 0 for x in self.b):
            raise ValueError("parameters a_i, b_j must be non-negative")
        for i, ai in enumerate(self.a):
            for j, bj in enumerate(self.b):
                if ai * bj >= 1.0:
                    raise ValueError(f"a_{i+1} b_{j+1} = {ai * bj} >= 1")
        M, N = len(self.a), len(self.b)
        if not pt.in_sign_class(self.S, M, N, +1):
            raise ValueError(
                f"S = {pt.signs_to_str(self.S)} is not in S^+_{{{M},{N}}}"
            )

    @property
    def M(self) -> int:
        return len(self.a)

    @property
    def N(self) -> int:
        return len(self.b)

    def steps(self):
        """(kind, param) per step i = 1..M+N: kind '+' uses a_{p(i)}, '-' uses b_{N-m(i)+1}."""
        out = []
        p = m = 0
        for s in self.S:
            if s == 1:
                p += 1
                out.append(("+", self.a[p - 1]))
            else:
                m += 1
                out.append(("-", self.b[self.N - m]))
        return out

    def mu(self) -> tuple:
        """The frozen inner partition mu(S)."""
        return pt.partition_from_string(self.S, self.M, self.N)

    @classmethod
    def from_json(cls, d: dict) -> "HLProcessSpec":
        """Load from {"t": ..., "a": [...], "b": [...], "S": "++--"}."""
        return cls(t=d["t"], a=tuple(d["a"]), b=tuple(d["b"]),
                   S=pt.parse_signs(d["S"]))

    def to_json(self) -> dict:
        return {"t": self.t, "a": list(self.a), "b": list(self.b),
                "S": pt.signs_to_str(self.S)}


# ---------------------------------------------------------------------------
# closed-form normalization and truncation control


def normalization_pi(spec: HLProcessSpec) -> float:
    """Pi^S = prod over pairs i<j with (S(i),S(j))=(+,-) of (1-t a b)/(1-a b)."""
    pi = 1.0
    steps = spec.steps()
    for i, (kind, ai) in enumerate(steps):
        if kind == "+":
            for kind_j, bj in steps[i + 1:]:
                if kind_j == "-":
                    pi *= (1.0 - spec.t * ai * bj) / (1.0 - ai * bj)
    return pi


# The largest truncation deficit 1 - Z/Pi^S row_cap admits, and the target of
# minimal_row_cap's tail bound.
DEFICIT_TOL = 1e-12


# The largest cap minimal_row_cap's tail bound may ask for; a tail ratio that
# needs more raises TruncationError.
TAIL_CAP_MAX = 400


def minimal_row_cap(spec: HLProcessSpec) -> int:
    """Smallest cap R whose geometric tail bound falls below DEFICIT_TOL.

    Sequences containing a part > R carry unnormalized mass at most
    K rho^{R+1}/(1-rho) with rho = max a_i b_j, K counting the (step, pair)
    combinations.  row_cap widens it until the realized deficit against Pi^S
    is within DEFICIT_TOL.
    """
    rho = max((ai * bj for ai in spec.a for bj in spec.b), default=0.0)
    if rho == 0.0:
        return 1
    K = (spec.M + spec.N) * spec.M * spec.N * max(1.0, normalization_pi(spec))
    bound = K / (1.0 - rho)
    cap = 1
    while bound * rho ** (cap + 1) >= DEFICIT_TOL:
        cap += 1
        if cap > TAIL_CAP_MAX:
            raise TruncationError(
                f"tail ratio {rho} too close to 1: cap {TAIL_CAP_MAX} insufficient for "
                f"tol {DEFICIT_TOL}"
            )
    return max(cap, 4)


def row_cap(spec: HLProcessSpec) -> int:
    """The row cap of spec's exact laws: minimal_row_cap rounded up to a
    multiple of 8, widened by 8 until the realized deficit 1 - Z/Pi^S of the
    forward DP is at most DEFICIT_TOL.  The tail bound alone undercounts the paths
    through many small parameters (at plancherel_spec(K=128) its cap 8 leaves
    1e-7).  LatticeTooLarge when no buildable cap gets there, and
    TruncationError when a widening leaves the deficit where it was: the
    forward sweep's rounding then sets a floor above DEFICIT_TOL (2.8e-12
    at plancherel_spec(K=16000), caps 16 and 24 alike) that no wider cap
    lowers."""
    pi = normalization_pi(spec)
    cap = -(-minimal_row_cap(spec) // 8) * 8
    deficit = 1.0 - _forward_mass(spec, cap) / pi
    while deficit > DEFICIT_TOL:
        cap += 8
        wider = 1.0 - _forward_mass(spec, cap) / pi
        if not wider < deficit:
            raise TruncationError(
                f"deficit {wider:.3g} at row cap {cap} is no lower than at cap "
                f"{cap - 8}: the forward sweep's rounding floor lies above tol "
                f"{DEFICIT_TOL}"
            )
        deficit = wider
    return cap


def _forward_mass(spec: HLProcessSpec, row_cap: int) -> float:
    """Z: the mass of the sequences with parts <= row_cap, by the forward DP."""
    lat = get_lattice(min(spec.M, spec.N), row_cap)
    return _forward_sweep(lat, spec)[-1][lat.empty]


# ---------------------------------------------------------------------------
# interlacing lattice with precomputed skew-factor structure


def _factor_table(factors, t):
    """prod_e (1 - t^e)^count_e per exponent multiset, multiplied in ascending e."""
    tab = np.ones(len(factors))
    for k, counts in enumerate(factors):
        w = 1.0
        for e, c in enumerate(counts, 1):
            if c:
                w *= (1.0 - t**e) ** c
        tab[k] = w
    return tab


@dataclass
class _Lattice:
    """The edges mu < lam, stored once in lattice edge order: sorted by lam,
    then by colinc (0 when lam has as many rows as mu, 1 when it has one
    more), then by mu.  mu_idx and edge_class are one CSR structure with 2n
    rows 2 lam + colinc: the edges of lam with increment c are
    [indptr[2 lam + c]:indptr[2 lam + c + 1]]."""

    rows: int
    cap: int
    states: list
    index: dict
    indptr: np.ndarray
    mu_idx: np.ndarray  # int32, per edge
    edge_class: np.ndarray  # int32; edges of one class share |lam| - |mu| and skew factors
    colinc: np.ndarray  # int8, per edge
    class_delta: np.ndarray  # |lam| - |mu| per class
    class_pkey: np.ndarray  # per class, the entry of pfactors
    class_qkey: np.ndarray
    pfactors: list  # per key, the count of (1 - t^e) factors for e = 1..rows
    qfactors: list
    # the last MEMO_ENTRIES DP results summed on this lattice, by key, the
    # most recently used last (_memoized)
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def empty(self) -> int:
        """The index of the empty partition."""
        return self.index[pt.EMPTY]

    def class_weights(self, kind, param, t):
        """Weight x^(|lam| - |mu|) times the skew factor of each edge class:
        P factors for kind '+', Q factors for '-'."""
        powtab = float(param) ** np.arange(self.cap + 1, dtype=np.float64)
        if kind == "+":
            factor = _factor_table(self.pfactors, t)[self.class_pkey]
        else:
            factor = _factor_table(self.qfactors, t)[self.class_qkey]
        return powtab[self.class_delta] * factor

    def operator(self, kind, param, t, backward=False, bounds=None):
        """The sparse matrix of one process step, split by colinc, for apply:
        kind '+' moves mass up the lattice, '-' down; backward is the
        transpose (for backward mass tables).  Its rows are 2 target +
        colinc, and each row adds its terms from 0 in lattice edge order.  A
        step toward lam is the lattice's CSR structure; a step toward mu is a
        CSC matrix with columns lam on the same edges.  Building one costs a
        gather over the edges and one scipy matrix construction, so a caller
        builds each distinct step once.

        bounds = (before, after), the step's row bounds b_{i-1} and b_i of
        _row_bounds, keeps only the states with at most `before` rows before
        the step and at most `after` rows after it, each side numbered in
        lattice order among its kept states.  An edge mu < lam is kept or
        dropped by its row 2 lam + colinc alone, as mu has rows(lam) - colinc
        rows, so a kept row keeps all its terms in their order and a dropped
        one adds only terms that are 0 on the walk's live states.  Bounds at
        the lattice's row count, or None, keep every state: the full step,
        which the sweeps and the step tables use."""
        n_lam = n_mu = len(self.states)
        indptr, mu_idx, colinc, edge_class = (
            self.indptr, self.mu_idx, self.colinc, self.edge_class)
        if bounds is not None and min(bounds) < self.rows:
            # lam is the state after a plus and before a minus
            lam_rows, mu_rows = bounds[::-1] if kind == "+" else bounds
            nrows = np.fromiter(map(len, self.states), np.intp, n_lam)
            lam_live = nrows <= lam_rows
            # the rows 2 lam + colinc of the kept lam, emptied where mu has
            # more than mu_rows rows
            kept = (nrows[lam_live, None] - (0, 1) <= mu_rows).ravel()
            first = indptr[:-1].reshape(-1, 2)[lam_live].ravel()
            counts = np.diff(indptr).reshape(-1, 2)[lam_live].ravel() * kept
            indptr = np.zeros(len(counts) + 1, dtype=np.int32)
            np.cumsum(counts, out=indptr[1:])
            edges = np.arange(indptr[-1]) + np.repeat(first - indptr[:-1], counts)
            mu_pos = np.cumsum(nrows <= mu_rows, dtype=np.int32) - 1
            mu_idx, colinc, edge_class = mu_pos[mu_idx[edges]], colinc[edges], edge_class[edges]
            n_lam, n_mu = len(counts) // 2, int(mu_pos[-1]) + 1
        data = self.class_weights(kind, param, t).take(edge_class)
        if (kind == "+") != backward:
            return sparse.csr_matrix((data, mu_idx, indptr), shape=(2 * n_lam, n_mu))
        return sparse.csc_matrix((data, 2 * mu_idx + colinc, indptr[::2]),
                                 shape=(2 * n_mu, n_lam))

    @property
    def nbytes(self) -> int:
        """The bytes of the lattice's arrays and of its memo's vectors."""
        held = [v for v in vars(self).values() if isinstance(v, np.ndarray)]
        for value in self.memo.values():
            held += [v for v in value if isinstance(v, np.ndarray)]
        return sum(v.nbytes for v in held)

    def apply(self, op, vecs):
        """op applied to one vector, or to each column of vecs: the colinc-0
        half of the step and its colinc-1 half, whose sum is the full step."""
        out = _kernels.scatter_accumulate(op, vecs)
        return out[0::2], out[1::2]


def _operators(lat: _Lattice, steps, t, backward=False) -> list:
    """lat.operator of each (kind, param) in steps, each distinct one built
    once."""
    built: dict = {}
    for step in steps:
        if step not in built:
            built[step] = lat.operator(*step, t, backward=backward)
    return [built[step] for step in steps]


def _sweep(lat: _Lattice, ops) -> list:
    """The unit mass at the empty partition, then the vector after each of
    ops applied in turn."""
    vec = np.zeros(len(lat.states))
    vec[lat.empty] = 1.0
    vecs = [vec]
    for op in ops:
        half0, half1 = lat.apply(op, vecs[-1])
        vecs.append(half0 + half1)
    return vecs


# How many DP results (string laws, forward and backward sweeps) a lattice
# keeps: the exact checks ask for each one at most twice, one right after the
# other.
MEMO_ENTRIES = 4


def _memoized(lat: _Lattice, key, compute):
    """compute(), summed once per key while lat keeps it: lat.memo holds the
    last MEMO_ENTRIES results, the most recently used last.  A result is
    never changed, so a hit is the one summed first, bit for bit."""
    memo = lat.memo
    value = memo.pop(key, None)
    if value is not None:
        memo[key] = value
        return value
    value = memo[key] = compute()
    if len(memo) > MEMO_ENTRIES:
        del memo[next(iter(memo))]
    _evict(keep=lat)
    return value


def _forward_sweep(lat: _Lattice, spec: HLProcessSpec) -> list:
    """_sweep of all of spec's steps on lat, read-only and memoized: entry i
    is the forward mass after steps 1..i."""
    steps = spec.steps()
    return _memoized(lat, ("forward", spec.t, tuple(steps)),
                     lambda: _read_only(_sweep(lat, _operators(lat, steps, spec.t))))


def _backward_sweep(lat: _Lattice, spec: HLProcessSpec) -> tuple:
    """(ops, bwd): the backward operator of each of spec's steps, and
    bwd[i][s], the mass of the completions of state s by steps i+1..M+N."""
    ops = _operators(lat, spec.steps(), spec.t, backward=True)
    return ops, _sweep(lat, ops[::-1])[::-1]


def _backward_masses(lat: _Lattice, spec: HLProcessSpec) -> list:
    """_backward_sweep's bwd, read-only and memoized; its operators are
    not kept."""
    return _memoized(lat, ("backward", spec.t, tuple(spec.steps())),
                     lambda: _read_only(_backward_sweep(lat, spec)[1]))


def _read_only(vecs: list) -> list:
    """vecs, each made read-only, so that a memoized sweep is never changed."""
    for vec in vecs:
        vec.flags.writeable = False
    return vecs


class LatticeTooLarge(ValueError):
    """The interlacing lattice asked for has more edges than get_lattice builds."""


# Largest edge count get_lattice builds: 5.8 times the 2.76M edges of rows 3,
# cap 32, the largest lattice the exact checks reach, admitting rows 3 up to
# cap 44, rows 4 up to cap 25 and rows 5 up to cap 18.  The build peaks near
# 80 bytes per edge and the finished lattice keeps 9 bytes per edge (mu and
# class as int32, colinc as int8) and its row pointer, so the largest
# lattice allowed peaks near 1.3 GB and keeps 0.15 GB.  A cap from
# minimal_row_cap's range up to TAIL_CAP_MAX (rows 3, cap 400: 6.0e12 edges)
# is refused at once.
MAX_LATTICE_EDGES = 16_000_000

# Most bytes (_Lattice.nbytes) the lattices in _LATTICES keep together: twice
# what the largest lattice get_lattice builds keeps (at most 10 bytes per
# edge with its row pointer), so it stays cached with its memo beside
# smaller ones.  Past it, the least recently used lattices are dropped; the
# one in use stays even when it alone is larger.
MAX_CACHED_BYTES = 2 * 10 * MAX_LATTICE_EDGES

# (rows, cap) -> _Lattice, the most recently used last
_LATTICES: dict = {}


def _evict(keep: _Lattice):
    """Drop the least recently used lattices but keep until _LATTICES holds
    at most MAX_CACHED_BYTES."""
    sizes = {key: lat.nbytes for key, lat in _LATTICES.items()}
    held = sum(sizes.values())
    for key, size in sizes.items():
        if held <= MAX_CACHED_BYTES:
            break
        if _LATTICES[key] is not keep:
            del _LATTICES[key]
            held -= size


def get_lattice(rows: int, cap: int) -> _Lattice:
    """The interlacing lattice on partitions with at most `rows` rows (any
    number) and parts <= cap, cached per (rows, cap) in _LATTICES, least
    recently used first out (_evict)."""
    if cap < 0:
        raise ValueError(f"need a row cap >= 0, got {cap}")
    key = (rows, cap)
    lat = _LATTICES.pop(key, None)
    if lat is not None:
        _LATTICES[key] = lat
        return lat
    # an edge mu < lam is one non-increasing sequence lam_1 >= mu_1 >= lam_2
    # >= ... >= mu_rows of length 2 rows with values in [0, cap]
    n_edges = comb(cap + 2 * rows, 2 * rows)
    if n_edges > MAX_LATTICE_EDGES:
        raise LatticeTooLarge(
            f"interlacing lattice with {rows} rows and row cap {cap} has "
            f"{n_edges} edges, above the limit of {MAX_LATTICE_EDGES}"
        )
    parts = _kernels.box_partitions(rows, cap)
    states = [pt.strip_zeros(tuple(lam)) for lam in parts.tolist()]
    index = {lam: i for i, lam in enumerate(states)}
    (mu_idx, lam_idx, colinc, edge_class, class_delta,
     (class_pkey, pfactors), (class_qkey, qfactors)) = _kernels.build_interlacing_edges(parts)
    # the builder lists the edges by lam, then mu; sort them by their rows
    # 2 lam + colinc and reorder one array at a time, so that at most one
    # extra copy is alive
    row = 2 * lam_idx + colinc
    del lam_idx
    order = np.argsort(row, kind="stable")
    indptr = np.zeros(2 * len(states) + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=2 * len(states)), out=indptr[1:])
    del row
    mu_idx = mu_idx.astype(np.int32)[order]
    edge_class = edge_class.astype(np.int32)[order]
    colinc = colinc[order]
    del order
    lat = _Lattice(
        rows=rows,
        cap=cap,
        states=states,
        index=index,
        indptr=indptr,
        mu_idx=mu_idx,
        edge_class=edge_class,
        colinc=colinc,
        class_delta=class_delta,
        class_pkey=class_pkey,
        class_qkey=class_qkey,
        pfactors=pfactors,
        qfactors=qfactors,
    )
    _LATTICES[key] = lat
    _evict(keep=lat)
    return lat


# ---------------------------------------------------------------------------
# weights and reference (enumeration-based) distributions


def sequence_weight(seq, spec: HLProcessSpec) -> float:
    """Unnormalized weight prod_i W^{(S,i)} of (lam^(1), ..., lam^(M+N-1)),
    from partitions.py's skew factors: an oracle independent of the lattice."""
    seq = tuple(pt.as_partition(lam) for lam in seq)
    if len(seq) != spec.M + spec.N - 1:
        raise ValueError(
            f"sequence length {len(seq)} != M+N-1 = {spec.M + spec.N - 1}"
        )
    chain = (pt.EMPTY,) + seq + (pt.EMPTY,)
    w = 1.0
    for i, (kind, param) in enumerate(spec.steps()):
        prev, cur = chain[i], chain[i + 1]
        if kind == "+":
            w *= pt.skew_p_one(cur, prev, param, spec.t)
        else:
            w *= pt.skew_q_one(prev, cur, param, spec.t)
        if w == 0.0:
            return 0.0
    return w


def _step_tables(lat: _Lattice, spec: HLProcessSpec) -> tuple:
    """(bwd, tables): _backward_sweep's masses, and per step the rows
    2 source + colinc of its backward operator as CSR, keeping the edges of
    nonzero weight whose target has bwd[i+1] > 0, as (indptr, dst, weight):
    the edges out of state s are [indptr[s]:indptr[s+1]], in (colinc,
    target) order."""
    ops, bwd = _backward_sweep(lat, spec)
    tables = []
    for op, live in zip(ops, bwd[1:]):
        op = op.tocsr()
        keep = (op.data != 0.0) & (live[op.indices] > 0)
        indptr = np.concatenate(([0], np.cumsum(keep)))[op.indptr[::2]]
        tables.append((indptr, op.indices[keep], op.data[keep]))
    return bwd, tables


def _enumerate_sequences(lat: _Lattice, tables):
    """All admissible sequences with parts <= the lattice cap, with their
    weights: the paths through the step tables from the empty partition back
    to it.

    All paths advance one step at a time: each is repeated once per edge out
    of its current state, in edge order, so they come in depth-first order,
    and each weight is the product of its edge weights from left to right."""
    at = np.array([lat.empty])
    paths = np.empty((1, 0), dtype=np.int32)  # states visited before `at`
    w = np.ones(1)
    for i, (indptr, dst, weight) in enumerate(tables):
        first = indptr[at]
        deg = indptr[at + 1] - first
        parent = np.repeat(np.arange(len(at)), deg)
        # the copies of a path, numbered from np.cumsum(deg) - deg, take
        # the edges numbered from first
        edge = np.arange(len(parent)) + np.repeat(first - np.cumsum(deg) + deg, deg)
        w = w[parent] * weight[edge]
        at = dst[edge]
        paths = paths[parent]
        if i + 1 < len(tables):
            paths = np.column_stack((paths, at))
    # the sequences column by column: one list lookup per state visited
    seqs = zip(*(map(lat.states.__getitem__, col) for col in paths.T.tolist()))
    return zip(seqs, w.tolist())


def _count_sequences(lat: _Lattice, tables) -> int:
    """How many sequences _enumerate_sequences yields, counted by one
    unit-weight pass per step over the step tables."""
    n = len(lat.states)
    paths = np.zeros(n)
    paths[lat.empty] = 1.0
    for indptr, dst, _ in tables:
        # columns are sources: each edge adds its source's path count to dst
        edges = sparse.csc_matrix((np.ones(len(dst)), dst, indptr), shape=(n, n))
        paths = _kernels.scatter_accumulate(edges, paths)
    return int(paths[lat.empty])


# The most sequences exact_sequence_distribution enumerates.
MAX_SEQUENCES = 2_000_000


def exact_sequence_distribution(spec: HLProcessSpec, row_cap: int) -> DiscreteDistribution:
    """Enumerate all sequences with parts <= row_cap; normalize by enumerated mass.

    The deficit of the enumerated mass against Pi^S is reported as
    mass_deficit; the caller's row_cap must keep it below ~1e-12 relative.
    This is the exponential reference enumerator: it walks the lattice's
    step tables path by path, where the support/marginal laws sum them by
    DP.  The sequences are counted first, and more than MAX_SEQUENCES of
    them raise ValueError before any is enumerated; a row cap whose lattice
    cannot be built raises LatticeTooLarge at once.
    """
    lat = get_lattice(min(spec.M, spec.N), row_cap)
    tables = _step_tables(lat, spec)[1]
    count = _count_sequences(lat, tables)
    if count > MAX_SEQUENCES:
        raise ValueError(
            f"{count} sequences, more than {MAX_SEQUENCES}; use the DP-backed "
            "laws or lower row_cap"
        )
    outcomes: dict = {}
    total = 0.0
    for seq, w in _enumerate_sequences(lat, tables):
        outcomes[seq] = outcomes.get(seq, 0.0) + w
        total += w
    return _law(spec, outcomes, total)


def _law(spec: HLProcessSpec, masses: dict, total) -> DiscreteDistribution:
    """The law of the outcomes of masses, each normalized by total, with the
    deficit 1 - total/Pi^S; TruncationError when there is no mass."""
    if total <= 0:
        raise TruncationError("no admissible sequences under row_cap")
    return DiscreteDistribution(
        {k: m / total for k, m in masses.items()},
        mass_deficit=1.0 - total / normalization_pi(spec),
    )


# ---------------------------------------------------------------------------
# support observable


def support_string(seq, S) -> tuple:
    """The outgoing string T built from first-column increments along seq."""
    return _support(seq, S)[0]


def support_of_sequence(seq, S) -> SkewDiagram:
    """The skew diagram nu(T)/mu(S) supporting the sequence."""
    return _support(seq, S)[1]


def first_columns(seq) -> tuple:
    """(lambda^(i)'_1) along the sequence."""
    return _rows(seq)


@lru_cache(maxsize=1 << 14)
def _rows_of(lam) -> int:
    """lambda'_1 of lam, validated by as_partition once per distinct value."""
    return len(pt.as_partition(lam))


def _rows(seq) -> tuple:
    """_rows_of of each partition of seq, in order, each made a tuple so that
    it can be a cache key."""
    return tuple(map(_rows_of, map(tuple, seq)))


@lru_cache(maxsize=1 << 12)
def _support_of_rows(rows, S) -> tuple:
    """(T, nu(T)/mu(S)) of a sequence whose partitions have these row counts:
    T(i) = +1 where step i leaves the first column alone on a plus or
    shortens it on a minus, -1 where it grows it on a plus or keeps it on a
    minus."""
    S = pt.parse_signs(S)
    if len(rows) != len(S) - 1:
        raise ValueError(f"{len(rows)} partitions for {len(S)} signs")
    rows = (0,) + rows + (0,)
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
    # a sequence from and back to the empty partition gives T the counts of S
    T = tuple(T)
    return T, SkewDiagram(outer=pt._traced_partition(T), inner=pt._traced_partition(S))


def _support(seq, S) -> tuple:
    """(T, nu(T)/mu(S)) of seq: one cache hit per partition and one per
    (row counts, S) once each value has been seen."""
    rows = _rows(seq)
    return _support_of_rows(rows, S if isinstance(S, str) else tuple(S))


def first_columns_from_strings(S, T) -> tuple:
    """lambda'_1(i) = (1/2) sum_{j<=i} (S(j) - T(j)), i = 1..M+N-1."""
    S, T = pt.parse_signs(S), pt.parse_signs(T)
    acc, out = 0, []
    for sj, tj in zip(S[:-1], T[:-1]):
        acc += (sj - tj) // 2
        out.append(acc)
    return tuple(out)


def exact_support_string_distribution(
    spec: HLProcessSpec, row_cap: int
) -> DiscreteDistribution:
    """Exact law of the outgoing string T via per-T constrained DP.

    Steps every T-prefix one level at a time: at step i the two colinc
    halves of that step's operator map the mass vectors of all live
    prefixes at once, the child with T(i) = +1 (no first-column increment on
    a plus, a decrement on a minus) before the child with T(i) = -1, and
    prefixes left without mass are dropped.  The strings thus come in
    depth-first order, +1 before -1, the order in which their masses are
    summed.  Step i runs over the states with at most b_i = min(p(i),
    N - m(i), rows) rows only: the others cannot return to the empty
    partition, so leaving them out changes no mass by a bit (module
    docstring).  Probabilities are normalized by the total enumerated mass;
    the deficit against Pi^S is reported.  The masses and their total are
    memoized on the lattice per (t, steps), so the support and first-column
    laws of one (spec, cap) share one DP; each call builds a fresh law from
    them through _law.
    """
    lat = get_lattice(min(spec.M, spec.N), row_cap)
    steps = spec.steps()
    masses, total = _memoized(lat, ("string", spec.t, tuple(steps)),
                              lambda: _string_masses(lat, steps, spec.t))
    return _law(spec, masses, total)


def _string_masses(lat: _Lattice, steps, t) -> tuple:
    """(mass per outgoing string T, their total) by the level walk of
    exact_support_string_distribution: one apply per step, of the operator
    bounded by _row_bounds, each distinct (step, bounds) built once.  The
    vectors start and end on the states with 0 rows, the empty partition
    alone."""
    vecs = np.ones((1, 1))  # one column per live T-prefix
    tbits = np.zeros((1, 0), dtype=np.int8)
    b = _row_bounds(steps, lat.rows)
    built: dict = {}
    for step, bounds in zip(steps, zip(b, b[1:])):
        op = built.get((step, bounds))
        if op is None:
            op = built[step, bounds] = lat.operator(*step, t, bounds=bounds)
        half0, half1 = lat.apply(op, vecs)
        out = np.empty((len(half0), 2 * vecs.shape[1]))
        out[:, 0::2], out[:, 1::2] = (half0, half1) if step[0] == "+" else (half1, half0)
        live = out.any(axis=0)
        vecs = out[:, live]
        tbits = np.column_stack(
            (np.repeat(tbits, 2, axis=0), np.tile((1, -1), len(tbits)))
        )[live]
    masses = {tuple(T): m for T, m in zip(tbits.tolist(), vecs[0].tolist()) if m > 0.0}
    return masses, sum(masses.values())


def _row_bounds(steps, rows) -> list:
    """b_0..b_{M+N}: after steps 1..i a sequence that returns to the empty
    partition has at most b_i = min(p(i), N - m(i), rows) rows, as a plus
    adds at most one row and a minus removes at most one."""
    minus = sum(kind == "-" for kind, _ in steps)
    p = m = 0
    bounds = [0]
    for kind, _ in steps:
        p += kind == "+"
        m += kind == "-"
        bounds.append(min(p, minus - m, rows))
    return bounds


def exact_support_distribution(
    spec: HLProcessSpec, row_cap: int
) -> DiscreteDistribution:
    """Exact law of the support nu(T)/mu(S): the string law pushed forward."""
    mu = spec.mu()
    return exact_support_string_distribution(spec, row_cap).map_keys(
        lambda T: (pt.partition_from_string(T, spec.M, spec.N), mu)
    )


def exact_first_column_distribution(
    spec: HLProcessSpec, row_cap: int
) -> DiscreteDistribution:
    """Joint law of (lambda'_1(1), ..., lambda'_1(M+N-1)).

    Pushforward of the string law under the column/support duality; the
    duality itself is verified pathwise by tests on sampled sequences.
    """
    return exact_support_string_distribution(spec, row_cap).map_keys(
        lambda T: first_columns_from_strings(spec.S, T)
    )


def exact_marginal_distribution(
    spec: HLProcessSpec, position: int, row_cap: int
) -> DiscreteDistribution:
    """Exact law of lambda^(position), position in 1..M+N-1."""
    if not 1 <= position <= spec.M + spec.N - 1:
        raise ValueError("position out of range")
    lat = get_lattice(min(spec.M, spec.N), row_cap)
    mass = _forward_sweep(lat, spec)[position] * _backward_masses(lat, spec)[position]
    return _law(spec, {lat.states[i]: mass[i] for i in np.nonzero(mass)[0]}, mass.sum())


# ---------------------------------------------------------------------------
# exact sequential sampling


class SequenceSampler:
    """Samples sequences by exact forward conditionals.

    Backward completion masses come from the lattice DP; per-state conditional
    tables are built lazily as states are visited.
    """

    def __init__(self, spec: HLProcessSpec, row_cap: int, seed: int):
        self.rng = np.random.default_rng(seed)
        self.lat = get_lattice(min(spec.M, spec.N), row_cap)
        self.steps = spec.steps()
        # bwd[i][s]: the mass of the completions of state s by steps i+1..M+N
        self.bwd, self._edges = _step_tables(self.lat, spec)
        if self.bwd[0][self.lat.empty] <= 0:
            raise TruncationError("no admissible sequences under row_cap")
        self._tables: dict = {}

    def _conditional(self, i, src):
        """(targets, cumulative probabilities) of step i from state src: the
        edges of _step_tables in (colinc, target) order, weighted by their
        completion mass, those of zero weight dropped."""
        key = (i, src)
        tab = self._tables.get(key)
        if tab is not None:
            return tab
        indptr, dst, weight = self._edges[i]
        targets = dst[indptr[src]:indptr[src + 1]]
        weights = weight[indptr[src]:indptr[src + 1]] * self.bwd[i + 1][targets]
        keep = weights > 0
        cum = np.cumsum(weights[keep])
        cum /= cum[-1]
        tab = (targets[keep].tolist(), cum)
        self._tables[key] = tab
        return tab

    def sample(self):
        src = self.lat.empty
        seq = []
        for i in range(len(self.steps) - 1):
            targets, cum = self._conditional(i, src)
            j = int(np.searchsorted(cum, self.rng.random(), side="right"))
            src = targets[min(j, len(targets) - 1)]
            seq.append(self.lat.states[src])
        return tuple(seq)


def sample_sequence(spec: HLProcessSpec, row_cap: int, seed: int):
    """One sequence drawn from the exact (truncated) process law."""
    return SequenceSampler(spec, row_cap, seed).sample()


# ---------------------------------------------------------------------------
# discretized Plancherel approximation


def plancherel_spec(t: float, rates, tau: float, K: int) -> HLProcessSpec:
    """Ascending process approximating the Plancherel specialization.

    K one-variable specializations b = tau/((1-t)K) approximate Plancherel(tau)
    with O(1/K) error: per factor, (1 - t x b)/(1 - x b) -> exp((1-t) b x).
    """
    rates = tuple(float(c) for c in rates)
    M = len(rates)
    b = tau / ((1.0 - t) * K)
    S = tuple([1] * M + [-1] * K)
    return HLProcessSpec(t=t, a=rates, b=(b,) * K, S=S)
