"""t-boson vertices, row operators, Yang-Baxter and exchange-relation checks.

Vertices sit on a row of L sites; horizontal edges carry at most one path,
vertical edges any number.  Black-normalized vertices carry weights
(1, a, 1-t^{m+1}, a) for (pass, emit-right, absorb, pass-through); the red
normalization trades a -> b^{-1} and multiplies through by b, giving
(b, 1, b(1-t^{m+1}), 1), which keeps far-empty sites at weight 1 when a path
rides the whole row.

Row operators map the occupancy state on top of a row to states on the bottom;
composition ⟨x|XY|z⟩ = sum_p ⟨x|X|p⟩⟨p|Y|z⟩ stacks X below Y.  A partition is
identified with its multiplicity string (m_1, ..., m_L), site s = part size s.
The site walk runs left to right with site L leftmost; the left boundary edge
carries index i and the right boundary j of the operator T(i|j), with
(A, B; C, D) = (T(0|0), T(0|1); T(1|0), T(1|1)).
"""

from __future__ import annotations

import numpy as np

from . import partitions as pt
from .six_vertex import vertex_branches


def boson_weight(in_h: int, in_v: int, out_h: int, out_v: int, spectral: float,
                 t: float, kind: str = "black") -> float:
    """Single-vertex weight; 0 for non-conserving configurations."""
    if in_h + in_v != out_h + out_v:
        return 0.0
    if in_v < 0 or out_v < 0 or in_h not in (0, 1) or out_h not in (0, 1):
        return 0.0
    if kind == "black":
        if in_h == 0 and out_h == 0:
            return 1.0
        if in_h == 0 and out_h == 1:
            return float(spectral)
        if in_h == 1 and out_h == 0:
            return 1.0 - t ** (in_v + 1)
        return float(spectral)
    if kind == "red":
        if in_h == 0 and out_h == 0:
            return float(spectral)
        if in_h == 0 and out_h == 1:
            return 1.0
        if in_h == 1 and out_h == 0:
            return float(spectral) * (1.0 - t ** (in_v + 1))
        return 1.0
    raise ValueError(f"unknown normalization {kind!r}")


def _row_weight(i_edge, j_edge, bottom_occ, top_occ, spectral, t, kind):
    """Factorized weight of one row: walk sites L..1 left to right."""
    h = i_edge
    w = 1.0
    for s in range(len(bottom_occ) - 1, -1, -1):
        m, n = bottom_occ[s], top_occ[s]
        out_h = h + m - n
        if out_h not in (0, 1):
            return 0.0
        w *= boson_weight(h, m, out_h, n, spectral, t, kind)
        if w == 0.0:
            return 0.0
        h = out_h
    return w if h == j_edge else 0.0


def _occupancies(lam, L):
    """Site occupancies m_1..m_L of a partition already in canonical form."""
    if lam and lam[0] > L:
        raise ValueError(f"L = {L} smaller than largest part of {lam}")
    occ = [0] * L
    for p in lam:
        if p > 0:
            occ[p - 1] += 1
    return tuple(occ)


_KINDS = {
    "A": ("black", 0, 0, False),
    "B": ("black", 0, 1, False),
    "Cbar": ("red", 1, 0, True),
    "Dbar": ("red", 1, 1, True),
}


def row_operator_element(kind: str, spectral: float, lam, mu, L: int, t: float) -> float:
    """Matrix element in the convention of the skew-polynomial identities:

    A, B give ⟨lam| op |mu⟩; Cbar, Dbar give ⟨mu| op |lam⟩.  Each equals the
    corresponding indicator times P_{lam/mu} or Q_{lam/mu} once L covers the
    largest part.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {sorted(_KINDS)}")
    norm, i_edge, j_edge, swap = _KINDS[kind]
    lam, mu = pt.as_partition(lam), pt.as_partition(mu)
    if max([0] + [p for p in lam + mu]) > L:
        raise ValueError("L too small for the given partitions")
    bottom, top = (mu, lam) if swap else (lam, mu)
    return _row_weight(
        i_edge, j_edge, _occupancies(bottom, L), _occupancies(top, L), spectral, t, norm
    )


# ---------------------------------------------------------------------------
# finite-volume operator matrices


# (start edge i, end edge j) of each row operator T(i|j)
_EDGES = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}


def operator_matrix(kind: str, spectral: float, L: int, n_occ: int, t: float) -> np.ndarray:
    """Dense black-normalized T(i|j) on the basis of occupancy vectors in
    {0..n_occ}^L.

    M[bot, top] = row weight with the bottom/top occupancies decoded in walk
    order (site L most significant).  kind in 'A','B','C','D'.
    """
    i, j = _EDGES[kind]
    return _row_contraction(i, spectral, L, n_occ, t)[j]


def _row_contraction(i: int, spectral: float, L: int, n_occ: int, t: float) -> np.ndarray:
    """[j, bot, top]: T(i|j) for both end edges j, from one contraction of
    the row's site tensors from start edge i."""
    C = n_occ + 1
    # site tensor W[h_in, m_bottom, h_out, n_top]
    W = np.zeros((2, C, 2, C))
    for h in range(2):
        for m in range(C):
            for hp in range(2):
                n = m + h - hp
                if 0 <= n < C:
                    W[h, m, hp, n] = boson_weight(h, m, hp, n, spectral, t)
    part = np.zeros((2, 1, 1))
    part[i, 0, 0] = 1.0
    for _ in range(L):
        part = np.einsum("hbt,hmgn->gbmtn", part, W).reshape(
            2, part.shape[1] * C, part.shape[2] * C
        )
    return part


# The most bytes a row contraction (2 (n_occ + 1)^(2L) doubles) may hold to
# be shared.  The four relations of one draw (a, b, t) read the same four
# contractions, so the last draw's four are kept while each is this small:
# 1 MiB keeps L = 3 up to cap 4 and L = 4 up to cap 2, at most 4 MiB between
# calls.  A larger one is made for each operator that reads it, as
# operator_matrix makes it, so that no call holds four at once.
KEPT_CONTRACTION_BYTES = 1 << 20

# (L, n_occ, a, 1/b, t) -> the contractions of _draw_contractions, for the
# last draw only
_kept_contractions: dict = {}


def _draw_contractions(L: int, n_occ: int, a: float, binv: float, t: float):
    """{(i, spectral): _row_contraction} for both start edges i at the
    spectral parameters a and 1/b, read-only: every row an exchange relation
    of the draw (a, b, t) reads, kept in _kept_contractions for the draw's
    next relation.  None when each would hold more than
    KEPT_CONTRACTION_BYTES."""
    if 16 * (n_occ + 1) ** (2 * L) > KEPT_CONTRACTION_BYTES:
        return None
    key = (L, n_occ, a, binv, t)
    rows = _kept_contractions.get(key)
    if rows is None:
        _kept_contractions.clear()
        rows = _kept_contractions[key] = {}
        for spectral in (a, binv):
            for i in (0, 1):
                rows[i, spectral] = part = _row_contraction(i, spectral, L, n_occ, t)
                part.flags.writeable = False
    return rows


def occ_index(occ, n_occ: int) -> int:
    """Basis index of an occupancy vector (site L most significant)."""
    idx = 0
    for m in reversed(occ):
        idx = idx * (n_occ + 1) + m
    return idx


def partition_occ_index(lam, L: int, n_occ: int) -> int:
    occ = _occupancies(pt.as_partition(lam), L)
    if max(occ) > n_occ:
        raise ValueError("occupancy exceeds basis bound")
    return occ_index(occ, n_occ)


# ---------------------------------------------------------------------------
# Yang-Baxter


def _r6v(in_left, in_bottom, out_top, out_right, ab, t):
    """Stochastic six-vertex weight with column-row product ab: the
    probability of the branch of six_vertex.vertex_branches that leaves this
    way, 0 for no branch."""
    for p, h, v in vertex_branches(ab, t, bool(in_left), bool(in_bottom)):
        if (h, v) == (bool(out_right), bool(out_top)):
            return p
    return 0.0


def verify_yang_baxter(i1, i2, j1, j2, m, n, a, b, t) -> float:
    """|LHS - RHS| of the vertex-level Yang-Baxter relation.

    Both sides couple one black-boson column (occupancies m below, n above,
    intermediate p) to two row segments with spectral parameters b^{-1}
    (lower) and a (upper); the crossing vertex carries the six-vertex weights
    at parameter ab.
    """
    ab = a * b
    binv = 1.0 / b
    lhs = 0.0
    rhs = 0.0
    for k1 in (0, 1):
        for k2 in (0, 1):
            for p in range(0, m + n + 3):
                lhs += (
                    _r6v(i1, i2, k2, k1, ab, t)
                    * boson_weight(k1, m, j1, p, binv, t, "black")
                    * boson_weight(k2, p, j2, n, a, t, "black")
                )
                rhs += (
                    boson_weight(i2, m, k2, p, a, t, "black")
                    * boson_weight(i1, p, k1, n, binv, t, "black")
                    * _r6v(k1, k2, j2, j1, ab, t)
                )
    return abs(lhs - rhs)


def yang_baxter_max_residual(trials: int, seed: int) -> float:
    """Max residual over random (bits, occupancies 0..4, a, b, t) draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        i1, i2, j1, j2 = (int(v) for v in rng.integers(0, 2, size=4))
        m, n = (int(v) for v in rng.integers(0, 5, size=2))
        a = float(rng.uniform(0.05, 0.95))
        b = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(0.05, 0.95))
        worst = max(worst, verify_yang_baxter(i1, i2, j1, j2, m, n, a, b, t))
    return worst


# ---------------------------------------------------------------------------
# finite-volume exchange relations


def _capped_occupancies(L: int, cap: int) -> np.ndarray:
    """The basis indices, on occupancies <= cap + 1, of the occupancy
    vectors whose L sites all hold at most cap, in ascending order."""
    C = cap + 2
    digits = np.arange(C**L)[:, None] // C ** np.arange(L) % C
    return np.flatnonzero((digits <= cap).all(axis=1))


def verify_exchange_relation(which: str, L: int, cap: int, a: float, b: float,
                             t: float) -> float:
    """Max matrix-element residual of one finite-L exchange relation.

    Operators are built on occupancies <= cap+1 so that two-operator products
    are exact on the compared sub-basis (occupancies <= cap): a row vertex
    changes a site occupancy by at most one.  The operators are read from
    _draw_contractions, so the four relations of one draw (a, b, t)
    contract four rows between them, while the rows are small enough to
    keep; larger ones are built per operator by operator_matrix.
    ValueError for L < 1 or cap < 0, which leave no basis to compare.
    """
    if L < 1:
        raise ValueError(f"need L >= 1, got {L}")
    if cap < 0:
        raise ValueError(f"need cap >= 0, got {cap}")
    n_occ = cap + 1
    ab = a * b
    binv = 1.0 / b

    rows = _draw_contractions(L, n_occ, a, binv, t)

    def op(kind, spec):
        if rows is None:
            return operator_matrix(kind, spec, L, n_occ, t)
        i, j = _EDGES[kind]
        return rows[i, spec][j]

    if which == "CA":
        lhs = (1 - ab) * op("C", binv) @ op("A", a) + ab * (1 - t) * op("A", binv) @ op("C", a)
        rhs = (1 - t * ab) * op("A", a) @ op("C", binv)
    elif which == "CB":
        lhs = (1 - ab) * op("C", binv) @ op("B", a) + ab * (1 - t) * op("A", binv) @ op("D", a)
        rhs = t * (1 - ab) * op("B", a) @ op("C", binv) + ab * (1 - t) * op("A", a) @ op("D", binv)
    elif which == "DA":
        lhs = (1 - ab) * op("D", binv) @ op("A", a) + ab * (1 - t) * op("B", binv) @ op("C", a)
        rhs = (1 - ab) * op("A", a) @ op("D", binv) + (1 - t) * op("B", a) @ op("C", binv)
    elif which == "DB":
        lhs = (1 - ab) * op("D", binv) @ op("B", a) + ab * (1 - t) * op("B", binv) @ op("D", a)
        rhs = (1 - t * ab) * op("B", a) @ op("D", binv)
    else:
        raise ValueError("which must be CA, CB, DA or DB")

    keep = _capped_occupancies(L, cap)
    diff = lhs[np.ix_(keep, keep)] - rhs[np.ix_(keep, keep)]
    return float(np.max(np.abs(diff)))
