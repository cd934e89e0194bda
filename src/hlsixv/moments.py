"""Nested contour-integral t-moment formulas for both models.

Circles centered at the origin, evaluated by the periodic trapezoid rule
(spectrally accurate for these rational integrands), doubling the node count
until two successive values agree.  On the Hall-Littlewood side the contours
shrink geometrically (gamma_1 outermost, r_s <= t r_r for r < s), enclose 0
and the a-parameters and exclude the points 1/(t b_j); the six-vertex side
uses the z -> 1/w image of the same family.  Infeasible parameter regimes
(the direct integral requires roughly a b < t^{k-1}) raise ContourError with
the violated inequality spelled out rather than silently continuing.

Both integrands are a prefactor times one factor per variable times one
factor per pair of variables, and each pair factor depends only on the
ratio of its two variables: (1 - rho)/(t - rho) on the Hall-Littlewood side
and (1 - rho)/(1 - Q rho) on the six-vertex side.  With n equally spaced
nodes on every circle a pair factor is therefore a circulant in the two
node indices, and the grid sum is a circular correlation: the mean of the
one-variable factor at k = 1, three FFTs at k = 2, and two FFTs per node of
the outer circle at k = 3, so O(n^(k-1) log n) work in place of the n^k
tensor grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .six_vertex import SixVertexParams


class ContourError(ValueError):
    """No admissible contour family for the requested parameters."""


class QuadratureError(RuntimeError):
    """Node-doubling hit the cap without meeting the tolerance."""


@dataclass(frozen=True)
class ContourFamily:
    side: str  # 'hl' or 'sixv'
    radii: tuple  # gamma_1..gamma_k (hl: decreasing) or delta_1..delta_k (increasing)

    def __len__(self):
        return len(self.radii)


_SAFETY = 0.9


def select_contours(side: str, k: int, ms, t: float, a, b) -> ContourFamily:
    """Geometric radii r_j = r_1 (t * _SAFETY)^{j-1} when feasible.

    ms must be non-increasing; contour j must enclose a_1..a_{m_j} and
    exclude every 1/(t b_y) of the b given, which the moments pass as
    b_1..b_N.
    """
    if k < 1:
        raise ValueError(f"need at least one m, got k = {k}")
    ms = [int(m) for m in ms]
    if len(ms) != k or any(ms[i] < ms[i + 1] for i in range(k - 1)) or ms[-1] < 1:
        raise ValueError("need m_1 >= ... >= m_k >= 1")
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) < ms[0]:
        raise ValueError("need a_1..a_{m_1}")
    excl = min(1.0 / (t * by) for by in b)
    r1 = _SAFETY * excl
    radii = [r1 * (t * _SAFETY) ** j for j in range(k)]
    for j, r in enumerate(radii):
        amax = max(a[: ms[j]], default=0.0)
        if r <= amax / _SAFETY:
            raise ContourError(
                f"contour {j+1} of radius {r:.6g} cannot enclose "
                f"max(a_1..a_{ms[j]}) = {amax:.6g} while excluding "
                f"min 1/(t b_y) = {excl:.6g}; direct integral needs roughly "
                f"a_x b_y < t^(k-1) = {t ** (k - 1):.6g}"
            )
    if side == "hl":
        return ContourFamily("hl", tuple(radii))
    if side == "sixv":
        return ContourFamily("sixv", tuple(1.0 / r for r in radii))
    raise ValueError("side must be 'hl' or 'sixv'")


# ---------------------------------------------------------------------------
# integrands: a prefactor, one factor per variable and one per pair


class _Integrand(NamedTuple):
    """prefactor * prod_l single(l, z_l) * prod_{i<j} pair(z_j / z_i)."""

    prefactor: float
    single: Callable
    pair: Callable

    def __call__(self, zs):
        val = self.prefactor
        for l, z in enumerate(zs):
            val = val * self.single(l, z)
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                val = val * self.pair(zs[j] / zs[i])
        return val


def _hl_factors(ms, N, t, a, b) -> _Integrand:
    def single(l, z):
        f = np.ones_like(z)
        for by in b[:N]:
            f = f * (1.0 - z * by) / (1.0 - t * z * by)
        for ai in a[: ms[l]]:
            f = f * (t * z - ai) / (z - ai)
        return f

    def pair(rho):  # (z_i - z_j) / (t z_i - z_j)
        return (1.0 - rho) / (t - rho)

    k = len(ms)
    return _Integrand(t ** (k * (k - 1) // 2), single, pair)


def _sixv_factors(ms, N, Q, xi, u) -> _Integrand:
    rq = math.sqrt(Q)

    def single(l, w):
        f = np.ones_like(w)
        for uy in u[:N]:
            f = f * (1.0 - Q * w * uy) / (1.0 - w * uy)
        for xx in xi[: ms[l]]:
            f = f * (xx - w / rq) / (xx - rq * w)
        return f

    def pair(rho):  # (w_i - w_j) / (w_i - Q w_j)
        return (1.0 - rho) / (1.0 - Q * rho)

    k = len(ms)
    return _Integrand(Q ** (k * (k - 1) // 2), single, pair)


def hl_integrand(zs, ms, N, t, a, b):
    """Full integrand of the k-fold Hall-Littlewood moment formula.

    zs is a sequence of k broadcastable complex arrays; includes the
    t^{k(k-1)/2} prefactor, excludes the node weights 1/(2 pi i) dz/z.
    """
    return _hl_factors(ms, N, t, a, b)(zs)


def sixv_integrand(ws, ms, N, Q, xi, u):
    """Full integrand of the six-vertex Q-moment formula (native parameters)."""
    return _sixv_factors(ms, N, Q, xi, u)(ws)


# ---------------------------------------------------------------------------
# quadrature

# rows of outer nodes summed per block at k = 3, so that no temporary holds
# more than about this many complex numbers
_BLOCK = 1 << 15


def _nodes(radius, n):
    ang = 2.0 * np.pi * np.arange(n) / n
    return radius * np.exp(1j * ang)


def _circulant(pair, r_outer, r_inner, n):
    """c[d] = pair(rho) for inner node q = outer node p + d (mod n)."""
    return pair(_nodes(r_inner / r_outer, n))


def _quad(integrand: _Integrand, radii, n):
    """Mean of the integrand over the tensor grid of n nodes per circle.

    Each pair factor is a circulant c[(q - p) mod n] of the node indices,
    and sum_{p,q} g[p] h[q] c[q - p] = sum_j fft(c)[j] fft(g)[j] ifft(h)[j],
    so k = 2 costs three FFTs and k = 3 two FFTs per outer node.
    """
    k = len(radii)
    if k > 3:
        raise ValueError("k > 3 not supported")
    f = [integrand.single(l, _nodes(r, n)) for l, r in enumerate(radii)]
    if k == 1:
        return integrand.prefactor * np.mean(f[0])
    # fft of the pair circulant of the two innermost variables
    c_hat = np.fft.fft(_circulant(integrand.pair, radii[-2], radii[-1], n))
    if k == 2:
        acc = np.sum(c_hat * np.fft.fft(f[0]) * np.fft.ifft(f[1]))
    else:
        c12 = _circulant(integrand.pair, radii[0], radii[1], n)
        c13 = _circulant(integrand.pair, radii[0], radii[2], n)
        acc = 0.0
        step = max(1, _BLOCK // n)
        q = np.arange(n)
        for p0 in range(0, n, step):
            p = np.arange(p0, min(p0 + step, n))
            d = (q[None, :] - p[:, None]) % n  # row p is c rolled by +p
            g = np.fft.fft(f[1] * c12[d], axis=1)
            h = np.fft.ifft(f[2] * c13[d], axis=1)
            acc = acc + f[0][p] @ ((g * h) @ c_hat)
    return integrand.prefactor * acc / n**k


def _moment(integrand, radii, tol, full):
    """The real value of the integrand's mean over the contours, doubling the
    nodes from START_NODES until two successive values agree to tol; with
    full, a dict that also gives the nodes and radii."""
    n = START_NODES
    prev = _quad(integrand, radii, n)
    while n < MAX_NODES:
        n *= 2
        val = _quad(integrand, radii, n)
        if abs(val - prev) <= tol * max(1.0, abs(val)):
            break
        prev = val
    else:
        raise QuadratureError(f"no convergence to {tol} within {MAX_NODES} nodes")
    if abs(val.imag) > 100 * tol:
        raise QuadratureError(f"imaginary residue {val.imag} in moment value")
    if full:
        return {"value": float(val.real), "nodes": n, "radii": tuple(radii)}
    return float(val.real)


def _check_inputs(ms, N, t, b, tol):
    if not ms:
        raise ValueError("need at least one m, got none")
    if not 0.0 < t < 1.0:
        raise ValueError(f"need 0 < t < 1, got {t}")
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if len(b) < N:
        raise ValueError(f"need b_1..b_N for N = {N}, got {len(b)} b values")
    if not tol > 0.0:
        raise ValueError(f"need tol > 0, got {tol}")


# the node counts of the quadrature: it starts at START_NODES and doubles
# until two values agree or MAX_NODES is reached
START_NODES = 256
MAX_NODES = 4096


def hl_moment(k, ms, N, t, a, b, tol: float = 1e-9, radii=None, full: bool = False):
    """E[prod_i t^{m_i - lambda'_1(m_i, N)}] for the ascending process.

    radii overrides the automatic contour selection (they are still required
    to satisfy the nesting conditions by the caller): one radius per m, so
    ValueError unless len(radii) == k == len(ms).
    """
    ms = [int(m) for m in ms]
    _check_inputs(ms, N, t, b, tol)
    if radii is not None and not len(radii) == k == len(ms):
        raise ValueError(
            f"need one radius per m: k = {k}, {len(ms)} m values, {len(radii)} radii"
        )
    if radii is None:
        radii = select_contours("hl", k, ms, t, a, b[:N]).radii
    return _moment(_hl_factors(ms, N, t, a, b), radii, tol, full)


def sixv_moment(k, ms, N, params: SixVertexParams, tol: float = 1e-9,
                full: bool = False):
    """E[prod_i Q^{h(m_i + 1, N)}] for the quadrant six vertex model."""
    ms = [int(m) for m in ms]
    _check_inputs(ms, N, params.t, params.b, tol)
    Q, xi, u = params.to_native()
    radii = select_contours("sixv", k, ms, params.t, params.a, params.b[:N]).radii
    return _moment(_sixv_factors(ms, N, Q, xi, u), radii, tol, full)


def moment_match_check(k, ms, N, t, a, b, tol: float = 1e-9) -> tuple:
    """(lhs, rhs, |lhs - rhs|): rescaled HL moment against the 6v moment.

    lhs = t^{kN - sum m_i} E[prod t^{m_i - lambda'_1(m_i)}]
        = E[t^{sum (N - lambda'_1(m_i))}], rhs = E[Q^{sum h(m_i+1, N)}].
    """
    ms = [int(m) for m in ms]
    lhs = t ** (k * N - sum(ms)) * hl_moment(k, ms, N, t, a, b, tol=tol)
    rhs = sixv_moment(k, ms, N, SixVertexParams(t=t, a=tuple(a), b=tuple(b)), tol=tol)
    return lhs, rhs, abs(lhs - rhs)
