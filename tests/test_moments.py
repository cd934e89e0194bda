import numpy as np
import pytest

from hlsixv import moments as mo
from hlsixv import six_vertex as sv
from hlsixv import verify as vf


def test_select_contours_k1_window():
    fam = mo.select_contours("hl", 1, [1], 0.5, (0.1,), (0.1,))
    assert len(fam.radii) == 1
    assert 0.1 < fam.radii[0] < 20.0  # enclose a, exclude 1/(t b) = 20


def test_select_contours_infeasible_named():
    with pytest.raises(mo.ContourError) as exc:
        mo.select_contours("hl", 3, [2, 1, 1], 0.5, (0.95, 0.95), (0.947,))
    assert "t^(k-1)" in str(exc.value)


def test_select_contours_nesting():
    fam = mo.select_contours("hl", 2, [2, 1], 0.5, (0.1, 0.05), (0.2,))
    r1, r2 = fam.radii
    assert r2 <= 0.5 * r1
    assert r2 > 0.1
    six = mo.select_contours("sixv", 2, [2, 1], 0.5, (0.1, 0.05), (0.2,))
    assert six.radii == (1.0 / r1, 1.0 / r2)


@pytest.mark.parametrize("moment", [
    lambda k, ms, N: mo.hl_moment(k, ms, N, 0.5, (0.4,), (0.4,)),
    lambda k, ms, N: mo.sixv_moment(k, ms, N, sv.SixVertexParams(t=0.5, a=(0.4,), b=(0.4,))),
], ids=["hl", "sixv"])
def test_moments_refuse_no_m_and_N_0_before_indexing(moment):
    with pytest.raises(ValueError, match="need at least one m"):
        moment(0, [], 1)
    with pytest.raises(ValueError, match="need N >= 1, got 0"):
        moment(1, [1], 0)
    with pytest.raises(ValueError, match="need at least one m"):
        mo.select_contours("hl", 0, [], 0.5, (0.4,), (0.4,))
    with pytest.raises(ValueError, match="need at least one m"):
        mo.hl_moment(0, [], 1, 0.5, (0.4,), (0.4,), radii=())


def test_hl_moment_degenerate_a_zero():
    for k, ms in [(1, [2]), (2, [2, 1])]:
        v = mo.hl_moment(k, ms, 2, 0.45, (1e-14,) * 2, (0.3, 0.2))
        assert v == pytest.approx(0.45 ** sum(ms), abs=1e-9)


def test_hl_moment_closed_form_point():
    v = mo.hl_moment(1, [1], 1, 0.5, (0.5,), (0.5,))
    assert v == pytest.approx(4 / 7, abs=1e-9)


def test_sixv_moment_closed_form_point():
    params = sv.SixVertexParams(t=0.5, a=(0.5,), b=(0.5,))
    v = mo.sixv_moment(1, [1], 1, params)
    assert v == pytest.approx(4 / 7, abs=1e-9)


def test_sixv_moment_degenerate_ab_zero():
    # paths never turn up, so h(m+1, N) = N and the moment is Q^{kN};
    # the HL side gives t^{kN - sum m} t^{sum m} = t^{kN}, matching exactly
    params = sv.SixVertexParams(t=0.5, a=(1e-14, 1e-14), b=(0.4,))
    v = mo.sixv_moment(1, [2], 1, params)
    assert v == pytest.approx(0.5, abs=1e-9)
    lhs, rhs, diff = mo.moment_match_check(1, [2], 1, 0.5, (1e-14, 1e-14), (0.4,))
    assert lhs == pytest.approx(0.5, abs=1e-9)
    assert diff < 1e-9


def test_moment_match_examples():
    lhs, rhs, diff = mo.moment_match_check(1, [1], 1, 0.5, (0.5,), (0.5,))
    assert lhs == pytest.approx(4 / 7, abs=1e-9)
    assert diff < 1e-9
    rng = np.random.default_rng(4)
    for _ in range(6):
        t = float(rng.uniform(0.35, 0.7))
        a = tuple(rng.uniform(0.05, 0.3, size=2))
        b = tuple(rng.uniform(0.05, 0.3, size=2))
        lhs, rhs, diff = mo.moment_match_check(2, [2, 1], 2, t, a, b)
        assert diff < 1e-7


def test_moments_match_exact_distribution():
    rng = np.random.default_rng(6)
    for k, ms, N in [(1, [1], 1), (1, [2], 2), (2, [2, 1], 2)]:
        t = float(rng.uniform(0.35, 0.7))
        a = tuple(rng.uniform(0.05, 0.3, size=max(ms)))
        b = tuple(rng.uniform(0.05, 0.3, size=N))
        integral = mo.hl_moment(k, ms, N, t, a, b)
        exact = vf.hl_exact_moment(k, ms, N, t, a, b) * t ** (sum(ms) - k * N)
        assert integral == pytest.approx(exact, abs=1e-8)
        params = sv.SixVertexParams(t=t, a=a, b=b)
        integral6 = mo.sixv_moment(k, ms, N, params)
        exact6 = vf.sixv_exact_moment(k, ms, N, t, a, b)
        assert integral6 == pytest.approx(exact6, abs=1e-8)


def test_contour_deformation_invariance():
    t, a, b = 0.5, (0.15, 0.1), (0.2, 0.1)
    base = mo.select_contours("hl", 2, [2, 1], t, a, b).radii
    v0 = mo.hl_moment(2, [2, 1], 2, t, a, b, radii=base)
    for scale in (0.85, 0.95, 1.02):
        radii = tuple(r * scale for r in base)
        v = mo.hl_moment(2, [2, 1], 2, t, a, b, radii=radii)
        assert abs(v - v0) < 1e-9


def test_change_of_variables_node_identity():
    t, ms, N = 0.5, [2, 1], 2
    a, b = (0.15, 0.1), (0.2, 0.1)
    Q, xi, u = sv.SixVertexParams(t=t, a=a, b=b).to_native()
    radii = mo.select_contours("hl", 2, ms, t, a, b).radii
    rng = np.random.default_rng(0)
    for r in radii:
        zs = r * np.exp(2j * np.pi * rng.random(8))
        for z1 in zs:
            for z2 in zs * 0.4:
                f_hl = mo.hl_integrand([z1, z2], ms, N, t, a, b)
                f_6v = mo.sixv_integrand([1 / z1, 1 / z2], ms, N, Q, xi, u)
                assert f_hl == pytest.approx(
                    t ** (sum(ms) - 2 * N) * f_6v, rel=1e-12
                )


def test_k1_monotone_in_m():
    t, a, b = 0.45, (0.3, 0.25, 0.2), (0.35,)
    vals = [mo.hl_moment(1, [m], 1, t, a, b) for m in (1, 2, 3)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


def test_quadrature_cap_error(monkeypatch):
    monkeypatch.setattr(mo, "START_NODES", 8)
    monkeypatch.setattr(mo, "MAX_NODES", 16)
    with pytest.raises(mo.QuadratureError, match="within 16 nodes"):
        mo.hl_moment(1, [1], 1, 0.5, (0.4,), (0.4,), tol=1e-16)


def _grid_mean(integrand, radii, n):
    """Mean of the full integrand over the n^k tensor grid of nodes."""
    zs = [mo._nodes(r, n) for r in radii]
    if len(zs) == 1:
        return np.mean(integrand(zs))
    if len(zs) == 2:
        return np.mean(integrand([zs[0][:, None], zs[1][None, :]]))
    return np.mean([np.mean(integrand([z1, zs[1][:, None], zs[2][None, :]]))
                    for z1 in zs[0]])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_circulant_sum_equals_direct_grid(k):
    rng = np.random.default_rng(180 + k)
    for _ in range(4):
        ms = sorted((int(v) for v in rng.integers(1, 4, size=k)), reverse=True)
        N = int(rng.integers(1, 3))
        t = float(rng.uniform(0.3, 0.8))
        a = tuple(rng.uniform(0.05, 0.15, size=max(ms)))
        b = tuple(rng.uniform(0.05, 0.15, size=N))
        Q, xi, u = sv.SixVertexParams(t=t, a=a, b=b).to_native()
        # nested circles: r_1 in [2, 5], then r_{j+1} / r_j in t * [0.5, 0.9]
        radii = np.cumprod(np.r_[rng.uniform(2.0, 5.0),
                                 t * rng.uniform(0.5, 0.9, size=k - 1)])
        sides = [
            (mo._hl_factors(ms, N, t, a, b),
             lambda zs: mo.hl_integrand(zs, ms, N, t, a, b), tuple(radii)),
            (mo._sixv_factors(ms, N, Q, xi, u),
             lambda ws: mo.sixv_integrand(ws, ms, N, Q, xi, u), tuple(1 / radii)),
        ]
        for n in (8, 16, 32):
            for factors, integrand, rr in sides:
                ref = _grid_mean(integrand, rr, n)
                assert abs(mo._quad(factors, rr, n) - ref) <= 1e-13 * abs(ref)


def test_k3_moments_match_exact_distribution():
    rng = np.random.default_rng(183)
    for _ in range(6):
        ms = sorted((int(v) for v in rng.integers(1, 4, size=3)), reverse=True)
        N = 1 + int(rng.integers(0, 2))
        t = float(rng.uniform(0.5, 0.75))
        a = tuple(float(v) for v in rng.uniform(0.05, 0.15, size=max(ms)))
        b = tuple(float(v) for v in rng.uniform(0.05, 0.15, size=N))
        lhs, rhs, diff = mo.moment_match_check(3, ms, N, t, a, b)
        assert diff < 1e-7
        exact = vf.hl_exact_moment(3, ms, N, t, a, b)
        exact6 = vf.sixv_exact_moment(3, ms, N, t, a, b)
        assert max(abs(lhs - exact), abs(rhs - exact6)) < 1e-8


@pytest.mark.parametrize("k, radii", [(1, (1.0, 0.4)), (3, (1.0,))],
                         ids=["more-radii-than-m", "k-beyond-m"])
def test_hl_moment_refuses_radii_that_do_not_match_k_and_ms(k, radii):
    """radii must give one radius per m and k must count the m: two radii for
    one m used to index past the factors, and k = 3 with one m and one
    radius returned the k = 1 moment."""
    with pytest.raises(ValueError, match="need one radius per m"):
        mo.hl_moment(k, [1], 1, 0.5, (0.4,), (0.4,), radii=radii)
    given = mo.hl_moment(1, [1], 1, 0.5, (0.4,), (0.4,), radii=(1.0,))
    assert given == pytest.approx(mo.hl_moment(1, [1], 1, 0.5, (0.4,), (0.4,)))
