import numpy as np
import pytest

from hlsixv import tboson as tb
from hlsixv import partitions as pt


def test_boson_weight_table():
    a, b, t, m = 0.7, 0.4, 0.3, 2
    assert tb.boson_weight(0, m, 0, m, a, t) == 1.0
    assert tb.boson_weight(0, m, 1, m - 1, a, t) == a
    assert tb.boson_weight(1, m, 0, m + 1, a, t) == pytest.approx(1 - t ** (m + 1))
    assert tb.boson_weight(1, m, 1, m, a, t) == a
    assert tb.boson_weight(0, m, 0, m, b, t, "red") == b
    assert tb.boson_weight(0, m, 1, m - 1, b, t, "red") == 1.0
    assert tb.boson_weight(1, m, 0, m + 1, b, t, "red") == pytest.approx(
        b * (1 - t ** (m + 1))
    )
    assert tb.boson_weight(1, m, 1, m, b, t, "red") == 1.0
    assert tb.boson_weight(0, m, 1, m, a, t) == 0.0  # non-conserving
    assert tb.boson_weight(0, 0, 1, -1, a, t) == 0.0


def test_row_element_basic_cases():
    a, b, t = 0.6, 0.45, 0.35
    assert tb.row_operator_element("B", a, (1,), (), 3, t) == pytest.approx(a)
    assert tb.row_operator_element("A", a, (2, 1), (1,), 4, t) == 0.0  # lengths differ
    assert tb.row_operator_element("Dbar", b, (), (), 3, t) == pytest.approx(1.0)
    assert tb.row_operator_element("Cbar", b, (1,), (), 3, t) == pytest.approx(
        b * (1 - t)
    )


@pytest.mark.parametrize("kind", ["A", "B", "Cbar", "Dbar"])
def test_row_elements_equal_skew_polynomials(kind):
    rng = np.random.default_rng(hash(kind) % 2**31)
    box = [tuple(l) for l in pt.partitions_in_box(4, 4)]
    for _ in range(2):
        x = float(rng.uniform(0.1, 0.9))
        t = float(rng.uniform(0.1, 0.9))
        for lam in box:
            for mu in box:
                got = tb.row_operator_element(kind, x, lam, mu, 4, t)
                eq = pt.num_rows(lam) == pt.num_rows(mu)
                up = pt.num_rows(lam) == pt.num_rows(mu) + 1
                if kind == "A":
                    want = pt.skew_p_one(lam, mu, x, t) if eq else 0.0
                elif kind == "B":
                    want = pt.skew_p_one(lam, mu, x, t) if up else 0.0
                elif kind == "Cbar":
                    want = pt.skew_q_one(lam, mu, x, t) if up else 0.0
                else:
                    want = pt.skew_q_one(lam, mu, x, t) if eq else 0.0
                assert got == pytest.approx(want, abs=1e-13)


def test_row_element_stable_in_L():
    rng = np.random.default_rng(2)
    box = [tuple(l) for l in pt.partitions_in_box(3, 3)]
    x, t = 0.55, 0.4
    for lam in box:
        for mu in box:
            for kind in ("A", "B", "Cbar", "Dbar"):
                v3 = tb.row_operator_element(kind, x, lam, mu, 3, t)
                v6 = tb.row_operator_element(kind, x, lam, mu, 6, t)
                assert v3 == pytest.approx(v6, abs=1e-14)


def test_yang_baxter_trivial_and_random():
    for m in range(4):
        assert tb.verify_yang_baxter(0, 0, 0, 0, m, m, 0.5, 0.7, 0.3) < 1e-14
    assert tb.yang_baxter_max_residual(400, seed=21) < 1e-12


def test_yang_baxter_sensitivity_to_weight_perturbation(monkeypatch):
    orig = tb.boson_weight

    def perturbed(in_h, in_v, out_h, out_v, spectral, t, kind="black"):
        w = orig(in_h, in_v, out_h, out_v, spectral, t, kind)
        if kind == "black" and in_h == 1 and out_h == 0:
            w += 1e-6
        return w

    monkeypatch.setattr(tb, "boson_weight", perturbed)
    worst = 0.0
    for i1 in (0, 1):
        for i2 in (0, 1):
            for j1 in (0, 1):
                for j2 in (0, 1):
                    worst = max(
                        worst, tb.verify_yang_baxter(i1, i2, j1, j2, 2, 3, 0.6, 0.7, 0.4)
                    )
    assert worst > 1e-8


def test_exchange_relations_random_draws():
    rng = np.random.default_rng(8)
    for _ in range(12):
        a, b, t = rng.uniform(0.15, 0.85, size=3)
        for which in ("CA", "CB", "DA", "DB"):
            res = tb.verify_exchange_relation(which, 2, 2, float(a), float(b), float(t))
            assert res < 1e-12, (which, a, b, t, res)


def test_exchange_relations_of_a_draw_contract_each_row_once(monkeypatch):
    """The four relations of one draw read two start edges at two spectral
    parameters: four row contractions between them, each giving both end
    edges, and the same residuals bit for bit as one operator_matrix per
    operator."""
    L, cap, a, b, t = 3, 2, 0.4, 0.55, 0.3
    contract, calls = tb._row_contraction, []

    def spy(*args):
        calls.append(args)
        return contract(*args)

    monkeypatch.setattr(tb, "_row_contraction", spy)
    tb._kept_contractions.clear()
    residuals = {which: tb.verify_exchange_relation(which, L, cap, a, b, t)
                 for which in ("CA", "CB", "DA", "DB")}
    assert len(calls) == len(set(calls)) == 4
    monkeypatch.undo()
    tb._kept_contractions.clear()

    def op(kind, x):
        return tb.operator_matrix(kind, x, L, cap + 1, t)

    ab, binv = a * b, 1.0 / b
    lhs = (1 - ab) * op("C", binv) @ op("B", a) + ab * (1 - t) * op("A", binv) @ op("D", a)
    rhs = t * (1 - ab) * op("B", a) @ op("C", binv) + ab * (1 - t) * op("A", a) @ op("D", binv)
    keep = tb._capped_occupancies(L, cap)
    assert residuals["CB"] == float(np.max(np.abs(lhs[np.ix_(keep, keep)]
                                                  - rhs[np.ix_(keep, keep)])))


def test_exchange_contractions_above_the_kept_size_are_not_shared(monkeypatch):
    """Row contractions larger than KEPT_CONTRACTION_BYTES are made per
    operator, as operator_matrix makes them, none kept after the call, with
    the same residuals bit for bit as shared ones."""
    L, cap, a, b, t = 3, 2, 0.4, 0.55, 0.3
    tb._kept_contractions.clear()
    kept = [tb.verify_exchange_relation(which, L, cap, a, b, t)
            for which in ("CA", "CB", "DA", "DB")]
    contract, calls = tb._row_contraction, []

    def spy(*args):
        calls.append(args)
        return contract(*args)

    monkeypatch.setattr(tb, "_row_contraction", spy)
    # one byte below a contraction of L = 3, cap 2: 2 (cap + 2)^(2L) doubles
    monkeypatch.setattr(tb, "KEPT_CONTRACTION_BYTES", 16 * (cap + 2) ** (2 * L) - 1)
    tb._kept_contractions.clear()
    for which, residual in zip(("CA", "CB", "DA", "DB"), kept):
        assert tb.verify_exchange_relation(which, L, cap, a, b, t) == residual
        assert not tb._kept_contractions
    # CA and DB read 6 operators, CB and DA 8
    assert len(calls) == 28 and len(set(calls)) == 4


def test_exchange_db_degenerate_a_zero():
    res = tb.verify_exchange_relation("DB", 2, 2, 0.0, 0.6, 0.3)
    assert res < 1e-14


@pytest.mark.parametrize("L, cap, message", [
    (0, 2, "need L >= 1, got 0"),
    (2, -1, "need cap >= 0, got -1"),
])
def test_exchange_relation_refuses_L_below_1_and_cap_below_0(L, cap, message):
    with pytest.raises(ValueError, match=message):
        tb.verify_exchange_relation("CA", L, cap, 0.4, 0.5, 0.3)


@pytest.mark.parametrize("L, cap", [(1, 0), (1, 3), (2, 2), (3, 3), (4, 1)])
def test_exchange_basis_is_the_occupancies_up_to_cap(L, cap):
    """The compared sub-basis lists, in ascending order, the indices whose
    L base-(cap + 2) digits are all <= cap."""
    C = cap + 2
    expect = [idx for idx in range(C**L)
              if all(idx // C**site % C <= cap for site in range(L))]
    got = tb._capped_occupancies(L, cap)
    assert got.dtype.kind == "i"
    assert got.tolist() == expect


def test_operator_matrix_agrees_with_row_elements():
    L, cap, t, x = 2, 2, 0.3, 0.6
    n_occ = cap
    mat = tb.operator_matrix("B", x, L, n_occ, t)
    for lam in pt.partitions_in_box(2, L):
        for mu in pt.partitions_in_box(2, L):
            occ_l = tb.partition_occ_index(lam, L, n_occ)
            occ_m = tb.partition_occ_index(mu, L, n_occ)
            got = mat[occ_l, occ_m]
            want = tb.row_operator_element("B", x, lam, mu, L, t)
            assert got == pytest.approx(want, abs=1e-14)
