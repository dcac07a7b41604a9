from fractions import Fraction

import pytest

from mshe.structure import (
    EQUATIONS,
    Homogeneity,
    StructureParams,
    build_structure,
)

# The canonical table at d = 3: symbol -> (q, m) with homogeneity q + m*kappa.
TABLE_U = {
    "1": (Fraction(0), 0),
    "I(Xi)": (Fraction(1, 2), -1),
    "I(Xi*I(Xi))": (Fraction(1), -2),
    "X_1": (Fraction(1), 0),
    "X_2": (Fraction(1), 0),
    "X_3": (Fraction(1), 0),
    "I(Xi*I(Xi*I(Xi)))": (Fraction(3, 2), -3),
    "I(Xi*X_1)": (Fraction(3, 2), -1),
    "I(Xi*X_2)": (Fraction(3, 2), -1),
    "I(Xi*X_3)": (Fraction(3, 2), -1),
}
TABLE_F = {
    "Xi": (Fraction(-3, 2), -1),
    "Xi*I(Xi)": (Fraction(-1), -2),
    "Xi*I(Xi*I(Xi))": (Fraction(-1, 2), -3),
    "Xi*X_1": (Fraction(-1, 2), -1),
    "Xi*X_2": (Fraction(-1, 2), -1),
    "Xi*X_3": (Fraction(-1, 2), -1),
    "Xi*I(Xi*I(Xi*I(Xi)))": (Fraction(0), -4),
    "Xi*I(Xi*X_1)": (Fraction(0), -2),
    "Xi*I(Xi*X_2)": (Fraction(0), -2),
    "Xi*I(Xi*X_3)": (Fraction(0), -2),
}

# The table at d = 1 (SHE, space-time noise: |Xi| = -3/2 - kappa).
TABLE_U_D1 = {
    "1": (Fraction(0), 0),
    "I(Xi)": (Fraction(1, 2), -1),
    "I(Xi*I(Xi))": (Fraction(1), -2),
    "X_1": (Fraction(1), 0),
    "I(Xi*I(Xi*I(Xi)))": (Fraction(3, 2), -3),
    "I(Xi*X_1)": (Fraction(3, 2), -1),
}
TABLE_F_D1 = {
    "Xi": (Fraction(-3, 2), -1),
    "Xi*I(Xi)": (Fraction(-1), -2),
    "Xi*I(Xi*I(Xi))": (Fraction(-1, 2), -3),
    "Xi*X_1": (Fraction(-1, 2), -1),
    "Xi*I(Xi*I(Xi*I(Xi)))": (Fraction(0), -4),
    "Xi*I(Xi*X_1)": (Fraction(0), -2),
}
# The table at d = 2 (PAM, spatial noise: |Xi| = -1 - kappa), as in Hairer,
# "A theory of regularity structures" (2014): four negative F-symbols.
TABLE_U_D2 = {
    "1": (Fraction(0), 0),
    "I(Xi)": (Fraction(1), -1),
    "X_1": (Fraction(1), 0),
    "X_2": (Fraction(1), 0),
}
TABLE_F_D2 = {
    "Xi": (Fraction(-1), -1),
    "Xi*I(Xi)": (Fraction(0), -2),
    "Xi*X_1": (Fraction(0), -1),
    "Xi*X_2": (Fraction(0), -1),
}


def _exact_table(kappa, d):
    rs = build_structure(StructureParams(kappa=kappa, d=d))
    return ({str(s): (s.homogeneity.q, s.homogeneity.m) for s in rs.symbols_U},
            {str(s): (s.homogeneity.q, s.homogeneity.m) for s in rs.symbols_F})


def test_full_table_exact_d1():
    assert _exact_table(0.01, 1) == (TABLE_U_D1, TABLE_F_D1)


@pytest.mark.parametrize("kappa", [0.01, 0.05, 0.1])
def test_full_table_exact_d2(kappa):
    assert _exact_table(kappa, 2) == (TABLE_U_D2, TABLE_F_D2)


def test_full_table_exact_d3():
    rs = build_structure(StructureParams(kappa=0.01, d=3))
    got_u = {str(s): (s.homogeneity.q, s.homogeneity.m) for s in rs.symbols_U}
    got_f = {str(s): (s.homogeneity.q, s.homogeneity.m) for s in rs.symbols_F}
    assert got_u == TABLE_U
    assert got_f == TABLE_F


def test_noise_homogeneity_follows_the_equation():
    # -d/2 - kappa for spatial white noise, -(d + 2)/2 - kappa in space-time
    want = {"she1d": Fraction(-3, 2), "pam2d": Fraction(-1), "pam3d": Fraction(-3, 2)}
    for name, (d, _) in EQUATIONS.items():
        assert StructureParams(kappa=0.05, d=d).alpha == Homogeneity(want[name], -1)


def test_sizes_d3():
    rs = build_structure(StructureParams(kappa=0.01, d=3))
    assert len(rs.symbols_U) == 10
    assert len(rs.symbols_F) == 10


def test_x0_excluded():
    rs = build_structure(StructureParams(kappa=0.01, d=3))
    names = {str(s) for s in rs.symbols_U}
    assert "X_0" not in names  # scaled degree 2 >= gamma


def test_homogeneity_values():
    rs = build_structure(StructureParams(kappa=0.01, d=1))
    by_name = {str(s): s for s in rs.symbols_U + rs.symbols_F}
    assert by_name["Xi"].homogeneity.value(0.01) == pytest.approx(-1.51)
    assert by_name["1"].homogeneity.value(0.7) == 0.0
    # (1, -2) evaluated at kappa = 0.05
    assert by_name["I(Xi*I(Xi))"].homogeneity.value(0.05) == pytest.approx(0.90)


def test_closure_relations():
    params = StructureParams(kappa=0.01, d=2)
    rs = build_structure(params)
    u_names = {str(s) for s in rs.symbols_U}
    f_names = {str(s) for s in rs.symbols_F}
    kq = params.kappa_exact
    two = Homogeneity(Fraction(2), 0)
    for s in rs.symbols_U:
        prod_h = s.homogeneity + params.alpha
        expected = "Xi" if str(s) == "1" else f"Xi*{s}"
        if prod_h.less_than(params.gamma + params.alpha, kq):
            assert expected in f_names
    for s in rs.symbols_F:
        int_h = s.homogeneity + two
        if int_h.less_than(params.gamma, kq):
            assert f"I({s})" in u_names
            # |I(tau)| = |tau| + 2 exactly
            name = f"I({s})"
            tgt = next(t for t in rs.symbols_U if str(t) == name)
            assert tgt.homogeneity.q == s.homogeneity.q + 2
            assert tgt.homogeneity.m == s.homogeneity.m


def test_determinism():
    a = build_structure(StructureParams(kappa=0.03, d=3)).table()
    b = build_structure(StructureParams(kappa=0.03, d=3)).table()
    assert a == b


def test_product_homogeneity_additive():
    rs = build_structure(StructureParams(kappa=0.02, d=1))
    by_name = {str(s): s for s in rs.symbols_U + rs.symbols_F}
    tau = by_name["I(Xi)"]
    prod = by_name["Xi*I(Xi)"]
    xi = by_name["Xi"]
    assert prod.homogeneity.q == tau.homogeneity.q + xi.homogeneity.q
    assert prod.homogeneity.m == tau.homogeneity.m + xi.homogeneity.m


def test_rejects_bad_params():
    with pytest.raises(ValueError):
        StructureParams(kappa=0.2, d=3)
    with pytest.raises(ValueError):
        StructureParams(kappa=-0.01, d=3)
    with pytest.raises(ValueError):
        StructureParams(kappa=0.01, d=4)
