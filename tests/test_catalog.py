"""Catalog builders and their expected-property oracles."""

import math
import random
from fractions import Fraction

import pytest

from so3five.catalog import (
    CATALOG,
    build_entry,
    entry_json,
    expected_properties,
    flat_char_model,
    flat_constraint_residuals,
    six_dim_model,
    solve_flat_constraints,
    tor23_model,
    tor27_model,
    torsion_free_model,
    verify_expectations,
)
from so3five.connection import characteristic_connection, curvature, ricci
from so3five.exterior import CoframeModel, ModelError
from so3five.scalar import Scalar, scalar


def assert_all_ok(name, params):
    model, _, resolved = build_entry(name, params)
    rows = verify_expectations(model, expected_properties(name, resolved,
                                                          model))
    bad = ["%s (res %g): want %s, got %s" % (r["check"], r["residual"],
                                             r["expected"], r["computed"])
           for r in rows if not r["ok"]]
    assert not bad, "%s failed: %s" % (model.name, "; ".join(bad))


# -- oracle sweeps ----------------------------------------------------------


def test_torsion_free_family():
    for r in ("0", "1", "-1", "2", "-1/2"):
        assert_all_ok("torsion-free", {"r115": r})


def test_six_dim_case1_family():
    for a in ("0", "1", "-2", "1/3"):
        assert_all_ok("six-dim-1", {"a": a})


def test_six_dim_case2_family():
    for t1, t2 in (("1", "1"), ("2", "-1"), ("3", "2"), ("1", "0"),
                   ("0", "0"), ("1/5", "-2/5")):
        assert_all_ok("six-dim-2", {"t1": t1, "t2": t2})


def test_six_dim_case3_family():
    for t1, t2 in (("1", "1"), ("2", "-1"), ("1", "2"), ("0", "1"),
                   ("2", "3")):
        assert_all_ok("six-dim-3", {"t1": t1, "t2": t2})


def test_flat_char_entry():
    assert_all_ok("flat-char", {})
    assert_all_ok("flat-char", {"t1": "2"})
    assert_all_ok("flat-char", {"t1": "0", "t10": "1"})


def test_tor23_family():
    for params in ({"rho": "1", "eps": 1, "delta": 0},
                   {"rho": "1", "eps": 1, "delta": 1},
                   {"rho": "2", "eps": -1, "delta": 0},
                   {"rho": "1/2", "eps": -1, "delta": 1}):
        assert_all_ok("tor23", params)


def test_tor27_family():
    for params in ({"rho": "1"}, {"rho": "2"}, {"rho": "1/2"},
                   {"rho": "1", "phi": math.pi / 2},
                   {"rho": "1", "phi": math.pi / 3}):
        assert_all_ok("tor27", params)


def test_friedrich_point():
    assert_all_ok("friedrich", {})
    model, _, resolved = build_entry("friedrich", {})
    expect = expected_properties("friedrich", resolved, model)
    # this point sits on the canonical-connection line, not a pure-type line
    assert expect["pure"] is None


def test_tor23_trigonometric_points():
    assert_all_ok("tor23", {"rho": "1", "phi": math.pi / 2, "eps": 1,
                            "delta": 0})
    assert_all_ok("tor23", {"rho": "2", "phi": math.pi, "eps": -1,
                            "delta": 1})


def test_float_angle_path():
    # a generic angle exercises the floating-point branch end to end
    assert_all_ok("tor27", {"rho": "1", "phi": 1.234})
    assert_all_ok("tor23", {"rho": "1", "phi": 0.777, "eps": 1, "delta": 0})


def test_snapped_angles_stay_exact():
    assert tor27_model(1, math.pi / 3).is_exact
    assert tor23_model(1, math.pi / 2, 1, 1).is_exact
    assert not tor27_model(1, 1.234).is_exact


# -- pure-type torsion lines ------------------------------------------------


def pure_class(model):
    from so3five.connection import build_report
    rep = build_report(model)
    if rep.torsion.is_zero():
        return "zero"
    t3z = rep.torsion_t3.is_zero()
    t7z = rep.torsion_t7.is_zero()
    return "t3" if t7z and not t3z else "t7" if t3z and not t7z else "mixed"


def test_case2_pure_lines_seeded():
    rng = random.Random(20260822)
    for _ in range(5):
        t1 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        assert pure_class(six_dim_model(2, t1=t1, t2=2 * t1)) == "t3"
        t2 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        assert pure_class(six_dim_model(2, t1=-2 * t2, t2=t2)) == "t7"
        g1 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        g2 = g1 + Fraction(rng.randint(1, 5))
        if (g2 - 2 * g1) != 0 and (g1 + 2 * g2) != 0:
            assert pure_class(six_dim_model(2, t1=g1, t2=g2)) == "mixed"


def test_case3_pure_lines_seeded():
    rng = random.Random(4711)
    for _ in range(5):
        t1 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        assert pure_class(six_dim_model(3, t1=t1, t2=2 * t1)) == "t3"
        t2 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        assert pure_class(six_dim_model(3, t1=-2 * t2, t2=t2)) == "t7"


def case3_present(t1, t2):
    model, _, resolved = build_entry("six-dim-3", {"t1": t1, "t2": t2})
    from so3five.connection import build_report
    rep = build_report(model)
    return {k for k, v in rep.curvature_components["present"].items() if v}


def test_case3_curvature_component_regions():
    rng = random.Random(99)
    for _ in range(5):
        t1 = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        # on t2 = 2 t1 the 9-dimensional symmetric part drops out
        assert case3_present(t1, 2 * t1) == {"c1", "c5", "c15"}
        # on t1 = 0 and on 3 t1 = 2 t2 the 4-form part drops out
        assert case3_present(0, t1) == {"c1", "c5", "c9"}
        assert case3_present(2 * t1, 3 * t1) == {"c1", "c5", "c9"}
        # generic points carry all four
        t2 = 2 * t1 + Fraction(rng.randint(1, 5))
        if 3 * t1 != 2 * t2 and t1 != 2 * t2:
            assert case3_present(t1, t2) == {"c1", "c5", "c9", "c15"}


# -- flat-constraint machinery ----------------------------------------------


def test_flat_constraint_error_lists_residuals():
    with pytest.raises(ModelError) as err:
        flat_char_model([1, 0, 0, 0, 0, 1, 0, 0, 0, 0])
    msg = str(err.value)
    assert "residuals" in msg
    assert "1" in msg


def test_solver_needs_t10():
    with pytest.raises(ModelError):
        solve_flat_constraints(1, 0, 0, 1, 0, 0, 0)


def test_solver_special_points():
    t = solve_flat_constraints(0, 0, 0, 0, 0, 0, 1)
    assert all(v.is_zero() for v in t[:3])
    t = solve_flat_constraints(1, 0, 0, 1, 0, 0, 1)
    assert all(r.is_zero() for r in flat_constraint_residuals(t))


def test_seeded_flat_draws_are_exact():
    rng = random.Random(31337)
    for _ in range(100):
        tail = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                for _ in range(6)]
        t10 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        t = solve_flat_constraints(*tail, t10)
        res = flat_constraint_residuals(t)
        assert all(r.is_exact and r.is_zero() for r in res)
        model = flat_char_model(t)   # Jacobi check runs in the constructor
        assert model.is_exact


def test_flat_draws_have_flat_connection():
    rng = random.Random(271828)
    for _ in range(5):
        tail = [Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                for _ in range(6)]
        t = solve_flat_constraints(*tail, Fraction(rng.randint(1, 4)))
        model = flat_char_model(t)
        gamma, T = characteristic_connection(model)
        assert all(g.is_zero() for g in gamma.gammas)
        r_forms, K = curvature(model, gamma)
        assert K.is_zero()
        data = ricci(model)
        assert data["ric_gamma"].is_zero()
        assert data["relation_residual"] == 0.0
        assert data["dT"].is_zero()


# -- validation and registry ------------------------------------------------


def test_six_dim_validation():
    with pytest.raises(ModelError) as err:
        six_dim_model(3, t1=2, t2=1)
    assert "case 2" in str(err.value)
    with pytest.raises(ModelError):
        six_dim_model(4, t1=1, t2=1)
    with pytest.raises(ModelError):
        six_dim_model(2, t1=1, t2=1, bogus=3)


def test_tor_validation():
    with pytest.raises(ModelError):
        tor23_model(0, 0, 1, 0)
    with pytest.raises(ModelError):
        tor23_model(1, 0, 2, 0)
    with pytest.raises(ModelError):
        tor23_model(1, 0, 1, 3)
    with pytest.raises(ModelError):
        tor27_model(1, 7.0)
    with pytest.raises(ModelError):
        tor27_model(-1)


def test_resolve_params_validation():
    with pytest.raises(ModelError):
        build_entry("torsion-free", {"nope": 1})
    with pytest.raises(ModelError):
        build_entry("torsion-free", {"r115": "zebra"})
    with pytest.raises(ModelError):
        build_entry("tor23", {"eps": "0"})
    with pytest.raises(ModelError):
        build_entry("no-such-entry")


def test_symmetry_dimensions():
    dims = {e.symmetry_dim for e in CATALOG.values()}
    assert dims <= {5, 6, 8}
    assert CATALOG["torsion-free"].symmetry_dim == 8
    assert CATALOG["tor27"].symmetry_dim == 5
    assert CATALOG["friedrich"].symmetry_dim == 6


def test_case1_at_zero_matches_flat_torsion_free():
    # both presentations of the flat structure: no torsion, no curvature
    for model in (six_dim_model(1, a=0), torsion_free_model(0)):
        gamma, T = characteristic_connection(model)
        assert T.is_zero()
        _, K = curvature(model, gamma)
        assert K.is_zero()


def test_metadata_group_labels():
    _, entry, resolved = build_entry("torsion-free", {"r115": "1"})
    assert entry.metadata(**resolved)["group"] == "SU(3)"
    _, entry, resolved = build_entry("torsion-free", {"r115": "-2"})
    assert entry.metadata(**resolved)["group"] == "SL(3,R)"
    _, entry, resolved = build_entry("friedrich", {})
    assert entry.metadata(**resolved)["gamma_equals_canonical"]


def test_entry_json_round_trip():
    data = entry_json("six-dim-2", {"t1": "1/5", "t2": "-2/5"})
    assert data["catalog"]["entry"] == "six-dim-2"
    assert data["catalog"]["params"]["t1"] == "1/5"
    model = CoframeModel.from_json(data)
    direct = six_dim_model(2, t1=Fraction(1, 5), t2=Fraction(-2, 5))
    assert model.to_json()["d"] == direct.to_json()["d"]


def test_entry_json_exact_scalars():
    data = entry_json("torsion-free", {"r115": "-1/3"})
    model = CoframeModel.from_json(data)
    assert model.is_exact
    r115 = model.d_of(8).coeff((3, 5))
    assert r115 == scalar(Fraction(-1, 3))
