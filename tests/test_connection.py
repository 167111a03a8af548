"""Connection-level machinery: Levi-Civita solve, characteristic splitting,
curvature, Ricci tensors, Bianchi residuals, Weyl, and the complex Cartan
connection."""

import random
from fractions import Fraction

import pytest

import so3five.connection as connection
from so3five.connection import (
    Analysis,
    CForm,
    So3Connection,
    StructureError,
    bianchi_check,
    build_report,
    cartan_su3,
    characteristic_connection,
    curvature,
    levi_civita,
    nearly_integrable,
    ricci,
    weyl,
)
from so3five.catalog import entry_json, tor23_model
from so3five.exterior import CoframeModel, ModelError, ext_d, wedge
from so3five.repr import PAIRS, ConnTensor, Tensor2, kappa_forms
from so3five.scalar import Scalar, scalar, sqrt3
from so3five.spin import spinor_obstruction

N = 5
S3 = sqrt3()


def flat5():
    return CoframeModel("flat5", d={})


def so3r2(t1=2):
    """Product of a round 3-sphere group piece with a flat plane."""
    return CoframeModel("so3r2", d={
        1: [(t1, 2, 3)],
        2: [(-t1, 1, 3)],
        3: [(t1, 1, 2)],
    })


def heis():
    return CoframeModel("heis", d={5: [(1, 1, 2)]})


def torsion_free_bundle(r):
    """Eight-dimensional total-space model of the torsion-free family."""
    r = scalar(r)
    two = scalar(2)
    return CoframeModel(
        "torsion-free(%s)" % r, n_fiber=3,
        d={
            1: [(S3, 5, 6), (S3, 3, 7)],
            2: [(1, 3, 6), (1, 5, 7), (2, 4, 8)],
            3: [(-1, 2, 6), (-S3, 1, 7), (1, 4, 7), (1, 5, 8)],
            4: [(1, 5, 6), (-1, 3, 7), (-2, 2, 8)],
            5: [(-S3, 1, 6), (-1, 4, 6), (-1, 2, 7), (-1, 3, 8)],
            6: [(-1, 7, 8), (r * S3, 1, 5), (r, 2, 3), (r, 4, 5)],
            7: [(1, 6, 8), (r * S3, 1, 3), (r, 2, 5), (r, 3, 4)],
            8: [(-1, 6, 7), (r * two, 2, 4), (r, 3, 5)],
        },
        connection={1: [(1, 6)], 2: [(1, 7)], 3: [(1, 8)]})


def case2(t1, t2):
    """Six-dimensional model with torsion t1 theta^124 + t2 theta^135."""
    t1, t2 = scalar(t1), scalar(t2)
    half_tt = t1 * t2 * scalar(Fraction(1, 2))
    return CoframeModel(
        "case2(%s,%s)" % (t1, t2), n_fiber=1,
        d={
            1: [(t1, 2, 4), (t2, 3, 5)],
            2: [(-t1, 1, 4), (2, 4, 6)],
            3: [(-t2, 1, 5), (1, 5, 6)],
            4: [(t1, 1, 2), (-2, 2, 6)],
            5: [(t2, 1, 3), (-1, 3, 6)],
            6: [(-half_tt, 3, 5), (-half_tt - half_tt, 2, 4)],
        },
        connection={3: [(1, 6)]})


def koszul(model):
    """Closed-form metric connection used as an independent oracle."""
    c = [[[model.d_of(i + 1).coeff((j + 1, k + 1)) for k in range(N)]
          for j in range(N)] for i in range(N)]
    half = scalar(Fraction(1, 2))
    vals = {}
    for a, b in PAIRS:
        for k in range(N):
            vals[(a, b, k)] = (c[a][b][k] - c[b][a][k] - c[k][a][b]) * half
    return ConnTensor.from_pairs(vals)


# -- Levi-Civita ------------------------------------------------------------


def test_lc_matches_closed_form_oracle():
    for model in (flat5(), so3r2(), heis(), so3r2(3)):
        xi = levi_civita(model)
        assert xi.to_vector() == koszul(model).to_vector()


def test_lc_rejects_bundle_model():
    with pytest.raises(ModelError):
        levi_civita(torsion_free_bundle(1))


def test_lc_flat_is_zero():
    assert levi_civita(flat5()).is_zero()


def test_lc_sphere_product_curvature():
    model = so3r2(2)
    data = ricci(model)
    expect = Tensor2([[2 if i == j and i < 3 else 0 for j in range(N)]
                      for i in range(N)])
    assert (data["ric_lc"] - expect).is_zero()
    assert float(data["ric_lc"].trace()) == 6.0


def test_lc_riemann_symmetries():
    from so3five.connection import _lc_riemann
    model = so3r2(2)
    R = _lc_riemann(model, levi_civita(model))
    for i in range(N):
        for j in range(N):
            for k in range(N):
                for l in range(N):
                    assert (R.x[i][j][k][l] - R.x[k][l][i][j]).is_zero()
                    cyc = R.x[i][j][k][l] + R.x[i][k][l][j] + R.x[i][l][j][k]
                    assert cyc.is_zero()


# -- near integrability and the characteristic connection -------------------


def test_nearly_integrable_flat_and_product():
    for model in (flat5(), so3r2()):
        flag, res = nearly_integrable(model)
        assert flag
        assert res == 0.0


def test_heisenberg_is_not_nearly_integrable():
    flag, res = nearly_integrable(heis())
    assert not flag
    assert res > 0.01
    with pytest.raises(StructureError) as err:
        characteristic_connection(heis())
    # the characteristic connection takes its verdict from nearly_integrable
    assert err.value.residual == res


def perturbed_tor23(amount):
    """tor23 (rho = eps = delta = 1) with a float amount of e2^e3 added to
    d(e1), loaded at 1e-5."""
    data = entry_json("tor23", {"rho": "1", "eps": "1", "delta": "1"})
    data.pop("catalog")
    data["d"]["e1"].append([amount, "e2", "e3"])
    return CoframeModel.from_json(data, tol=1e-5)


def perturbed_case2():
    """case2(1, 2) with 3e-8 theta^12 added to d theta^1: a bundle model
    whose declared connection has a float skew residual of 6e-8."""
    model = case2(1, 2)
    d = {i: [(c, *legs) for legs, c in model.d_of(i).terms.items()]
         for i in range(1, 7)}
    d[1].append((3e-8, 1, 2))
    return CoframeModel("case2-perturbed", n_fiber=1, d=d,
                        connection={3: [(1, 6)]}, tol=1e-5)


def test_characteristic_connection_takes_the_nearly_integrable_verdict():
    # its prime residual, 1.5e-7, is above 3e-8 but below 1e-5 times the
    # scale of its Levi-Civita connection
    model = perturbed_tor23("5e-8")
    flag, res = nearly_integrable(model, 3e-8)
    assert not flag
    with pytest.raises(StructureError) as err:
        characteristic_connection(model, 3e-8)
    assert err.value.residual == res
    assert nearly_integrable(model, 1e-5)[0]
    characteristic_connection(model, 1e-5)


@pytest.mark.parametrize("tol", [1e-9, 3e-8, 1e-5])
def test_characteristic_connection_raises_exactly_when_not_ni(tol):
    for model in (flat5(), so3r2(2), heis(), perturbed_tor23("5e-8"),
                  torsion_free_bundle(1), case2(1, 1), perturbed_case2()):
        flag, res = nearly_integrable(model, tol)
        try:
            characteristic_connection(model, tol)
        except StructureError as err:
            assert not flag and err.residual == res, model.name
        else:
            assert flag, model.name


def test_characteristic_connection_sphere_product():
    model = so3r2(2)
    gamma, T = characteristic_connection(model)
    assert all(g.is_zero() for g in gamma.gammas)
    assert T == model.form(3, [((1, 2, 3), 2)])


def test_characteristic_connection_bundle():
    model = torsion_free_bundle(1)
    gamma, T = characteristic_connection(model)
    assert T.is_zero()
    for t in range(3):
        assert gamma.gammas[t] == model.basis(6 + t)


def test_bundle_connection_must_absorb_vertical_part():
    # the declared connection acts on the coframe but d theta does not
    # contain the matching vertical terms
    model = CoframeModel("stray", n_fiber=1, d={}, connection={3: [(1, 6)]})
    with pytest.raises(ModelError):
        nearly_integrable(model)


def test_bundle_without_connection_rejected():
    model = CoframeModel("noconn", n_fiber=1, d={})
    with pytest.raises(ModelError):
        nearly_integrable(model)


# -- Ricci tensors and the curvature relation -------------------------------


def test_ricci_relation_is_exact_on_base_models():
    for model in (flat5(), so3r2(2), so3r2(3)):
        data = ricci(model)
        assert data["relation_residual"] == 0.0
        assert data["codifferential_zero"]
        assert data["ric_gamma_symmetric"]


def test_sphere_product_torsion_square():
    data = ricci(so3r2(2))
    assert data["ric_gamma"].is_zero()
    expect = Tensor2([[8 if i == j and i < 3 else 0 for j in range(N)]
                      for i in range(N)])
    assert (data["torsion_sq"] - expect).is_zero()


def test_torsion_free_family_is_einstein():
    for r in (1, -1, 2):
        model = torsion_free_bundle(r)
        data = ricci(model)
        expect = Tensor2.metric().scale(scalar(6 * r))
        assert (data["ric_lc"] - expect).is_zero()
        assert (data["ric_gamma"] - expect).is_zero()
        assert data["torsion"].is_zero()
        assert data["dT"].is_zero()


def test_torsion_free_curvature_forms():
    model = torsion_free_bundle(2)
    gamma, _ = characteristic_connection(model)
    r_forms, K = curvature(model, gamma)
    kappas = kappa_forms(model)
    for t in range(3):
        assert r_forms[t] == kappas[t] * scalar(2)
    ric = K.ricci()
    assert (ric - Tensor2.metric().scale(scalar(12))).is_zero()


def test_torsion_free_flat_at_zero():
    model = torsion_free_bundle(0)
    gamma, _ = characteristic_connection(model)
    r_forms, K = curvature(model, gamma)
    assert all(f.is_zero() for f in r_forms)
    assert K.is_zero()


def test_case2_torsion_and_curvature():
    model = case2(1, 1)
    gamma, T = characteristic_connection(model)
    assert T == model.form(3, [((1, 2, 4), 1), ((1, 3, 5), 1)])
    r_forms, K = curvature(model, gamma)
    assert r_forms[0].is_zero()
    assert r_forms[1].is_zero()
    half = scalar(Fraction(1, 2))
    assert r_forms[2] == kappa_forms(model)[2] * (-half)


def e3_sq_matrix():
    return Tensor2([[0] * 5, [0, -4, 0, 0, 0], [0, 0, -1, 0, 0],
                    [0, 0, 0, -4, 0], [0, 0, 0, 0, -1]])


def e3_quad_matrix():
    return Tensor2([[0] * 5, [0, 16, 0, 0, 0], [0, 0, 1, 0, 0],
                    [0, 0, 0, 16, 0], [0, 0, 0, 0, 1]])


def test_case2_ricci_tensors():
    for t1v, t2v in ((1, 1), (2, -1), (3, 2)):
        t1, t2 = scalar(t1v), scalar(t2v)
        model = case2(t1v, t2v)
        data = ricci(model)
        half = scalar(Fraction(1, 2))
        tw4 = scalar(Fraction(1, 24))
        ric_gamma = e3_sq_matrix().scale(half * t1 * t2)
        assert (data["ric_gamma"] - ric_gamma).is_zero()
        ric_lc = Tensor2.metric().scale(half * (t1 * t1 + t2 * t2)) \
            + e3_sq_matrix().scale(
                tw4 * (scalar(16) * t1 * t1 + scalar(12) * t1 * t2
                       - t2 * t2)) \
            + e3_quad_matrix().scale(tw4 * (scalar(4) * t1 * t1 - t2 * t2))
        assert (data["ric_lc"] - ric_lc).is_zero()
        dT = model.form(4, [((2, 3, 4, 5), scalar(-2) * t1 * t2)])
        assert data["dT"] == dT
        assert data["codifferential_zero"]
        assert data["ric_gamma_symmetric"]
        assert data["relation_residual"] == 0.0


def test_bianchi_residuals_vanish():
    for model in (torsion_free_bundle(1), torsion_free_bundle(-1),
                  case2(1, 1), case2(2, -1)):
        gamma, T = characteristic_connection(model)
        r_forms, _ = curvature(model, gamma)
        res = bianchi_check(model, gamma, T, r_forms)
        assert res["first"] == 0.0
        assert res["second"] == 0.0


def test_bianchi_detects_corrupted_curvature():
    model = torsion_free_bundle(1)
    gamma, T = characteristic_connection(model)
    r_forms, _ = curvature(model, gamma)
    bad = [r_forms[0] + model.basis(1, 2), r_forms[1], r_forms[2]]
    res = bianchi_check(model, gamma, T, bad)
    assert res["first"] > 0.1


def test_second_bianchi_detects_corrupted_curvature():
    model = torsion_free_bundle(1)
    gamma, T = characteristic_connection(model)
    r_forms, _ = curvature(model, gamma)
    bad = [r_forms[0] + model.basis(1, 2), r_forms[1], r_forms[2]]
    res = bianchi_check(model, gamma, T, bad)
    assert res["second"] > 0.1


# -- Weyl -------------------------------------------------------------------


def test_weyl_flat_model():
    data = weyl(flat5())
    assert data["flat"]
    assert data["conformally_flat"]


def test_weyl_torsion_free_family():
    zero = weyl(torsion_free_bundle(0))
    assert zero["flat"]
    assert zero["conformally_flat"]
    for r in (1, -1):
        data = weyl(torsion_free_bundle(r))
        assert not data["flat"]
        assert not data["conformally_flat"]
        assert data["weyl"].ricci().is_zero()
        assert (data["ricci"] - Tensor2.metric().scale(scalar(6 * r))).is_zero()


def test_weyl_trace_free_on_base_model():
    data = weyl(so3r2(2))
    assert data["weyl"].ricci().is_zero()
    assert not data["conformally_flat"]


def test_weyl_bundle_needs_vanishing_torsion():
    with pytest.raises(ModelError):
        weyl(case2(1, 1))


# -- the complex Cartan connection ------------------------------------------


def test_cartan_flat_model():
    model = flat5()
    gamma = So3Connection(model, [model.zero(1)] * 3)
    data = cartan_su3(model, gamma)
    kappas = kappa_forms(model)
    for t in range(3):
        assert data["r_shift_forms"][t] == -kappas[t]
        assert data["torsion_forms"][t].is_zero()
    assert data["torsion_forms"][3].is_zero()
    assert data["torsion_forms"][4].is_zero()
    assert data["pattern_residual"] == 0.0
    assert data["bianchi_residual"] == 0.0
    assert not data["omega_zero"]


def test_cartan_sphere_product_torsion_lift():
    model = so3r2(2)
    gamma, _ = characteristic_connection(model)
    data = cartan_su3(model, gamma)
    kappas = kappa_forms(model)
    expect_T = [model.form(2, [((2, 3), 2)]),
                model.form(2, [((1, 3), -2)]),
                model.form(2, [((1, 2), 2)]),
                model.zero(2), model.zero(2)]
    for t in range(5):
        assert data["torsion_forms"][t] == expect_T[t]
    for t in range(3):
        assert data["r_shift_forms"][t] == -kappas[t]
    assert data["pattern_residual"] == 0.0
    assert data["bianchi_residual"] == 0.0


def test_cartan_torsion_free_curvature_shift():
    for r in (0, 1, 2):
        model = torsion_free_bundle(r)
        gamma, _ = characteristic_connection(model)
        data = cartan_su3(model, gamma)
        kappas = kappa_forms(model)
        factor = scalar(r - 1)
        for t in range(3):
            assert data["r_shift_forms"][t] == kappas[t] * factor
            assert data["torsion_forms"][t].is_zero()
        assert data["omega_zero"] == (r == 1)
        assert data["pattern_residual"] == 0.0
        assert data["bianchi_residual"] == 0.0


def test_cartan_case2_split():
    model = case2(1, 1)
    gamma, _ = characteristic_connection(model)
    data = cartan_su3(model, gamma)
    kappas = kappa_forms(model)
    expect_T = [model.form(2, [((2, 4), 1), ((3, 5), 1)]),
                model.form(2, [((1, 4), -1)]),
                model.form(2, [((1, 5), -1)]),
                model.form(2, [((1, 2), 1)]),
                model.form(2, [((1, 3), 1)])]
    for t in range(5):
        assert data["torsion_forms"][t] == expect_T[t]
    assert data["r_shift_forms"][0] == -kappas[0]
    assert data["r_shift_forms"][1] == -kappas[1]
    threehalf = scalar(Fraction(-3, 2))
    assert data["r_shift_forms"][2] == kappas[2] * threehalf
    assert data["pattern_residual"] == 0.0
    assert data["bianchi_residual"] == 0.0


# cartan_su3 on an exact model and on one whose angle makes some structure
# constants floats, where an exact coefficient must not turn into a float
CARTAN_PINS = {
    (1, 0, 1, 0): {
        "r_shift_forms": [
            "Form((-1*sqrt3)*e1^e5 + (-1)*e2^e3 + (-1)*e4^e5)",
            "Form((-1*sqrt3)*e1^e3 + (-1)*e2^e5 + (-1)*e3^e4)",
            "Form((-14/3)*e2^e4 + (-7/3)*e3^e5)",
        ],
        "torsion_forms": [
            "Form((-2/3*sqrt3)*e2^e4 + (-4/3*sqrt3)*e3^e5)",
            "Form((2/3*sqrt3)*e1^e4)",
            "Form((4/3*sqrt3)*e1^e5)",
            "Form((-2/3*sqrt3)*e1^e2)",
            "Form((-4/3*sqrt3)*e1^e3)",
        ],
    },
    (1, 0.7, 1, 0): {
        "r_shift_forms": [
            "Form((-1*sqrt3)*e1^e5 + (-1)*e2^e3 + (-1)*e4^e5)",
            "Form((-1*sqrt3)*e1^e3 + (-1)*e2^e5 + (-1)*e3^e4)",
            "Form((-4.666666666666667)*e2^e4 + (-2.333333333333333)*e3^e5)",
        ],
        "torsion_forms": [
            "Form((-1.1547005383792512)*e2^e4 + (-4/3*sqrt3)*e3^e5)",
            "Form((1.1547005383792515)*e1^e4)",
            "Form((2.309401076758503)*e1^e5)",
            "Form((-1.1547005383792515)*e1^e2)",
            "Form((-2.309401076758503)*e1^e3)",
        ],
    },
}


@pytest.mark.parametrize("params", list(CARTAN_PINS), ids=["exact", "float"])
def test_cartan_output_is_pinned(params):
    model = tor23_model(*params)
    gamma, _ = characteristic_connection(model)
    data = cartan_su3(model, gamma)
    assert data["pattern_residual"] == 0.0
    assert data["bianchi_residual"] == 0.0
    assert data["omega_zero"] is False
    for key, want in CARTAN_PINS[params].items():
        assert [repr(f) for f in data[key]] == want


# the complex form as a pair (re, im) of real forms: the reference formulas
# for the complex-coefficient Form


def pair_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def pair_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def pair_wedge(a, b):
    return (wedge(a[0], b[0]) - wedge(a[1], b[1]),
            wedge(a[0], b[1]) + wedge(a[1], b[0]))


def pair_d(a):
    return ext_d(a[0]), ext_d(a[1])


def rand_real_form(model, degree, rng):
    """One to four terms with coefficients p/r + q sqrt3, some of them 0."""
    return model.form(degree, [
        (tuple(rng.sample(range(1, 6), degree)),
         Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                rng.randint(-2, 2))) for _ in range(rng.randint(1, 4))])


def test_complex_form_matches_the_pair_formulas():
    model = tor23_model(1, 0, 1, 0)
    rng = random.Random(12)
    checked = 0
    for da, db in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for _ in range(6):
            a = tuple(rand_real_form(model, da, rng) for _ in range(2))
            b = tuple(rand_real_form(model, db, rng) for _ in range(2))
            A, B = CForm.of(*a), CForm.of(*b)
            assert (A.re, A.im) == a
            got = [(wedge(A, B), pair_wedge(a, b)), (ext_d(A), pair_d(a))]
            if da == db:
                got += [(A + B, pair_add(a, b)), (A - B, pair_sub(a, b))]
            for value, (re, im) in got:
                assert type(value) is CForm and value.is_exact
                assert value.re == re and value.im == im
                checked += 1
    assert checked == 72


# -- report assembly --------------------------------------------------------


def test_report_torsion_free():
    rep = build_report(torsion_free_bundle(1))
    assert isinstance(rep, Analysis)
    assert rep.nearly_integrable
    assert rep.torsion.is_zero()
    assert rep.torsion_t3 is None
    assert rep.curvature_components["present"]["c1"]
    assert not rep.curvature_components["present"]["c9"]
    assert rep.bianchi_residuals["first"] == 0.0
    assert rep.ricci_relation_residual == 0.0
    assert rep.codifferential_zero


def test_report_case2_split_and_components():
    rep = build_report(case2(1, 1))
    assert rep.nearly_integrable
    assert not rep.torsion.is_zero()
    assert not rep.torsion_t3.is_zero()
    assert not rep.torsion_t7.is_zero()
    present = rep.curvature_components["present"]
    assert present["c1"] and present["c5"] and present["c15"]
    assert not present["c3"] and not present["c7"] and not present["c9"]


def test_report_failure_path():
    rep = build_report(heis())
    assert not rep.nearly_integrable
    assert rep.failure == "not nearly integrable"
    assert rep.torsion is None
    assert rep.ni_residual > 0.01


# -- one analysis per model and tolerance ------------------------------------


def near_tor23():
    """tor23 (rho=1, eps=1, delta=1) with 5e-8 e2^e3 added to d(e1): nearly
    integrable at 1e-5, not at 1e-9."""
    from so3five.catalog import entry_json
    data = entry_json("tor23", {"rho": "1", "eps": "1", "delta": "1"})
    data["d"]["e1"].append(["5e-8", "e2", "e3"])
    return CoframeModel.from_json(data, tol=1e-5)


def test_wrappers_share_the_held_analysis():
    model = so3r2(2)
    analysis = Analysis(model, 1e-9)
    assert Analysis(model, 1e-9).stages is analysis.stages
    assert build_report(model, 1e-9).stages is analysis.stages
    assert ricci(model, 1e-9) is ricci(model, 1e-9)
    assert characteristic_connection(model, 1e-9) \
        is characteristic_connection(model, 1e-9)
    assert spinor_obstruction(model, 1e-9) is spinor_obstruction(model, 1e-9)
    assert nearly_integrable(model, 1e-9) is nearly_integrable(model)


def test_spinor_obstruction_reads_only_the_curvature(count_calls):
    calls = count_calls(connection, (
        "curvature", "bianchi_check", "decompose_curvature", "_lc_riemann"))
    out = spinor_obstruction(case2(1, 1), 1e-9)
    assert out["solution_dim"] == 0
    assert dict(calls) == {"curvature": 1}


def test_tolerance_stages_are_never_shared(count_calls):
    calls = count_calls(connection, ("levi_civita", "curvature"))
    model, fresh = near_tor23(), near_tor23()
    loose = Analysis(model, 1e-5)
    assert build_report(model, 1e-5).r_forms
    held = [Analysis(m, 1e-9) for m in (model, fresh)]
    assert nearly_integrable(model, 1e-9) == nearly_integrable(fresh, 1e-9)
    assert not nearly_integrable(model, 1e-9)[0]
    assert build_report(model, 1e-9).failure \
        == build_report(fresh, 1e-9).failure == "not nearly integrable"
    for m in (model, fresh):
        with pytest.raises(StructureError):
            characteristic_connection(m, 1e-9)
    # every stage belongs to one analysis: Levi-Civita once per analysis
    assert calls == {"levi_civita": 3, "curvature": 1}
    assert build_report(model, 1e-5).stages is loose.stages
    assert all(a.failure for a in held)


REPORT_FIELDS = (
    "tolerance", "nearly_integrable", "ni_residual", "failure",
    "torsion", "torsion_t3", "torsion_t7", "r_forms", "curvature_components",
    "ric_lc", "ric_gamma", "ricci_relation_residual", "bianchi_residuals",
    "dT", "star_d_star_T", "codifferential_zero", "ric_gamma_symmetric")


def test_report_fields_are_computed_on_first_read(count_calls):
    calls = count_calls(connection, ("ricci", "bianchi_check"))
    rep = build_report(case2(1, 1), 1e-9)
    assert rep.curvature_components["present"]["c15"]
    assert not calls
    bianchi, dT = rep.bianchi_residuals, rep.dT
    assert rep.bianchi_residuals is bianchi and rep.dT is dT
    assert calls == {"bianchi_check": 1, "ricci": 1}


def test_model_keeps_its_stages_with_nothing_held(count_calls):
    """Two calls on one model share its stages though no caller holds a
    report between them."""
    from so3five import twistor

    calls = count_calls(twistor, ("_connection_terms",))
    count_calls(connection, ("curvature",))
    model = tor23_model(1, 0, 1, 0)
    twistor.cr_residuals(model, "jm")
    twistor.cr_residuals_sampled(model, "jm")
    assert build_report(model, 1e-9).r_forms
    assert spinor_obstruction(model, 1e-9)["solution_dim"] == 0
    assert calls == {"_connection_terms": 1, "curvature": 1}


def test_model_is_freed_by_reference_counting():
    """No stage points back at the model, so once the caller drops the
    model and its report, reference counting frees the model with every
    stage, without the cyclic garbage collector."""
    import gc
    import weakref

    from so3five.twistor import (STRUCTURES, cr_residuals,
                                 cr_residuals_sampled, twistor_coframe)

    gc.collect()
    gc.disable()
    try:
        model = tor23_model(1, 0, 1, 0)
        rep = build_report(model, 1e-9)
        assert all(getattr(rep, f) is not None for f in REPORT_FIELDS
                   if f != "failure")
        assert spinor_obstruction(model, 1e-9)["solution_dim"] == 0
        assert cr_residuals(model, "j0", tol=1e-9)["integrable"]
        for tol in (1e-9, 1e-12):
            assert ricci(model, tol)["relation_residual"] == 0.0
            assert nearly_integrable(model, tol)[0]
            assert len(twistor_coframe(model, tol)["theta"]) == 7
            for which in STRUCTURES:
                assert cr_residuals(model, which, tol=tol)["structure"] \
                    == cr_residuals_sampled(model, which, tol=tol)["structure"]
        ref = weakref.ref(model)
        del model, rep
        assert ref() is None
    finally:
        gc.enable()
