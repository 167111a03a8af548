"""Sphere-bundle calculus: coframe identities, CR verdicts, the G2 form."""

from fractions import Fraction

import pytest

from so3five.catalog import (
    flat_char_model,
    six_dim_model,
    tor23_model,
    tor27_model,
    torsion_free_model,
)
from so3five.exterior import ModelError, sort_indices
from so3five.scalar import CScalar, Scalar, scalar
from so3five.twistor import (
    FiberFunction,
    TwistorForm,
    cr_residuals,
    cr_residuals_sampled,
    coframe_gram,
    derivative_sample_residual,
    fiber_complex_structure_residual,
    g2_form,
    gram_residual,
    null_direction_check,
    null_span_checks,
    omega_endomorphism,
    omega_normalization,
    predicted_verdict,
    quarter_identity,
    sample_points,
    span_rank,
    tautological_form,
    twistor_coframe,
)


@pytest.fixture(scope="module")
def tf1():
    return torsion_free_model(1)


@pytest.fixture(scope="module")
def t23():
    return tor23_model(1, 0, 1, 0)


@pytest.fixture(scope="module")
def t27():
    return tor27_model(1, 0)


@pytest.fixture(scope="module")
def sd211():
    return six_dim_model(2, t1=1, t2=1)


# -- fiber functions --------------------------------------------------------


def fib(entries, k=0):
    return FiberFunction(entries, k)


class TestFiberFunction:
    def test_ring_operations(self):
        f = fib({(1, 0): 1}, 0)          # z
        g = fib({(0, 1): 1}, 0)          # zbar
        w = f * g
        assert w == fib({(1, 1): 1})
        assert f + g == fib({(1, 0): 1, (0, 1): 1})
        assert (f - f).is_zero()
        assert (2 * f) == fib({(1, 0): 2})
        assert f.conjugate() == g

    def test_denominator_alignment(self):
        # 1/(1+w) + w/(1+w) is the constant function 1
        a = fib({(0, 0): 1}, 1)
        b = fib({(1, 1): 1}, 1)
        assert (a + b) == fib({(0, 0): 1})

    def test_reduce(self):
        # (z + z w)/(1+w) reduces to z
        f = fib({(1, 0): 1, (2, 1): 1}, 1)
        r = f.reduce()
        assert r.k == 0
        assert r == fib({(1, 0): 1})
        # z/(1+w) does not reduce
        g = fib({(1, 0): 1}, 1).reduce()
        assert g.k == 1

    def test_derivatives(self):
        # d/dz of z^2 zbar is 2 z zbar
        f = fib({(2, 1): 1})
        assert f.d_z() == fib({(1, 1): 2})
        assert f.d_zbar() == fib({(2, 0): 1})
        # quotient rule on 1/(1+w)
        g = fib({(0, 0): 1}, 1)
        assert g.d_z() == fib({(0, 1): -1}, 2)

    def test_derivative_matches_difference_quotient(self):
        f = fib({(2, 1): CScalar(1, 2), (0, 0): 3, (1, 2): -2}, 2)
        for z in sample_points(1234, 4):
            assert derivative_sample_residual(f, z) < 1e-6

    def test_eval(self):
        f = fib({(1, 1): 1}, 1)   # w/(1+w)
        assert abs(f.eval(1) - 0.5) < 1e-15
        assert abs(f.eval(0)) == 0.0

    def test_invert_chart_on_sphere_coordinates(self):
        # the first sphere coordinate is chart-symmetric, the other two flip
        b1 = fib({(1, 0): 1, (0, 1): 1}, 1)
        b2 = fib({(0, 1): CScalar(0, 1), (1, 0): CScalar(0, -1)}, 1)
        b3 = fib({(0, 0): 1, (1, 1): -1}, 1)
        assert b1.invert_chart() == b1
        assert b2.invert_chart() == -b2
        assert b3.invert_chart() == -b3

    def test_invert_chart_rejects_frame_twisting_coefficients(self):
        # degree 4 over (1+w)^2 leaves the polynomial class under z -> 1/z
        f = fib({(4, 0): 1, (0, 0): -1}, 2)
        with pytest.raises(ValueError):
            f.invert_chart()


# -- the coframe ------------------------------------------------------------


class TestCoframe:
    def test_tautological_form_at_chart_points(self, tf1):
        om = tautological_form(tf1)
        at0 = om.eval_terms(0)
        assert abs(at0[(2, 4)] - 2) < 1e-15
        assert abs(at0[(3, 5)] - 1) < 1e-15
        assert all(abs(v) < 1e-15 for k, v in at0.items()
                   if k not in ((2, 4), (3, 5)))
        at1 = om.eval_terms(1)
        assert abs(at1[(1, 5)] - 3 ** 0.5) < 1e-12
        assert abs(at1[(2, 3)] - 1) < 1e-15
        assert abs(at1[(4, 5)] - 1) < 1e-15

    def test_omega_normalization_is_five(self, tf1, t23, t27):
        for model in (tf1, t23, t27):
            assert omega_normalization(model) == FiberFunction.const(5)

    def test_boundary_values(self, t23):
        cf = twistor_coframe(t23)
        u0 = cf["u"].eval_terms(0)
        assert abs(u0[(1,)] + 1) < 1e-15
        n1 = cf["n1"].eval_terms(0)
        assert abs(n1[(3,)] + 1j) < 1e-15
        assert abs(n1[(5,)] + 1) < 1e-15
        n2 = cf["n2"].eval_terms(0)
        assert abs(n2[(2,)] + 1) < 1e-15
        assert abs(n2[(4,)] - 1j) < 1e-15

    def test_d_squared_vanishes(self, tf1, t23):
        for model in (tf1, t23):
            cf = twistor_coframe(model)
            for form in (cf["h"], cf["u"], cf["n1"], cf["n2"]):
                assert form.d().d().is_zero()

    def test_gram_is_identity(self, tf1, t23, t27):
        for model in (tf1, t23, t27):
            assert gram_residual(model) == 0.0

    def test_gram_entries_are_exact_constants(self, t23):
        gram = coframe_gram(t23)
        for a in range(7):
            for b in range(7):
                f = gram[a][b]
                assert f.is_exact
                assert f == FiberFunction.const(1 if a == b else 0)

    def test_duplicating_a_real_part_breaks_orthonormality(self, t23):
        # the fourth member must come from the second complex null form;
        # reusing the imaginary part of the first one produces a unit
        # off-diagonal pairing instead of zero
        cf = twistor_coframe(t23)
        second = cf["n1"].imag()
        duplicate = cf["n1"].imag()
        honest = cf["n2"].imag()
        bad = FiberFunction.zero()
        good = FiberFunction.zero()
        for i in range(1, 6):
            bad = bad + second.coeff((i,)) * duplicate.coeff((i,))
            good = good + second.coeff((i,)) * honest.coeff((i,))
        assert bad.reduce() == FiberFunction.const(1)
        assert good.reduce().is_zero()

    def test_null_relations(self, tf1, t23):
        for model in (tf1, t23):
            checks = null_span_checks(model)
            assert all(v == 0.0 for v in checks.values()), checks

    def test_span_rank_seven(self, t23):
        for z in (0.3 + 0.7j, -1.1 + 0.2j):
            assert span_rank(t23, z) == 7


# -- CR integrability -------------------------------------------------------


INTEGRABLE = [
    ("torsion-free r=1", lambda: torsion_free_model(1)),
    ("torsion-free r=0", lambda: torsion_free_model(0)),
    ("torsion-free r=-1", lambda: torsion_free_model(-1)),
    ("tor23 delta=0", lambda: tor23_model(1, 0, 1, 0)),
    ("tor23 delta=1", lambda: tor23_model(1, 0, 1, 1)),
    ("six-dim-2 on the pure 3-class line", lambda: six_dim_model(2, t1=1,
                                                                 t2=2)),
]

NON_INTEGRABLE = [
    ("tor27", lambda: tor27_model(1, 0)),
    ("six-dim-2 generic", lambda: six_dim_model(2, t1=1, t2=1)),
    ("flat-char", lambda: flat_char_model([1] + [0] * 9)),
]


class TestCrStructures:
    @pytest.mark.parametrize("name,make", INTEGRABLE,
                             ids=[n for n, _ in INTEGRABLE])
    def test_integrable_models(self, name, make):
        model = make()
        out = cr_residuals(model, "j0")
        assert out["integrable"], out["residuals"]
        assert out["max_residual"] == 0.0
        assert predicted_verdict(model)["integrable"]

    @pytest.mark.parametrize("name,make", NON_INTEGRABLE,
                             ids=[n for n, _ in NON_INTEGRABLE])
    def test_non_integrable_models(self, name, make):
        model = make()
        out = cr_residuals(model, "j0")
        assert not out["integrable"]
        assert out["max_residual"] > 0.5
        assert not predicted_verdict(model)["integrable"]

    def test_only_the_first_structure_can_integrate(self, tf1, t23, t27):
        # the other three structures fail on every model exercised here,
        # integrable first structure or not
        for model in (tf1, t23, t27,
                      six_dim_model(2, t1=1, t2=1),
                      flat_char_model([1] + [0] * 9)):
            for which in ("j0m", "jm", "jmm"):
                out = cr_residuals(model, which)
                assert out["max_residual"] > 0.5, (model.name, which)

    def test_unknown_structure_rejected(self, t23):
        with pytest.raises(ModelError):
            cr_residuals(t23, "j5")

    def test_sampled_residuals_agree(self, t23, t27):
        ok = cr_residuals_sampled(t23, "j0", seed=7)
        assert ok["max_sampled_residual"] < 1e-9
        assert ok["derivative_check"] < 1e-6
        bad = cr_residuals_sampled(t27, "j0", seed=7)
        assert bad["max_sampled_residual"] > 0.1


# residuals of every structure, as the unreduced wedge computed them:
# 8/sqrt3, 16/3, 8 sqrt3, 2 sqrt3 and 4 sqrt3 appear as their float images
PINNED = {
    "t23": {
        "j0": (0.0, 0.0, 0.0, 0.0),
        "j0m": (12.0, 0.0, 0.0, 0.0),
        "jm": (4.618802153517006, 5.333333333333333,
               13.856406460551018, 13.856406460551018),
        "jmm": (12.0, 5.333333333333333, 0.0, 0.0),
    },
    "t27": {
        "j0": (3.4641016151377544, 7.0, 0.0, 0.0),
        "j0m": (12.0, 4.0, 0.0, 0.0),
        "jm": (6.928203230275509, 9.0,
               13.856406460551018, 13.856406460551018),
        "jmm": (12.0, 12.0, 0.0, 0.0),
    },
    "sd211": {
        "j0": (4.0, 0.0, 0.0, 0.0),
        "j0m": (12.0, 0.0, 0.0, 0.0),
        "jm": (12.0, 2.0, 13.856406460551018, 13.856406460551018),
        "jmm": (12.0, 2.0, 0.0, 0.0),
    },
    "tf1": {
        "j0": (0.0, 0.0, 0.0, 0.0),
        "j0m": (12.0, 0.0, 0.0, 0.0),
        "jm": (0.0, 2.0, 13.856406460551018, 13.856406460551018),
        "jmm": (12.0, 0.0, 0.0, 0.0),
    },
}


def plain_wedge(a, b):
    """Wedge coefficients without any (1 + z zbar) cancellation."""
    out = {}
    for ka, fa in a.terms.items():
        for kb, fb in b.terms.items():
            key, sign = sort_indices(ka + kb)
            if sign == 0:
                continue
            prod = fa * fb
            out[key] = out.get(key, FiberFunction.zero()) + \
                (prod if sign > 0 else -prod)
    return out


def monomials(form):
    return sum(len(f.num) for f in form.terms.values())


class TestResidualForms:
    def test_reduced_wedge_equals_unreduced(self, tf1):
        cf = twistor_coframe(tf1)
        pieces = [cf["u"], cf["h"], cf["n1"], cf["n2"]]
        reduced = plain = pieces[0]
        for piece in pieces[1:]:
            reduced = reduced.wedge(piece)
            plain = TwistorForm(tf1, plain.degree + 1,
                                plain_wedge(plain, piece))
            assert set(reduced.terms) == set(plain.terms)
            for key, f in plain.terms.items():
                assert reduced.coeff(key) == f
            for f in reduced.terms.values():
                assert f.reduce().k == f.k
        assert monomials(reduced) < monomials(plain)

    @pytest.mark.parametrize("fixture", sorted(PINNED))
    def test_residuals_match_pinned_values(self, request, fixture):
        model = request.getfixturevalue(fixture)
        names = ("transversal", "fiber", "null-1", "null-2")
        for which, want in PINNED[fixture].items():
            got = cr_residuals(model, which)["residuals"]
            assert got == dict(zip(names, want)), (fixture, which)

    def test_cr_command_wedges_seven_times(self, monkeypatch, tmp_path,
                                           capsys):
        import json

        from so3five.catalog import entry_json
        from so3five.cli import main

        path = tmp_path / "tor23.json"
        path.write_text(json.dumps(entry_json("tor23", {"rho": "1"})))
        calls = []
        wedge = TwistorForm.wedge

        def counting(self, other):
            calls.append(1)
            return wedge(self, other)

        monkeypatch.setattr(TwistorForm, "wedge", counting)
        assert main(["cr", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["integrable"] is True
        assert len(calls) == 7


# -- G2 and normalization identities ----------------------------------------


class TestG2:
    def test_matches_real_coframe_expression(self, tf1, t23):
        for model in (tf1, t23):
            out = g2_form(model)
            assert out["match"]
            assert out["match_residual"] == 0.0

    def test_seven_norm(self, t23):
        out = g2_form(t23)
        assert out["norm_residual"] == 0.0

    def test_quarter_identity(self, t23, t27):
        for model in (t23, t27, flat_char_model([1] + [0] * 9)):
            out = quarter_identity(model)
            assert out["consistent"]
            assert out["residual"] == 0.0
            assert out["residual_opposite_orientation"] > 1.0


# -- pointwise endomorphism and null directions -----------------------------


class TestPointwise:
    def test_endomorphism_is_antisymmetric(self):
        M = omega_endomorphism((Fraction(1, 2), Fraction(1, 3)))
        for i in range(5):
            for j in range(5):
                assert (M[i][j] + M[j][i]).is_zero()

    def test_exact_points(self):
        for z in (0, 1, (Fraction(1, 2), Fraction(-1, 3)),
                  (Fraction(-2), Fraction(5, 7))):
            out = null_direction_check(z)
            assert out["annihilator_residual"] == 0.0
            assert out["trace_square_residual"] == 0.0
            assert out["top_eigenspace_dim"] == 1
            assert out["null_contraction_residual"] == 0.0

    def test_float_point(self):
        out = null_direction_check(2 + 1j)
        assert out["annihilator_residual"] < 1e-12
        assert out["trace_square_residual"] < 1e-12
        assert out["top_eigenspace_dim"] == 1
        assert out["null_contraction_residual"] < 1e-12

    def test_fiber_complex_structure(self):
        assert fiber_complex_structure_residual((Fraction(1, 3),
                                                 Fraction(2, 5))) == 0.0
        assert fiber_complex_structure_residual(0.4 - 1.2j) < 1e-14


# -- exterior algebra over the fiber ----------------------------------------


class TestTwistorForm:
    def test_wedge_anticommutes(self, t23):
        a = TwistorForm.leg(t23, 1, fib({(1, 0): 1}))
        b = TwistorForm.leg(t23, 6, fib({(0, 1): 1}, 1))
        assert (a.wedge(b) + b.wedge(a)).is_zero()

    def test_conjugate_swaps_fiber_legs(self, t23):
        a = TwistorForm.leg(t23, 6, fib({(0, 0): CScalar(0, 1)}))
        c = a.conjugate()
        assert c.coeff((7,)) == fib({(0, 0): CScalar(0, -1)})
        assert c.coeff((6,)).is_zero()

    def test_real_imag_decomposition(self, t23):
        cf = twistor_coframe(t23)
        n1 = cf["n1"]
        recomposed = n1.real() + n1.imag().scale(CScalar(0, 1))
        assert (recomposed - n1).is_zero()
        assert n1.real().conjugate().coeff((3,)) == n1.real().coeff((3,))

    def test_degree_mismatch_rejected(self, t23):
        a = TwistorForm.leg(t23, 1)
        b = TwistorForm(t23, 2, {(1, 2): 1})
        with pytest.raises(ModelError):
            a + b
