"""Sphere-bundle calculus: coframe identities, CR verdicts, the G2 form."""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from so3five import twistor
from so3five.catalog import (
    flat_char_model,
    six_dim_model,
    tor23_model,
    tor27_model,
    torsion_free_model,
)
from so3five.catalog import entry_json
from so3five.cli import main
from so3five.connection import StructureError
from so3five.exterior import (
    CoframeModel,
    Form,
    ModelError,
    ext_d,
    hodge_star,
    sort_indices,
    wedge,
)
from so3five.scalar import (
    DEFAULT_TOL,
    CScalar,
    Scalar,
    cscalar,
    mat_mul,
    nullspace,
    rank,
    scalar,
)
from so3five.twistor import (
    _ONE_W,
    STRUCTURES,
    FiberFunction,
    TwistorForm,
    _connection_terms,
    cr_residuals,
    cr_residuals_sampled,
    coframe_gram,
    derivative_sample_residual,
    g2_form,
    gram_residual,
    null_span_checks,
    omega_normalization,
    predicted_verdict,
    quarter_identity,
    sample_points,
    tautological_form,
    twistor_coframe,
)
from so3five.upsilon import E_matrices, standard_upsilon

DATA = Path(__file__).parent / "data"


# each model keeps its stages, so the tests of a module share them as the
# calls of one command do


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
        assert derivative_sample_residual(f, sample_points(1234, 4)) < 1e-6

    def test_eval(self):
        f = fib({(1, 1): 1}, 1)   # w/(1+w)
        assert abs(f.eval(1) - 0.5) < 1e-15
        assert abs(f.eval(0)) == 0.0

    @pytest.mark.parametrize("big", [10 ** 16, 1e16])
    def test_eval_ignores_monomial_order(self, big):
        # summed in order, 1e16 + 1 - 1e16 is 0.0 and 1e16 - 1e16 + 1 is 1.0
        terms = [((0, 0), big), ((1, 0), 1), ((2, 0), -big),
                 ((0, 1), CScalar(0, big)), ((1, 1), CScalar(0, 1)),
                 ((0, 2), CScalar(0, -big))]
        one, other = fib(dict(terms), 1), fib(dict(reversed(terms)), 1)
        assert list(one.coefs) != list(other.coefs)
        for z in (1, 1 + 1e-9j):
            assert one.eval(z) == other.eval(z)
        assert one.eval(1) == complex(0.5, 0.5)


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
        bad = FiberFunction()
        good = FiberFunction()
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


# float-input models with the first structure's predicted verdict: torsion
# in the 3-class and no c9 curvature integrate it, and the other three
# structures never integrate
FLOAT_VERDICTS = [
    ("tor23", {"rho": "1", "phi": "0.7", "delta": 0}, True),
    ("tor23", {"rho": "1", "phi": "2.3", "delta": 1}, True),
    ("tor23", {"rho": "1", "phi": "4.47", "delta": 0}, True),
    ("tor27", {"rho": "1", "phi": "0.7"}, False),
    ("tor27", {"rho": "1", "phi": "2.3"}, False),
    ("tor27", {"rho": "1", "phi": "4.47"}, False),
    ("six-dim-2", {"t1": "0.731", "t2": repr(2 * 0.731)}, True),
    ("six-dim-2", {"t1": "0.42", "t2": "1.37"}, False),
]


@pytest.mark.parametrize("entry, params, j0", FLOAT_VERDICTS,
                         ids=[f"{e}-{'-'.join(map(str, p.values()))}"
                              for e, p, _ in FLOAT_VERDICTS])
def test_float_cr_verdicts_hold_with_a_margin(tmp_path, entry, params, j0):
    # an integrable residual is zero up to rounding, any other one is far
    # from the tolerance, so last-bit changes cannot flip a verdict
    path = tmp_path / "model.json"
    path.write_text(json.dumps(entry_json(entry, params)))
    for which in STRUCTURES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["cr", str(path), "--structure", which, "--json"])
        assert code == 0
        got = json.loads(out.getvalue())
        want = j0 and which == "j0"
        assert got["integrable"] is want, (which, got)
        if which == "j0":
            assert got["predicted_integrable"] is want
        if want:
            assert got["max_residual"] <= 1e-12, (which, got)
        else:
            assert got["max_residual"] >= 0.1, (which, got)


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
            out[key] = out.get(key, FiberFunction()) + \
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


def substitute(tf, replacements):
    """tf with 1-form legs replaced by TwistorForms (a basis change)."""
    model = tf.model
    out = TwistorForm(model, tf.degree)
    for legs, f in tf.terms.items():
        factor = None
        for leg in legs:
            piece = replacements.get(leg)
            if piece is None:
                piece = TwistorForm.leg(model, leg)
            factor = piece if factor is None else factor.wedge(piece)
        if factor is None:
            factor = TwistorForm(model, 0, {(): 1})
        for key, g in factor.terms.items():
            out._accumulate(key, f * g)
    out._prune()
    return out


def to_split_basis(model, tf):
    """Rewrite the dz, dzbar legs of a form over a base model through the
    orthonormal fiber pair."""
    conn = _connection_terms(model, DEFAULT_TOL)
    dz, dzb = model.dim + 1, model.dim + 2
    # dz = (1+z zbar)(fiber7 - i fiber6) - sum_I c_I gamma^I, and dzbar
    # its conjugate; fiber6 and fiber7 take over the dz and dzbar slots
    i_one_w = _ONE_W * CScalar(0, 1)
    repl_dz = (TwistorForm.leg(model, dzb, _ONE_W)
               - TwistorForm.leg(model, dz, i_one_w)) - conn
    repl_dzb = (TwistorForm.leg(model, dzb, _ONE_W)
                + TwistorForm.leg(model, dz, i_one_w)) - conn.conjugate()
    return substitute(tf, {dz: repl_dz, dzb: repl_dzb})


class TestG2:
    def test_matches_real_coframe_expression(self, tf1, t23):
        for model in (tf1, t23):
            out = g2_form(model)
            assert out["match"]
            assert out["match_residual"] == 0.0

    def test_seven_norm(self, t23):
        split = to_split_basis(t23, g2_form(t23)["phi"])
        top = split.wedge(hodge_star(split, 7))
        norm = top.coeff(tuple(range(1, 8))).reduce()
        assert (norm - FiberFunction.const(7)).max_mag() == 0.0

    def test_quarter_identity(self, t23, t27):
        for model in (t23, t27, flat_char_model([1] + [0] * 9)):
            out = quarter_identity(model)
            assert out["consistent"]
            assert out["residual"] == 0.0
            assert out["residual_opposite_orientation"] > 1.0


# -- pointwise endomorphism and null directions -----------------------------


def as_cpoint(z) -> CScalar:
    """A chart point given as a number or as a pair (re, im)."""
    if isinstance(z, tuple):
        return CScalar(scalar(z[0]), scalar(z[1]))
    return cscalar(z)


def sphere_point(z):
    """The three sphere coordinates at one chart point, exact in z."""
    zc = as_cpoint(z)
    zb = zc.conjugate()
    denom = (zc * zb + CScalar(1)).re
    return [(zc + zb) / denom,
            (CScalar(0, 1) * (zb - zc)) / denom,
            (CScalar(1) - zc * zb) / denom]


def omega_endomorphism(z) -> list:
    """The matrix of the sphere-parametrized 2-form at one fiber point."""
    b = sphere_point(z)
    Es = E_matrices()
    out = [[CScalar(0) for _ in range(5)] for _ in range(5)]
    for bi, E in zip(b, Es):
        for r in range(5):
            for c in range(5):
                if not E[r][c].is_zero():
                    out[r][c] = out[r][c] + bi * E[r][c]
    return out


def null_direction_check(z) -> dict:
    """Eigenvalue pattern and the null property of the top eigenvector."""
    M = omega_endomorphism(z)
    M2 = mat_mul(M, M)
    M4 = mat_mul(M2, M2)
    tr2 = sum((M2[i][i] for i in range(5)), CScalar(0))
    # annihilating polynomial x(x^2+1)(x^2+4) = x^5 + 5x^3 + 4x
    M3 = mat_mul(M2, M)
    M5 = mat_mul(M4, M)
    worst = 0.0
    for i in range(5):
        for j in range(5):
            val = M5[i][j] + scalar(5) * M3[i][j] + scalar(4) * M[i][j]
            worst = max(worst, val.mag())
    trace_residual = (tr2 + scalar(10)).mag()

    shifted = [[M[i][j] - (CScalar(0, 2) if i == j else CScalar(0))
                for j in range(5)] for i in range(5)]
    kernel = nullspace(shifted)
    result = {
        "annihilator_residual": worst,
        "trace_square_residual": trace_residual,
        "top_eigenspace_dim": len(kernel),
    }
    if kernel:
        n = kernel[0]
        ups = standard_upsilon()
        null_worst = 0.0
        for k in range(1, 6):
            total = CScalar(0)
            for i in range(1, 6):
                for j in range(1, 6):
                    c = ups.coeff(i, j, k)
                    if not c.is_zero():
                        total = total + c * n[i - 1] * n[j - 1]
            null_worst = max(null_worst, total.mag())
        result["null_contraction_residual"] = null_worst
    return result


def fiber_complex_structure_residual(z) -> float:
    """J^2 = -1 on the tangent plane of the fiber sphere at one point."""
    b = sphere_point(z)

    def cross(x, y):
        return [x[1] * y[2] - x[2] * y[1],
                x[2] * y[0] - x[0] * y[2],
                x[0] * y[1] - x[1] * y[0]]

    worst = 0.0
    basis = [[CScalar(1), CScalar(0), CScalar(0)],
             [CScalar(0), CScalar(1), CScalar(0)],
             [CScalar(0), CScalar(0), CScalar(1)]]
    for e in basis:
        dot = sum((x * y for x, y in zip(b, e)), CScalar(0))
        tangent = [x - dot * y for x, y in zip(e, b)]
        twice = cross(b, cross(b, tangent))
        for got, want in zip(twice, tangent):
            worst = max(worst, (got + want).mag())
    return worst


def span_rank(model, z) -> int:
    """Rank of (u, h, n1, n2 and conjugates) evaluated at one point."""
    cf = twistor_coframe(model)
    forms = [cf["u"], cf["h"], cf["h"].conjugate(), cf["n1"],
             cf["n1"].conjugate(), cf["n2"], cf["n2"].conjugate()]
    zc = complex(as_cpoint(z))
    legs = sorted({l for f in forms for key in f.terms for l in key})
    rows = []
    for f in forms:
        vals = f.eval_terms(zc)
        rows.append([cscalar(vals.get((l,), 0.0)) for l in legs])
    return rank(rows)


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
        recomposed = n1.real() + n1.imag() * CScalar(0, 1)
        assert (recomposed - n1).is_zero()
        assert n1.real().conjugate().coeff((3,)) == n1.real().coeff((3,))

    def test_degree_mismatch_rejected(self, t23):
        a = TwistorForm.leg(t23, 1)
        b = TwistorForm(t23, 2, {(1, 2): 1})
        with pytest.raises(ModelError):
            a + b


# -- the shared form engine -------------------------------------------------


def rand_scalar(rng):
    return Scalar.exact(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                        Fraction(rng.randint(-2, 2), 2))


def rand_base_form(model, degree, rng, n_terms=4):
    return model.form(degree, [(tuple(rng.sample(range(1, 6), degree)),
                                rand_scalar(rng)) for _ in range(n_terms)])


def rand_fiber(rng):
    num = {(rng.randint(0, 2), rng.randint(0, 2)):
           CScalar(rand_scalar(rng), rand_scalar(rng)) for _ in range(2)}
    return FiberFunction(num, rng.randint(0, 2))


def rand_split_form(model, degree, rng, n_terms=4):
    """Exact form on the seven legs of the split basis: the base coframe
    plus the orthonormal fiber pair in slots 6 and 7."""
    return TwistorForm(model, degree,
                       [(tuple(rng.sample(range(1, 8), degree)),
                         rand_fiber(rng)) for _ in range(n_terms)])


class TestSharedEngine:
    def test_lift_commutes_with_wedge_d_and_star(self, t23):
        assert t23.is_exact and issubclass(TwistorForm, Form)
        lift = TwistorForm.lift
        rng = random.Random(23)
        for da, db in [(0, 2), (1, 1), (1, 2), (2, 2), (2, 3)]:
            for _ in range(3):
                a = rand_base_form(t23, da, rng) if da else \
                    t23.form(0, {(): rand_scalar(rng)})
                b = rand_base_form(t23, db, rng)
                assert lift(a).wedge(lift(b)) == lift(wedge(a, b))
                assert type(wedge(lift(a), lift(b))) is TwistorForm
                assert lift(b).d() == lift(ext_d(b))
                assert hodge_star(lift(b)) == lift(hodge_star(b))

    def test_seven_dimensional_star_is_an_involution(self, t23):
        rng = random.Random(7)
        for degree in range(8):
            for _ in range(3):
                x = rand_split_form(t23, degree, rng)
                assert x.is_exact
                star = hodge_star(x, 7)
                assert star.degree == 7 - degree
                assert hodge_star(star, 7) == x

    def test_star_rejects_a_leg_above_its_dimension(self, t23):
        with pytest.raises(ModelError):
            hodge_star(TwistorForm.leg(t23, 6))
        with pytest.raises(ModelError):
            hodge_star(TwistorForm(t23, 2, {(3, 7): 1}))
        with pytest.raises(ModelError):
            hodge_star(t23.basis(1, 5), 4)


# -- the exact wedge kernel -------------------------------------------------


def former_wedge(a, b):
    """TwistorForm.wedge before its exact kernel: the engine's sum of
    per-pair products at each key, then each coefficient reduced and the
    zeros pruned."""
    out = wedge(a, b)
    for key, f in out.terms.items():
        out.terms[key] = f.reduce()
    out._prune()
    return out


def raised(f):
    """f with numerator and denominator both multiplied by (1 + z zbar)."""
    return f * _ONE_W * fib({(0, 0): 1}, 1)


def cancelling_pair(model, rng):
    """1-forms whose wedge sums to exactly zero at (i, j), from products of
    different powers k, and leaves sums with (1 + z zbar) factors at the
    keys with l."""
    f, g, h = rand_fiber(rng), rand_fiber(rng), rand_fiber(rng)
    i, j, l = rng.sample(range(1, 8), 3)
    a = TwistorForm(model, 1, [((i,), f), ((j,), raised(g)),
                               ((l,), rand_fiber(rng) * _ONE_W)])
    b = TwistorForm(model, 1, [((j,), g * h), ((i,), raised(f) * h),
                               ((l,), rand_fiber(rng))])
    return a, b


def float_fiber(rng):
    """Float coefficients, zeros of either sign among them."""
    def part():
        return Scalar.from_float(rng.choice((0.0, -0.0, rng.uniform(-2, 2))))
    return fib({(rng.randint(0, 2), rng.randint(0, 2)):
                CScalar(Scalar.from_float(rng.uniform(-2, 2)), part())
                for _ in range(2)},
               rng.randint(0, 2))


def float_form(model, degree, rng, exact_share):
    """A form with a float first term and exact_share of the others exact."""
    return TwistorForm(model, degree, [
        (tuple(rng.sample(range(1, 8), degree)),
         rand_fiber(rng) if n and rng.random() < exact_share
         else float_fiber(rng)) for n in range(4)])


def complex_num(f):
    """The numerator of f as complex values, each rounded as complex()
    rounds a CScalar."""
    return {key: complex(c) for key, c in f.num.items()}


def raised_num(f, times):
    """complex_num(f) times (1 + z zbar)^times, one factor at a time."""
    num = complex_num(f)
    for _ in range(times):
        out = {}
        for (p, q), x in num.items():
            for key in ((p, q), (p + 1, q + 1)):
                out[key] = out[key] + x if key in out else x
        num = out
    return num


def rounded_sum(products, k):
    """The fiber function over (1 + z zbar)^k whose monomials are the sums
    of (sign, x, y) products x * y, each product rounded as the complex
    product rounds it, summed as Fractions and rounded once."""
    sums = {}
    for sign, x, y in products:
        for (p, q), xv in x.items():
            for (r, s), yv in y.items():
                xy = xv * yv
                acc = sums.setdefault((p + r, q + s), [0, 0])
                acc[0] += sign * Fraction(xy.real)
                acc[1] += sign * Fraction(xy.imag)
    return FiberFunction({key: complex(float(re), float(im))
                          for key, (re, im) in sums.items()}, k)


def rounded_wedge(a, b):
    """TwistorForm.wedge at full length: per leg key, the exact sum of
    products when every pair is exact, else rounded_sum over the raised
    factors; each coefficient reduced.  Also the number of float keys."""
    groups = {}
    for ka, fa in a.terms.items():
        for kb, fb in b.terms.items():
            key, sign = sort_indices(ka + kb)
            if sign:
                groups.setdefault(key, []).append((sign, fa, fb))
    terms, float_keys = {}, 0
    for key, group in groups.items():
        if all(fa.is_exact and fb.is_exact for _, fa, fb in group):
            f = FiberFunction()
            for sign, fa, fb in group:
                f = f + fa * fb * sign
        else:
            float_keys += 1
            k = max(fa.k + fb.k for _, fa, fb in group)
            f = rounded_sum([(sign, raised_num(fa, k - fa.k - fb.k),
                              complex_num(fb)) for sign, fa, fb in group], k)
        f = f.reduce()
        if f.coefs:
            terms[key] = f
    return terms, float_keys


def bits(f):
    """den, k and the sorted numerator, floats by their bits (so -0.0 and
    0.0 differ)."""
    num = sorted(f.coefs.items())
    if f.den is None:
        num = [(key, c.real.hex(), c.imag.hex()) for key, c in num]
    return f.den, f.k, num


class TestExactWedgeKernel:
    def assert_same_exact(self, got, want):
        assert list(got.terms) == list(want.terms)
        for key, f in want.terms.items():
            g = got.terms[key]
            assert (g.den, g.k, g.coefs) == (f.den, f.k, f.coefs)
        for z in sample_points(5, 3):
            assert got.eval_terms(z) == want.eval_terms(z)

    def float_sums(self, monkeypatch):
        calls = []

        def counted(products, fn=twistor._fconvolve):
            calls.append(1)
            return fn(products)

        monkeypatch.setattr(twistor, "_fconvolve", counted)
        return calls

    def test_random_forms_match_the_former_path(self, t23, monkeypatch):
        rng = random.Random(25)
        calls = self.float_sums(monkeypatch)
        cancelled = 0
        for da, db in [(0, 2), (1, 1), (1, 2), (2, 2), (2, 3), (3, 1)]:
            for _ in range(6):
                a = rand_split_form(t23, da, rng) if da else \
                    TwistorForm(t23, 0, {(): rand_fiber(rng)})
                b = rand_split_form(t23, db, rng)
                self.assert_same_exact(a.wedge(b), former_wedge(a, b))
        for _ in range(20):
            a, b = cancelling_pair(t23, rng)
            got = a.wedge(b)
            self.assert_same_exact(got, former_wedge(a, b))
            cancelled += len(got.terms) < 3
        assert cancelled == 20
        assert not calls

    def test_cr_forms_match_the_former_path(self, t23):
        cf = twistor_coframe(t23)
        u, span = cf["u"], [cf["h"], cf["n1"], cf["n2"].conjugate()]
        got = want = u
        for piece in span:
            got, want = got.wedge(piece), former_wedge(want, piece)
            self.assert_same_exact(got, want)
        for mu in [u] + span:
            self.assert_same_exact(mu.d().wedge(got),
                                   former_wedge(mu.d(), want))

    @pytest.mark.parametrize("exact_share", [0.0, 0.5])
    def test_float_and_mixed_forms_round_each_monomial_once(
            self, t23, monkeypatch, exact_share):
        rng = random.Random(f"float-{exact_share}")
        calls = self.float_sums(monkeypatch)
        float_keys = 0
        for da, db in [(1, 1), (1, 2), (2, 2)]:
            for _ in range(6):
                a = float_form(t23, da, rng, exact_share)
                b = (rand_split_form(t23, db, rng) if rng.randrange(2)
                     else float_form(t23, db, rng, exact_share))
                assert not (a.is_exact and b.is_exact)
                got = a.wedge(b)
                want, n = rounded_wedge(a, b)
                float_keys += n
                assert sorted(got.terms) == sorted(want)
                for key, f in want.items():
                    assert bits(got.terms[key]) == bits(f), key
        # one float sum per key with a float pair, and none for the keys
        # whose pairs are all exact
        assert len(calls) == float_keys > 18

    @pytest.mark.parametrize("exact_share", [0.0, 0.5])
    def test_float_products_round_each_monomial_once(self, exact_share):
        rng = random.Random(f"product-{exact_share}")
        for _ in range(40):
            # up to four monomials, so that three or more products meet
            f = float_fiber(rng) * float_fiber(rng)
            g = rand_fiber(rng) if rng.random() < exact_share \
                else float_fiber(rng)
            want = rounded_sum([(1, complex_num(f), complex_num(g))],
                               f.k + g.k)
            assert bits(f * g) == bits(want)
            assert bits(g * f) == bits(want)
        # summed in order, 1e16 + 1 - 1e16 would be 0.0
        f = fib({(0, 0): 1e16, (1, 0): 1.0, (2, 0): -1e16})
        g = fib({(2, 0): 1, (1, 0): 1, (0, 0): 1})
        assert (f * g).coefs[(2, 0)] == 1


# FiberFunction products in one warm cr --structure j0 of the pinned exact
# tor23 (rho = 1, eps = 1, delta = 1) model: 100 now, 364 when the wedge
# formed one product per pair of terms
MAX_FIBER_MULS = 120


def test_cr_wedges_without_per_pair_products(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(entry_json(
        "tor23", {"rho": "1", "eps": "1", "delta": "1"})))

    def cr():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["cr", str(path), "--structure", "j0", "--json",
                         "--tol", "1e-9"])
        return code, out.getvalue()

    cr()  # fills the caches every process shares
    calls = []

    def counted(*args, fn=FiberFunction.__mul__):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(FiberFunction, "__mul__", counted)
    monkeypatch.setattr(FiberFunction, "__rmul__", counted)
    code, out = cr()
    monkeypatch.undo()
    assert code == 0
    assert out == (DATA / "cr_j0_tor23_rho1.json").read_text()
    assert len(calls) <= MAX_FIBER_MULS


# CScalar products in one warm float cr --structure j0 of tor27 (rho = 1,
# phi = 0.7): none now, 1,985 when float fiber functions held CScalars
MAX_CSCALAR_MULS = 50


def test_float_cr_multiplies_no_cscalars(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(entry_json("tor27", {"rho": "1",
                                                    "phi": "0.7"})))

    def cr():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["cr", str(path), "--structure", "j0", "--json",
                         "--tol", "1e-9"])
        return code, out.getvalue()

    cr()  # fills the caches every process shares
    calls = []

    def counted(*args, fn=CScalar.__mul__):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(CScalar, "__mul__", counted)
    monkeypatch.setattr(CScalar, "__rmul__", counted)
    code, out = cr()
    monkeypatch.undo()
    assert code == 0
    assert out == (DATA / "cr_j0_tor27_rho1_phi0.7.json").read_text()
    assert len(calls) <= MAX_CSCALAR_MULS


# -- tolerance --------------------------------------------------------------


def near_tor23():
    """tor23 with 5e-8 e2^e3 added to d(e1): nearly integrable at 1e-5,
    not at 1e-9."""
    data = entry_json("tor23", {"rho": "1", "eps": "1", "delta": "1"})
    data["d"]["e1"].append(["5e-8", "e2", "e3"])
    return CoframeModel.from_json(data, tol=1e-5)


class TestTolerance:
    def test_residuals_use_the_given_tolerance(self):
        with pytest.raises(StructureError):
            cr_residuals(near_tor23(), tol=1e-9)
        out = cr_residuals(near_tor23(), tol=1e-5)
        assert out["integrable"], out["residuals"]

    def test_cache_never_answers_for_another_tolerance(self):
        model = near_tor23()
        assert cr_residuals(model, tol=1e-5)["integrable"]
        assert cr_residuals_sampled(model, tol=1e-5)[
            "max_sampled_residual"] < 1e-5
        with pytest.raises(StructureError):
            cr_residuals(model, tol=1e-9)
        with pytest.raises(StructureError):
            twistor_coframe(model, tol=1e-9)

    def test_null_relations_use_the_given_tolerance(self):
        model = near_tor23()
        checks = null_span_checks(model, tol=1e-5)
        assert all(v == 0.0 for v in checks.values()), checks
        with pytest.raises(StructureError):
            null_span_checks(model, tol=1e-9)
