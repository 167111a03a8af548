"""Coframe models, wedge, Hodge star, exterior derivative.

The engine looks each pair of sorted leg tuples up in a merge table and
builds results from normal terms without re-checking them.  Its former
loops, which sorted every concatenated pair and passed every result
through the checking constructor, are kept below as references: on seeded
exact, float and mixed forms of Form, CForm and TwistorForm the engine must
give the same terms in the same order, equal on exact input and with the
same strings on float input.  A count guard pins how many leg tuples one
warm cr request sorts.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from so3five import exterior
from so3five.catalog import entry_json, tor23_model, torsion_free_model
from so3five.cli import main
from so3five.connection import CForm
from so3five.exterior import (
    MERGED,
    CoframeModel,
    Form,
    ModelError,
    ext_d,
    form_inner,
    form_norm_sq,
    hodge_star,
    sort_indices,
    wedge,
    wedge_all,
)
from so3five.scalar import CScalar, Scalar, scalar, sqrt3
from so3five.twistor import FiberFunction, TwistorForm

DATA = Path(__file__).parent / "data"


def flat_model():
    return CoframeModel("flat5", d={})


def volume(model):
    return model.basis(1, 2, 3, 4, 5)


def scalar_form(model, c):
    return model.form(0, {(): c})


def heisenberg_like():
    return CoframeModel("heis", d={5: [(1, 1, 2)]})


def case2_one_one():
    """Six-dimensional bundle-type model: the two-parameter family at
    parameters (1, 1); one vertical leg f1 (index 6)."""
    half = Fraction(1, 2)
    return CoframeModel(
        "case2(1,1)", n_fiber=1,
        d={
            1: [(1, 2, 4), (1, 3, 5)],
            2: [(-1, 1, 4), (2, 4, 6)],
            3: [(-1, 1, 5), (1, 5, 6)],
            4: [(1, 1, 2), (-2, 2, 6)],
            5: [(1, 1, 3), (-1, 3, 6)],
            6: [(-half, 3, 5), (-1, 2, 4)],
        })


def kappa3(model):
    return model.form(2, [((2, 4), 2), ((3, 5), 1)])


def kappa1(model):
    return model.form(2, [((1, 5), sqrt3()), ((2, 3), 1), ((4, 5), 1)])


def kappa2(model):
    return model.form(2, [((1, 3), sqrt3()), ((2, 5), 1), ((3, 4), 1)])


def rand_form(model, degree, rng, n_terms=4):
    terms = []
    for _ in range(n_terms):
        key = tuple(rng.sample(range(1, 6), degree))
        coef = Scalar.exact(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                            Fraction(rng.randint(-2, 2), 2))
        terms.append((key, coef))
    return model.form(degree, terms)


# -- permutations ----------------------------------------------------------


def test_sort_indices():
    assert sort_indices((1, 2, 4, 3, 5)) == ((1, 2, 3, 4, 5), -1)
    assert sort_indices((2, 1)) == ((1, 2), -1)
    assert sort_indices((1, 1)) == (None, 0)
    assert sort_indices(()) == ((), 1)


# -- form basics -----------------------------------------------------------


def test_wedge_square_of_basis_is_zero():
    m = flat_model()
    t1 = m.basis(1)
    assert wedge(t1, t1).is_zero()


def test_wedge_anticommutes_in_degree_one():
    m = flat_model()
    a, b = m.basis(1), m.basis(2)
    assert wedge(a, b) == -wedge(b, a)


def test_kappa3_square():
    m = flat_model()
    k3 = kappa3(m)
    sq = wedge(k3, k3)
    assert sq == m.form(4, [((2, 3, 4, 5), -4)])


def test_coeff_antisymmetrized_access():
    m = flat_model()
    f = m.form(2, [((1, 2), 1)])
    assert f.coeff((2, 1)) == -1
    assert f.coeff((1, 1)).is_zero()
    assert f.coeff((4, 5)).is_zero()


def test_pruning_and_zero():
    m = flat_model()
    f = m.basis(1, 2) - m.basis(1, 2)
    assert f.terms == {}
    assert f.is_zero()


def test_wedge_above_dimension_vanishes():
    m = flat_model()
    vol = volume(m)
    assert wedge(vol, m.basis(1)).is_zero()


# -- hodge -----------------------------------------------------------------


def test_hodge_examples():
    m = flat_model()
    assert hodge_star(volume(m)) == scalar_form(m, 1)
    assert hodge_star(m.basis(1)) == m.basis(2, 3, 4, 5)
    assert hodge_star(scalar_form(m, 1)) == volume(m)
    # odd permutation (1,2,4,3,5): the complement pair picks up the sign
    assert hodge_star(m.basis(1, 2, 4)) == -m.basis(3, 5)


def test_hodge_involutive_all_degrees():
    m = flat_model()
    rng = random.Random(3)
    for degree in range(6):
        for _ in range(5):
            f = rand_form(m, degree, rng) if degree else scalar_form(m, 2)
            assert hodge_star(hodge_star(f)) == f


def test_hodge_rejects_fiber_legs():
    m = case2_one_one()
    with pytest.raises(ModelError):
        hodge_star(m.basis(6))
    with pytest.raises(ModelError):
        hodge_star(m.form(2, [((1, 6), 1)]))


def test_kappa_inner_products():
    m = flat_model()
    ks = [kappa1(m), kappa2(m), kappa3(m)]
    for i in range(3):
        for j in range(3):
            want = 5 if i == j else 0
            assert form_inner(ks[i], ks[j]) == want


def test_inner_symmetric_seeded():
    m = flat_model()
    rng = random.Random(11)
    for degree in (1, 2, 3):
        for _ in range(10):
            a, b = rand_form(m, degree, rng), rand_form(m, degree, rng)
            lhs, rhs = form_inner(a, b), form_inner(b, a)
            assert lhs == rhs and lhs.is_exact
    f = rand_form(m, 2, rng)
    assert form_norm_sq(f).sign() >= 0


# -- exterior derivative ---------------------------------------------------


def test_d_on_flat_model_vanishes():
    m = flat_model()
    rng = random.Random(5)
    for degree in (1, 2, 3):
        assert ext_d(rand_form(m, degree, rng)).is_zero()


def test_d_heisenberg():
    m = heisenberg_like()
    assert ext_d(m.basis(5)) == m.basis(1, 2)
    assert ext_d(m.basis(4, 5)) == -m.form(3, [((1, 2, 4), 1)])


def test_d_leibniz_seeded():
    m = case2_one_one()
    rng = random.Random(17)
    for ka, kb in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for _ in range(6):
            a, b = rand_form(m, ka, rng), rand_form(m, kb, rng)
            lhs = ext_d(wedge(a, b))
            sign = 1 if ka % 2 == 0 else -1
            rhs = wedge(ext_d(a), b) + sign * wedge(a, ext_d(b))
            assert lhs == rhs


def test_d_squared_zero_on_bundle_model():
    m = case2_one_one()
    assert not m.jacobi_residuals()
    rng = random.Random(23)
    for _ in range(8):
        f = rand_form(m, 2, rng)
        assert ext_d(ext_d(f)).is_zero()


def test_case2_torsion_dT():
    m = case2_one_one()
    T = m.form(3, [((1, 2, 4), 1), ((1, 3, 5), 1)])
    assert ext_d(T) == m.form(4, [((2, 3, 4, 5), -2)])


def test_broken_jacobi_rejected():
    with pytest.raises(ModelError):
        CoframeModel("bad", d={1: [(1, 2, 3)], 2: [(1, 1, 4)]})


# -- model construction and serialization ----------------------------------


def test_labels_default_and_custom():
    m = case2_one_one()
    assert m.labels == ("e1", "e2", "e3", "e4", "e5", "f1")
    assert m.dim == 6 and m.n_fiber == 1
    with pytest.raises(ModelError):
        CoframeModel("dup", labels=["a"] * 5)
    with pytest.raises(ModelError):
        CoframeModel("badfiber", n_fiber=2)


def test_unordered_pairs_canonicalized():
    m = CoframeModel("swap", d={5: [(1, 2, 1)]})
    assert m.d_of(5) == -m.basis(1, 2)


def test_json_roundtrip_exact():
    m = case2_one_one()
    blob = json.dumps(m.to_json())
    m2 = CoframeModel.from_json(json.loads(blob))
    assert m2.labels == m.labels
    for i in range(1, m.dim + 1):
        d1, d2 = m.d_of(i), m2.d_of(i)
        assert d1.terms.keys() == d2.terms.keys()
        for k in d1.terms:
            x, y = d1.terms[k], d2.terms[k]
            assert x.is_exact and y.is_exact and x.a == y.a and x.b == y.b


def test_json_connection_roundtrip():
    m = CoframeModel("withconn", d={},
                     connection={1: [(scalar("1/2"), 1)],
                                 2: [(sqrt3(), 3)],
                                 3: []})
    data = m.to_json()
    m2 = CoframeModel.from_json(data)
    assert m2.has_connection
    assert m2.gamma(1) == m2.basis(1) * scalar("1/2")
    assert m2.gamma(2) == m2.basis(3) * sqrt3()
    assert m2.gamma(3).is_zero()


def test_json_schema_errors_have_paths():
    with pytest.raises(ModelError, match="/labels"):
        CoframeModel.from_json({"name": "x", "labels": "no", "d": {}})
    with pytest.raises(ModelError, match="/d/e1"):
        CoframeModel.from_json({
            "name": "x",
            "labels": ["e1", "e2", "e3", "e4", "e5"],
            "d": {"e1": [["1", "e2"]]},
        })
    with pytest.raises(ModelError, match="missing"):
        CoframeModel.from_json({"labels": [], "d": {}})


def test_wedge_all_orientation():
    m = flat_model()
    thetas = [m.basis(i) for i in (1, 2, 3, 4, 5)]
    assert wedge_all(*thetas) == volume(m)


# -- the merge table against the former sort-per-pair loops ----------------


def test_merge_table_agrees_with_sorting_every_pair():
    keys = [k for n in range(6) for k in combinations(range(1, 9), n)]
    pairs = [(ka, kb) for ka in keys for kb in keys
             if len(ka) + len(kb) <= 5]
    assert len(pairs) == 6885
    for ka, kb in pairs:
        assert MERGED[ka, kb] == sort_indices(ka + kb), (ka, kb)


def former_wedge(a, b):
    out = type(a)(a.model, a.degree + b.degree)
    if out.degree > a.model.dim + a.n_extra:
        return out
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            key, sign = sort_indices(ka + kb)
            if sign == 0:
                continue
            c = va * vb
            out._merge(key, c if sign > 0 else -c)
    out._prune()
    return out


def former_ext_d(a):
    model = a.model
    out = type(a)(model, a.degree + 1)
    for key, coef in a.terms.items():
        for pos, leg in enumerate(key):
            if leg > model.dim:
                continue
            for (b, c), dco in model._d_terms[leg].items():
                merged, s = sort_indices((b, c) + key[:pos] + key[pos + 1:])
                if s == 0:
                    continue
                val = coef * (dco if pos % 2 == 0 else -dco)
                out._merge(merged, val if s > 0 else -val)
    out._prune()
    return out


def former_hodge_star(a, top=5):
    out = type(a)(a.model, top - a.degree)
    full = tuple(range(1, top + 1))
    for key, coef in a.terms.items():
        comp = tuple(i for i in full if i not in key)
        _, sign = sort_indices(key + comp)
        out._accumulate(comp, coef if sign > 0 else -coef)
    out._prune()
    return out


def former_twistor_d(a):
    out = former_ext_d(a)
    dz, dzb = a.model.dim + 1, a.model.dim + 2
    for legs, f in a.terms.items():
        out._accumulate((dz,) + legs, f.d_z())
        out._accumulate((dzb,) + legs, f.d_zbar())
    out._prune()
    return out


def former_add(a, b):
    out = type(a)(a.model, a.degree, a.terms)
    for k, v in b.terms.items():
        out._accumulate(k, v)
    out._prune()
    return out


def former_neg(a):
    return type(a)(a.model, a.degree, {k: -v for k, v in a.terms.items()})


def former_mul(a, c):
    c = a.ring(c)
    return type(a)(a.model, a.degree, {k: v * c for k, v in a.terms.items()})


def value(rng, kind):
    """A nonzero exact value, or a float (now and then a tiny one that
    products push below the pruning tolerance); "mixed" draws a float one
    time in four."""
    if kind == "mixed":
        kind = "float" if rng.randrange(4) == 0 else "exact"
    if kind == "exact":
        return Scalar(Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                               rng.randint(1, 3)),
                      Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    return Scalar.from_float(rng.choice((1e-6, -1e-7, rng.uniform(-2, 2),
                                         rng.uniform(-2, 2))))


def coefficient(cls, rng, kind):
    if cls is Form:
        return value(rng, kind)
    c = CScalar(value(rng, kind), value(rng, kind) if rng.randrange(2)
                else Scalar(0))
    if cls is CForm:
        return c
    return FiberFunction({(rng.randrange(3), rng.randrange(3)): c,
                          (rng.randrange(3), rng.randrange(3)):
                          CScalar(value(rng, kind))}, rng.randrange(3))


def random_form(cls, model, degree, rng, kind, top=None):
    legs = range(1, (top or model.dim + cls.n_extra) + 1)
    return cls(model, degree, [(tuple(rng.sample(legs, degree)),
                                coefficient(cls, rng, kind))
                               for _ in range(rng.randint(1, 5))])


def text(v):
    """The value in printable parts, in storage order."""
    if isinstance(v, Scalar):
        return v.to_string(), v.is_exact
    if isinstance(v, CScalar):
        return text(v.re), text(v.im)
    return v.k, [(key, text(c)) for key, c in v.num.items()]


def assert_same(got, want):
    assert type(got) is type(want)
    assert (got.model, got.degree) == (want.model, want.degree)
    assert [(k, text(v)) for k, v in got.terms.items()] == \
        [(k, text(v)) for k, v in want.terms.items()]
    if all(v.is_exact for v in want.terms.values()):
        assert got == want


RINGS = {Form: Scalar, CForm: CScalar, TwistorForm: FiberFunction}


def assert_normal(f):
    top = f.model.dim + f.n_extra
    for key, v in f.terms.items():
        assert len(key) == f.degree
        assert all(a < b for a, b in zip(key, key[1:])), key
        assert all(1 <= i <= top for i in key), key
        assert type(v) is RINGS[type(f)]
        assert not v.is_zero()


KINDS = ("exact", "float", "mixed")
CASES = [(cls, kind) for cls in RINGS for kind in KINDS]


def models(cls):
    if cls is TwistorForm:
        return [tor23_model(1, 0, 1, 1)]
    return [tor23_model(1, 0, 1, 1), case2_one_one(), torsion_free_model(1)]


@pytest.mark.parametrize("cls, kind", CASES)
def test_engine_matches_the_former_loops(cls, kind):
    rng = random.Random(f"engine-{cls.__name__}-{kind}")
    for model in models(cls):
        for _ in range(6):
            for da, db in ((0, 2), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
                a = random_form(cls, model, da, rng, kind)
                b = random_form(cls, model, db, rng, kind)
                assert_same(wedge(a, b), former_wedge(a, b))
                assert_same(ext_d(a), former_ext_d(a))
                c = random_form(cls, model, da, rng, kind)
                assert_same(a + c, former_add(a, c))
                assert_same(a - c, former_add(a, former_neg(c)))
                assert_same(-a, former_neg(a))
                k = coefficient(cls, rng, kind)
                assert_same(a * k, former_mul(a, k))
                base = random_form(cls, model, da, rng, kind, top=5)
                assert_same(hodge_star(base), former_hodge_star(base))
                if cls is TwistorForm:
                    assert_same(a.d(), former_twistor_d(a))
                    assert_same(hodge_star(a, 7), former_hodge_star(a, 7))


@pytest.mark.parametrize("cls, kind", CASES)
def test_engine_results_are_normal(cls, kind):
    rng = random.Random(f"normal-{cls.__name__}-{kind}")
    for model in models(cls):
        for _ in range(10):
            a = random_form(cls, model, rng.randint(1, 3), rng, kind)
            b = random_form(cls, model, a.degree, rng, kind)
            c = random_form(cls, model, rng.randint(0, 2), rng, kind)
            results = [a + b, a - b, a - a, -a, a * coefficient(cls, rng, kind),
                       a * 0, wedge(a, c), wedge(c, a), ext_d(a), ext_d(c),
                       hodge_star(random_form(cls, model, 2, rng, kind,
                                              top=5))]
            if cls is TwistorForm:
                results += [a.d(), a.wedge(c), hodge_star(a, 7)]
            for f in results:
                assert_normal(f)


def test_hodge_star_above_the_coframe_names_the_leg():
    m = flat_model()
    with pytest.raises(ModelError, match="coframe index 6 out of range 1..5"):
        hodge_star(m.basis(1), 7)
    assert hodge_star(m.zero(1), 7).terms == {}


# -- the count guard --------------------------------------------------------

# leg tuples one warm cr --structure j0 of the pinned exact tor23 (rho = 1,
# eps = 1, delta = 1) model sorts: 316, all for terms that enter through
# the checking constructor; sorting every wedge and ext_d pair made 1,933
MAX_SORTS = 350


def test_cr_sorts_each_leg_pair_once(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(entry_json(
        "tor23", {"rho": "1", "eps": "1", "delta": "1"})))

    def cr():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["cr", str(path), "--structure", "j0", "--json",
                         "--tol", "1e-9"])
        return code, out.getvalue()

    cr()  # fills the caches every process shares, the merge table included
    calls = []

    def counted(indices, fn=sort_indices):
        calls.append(indices)
        return fn(indices)

    monkeypatch.setattr(exterior, "sort_indices", counted)
    code, out = cr()
    monkeypatch.undo()
    assert code == 0
    assert out == (DATA / "cr_j0_tor23_rho1.json").read_text()
    assert len(calls) <= MAX_SORTS
