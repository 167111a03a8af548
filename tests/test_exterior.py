"""Coframe models, wedge, Hodge star, exterior derivative."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from so3five.exterior import (
    CoframeModel,
    ModelError,
    ext_d,
    form_inner,
    form_norm_sq,
    hodge_star,
    sort_indices,
    wedge,
    wedge_all,
)
from so3five.scalar import Scalar, scalar, sqrt3


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
