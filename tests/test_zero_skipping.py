"""The library's sparse loops against dense references, by the rule for
sums.

Each reference below walks the index set of a dense loop: every pair of
factors, in index order.  It sums them by the rule that scalar.sum_products
states, computed independently: a pair with an exact-zero factor is left
out; the products are added as Scalars (or CScalars) when every one is
exact; otherwise the sum is float(sum(map(Fraction, products))), the
correctly rounded sum of the rounded products, for a CScalar its real and
its imaginary part apart.  On seeded random input (exact, float, and a mix
with exact zeros) the library must agree bit for bit: equal exact values,
and floats with the same bits, the sign of a zero included.  Count guards
then pin how many Scalar and CScalar additions and multiplies one classify
and one det_identity make.
"""

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from so3five.cli import main
from so3five.connection import _torsion_square
from so3five.exterior import CoframeModel
from so3five.repr import (PAIRS, TRIPLES, ConnTensor, CurvTensor, Tensor2,
                          form_array, upsilon_bar)
from so3five.scalar import CScalar, Scalar, dot, scalar
from so3five.spin import NINE_SIXTEENTHS, det4, det_identity
from so3five.upsilon import standard_upsilon

FLAT = CoframeModel("flat5", {})
DATA = Path(__file__).parent / "data"
N = 5
KINDS = ("exact", "float", "mixed")


# -- the reference sum ----------------------------------------------------


def exact_zero(x):
    return x.is_exact and x.is_zero()


def rounded_sum(values):
    """The plain sum of Scalars when each is exact, else the correctly
    rounded sum of their rounded values."""
    if all(v.is_exact for v in values):
        return sum(values, Scalar(0))
    return Scalar.from_float(float(sum(Fraction(float(v)) for v in values)))


def reference(pairs):
    """The sum of x * y over the pairs without an exact-zero factor."""
    products = [x * y for x, y in pairs
                if not (exact_zero(x) or exact_zero(y))]
    if products and isinstance(products[0], CScalar):
        return CScalar(rounded_sum([p.re for p in products]),
                       rounded_sum([p.im for p in products]))
    return rounded_sum(products)


# -- the dense references -------------------------------------------------


def dense_torsion_square(T):
    dense = form_array(T)
    return [[reference((dense[i][k][l], dense[j][k][l])
                       for k in range(N) for l in range(N))
             for j in range(N)] for i in range(N)]


def dense_det4(A):
    """Cofactor expansion along the first row, and on down the rows."""
    def det(row, cols):
        if len(cols) == 1:
            return A[row][cols[0]]
        return reference((A[row][c], det(row + 1, cols[:n] + cols[n + 1:])
                          * scalar(-1 if n % 2 else 1))
                         for n, c in enumerate(cols))
    got = det(0, (0, 1, 2, 3))
    return got if isinstance(got, CScalar) else CScalar(got, 0)


def dense_scale(W, c):
    return [[reference([(c, a)]) for a in row] for row in W.m]


def dense_add(W, V):
    one = Scalar(1)
    return [[reference([(a, one), (b, one)]) for a, b in zip(r1, r2)]
            for r1, r2 in zip(W.m, V.m)]


def dense_sub(W, V):
    one = Scalar(1)
    return [[reference([(a, one), (b, -one)]) for a, b in zip(r1, r2)]
            for r1, r2 in zip(W.m, V.m)]


def dense_inner(W, V):
    return reference((W.m[i][j], V.m[i][j])
                     for i in range(N) for j in range(N))


def dense_upsilon_bar(v):
    d = standard_upsilon().dense()
    return [[reference((d[i][j][k], v[k]) for k in range(N))
             for j in range(N)] for i in range(N)]


def dense_predicted(coeffs):
    square_sum = reference((c, c) for c in coeffs)
    return NINE_SIXTEENTHS * square_sum * square_sum


def dense_ricci(K):
    R = [form_array(f) for f in K.forms]
    return [[reference((e, R[a][i][l]) for i in range(N)
                       for a, e in K.support[i][j])
              for l in range(N)] for j in range(N)]


# -- seeded random input --------------------------------------------------


def value(rng, kind):
    """An exact zero a third of the time; otherwise an exact value, a float
    (zero or negative zero now and then) or, for "mixed", an exact value
    with a float one time in eight, so that a float often meets only exact
    zeros."""
    if rng.randrange(3) == 0:
        return Scalar(0)
    if kind == "mixed":
        kind = "float" if rng.randrange(8) == 0 else "exact"
    if kind == "exact":
        return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                      Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    return Scalar.from_float(rng.choice((0.0, -0.0, rng.uniform(-2, 2),
                                         rng.uniform(-2, 2))))


def tensor(rng, kind):
    return Tensor2([[value(rng, kind) for _ in range(N)] for _ in range(N)])


def form(rng, kind, degree):
    keys = PAIRS if degree == 2 else TRIPLES
    # floats this small would be pruned from a form
    terms = [(tuple(i + 1 for i in key), v) for key in keys
             for v in [value(rng, kind)] if v.is_exact or abs(float(v)) > 0.1]
    return FLAT.form(degree, terms)


def bits(v):
    """An exact Scalar as its value, a float one as its bits."""
    return ("exact", v) if v.is_exact else ("float", float(v).hex())


def assert_same(got, want):
    """Equal exact values and equal float bits on every entry."""
    for g, w in zip((v for row in got for v in row),
                    (v for row in want for v in row)):
        if isinstance(w, CScalar):
            assert (bits(g.re), bits(g.im)) == (bits(w.re), bits(w.im))
        else:
            assert bits(g) == bits(w)
    assert [len(row) for row in got] == [len(row) for row in want]


# -- the differential tests -----------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_torsion_square_matches_the_dense_loop(kind):
    rng = random.Random(f"tsq-{kind}")
    for _ in range(20):
        T = form(rng, kind, 3)
        assert_same(_torsion_square(T).m, dense_torsion_square(T))


@pytest.mark.parametrize("kind", KINDS)
def test_det4_matches_the_dense_expansion(kind):
    rng = random.Random(f"det4-{kind}")
    for _ in range(30):
        A = [[CScalar(value(rng, kind), value(rng, kind)) for _ in range(4)]
             for _ in range(4)]
        assert_same([[det4(A)]], [[dense_det4(A)]])


@pytest.mark.parametrize("kind", KINDS)
def test_det_identity_prediction_matches_the_dense_sum(kind):
    rng = random.Random(f"predicted-{kind}")
    for _ in range(30):
        coeffs = [value(rng, kind) for _ in range(3)]
        assert_same([[det_identity(coeffs)[2]]], [[dense_predicted(coeffs)]])


def test_det4_keeps_the_cofactor_of_a_float_zero():
    # diag(0.0, 1, 1, 1): the first cofactor is 0.0 * 1, a float zero
    A = [[CScalar(int(i == j), 0) for j in range(4)] for i in range(4)]
    A[0][0] = CScalar(Scalar.from_float(0.0), 0)
    got = det4(A)
    assert_same([[got]], [[dense_det4(A)]])
    assert got.re.to_string() == "0.0"


@pytest.mark.parametrize("kind", KINDS)
def test_tensor2_operations_match_the_dense_loops(kind):
    rng = random.Random(f"t2-{kind}")
    for _ in range(20):
        W, V = tensor(rng, kind), tensor(rng, kind)
        c = value(rng, kind)
        assert_same(W.scale(c).m, dense_scale(W, c))
        assert_same((W + V).m, dense_add(W, V))
        assert_same((W - V).m, dense_sub(W, V))
        assert_same([[W.inner(V)]], [[dense_inner(W, V)]])


@pytest.mark.parametrize("kind", KINDS)
def test_upsilon_bar_matches_the_dense_loop(kind):
    rng = random.Random(f"bar-{kind}")
    for _ in range(20):
        v = [value(rng, kind) for _ in range(N)]
        assert_same(upsilon_bar(v).m, dense_upsilon_bar(v))


@pytest.mark.parametrize("kind", KINDS)
def test_curvature_ricci_matches_the_dense_loop(kind):
    rng = random.Random(f"ricci-{kind}")
    for _ in range(10):
        for K in (CurvTensor.from_forms([form(rng, kind, 2)
                                         for _ in range(3)]),
                  CurvTensor.from_pair_forms([form(rng, kind, 2)
                                              for _ in PAIRS])):
            assert_same(K.ricci().m, dense_ricci(K))


@pytest.mark.parametrize("kind", KINDS)
def test_dot_matches_the_former_loop(kind):
    rng = random.Random(f"dot-{kind}")
    for _ in range(200):
        n = rng.randint(1, 8)
        u = [value(rng, kind) for _ in range(n)]
        v = [value(rng, kind) for _ in range(n)]
        assert_same([[dot(u, v)]], [[reference(zip(u, v))]])


@pytest.mark.parametrize("kind", KINDS)
def test_conn_tensor_from_pairs_matches_the_former_loop(kind):
    # from_pairs sums nothing: it stores each value and its negation
    rng = random.Random(f"pairs-{kind}")
    keys = [(i, j, k) for i, j in PAIRS for k in range(N)]
    for _ in range(20):
        data = {key: value(rng, kind)
                for key in rng.sample(keys, rng.randint(1, len(keys)))}
        want = [[[Scalar(0)] * N for _ in range(N)] for _ in range(N)]
        for (i, j, k), v in data.items():
            want[i][j][k], want[j][i][k] = v, -v
        got = ConnTensor.from_pairs(data).x
        assert_same([row for plane in got for row in plane],
                    [row for plane in want for row in plane])


def test_conn_tensor_from_pairs_keeps_the_sign_of_a_float_zero():
    # the value as it is, and -(0.0) is -0.0
    for v, neg in ((0.0, "-0.0"), (-0.0, "0.0")):
        x = ConnTensor.from_pairs({(0, 1, 2): Scalar.from_float(v)}).x
        assert (x[0][1][2].to_string(), x[1][0][2].to_string()) == \
            (repr(v), neg)


def test_dot_keeps_the_sign_of_a_float_zero():
    # the exact zero 1 * 0 is left out and -0.0 alone sums to +0.0, as
    # every zero sum of floats does
    one, zero, neg = Scalar(1), Scalar(0), Scalar.from_float(-0.0)
    for u, v in (([one, one], [neg, zero]), ([one, one], [zero, neg])):
        assert dot(u, v).to_string() == reference(zip(u, v)).to_string() \
            == "0.0"


def test_inputs_cover_exact_zeros_and_float_zeros():
    rng = random.Random("cover")
    seen = {(v.is_exact, v.is_zero(0.0))
            for kind in KINDS for _ in range(10)
            for v in tensor(rng, kind).entries()}
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


# -- the count guards -----------------------------------------------------

# Scalar multiplies and additions of one warm classify: of the pinned exact
# tor23 (rho = 1, eps = 1, delta = 1) model, for which the dense loops made
# 2,621 and 2,624, and of the pinned float tor27 (rho = 1, phi = 0.7) model,
# for which the dense float loops made 3,415 and 3,540
MAX_CALLS = {"mul": 902, "add": 848}
MAX_FLOAT_CALLS = {"mul": 1711, "add": 675}


def count_calls(monkeypatch, cls, ops):
    """Count the calls of cls's arithmetic ops until monkeypatch.undo()."""
    calls = Counter()
    for name, op in (("__mul__", "mul"), ("__rmul__", "mul"),
                     ("__add__", "add"), ("__radd__", "add")):
        if op in ops:
            def counted(*args, fn=getattr(cls, name), op=op):
                calls[op] += 1
                return fn(*args)
            monkeypatch.setattr(cls, name, counted)
    return calls


def classify_calls(tmp_path, monkeypatch, pinned, entry, params):
    """The Scalar calls of one warm classify, whose output is the pin."""
    from so3five.catalog import entry_json
    path = tmp_path / "model.json"
    path.write_text(json.dumps(entry_json(entry, params)))

    def classify():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["classify", str(path), "--json", "--tol", "1e-9"])
        return code, out.getvalue()

    classify()  # fills the caches every process shares
    calls = count_calls(monkeypatch, Scalar, ("mul", "add"))
    code, out = classify()
    monkeypatch.undo()
    assert code == 0
    assert out == (DATA / f"classify_{pinned}.json").read_text()
    return calls


def test_classify_stays_off_the_exact_zeros(tmp_path, monkeypatch):
    calls = classify_calls(tmp_path, monkeypatch, "tor23_rho1", "tor23",
                           {"rho": "1", "eps": "1", "delta": "1"})
    assert calls["mul"] <= MAX_CALLS["mul"]
    assert calls["add"] <= MAX_CALLS["add"]


def test_float_classify_stays_off_the_dense_loops(tmp_path, monkeypatch):
    calls = classify_calls(tmp_path, monkeypatch, "tor27_rho1_phi0.7",
                           "tor27", {"rho": "1", "phi": "0.7"})
    assert calls["mul"] <= MAX_FLOAT_CALLS["mul"]
    assert calls["add"] <= MAX_FLOAT_CALLS["add"]


def test_det_identity_adds_through_one_sum(monkeypatch):
    # W, its determinant and the sum of squares are each one sum of
    # products; the one CScalar addition left is det W - predicted (the
    # dense loops made 73)
    coeffs = [Scalar.from_float(0.3), Scalar.from_float(-1.2),
              Scalar.from_float(0.8)]
    want = det_identity(coeffs)[1]
    calls = count_calls(monkeypatch, CScalar, ("add",))
    got = det_identity(coeffs)[1]
    monkeypatch.undo()
    assert (got.re.to_string(), got.im.to_string()) == \
        (want.re.to_string(), want.im.to_string())
    assert calls["add"] <= 1
