"""The loops that leave out exact zeros against the dense loops they replaced.

Each reference below is a former dense loop, kept here as it was: every
product and sum, in index order.  The library's loops skip a product or a
sum with an exact-zero operand only when every operand of that sum is
exact, so on seeded random input (exact, float, and a mix with exact zeros)
they must give the same values: equal on exact input, and the same
to_string() on float input, where a float 0.0 must not turn into an exact
0 or the reverse.  A count guard then pins how many Scalar multiplies and
additions one classify makes.
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


# -- the dense references -------------------------------------------------


def dense_torsion_square(T):
    dense = form_array(T)
    return [[sum((dense[i][k][l] * dense[j][k][l]
                  for k in range(N) for l in range(N)), Scalar(0))
             for j in range(N)] for i in range(N)]


def dense_det4(A):
    def det3(M):
        return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))

    total = CScalar(0)
    sign = 1
    for col in range(4):
        minor = [[A[i][j] for j in range(4) if j != col] for i in range(1, 4)]
        total = total + scalar(sign) * A[0][col] * det3(minor)
        sign = -sign
    return total


def dense_scale(W, c):
    return [[c * a for a in row] for row in W.m]


def dense_add(W, V):
    return [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(W.m, V.m)]


def dense_sub(W, V):
    return [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(W.m, V.m)]


def dense_inner(W, V):
    acc = Scalar(0)
    for i in range(N):
        for j in range(N):
            acc = acc + W.m[i][j] * V.m[i][j]
    return acc


def dense_upsilon_bar(v):
    d = standard_upsilon().dense()
    exact = all(c.is_exact for c in v)
    return [[sum((d[i][j][k] * v[k] for k in range(N)
                  if not (exact and d[i][j][k].is_zero())), Scalar(0))
             for j in range(N)] for i in range(N)]


def dense_predicted(coeffs):
    square_sum = sum((c * c for c in coeffs), scalar(0))
    return NINE_SIXTEENTHS * square_sum * square_sum


def dense_ricci(K):
    R = [form_array(f) for f in K.forms]
    return [[sum((e * R[a][i][l] for i in range(N)
                  for a, e in K.support[i][j]), Scalar(0))
              for l in range(N)] for j in range(N)]


def former_dot(u, v):
    """scalar.dot before it also left out exact-zero second factors: it
    skipped only an exact-zero first factor."""
    acc = None
    for x, y in zip(u, v):
        if isinstance(x, Scalar) and x._f is None and not x._n and not x._m:
            continue
        acc = x * y if acc is None else acc + x * y
    return acc if acc is not None else u[0] * v[0]


def former_from_pairs(data):
    """ConnTensor.from_pairs before it stored exact values directly: each
    value added to, and subtracted from, a fresh zero."""
    x = [[[Scalar(0) for _ in range(N)] for _ in range(N)] for _ in range(N)]
    for (i, j, k), v in data.items():
        v = scalar(v)
        x[i][j][k] = x[i][j][k] + v
        x[j][i][k] = x[j][i][k] - v
    return x


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


def strings(rows):
    return [[v.to_string() for v in row] for row in rows]


def assert_same(got, want):
    """Equal values on exact entries, the same strings on every entry."""
    assert strings(got) == strings(want)
    for g, w in zip((v for row in got for v in row),
                    (v for row in want for v in row)):
        assert g.is_exact == w.is_exact
        if w.is_exact:
            assert g == w


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
        got, want = det4(A), dense_det4(A)
        assert_same([[got.re, got.im]], [[want.re, want.im]])


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
    got, want = det4(A), dense_det4(A)
    assert_same([[got.re, got.im]], [[want.re, want.im]])
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
        assert_same([[dot(u, v)]], [[former_dot(u, v)]])


@pytest.mark.parametrize("kind", KINDS)
def test_conn_tensor_from_pairs_matches_the_former_loop(kind):
    rng = random.Random(f"pairs-{kind}")
    keys = [(i, j, k) for i, j in PAIRS for k in range(N)]
    for _ in range(20):
        data = {key: value(rng, kind)
                for key in rng.sample(keys, rng.randint(1, len(keys)))}
        got = ConnTensor.from_pairs(data).x
        assert_same([row for plane in got for row in plane],
                    [row for plane in former_from_pairs(data)
                     for row in plane])


def test_conn_tensor_from_pairs_keeps_the_sign_of_a_float_zero():
    # 0 + (-0.0) is 0.0 and 0 - 0.0 is 0.0, where -(0.0) would be -0.0
    for v in (0.0, -0.0):
        x = ConnTensor.from_pairs({(0, 1, 2): Scalar.from_float(v)}).x
        assert (x[0][1][2].to_string(), x[1][0][2].to_string()) == \
            ("0.0", "0.0")


def test_dot_keeps_the_sign_of_a_float_zero():
    # -0.0 plus the exact zero 1 * 0 is +0.0, so that product stays in
    one, zero, neg = Scalar(1), Scalar(0), Scalar.from_float(-0.0)
    for u, v in (([one, one], [neg, zero]), ([one, one], [zero, neg])):
        assert dot(u, v).to_string() == former_dot(u, v).to_string() == "0.0"


def test_inputs_cover_exact_zeros_and_float_zeros():
    rng = random.Random("cover")
    seen = {(v.is_exact, v.is_zero(0.0))
            for kind in KINDS for _ in range(10)
            for v in tensor(rng, kind).entries()}
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


# -- the count guard ------------------------------------------------------

# Scalar multiplies and additions of one warm classify of the pinned exact
# tor23 (rho = 1, eps = 1, delta = 1) model; the dense loops made 2,621 and
# 2,624
MAX_CALLS = {"mul": 902, "add": 848}


def test_classify_stays_off_the_exact_zeros(tmp_path, monkeypatch):
    from so3five.catalog import entry_json
    path = tmp_path / "model.json"
    path.write_text(json.dumps(entry_json(
        "tor23", {"rho": "1", "eps": "1", "delta": "1"})))

    def classify():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["classify", str(path), "--json", "--tol", "1e-9"])
        return code, out.getvalue()

    classify()  # fills the caches every process shares
    calls = Counter()
    for name, op in (("__mul__", "mul"), ("__rmul__", "mul"),
                     ("__add__", "add"), ("__radd__", "add")):
        def counted(*args, fn=getattr(Scalar, name), op=op):
            calls[op] += 1
            return fn(*args)
        monkeypatch.setattr(Scalar, name, counted)
    code, out = classify()
    monkeypatch.undo()
    assert code == 0
    assert out == (DATA / "classify_tor23_rho1.json").read_text()
    assert calls["mul"] <= MAX_CALLS["mul"]
    assert calls["add"] <= MAX_CALLS["add"]
