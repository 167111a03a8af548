"""Exact field arithmetic, the string grammar, and generic linear algebra."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import so3five
from so3five.scalar import (
    DEFAULT_TOL,
    CScalar,
    Scalar,
    cscalar,
    det,
    dot,
    identity,
    mat_mul,
    nullspace,
    rank,
    rref,
    scalar,
    solve,
    spectral_projector,
    sqrt3,
    sum_products,
    total,
)


def frac(lo=-6, hi=6, rng=None):
    r = rng or random
    return Fraction(r.randint(lo, hi), r.randint(1, 5))


def rand_exact(rng):
    return Scalar.exact(frac(rng=rng), frac(rng=rng))


# -- grammar ---------------------------------------------------------------


def test_parse_examples():
    x = Scalar.from_string("3/2*sqrt3")
    assert x.is_exact and x.a == 0 and x.b == Fraction(3, 2)
    y = Scalar.from_string("-1/2")
    assert y.is_exact and y.a == Fraction(-1, 2) and y.b == 0
    z = Scalar.from_string("0.25")
    assert not z.is_exact and float(z) == 0.25


def test_parse_two_part():
    x = Scalar.from_string("1/2-3/2*sqrt3")
    assert x.a == Fraction(1, 2) and x.b == Fraction(-3, 2)
    y = Scalar.from_string("-2+1*sqrt3")
    assert y.a == -2 and y.b == 1
    assert Scalar.from_string("0").is_zero()


def test_parse_rejects_garbage():
    for bad in ["", "sqrt3", "1.5*sqrt3", "1//2", "x", "1+2"]:
        with pytest.raises(ValueError):
            Scalar.from_string(bad)


def test_print_parse_roundtrip_seeded():
    rng = random.Random(20260822)
    for _ in range(300):
        x = rand_exact(rng)
        s = x.to_string()
        y = Scalar.from_string(s)
        assert y.is_exact and y.a == x.a and y.b == x.b, s


def test_float_string_roundtrip():
    x = Scalar.from_float(0.1 + 0.2)
    y = Scalar.from_string(x.to_string())
    assert not y.is_exact and float(y) == float(x)


# -- field axioms ----------------------------------------------------------

small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=6)
exacts = st.builds(Scalar.exact, small_frac, small_frac)


@settings(max_examples=80, deadline=None)
@given(exacts, exacts, exacts)
def test_field_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == 0
    assert x * 1 == x


@settings(max_examples=80, deadline=None)
@given(exacts)
def test_inverse(x):
    if not x.is_zero():
        assert x * x.inverse() == 1
        assert (x * x.inverse()).is_exact


def test_sqrt3_square_exact():
    s = sqrt3()
    assert (s * s).is_exact
    assert s * s == 3
    assert s * s * s * s == 9


def test_exact_ops_stay_exact():
    rng = random.Random(7)
    for _ in range(100):
        x, y = rand_exact(rng), rand_exact(rng)
        assert (x + y).is_exact and (x * y).is_exact and (x - y).is_exact
        if not y.is_zero():
            assert (x / y).is_exact


def test_mixed_promotes_to_float():
    x = Scalar.exact(1, 1)
    y = Scalar.from_float(0.5)
    assert not (x + y).is_exact
    assert not (x * y).is_exact
    assert abs(float(x * y) - 0.5 * float(x)) < 1e-15


# -- sign and order --------------------------------------------------------


def test_exact_sign():
    cases = [
        ((1, -1), -1),   # 1 - sqrt3 < 0
        ((3, -1), 1),    # 3 - sqrt3 > 0
        ((-3, 2), 1),    # 2*sqrt3 > 3
        ((-2, 1), -1),   # sqrt3 < 2
        ((0, 0), 0),
        ((0, -2), -1),
    ]
    for (a, b), want in cases:
        assert Scalar.exact(a, b).sign() == want


def test_order():
    assert (sqrt3() - Scalar.exact(Fraction(3, 2))).sign() > 0
    assert (Scalar.exact(Fraction(7, 4)) - sqrt3()).sign() > 0
    x = Scalar.exact(1, -1)
    assert x.sign() < 0 and -x == Scalar.exact(-1, 1)


# -- tolerance plumbing ----------------------------------------------------


def test_is_zero_tolerance():
    tiny = Scalar.from_float(1e-12)
    assert tiny.is_zero()
    assert not tiny.is_zero(tol=1e-15)
    assert not Scalar.exact(0, Fraction(1, 10**12)).is_zero()


@pytest.mark.parametrize("global_tol", [DEFAULT_TOL, 1e-3])
def test_float_equality_is_exact_whatever_the_global_says(global_tol, monkeypatch):
    # SO3FIVE_TOL is the only process-wide tolerance left; Scalar equality
    # must not consult it.
    monkeypatch.setenv("SO3FIVE_TOL", str(global_tol))
    assert Scalar.from_float(1e-4) != 0
    # 0 ~ 6e-4 ~ 1.2e-3 within 1e-3, yet 0 and 1.2e-3 are not
    xs = [Scalar.from_float(x) for x in (0.0, 6e-4, 1.2e-3, 1.2e-3)]
    for a in xs:
        for b in xs:
            for c in xs:
                if a == b and b == c:
                    assert a == c


def test_float_of_an_exact_beyond_double_range_saturates():
    assert float(Scalar.exact(10 ** 400)) == math.inf
    assert float(Scalar.exact(1, -10 ** 400)) == -math.inf


def test_env_var_sets_tolerance():
    # Minimal environment, so no outer SO3FIVE_TOL leaks in; PYTHONPATH
    # points the child at the same so3five the parent imported, whether
    # it comes from a source tree or an installed package, and the child
    # writes no bytecode cache into that tree.
    code = "import so3five.scalar as s; print(s.get_tol())"
    pkg_root = os.path.dirname(os.path.dirname(so3five.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        env={"SO3FIVE_TOL": "0.001", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": pkg_root, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0.001"


# -- complex pairs ---------------------------------------------------------


def test_cscalar_ops():
    i = CScalar(0, 1)
    one_plus_i = CScalar(1, 1)
    assert one_plus_i * one_plus_i.conjugate() == 2
    assert i * i == -1
    q = CScalar(1, 2) / CScalar(3, -1)
    assert q * CScalar(3, -1) == CScalar(1, 2)
    assert cscalar(sqrt3()).re == sqrt3()


def test_cscalar_exactness():
    z = CScalar(Scalar.exact(0, 1), Scalar.exact(Fraction(1, 2)))
    assert z.is_exact
    assert (z * z).is_exact
    assert not (z * CScalar(0.5, 0)).is_exact


def test_float_factor_keeps_an_exact_part_exact():
    # a product with an exact-zero factor is left out, as it is from a
    # pair of real forms that lacks the term
    i = CScalar(0, 1)
    for z, re, im in ((i * CScalar(0.5, 0), "0", "0.5"),
                      (i * CScalar(0.5, 2), "-2", "0.5"),
                      (CScalar(0.5, 2) * i, "-2", "0.5")):
        assert (z.re.to_string(), z.im.to_string()) == (re, im)


# -- linear algebra --------------------------------------------------------


def test_exact_arithmetic_never_builds_a_fraction():
    # the exact kernel works on plain integers; a Fraction made in the
    # hot path would bring back the cost the integer kernel removed
    import cProfile
    import fractions
    import pstats

    xs = [Scalar(Fraction(3, 4), -2), Scalar(5, Fraction(1, 6)), Scalar(-7),
          sqrt3(), Scalar(Fraction(-9, 10), Fraction(7, 15))]
    zs = [CScalar(x, y) for x, y in zip(xs, xs[1:] + xs[:1])]
    zs.append(CScalar(0, 1))
    prof = cProfile.Profile()
    prof.enable()
    for field in (xs, zs):
        for x in field:
            for y in field:
                s, p = x + y, x * y
                assert s - y == x and p / y == x and not p.is_zero()
                assert (x - x).is_zero() and (2 + x) * 3 == 6 + 3 * x
    prof.disable()
    new = fractions.Fraction.__new__.__code__
    key = (new.co_filename, new.co_firstlineno, new.co_name)
    assert key not in pstats.Stats(prof).stats


def test_nullspace_exact():
    A = [[scalar(1), scalar(1), scalar(0)],
         [scalar(0), scalar(0), scalar(1)]]
    basis = nullspace(A)
    assert len(basis) == 1
    v = basis[0]
    for row in A:
        assert dot(row, v).is_zero()
    assert v[0].is_exact


def test_nullspace_with_sqrt3():
    # x + sqrt3*y = 0 has kernel (-sqrt3, 1)
    A = [[scalar(1), sqrt3()]]
    (v,) = nullspace(A)
    assert dot(A[0], v) == 0
    assert (v[0] / v[1]) == -sqrt3()


def test_float_rank_threshold():
    A = [[scalar(1.0), scalar(1.0)], [scalar(1.0), scalar(1.0 + 1e-12)]]
    assert rank(A) == 1
    assert rank(A, tol=1e-15) == 2
    assert len(nullspace(A)) == 1


def test_solve_exact():
    A = [[scalar(2), scalar(1)], [scalar(1), scalar(-1)]]
    b = [scalar(4), scalar(-1)]
    x = solve(A, b)
    assert x[0] == 1 and x[1] == 2


def test_solve_inconsistent():
    A = [[scalar(1), scalar(1)], [scalar(1), scalar(1)]]
    with pytest.raises(ValueError):
        solve(A, [scalar(0), scalar(1)])


def test_det_exact_and_complex():
    A = [[scalar(0), scalar(1)], [scalar(1), scalar(0)]]
    assert det(A) == -1
    i = CScalar(0, 1)
    B = [[i, cscalar(0)], [cscalar(0), i]]
    assert det(B) == -1


def test_rref_shapes():
    A = [[scalar(1), scalar(2), scalar(3)],
         [scalar(2), scalar(4), scalar(6)]]
    red, piv = rref(A)
    assert piv == [0]
    assert red[0][1] == 2


def test_spectral_projector_diag():
    L = [[scalar(2), scalar(0), scalar(0)],
         [scalar(0), scalar(2), scalar(0)],
         [scalar(0), scalar(0), scalar(5)]]
    P2 = spectral_projector(L, [2, 5], 2)
    P5 = spectral_projector(L, [2, 5], 5)
    assert P2 == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    assert P5 == [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    assert mat_mul(P2, P2) == P2
    total = [[P2[i][j] + P5[i][j] for j in range(3)] for i in range(3)]
    assert total == identity(3)


def test_spectral_projector_nontrivial():
    # L = [[0,1],[1,0]] has eigenvalues +-1
    L = [[scalar(0), scalar(1)], [scalar(1), scalar(0)]]
    P = spectral_projector(L, [1, -1], 1)
    assert P == [[scalar(Fraction(1, 2))] * 2] * 2
    assert mat_mul(L, P) == P


# -- the rule for sums -------------------------------------------------------

EXACT_POOL = (Scalar(0), Scalar(0), Scalar(1), Scalar(-1), Scalar(3),
              Scalar(Fraction(1, 3), Fraction(-2, 5)), Scalar(10 ** 16),
              Scalar(-10 ** 16), Scalar(Fraction(-7, 2), 1))
FLOAT_POOL = tuple(Scalar.from_float(f) for f in (
    0.0, -0.0, 1.0, -1.0, 0.1, -0.7, 3.0, 1e16, -1e16, 2.5e-8, 1.75))


def _exact_zero(x):
    return x.is_exact and x.is_zero()


def _rounded_sum(values):
    """The plain Scalar sum when every value is exact; otherwise the sum of
    the values as Fractions, rounded once to a float."""
    if all(v.is_exact for v in values):
        return sum(values, Scalar(0))
    return float(sum(map(Fraction, map(float, values))))


def _assert_rule(got, want):
    if isinstance(want, float):
        assert not got.is_exact
        assert float(got).hex() == want.hex()
    else:
        assert got.is_exact and got == want


def _draw(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("exact", "float"))
    return rng.choice(EXACT_POOL if kind == "exact" else FLOAT_POOL)


@pytest.mark.parametrize("kind", ["exact", "float", "mixed"])
def test_sum_products_is_the_exact_or_the_correctly_rounded_sum(kind):
    rng = random.Random(f"rule-{kind}")
    for _ in range(400):
        pairs = [(_draw(rng, kind), _draw(rng, kind))
                 for _ in range(rng.randint(0, 8))]
        products = [x * y for x, y in pairs
                    if not (_exact_zero(x) or _exact_zero(y))]
        _assert_rule(sum_products(pairs), _rounded_sum(products))
        _assert_rule(total([x * y for x, y in pairs]),
                     _rounded_sum([x * y for x, y in pairs]))


@pytest.mark.parametrize("kind", ["exact", "float", "mixed"])
def test_complex_sum_products_follows_the_rule_part_by_part(kind):
    rng = random.Random(f"crule-{kind}")
    for _ in range(300):
        pairs = [tuple(CScalar(_draw(rng, kind), _draw(rng, kind))
                       for _ in range(2)) for _ in range(rng.randint(0, 6))]
        products = [x * y for x, y in pairs
                    if not (_exact_zero(x) or _exact_zero(y))]
        got = sum_products(pairs, CScalar(0))
        _assert_rule(got.re, _rounded_sum([p.re for p in products]))
        _assert_rule(got.im, _rounded_sum([p.im for p in products]))


def test_cancelling_terms_sum_exactly_rounded():
    one, big = Scalar.from_float(1.0), Scalar.from_float(1e16)
    # added in order, 1e16 + 1 - 1e16 is 0.0
    for order in ([big, one, -big], [-big, one, big], [one, big, -big]):
        assert float(total(order)) == 1.0
        assert float(sum_products((v, Scalar(1)) for v in order)) == 1.0
    assert total([1e16 + 1e16j, 1 + 1j, -1e16 - 1e16j]) == 1 + 1j
    # a zero sum is +0.0; an exact zero factor leaves its product out
    neg = Scalar.from_float(-0.0)
    assert total([neg, neg]).to_string() == "0.0"
    assert sum_products([(Scalar(0), big), (Scalar(2), Scalar(3))]) == 6
    assert sum_products([(Scalar(0), big)]).is_exact


def test_a_sum_beyond_the_double_range_is_the_plain_float_sum():
    # math.fsum raises on both; classify on six-dim-2 at t1 = 1e60,
    # t2 = 2e60 forms such sums
    big, inf = Scalar.from_float(1e308), Scalar.from_float(math.inf)
    assert float(total([big, big])) == math.inf
    assert math.isnan(float(total([inf, -inf])))
    assert total([1e308 + 0j, 1e308 + 0j]) == complex(math.inf, 0)
