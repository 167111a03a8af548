"""The curvature report against the sympy oracle in oracle_sympy.py.

For seeded exact points of each catalog family (tor23, tor27, the three
six-dimensional cases, flat-char and the torsion-free family) the model's
structure constants, the so(3) basis and the characteristic connection are
handed to the oracle, which shares no arithmetic with so3five.  Everything
the curvature half of a classify report prints must then agree exactly:
the curvature forms r^I, the dense K_ijkl, both Ricci tensors, the six
parts of the curvature type with their norms and presence flags, |K|^2,
both Bianchi residuals, and the torsion 3-form with its classes t3 and t7.

The Jacobi residuals d(d theta^i) are compared the same way, term by term,
with ext_d of each d(theta^i): on the catalog points, where both vanish,
and on seeded frames whose structure constants break d^2 = 0.  Those are
built as Frame, which runs no d^2 check, so every residual term there is a
leg tuple that ext_d must sort and sign as the oracle does.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from sympy import QQ

from oracle_sympy import F, Oracle, ext_d as oracle_d, jacobi_residuals
from so3five.catalog import (
    flat_char_model,
    six_dim_model,
    solve_flat_constraints,
    tor23_model,
    tor27_model,
    torsion_free_model,
)
from so3five.connection import Analysis, characteristic_connection
from so3five.exterior import Frame, ext_d
from so3five.scalar import Scalar
from so3five.upsilon import E_matrices

TOL = 1e-9


def to_f(x):
    assert x.is_exact
    return F([QQ(x.b.numerator, x.b.denominator),
              QQ(x.a.numerator, x.a.denominator)])


def to_scalar(v):
    parts = [Fraction(int(c.numerator), int(c.denominator))
             for c in reversed(v.to_list())] + [Fraction(0)] * 2
    return Scalar(parts[0], parts[1])


def form_f(form):
    return {legs: to_f(v) for legs, v in form.terms.items()}


def oracle_of(model):
    d = {leg: form_f(model.d_of(leg)) for leg in range(1, model.dim + 1)}
    E = [[[to_f(v) for v in row] for row in M] for M in E_matrices()]
    gamma, _T = characteristic_connection(model, TOL)
    return Oracle(d, E, [form_f(g) for g in gamma.gammas])


def matrix_f(t2):
    return [[to_f(v) for v in row] for row in t2.m]


def max_residual(forms):
    return max((abs(float(to_scalar(v))) for f in forms for v in f.values()),
               default=0.0)


def check(model):
    oracle = oracle_of(model)
    rep = Analysis(model, TOL)
    assert [form_f(f) for f in rep.r_forms] == oracle.r_forms
    K = rep.curvature[1]
    assert [[[[to_f(v) for v in row] for row in plane] for plane in block]
            for block in K.x] == oracle.K
    assert to_f(K.norm_sq()) == oracle.norm_sq()
    assert matrix_f(rep.ric_gamma) == oracle.ric_gamma
    assert matrix_f(rep.ric_lc) == oracle.ric_lc
    comps = rep.curvature_components
    for name, (part, nsq) in oracle.components().items():
        if name == "c1":
            assert to_f(comps[name]) == part
        elif name == "c15":
            assert [to_f(v) for v in comps[name]] == part
        else:
            assert matrix_f(comps[name]) == part, name
        assert comps["norms"][name] == math.sqrt(float(to_scalar(nsq))), name
        assert comps["present"][name] == bool(nsq), name
    first, second = oracle.bianchi()
    assert rep.bianchi_residuals == {"first": max_residual(first),
                                     "second": max_residual(second)}
    assert form_f(rep.torsion) == oracle.torsion_form()
    t3, t7 = oracle.torsion_split()
    if rep.torsion.is_zero():
        assert rep.torsion_t3 is None and rep.torsion_t7 is None
        assert t3 == t7 == {}
    else:
        assert (form_f(rep.torsion_t3), form_f(rep.torsion_t7)) == (t3, t7)


def q(rng, lo=1, hi=6):
    return Fraction(rng.choice([-1, 1]) * rng.randint(lo, hi),
                    rng.randint(1, 4))


def angle(rng):
    """A multiple of pi/6, where cos and sin are exact."""
    return rng.randrange(12) * math.pi / 6


def test_tor23_against_the_oracle():
    rng = random.Random(2323)
    for _ in range(3):
        check(tor23_model(abs(q(rng)), angle(rng), rng.choice([1, -1]),
                          rng.randrange(2)))


def test_tor27_against_the_oracle():
    rng = random.Random(2727)
    for _ in range(3):
        check(tor27_model(abs(q(rng)), angle(rng)))


def test_six_dim_against_the_oracle():
    rng = random.Random(606)
    check(six_dim_model(1, a=q(rng)))
    check(six_dim_model(2, t1=q(rng), t2=q(rng)))
    t1, t2 = q(rng), q(rng)
    while t1 == 2 * t2:
        t2 = q(rng)
    check(six_dim_model(3, t1=t1, t2=t2))


def test_flat_char_against_the_oracle():
    rng = random.Random(909)
    tail = [q(rng) for _ in range(7)]
    check(flat_char_model(solve_flat_constraints(*tail)))


def test_torsion_free_family_against_the_oracle():
    rng = random.Random(115)
    for r in (q(rng), q(rng), 0):
        check(torsion_free_model(r))


# -- the Jacobi residual --------------------------------------------------


def check_jacobi(frame):
    """d(d theta^i) from ext_d against the oracle, from the structure
    constants alone; the number of nonzero residual terms."""
    d = {leg: form_f(frame.d_of(leg)) for leg in range(1, frame.dim + 1)}
    want = jacobi_residuals(d)
    for leg in range(1, frame.dim + 1):
        assert form_f(ext_d(frame.d_of(leg))) == want[leg], leg
    return sum(len(r) for r in want.values())


def exact(rng):
    return Scalar(q(rng), q(rng) if rng.randrange(3) == 0 else 0)


def test_jacobi_residual_on_catalog_points():
    rng = random.Random(404)
    models = [tor23_model(abs(q(rng)), angle(rng), rng.choice([1, -1]),
                          rng.randrange(2)),
              tor27_model(abs(q(rng)), angle(rng)),
              flat_char_model(solve_flat_constraints(
                  *[q(rng) for _ in range(7)])),
              six_dim_model(1, a=q(rng)),
              six_dim_model(2, t1=q(rng), t2=q(rng)),
              torsion_free_model(q(rng))]
    assert [m.n_fiber for m in models] == [0, 0, 0, 1, 1, 3]
    assert all(check_jacobi(m.frame) == 0 for m in models)


@pytest.mark.parametrize("n_fiber", [0, 1, 3])
def test_jacobi_residual_on_frames_that_break_it(n_fiber):
    rng = random.Random(f"jacobi-{n_fiber}")
    dim = 5 + n_fiber
    pairs = list(combinations(range(1, dim + 1), 2))
    broken = 0
    for t in range(4):
        d = {i: [(exact(rng), *rng.choice(pairs)[::rng.choice([1, -1])])
                 for _ in range(rng.randint(1, 4))]
             for i in range(1, dim + 1) if rng.randrange(4)}
        frame = Frame(f"broken-{t}", d, n_fiber, None, None)
        broken += check_jacobi(frame) > 0
        # ext_d of a few seeded forms, fiber legs included
        dtheta = {leg: form_f(frame.d_of(leg)) for leg in range(1, dim + 1)}
        for degree in (1, 2, 3):
            f = frame.form(degree, [(tuple(rng.sample(range(1, dim + 1),
                                                      degree)), exact(rng))
                                    for _ in range(4)])
            assert form_f(ext_d(f)) == oracle_d(dtheta, form_f(f))
    assert broken >= 3
