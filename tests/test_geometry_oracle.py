"""The curvature report against the sympy oracle in oracle_sympy.py.

For seeded exact points of each catalog family (tor23, tor27, the three
six-dimensional cases, flat-char and the torsion-free family) the model's
structure constants, the so(3) basis and the characteristic connection are
handed to the oracle, which shares no arithmetic with so3five.  Everything
the curvature half of a classify report prints must then agree exactly:
the curvature forms r^I, the dense K_ijkl, both Ricci tensors, the six
parts of the curvature type with their norms and presence flags, |K|^2,
both Bianchi residuals, and the torsion 3-form with its classes t3 and t7.
"""

import math
import random
from fractions import Fraction

from sympy import QQ

from oracle_sympy import F, Oracle
from so3five.catalog import (
    flat_char_model,
    six_dim_model,
    solve_flat_constraints,
    tor23_model,
    tor27_model,
    torsion_free_model,
)
from so3five.connection import Analysis, characteristic_connection
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
