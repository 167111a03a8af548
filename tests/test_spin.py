"""Clifford generators, the spinor so(3) basis, and the spinor obstruction."""

import random
from fractions import Fraction

from so3five.catalog import (
    flat_char_model,
    six_dim_model,
    solve_flat_constraints,
    torsion_free_model,
)
from so3five.scalar import (
    CScalar,
    Scalar,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    scalar,
    sqrt3,
    zeros,
)
from so3five.spin import (
    PAIRS,
    clifford_basis,
    det4,
    spin_basis,
    spin_lift,
    spinor_obstruction,
)
from so3five.upsilon import E_matrices


def cm(re=0, im=0):
    return CScalar(re, im)


def mat_is_zero(A):
    return all(x.is_zero() for row in A for x in row)


def commutator(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def f_matrix(i: int, j: int):
    """Antisymmetric unit matrix, 1-based indices, +1 in slot (i,j)."""
    out = [[scalar(0) for _ in range(5)] for _ in range(5)]
    out[i - 1][j - 1] = scalar(1)
    out[j - 1][i - 1] = scalar(-1)
    return out


S3 = sqrt3()
H = Scalar(1) / 2


def test_clifford_squares_and_anticommutators():
    cl = clifford_basis()
    ident = identity(4, like=cm())
    for i in range(1, 6):
        assert mat_is_zero(mat_sub(cl.product(i, i), ident))
    for i in range(1, 6):
        for j in range(i + 1, 6):
            anti = mat_add(cl.product(i, j), cl.product(j, i))
            assert mat_is_zero(anti)


def test_clifford_display_entries():
    cl = clifford_basis()
    e5 = cl.matrix(5)
    for i in range(4):
        for j in range(4):
            want = cm((1, -1, -1, 1)[i]) if i == j else cm(0)
            assert e5[i][j] == want
    e1 = cl.matrix(1)
    assert e1[0][2] == cm(1) and e1[1][3] == cm(-1)
    assert e1[2][0] == cm(1) and e1[3][1] == cm(-1)
    e3 = cl.matrix(3)
    assert e3[0][2] == cm(0, -1) and e3[2][0] == cm(0, 1)


def displayed_spin_basis():
    rows1 = [[cm(), cm(0, 1), cm(-S3), cm(0, 1)],
             [cm(0, 1), cm(), cm(0, -1), cm(-S3)],
             [cm(S3), cm(0, -1), cm(), cm(0, -1)],
             [cm(0, 1), cm(S3), cm(0, -1), cm()]]
    rows2 = [[cm(0, S3), cm(-1), cm(), cm(-1)],
             [cm(1), cm(0, S3), cm(-1), cm()],
             [cm(), cm(1), cm(0, -S3), cm(1)],
             [cm(1), cm(), cm(-1), cm(0, -S3)]]
    rows3 = [[cm(0, 2), cm(), cm(0, 1), cm()],
             [cm(), cm(0, -2), cm(), cm(0, 1)],
             [cm(0, 1), cm(), cm(0, 2), cm()],
             [cm(), cm(0, 1), cm(), cm(0, -2)]]
    return [mat_scale(H, m) for m in (rows1, rows2, rows3)]


def test_spin_basis_matches_displayed_matrices():
    computed = spin_basis().E
    for got, want in zip(computed, displayed_spin_basis()):
        assert mat_is_zero(mat_sub(got, want))


def test_spin_basis_traceless():
    for E in spin_basis().E:
        tr = sum((E[i][i] for i in range(4)), CScalar(0))
        assert tr.is_zero()


def test_spin_basis_so3_brackets():
    E1, E2, E3 = spin_basis().E
    assert mat_is_zero(mat_sub(commutator(E1, E2), E3))
    assert mat_is_zero(mat_sub(commutator(E2, E3), E1))
    assert mat_is_zero(mat_sub(commutator(E3, E1), E2))


def test_lift_of_vector_basis_is_spin_basis():
    for Evec, Espin in zip(E_matrices(), spin_basis().E):
        assert mat_is_zero(mat_sub(spin_lift(Evec), Espin))


def test_lift_on_all_generators():
    cl = clifford_basis()
    for i, j in PAIRS:
        lifted = spin_lift(f_matrix(i + 1, j + 1))
        direct = mat_scale(H, cl.product(i + 1, j + 1))
        assert mat_is_zero(mat_sub(lifted, direct))


def test_lift_is_a_lie_algebra_homomorphism():
    gens = [f_matrix(i + 1, j + 1) for i, j in PAIRS]
    lifts = [spin_lift(g) for g in gens]
    for a in range(10):
        for b in range(a + 1, 10):
            left = spin_lift(commutator(gens[a], gens[b]))
            right = commutator(lifts[a], lifts[b])
            assert mat_is_zero(mat_sub(left, right))


def det_identity_residual(c1, c2, c3):
    E1, E2, E3 = spin_basis().E
    W = mat_add(mat_add(mat_scale(c1, E1), mat_scale(c2, E2)),
                mat_scale(c3, E3))
    d = det4(W)
    ssum = c1 * c1 + c2 * c2 + c3 * c3
    predicted = scalar(Fraction(9, 16)) * ssum * ssum
    return d - CScalar(predicted)


def test_det_identity_exact_triples():
    rng = random.Random(8128)
    for _ in range(120):
        c = [scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
             for _ in range(3)]
        diff = det_identity_residual(*c)
        assert diff.is_exact and diff.is_zero()
    # triples with an irrational part stay exact too
    for _ in range(40):
        c = [scalar(Fraction(rng.randint(-3, 3)))
             + S3 * scalar(Fraction(rng.randint(-3, 3), 2))
             for _ in range(3)]
        diff = det_identity_residual(*c)
        assert diff.is_exact and diff.is_zero()


def test_det_identity_float_triples():
    rng = random.Random(65537)
    for _ in range(40):
        c = [scalar(rng.uniform(-3, 3)) for _ in range(3)]
        assert det_identity_residual(*c).mag() < 1e-10


def test_obstruction_on_flat_models():
    t = solve_flat_constraints(1, 0, 0, 1, 0, 0, 1)
    report = spinor_obstruction(flat_char_model(t))
    assert report["flat"]
    assert report["solution_dim"] == 4
    assert report["det_residual"] == 0.0
    for entry in report["W"]:
        assert mat_is_zero(entry["matrix"])
        assert entry["det"].is_zero()


def test_obstruction_on_torsion_free_model():
    report = spinor_obstruction(torsion_free_model(1))
    assert not report["flat"]
    assert report["solution_dim"] == 0
    by_pair = {e["pair"]: e for e in report["W"]}
    # r^I = kappa^I, so the (1,5) pair collects sqrt3 from the first form
    entry = by_pair[(1, 5)]
    assert entry["coefficients"][0] == S3
    assert entry["det"] == CScalar(scalar(Fraction(81, 16)))
    assert entry["det_predicted"] == scalar(Fraction(81, 16))


def test_obstruction_on_curved_six_dim_case2():
    report = spinor_obstruction(six_dim_model(2, t1=1, t2=1))
    assert not report["flat"]
    assert report["solution_dim"] == 0
    # only the third curvature form survives, with strength t1 t2 / 2
    by_pair = {e["pair"]: e for e in report["W"]}
    c24 = by_pair[(2, 4)]["coefficients"]
    assert [x.to_string() for x in c24] == ["0", "0", "-1"]
    assert by_pair[(2, 4)]["det"] == CScalar(scalar(Fraction(9, 16)))


def test_zero_matrix_det():
    assert det4(zeros(4, like=cm())).is_zero()
    prod = mat_mul(zeros(4, like=cm()), identity(4, like=cm()))
    assert mat_is_zero(prod)
