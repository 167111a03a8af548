"""The ternary form: defining identities, canonical frames, stabilizer."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from so3five.scalar import Scalar, scalar, sqrt3, mat_mul, mat_sub, rank
from so3five.upsilon import (
    E_matrices,
    TernaryForm,
    adapt_frame,
    char_poly,
    rho_act,
    sigma_embed,
    sigma_inverse,
    stabilizer,
    standard_upsilon,
    verify_so3_structure,
)


def rand_vec(rng, n=5):
    return [Scalar.exact(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(n)]


def cubic_reference(a):
    """The canonical cubic polynomial, written out independently."""
    a1, a2, a3, a4, a5 = (scalar(x) for x in a)
    half = scalar(Fraction(1, 2))
    term1 = half * a1 * (6 * a2 * a2 + 6 * a4 * a4 - 2 * a1 * a1
                         - 3 * a3 * a3 - 3 * a5 * a5)
    term2 = scalar(3) * half * sqrt3() * a4 * (a5 * a5 - a3 * a3)
    term3 = scalar(3) * sqrt3() * a2 * a3 * a5
    return term1 + term2 + term3


def apply(y, v, w):
    """Y_v w as a vector."""
    M = y.matrix_of(v)
    w = [scalar(x) for x in w]
    return [sum((M[i][j] * w[j] for j in range(5)), Scalar(0)) for i in range(5)]


def det3(S):
    return (S[0][0] * (S[1][1] * S[2][2] - S[1][2] * S[2][1])
            - S[0][1] * (S[1][0] * S[2][2] - S[1][2] * S[2][0])
            + S[0][2] * (S[1][0] * S[2][1] - S[1][1] * S[2][0]))


def transpose(A):
    return [list(col) for col in zip(*A)]


# -- the canonical tensor --------------------------------------------------


def test_cubic_matches_polynomial():
    y = standard_upsilon()
    rng = random.Random(1)
    for _ in range(25):
        a = rand_vec(rng)
        lhs = y.cubic(a)
        assert lhs.is_exact
        assert lhs == cubic_reference(a)


def test_cubic_is_det_sigma():
    y = standard_upsilon()
    rng = random.Random(2)
    factor = scalar(3) * sqrt3() * scalar(Fraction(1, 2))
    for _ in range(25):
        a = rand_vec(rng)
        assert y.cubic(a) == factor * det3(sigma_embed(a))


def test_canonical_matrices():
    y = standard_upsilon()
    s = scalar(Fraction(-1, 2))
    b = sqrt3() * scalar(Fraction(1, 2))
    c = b
    z, o = scalar(0), scalar(1)
    want = {
        1: [[-o, z, z, z, z], [z, o, z, z, z], [z, z, s, z, z],
            [z, z, z, o, z], [z, z, z, z, s]],
        2: [[z, o, z, z, z], [o, z, z, z, z], [z, z, z, z, c],
            [z, z, z, z, z], [z, z, c, z, z]],
        3: [[z, z, s, z, z], [z, z, z, z, c], [s, z, z, -b, z],
            [z, z, -b, z, z], [z, c, z, z, z]],
        4: [[z, z, z, o, z], [z, z, z, z, z], [z, z, -b, z, z],
            [o, z, z, z, z], [z, z, z, z, b]],
        5: [[z, z, z, z, s], [z, z, c, z, z], [z, c, z, z, z],
            [z, z, z, z, b], [s, z, z, b, z]],
    }
    for i in range(1, 6):
        e = [scalar(1 if j == i else 0) for j in range(1, 6)]
        M = y.matrix_of(e)
        assert M == want[i], f"matrix of basis vector {i}"


def test_verify_canonical_is_exact_zero():
    rep = verify_so3_structure(standard_upsilon())
    assert rep["valid"]
    assert rep["symmetric"] and rep["traceless"] and rep["cubic_identity"]
    assert rep["max_residual"] == 0.0


def test_contraction_identities():
    y = standard_upsilon()
    d = y.dense()
    # 4 Y_ijk Y_mjk = 14 delta_im
    for i in range(5):
        for m in range(5):
            acc = Scalar(0)
            for j in range(5):
                for k in range(5):
                    acc = acc + d[i][j][k] * d[m][j][k]
            assert 4 * acc == (14 if i == m else 0)
    # 4 Y_ilm Y_jln Y_kmn = -3 Y_ijk
    for i in range(5):
        for j in range(5):
            for k in range(5):
                acc = Scalar(0)
                for l in range(5):
                    for m in range(5):
                        for n in range(5):
                            acc = acc + d[i][l][m] * d[j][l][n] * d[k][m][n]
                assert 4 * acc == -3 * d[i][j][k]


def test_cubic_identity_and_polarization():
    y = standard_upsilon()
    rng = random.Random(3)
    for _ in range(20):
        v = rand_vec(rng)
        g_vv = sum((x * x for x in v), Scalar(0))
        yv2v = apply(y, v, apply(y, v, v))
        for i in range(5):
            assert yv2v[i] == g_vv * v[i]
        # orthogonal pair: w' = (v.v) w - (v.w) v
        w = rand_vec(rng)
        g_vw = sum((a * b for a, b in zip(v, w)), Scalar(0))
        wp = [g_vv * b - g_vw * a for a, b in zip(v, w)]
        lhs = [g_vv * x for x in wp]
        term1 = apply(y, v, apply(y, v, wp))
        term2 = apply(y, wp, apply(y, v, v))
        for i in range(5):
            assert lhs[i] == 2 * term1[i] + term2[i]


# -- sigma and characteristic polynomial -----------------------------------


def test_sigma_roundtrip():
    rng = random.Random(4)
    for _ in range(20):
        a = rand_vec(rng)
        S = sigma_embed(a)
        assert (S[0][0] + S[1][1] + S[2][2]).is_zero()
        back = sigma_inverse(S)
        for x, yv in zip(a, back):
            assert x == yv


def test_sigma_inverse_validates():
    with pytest.raises(ValueError):
        sigma_inverse([[scalar(1), scalar(0), scalar(0)],
                       [scalar(0), scalar(1), scalar(0)],
                       [scalar(0), scalar(0), scalar(1)]])
    with pytest.raises(ValueError):
        sigma_inverse([[scalar(0), scalar(1), scalar(0)],
                       [scalar(-1), scalar(0), scalar(0)],
                       [scalar(0), scalar(0), scalar(0)]])


def test_char_poly_special_values():
    c0, c1, c2, c3 = char_poly([0, 0, 0, 0, 0])
    assert (c0, c1, c2) == (0, 0, 0) and c3 == -1
    c0, c1, c2, c3 = char_poly([1, 0, 0, 0, 0])
    assert c1 == 1 and c2 == 0
    assert c0 == Scalar.exact(0, Fraction(-2, 9))  # -2 sqrt3 / 9


def test_char_poly_relations_seeded():
    y = standard_upsilon()
    rng = random.Random(5)
    coef = Scalar.exact(0, Fraction(2, 9))  # 2 sqrt3 / 9
    for _ in range(20):
        a = rand_vec(rng)
        c0, c1, c2, c3 = char_poly(a)
        assert c3 == -1 and c2 == 0
        assert c1 == sum((x * x for x in a), Scalar(0))
        assert c0 == coef * y.cubic(a)


# -- validation of perturbed tensors ---------------------------------------


def doubled_upsilon():
    return TernaryForm({k: 2 * v for k, v in standard_upsilon().entries.items()})


def test_scaled_tensor_fails_cubic():
    rep = verify_so3_structure(doubled_upsilon())
    assert rep["symmetric"] and rep["traceless"]
    assert not rep["cubic_identity"]
    assert rep["max_residual"] > 1


def test_trace_violation_detected():
    rep = verify_so3_structure(TernaryForm({(1, 1, 1): scalar(1)}))
    assert not rep["traceless"]


# -- stabilizer ------------------------------------------------------------


def test_so3_basis_relations():
    E1, E2, E3 = E_matrices()

    def comm(A, B):
        return mat_sub(mat_mul(A, B), mat_mul(B, A))

    assert comm(E1, E2) == E3
    assert comm(E3, E1) == E2
    assert comm(E2, E3) == E1
    # antisymmetry and normalization <E_I, E_J> = 10 delta
    for A in (E1, E2, E3):
        for i in range(5):
            for j in range(5):
                assert A[i][j] == -A[j][i]
    for A in (E1, E2, E3):
        for B in (E1, E2, E3):
            tr = sum((mat_mul(transpose(A), B)[i][i] for i in range(5)), Scalar(0))
            assert tr == (10 if A is B else 0)
    # Casimir: sum E_I^T E_I = 6 I
    total = [[Scalar(0)] * 5 for _ in range(5)]
    for A in (E1, E2, E3):
        total = [[total[i][j] + mat_mul(transpose(A), A)[i][j]
                  for j in range(5)] for i in range(5)]
    for i in range(5):
        for j in range(5):
            assert total[i][j] == (6 if i == j else 0)


def test_stabilizer_is_so3():
    y = standard_upsilon()
    basis = stabilizer(y)
    assert len(basis) == 3
    E1, E2, E3 = E_matrices()
    for X in basis:
        for i in range(5):
            for j in range(5):
                assert X[i][j] == -X[j][i], "stabilizer element not antisymmetric"
    # same span as the canonical so(3) basis
    rows = [sum(X, []) for X in basis] + [sum(E, []) for E in (E1, E2, E3)]
    assert rank(rows) == 3
    # commutators stay inside
    for A in basis:
        for B in basis:
            C = mat_sub(mat_mul(A, B), mat_mul(B, A))
            assert rank([sum(X, []) for X in basis] + [sum(C, [])]) == 3


def test_so3_basis_annihilates_tensor():
    y = standard_upsilon()
    d = y.dense()
    for X in E_matrices():
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    acc = Scalar(0)
                    for l in range(5):
                        acc = acc + d[l][j][k] * X[l][i] \
                            + d[i][l][k] * X[l][j] + d[i][j][l] * X[l][k]
                    assert acc.is_zero(), (i, j, k)


# -- the group action ------------------------------------------------------


def test_rho_act_preserves_structure():
    y = standard_upsilon()
    h = [[scalar(0), scalar(-1), scalar(0)],
         [scalar(1), scalar(0), scalar(0)],
         [scalar(0), scalar(0), scalar(1)]]
    rng = random.Random(6)
    for _ in range(15):
        a = rand_vec(rng)
        ra = rho_act(h, a)
        assert sum((x * x for x in ra), Scalar(0)) == \
            sum((x * x for x in a), Scalar(0))
        assert y.cubic(ra) == y.cubic(a)


def test_rho_act_rejects_bad_input():
    with pytest.raises(ValueError):
        rho_act([[2, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        rho_act([[1, 0, 0], [0, 1, 0], [0, 0, -1]], [1, 0, 0, 0, 0])


# -- frame adaptation ------------------------------------------------------


def random_so5(rng):
    A = rng.normal(size=(5, 5))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def transform_reference(y, frame):
    """Y'(i,j,k) = Y(e_i,e_j,e_k) as a loop over Scalars: the terms, their
    order and the skipped ones that TernaryForm.transform reproduces."""
    H = [[scalar(x) for x in e] for e in frame]
    dense = y.dense()
    out = {}
    for i in range(5):
        for j in range(i, 5):
            for k in range(j, 5):
                acc = Scalar(0)
                for l in range(5):
                    hl = H[i][l]
                    if hl.is_zero():
                        continue
                    for m in range(5):
                        hm = H[j][m]
                        if hm.is_zero():
                            continue
                        for n in range(5):
                            acc = acc + hl * hm * H[k][n] * dense[l][m][n]
                if not acc.is_zero():
                    out[(i + 1, j + 1, k + 1)] = acc
    return out


def test_transform_matches_the_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    frames = [random_so5(rng) for _ in range(50)]
    # entries of +-5e-10 are at most DEFAULT_TOL, so the loop skips the
    # terms they lead; the identity's zeros make signed-zero terms
    small = random_so5(rng)
    small[1, 2], small[3, 0], small[0, 4] = 5e-10, -5e-10, 5e-10
    frames += [small, np.eye(5)]
    pyrng = random.Random(21)
    other = TernaryForm({(i, j, k): Scalar.exact(pyrng.randint(-3, 3),
                                                 pyrng.randint(-2, 2))
                         for i in range(1, 6) for j in range(i, 6)
                         for k in range(j, 6) if pyrng.random() < 0.4})
    cases = [(standard_upsilon(), Q) for Q in frames] \
        + [(other, Q) for Q in frames[-4:]]
    for y, Q in cases:
        frame = [list(map(float, Q[i])) for i in range(5)]
        # repr shows every float bit, the key types and the entry order
        assert repr(y.transform(frame).entries) == \
            repr(transform_reference(y, frame))


def test_transform_rejects_an_exact_frame():
    y = standard_upsilon()
    with pytest.raises(TypeError):
        y.transform([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    frame = [[float(i == j) for j in range(5)] for i in range(5)]
    frame[2][3] = scalar(Fraction(1, 2))
    with pytest.raises(TypeError):
        y.transform(frame)


def test_adapt_frame_recovers_canonical():
    y = standard_upsilon()
    rng = np.random.default_rng(42)
    for trial in range(10):
        Q = random_so5(rng)
        rotated = y.transform([list(map(float, Q[i])) for i in range(5)])
        out = adapt_frame(rotated, seed=trial)
        assert out["max_residual"] <= 1e-8
        F = np.array(out["frame"])
        assert np.max(np.abs(F @ F.T - np.eye(5))) < 1e-9
        got = out["transformed"]
        assert abs(float(got.coeff(4, 5, 5)) - float(sqrt3()) / 2) < 1e-8


def test_adapt_frame_deterministic():
    y = standard_upsilon()
    Q = random_so5(np.random.default_rng(7))
    rotated = y.transform([list(map(float, Q[i])) for i in range(5)])
    a = adapt_frame(rotated, seed=9)
    b = adapt_frame(rotated, seed=9)
    assert a["frame"] == b["frame"]


def test_adapt_frame_rejects_non_orbit_tensor():
    with pytest.raises(ValueError):
        adapt_frame(doubled_upsilon())


def test_so3_basis_is_built_once():
    assert E_matrices() is E_matrices()
