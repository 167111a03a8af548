"""Irreducible decompositions: eigenvalues, projectors, kernels, pairings."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from so3five.exterior import CoframeModel, hodge_star
from so3five.repr import (
    PAIRS,
    TRIPLES,
    ConnTensor,
    CurvTensor,
    Tensor2,
    decompose_curvature,
    decompose_t2,
    kappa_forms,
    kernel_basis,
    projector_matrices,
    split_connection,
    sym4_is_zero,
    torsion_type,
    upsilon_bar,
    upsilon_check,
    upsilon_grave,
    upsilon_hat,
    upsilon_prime,
    upsilon_prime_matrix,
)
from so3five.scalar import Scalar, dot, rank, scalar, sqrt3
from so3five.upsilon import E_matrices

FLAT = CoframeModel("flat5", {})


def rand_t2(rng):
    return Tensor2([[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(5)] for _ in range(5)])


# -- hat operator ----------------------------------------------------------


def test_hat_on_metric_and_so3():
    g = Tensor2.metric()
    assert upsilon_hat(g) == g.scale(14)
    for E in E_matrices():
        F = Tensor2(E)
        assert upsilon_hat(F) == F.scale(7)


def test_hat_preserves_symmetry_classes():
    rng = random.Random(10)
    W = rand_t2(rng)
    hs = upsilon_hat(W.sym())
    ha = upsilon_hat(W.alt())
    assert hs == hs.transpose()
    assert ha == ha.transpose().scale(-1)
    assert upsilon_hat(W) == hs + ha


def test_hat_eigenvalue_minus8():
    rng = random.Random(11)
    tenth = scalar(Fraction(1, 10))
    for _ in range(5):
        A = rand_t2(rng).alt()
        for E in E_matrices():
            F = Tensor2(E)
            A = A - F.scale(A.inner(F) * tenth)
        assert upsilon_hat(A) == A.scale(-8)


def test_minimal_polynomials():
    for j in range(5):
        for l in range(5):
            W = Tensor2.basis(j, l)
            A = W.alt()
            u = upsilon_hat(A) - A.scale(7)
            assert (upsilon_hat(u) + u.scale(8)).is_zero()
            S = W.sym()
            v = upsilon_hat(S) - S.scale(14)
            v = upsilon_hat(v) + v.scale(3)
            assert (upsilon_hat(v) - v.scale(4)).is_zero()


# -- five-fold decomposition -----------------------------------------------


def test_decompose_t2_sums_and_eigen():
    rng = random.Random(12)
    eig = {"c1": 14, "c3": 7, "c7": -8, "c5": -3, "c9": 4}
    for _ in range(5):
        W = rand_t2(rng)
        parts = decompose_t2(W)
        total = Tensor2.zero()
        for name, part in parts.items():
            assert upsilon_hat(part) == part.scale(eig[name]), name
            total = total + part
        assert total == W


def test_decompose_t2_examples():
    g = Tensor2.metric()
    parts = decompose_t2(g)
    assert parts["c1"] == g
    for name in ("c3", "c7", "c5", "c9"):
        assert parts[name].is_zero()
    W = Tensor2(E_matrices()[2])
    parts = decompose_t2(W)
    assert parts["c3"] == W
    assert parts["c7"].is_zero()


def test_projector_traces_and_completeness():
    mats = projector_matrices()
    dims = {"c1": 1, "c3": 3, "c7": 7, "c5": 5, "c9": 9}
    total = [[Scalar(0) for _ in range(25)] for _ in range(25)]
    for name, M in mats.items():
        tr = sum((M[i][i] for i in range(25)), Scalar(0))
        assert tr == dims[name]
        for i in range(25):
            for j in range(25):
                total[i][j] = total[i][j] + M[i][j]
    for i in range(25):
        for j in range(25):
            assert total[i][j] == (1 if i == j else 0)


def test_projectors_idempotent():
    mats = projector_matrices()
    M = mats["c5"]
    P7 = mats["c7"]
    for i in range(25):
        for j in range(25):
            sq = sum((M[i][k] * M[k][j] for k in range(25)), Scalar(0))
            assert sq == M[i][j]
            cross = sum((M[i][k] * P7[k][j] for k in range(25)), Scalar(0))
            assert cross == 0


# -- grave, bar, check -----------------------------------------------------


def test_grave_kills_metric():
    v = upsilon_grave(Tensor2.metric())
    assert all(c.is_zero() for c in v)


def test_grave_rejects_asymmetric():
    with pytest.raises(ValueError):
        upsilon_grave(Tensor2.basis(0, 1))


def test_check_is_14_on_five_dim_summand():
    rng = random.Random(13)
    for _ in range(5):
        S = rand_t2(rng).sym()
        c5 = decompose_t2(S)["c5"]
        assert upsilon_check(c5) == c5.scale(14)
        # and 4*bar(grave(.)) is the same operator
        four_bar_grave = upsilon_bar(upsilon_grave(c5)).scale(4)
        assert four_bar_grave == c5.scale(14)


def test_check_rank_on_symmetric_space():
    basis = []
    for i in range(5):
        basis.append(Tensor2.basis(i, i))
    for i, j in PAIRS:
        basis.append(Tensor2.basis(i, j) + Tensor2.basis(j, i))
    rows = []
    for S in basis:
        out = upsilon_check(S)
        rows.append([out.m[i][j] for i in range(5) for j in range(5)])
    assert rank(rows) == 5  # eigenvalue 14 has multiplicity 5, 0 has 10


# -- prime operator and its kernel -----------------------------------------


def test_prime_kills_kernel_summands():
    for xi in kernel_basis():
        assert sym4_is_zero(upsilon_prime(xi))


def test_prime_rank_and_kernel_dims():
    M = upsilon_prime_matrix()
    assert rank([row[:] for row in M]) == 25
    vecs = [b.to_vector() for b in kernel_basis()]
    assert rank([v[:] for v in vecs]) == 25  # 15 + 10 with trivial intersection
    assert rank([v[:] for v in vecs[:15]]) == 15
    assert rank([v[:] for v in vecs[15:]]) == 10


def test_prime_output_is_symmetric_by_construction():
    rng = random.Random(14)
    data = {}
    for a, b in PAIRS:
        for k in range(5):
            data[(a, b, k)] = Fraction(rng.randint(-2, 2), 1)
    xi = ConnTensor.from_pairs(data)
    out = upsilon_prime(xi)
    assert len(out) == 70
    assert not sym4_is_zero(out)  # generic input leaves the kernel


# -- connection splitting --------------------------------------------------


def projected_parts(xi):
    """The group-valued part and the skew torsion of xi as 50-vectors,
    combined from split_connection's coefficients and kernel_basis()."""
    gamma_coeffs, torsion_coeffs = split_connection(xi)
    coeffs = [c for row in gamma_coeffs for c in row] + \
        [torsion_coeffs[t] for t in TRIPLES]
    vecs = [b.to_vector() for b in kernel_basis()]

    def combine(span):
        return [sum((coeffs[t] * vecs[t][n] for t in span), Scalar(0))
                for n in range(50)]

    return combine(range(15)), combine(range(15, 25))


def vec_add(u, v, sign=1):
    return [a + b * sign for a, b in zip(u, v)]


def test_split_inclusion_identity():
    E = E_matrices()
    xi = ConnTensor.from_so3(E[1], [0, 0, 0, 1, 0])
    gamma, torsion = projected_parts(xi)
    assert gamma == xi.to_vector()
    assert all(v.is_zero() for v in torsion)
    assert split_connection(xi)[0][1][3] == 1

    lam = kernel_basis()[15 + TRIPLES.index((0, 1, 3))]
    gamma, torsion = projected_parts(lam)
    assert all(v.is_zero() for v in gamma)
    assert torsion == lam.to_vector()
    assert split_connection(lam)[1][(0, 1, 3)] == 1


def test_split_kernel_combination_has_no_remainder():
    rng = random.Random(15)
    vec = [Scalar(0)] * 50
    for b in kernel_basis():
        c = scalar(Fraction(rng.randint(-2, 2), 1))
        vec = vec_add(vec, [c * v for v in b.to_vector()])
    # a kernel element projects to itself
    assert vec_add(*projected_parts(ConnTensor.from_vector(vec))) == vec


def test_split_generic_remainder_orthogonal_to_kernel():
    rng = random.Random(16)
    data = {}
    for a, b in PAIRS:
        for k in range(5):
            data[(a, b, k)] = Fraction(rng.randint(-3, 3), 2)
    xi = ConnTensor.from_pairs(data)
    xv = xi.to_vector()
    proj = vec_add(*projected_parts(xi))
    rem = vec_add(xv, proj, -1)
    assert not all(v.is_zero() for v in rem)
    for b in kernel_basis():
        assert dot(b.to_vector(), rem).is_zero()
    assert dot(xv, xv) == dot(proj, proj) + dot(rem, rem)
    # the projection lies in the kernel
    assert sym4_is_zero(upsilon_prime(ConnTensor.from_vector(proj)))


# -- torsion types ---------------------------------------------------------


def test_torsion_type_of_dual_so3_form():
    kappa3 = kappa_forms(FLAT)[2]
    T = hodge_star(kappa3)
    out = torsion_type(T)
    assert out["t7"].is_zero()
    assert (out["t3"] - kappa3).is_zero()


def test_torsion_type_pure_lines():
    th = FLAT.basis

    def family(t1, t2):
        return th(1, 2, 4) * t1 + th(1, 3, 5) * t2

    pure3 = torsion_type(family(1, 2))
    assert pure3["t7"].is_zero() and not pure3["t3"].is_zero()
    pure7 = torsion_type(family(-2, 1))
    assert pure7["t3"].is_zero() and not pure7["t7"].is_zero()
    mixed = torsion_type(family(1, 1))
    assert not mixed["t3"].is_zero() and not mixed["t7"].is_zero()


def test_torsion_type_validates_degree():
    with pytest.raises(ValueError):
        torsion_type(FLAT.basis(1, 2))


# -- curvature decomposition -----------------------------------------------


def so3_violation(K: CurvTensor):
    """Residual of the (ij) slot outside Span(E_1, E_2, E_3)."""
    E = E_matrices()
    worst = 0.0
    for k in range(5):
        for l in range(5):
            M = Tensor2([[K.x[i][j][k][l] for j in range(5)]
                         for i in range(5)])
            inside = Tensor2.zero()
            for t in range(3):
                coef = M.inner(Tensor2(E[t])) * scalar(Fraction(1, 10))
                inside = inside + Tensor2(E[t]).scale(coef)
            worst = max(worst, (M - inside).max_mag())
    return worst


def test_curvature_zero():
    out = decompose_curvature(CurvTensor.from_forms([FLAT.zero(2)] * 3))
    assert not any(out["present"].values())


def test_curvature_casimir_type():
    kappa = kappa_forms(FLAT)
    K = CurvTensor.from_forms(kappa)
    assert so3_violation(K) == 0.0
    k = K.ricci()
    assert k == Tensor2.metric().scale(6)
    out = decompose_curvature(K)
    # the three wedge squares cancel, so the type is pure trace
    assert out["present"]["c1"]
    for name in ("c3", "c7", "c5", "c9", "c15"):
        assert not out["present"][name], name
    assert out["c1"] == 30


def test_curvature_single_so3_line():
    kappa = kappa_forms(FLAT)
    zero2 = FLAT.zero(2)
    K = CurvTensor.from_forms([zero2, zero2, kappa[2]])
    k = K.ricci()
    want = [[0, 0, 0, 0, 0], [0, 4, 0, 0, 0], [0, 0, 1, 0, 0],
            [0, 0, 0, 4, 0], [0, 0, 0, 0, 1]]
    assert k == Tensor2(want)
    out = decompose_curvature(K)
    assert out["present"]["c1"] and out["present"]["c5"] and out["present"]["c15"]
    for name in ("c3", "c7", "c9"):
        assert not out["present"][name], name


def test_curvature_from_forms_matches_the_dense_sum_on_floats():
    # each entry sums the products E_t[i][j] R_t[k][l] over t without an
    # exact-zero factor: exact when each such product is, and otherwise
    # their correctly rounded sum, so a product by a zero entry of E_t
    # never turns an entry into a float
    rng = random.Random(11)
    forms = []
    for _ in range(3):
        terms = []
        for a, b in PAIRS:
            kind = rng.randrange(3)
            if kind == 1:
                terms.append(((a + 1, b + 1),
                              scalar(Fraction(rng.randint(-3, 3), 2))))
            elif kind == 2:
                terms.append(((a + 1, b + 1),
                              Scalar.from_float(rng.uniform(-2, 2))))
        forms.append(FLAT.form(2, terms))
    K = CurvTensor.from_forms(forms)
    E, R = E_matrices(), [Tensor2.from_form(f).m for f in forms]
    kinds = set()
    for i, j, k, l in itertools.product(range(5), repeat=4):
        products = [E[t][i][j] * R[t][k][l] for t in range(3)
                    if not (E[t][i][j].is_exact and E[t][i][j].is_zero()
                            or R[t][k][l].is_exact and R[t][k][l].is_zero())]
        x = K.x[i][j][k][l]
        if all(p.is_exact for p in products):
            assert x.is_exact and x == sum(products, Scalar(0))
        else:
            want = float(sum(Fraction(float(p)) for p in products))
            assert not x.is_exact and float(x).hex() == want.hex()
        kinds.add((x.is_exact, x.is_zero(0.0)))
    assert kinds == {(True, True), (True, False), (False, False)}


def test_curvature_so3_violation_detected():
    # K_ijkl = 1 on (ij) = (kl) = (01), antisymmetric in each pair
    forms = [FLAT.basis(1, 2) if p == (0, 1) else FLAT.zero(2) for p in PAIRS]
    K = CurvTensor.from_pair_forms(forms)
    assert so3_violation(K) > 0.1


# -- pairings --------------------------------------------------------------


def product_37(F: Tensor2, G: Tensor2):
    """The indefinite pairing on 2-forms: half the inner of hat(F) with G."""
    return upsilon_hat(F).inner(G) * scalar(Fraction(1, 2))


def killing_product(F: Tensor2, G: Tensor2):
    """Negative-definite pairing matching the Lie-algebra trace form."""
    return F.inner(G) * scalar(-3)


def test_products_symmetric_and_split_orthogonal():
    rng = random.Random(17)
    E = [Tensor2(M) for M in E_matrices()]
    tenth = scalar(Fraction(1, 10))

    def complement_part(A):
        for F in E:
            A = A - F.scale(A.inner(F) * tenth)
        return A

    for _ in range(5):
        A = rand_t2(rng).alt()
        B = rand_t2(rng).alt()
        assert product_37(A, B) == product_37(B, A)
        n = complement_part(A)
        for F in E:
            assert product_37(F, n).is_zero()
            assert killing_product(F, n).is_zero()
        if not n.is_zero():
            assert product_37(n, n).sign() < 0
            assert killing_product(n, n).sign() < 0
        comb = Tensor2.zero()
        for F in E:
            comb = comb + F.scale(Fraction(rng.randint(-2, 2), 1))
        if not comb.is_zero():
            assert product_37(comb, comb).sign() > 0
            assert killing_product(comb, comb).sign() < 0


def test_kappa_forms_match_basis_matrices():
    kappa = kappa_forms(FLAT)
    th = FLAT.basis
    want = th(1, 5) * sqrt3() + th(2, 3) + th(4, 5)
    assert (kappa[0] - want).is_zero()
    for K, E in zip(kappa, E_matrices()):
        assert Tensor2.from_form(K) == Tensor2(E)
