"""Acceptance gate: one test per shipped guarantee.

Each function below covers one numbered item of the package's acceptance
checklist, so ``pytest -v`` prints exactly one pass/fail line per item.
Tolerances are pinned as literals next to the assertions they guard.
Everything computed in the exact scalar ring is asserted bit-exactly
(residual equal to zero, not merely small); floating-point paths carry an
explicit numeric bound.

The suite is seeded and deterministic.  It exercises the public API the
same way library users do; nothing here reaches into private state.
"""

from __future__ import annotations

import pathlib
import random
from fractions import Fraction

import numpy as np

from so3five.catalog import (
    CATALOG,
    build_entry,
    expected_properties,
    flat_char_model,
    flat_constraint_residuals,
    six_dim_model,
    solve_flat_constraints,
    tor23_model,
    tor27_model,
    torsion_free_model,
    verify_expectations,
)
from so3five.connection import (
    build_report,
    cartan_su3,
    characteristic_connection,
    curvature,
    weyl,
)
from so3five.repr import (
    PAIRS,
    Tensor2,
    kappa_forms,
    kernel_basis,
    projector_matrices,
    sym4_is_zero,
    upsilon_check,
    upsilon_hat,
    upsilon_prime,
    upsilon_prime_matrix,
)
from so3five.scalar import (
    Scalar,
    cscalar,
    get_tol,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    rank,
    scalar,
    sqrt3,
    zeros,
)
from so3five.spin import det4, spin_basis, spinor_obstruction
from so3five.twistor import (
    cr_residuals,
    g2_form,
    gram_residual,
    omega_normalization,
    predicted_verdict,
)
from so3five.upsilon import (
    E_matrices,
    adapt_frame,
    char_poly,
    sigma_embed,
    stabilizer,
    standard_upsilon,
    verify_so3_structure,
)

TOL = get_tol()


def _rand_vec(rng, n=5):
    return [Scalar.exact(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(n)]


def _det3(S):
    return (S[0][0] * (S[1][1] * S[2][2] - S[1][2] * S[2][1])
            - S[0][1] * (S[1][0] * S[2][2] - S[1][2] * S[2][0])
            + S[0][2] * (S[1][0] * S[2][1] - S[1][1] * S[2][0]))


def _comm(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def _spin_det_residual(c1, c2, c3):
    basis = spin_basis()
    W = zeros(4, like=cscalar(0))
    for c, E in zip((c1, c2, c3), basis.E):
        W = mat_add(W, mat_scale(c, E))
    square_sum = c1 * c1 + c2 * c2 + c3 * c3
    predicted = (scalar(9) / 16) * square_sum * square_sum
    return (det4(W) - cscalar(predicted)).mag()


def test_acceptance_01_ternary_form_identity_suite():
    """Defining identities of the canonical ternary form, all bit-exact."""
    y = standard_upsilon()
    rep = verify_so3_structure(y)
    assert rep["valid"]
    assert rep["symmetric"] and rep["traceless"] and rep["cubic_identity"]
    assert rep["max_residual"] == 0.0

    # contraction identities: pairwise gives 14 g, the threefold chain
    # reproduces the tensor with factor -3
    d = y.dense()
    for i in range(5):
        for m in range(5):
            acc = Scalar(0)
            for j in range(5):
                for k in range(5):
                    acc = acc + d[i][j][k] * d[m][j][k]
            assert 4 * acc == (14 if i == m else 0)
    for i in range(5):
        for j in range(5):
            for k in range(5):
                acc = Scalar(0)
                for l in range(5):
                    for m in range(5):
                        for n in range(5):
                            acc = acc + d[i][l][m] * d[j][l][n] * d[k][m][n]
                assert 4 * acc == -3 * d[i][j][k]

    # the cubic is the determinant of the traceless symmetric embedding
    rng = random.Random(101)
    factor = scalar(3) * sqrt3() * scalar(Fraction(1, 2))
    for _ in range(10):
        a = _rand_vec(rng)
        assert y.cubic(a) == factor * _det3(sigma_embed(a))

    # characteristic polynomial coefficients of the matrix family
    coef = Scalar.exact(0, Fraction(2, 9))  # 2 sqrt3 / 9
    for _ in range(10):
        a = _rand_vec(rng)
        c0, c1, c2, c3 = char_poly(a)
        assert c3 == -1 and c2 == 0
        assert c1 == sum((x * x for x in a), Scalar(0))
        assert c0 == coef * y.cubic(a)


def test_acceptance_02_spectrum_table():
    """Projector traces (1,3,7,5,9), exact minimal polynomials, and the
    eigenvalue content {0, 14} with multiplicities {10, 5} of the check
    operator on symmetric tensors."""
    mats = projector_matrices()
    dims = {"c1": 1, "c3": 3, "c7": 7, "c5": 5, "c9": 9}
    for name, M in mats.items():
        tr = sum((M[i][i] for i in range(25)), Scalar(0))
        assert tr == dims[name], name

    # minimal polynomials annihilate exactly on every matrix unit
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

    # check operator: quadratic relation x(x - 14) = 0 pins the spectrum
    # to {0, 14}; rank 5 of the image gives the multiplicity split 10 + 5
    basis = [Tensor2.basis(i, i) for i in range(5)]
    for i, j in PAIRS:
        basis.append(Tensor2.basis(i, j) + Tensor2.basis(j, i))
    rows = []
    for S in basis:
        out = upsilon_check(S)
        assert upsilon_check(out) == out.scale(14)
        rows.append([out.m[i][j] for i in range(5) for j in range(5)])
    assert rank(rows) == 5


def test_acceptance_03_stabilizer_algebra():
    """The stabilizer of the canonical form is exactly the canonical
    three-dimensional rotation algebra, with cyclic commutators."""
    stab = stabilizer(standard_upsilon())
    assert len(stab) == 3
    E1, E2, E3 = E_matrices()
    assert _comm(E1, E2) == E3
    assert _comm(E2, E3) == E1
    assert _comm(E3, E1) == E2
    rows = [sum(X, []) for X in stab] + [sum(E, []) for E in (E1, E2, E3)]
    assert rank(rows) == 3
    for A in stab:
        for B in stab:
            C = _comm(A, B)
            assert rank([sum(X, []) for X in stab] + [sum(C, [])]) == 3


def test_acceptance_04_frame_adaptation():
    """100 seeded rotations of the canonical form are carried back to the
    canonical matrix table, positive square-root branch, within 1e-8."""
    y = standard_upsilon()
    gen = np.random.default_rng(404)
    b = float(sqrt3()) / 2
    worst = 0.0
    for trial in range(100):
        A = gen.normal(size=(5, 5))
        Q, R = np.linalg.qr(A)
        Q = Q @ np.diag(np.sign(np.diag(R)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        rotated = y.transform([list(map(float, Q[i])) for i in range(5)])
        out = adapt_frame(rotated, seed=trial)
        worst = max(worst, out["max_residual"])
        got = out["transformed"]
        assert abs(float(got.coeff(4, 5, 5)) - b) < 1e-8
    assert worst <= 1e-8


def test_acceptance_05_kernel_dimensions():
    """The prime map has rank 25; its kernel splits 25 = 15 + 10 into the
    connection-type and torsion-type summands with trivial intersection."""
    M = upsilon_prime_matrix()
    assert rank([row[:] for row in M]) == 25
    kb = kernel_basis()
    for xi in kb:
        assert sym4_is_zero(upsilon_prime(xi))
    vecs = [b.to_vector() for b in kb]
    assert rank([v[:] for v in vecs]) == 25
    assert rank([v[:] for v in vecs[:15]]) == 15
    assert rank([v[:] for v in vecs[15:]]) == 10


def test_acceptance_06_torsion_free_family():
    """Torsion-free models at r in {-1, 0, 1}: zero torsion, curvature
    forms r * kappa, exact Einstein metric, flat only at r = 0, nonzero
    Weyl part at r = +-1, and vanishing Cartan curvature only at r = 1."""
    g_metric = Tensor2.metric()
    for r in (-1, 0, 1):
        m = torsion_free_model(r)
        gamma, T = characteristic_connection(m, TOL)
        assert T.is_zero()
        rf, _K = curvature(m, gamma)
        kap = kappa_forms(m)
        for t in range(3):
            assert (rf[t] - kap[t] * scalar(r)).is_zero()

        w = weyl(m, TOL)
        ric = w["ricci"]
        diff = ric - g_metric.scale(ric.trace() / 5)
        assert diff.is_exact and diff.max_mag() == 0.0
        assert w["flat"] == (r == 0)
        assert w["weyl"].is_zero() == (r == 0)

        assert cartan_su3(m, gamma, TOL)["omega_zero"] == (r == 1)


def test_acceptance_07_type_table():
    """Torsion class lines and curvature component content of the
    six-dimensional families, five seeded exact points per region."""
    rng = random.Random(707)

    def q(lo=1, hi=6):
        return Fraction(rng.choice([-1, 1]) * rng.randint(lo, hi),
                        rng.randint(1, 4))

    def report(case, t1, t2):
        return build_report(six_dim_model(case, t1=t1, t2=t2), TOL)

    def present(rep):
        return {k for k, v in rep.curvature_components["present"].items() if v}

    # first family: on t2 = 2 t1 the torsion sits in the three-dimensional
    # class, on t1 = -2 t2 in the seven-dimensional class
    for _ in range(5):
        t1 = q()
        rep = report(2, t1, 2 * t1)
        assert rep.torsion_t7.is_zero() and not rep.torsion_t3.is_zero()
        rep = report(2, -2 * t1, t1)
        assert rep.torsion_t3.is_zero() and not rep.torsion_t7.is_zero()

    # first family, generic point: two curvature forms vanish, the third
    # is the invariant 2-form scaled by -t1*t2/2 in the normalization
    # fixed by kappa_forms; components are the 1-, 5-, and 15-summands
    for _ in range(5):
        t1, t2 = q(), q()
        m = six_dim_model(2, t1=t1, t2=t2)
        gamma, _T = characteristic_connection(m, TOL)
        rf, _K = curvature(m, gamma)
        kap = kappa_forms(m)
        assert rf[0].is_zero() and rf[1].is_zero()
        coeff = scalar(Fraction(-1, 2)) * scalar(t1) * scalar(t2)
        assert (rf[2] - kap[2] * coeff).is_zero()
        assert present(build_report(m, TOL)) == {"c1", "c5", "c15"}

    # second family, generic point: all four of 1, 5, 9, 15 present,
    # never anything in the 3- or 7-summands
    for _ in range(5):
        t1 = q()
        t2 = q()
        while t2 == 2 * t1 or 3 * t1 == 2 * t2 or t1 == 2 * t2:
            t2 = q()
        assert present(report(3, t1, t2)) == {"c1", "c5", "c9", "c15"}

    # second family, degenerate lines: the 9-summand dies on t2 = 2 t1,
    # the 15-summand dies on t1 = 0 and on 3 t1 = 2 t2
    for _ in range(5):
        t1 = q()
        assert present(report(3, t1, 2 * t1)) == {"c1", "c5", "c15"}
    for _ in range(5):
        assert present(report(3, 0, q())) == {"c1", "c5", "c9"}
    for _ in range(5):
        t1 = 2 * q()
        assert present(report(3, t1, 3 * t1 / 2)) == {"c1", "c5", "c9"}


RICCI_POINTS = {
    "torsion-free": [{"r115": "-1"}, {"r115": "0"}, {"r115": "1"}],
    "six-dim-1": [{"a": "1"}, {"a": "2"}, {"a": "-1/2"}],
    "six-dim-2": [{"t1": "1", "t2": "1"}, {"t1": "2", "t2": "-1"},
                  {"t1": "-3", "t2": "1/2"}],
    "six-dim-3": [{"t1": "1", "t2": "1"}, {"t1": "2", "t2": "3"},
                  {"t1": "-1", "t2": "2"}],
    "tor23": [{"rho": "1"}, {"rho": "2", "eps": "-1", "delta": "1"},
              {"rho": "1/2", "delta": "1"}],
    "tor27": [{"rho": "1"}, {"rho": "2"}, {"rho": "3/2"}],
    "friedrich": [{}],
    "flat-char": [{"t1": "1"}, {"t1": "-2"}, None],  # None: solved tuple
}


def test_acceptance_08_ricci_tables():
    """Displayed metric and characteristic Ricci tensors and torsion
    differentials for every catalog family, three exact points each; the
    Ricci comparison identity has zero residual on all of them, and the
    characteristic Ricci is symmetric exactly when the torsion is coclosed."""
    assert set(RICCI_POINTS) == set(CATALOG)
    solved = solve_flat_constraints(1, 2, 0, -1, 1, 0, 2)
    names = ["t%d" % i for i in range(1, 11)]
    for entry_name, points in RICCI_POINTS.items():
        for point in points:
            if point is None:
                point = dict(zip(names, (x.to_string() for x in solved)))
            m, _entry, resolved = build_entry(entry_name, point)
            assert m.is_exact
            expect = expected_properties(entry_name, resolved, m)
            rows = verify_expectations(m, expect, TOL)
            bad = [r["check"] for r in rows if not r["ok"]]
            assert not bad, (entry_name, point, bad)

            rep = build_report(m, TOL)
            assert rep.ricci_relation_residual == 0.0, (entry_name, point)
            assert rep.ric_gamma_symmetric == rep.codifferential_zero


def test_acceptance_09_flat_constraint_solver():
    """100 seeded draws of the free torsion components produce exact
    solutions of the flatness constraints; the resulting models close
    (Jacobi), kill the characteristic curvature, and carry the full
    four-dimensional space of parallel spinors."""
    rng = random.Random(909)
    for trial in range(100):
        args = [rng.randint(-3, 3) for _ in range(6)]
        args.append(rng.choice([-1, 1]) * rng.randint(1, 4))
        t = solve_flat_constraints(*args)
        res = flat_constraint_residuals(t)
        assert all(r.is_zero() and r.is_exact for r in res)
        m = flat_char_model(t)
        assert m.jacobi_residuals() == []
        sp = spinor_obstruction(m, TOL)
        assert sp["flat"]
        assert sp["solution_dim"] == 4
        assert sp["det_residual"] == 0.0
        if trial % 10 == 0:
            gamma, _T = characteristic_connection(m, TOL)
            rf, _K = curvature(m, gamma)
            assert all(f.is_zero() for f in rf)


def test_acceptance_10_spinor_determinant_identity():
    """det of a generic element of the lifted algebra equals
    (9/16)(sum of squares)^2: exactly for 150 exact triples including
    square-root-of-3 parts, below 1e-10 for 50 floating triples."""
    rng = random.Random(1010)
    for _ in range(150):
        triple = [scalar(rng.randint(-6, 6)) +
                  sqrt3() * Scalar.exact(Fraction(rng.randint(-4, 4),
                                                  rng.randint(1, 3)))
                  for _ in range(3)]
        assert _spin_det_residual(*triple) == 0.0
    for _ in range(50):
        triple = [scalar(rng.uniform(-3.0, 3.0)) for _ in range(3)]
        assert _spin_det_residual(*triple) < 1e-10


def test_acceptance_11_twistor_verdicts():
    """The structure-data verdict agrees with the direct residual
    computation on six catalog models covering both outcomes; the three
    alternative almost-complex structures are never integrable; the
    sphere-bundle coframe is orthonormal, the canonical 2-form has the
    normalized square, and the coordinate expression of the cross-product
    3-form matches identically."""
    roster = [
        (tor23_model(1, 0, 1, 0), True),
        (tor23_model(1, 0, 1, 1), True),
        (six_dim_model(2, t1=1, t2=2), True),
        (tor27_model(1, 0), False),
        (six_dim_model(2, t1=1, t2=1), False),
        (flat_char_model([1] + [0] * 9), False),
    ]
    for m, want in roster:
        direct = cr_residuals(m, "j0")["integrable"]
        pred = predicted_verdict(m, TOL)["integrable"]
        assert direct == want, m.name
        assert pred == want, m.name
        for other in ("j0m", "jm", "jmm"):
            assert not cr_residuals(m, other)["integrable"], (m.name, other)

    m0 = roster[0][0]
    assert gram_residual(m0) == 0.0
    assert omega_normalization(m0) == 5
    g2 = g2_form(m0)
    assert g2["match"] and g2["match_residual"] == 0.0


def test_acceptance_12_exclusions_documented():
    """Global statements that are not desk-computable from structure
    constants (which symmetric space a model is locally isometric to, and
    that the six-dimensional list is exhaustive) are deliberately out of
    scope.  Their structure-constant shadows are covered by the torsion-free
    family test, the type table, and the catalog expectation rows above;
    this test pins that coverage in place."""
    for fn in ("test_acceptance_06_torsion_free_family",
               "test_acceptance_07_type_table",
               "test_acceptance_08_ricci_tables"):
        assert fn in globals() and callable(globals()[fn])
    here = pathlib.Path(__file__).resolve().parent
    for name in ("test_connection.py", "test_catalog.py", "test_twistor.py"):
        assert (here / name).is_file(), name
