"""Spinor side of the structure group.

The even Clifford algebra of a 5-dimensional Euclidean space acts on C^4.
This module carries the five generator matrices, the lifted so(3) basis
acting on spinors, the double-cover map from antisymmetric 5x5 matrices,
and the integrability obstruction for covariantly constant spinors.  All
entries live in Q(sqrt 3) + i Q(sqrt 3), so every identity here is exact.
"""

from __future__ import annotations

from functools import lru_cache

from .connection import Analysis, stage
from .exterior import CoframeModel
from .scalar import (
    DEFAULT_TOL,
    I,
    CScalar,
    Scalar,
    cscalar,
    is_exact_zero,
    mat_add,
    mat_mul,
    mat_scale,
    sqrt3,
    sum_products,
    zeros,
)

HALF = Scalar(1) / 2
NINE_SIXTEENTHS = Scalar(9) / 16
PAIRS = [(i, j) for i in range(5) for j in range(i + 1, 5)]
CZERO = CScalar(0)


# -- 4x4 determinant -------------------------------------------------------


def det4(A) -> CScalar:
    """Cofactor expansion along the first row, and on down the rows: each
    minor is the sum_products of its first-row entries with their signed
    cofactors, and the cofactor of an exact-zero entry is not formed."""

    def det(row, cols):
        if len(cols) == 1:
            return A[row][cols[0]]
        terms = []
        for n, c in enumerate(cols):
            if not is_exact_zero(A[row][c]):
                minor = det(row + 1, cols[:n] + cols[n + 1:])
                terms.append((A[row][c], -minor if n % 2 else minor))
        return sum_products(terms, CZERO)

    return det(0, (0, 1, 2, 3))


# -- the Clifford generators and the spinor so(3) basis ---------------------


class CliffordRep:
    """Five mutually anticommuting square roots of the identity on C^4."""

    __slots__ = ("e",)

    def __init__(self, matrices):
        self.e = tuple(matrices)

    def matrix(self, i: int):
        """1-based generator access."""
        return self.e[i - 1]

    def product(self, i: int, j: int):
        return mat_mul(self.matrix(i), self.matrix(j))


class SpinBasis:
    """The so(3) basis acting on spinors, lifted from the 5-dim one."""

    __slots__ = ("E",)

    def __init__(self, matrices):
        self.E = tuple(matrices)


@lru_cache(maxsize=1)
def clifford_basis() -> CliffordRep:
    def C(rows):
        return [[cscalar(x) for x in row] for row in rows]

    i = CScalar(0, 1)
    e1 = C([[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]])
    e2 = C([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    e3 = C([[0, 0, -i, 0], [0, 0, 0, i], [i, 0, 0, 0], [0, -i, 0, 0]])
    e4 = C([[0, -i, 0, 0], [i, 0, 0, 0], [0, 0, 0, -i], [0, 0, i, 0]])
    e5 = C([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
    return CliffordRep((e1, e2, e3, e4, e5))


@lru_cache(maxsize=1)
def spin_basis() -> SpinBasis:
    cl = clifford_basis()
    s3 = sqrt3()
    E1 = mat_scale(HALF, mat_add(mat_scale(s3, cl.product(1, 5)),
                                 mat_add(cl.product(2, 3), cl.product(4, 5))))
    E2 = mat_scale(HALF, mat_add(mat_scale(s3, cl.product(1, 3)),
                                 mat_add(cl.product(2, 5), cl.product(3, 4))))
    E3 = mat_scale(HALF, mat_add(mat_scale(Scalar(2), cl.product(2, 4)),
                                 cl.product(3, 5)))
    return SpinBasis((E1, E2, E3))


def spin_lift(A):
    """Image of an antisymmetric 5x5 matrix under the double-cover map.

    The unit antisymmetric matrix with +1 in slot (i,j), i<j, goes to
    half the Clifford product e_i e_j; the map extends linearly and is a
    Lie algebra isomorphism onto its image.
    """
    cl = clifford_basis()
    out = zeros(4, like=I)
    for i, j in PAIRS:
        c = A[i][j]
        if c.is_zero():
            continue
        out = mat_add(out, mat_scale(c * HALF, cl.product(i + 1, j + 1)))
    return out


# -- obstruction to covariantly constant spinors ----------------------------


def det_identity(coeffs):
    """W = sum_I c_I bold-E_I, det W, and (9/16) (sum_I c_I^2)^2.

    The determinant identity says the two agree for every coefficient
    triple.  Returns (W, det W, predicted, |det W - predicted|).  Each
    entry of W, and the sum of squares, is one sum_products; a zero
    coefficient adds nothing to W.
    """
    terms = [(cscalar(c), E) for c, E in zip(coeffs, spin_basis().E)
             if not c.is_zero()]
    W = [[sum_products([(c, E[r][s]) for c, E in terms], CZERO)
          for s in range(4)] for r in range(4)]
    d = det4(W)
    square_sum = sum_products((c, c) for c in coeffs)
    predicted = NINE_SIXTEENTHS * square_sum * square_sum
    return W, d, predicted, (d - cscalar(predicted)).mag()


@stage
def spinor_obstruction(model: CoframeModel, tol: float = DEFAULT_TOL):
    """Integrability data for the constant-spinor equation.

    A spinor field annihilated by d + gamma^I bold-E_I exists only when
    every coefficient matrix W_ij = r^I_ij bold-E_I kills it; the
    determinant of each W_ij equals (9/16) (sum_I (r^I_ij)^2)^2, so any
    nonzero curvature coefficient rules the solution out.  The flat case
    leaves the full 4-dimensional space of constant spinors.
    """
    r_forms, _K = Analysis(model, tol).curvature
    entries = []
    flat = True
    max_residual = 0.0
    for i, j in PAIRS:
        coeffs = [r.coeff((i + 1, j + 1)) for r in r_forms]
        if not all(c.is_zero(tol) for c in coeffs):
            flat = False
        W, d, predicted, residual = det_identity(coeffs)
        max_residual = max(max_residual, residual)
        entries.append({
            "pair": (i + 1, j + 1),
            "coefficients": coeffs,
            "matrix": W,
            "det": d,
            "det_predicted": predicted,
        })
    return {
        "W": entries,
        "flat": flat,
        "solution_dim": 4 if flat else 0,
        "det_residual": max_residual,
    }
