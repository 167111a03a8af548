"""The defining ternary form of an irreducible SO(3) structure on R^5.

The structure is the pair (g, Y) with g the Euclidean metric and Y a totally
symmetric trace-free rank-3 tensor whose associated maps satisfy
``Y_v Y_v v = g(v,v) v``.  The canonical model identifies R^5 with symmetric
trace-free 3x3 matrices through ``sigma`` and sets
``Y(A,A,A) = (3*sqrt3/2) det(sigma(A))``.

This module owns: the canonical tensor and its defining identities, the
embedding sigma and its inverse, characteristic polynomials, validation of
candidate tensors, the so(3) stabilizer (computed, not assumed), the action
of SO(3) on R^5 through sigma, and the constructive orthonormal-frame
adaptation that brings any tensor in the orbit to the canonical coefficient
pattern.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from .scalar import (
    DEFAULT_TOL,
    Scalar,
    det,
    dot,
    nullspace,
    scalar,
    sqrt3,
)

_HALF = Fraction(1, 2)


def _key(i, j, k):
    return tuple(sorted((i, j, k)))


class TernaryForm:
    """Totally symmetric rank-3 tensor on R^5, stored by sorted index."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for (i, j, k), coef in (entries.items() if isinstance(entries, dict)
                                    else entries):
                for ix in (i, j, k):
                    if not 1 <= ix <= 5:
                        raise ValueError(f"index {ix} out of range 1..5")
                key = _key(i, j, k)
                coef = scalar(coef)
                if key in self.entries:
                    self.entries[key] = self.entries[key] + coef
                else:
                    self.entries[key] = coef
        self._prune()

    def _prune(self):
        for k in [k for k, v in self.entries.items() if v.is_zero()]:
            del self.entries[k]

    # -- access ------------------------------------------------------------

    def coeff(self, i, j, k) -> Scalar:
        return self.entries.get(_key(i, j, k), Scalar(0))

    def dense(self):
        """Full 5x5x5 nested list of Scalars."""
        out = [[[Scalar(0) for _ in range(5)] for _ in range(5)] for _ in range(5)]
        for (i, j, k), v in self.entries.items():
            seen = set()
            for p in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
                if p not in seen:
                    out[p[0] - 1][p[1] - 1][p[2] - 1] = v
                    seen.add(p)
        return out

    def to_float_array(self) -> np.ndarray:
        import numpy as np

        a = np.zeros((5, 5, 5))
        for (i, j, k), v in self.entries.items():
            f = float(v)
            for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
                a[p[0] - 1, p[1] - 1, p[2] - 1] = f
        return a

    # -- evaluation --------------------------------------------------------

    def matrix_of(self, v):
        """The symmetric matrix Y_v with (Y_v)_ij = Y_ijk v_k."""
        v = [scalar(x) for x in v]
        return [[dot(row, v) for row in plane] for plane in self.dense()]

    def value(self, u, v, w) -> Scalar:
        """Y(u, v, w) = u_i (Y_v)_ij w_j."""
        w = [scalar(x) for x in w]
        return dot([scalar(x) for x in u],
                   [dot(row, w) for row in self.matrix_of(v)])

    def cubic(self, a) -> Scalar:
        return self.value(a, a, a)

    # -- algebra -----------------------------------------------------------

    def transform(self, frame) -> "TernaryForm":
        """Coefficients in the new orthonormal frame: Y'(i,j,k) = Y(e_i,e_j,e_k),
        where frame is the list of five vectors e_i, with float entries.

        Each coefficient is the math.fsum, the correctly rounded sum, of the
        rounded products ((e_il e_jm) e_kn) Y_lmn over (l, m, n), leaving
        out the terms with |e_il| or |e_jm| at most DEFAULT_TOL, and is kept
        when its magnitude exceeds DEFAULT_TOL."""
        import numpy as np

        H = [[scalar(x) for x in e] for e in frame]
        if any(h.is_exact for e in H for h in e):
            raise TypeError("transform takes a frame with float entries")
        H = np.array([[float(h) for h in e] for e in H])
        A = np.where(np.abs(H) > DEFAULT_TOL, H, 0.0)
        keys = [(i, j, k) for i in range(5) for j in range(i, 5)
                for k in range(j, 5)]
        i, j, k = np.array(keys).T
        terms = A[i][:, :, None, None] * A[j][:, None, :, None] \
            * H[k][:, None, None, :] * self.to_float_array()
        sums = map(math.fsum, terms.reshape(len(keys), 125).tolist())
        f = TernaryForm()
        f.entries = {(a + 1, b + 1, c + 1): Scalar.from_float(v)
                     for (a, b, c), v in zip(keys, sums)
                     if abs(v) > DEFAULT_TOL}
        return f

    def __repr__(self):
        return f"TernaryForm({len(self.entries)} entries)"


def standard_upsilon() -> TernaryForm:
    s3h = Scalar.exact(0, _HALF)  # sqrt3 / 2
    return TernaryForm({
        (1, 1, 1): scalar(-1),
        (1, 2, 2): scalar(1),
        (1, 3, 3): scalar(Fraction(-1, 2)),
        (1, 4, 4): scalar(1),
        (1, 5, 5): scalar(Fraction(-1, 2)),
        (2, 3, 5): s3h,
        (3, 3, 4): -s3h,
        (4, 5, 5): s3h,
    })


# ---------------------------------------------------------------------------
# the sigma identification R^5 <-> symmetric traceless 3x3
# ---------------------------------------------------------------------------


def sigma_embed(a):
    """sigma(A): the symmetric trace-free 3x3 matrix of A in R^5."""
    a1, a2, a3, a4, a5 = (scalar(x) for x in a)
    r3 = sqrt3()
    d = a1 / r3
    return [
        [d - a4, a2, a3],
        [a2, d + a4, a5],
        [a3, a5, -2 * d],
    ]


def sigma_inverse(S, tol: float = DEFAULT_TOL):
    """Vector of the symmetric trace-free matrix S; validates the shape."""
    for i in range(3):
        for j in range(i + 1, 3):
            if not (S[i][j] - S[j][i]).is_zero(tol):
                raise ValueError("matrix is not symmetric")
    if not (S[0][0] + S[1][1] + S[2][2]).is_zero(tol):
        raise ValueError("matrix is not trace-free")
    half = scalar(Fraction(1, 2))
    a1 = -(sqrt3() * half) * S[2][2]
    a4 = (S[1][1] - S[0][0]) * half
    return [a1, S[0][1], S[0][2], a4, S[1][2]]


def char_poly(a):
    """Coefficients (c0, c1, c2, c3) of det(sigma(A) - lambda I) as a
    polynomial c3 l^3 + c2 l^2 + c1 l + c0."""
    S = sigma_embed(a)
    tr = S[0][0] + S[1][1] + S[2][2]
    tr2 = Scalar(0)
    for i in range(3):
        for j in range(3):
            tr2 = tr2 + S[i][j] * S[j][i]
    e2 = (tr * tr - tr2) * scalar(Fraction(1, 2))
    c0 = det(S)
    return (c0, -e2, tr, scalar(-1))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def verify_so3_structure(y: TernaryForm, tol: float = DEFAULT_TOL) -> dict:
    """Check the three defining properties of a candidate tensor.

    A TernaryForm is symmetric by construction, so the report's symmetric
    flag is always set.  Returns a report with per-property flags and the
    largest residual seen."""
    max_res = 0.0
    dense = y.dense()

    traceless = True
    for k in range(5):
        tr = Scalar(0)
        for i in range(5):
            tr = tr + dense[i][i][k]
        if not tr.is_zero(tol):
            traceless = False
        max_res = max(max_res, abs(float(tr)))

    cubic = True
    for j in range(5):
        for k in range(j, 5):
            for l in range(5):
                for n in range(l, 5):
                    lhs = Scalar(0)
                    for i in range(5):
                        lhs = lhs + dense[j][k][i] * dense[l][n][i] \
                            + dense[l][j][i] * dense[k][n][i] \
                            + dense[k][l][i] * dense[j][n][i]
                    rhs = Scalar((j == k) * (l == n) + (l == j) * (k == n)
                                 + (k == l) * (j == n))
                    r = lhs - rhs
                    if not r.is_zero(tol):
                        cubic = False
                    max_res = max(max_res, abs(float(r)))

    return {
        "symmetric": True,
        "traceless": traceless,
        "cubic_identity": cubic,
        "max_residual": max_res,
        "valid": traceless and cubic,
    }


# ---------------------------------------------------------------------------
# stabilizer and the so(3) basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def E_matrices():
    """The so(3) basis (E1, E2, E3) in the 5-dimensional representation,
    with [E1,E2] = E3, [E3,E1] = E2, [E2,E3] = E1.

    Built once: every caller shares the same rows and must not change them.
    """
    z, o, r3 = Scalar(0), Scalar(1), sqrt3()
    two = Scalar(2)
    E1 = [[z, z, z, z, r3],
          [z, z, o, z, z],
          [z, -o, z, z, z],
          [z, z, z, z, o],
          [-r3, z, z, -o, z]]
    E2 = [[z, z, r3, z, z],
          [z, z, z, z, o],
          [-r3, z, z, o, z],
          [z, z, -o, z, z],
          [z, -o, z, z, z]]
    E3 = [[z, z, z, z, z],
          [z, z, z, two, z],
          [z, z, z, z, o],
          [z, -two, z, z, z],
          [z, z, -o, z, z]]
    return E1, E2, E3


def stabilizer(y: TernaryForm, tol: float = DEFAULT_TOL):
    """Basis of {X in gl(5): the derived action of X annihilates y}.

    The equation is Y_ljk X^l_i + Y_ilk X^l_j + Y_ijl X^l_k = 0 for all
    (i,j,k); the kernel is returned as a list of 5x5 matrices.  For the
    canonical tensor the kernel is 3-dimensional and antisymmetric: the
    irreducible so(3)."""
    dense = y.dense()
    rows = []
    for i in range(5):
        for j in range(i, 5):
            for k in range(j, 5):
                row = [Scalar(0)] * 25
                for l in range(5):
                    row[5 * l + i] = row[5 * l + i] + dense[l][j][k]
                    row[5 * l + j] = row[5 * l + j] + dense[i][l][k]
                    row[5 * l + k] = row[5 * l + k] + dense[i][j][l]
                rows.append(row)
    basis = nullspace(rows, tol)
    return [[[v[5 * l + m] for m in range(5)] for l in range(5)] for v in basis]


def rho_act(h, a, tol: float = DEFAULT_TOL):
    """The irreducible SO(3) action on R^5: sigma^-1(h sigma(A) h^T).

    h must be a special orthogonal 3x3 matrix (within tolerance)."""
    h = [[scalar(x) for x in row] for row in h]
    for i in range(3):
        for j in range(3):
            acc = Scalar(0)
            for k in range(3):
                acc = acc + h[k][i] * h[k][j]
            if not (acc - (1 if i == j else 0)).is_zero(tol):
                raise ValueError("h is not orthogonal")
    if not (det(h) - 1).is_zero(tol):
        raise ValueError("h is not special orthogonal (det != 1)")
    S = sigma_embed(a)
    hS = [[sum((h[i][k] * S[k][j] for k in range(3)), Scalar(0))
           for j in range(3)] for i in range(3)]
    hSh = [[sum((hS[i][k] * h[j][k] for k in range(3)), Scalar(0))
            for j in range(3)] for i in range(3)]
    return sigma_inverse(hSh, tol)


# ---------------------------------------------------------------------------
# frame adaptation
# ---------------------------------------------------------------------------


_RETRIES = 5  # frame adaptation attempts before a tensor counts as off-orbit


def _float_matrix_of(U: np.ndarray, v: np.ndarray) -> np.ndarray:
    return U @ v


def adapt_frame(y: TernaryForm, tol: float = DEFAULT_TOL,
                seed: int = 0) -> dict:
    """Construct an orthonormal frame in which y takes the canonical
    coefficient pattern (with the positive sqrt3/2 sign).

    Follows the constructive orbit argument: find a unit vector e2 with
    det(Y_{e2}) = 0 (the determinant is odd on the sphere, so a zero is
    found by bisection along a half great circle), set e1 = Y_{e2} e2,
    take e4 in the kernel, split the remaining 2-plane by the +-c
    eigenvectors, and flip (e3,e4,e5) if the trailing sign comes out
    negative.  Retries with fresh random data when a degenerate circle is
    hit, _RETRIES times in all; raises ValueError when the tensor is not in
    the orbit."""
    import numpy as np

    U = y.to_float_array()
    rng = random.Random(seed)
    std = standard_upsilon().to_float_array()
    last_residual = math.inf

    for attempt in range(_RETRIES):
        try:
            frame = _frame_from_null_vector(U, _find_det_zero(U, rng))
        except _Degenerate:
            continue
        Yp = np.einsum("lmn,il,jm,kn->ijk", U, *
                       (np.array(frame),) * 3, optimize=True)
        if Yp[3, 4, 4] < 0:
            frame = [frame[0], frame[1], -frame[2], -frame[3], -frame[4]]
            Yp = np.einsum("lmn,il,jm,kn->ijk", U,
                           *(np.array(frame),) * 3, optimize=True)
        residual = float(np.max(np.abs(Yp - std)))
        if residual <= max(tol, 1e-8):
            out = TernaryForm()
            for i in range(5):
                for j in range(i, 5):
                    for k in range(j, 5):
                        val = Yp[i, j, k]
                        if abs(val) > 1e-13:
                            out.entries[(i + 1, j + 1, k + 1)] = \
                                Scalar.from_float(val)
            return {
                "frame": [list(map(float, e)) for e in frame],
                "transformed": out,
                "max_residual": residual,
                "attempts": attempt + 1,
            }
        last_residual = min(last_residual, residual)

    raise ValueError(
        "tensor is not in the canonical orbit: best residual "
        f"{last_residual:.3e} after {_RETRIES} attempts "
        "(check verify_so3_structure first)")


class _Degenerate(Exception):
    pass


def _find_det_zero(U: np.ndarray, rng: random.Random):
    """Unit vector v with det(Y_v) = 0, via bisection along half a great
    circle (the determinant changes sign between v and -v)."""
    import numpy as np

    for _ in range(20):
        v = np.array([rng.gauss(0, 1) for _ in range(5)])
        n = np.linalg.norm(v)
        if n < 1e-3:
            continue
        v /= n
        f0 = np.linalg.det(_float_matrix_of(U, v))
        if abs(f0) < 1e-14:
            return v
        w = np.array([rng.gauss(0, 1) for _ in range(5)])
        w -= v * (w @ v)
        n = np.linalg.norm(w)
        if n < 1e-3:
            continue
        w /= n

        def f(s):
            return np.linalg.det(_float_matrix_of(U, math.cos(s) * v + math.sin(s) * w))

        lo, hi = 0.0, math.pi
        flo = f0
        fhi = f(hi)
        if flo * fhi > 0:
            continue  # numerically flat circle; try again
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
        s = 0.5 * (lo + hi)
        out = math.cos(s) * v + math.sin(s) * w
        return out / np.linalg.norm(out)
    raise _Degenerate


def _frame_from_null_vector(U: np.ndarray, e2: np.ndarray):
    import numpy as np

    M = _float_matrix_of(U, e2)
    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(np.abs(vals))
    if abs(vals[order[1]]) < 1e-6:
        raise _Degenerate  # kernel not 1-dimensional on this circle
    e4 = vecs[:, order[0]]
    e1 = M @ e2
    n1 = np.linalg.norm(e1)
    if abs(n1 - 1.0) > 1e-6:
        raise _Degenerate
    e1 = e1 / n1
    # orthonormal basis of the complement of span(e1, e2, e4)
    A = np.vstack([e1, e2, e4])
    _, _, vt = np.linalg.svd(A)
    u1, u2 = vt[3], vt[4]
    M2 = np.array([[u1 @ M @ u1, u1 @ M @ u2], [u2 @ M @ u1, u2 @ M @ u2]])
    vals2, vecs2 = np.linalg.eigh(M2)
    c = vals2[1]
    if c < 1e-6 or abs(vals2[0] + c) > 1e-6:
        raise _Degenerate
    wp = vecs2[0, 1] * u1 + vecs2[1, 1] * u2
    wm = vecs2[0, 0] * u1 + vecs2[1, 0] * u2
    s2 = math.sqrt(0.5)
    e3 = s2 * (wp + wm)
    e5 = s2 * (wp - wm)
    return [e1, e2, e3, e4, e5]
