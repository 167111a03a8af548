"""Tensor decompositions induced by the canonical ternary form.

The structure group acts irreducibly on R^5; this module carries the
operators built from the ternary form (hat, grave, bar, check, prime),
the splitting of two-tensors into the five irreducible summands, the
splitting of metric-connection tensors into a group-valued part plus a
skew torsion, and the six-component decomposition of curvature tensors.
Everything works over exact Scalars and degrades to floats transparently.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations

from .exterior import Form, hodge_star, sort_indices, wedge
from .scalar import (DEFAULT_TOL, ZERO, Scalar, dot, rref, scalar,
                     sum_products, total)
from .upsilon import E_matrices, standard_upsilon

N = 5
PAIRS = list(combinations(range(N), 2))
TRIPLES = list(combinations(range(N), 3))
SYM4_KEYS = list(combinations_with_replacement(range(N), 4))

COMPONENT_DIMS = {"c1": 1, "c3": 3, "c7": 7, "c5": 5, "c9": 9}

HALF, FIFTH, SIXTH, TENTH, FOURTEENTH = (Scalar(Fraction(1, n))
                                         for n in (2, 5, 6, 10, 14))


@lru_cache(maxsize=1)
def _dense_upsilon():
    return standard_upsilon().dense()

@lru_cache(maxsize=1)
def _upsilon_by_last():
    """For each m, the nonzero entries (i, j, value) of Y_ijm."""
    d = _dense_upsilon()
    out = [[] for _ in range(N)]
    for i in range(N):
        for j in range(N):
            for m in range(N):
                v = d[i][j][m]
                if not v.is_zero():
                    out[m].append((i, j, v))
    return out

@lru_cache(maxsize=1)
def _upsilon_third():
    """For each pair (c, d), the nonzero entries (m, value) of Y_cdm."""
    d = _dense_upsilon()
    out = [[[] for _ in range(N)] for _ in range(N)]
    for c in range(N):
        for dd in range(N):
            for m in range(N):
                v = d[c][dd][m]
                if not v.is_zero():
                    out[c][dd].append((m, v))
    return out


@lru_cache(maxsize=1)
def _e_support():
    """For each pair (i, j), the nonzero entries (t, value) of (E_t)_ij."""
    E = E_matrices()
    return [[[(t, E[t][i][j]) for t in range(3) if not E[t][i][j].is_zero()]
             for j in range(N)] for i in range(N)]


@lru_cache(maxsize=1)
def _pair_support():
    """For each (i, j), the nonzero entry (p, +-1) of the unit skew matrix
    e_ab - e_ba, (a, b) = PAIRS[p]; none on the diagonal."""
    out = [[[] for _ in range(N)] for _ in range(N)]
    for p, (a, b) in enumerate(PAIRS):
        out[a][b].append((p, Scalar(1)))
        out[b][a].append((p, Scalar(-1)))
    return out


def form_array(form: Form):
    """The coefficients of a 2- or 3-form on the base as a full
    antisymmetric array, indexed from 0."""
    zero = Scalar(0)
    if form.degree == 2:
        x = [[zero] * N for _ in range(N)]
        for (a, b), v in form.terms.items():
            x[a - 1][b - 1], x[b - 1][a - 1] = v, -v
        return x
    x = [[[zero] * N for _ in range(N)] for _ in range(N)]
    for (a, b, c), v in form.terms.items():
        a, b, c = a - 1, b - 1, c - 1
        x[a][b][c] = x[b][c][a] = x[c][a][b] = v
        x[b][a][c] = x[a][c][b] = x[c][b][a] = -v
    return x


class _Dense:
    """Norm, exactness, zero test and largest magnitude over the entries of
    a dense tensor."""

    __slots__ = ()

    def norm_sq(self):
        return sum_products((v, v) for v in self.entries())

    @property
    def is_exact(self):
        return all(v.is_exact for v in self.entries())

    def is_zero(self, tol=DEFAULT_TOL):
        return all(v.is_zero(tol) for v in self.entries())

    def max_mag(self):
        return max(abs(float(v)) for v in self.entries())


class Tensor2(_Dense):
    """Dense element of the 25-dimensional space of two-tensors on R^5.
    Each entry of a sum, a scaling or an inner product is one total or
    sum_products, so an exact zero adds and multiplies nothing."""

    __slots__ = ("m",)

    def __init__(self, rows):
        if len(rows) != N or any(len(r) != N for r in rows):
            raise ValueError("Tensor2 needs a 5x5 array")
        self.m = [[scalar(x) for x in row] for row in rows]

    @classmethod
    def _of(cls, rows):
        """A Tensor2 of Scalars, unchecked."""
        t = object.__new__(cls)
        t.m = rows
        return t

    @classmethod
    def zero(cls):
        return cls._of([[ZERO] * N for _ in range(N)])

    @classmethod
    def metric(cls):
        return cls._of([[Scalar(1) if i == j else ZERO for j in range(N)]
                        for i in range(N)])

    @classmethod
    def basis(cls, i, j):
        rows = [[0] * N for _ in range(N)]
        rows[i][j] = 1
        return cls(rows)

    @classmethod
    def from_form(cls, f: Form):
        if f.degree != 2:
            raise ValueError("need a 2-form")
        if f.has_fiber_legs():
            raise ValueError("need a base 2-form")
        return cls._of(form_array(f))

    def to_form(self, model):
        if not (self + self.transpose()).is_zero():
            raise ValueError("matrix is not antisymmetric")
        terms = [((i + 1, j + 1), self.m[i][j]) for i, j in PAIRS]
        return Form(model, 2, terms)

    def __add__(self, other):
        return Tensor2._of([[total([a, b]) for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.m, other.m)])

    def __sub__(self, other):
        return Tensor2._of([[total([a, -b]) for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.m, other.m)])

    def scale(self, c):
        c = scalar(c)
        return Tensor2._of([[sum_products([(c, a)]) for a in row]
                            for row in self.m])

    @classmethod
    def combination(cls, terms):
        """The sum of c * T over the (c, T) in terms, each entry one
        sum_products."""
        terms = [(scalar(c), T.m) for c, T in terms]
        return cls._of([[sum_products([(c, m[i][j]) for c, m in terms])
                         for j in range(N)] for i in range(N)])

    def __eq__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        return all(a == b for r1, r2 in zip(self.m, other.m)
                   for a, b in zip(r1, r2))

    __hash__ = None

    def sym(self):
        return Tensor2.combination([(HALF, self), (HALF, self.transpose())])

    def alt(self):
        return Tensor2.combination([(HALF, self), (-HALF, self.transpose())])

    def transpose(self):
        return Tensor2._of([[self.m[j][i] for j in range(N)]
                            for i in range(N)])

    def trace(self):
        return total([self.m[i][i] for i in range(N)])

    def inner(self, other):
        return sum_products(zip(self.entries(), other.entries()))

    def entries(self):
        return (e for row in self.m for e in row)

    def __repr__(self):
        return "Tensor2(%r)" % (self.m,)


class ConnTensor(_Dense):
    """Element of Lambda^2 R^5 (x) R^5: xi_ijk with xi_ijk = -xi_jik."""

    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    @classmethod
    def from_pairs(cls, data):
        """Build from {(i, j, k): value} with i < j; antisymmetry is filled in."""
        x = [[[Scalar(0) for _ in range(N)] for _ in range(N)] for _ in range(N)]
        for (i, j, k), v in data.items():
            if not 0 <= i < j < N or not 0 <= k < N:
                raise ValueError("need 0 <= i < j < 5 and 0 <= k < 5")
            v = scalar(v)
            x[i][j][k], x[j][i][k] = v, -v
        return cls(x)

    @classmethod
    def from_so3(cls, E, w):
        """E an antisymmetric 5x5 matrix, w a covector: xi_ijk = E_ij w_k."""
        w = [scalar(c) for c in w]
        return cls([[[scalar(E[i][j]) * w[k] for k in range(N)]
                     for j in range(N)] for i in range(N)])

    @classmethod
    def from_vector(cls, vec):
        if len(vec) != 50:
            raise ValueError("need 50 components")
        x = [[[Scalar(0) for _ in range(N)] for _ in range(N)] for _ in range(N)]
        pos = 0
        for a, b in PAIRS:
            for k in range(N):
                v = scalar(vec[pos])
                pos += 1
                x[a][b][k] = v
                x[b][a][k] = -v
        return cls(x)

    def to_vector(self):
        return [self.x[a][b][k] for a, b in PAIRS for k in range(N)]

    def entries(self):
        return (v for plane in self.x for row in plane for v in row)


class CurvTensor:
    """Curvature K_ijkl = sum_a (A_a)_ij (rho^a)_kl of 2-forms rho^a against
    skew 5x5 matrices A_a with disjoint supports.

    The characteristic curvature pairs the three r^I with the E_I, so it lies
    in so(3) (x) Lambda^2; a Levi-Civita or Weyl tensor has one form per
    entry of PAIRS, against the unit skew matrices.  Every quantity is read
    off the forms; the dense array x is built on first read.
    """

    __slots__ = ("forms", "support", "_x")

    def __init__(self, forms, support):
        self.forms, self.support, self._x = list(forms), support, None

    @classmethod
    def from_forms(cls, r_forms):
        """K = sum_I E_I (x) r^I."""
        if len(r_forms) != 3:
            raise ValueError("need three curvature 2-forms")
        return cls(r_forms, _e_support())

    @classmethod
    def from_pair_forms(cls, forms):
        """K_ijkl = (rho^ij)_kl for i < j, one 2-form per entry of PAIRS."""
        return cls(forms, _pair_support())

    @property
    def x(self):
        """The dense K_ijkl, indexed from 0: each entry the sum_products of
        the nonzero (A_a)_ij with the rho^a_kl, built on first read."""
        if self._x is None:
            R = [form_array(f) for f in self.forms]
            self._x = [[[[sum_products((e, R[a][k][l])
                                       for a, e in self.support[i][j])
                          for l in range(N)] for k in range(N)]
                        for j in range(N)] for i in range(N)]
        return self._x

    def ricci(self):
        """k_jl = K_ijil, the sum_products over i of the nonzero
        (A_a)_ij with the rho^a_il."""
        R = [form_array(f) for f in self.forms]
        return Tensor2._of([[sum_products((e, R[a][i][l]) for i in range(N)
                                          for a, e in self.support[i][j])
                             for l in range(N)] for j in range(N)])

    def norm_sq(self):
        """|K|^2 = 2 sum_a |A_a|^2 sum_(k<l) (rho^a_kl)^2, the A_a having
        disjoint supports; for the E_I, 10 sum_I |r^I|^2."""
        weight = [sum((e * e for row in self.support for terms in row
                       for b, e in terms if b == a), Scalar(0))
                  for a in range(len(self.forms))]
        return Scalar(2) * sum((w * sum((v * v for v in f.terms.values()),
                                        Scalar(0))
                                for w, f in zip(weight, self.forms)), Scalar(0))

    def total_skew_dual(self):
        """The totally skew part of K, star-dualized to five coefficients:
        the star of (sum_a alpha_a ^ rho^a) / 6, alpha_a the 2-form of A_a
        (kappa_I for E_I)."""
        model = self.forms[0].model
        alphas = [Form(model, 2, [((i + 1, j + 1), e) for i, j in PAIRS
                                  for b, e in self.support[i][j] if b == a])
                  for a in range(len(self.forms))]
        four = sum((wedge(al, f) for al, f in zip(alphas, self.forms)),
                   Form(model, 4))
        star = hodge_star(four * SIXTH)
        return [star.coeff((m + 1,)) for m in range(N)]

    @property
    def is_exact(self):
        return all(f.is_exact for f in self.forms)

    def is_zero(self, tol=DEFAULT_TOL):
        """K vanishes exactly when every rho^a does."""
        return all(f.is_zero(tol) for f in self.forms)


# -- the hat operator and the five-fold splitting of two-tensors -----------


def upsilon_hat(W: Tensor2) -> Tensor2:
    """W_ik -> 4 Y_ijm Y_klm W_jl."""
    by_m = _upsilon_by_last()
    rows = [[Scalar(0) for _ in range(N)] for _ in range(N)]
    four = scalar(4)
    for m in range(N):
        entries = by_m[m]
        for i, j, v1 in entries:
            for k, l, v2 in entries:
                w = W.m[j][l]
                if not w.is_zero():
                    rows[i][k] = rows[i][k] + four * v1 * v2 * w
    return Tensor2._of(rows)


def upsilon_grave(S: Tensor2):
    """Contraction v_i = Y_ijk S_jk for symmetric S: the sum_products of
    the nonzero Y_jki = Y_ijk with the S_jk."""
    if not (S - S.transpose()).is_zero():
        raise ValueError("grave operator needs a symmetric input")
    return [sum_products((y, S.m[j][k]) for j, k, y in entries)
            for entries in _upsilon_by_last()]


def upsilon_bar(v) -> Tensor2:
    """The symmetric matrix Y_ijk v_k of contraction against a vector: the
    sum_products of the nonzero Y_ijk with the v_k."""
    v = [scalar(c) for c in v]
    return Tensor2._of([[sum_products((y, v[k]) for k, y in entries)
                         for entries in row] for row in _upsilon_third()])


def upsilon_check(S: Tensor2) -> Tensor2:
    """4 * bar(grave(S)); vanishes except on the 5-dim symmetric summand."""
    return upsilon_bar(upsilon_grave(S)).scale(4)


def decompose_t2(W: Tensor2):
    """Split a two-tensor into the five irreducible summands.

    Returns {"c1", "c3", "c7", "c5", "c9"}; the parts sum to W and are
    eigenvectors of the hat operator with eigenvalues 14, 7, -8, -3, 4.
    """
    A = W.alt()
    S = W.sym()
    Es = [Tensor2._of(E) for E in E_matrices()]
    c3 = Tensor2.combination([(A.inner(E) * TENTH, E) for E in Es])
    c7 = A - c3
    c1 = Tensor2.metric().scale(S.trace() * FIFTH)
    S0 = S - c1
    c5 = upsilon_check(S0).scale(FOURTEENTH)
    c9 = S0 - c5
    return {"c1": c1, "c3": c3, "c7": c7, "c5": c5, "c9": c9}


@lru_cache(maxsize=1)
def projector_matrices():
    """The five projectors as exact 25x25 matrices (row-major on (i,k))."""
    cols = {name: [[Scalar(0) for _ in range(25)] for _ in range(25)]
            for name in COMPONENT_DIMS}
    for j in range(N):
        for l in range(N):
            parts = decompose_t2(Tensor2.basis(j, l))
            col = 5 * j + l
            for name, part in parts.items():
                for i in range(N):
                    for k in range(N):
                        cols[name][5 * i + k][col] = part.m[i][k]
    return cols


# -- the prime operator on connection tensors ------------------------------


def upsilon_prime(xi: ConnTensor):
    """Totally symmetric 4-tensor built from a connection tensor.

    For each sorted key (i <= j <= k <= l) the value is the sum over the
    twelve ordered position pairs (a, b) of xi_mab Y_cdm, where (c, d) are
    the remaining two indices; keys map to Scalar values (all 70 present).
    """
    third = _upsilon_third()
    out = {}
    for key in SYM4_KEYS:
        acc = Scalar(0)
        for p in range(4):
            for q in range(4):
                if p == q:
                    continue
                a, b = key[p], key[q]
                rest = [key[r] for r in range(4) if r != p and r != q]
                c, d = rest
                for m, v in third[c][d]:
                    xv = xi.x[m][a][b]
                    if not xv.is_zero():
                        acc = acc + xv * v
        out[key] = acc
    return out


def sym4_max_mag(d):
    return max(abs(float(v)) for v in d.values())


def sym4_is_zero(d, tol=DEFAULT_TOL):
    return all(v.is_zero(tol) for v in d.values())


@lru_cache(maxsize=1)
def upsilon_prime_matrix():
    """The prime operator as an exact 70x50 matrix."""
    rows = [[Scalar(0) for _ in range(50)] for _ in range(70)]
    for col in range(50):
        unit = [Scalar(0)] * 50
        unit[col] = Scalar(1)
        img = upsilon_prime(ConnTensor.from_vector(unit))
        for r, key in enumerate(SYM4_KEYS):
            rows[r][col] = img[key]
    return rows


@lru_cache(maxsize=1)
def kernel_basis():
    """25 connection tensors: E_I (x) e_k (15) then unit 3-forms (10)."""
    out = []
    E = E_matrices()
    for t in range(3):
        for k in range(N):
            w = [Scalar(1 if c == k else 0) for c in range(N)]
            out.append(ConnTensor.from_so3(E[t], w))
    for a, b, c in TRIPLES:
        x = [[[Scalar(0) for _ in range(N)] for _ in range(N)]
             for _ in range(N)]
        for p in permutations((a, b, c)):
            x[p[0]][p[1]][p[2]] = scalar(sort_indices(p)[1])
        out.append(ConnTensor(x))
    return out


@lru_cache(maxsize=1)
def _split_setup():
    vecs = [b.to_vector() for b in kernel_basis()]
    gram = [[dot(vi, vj) for vj in vecs] for vi in vecs]
    k = len(gram)
    zero, one = scalar(0), scalar(1)
    aug = [row[:] + [one if i == j else zero for j in range(k)]
           for i, row in enumerate(gram)]
    red, pivots = rref(aug)
    if pivots != list(range(k)):
        raise RuntimeError("projection Gram matrix is singular")
    inv = [row[k:] for row in red]
    return vecs, inv


def split_connection(xi: ConnTensor):
    """The coefficients of the group-valued part and the skew torsion of xi.

    They are the coordinates, in kernel_basis(), of the Euclidean-orthogonal
    projection of xi onto the 25-dimensional kernel of the prime operator:
    gamma_coeffs[I][k] multiplies E_I (x) e_k, so gamma_ijk = c^I_k (E_I)_ij,
    and torsion_coeffs[(a, b, c)] the totally antisymmetric unit tensor on
    a < b < c.  The projection is xi itself exactly when upsilon_prime(xi)
    vanishes, which is what nearly_integrable decides.
    """
    vecs, inv = _split_setup()
    v = xi.to_vector()
    rhs = [dot(b, v) for b in vecs]
    coeffs = [dot(row, rhs) for row in inv]
    gamma_coeffs = [[coeffs[5 * t + k] for k in range(N)] for t in range(3)]
    torsion_coeffs = {TRIPLES[t]: coeffs[15 + t] for t in range(10)}
    return gamma_coeffs, torsion_coeffs


# -- torsion and curvature classification ----------------------------------


def torsion_type(T: Form):
    """Split a base 3-form, via its star dual, into the two skew classes."""
    if T.degree != 3 or T.has_fiber_legs():
        raise ValueError("need a base 3-form")
    W = Tensor2.from_form(hodge_star(T))
    parts = decompose_t2(W)
    model = T.model
    return {
        "t3": parts["c3"].to_form(model),
        "t7": parts["c7"].to_form(model),
    }


def decompose_curvature(K: CurvTensor, tol=DEFAULT_TOL):
    """Six-component splitting of a curvature tensor.

    c1 is the Ricci trace, c3/c7 the antisymmetric Ricci parts, c5/c9 the
    traceless symmetric Ricci parts, c15 the star-dual of the totally
    antisymmetric part. A component is present when its norm exceeds
    tol * |K| (exact inputs use exact zero tests).
    """
    k = K.ricci()
    c1 = k.trace()
    comps = {**decompose_t2(k), "c1": c1, "c15": K.total_skew_dual()}
    norms_sq = {"c1": c1 * c1,
                **{n: comps[n].norm_sq() for n in ("c3", "c7", "c5", "c9")},
                "c15": sum_products((v, v) for v in comps["c15"])}
    norms = {name: float(nsq) ** 0.5 for name, nsq in norms_sq.items()}
    if K.is_exact:
        comps["present"] = {n: not nsq.is_zero() for n, nsq in norms_sq.items()}
    else:
        bound = tol * max(float(K.norm_sq()) ** 0.5, 1.0)
        comps["present"] = {n: norm > bound for n, norm in norms.items()}
    comps["norms"] = norms
    return comps


# -- invariant 2-forms and pairings ----------------------------------------


def kappa_forms(model):
    """The three invariant 2-forms matching the so(3) basis matrices."""
    out = []
    for E in E_matrices():
        terms = [((i + 1, j + 1), E[i][j]) for i, j in PAIRS]
        out.append(Form(model, 2, terms))
    return out
