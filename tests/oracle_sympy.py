"""The curvature of a coframe model recomputed in sympy: an independent oracle.

Nothing here imports so3five.  A model enters as plain data over the field
F = QQ(sqrt 3):

- ``d``: for each coframe leg, d(theta^i) as {(b, c): value} with b < c and
  legs numbered from 1.  The first five legs are the orthonormal base; any
  further ones are vertical.
- ``E``: the three 5x5 matrices E_I that span so(3) inside so(5).
- ``gamma``: the characteristic connection's 1-forms gamma^I, each as
  {(leg,): value}.

From these it derives, with its own exterior calculus:

- the matrix connection Gamma = gamma^I E_I and its curvature
  R = d Gamma + Gamma ^ Gamma, which is the dense K_ijkl = R^i_j(e_k, e_l);
  it must lie in so(3), and r^I is its E_I coordinate
- the torsion T^i = d theta^i + Gamma^i_j ^ theta^j
- the characteristic Ricci tensor k_jl = K_ijil, and the metric Ricci
  tensor of the Levi-Civita connection omega: on a base model omega comes
  from the Koszul formula, on a bundle it is Gamma + T/2; either way it is
  checked skew and torsion-free
- the six parts of the curvature type: the trace c1, the so(3) part c3 and
  its complement c7 in the skew Ricci tensor, the parts c5 and c9 of the
  trace-free symmetric Ricci tensor (eigenspaces of the Casimir of the E_I,
  eigenvalues -6 and -20), and c15, the star of the totally skew part of K;
  with the squared norm of each
- both Bianchi identities in the 5x5 matrix representation, as residual
  forms
- the Jacobi residuals d(d theta^i), from the structure constants alone:
  ``jacobi_residuals`` needs no so(3) basis or connection, so it also
  takes frames that break d^2 = 0
- the torsion 3-form T_abc, checked totally skew, and the split of its
  star, a skew 5x5 matrix, into the orthogonal projection onto the span of
  the E_I (by a Gram solve) and the rest: the classes t3 and t7
"""

from itertools import combinations, permutations

from sympy import QQ, sqrt
from sympy.polys.matrices import DomainMatrix

F = QQ.algebraic_field(sqrt(3))
N = 5


def _parity(seq):
    """+1 or -1 for the parity of the permutation sorting seq; 0 when an
    entry repeats."""
    if len(set(seq)) < len(seq):
        return 0
    inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def _put(out, legs, value):
    """Add value * theta^legs to the form out, legs in any order."""
    sign = _parity(legs)
    if sign == 0 or not value:
        return
    key = tuple(sorted(legs))
    total = out.get(key, F.zero) + (value if sign > 0 else -value)
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def add(*scaled):
    """sum of c * form over the (c, form) pairs."""
    out = {}
    for c, form in scaled:
        for legs, v in form.items():
            _put(out, legs, c * v)
    return out


def wedge(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            _put(out, ka + kb, va * vb)
    return out


def ext_d(dtheta, form):
    """d(c theta^k1..kp) = sum_pos (-1)^pos c theta^k1 .. d theta^k_pos ..,
    with d(theta^i) = dtheta[i]; a leg missing from dtheta is closed."""
    out = {}
    for legs, c in form.items():
        for pos, leg in enumerate(legs):
            sign = -1 if pos % 2 else 1
            for (b, e), v in dtheta.get(leg, {}).items():
                _put(out, legs[:pos] + (b, e) + legs[pos + 1:], c * v * sign)
    return out


def jacobi_residuals(dtheta):
    """{i: d(d theta^i)}, each a 3-form that vanishes exactly when the
    structure constants satisfy the Jacobi identity at leg i."""
    return {i: ext_d(dtheta, form) for i, form in dtheta.items()}


def coeff(form, legs):
    """The coefficient of theta^legs, antisymmetric in legs."""
    sign = _parity(legs)
    return sign * form.get(tuple(sorted(legs)), F.zero) if sign else F.zero


class Oracle:
    """The curvature quantities of one model; see the module docstring."""

    def __init__(self, d, E, gamma):
        self.dtheta = d
        self.n = len(d)
        self.E = E
        self.theta = [{(i + 1,): F.one} for i in range(N)]
        self.Gamma = [[add(*((E[t][i][j], gamma[t]) for t in range(3)))
                       for j in range(N)] for i in range(N)]
        self.R = self._curvature(self.Gamma)
        self.K = [[[[coeff(self.R[i][j], (k + 1, l + 1)) for l in range(N)]
                    for k in range(N)] for j in range(N)] for i in range(N)]
        self.r_forms, outside = self._so3_coordinates()
        assert outside == 0, "the curvature leaves so(3)"
        self.torsion = [add((F.one, self.d(self.theta[i])),
                            *((F.one, wedge(self.Gamma[i][j], self.theta[j]))
                              for j in range(N))) for i in range(N)]
        self.ric_gamma = self._ricci(self.K)
        omega = self._koszul() if self.n == N else self._gamma_plus_half_t()
        self._check_levi_civita(omega)
        R_lc = self._curvature(omega)
        self.ric_lc = self._ricci(
            [[[[coeff(R_lc[i][j], (k + 1, l + 1)) for l in range(N)]
               for k in range(N)] for j in range(N)] for i in range(N)])

    # -- exterior calculus on the model

    def d(self, form):
        return ext_d(self.dtheta, form)

    def _curvature(self, A):
        """d A + A ^ A for a 5x5 matrix of 1-forms."""
        return [[add((F.one, self.d(A[i][j])),
                     *((F.one, wedge(A[i][k], A[k][j])) for k in range(N)))
                 for j in range(N)] for i in range(N)]

    # -- so(3) coordinates and Ricci tensors

    def _so3_coordinates(self):
        """r^I = <R, E_I> / <E_I, E_I> entrywise, and the number of form
        coefficients where R differs from sum_I E_I r^I."""
        E = self.E
        norms = [sum((E[t][i][j] ** 2 for i in range(N) for j in range(N)),
                     F.zero) for t in range(3)]
        for s in range(3):
            for t in range(s + 1, 3):
                assert not sum((E[s][i][j] * E[t][i][j] for i in range(N)
                                for j in range(N)), F.zero)
        r = [add(*((E[t][i][j] / norms[t], self.R[i][j])
                   for i in range(N) for j in range(N))) for t in range(3)]
        outside = sum(len(add((F.one, self.R[i][j]),
                              *((-E[t][i][j], r[t]) for t in range(3))))
                      for i in range(N) for j in range(N))
        return r, outside

    @staticmethod
    def _ricci(K):
        return [[sum((K[i][j][i][l] for i in range(N)), F.zero)
                 for l in range(N)] for j in range(N)]

    def _koszul(self):
        """omega^c_b(e_a) = (C^c_ab - C^a_bc + C^b_ca) / 2, where
        [e_b, e_c] = C^i_bc e_i = -d^i_bc e_i."""
        def C(i, b, c):
            return -coeff(self.dtheta[i + 1], (b + 1, c + 1))
        half = F.one / F(2)
        return [[{(a + 1,): v for a in range(N) for v in
                  [half * (C(c, a, b) - C(a, b, c) + C(b, c, a))] if v}
                 for b in range(N)] for c in range(N)]

    def _gamma_plus_half_t(self):
        half = F.one / F(2)
        return [[add((F.one, self.Gamma[i][j]),
                     *((half * coeff(self.torsion[i], (j + 1, k + 1)),
                        self.theta[k]) for k in range(N)))
                 for j in range(N)] for i in range(N)]

    def _check_levi_civita(self, omega):
        for i in range(N):
            for j in range(N):
                assert not add((F.one, omega[i][j]), (F.one, omega[j][i]))
            assert not add((F.one, self.d(self.theta[i])),
                           *((F.one, wedge(omega[i][j], self.theta[j]))
                             for j in range(N))), "omega has torsion"

    # -- the curvature type

    def components(self):
        """{name: (part, norm^2)}: c1 the Ricci trace, c3..c9 5x5 parts of
        the Ricci tensor, c15 a list of five coefficients."""
        k, E = self.ric_gamma, self.E
        trace = sum((k[i][i] for i in range(N)), F.zero)
        half = F.one / F(2)
        A = [[half * (k[i][j] - k[j][i]) for j in range(N)] for i in range(N)]
        c3 = [[F.zero] * N for _ in range(N)]
        for t in range(3):
            c = _inner(A, E[t]) / _inner(E[t], E[t])
            c3 = _plus(c3, E[t], c)
        c7 = _plus(A, c3, -F.one)
        S0 = [[half * (k[i][j] + k[j][i]) - (trace / F(5) if i == j else F.zero)
               for j in range(N)] for i in range(N)]
        c5 = [[v / F(14) for v in row]
              for row in _plus(self._casimir(S0), S0, F(20))]
        c9 = _plus(S0, c5, -F.one)
        assert self._casimir(c5) == [[F(-6) * v for v in row] for row in c5]
        assert self._casimir(c9) == [[F(-20) * v for v in row] for row in c9]
        c15 = self._skew_dual()
        out = {"c1": (trace, trace * trace)}
        for name, part in (("c3", c3), ("c7", c7), ("c5", c5), ("c9", c9)):
            out[name] = (part, _inner(part, part))
        out["c15"] = (c15, sum((v * v for v in c15), F.zero))
        return out

    def _casimir(self, M):
        """sum_I [E_I, [E_I, M]]."""
        out = [[F.zero] * N for _ in range(N)]
        for Et in self.E:
            out = _plus(out, _bracket(Et, _bracket(Et, M)), F.one)
        return out

    def _skew_dual(self):
        """v_m = sign(q, m) Alt(K)_q over sorted quadruples q missing m."""
        out = [F.zero] * N
        for q in combinations(range(N), 4):
            alt = sum((_parity(p) * self.K[q[p[0]]][q[p[1]]][q[p[2]]][q[p[3]]]
                       for p in permutations(range(4))), F.zero) / F(24)
            m = next(x for x in range(N) if x not in q)
            out[m] = _parity(q + (m,)) * alt
        return out

    def norm_sq(self):
        """|K|^2 over all 625 entries."""
        return sum((v * v for a in self.K for b in a for c in b for v in c),
                   F.zero)

    # -- Bianchi identities

    def bianchi(self):
        """The residual forms of d T + Gamma ^ T - R ^ theta (five 3-forms)
        and of d R + Gamma ^ R - R ^ Gamma (25 3-forms)."""
        G, R, T = self.Gamma, self.R, self.torsion
        first = [add((F.one, self.d(T[i])),
                     *((F.one, wedge(G[i][j], T[j])) for j in range(N)),
                     *((-F.one, wedge(R[i][j], self.theta[j]))
                       for j in range(N))) for i in range(N)]
        second = [add((F.one, self.d(R[i][j])),
                      *((F.one, wedge(G[i][k], R[k][j])) for k in range(N)),
                      *((-F.one, wedge(R[i][k], G[k][j])) for k in range(N)))
                  for i in range(N) for j in range(N)]
        return first, second

    # -- the torsion classes

    def torsion_form(self):
        """The 3-form with T_abc, a < b < c, the theta^bc coefficient of
        T^a; every T^i_jk must equal its T_ijk."""
        T = {(a + 1, b + 1, c + 1): v for a, b, c in combinations(range(N), 3)
             for v in [coeff(self.torsion[a], (b + 1, c + 1))] if v}
        assert all(coeff(self.torsion[i], (j + 1, k + 1))
                   == coeff(T, (i + 1, j + 1, k + 1)) for i in range(N)
                   for j in range(N) for k in range(N)), "T is not skew"
        assert all(max(legs) <= N for f in self.torsion for legs in f)
        return T

    def torsion_split(self):
        """(t3, t7) as 2-forms: the star of T as a skew matrix W, split
        into its projection sum_I c_I E_I onto the span of the E_I, with
        sum_J <E_I, E_J> c_J = <E_I, W> solved over F, and W minus it."""
        star = {}
        for legs, v in self.torsion_form().items():
            rest = tuple(i for i in range(1, N + 1) if i not in legs)
            _put(star, rest, _parity(legs + rest) * v)
        W = [[coeff(star, (i + 1, j + 1)) for j in range(N)] for i in range(N)]
        E = self.E
        gram = DomainMatrix([[_inner(Es, Et) for Et in E] for Es in E],
                            (3, 3), F)
        rhs = DomainMatrix([[_inner(Et, W)] for Et in E], (3, 1), F)
        t3 = [[F.zero] * N for _ in range(N)]
        for Et, (c,) in zip(E, gram.lu_solve(rhs).to_list()):
            t3 = _plus(t3, Et, c)
        t7 = _plus(W, t3, -F.one)
        assert not _inner(t3, t7)
        return tuple({(i + 1, j + 1): M[i][j]
                      for i, j in combinations(range(N), 2) if M[i][j]}
                     for M in (t3, t7))


def _inner(A, B):
    return sum((A[i][j] * B[i][j] for i in range(N) for j in range(N)), F.zero)


def _plus(A, B, c):
    """A + c B."""
    return [[A[i][j] + c * B[i][j] for j in range(N)] for i in range(N)]


def _bracket(A, B):
    return [[sum((A[i][k] * B[k][j] - B[i][k] * A[k][j] for k in range(N)),
                 F.zero) for j in range(N)] for i in range(N)]
