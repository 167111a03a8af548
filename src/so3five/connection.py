"""Connections on coframe models: Levi-Civita, characteristic, Cartan.

For base models (no fiber legs) the Levi-Civita connection comes from the
cyclic combination of structure constants that solves the first structure
equation, and is then split into a group-valued part plus skew torsion. For bundle models the
declared connection forms are used directly and the torsion is read off
the structure equations. Curvature, Ricci tensors, Bianchi residuals,
the Weyl tensor, and the 3x3 complex Cartan connection all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from weakref import WeakValueDictionary

from .exterior import CoframeModel, Form, ModelError, ext_d, hodge_star, wedge
from .repr import (
    PAIRS,
    TRIPLES,
    ConnTensor,
    CurvTensor,
    Tensor2,
    decompose_curvature,
    split_connection,
    sym4_max_mag,
    torsion_type,
    upsilon_prime,
)
from .scalar import DEFAULT_TOL, Scalar, scalar, sqrt3
from .upsilon import E_matrices

N = 5


class StructureError(ValueError):
    """The model fails a structural requirement; carries the residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class So3Connection:
    """Three connection 1-forms; the matrix form is gamma^I E_I."""

    __slots__ = ("model", "gammas")

    def __init__(self, model: CoframeModel, gammas):
        if len(gammas) != 3:
            raise ValueError("need three connection 1-forms")
        for g in gammas:
            if g.degree != 1:
                raise ValueError("connection entries must be 1-forms")
        self.model = model
        self.gammas = list(gammas)

    @classmethod
    def from_coeffs(cls, model, coeffs):
        """coeffs[I][k] are the theta^k coefficients of gamma^I."""
        gammas = []
        for row in coeffs:
            f = model.zero(1)
            for k in range(N):
                f = f + model.basis(k + 1) * row[k]
            gammas.append(f)
        return cls(model, gammas)

    def matrix_entry(self, i, j) -> Form:
        """The (i, j) entry of gamma^I E_I as a 1-form."""
        E = E_matrices()
        out = self.model.zero(1)
        for t in range(3):
            c = E[t][i][j]
            if not c.is_zero():
                out = out + self.gammas[t] * c
        return out

    @property
    def is_exact(self):
        return all(g.is_exact for g in self.gammas)

    def is_zero(self, tol=DEFAULT_TOL):
        return all(g.is_zero(tol) for g in self.gammas)


# -- Levi-Civita on base models --------------------------------------------


def levi_civita(model: CoframeModel) -> ConnTensor:
    """Metric connection with d theta^i + LC^i_j ^ theta^j = 0.

    With c[i][a][b] the antisymmetric extension of the d theta^i
    coefficients, the unique metric solution is the cyclic combination
    LC_ijk = (c_ijk + c_jki - c_kij) / 2; the structure-equation check
    below guards the sign conventions.
    """
    if model.n_fiber != 0:
        raise ModelError("Levi-Civita solver needs a base model (no fiber legs)")
    d_forms = [model.d_of(i + 1) for i in range(N)]
    zero = Scalar(0)
    c = [[[zero] * N for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for a, b in PAIRS:
            v = d_forms[i].coeff((a + 1, b + 1))
            c[i][a][b] = v
            c[i][b][a] = -v
    half = scalar(Fraction(1, 2))
    xi = ConnTensor.from_pairs({
        (i, j, k): half * (c[i][j][k] + c[j][k][i] - c[k][i][j])
        for i, j in PAIRS for k in range(N)})
    # back-substitute to guard against convention slips
    for i in range(N):
        check = d_forms[i]
        for j in range(N):
            gamma_ij = model.zero(1)
            for k in range(N):
                gamma_ij = gamma_ij + model.basis(k + 1) * xi.x[i][j][k]
            check = check + wedge(gamma_ij, model.basis(j + 1))
        if not check.is_zero():
            raise RuntimeError("first structure equation failed to close")
    return xi


# -- torsion of declared bundle connections --------------------------------


def _bundle_torsion_tensor(model: CoframeModel):
    """Dense T_ijk from the 2-forms d theta^i + Gamma^i_j ^ theta^j of the
    declared connection Gamma, and the residual of its skew symmetry."""
    gamma = So3Connection(model, [model.gamma(t + 1) for t in range(3)])
    x = [[[Scalar(0) for _ in range(N)] for _ in range(N)] for _ in range(N)]
    for i in range(N):
        Ti = model.d_of(i + 1)
        for j in range(N):
            Ti = Ti + wedge(gamma.matrix_entry(i, j), model.basis(j + 1))
        if Ti.has_fiber_legs():
            raise ModelError(
                "declared connection does not absorb the vertical part of "
                "d theta^%d (at /connection)" % (i + 1))
        for j, k in PAIRS:
            v = Ti.coeff((j + 1, k + 1))
            x[i][j][k] = v
            x[i][k][j] = -v
    skew = 0.0
    for i in range(N):
        for j in range(N):
            for k in range(N):
                skew = max(skew, abs(float(x[i][j][k] + x[j][i][k])))
    return x, skew


def nearly_integrable(model: CoframeModel, tol=DEFAULT_TOL):
    """Flag plus residual; exact models give exact verdicts."""
    analysis = Analysis(model, tol)
    kept = analysis.kept("nearly_integrable")
    if kept is not None:
        return kept
    if model.n_fiber == 0:
        xi = analysis.levi_civita
        img = upsilon_prime(xi)
        residual = sym4_max_mag(img)
        if xi.is_exact:
            flag = all(v.is_zero() for v in img.values())
        else:
            flag = residual <= tol * max(1.0, xi.max_mag())
        return analysis.keep("nearly_integrable", (flag, residual))
    if not model.has_connection:
        raise ModelError("bundle model lacks a declared connection "
                         "(at /connection)")
    x, skew = analysis.bundle_torsion
    exact = all(x[i][j][k].is_exact
                for i in range(N) for j in range(N) for k in range(N))
    if exact:
        flag = all((x[i][j][k] + x[j][i][k]).is_zero()
                   for i in range(N) for j in range(N) for k in range(N))
    else:
        scale = max(1.0, max(abs(float(x[i][j][k])) for i in range(N)
                             for j in range(N) for k in range(N)))
        flag = skew <= tol * scale
    return analysis.keep("nearly_integrable", (flag, skew))


def characteristic_connection(model: CoframeModel, tol=DEFAULT_TOL):
    """The group-valued connection and its totally skew torsion 3-form."""
    analysis = Analysis(model, tol)
    kept = analysis.kept("characteristic")
    if kept is not None:
        return kept
    if model.n_fiber == 0:
        xi, parts = analysis.levi_civita, analysis.split
        rem = parts["remainder"]
        residual = rem.max_mag()
        ok = rem.is_zero() if xi.is_exact else \
            residual <= tol * max(1.0, xi.max_mag())
        if not ok:
            raise StructureError(
                "structure is not nearly integrable: the metric connection "
                "does not split into a group part plus skew torsion "
                "(residual %.3e)" % residual, residual=residual)
        gamma = So3Connection.from_coeffs(model, parts["gamma_coeffs"])
        T = model.zero(3)
        for (a, b, c), v in parts["torsion_coeffs"].items():
            T = T + model.basis(a + 1, b + 1, c + 1) * (2 * v)
        return analysis.keep("characteristic", (gamma, T))
    flag, skew = nearly_integrable(model, tol)
    if not flag:
        raise StructureError(
            "declared connection has non-skew torsion (residual %.3e)" % skew,
            residual=skew)
    gamma = So3Connection(model, [model.gamma(t + 1) for t in range(3)])
    x, _ = analysis.bundle_torsion
    T = model.zero(3)
    for a, b, c in TRIPLES:
        T = T + model.basis(a + 1, b + 1, c + 1) * x[a][b][c]
    return analysis.keep("characteristic", (gamma, T))


# -- curvature --------------------------------------------------------------


def curvature(model: CoframeModel, gamma: So3Connection):
    """Curvature 2-forms r^I = d gamma^I + eps^I_JK gamma^J ^ gamma^K / 2."""
    g1, g2, g3 = gamma.gammas
    r = [
        ext_d(g1) + wedge(g2, g3),
        ext_d(g2) + wedge(g3, g1),
        ext_d(g3) + wedge(g1, g2),
    ]
    for t, form in enumerate(r):
        if form.has_fiber_legs():
            raise ModelError(
                "curvature form %d is not horizontal" % (t + 1))
    K = CurvTensor.from_forms(r)
    return r, K


def bianchi_check(model: CoframeModel, gamma: So3Connection, T: Form, r_forms):
    """Residuals of the two differential consistency identities."""
    E = E_matrices()
    conn = [[gamma.matrix_entry(i, j) for j in range(N)] for i in range(N)]
    curv = [[sum((r_forms[t] * E[t][i][j] for t in range(3)
                  if not E[t][i][j].is_zero()), model.zero(2))
             for j in range(N)] for i in range(N)]
    dense = _three_form_dense(T)
    tors = [_torsion_two_form(model, dense, i) for i in range(N)]
    first = 0.0
    for i in range(N):
        res = ext_d(tors[i])
        for j in range(N):
            res = res + wedge(conn[i][j], tors[j])
        for j in range(N):
            res = res - wedge(curv[i][j], model.basis(j + 1))
        first = max(first, res.max_coeff_mag())
    second = 0.0
    for i in range(N):
        for j in range(N):
            DK = ext_d(curv[i][j])
            for k in range(N):
                DK = DK + wedge(conn[i][k], curv[k][j])
                DK = DK - wedge(curv[i][k], conn[k][j])
            second = max(second, DK.max_coeff_mag())
    return {"first": first, "second": second}


def _three_form_dense(T: Form):
    x = [[[Scalar(0) for _ in range(N)] for _ in range(N)] for _ in range(N)]
    for idx, v in T.terms.items():
        a, b, c = (t - 1 for t in idx)
        base = (a, b, c)
        for p in permutations(base):
            sign = _perm_parity(p, base)
            x[p[0]][p[1]][p[2]] = v * sign
    return x


def _perm_parity(p, base):
    order = [base.index(t) for t in p]
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return sign


def _torsion_two_form(model, dense, i):
    out = model.zero(2)
    for j, k in PAIRS:
        out = out + model.basis(j + 1, k + 1) * dense[i][j][k]
    return out


# -- Ricci tensors ----------------------------------------------------------


def _lc_riemann(model: CoframeModel, xi: ConnTensor = None):
    """Riemann tensor of the Levi-Civita connection xi (computed when not
    given) on a base model."""
    if xi is None:
        xi = levi_civita(model)
    gamma_forms = [[None] * N for _ in range(N)]
    for i in range(N):
        for j in range(N):
            f = model.zero(1)
            for k in range(N):
                f = f + model.basis(k + 1) * xi.x[i][j][k]
            gamma_forms[i][j] = f
    R = [[None] * N for _ in range(N)]
    for i in range(N):
        for j in range(N):
            f = ext_d(gamma_forms[i][j])
            for k in range(N):
                f = f + wedge(gamma_forms[i][k], gamma_forms[k][j])
            R[i][j] = f
    x = [[[[Scalar(0) for _ in range(N)] for _ in range(N)]
          for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for j in range(N):
            for k, l in PAIRS:
                v = R[i][j].coeff((k + 1, l + 1))
                x[i][j][k][l] = v
                x[i][j][l][k] = -v
    return CurvTensor(x)


def ricci(model: CoframeModel, tol=DEFAULT_TOL):
    """Both Ricci tensors, the relation residual, and torsion differentials."""
    analysis = Analysis(model, tol)
    kept = analysis.kept("ricci")
    if kept is not None:
        return kept
    gamma, T = characteristic_connection(model, tol)
    r_forms, K = analysis.curvature
    ric_gamma = K.ricci()
    dense = _three_form_dense(T)
    quarter = scalar(Fraction(1, 4))
    t_sq = Tensor2([[sum((dense[i][k][l] * dense[j][k][l]
                          for k in range(N) for l in range(N)), Scalar(0))
                     for j in range(N)] for i in range(N)])
    dT = ext_d(T)
    if T.is_zero():
        star_T = model.zero(2)
        d_star_T = model.zero(3)
    else:
        star_T = hodge_star(T)
        d_star_T = ext_d(star_T)
    if d_star_T.has_fiber_legs():
        raise ModelError("the torsion dual is not basic: d*T has vertical legs")
    if d_star_T.is_zero():
        sds = Tensor2.zero()
    else:
        sds = Tensor2.from_form(hodge_star(d_star_T))
    half = scalar(Fraction(1, 2))
    correction = t_sq.scale(quarter) + sds.scale(half)
    if model.n_fiber == 0:
        ric_lc = analysis.lc_riemann.ricci()
        rel = (ric_lc - ric_gamma - correction).max_mag()
    else:
        ric_lc = ric_gamma + correction
        rel = 0.0
    sym_flag = (ric_gamma - ric_gamma.transpose()).is_zero(tol)
    codiff_zero = sds.is_zero(tol)
    return analysis.keep("ricci", {
        "ric_lc": ric_lc,
        "ric_gamma": ric_gamma,
        "relation_residual": rel,
        "torsion_sq": t_sq,
        "dT": dT,
        "star_d_star_T": sds,
        "codifferential_zero": codiff_zero,
        "ric_gamma_symmetric": sym_flag,
        "torsion": T,
        "gamma": gamma,
        "r_forms": r_forms,
        "K": K,
    })


# -- Weyl tensor ------------------------------------------------------------


def weyl(model: CoframeModel, tol=DEFAULT_TOL):
    """Standard five-dimensional conformal decomposition of the Riemann tensor."""
    analysis = Analysis(model, tol)
    if model.n_fiber == 0:
        riem = analysis.lc_riemann
    else:
        _gamma, T = characteristic_connection(model, tol)
        if not T.is_zero(tol):
            raise ModelError(
                "Weyl tensor from bundle data needs vanishing torsion")
        _, riem = analysis.curvature
    ric = riem.ricci()
    s = ric.trace()
    third = scalar(Fraction(1, 3))
    eighth = scalar(Fraction(1, 8))
    P = (ric - Tensor2.metric().scale(s * eighth)).scale(third)
    x = [[[[Scalar(0) for _ in range(N)] for _ in range(N)]
          for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for j in range(N):
            for k in range(N):
                for l in range(N):
                    kn = Scalar(0)
                    if i == k:
                        kn = kn + P.m[j][l]
                    if j == l:
                        kn = kn + P.m[i][k]
                    if i == l:
                        kn = kn - P.m[j][k]
                    if j == k:
                        kn = kn - P.m[i][l]
                    x[i][j][k][l] = riem.x[i][j][k][l] - kn
    W = CurvTensor(x)
    return {
        "weyl": W,
        "riemann": riem,
        "ricci": ric,
        "scalar_curvature": s,
        "schouten": P,
        "conformally_flat": W.is_zero(tol),
        "flat": riem.is_zero(tol),
    }


# -- the complex 3x3 Cartan connection --------------------------------------


class CForm:
    """A complex-valued form: a pair of real forms."""

    __slots__ = ("re", "im")

    def __init__(self, re: Form, im: Form):
        self.re = re
        self.im = im

    def __add__(self, other):
        return CForm(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return CForm(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return CForm(-self.re, -self.im)

    def d(self):
        return CForm(ext_d(self.re), ext_d(self.im))

    def wedge(self, other):
        return CForm(wedge(self.re, other.re) - wedge(self.im, other.im),
                     wedge(self.re, other.im) + wedge(self.im, other.re))

    def is_zero(self, tol=DEFAULT_TOL):
        return self.re.is_zero(tol) and self.im.is_zero(tol)

    def max_mag(self):
        return max(self.re.max_coeff_mag(), self.im.max_coeff_mag())


def cartan_su3(model: CoframeModel, gamma: So3Connection, tol=DEFAULT_TOL):
    """Assemble the complex Cartan connection and its curvature.

    The matrix pairs the three real connection forms with the coframe
    embedded through the symmetric trace-free pattern; the curvature
    splits into a real part (curvature shifted by the invariant 2-forms)
    and an imaginary part (the lifted torsion).
    """
    th = [model.basis(k + 1) for k in range(N)]
    g1, g2, g3 = gamma.gammas
    z1 = model.zero(1)
    inv_sqrt3 = sqrt3() * scalar(Fraction(1, 3))
    d1 = th[0] * inv_sqrt3
    G = [
        [CForm(z1, d1 - th[3]), CForm(g3, th[1]), CForm(g2, th[2])],
        [CForm(-g3, th[1]), CForm(z1, d1 + th[3]), CForm(g1, th[4])],
        [CForm(-g2, th[2]), CForm(-g1, th[4]), CForm(z1, -(d1 + d1))],
    ]
    omega = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            acc = G[a][b].d()
            for c in range(3):
                acc = acc + G[a][c].wedge(G[c][b])
            omega[a][b] = acc
    # real part must fit the antisymmetric pattern, imaginary the symmetric one
    pattern = 0.0
    for a in range(3):
        pattern = max(pattern, omega[a][a].re.max_coeff_mag())
        for b in range(a + 1, 3):
            pattern = max(pattern, (omega[a][b].re + omega[b][a].re).max_coeff_mag())
            pattern = max(pattern, (omega[a][b].im - omega[b][a].im).max_coeff_mag())
    trace_im = omega[0][0].im + omega[1][1].im + omega[2][2].im
    pattern = max(pattern, trace_im.max_coeff_mag())
    r_shift = [omega[1][2].re, omega[0][2].re, omega[0][1].re]
    half = scalar(Fraction(1, 2))
    t1 = (omega[0][0].im + omega[1][1].im) * (sqrt3() * half)
    t4 = (omega[1][1].im - omega[0][0].im) * half
    torsion_forms = [t1, omega[0][1].im, omega[0][2].im, t4, omega[1][2].im]
    bianchi = 0.0
    for a in range(3):
        for b in range(3):
            acc = omega[a][b].d()
            for c in range(3):
                acc = acc + G[a][c].wedge(omega[c][b])
                acc = acc - omega[a][c].wedge(G[c][b])
            bianchi = max(bianchi, acc.max_mag())
    omega_zero = all(omega[a][b].is_zero(tol) for a in range(3) for b in range(3))
    return {
        "gamma_cartan": G,
        "omega": omega,
        "r_shift_forms": r_shift,
        "torsion_forms": torsion_forms,
        "pattern_residual": pattern,
        "bianchi_residual": bianchi,
        "omega_zero": omega_zero,
    }


# -- aggregate report -------------------------------------------------------


@dataclass
class GeometryReport:
    """Everything the classifier computes for one model."""

    model_name: str
    tolerance: float
    nearly_integrable: bool
    ni_residual: float
    torsion: Form = None
    torsion_t3: Form = None
    torsion_t7: Form = None
    r_forms: list = None
    curvature_components: dict = None
    ric_lc: Tensor2 = None
    ric_gamma: Tensor2 = None
    ricci_relation_residual: float = None
    bianchi_residuals: dict = None
    dT: Form = None
    star_d_star_T: Tensor2 = None
    codifferential_zero: bool = None
    ric_gamma_symmetric: bool = None
    failure: str = None


def build_report(model: CoframeModel, tol=DEFAULT_TOL) -> GeometryReport:
    analysis = Analysis(model, tol)
    kept = analysis.kept("report")
    if kept is not None:
        return kept
    flag, ni_res = nearly_integrable(model, tol)
    if not flag:
        return analysis.keep("report", GeometryReport(
            model_name=model.name, tolerance=tol, nearly_integrable=False,
            ni_residual=ni_res, failure="not nearly integrable"))
    data = ricci(model, tol)
    tt = torsion_type(data["torsion"]) if not data["torsion"].is_zero() else None
    comps = decompose_curvature(data["K"], tol)
    bianchi = bianchi_check(model, data["gamma"], data["torsion"], data["r_forms"])
    return analysis.keep("report", GeometryReport(
        model_name=model.name,
        tolerance=tol,
        nearly_integrable=True,
        ni_residual=ni_res,
        torsion=data["torsion"],
        torsion_t3=tt["t3"] if tt else None,
        torsion_t7=tt["t7"] if tt else None,
        r_forms=data["r_forms"],
        curvature_components=comps,
        ric_lc=data["ric_lc"],
        ric_gamma=data["ric_gamma"],
        ricci_relation_residual=data["relation_residual"],
        bianchi_residuals=bianchi,
        dT=data["dT"],
        star_d_star_T=data["star_d_star_T"],
        codifferential_zero=data["codifferential_zero"],
        ric_gamma_symmetric=data["ric_gamma_symmetric"],
    ))


# -- one analysis per model and tolerance -----------------------------------


class _Stages(dict):
    """Stage results by name; unlike a plain dict it can be weakly held."""


class Analysis:
    """The derived geometry of one model at one tolerance.

    The functions here and in spin and twistor that take (model, tol) keep
    their results in Analysis(model, tol), and while anyone holds that
    analysis, Analysis(model, tol) returns the same object: a caller that
    holds one makes each of those functions compute once for the model and
    tolerance.  The stages that never read the tolerance (the Levi-Civita
    connection, its split and Riemann tensor, the torsion of a declared
    connection) are shared by all the live analyses of the model.  Functions
    given an explicit connection keep nothing.
    """

    __slots__ = ("model", "tol", "_shared", "_own", "__weakref__")

    def __new__(cls, model: CoframeModel, tol=DEFAULT_TOL):
        # the model holds its analyses and their shared stages weakly: a
        # model is freed only by the cyclic garbage collector (its cached
        # d-forms refer back to it), so stages it held strongly would stay
        # in memory until the next full collection
        live = model.__dict__.setdefault("_analysis", WeakValueDictionary())
        self = live.get(tol)
        if self is None:
            self = super().__new__(cls)
            self.model, self.tol, self._own = model, tol, {}
            self._shared = live.get(None)
            if self._shared is None:
                self._shared = live[None] = _Stages()
            live[tol] = self
        return self

    def kept(self, stage):
        """The result kept for `stage` at this tolerance, or None."""
        return self._own.get(stage)

    def keep(self, stage, value):
        """Keep `value` as the result of `stage` at this tolerance."""
        self._own[stage] = value
        return value

    def _shared_stage(self, stage, build, *args):
        value = self._shared.get(stage)
        if value is None:
            value = self._shared[stage] = build(*args)
        return value

    @property
    def levi_civita(self):
        """The Levi-Civita connection of a base model."""
        return self._shared_stage("levi_civita", levi_civita, self.model)

    @property
    def split(self):
        """The Levi-Civita connection split into a group-valued part, skew
        torsion and a remainder."""
        return self._shared_stage("split", split_connection, self.levi_civita)

    @property
    def lc_riemann(self):
        """The Riemann tensor of the Levi-Civita connection."""
        return self._shared_stage("lc_riemann", _lc_riemann, self.model,
                                  self.levi_civita)

    @property
    def bundle_torsion(self):
        """(T_ijk, skew residual) of a bundle model's declared connection."""
        return self._shared_stage("bundle_torsion", _bundle_torsion_tensor,
                                  self.model)

    @property
    def curvature(self):
        """(r_forms, K) of the characteristic connection."""
        kept = self.kept("curvature")
        if kept is not None:
            return kept
        gamma, _T = characteristic_connection(self.model, self.tol)
        return self.keep("curvature", curvature(self.model, gamma))
