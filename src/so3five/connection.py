"""Connections on coframe models: Levi-Civita, characteristic, Cartan.

For base models (no fiber legs) the Levi-Civita connection comes from the
cyclic combination of structure constants that solves the first structure
equation, and is then split into a group-valued part plus skew torsion. For bundle models the
declared connection forms are used directly and the torsion is read off
the structure equations. Curvature, Ricci tensors, Bianchi residuals,
the Weyl tensor, and the 3x3 complex Cartan connection all live here.
"""

from __future__ import annotations

import functools
import inspect
from fractions import Fraction

from .exterior import CoframeModel, Form, ModelError, ext_d, hodge_star, wedge
from .repr import (
    HALF,
    PAIRS,
    TRIPLES,
    ConnTensor,
    CurvTensor,
    Tensor2,
    _e_support,
    decompose_curvature,
    form_array,
    split_connection,
    sym4_max_mag,
    torsion_type,
    upsilon_prime,
)
from .scalar import DEFAULT_TOL, ZERO, CScalar, Scalar, cscalar, scalar, sqrt3

N = 5
QUARTER = Scalar(Fraction(1, 4))
ONE = Scalar(1)


class StructureError(ValueError):
    """The model fails a structural requirement; carries the residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _one_form(model: CoframeModel, coeffs) -> Form:
    """The 1-form sum_k coeffs[k] theta^(k+1), each value coerced and
    dropped at zero as the checked constructor does."""
    terms = {}
    for k, c in enumerate(coeffs):
        c = scalar(c)
        if not c.is_zero():
            terms[(k + 1,)] = c
    return Form._normal(model.frame, 1, terms)


def _basis(model: CoframeModel, i: int) -> Form:
    """The 1-form theta^i."""
    return Form._normal(model.frame, 1, {(i,): ONE})


class So3Connection:
    """Three connection 1-forms; the matrix form is gamma^I E_I."""

    __slots__ = ("model", "gammas")

    def __init__(self, model: CoframeModel, gammas):
        if len(gammas) != 3:
            raise ValueError("need three connection 1-forms")
        for g in gammas:
            if g.degree != 1:
                raise ValueError("connection entries must be 1-forms")
        self.model = model.frame
        self.gammas = list(gammas)

    @classmethod
    def from_coeffs(cls, model, coeffs):
        """coeffs[I][k] are the theta^k coefficients of gamma^I."""
        return cls(model, [_one_form(model, row) for row in coeffs])


# -- stages computed once per model and tolerance ---------------------------


def _once(store, key, build, *args):
    """store[key], computed as build(*args) on first read."""
    if key not in store:
        store[key] = build(*args)
    return store[key]


def stage(fn):
    """Keep fn(model, ..., tol) in model.stages[tol].

    The first call computes the value; later calls return it while the
    model lives.  It is keyed by fn's name and its arguments other than
    model and tol.
    """
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def kept_in_analysis(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        given = dict(call.arguments)
        model, tol = given.pop("model"), given.pop("tol")
        return _once(Analysis(model, tol).stages,
                     (fn.__name__, *given.values()), fn, *call.args)

    return kept_in_analysis


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
    c = [form_array(d) for d in d_forms]
    xi = ConnTensor.from_pairs({
        (i, j, k): HALF * (c[i][j][k] + c[j][k][i] - c[k][i][j])
        for i, j in PAIRS for k in range(N)})
    # back-substitute to guard against convention slips
    for i in range(N):
        check = d_forms[i]
        for j in range(N):
            check = check + wedge(_one_form(model, xi.x[i][j]),
                                  _basis(model, j + 1))
        if not check.is_zero():
            raise RuntimeError("first structure equation failed to close")
    return xi


# -- torsion of declared bundle connections --------------------------------


def _bundle_torsion_tensor(model: CoframeModel):
    """Dense T_ijk from the 2-forms d theta^i + Gamma^i_j ^ theta^j of the
    declared connection Gamma."""
    support, gammas = _e_support(), [model.gamma(t + 1) for t in range(3)]
    x = []
    for i in range(N):
        Ti = model.d_of(i + 1)
        for j in range(N):
            for t, e in support[i][j]:
                Ti = Ti + wedge(gammas[t] * e, _basis(model, j + 1))
        if Ti.has_fiber_legs():
            raise ModelError(
                "declared connection does not absorb the vertical part of "
                "d theta^%d (at /connection)" % (i + 1))
        x.append(form_array(Ti))
    return x


@stage
def nearly_integrable(model: CoframeModel, tol=DEFAULT_TOL):
    """Flag plus residual; exact models give exact verdicts.  The prime
    operator must kill a base model's Levi-Civita connection, and a bundle
    model's declared connection must have torsion skew in (ij)."""
    analysis = Analysis(model, tol)
    if model.n_fiber == 0:
        xi = analysis.levi_civita
        img = upsilon_prime(xi)
        residual = sym4_max_mag(img)
        if xi.is_exact:
            flag = all(v.is_zero() for v in img.values())
        else:
            flag = residual <= tol * max(1.0, xi.max_mag())
        return flag, residual
    if not model.has_connection:
        raise ModelError("bundle model lacks a declared connection "
                         "(at /connection)")
    x = analysis.bundle_torsion
    # each sum x_ijk + x_jik once; together they read every entry
    sums = [x[i][j][k] + x[j][i][k]
            for i in range(N) for j in range(i, N) for k in range(N)]
    skew = max(abs(float(v)) for v in sums)
    if all(v.is_exact for v in sums):
        return all(v.is_zero() for v in sums), skew
    scale = max(1.0, max(abs(float(v)) for plane in x for row in plane
                         for v in row))
    return skew <= tol * scale, skew


@stage
def characteristic_connection(model: CoframeModel, tol=DEFAULT_TOL):
    """The group-valued connection and its totally skew torsion 3-form;
    StructureError, with nearly_integrable's residual, when there is none."""
    flag, residual = nearly_integrable(model, tol)
    if not flag:
        raise StructureError(
            "structure is not nearly integrable (residual %.3e)" % residual,
            residual=residual)
    analysis = Analysis(model, tol)
    if model.n_fiber == 0:
        gamma_coeffs, torsion_coeffs = split_connection(analysis.levi_civita)
        return (So3Connection.from_coeffs(model, gamma_coeffs),
                model.form(3, [((a + 1, b + 1, c + 1), 2 * v) for
                               (a, b, c), v in torsion_coeffs.items()]))
    gamma = So3Connection(model, [model.gamma(t + 1) for t in range(3)])
    x = analysis.bundle_torsion
    return gamma, model.form(3, [((a + 1, b + 1, c + 1), x[a][b][c])
                                 for a, b, c in TRIPLES])


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
    """Residuals of the two Bianchi identities: the first,
    d T^i + Gamma^i_j ^ T^j = R^i_j ^ theta^j with Gamma = gamma^I E_I and
    R = r^I E_I, over the nonzero (E_I)_ij; the second in the adjoint
    representation, d r^I + eps^I_JK gamma^J ^ r^K = 0."""
    support = _e_support()
    g = gamma.gammas
    dense = form_array(T)
    tors = [model.form(2, [((j + 1, k + 1), dense[i][j][k]) for j, k in PAIRS])
            for i in range(N)]
    first = 0.0
    for i in range(N):
        res = ext_d(tors[i])
        for j in range(N):
            for t, e in support[i][j]:
                res = res + wedge(g[t] * e, tors[j])
        for j in range(N):
            for t, e in support[i][j]:
                res = res - wedge(r_forms[t] * e, _basis(model, j + 1))
        first = max(first, res.max_coeff_mag())
    second = max((ext_d(r_forms[a]) + wedge(g[b], r_forms[c])
                  - wedge(g[c], r_forms[b])).max_coeff_mag()
                 for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    return {"first": first, "second": second}


# -- Ricci tensors ----------------------------------------------------------


def _lc_riemann(model: CoframeModel, xi: ConnTensor) -> CurvTensor:
    """Riemann tensor of the Levi-Civita connection xi on a base model: its
    curvature 2-forms d xi_ij + xi_ik ^ xi_kj, i < j."""
    gamma_forms = [[_one_form(model, xi.x[i][j]) for j in range(N)]
                   for i in range(N)]
    forms = []
    for i, j in PAIRS:
        f = ext_d(gamma_forms[i][j])
        for k in range(N):
            f = f + wedge(gamma_forms[i][k], gamma_forms[k][j])
        forms.append(f)
    return CurvTensor.from_pair_forms(forms)


def _torsion_square(T: Form) -> Tensor2:
    """t_ij = sum_kl T_ikl T_jkl over the (k, l) that rows i and j share.  On
    exact T a row holds its nonzero T_ikl, read off the terms of T; on float
    T all 25, so each sum keeps the dense order and its float zeros."""
    if T.is_exact:
        rows = [{} for _ in range(N)]
        for (a, b, c), v in T.terms.items():
            for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
                rows[i - 1][j, k], rows[i - 1][k, j] = v, -v
    else:
        rows = [{(k, l): v for k, row in enumerate(plane)
                 for l, v in enumerate(row)} for plane in form_array(T)]
    return Tensor2._of([[sum((v * rj[key] for key, v in ri.items()
                              if key in rj), ZERO) for rj in rows]
                        for ri in rows])


@stage
def ricci(model: CoframeModel, tol=DEFAULT_TOL):
    """Both Ricci tensors, the relation residual, and torsion differentials."""
    analysis = Analysis(model, tol)
    gamma, T = characteristic_connection(model, tol)
    r_forms, K = analysis.curvature
    ric_gamma = K.ricci()
    t_sq = _torsion_square(T)
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
    correction = t_sq.scale(QUARTER) + sds.scale(HALF)
    if model.n_fiber == 0:
        ric_lc = analysis.lc_riemann.ricci()
        rel = (ric_lc - ric_gamma - correction).max_mag()
    else:
        ric_lc = ric_gamma + correction
        rel = 0.0
    sym_flag = (ric_gamma - ric_gamma.transpose()).is_zero(tol)
    codiff_zero = sds.is_zero(tol)
    return {
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
    }


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
    g = Tensor2.metric().m
    # W = Riem - P (Kulkarni-Nomizu) g, one 2-form per pair i < j
    W = CurvTensor.from_pair_forms([model.form(2, [
        ((k + 1, l + 1), riem.x[i][j][k][l]
         - (g[i][k] * P.m[j][l] + g[j][l] * P.m[i][k]
            - g[i][l] * P.m[j][k] - g[j][k] * P.m[i][l])) for k, l in PAIRS])
        for i, j in PAIRS])
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


class CForm(Form):
    """An exterior form with complex coefficients on a base model."""

    __slots__ = ()

    ring = staticmethod(cscalar)

    @classmethod
    def of(cls, re: Form, im: Form) -> "CForm":
        """The form re + i im of two real forms of one degree."""
        return cls(re.model, re.degree,
                   {k: CScalar(re.coeff(k), im.coeff(k))
                    for k in {**re.terms, **im.terms}})

    @property
    def re(self) -> Form:
        return Form(self.model, self.degree,
                    {k: v.re for k, v in self.terms.items()})

    @property
    def im(self) -> Form:
        return Form(self.model, self.degree,
                    {k: v.im for k, v in self.terms.items()})


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
    G = [[CForm.of(re, im) for re, im in row] for row in (
        [(z1, d1 - th[3]), (g3, th[1]), (g2, th[2])],
        [(-g3, th[1]), (z1, d1 + th[3]), (g1, th[4])],
        [(-g2, th[2]), (-g1, th[4]), (z1, -(d1 + d1))],
    )]
    omega = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            acc = ext_d(G[a][b])
            for c in range(3):
                acc = acc + wedge(G[a][c], G[c][b])
            omega[a][b] = acc
    re = [[omega[a][b].re for b in range(3)] for a in range(3)]
    im = [[omega[a][b].im for b in range(3)] for a in range(3)]
    # real part must fit the antisymmetric pattern, imaginary the symmetric one
    pattern = 0.0
    for a in range(3):
        pattern = max(pattern, re[a][a].max_coeff_mag())
        for b in range(a + 1, 3):
            pattern = max(pattern, (re[a][b] + re[b][a]).max_coeff_mag())
            pattern = max(pattern, (im[a][b] - im[b][a]).max_coeff_mag())
    trace_im = im[0][0] + im[1][1] + im[2][2]
    pattern = max(pattern, trace_im.max_coeff_mag())
    r_shift = [re[1][2], re[0][2], re[0][1]]
    half = scalar(Fraction(1, 2))
    t1 = (im[0][0] + im[1][1]) * (sqrt3() * half)
    t4 = (im[1][1] - im[0][0]) * half
    torsion_forms = [t1, im[0][1], im[0][2], t4, im[1][2]]
    bianchi = 0.0
    for a in range(3):
        for b in range(3):
            acc = ext_d(omega[a][b])
            for c in range(3):
                acc = acc + wedge(G[a][c], omega[c][b])
                acc = acc - wedge(omega[a][c], G[c][b])
            bianchi = max(bianchi, acc.re.max_coeff_mag(),
                          acc.im.max_coeff_mag())
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


# -- the analysis of one model at one tolerance -----------------------------


class _Stage:
    """An Analysis attribute: build(analysis), computed on first read and
    kept in the analysis's stages."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, analysis, owner=None):
        if analysis is None:
            return self
        return _once(analysis.stages, self.name, self.build, analysis)


class _Field(_Stage):
    """A report field: None when the model is not nearly integrable."""

    def __init__(self, build):
        super().__init__(lambda a: build(a) if a.nearly_integrable else None)


def _torsion_class(a):
    """"zero", "t3", "t7" or "mixed": which torsion parts are nonzero at the
    analysis tolerance."""
    if a.torsion.is_zero(a.tolerance):
        return "zero"
    t3, t7 = (not f.is_zero(a.tolerance) for f in (a.torsion_t3, a.torsion_t7))
    return "t3" if t3 and not t7 else "t7" if t7 and not t3 else "mixed"


def _from_ricci(key):
    return _Field(lambda a: ricci(a.model, a.tolerance)[key])


class Analysis:
    """The derived geometry of one model at one tolerance: its report.

    Analysis(model, tol) views model.stages[tol], which the @stage functions
    of this module, spin and twistor fill too.  Each attribute past model
    and tolerance is computed on first read, so a command computes only
    what it prints.  A view points at the model, which never stores one.
    """

    __slots__ = ("model", "tolerance", "stages")

    def __init__(self, model: CoframeModel, tol):
        self.model, self.tolerance = model, tol
        self.stages = model.stages.setdefault(tol, {})

    # a name called in a lambda is the module function, not the attribute
    levi_civita = _Stage(lambda a: levi_civita(a.model))
    lc_riemann = _Stage(lambda a: _lc_riemann(a.model, a.levi_civita))
    # T_ijk of a bundle model's declared connection
    bundle_torsion = _Stage(lambda a: _bundle_torsion_tensor(a.model))
    # (r_forms, K) of the characteristic connection
    curvature = _Stage(lambda a: curvature(
        a.model, characteristic_connection(a.model, a.tolerance)[0]))

    # -- the report
    nearly_integrable = _Stage(
        lambda a: nearly_integrable(a.model, a.tolerance)[0])
    ni_residual = _Stage(lambda a: nearly_integrable(a.model, a.tolerance)[1])
    failure = _Stage(
        lambda a: None if a.nearly_integrable else "not nearly integrable")
    torsion = _Field(lambda a: characteristic_connection(a.model,
                                                         a.tolerance)[1])
    _torsion_classes = _Field(lambda a: torsion_type(a.torsion)
                              if not a.torsion.is_zero()
                              else {"t3": None, "t7": None})
    torsion_t3 = _Field(lambda a: a._torsion_classes["t3"])
    torsion_t7 = _Field(lambda a: a._torsion_classes["t7"])
    torsion_class = _Field(_torsion_class)
    r_forms = _Field(lambda a: a.curvature[0])
    curvature_components = _Field(
        lambda a: decompose_curvature(a.curvature[1], a.tolerance))
    bianchi_residuals = _Field(lambda a: bianchi_check(
        a.model, *characteristic_connection(a.model, a.tolerance), a.r_forms))
    ric_lc = _from_ricci("ric_lc")
    ric_gamma = _from_ricci("ric_gamma")
    ricci_relation_residual = _from_ricci("relation_residual")
    dT = _from_ricci("dT")
    star_d_star_T = _from_ricci("star_d_star_T")
    codifferential_zero = _from_ricci("codifferential_zero")
    ric_gamma_symmetric = _from_ricci("ric_gamma_symmetric")


def build_report(model: CoframeModel, tol=DEFAULT_TOL) -> Analysis:
    """The report of a model at a tolerance: Analysis(model, tol), whose
    fields are computed on first read."""
    return Analysis(model, tol)
