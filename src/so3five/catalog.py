"""Constructors for the homogeneous example families.

Every builder returns a CoframeModel whose structure constants come from
the displayed differential systems; the expected geometric properties
(torsion type, curvature components, Ricci tensors) are provided as
separate oracles so the connection machinery is never short-circuited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exterior import CoframeModel, ModelError
from .repr import Tensor2, kappa_forms
from .scalar import DEFAULT_TOL, Scalar, scalar, sqrt3

N = 5
S3 = sqrt3()
HALF = scalar(Fraction(1, 2))


def _metric_scale(c):
    return Tensor2.metric().scale(scalar(c))


def e3_squared():
    """The diagonal matrix square of the third infinitesimal generator."""
    return Tensor2([[0, 0, 0, 0, 0], [0, -4, 0, 0, 0], [0, 0, -1, 0, 0],
                    [0, 0, 0, -4, 0], [0, 0, 0, 0, -1]])


def e3_fourth():
    return Tensor2([[0, 0, 0, 0, 0], [0, 16, 0, 0, 0], [0, 0, 1, 0, 0],
                    [0, 0, 0, 16, 0], [0, 0, 0, 0, 1]])


_SNAP_TOL = 1e-12
_SNAP_GRID = (
    Scalar(0), Scalar(1), Scalar(-1),
    scalar(Fraction(1, 2)), scalar(Fraction(-1, 2)),
    S3 * scalar(Fraction(1, 2)), S3 * scalar(Fraction(-1, 2)),
)


def _trig(phi):
    """cos and sin of phi, snapped to exact values at standard angles."""
    phi = float(phi)
    out = []
    for x in (math.cos(phi), math.sin(phi)):
        for cand in _SNAP_GRID:
            if abs(x - float(cand)) < _SNAP_TOL:
                out.append(cand)
                break
        else:
            out.append(scalar(x))
    return out[0], out[1]


# -- builders ---------------------------------------------------------------


def torsion_free_model(r115) -> CoframeModel:
    """Total space of the torsion-free family; three vertical legs."""
    r = scalar(r115)
    return CoframeModel(
        "torsion-free(%s)" % r, n_fiber=3,
        d={
            1: [(S3, 5, 6), (S3, 3, 7)],
            2: [(1, 3, 6), (1, 5, 7), (2, 4, 8)],
            3: [(-1, 2, 6), (-S3, 1, 7), (1, 4, 7), (1, 5, 8)],
            4: [(1, 5, 6), (-1, 3, 7), (-2, 2, 8)],
            5: [(-S3, 1, 6), (-1, 4, 6), (-1, 2, 7), (-1, 3, 8)],
            6: [(-1, 7, 8), (r * S3, 1, 5), (r, 2, 3), (r, 4, 5)],
            7: [(1, 6, 8), (r * S3, 1, 3), (r, 2, 5), (r, 3, 4)],
            8: [(-1, 6, 7), (r * scalar(2), 2, 4), (r, 3, 5)],
        },
        connection={1: [(1, 6)], 2: [(1, 7)], 3: [(1, 8)]})


def six_dim_model(case, **params) -> CoframeModel:
    """Models with 6-dimensional symmetry; one vertical leg.

    case 1 takes a; cases 2 and 3 take t1, t2.  Case 3 excludes the line
    t1 = 2 t2, which belongs to case 2.
    """
    if case == 1:
        a = scalar(params.pop("a", 0))
        _no_extra(params)
        aa = a * a
        return CoframeModel(
            "six-dim-1(%s)" % a, n_fiber=1,
            d={
                2: [(2, 4, 6)],
                3: [(-S3 * a, 1, 3), (-a, 2, 5), (-a, 3, 4), (1, 5, 6)],
                4: [(-2, 2, 6)],
                5: [(-S3 * a, 1, 5), (-a, 2, 3), (-a, 4, 5), (-1, 3, 6)],
                6: [(-2 * aa, 2, 4)],
            },
            connection={1: [(a, 5)], 2: [(a, 3)], 3: [(1, 6)]})
    if case == 2:
        t1 = scalar(params.pop("t1", 0))
        t2 = scalar(params.pop("t2", 0))
        _no_extra(params)
        htt = t1 * t2 * HALF
        return CoframeModel(
            "six-dim-2(%s,%s)" % (t1, t2), n_fiber=1,
            d={
                1: [(t1, 2, 4), (t2, 3, 5)],
                2: [(-t1, 1, 4), (2, 4, 6)],
                3: [(-t2, 1, 5), (1, 5, 6)],
                4: [(t1, 1, 2), (-2, 2, 6)],
                5: [(t2, 1, 3), (-1, 3, 6)],
                6: [(-htt, 3, 5), (-htt - htt, 2, 4)],
            },
            connection={3: [(1, 6)]})
    if case == 3:
        t1 = scalar(params.pop("t1", 0))
        t2 = scalar(params.pop("t2", 0))
        _no_extra(params)
        if (t1 - 2 * t2).is_zero():
            raise ModelError(
                "case 3 excludes the line t1 = 2 t2; that family is case 2")
        b = (t1 - 2 * t2) * S3 * scalar(Fraction(1, 6))
        third = scalar(Fraction(2, 3))
        return CoframeModel(
            "six-dim-3(%s,%s)" % (t1, t2), n_fiber=1,
            d={
                1: [(t1, 2, 4), (t1 - t2, 3, 5)],
                2: [(-t1, 1, 4), (2, 4, 6)],
                3: [(-t1 * HALF, 1, 5), (1, 5, 6), (b, 2, 3), (b, 4, 5)],
                4: [(t1, 1, 2), (-2, 2, 6)],
                5: [(t1 * HALF, 1, 3), (-1, 3, 6), (-b, 2, 5), (-b, 3, 4)],
                6: [(-third * (t1 * t1 - t1 * t2 + t2 * t2), 2, 4),
                    (-HALF * t1 * (t1 - t2), 3, 5)],
            },
            connection={1: [(-b, 3)], 2: [(b, 5)], 3: [(1, 6)]})
    raise ModelError("case must be 1, 2 or 3, got %r" % (case,))


def _no_extra(params):
    if params:
        raise ModelError("unexpected parameters: %s" % ", ".join(sorted(params)))


def flat_constraint_residuals(t):
    """The five quadratic obstructions to a flat group-valued connection."""
    if len(t) != 10:
        raise ModelError("need ten torsion coefficients, got %d" % len(t))
    t1, t2, t3, t4, t5, t6, t7, t8, t9, t10 = (scalar(x) for x in t)
    return [
        t3 * t10 + t6 * t8 - t5 * t9,
        t1 * t10 + t5 * t7 - t4 * t8,
        t3 * t7 - t2 * t8 + t1 * t9,
        t2 * t10 + t6 * t7 - t4 * t9,
        t3 * t4 - t2 * t5 + t1 * t6,
    ]


def flat_char_model(t, tol=DEFAULT_TOL) -> CoframeModel:
    """Structure with vanishing group-valued curvature; ten coefficients."""
    res = flat_constraint_residuals(t)
    exact = all(r.is_exact for r in res)
    bad = [float(r) for r in res]
    scale = max(1.0, max(abs(float(scalar(x))) for x in t))
    violated = any(not r.is_zero() for r in res) if exact else \
        any(abs(v) > tol * scale * scale for v in bad)
    if violated:
        raise ModelError(
            "torsion coefficients violate the flatness constraints; "
            "residuals: [%s]" % ", ".join("%g" % v for v in bad))
    t1, t2, t3, t4, t5, t6, t7, t8, t9, t10 = (scalar(x) for x in t)
    return CoframeModel(
        "flat-char", n_fiber=0,
        d={
            1: [(t1, 2, 3), (t2, 2, 4), (t3, 2, 5), (t4, 3, 4), (t5, 3, 5),
                (t6, 4, 5)],
            2: [(-t1, 1, 3), (-t2, 1, 4), (-t3, 1, 5), (t7, 3, 4), (t8, 3, 5),
                (t9, 4, 5)],
            3: [(t1, 1, 2), (-t4, 1, 4), (-t5, 1, 5), (-t7, 2, 4), (-t8, 2, 5),
                (t10, 4, 5)],
            4: [(t2, 1, 2), (t4, 1, 3), (-t6, 1, 5), (t7, 2, 3), (-t9, 2, 5),
                (-t10, 3, 5)],
            5: [(t3, 1, 2), (t5, 1, 3), (t6, 1, 4), (t8, 2, 3), (t9, 2, 4),
                (t10, 3, 4)],
        },
        connection={1: [], 2: [], 3: []})


def solve_flat_constraints(t4, t5, t6, t7, t8, t9, t10):
    """Fill the first three coefficients from the remaining seven."""
    t4, t5, t6, t7, t8, t9, t10 = (scalar(x) for x in
                                   (t4, t5, t6, t7, t8, t9, t10))
    if t10.is_zero():
        raise ModelError("the solver needs t10 != 0")
    inv = Scalar(1) / t10
    t1 = (t4 * t8 - t5 * t7) * inv
    t2 = (t4 * t9 - t6 * t7) * inv
    t3 = (t5 * t9 - t6 * t8) * inv
    return [t1, t2, t3, t4, t5, t6, t7, t8, t9, t10]


def tor23_model(rho, phi=0.0, eps=1, delta=0) -> CoframeModel:
    """Five-dimensional symmetry with torsion in the 3-dimensional class."""
    rho = scalar(rho)
    if float(rho) <= 0:
        raise ModelError("rho must be positive")
    if eps not in (1, -1):
        raise ModelError("eps must be +1 or -1")
    if delta not in (0, 1):
        raise ModelError("delta must be 0 or 1")
    _check_phi(phi)
    c, s = _trig(phi)
    e = scalar(eps)
    d = scalar(delta)
    q = S3 * scalar(Fraction(2, 3)) * rho * e
    return CoframeModel(
        "tor23(%s,%s,%d,%d)" % (rho, float(phi), eps, delta), n_fiber=0,
        d={
            1: [(-q, 2, 4), (-q * (scalar(2) - 3 * d), 3, 5)],
            2: [(-2 * rho * c, 2, 4)],
            3: [(S3 * rho * e * (Scalar(1) - d), 1, 5), (rho * e * d, 2, 3),
                (-rho * c, 2, 5), (rho * (d * e - s), 4, 5)],
            4: [(-2 * rho * s, 2, 4)],
            5: [(S3 * rho * e * (d - Scalar(1)), 1, 3), (rho * c, 2, 3),
                (-rho * e * d, 2, 5), (-rho * (d * e + s), 3, 4)],
        })


def tor27_model(rho, phi=0.0) -> CoframeModel:
    """Five-dimensional symmetry with torsion in the 7-dimensional class."""
    rho = scalar(rho)
    if float(rho) <= 0:
        raise ModelError("rho must be positive")
    _check_phi(phi)
    c, s = _trig(phi)
    h3 = S3 * HALF
    return CoframeModel(
        "tor27(%s,%s)" % (rho, float(phi)), n_fiber=0,
        d={
            2: [(-rho * c, 2, 4)],
            3: [(h3 * rho * c, 1, 3), (-h3 * rho * s, 1, 5),
                (-HALF * rho * s, 2, 3), (HALF * rho * c, 3, 4)],
            4: [(rho * s, 2, 4)],
            5: [(-h3 * rho * s, 1, 3), (-h3 * rho * c, 1, 5),
                (-HALF * rho * s, 2, 5), (-HALF * rho * c, 4, 5)],
        })


def _is_angle(phi):
    """phi in [0, 2*pi), allowing for rounding at 2*pi; never inf or nan."""
    return 0 <= phi < 2 * math.pi + 1e-9


def _check_phi(phi):
    if not _is_angle(float(phi)):
        raise ModelError("phi must lie in [0, 2*pi)")


# -- expected properties (test oracles, never fed back into computation) ----


def _expect_torsion_free(model, r115):
    r = scalar(r115)
    ric = _metric_scale(6 * r)
    return {
        "torsion_zero": True,
        "ric_gamma": ric,
        "ric_lc": ric,
        "dT": model.zero(4),
        "r_forms": [k * r for k in kappa_forms(model)],
        "K_present": frozenset() if r.is_zero() else frozenset({"c1"}),
    }


def _expect_six1(model, a):
    a = scalar(a)
    ric = _metric_scale(-6 * a * a)
    return {
        "torsion_zero": True,
        "ric_gamma": ric,
        "ric_lc": ric,
        "dT": model.zero(4),
        "r_forms": [k * (-a * a) for k in kappa_forms(model)],
        "K_present": frozenset() if a.is_zero() else frozenset({"c1"}),
    }


def _pure_line(t1, t2):
    if t1.is_zero() and t2.is_zero():
        return "zero"
    if (t2 - 2 * t1).is_zero():
        return "t3"
    if (t1 + 2 * t2).is_zero():
        return "t7"
    return None


def _expect_six2(model, t1, t2):
    t1, t2 = scalar(t1), scalar(t2)
    tw4 = scalar(Fraction(1, 24))
    ric_lc = _metric_scale(HALF * (t1 * t1 + t2 * t2)) \
        + e3_squared().scale(tw4 * (16 * t1 * t1 + 12 * t1 * t2 - t2 * t2)) \
        + e3_fourth().scale(tw4 * (4 * t1 * t1 - t2 * t2))
    zero2 = model.zero(2)
    out = {
        "torsion": model.form(3, [((1, 2, 4), t1), ((1, 3, 5), t2)]),
        "ric_gamma": e3_squared().scale(HALF * t1 * t2),
        "ric_lc": ric_lc,
        "dT": model.form(4, [((2, 3, 4, 5), -2 * t1 * t2)]),
        "r_forms": [zero2, zero2, kappa_forms(model)[2] * (-HALF * t1 * t2)],
        "K_present": frozenset() if (t1 * t2).is_zero()
        else frozenset({"c1", "c5", "c15"}),
        "pure": _pure_line(t1, t2),
    }
    return out


def _expect_six3(model, t1, t2):
    t1, t2 = scalar(t1), scalar(t2)
    tw4 = scalar(Fraction(1, 24))
    tw2 = scalar(Fraction(1, 12))
    ric_lc = _metric_scale(t1 * t1 - t1 * t2 + HALF * t2 * t2) \
        + e3_squared().scale(
            tw4 * (44 * t1 * t1 - 58 * t1 * t2 + 27 * t2 * t2)) \
        + e3_fourth().scale(tw4 * (8 * t1 * t1 - 10 * t1 * t2 + 3 * t2 * t2))
    ric_gamma = _metric_scale(HALF * t1 * (t1 - 2 * t2)) \
        + e3_squared().scale(
            tw2 * (14 * t1 * t1 - 29 * t1 * t2 + 14 * t2 * t2)) \
        + e3_fourth().scale(tw2 * (t1 - 2 * t2) * (2 * t1 - t2))
    u = t1 * (t1 - 2 * t2) * S3 * tw2
    w = (t1 - 2 * t2) * (t1 - 2 * t2) * tw2
    r1 = model.form(2, [((1, 5), u), ((2, 3), -w), ((4, 5), -w)])
    r2 = model.form(2, [((1, 3), u), ((2, 5), -w), ((3, 4), -w)])
    r3 = model.form(2, [
        ((2, 4), -8 * tw2 * (t1 * t1 - t1 * t2 + t2 * t2)),
        ((3, 5), tw2 * (-7 * t1 * t1 + 10 * t1 * t2 - 4 * t2 * t2))])
    present = {"c1", "c5"}
    if not (t2 - 2 * t1).is_zero():
        present.add("c9")
    if not t1.is_zero() and not (3 * t1 - 2 * t2).is_zero():
        present.add("c15")
    return {
        "torsion": model.form(3, [((1, 2, 4), t1), ((1, 3, 5), t2)]),
        "ric_gamma": ric_gamma,
        "ric_lc": ric_lc,
        "dT": model.form(4, [((2, 3, 4, 5), -t1 * t1)]),
        "r_forms": [r1, r2, r3],
        "K_present": frozenset(present),
        "K_absent": frozenset({"c3", "c7"}),
        "pure": _pure_line(t1, t2),
    }


def _expect_flat_char(model, **kw):
    t = [scalar(kw["t%d" % i]) for i in range(1, 11)]
    out = {
        "flat": True,
        "ric_gamma": Tensor2.zero(),
        "dT": model.zero(4),
    }
    if all(x.is_zero() for x in t[1:]):
        t1 = t[0]
        out["ric_lc"] = Tensor2([
            [HALF * t1 * t1 if i == j and i < 3 else Scalar(0)
             for j in range(N)] for i in range(N)])
        out["torsion"] = model.form(3, [((1, 2, 3), t1)])
    return out


def _expect_tor23(model, rho, phi, eps, delta):
    rho = scalar(rho)
    rr = rho * rho
    d = scalar(delta)
    ft = scalar(Fraction(4, 3))
    return {
        "ric_gamma": _metric_scale(-2 * rr * d) + e3_squared().scale(ft * rr),
        "ric_lc": _metric_scale(rr * (scalar(Fraction(10, 3)) - 2 * d))
        + e3_squared().scale(2 * rr),
        "dT": model.form(4, [((2, 3, 4, 5), ft * rr * (3 * d - scalar(4)))]),
        "K_present": frozenset({"c1", "c5", "c15"}),
        "K_absent": frozenset({"c3", "c7", "c9"}),
        "pure": "t3",
    }


def _expect_tor27(model, rho, phi):
    rho = scalar(rho)
    rr = rho * rho
    c, s = _trig(phi)
    sc = s * c
    lc = [[Scalar(0)] * N for _ in range(N)]
    lc[0][0] = Scalar(1)
    lc[1][1] = s * s
    lc[1][3] = lc[3][1] = sc
    lc[3][3] = c * c
    cos2, sin2 = c * c - s * s, 2 * sc
    ga = [[Scalar(0)] * N for _ in range(N)]
    ga[0][0] = scalar(3)
    ga[1][1] = scalar(2) - cos2
    ga[1][3] = ga[3][1] = sin2
    ga[2][2] = Scalar(1)
    ga[3][3] = scalar(2) + cos2
    ga[4][4] = Scalar(1)
    return {
        "ric_lc": Tensor2(lc).scale(scalar(Fraction(-3, 2)) * rr),
        "ric_gamma": Tensor2(ga).scale(-HALF * rr),
        "dT": model.zero(4),
        "K_present": frozenset({"c1", "c9"}),
        "K_absent": frozenset({"c3", "c5", "c7", "c15"}),
        "pure": "t7",
    }


# -- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str                # "scalar" | "float" | "choice"
    default: object
    doc: str
    choices: tuple = ()
    positive: bool = False   # a scalar that must be greater than zero


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    symmetry_dim: int
    params: tuple
    builder: object          # (**resolved) -> CoframeModel
    expected: object         # (model, **resolved) -> dict of oracles
    metadata: object         # (**resolved) -> dict


def _case2_metadata(t1, t2):
    t1, t2 = scalar(t1), scalar(t2)
    line = t1 * (t1 - 2 * t2) * t2
    info = {"gamma_equals_canonical": (t2 + 2 * t1).is_zero()}
    if not line.is_zero():
        info["eps1"] = -_sign(t1 * (t1 - 2 * t2))
        info["eps2"] = _sign(t2 * (t1 - 2 * t2))
        info["group"] = "G1 x G2 with G_j orthogonal or Lorentzian rotations"
    elif t1.is_zero() and t2.is_zero():
        info["group"] = "flat model, symmetry extendable to dimension 8"
    elif (t1 - 2 * t2).is_zero():
        info["group"] = "central extension of SO(2) x| R^4"
    else:
        info["group"] = "(SO(2) x| R^2) x SO(3)"
    return info


def _sign(x):
    v = float(x)
    return (v > 0) - (v < 0)


def _p_scalar(name, default, doc, positive=False):
    return ParamSpec(name, "scalar", default, doc, positive=positive)


CATALOG = {}


def _register(entry):
    CATALOG[entry.name] = entry
    return entry


_register(CatalogEntry(
    name="torsion-free",
    summary="torsion-free family on the 8-dimensional total space",
    symmetry_dim=8,
    params=(_p_scalar("r115", 1, "curvature coefficient; sign picks the group"),),
    builder=torsion_free_model,
    expected=_expect_torsion_free,
    metadata=lambda r115: {
        "group": "SU(3)" if float(scalar(r115)) > 0 else
        "SL(3,R)" if float(scalar(r115)) < 0 else "SO(3) x| R^5"},
))

_register(CatalogEntry(
    name="six-dim-1",
    summary="torsionless 6-dimensional symmetry; reproduces two torsion-free"
            " quotients",
    symmetry_dim=6,
    params=(_p_scalar("a", 1, "connection coefficient"),),
    builder=lambda a: six_dim_model(1, a=a),
    expected=_expect_six1,
    metadata=lambda a: {
        "group": "flat model quotient" if scalar(a).is_zero()
        else "block-triangular subgroup of SL(3,R)"},
))

_register(CatalogEntry(
    name="six-dim-2",
    summary="two-parameter torsion family with curvature along the third"
            " generator",
    symmetry_dim=6,
    params=(_p_scalar("t1", 1, "first torsion coefficient"),
            _p_scalar("t2", 1, "second torsion coefficient")),
    builder=lambda t1, t2: six_dim_model(2, t1=t1, t2=t2),
    expected=_expect_six2,
    metadata=_case2_metadata,
))

_register(CatalogEntry(
    name="six-dim-3",
    summary="two-parameter family with sheared connection; excludes the"
            " t1 = 2 t2 line",
    symmetry_dim=6,
    params=(_p_scalar("t1", 1, "first torsion coefficient"),
            _p_scalar("t2", 1, "second torsion coefficient")),
    builder=lambda t1, t2: six_dim_model(3, t1=t1, t2=t2),
    expected=_expect_six3,
    metadata=lambda t1, t2: {
        "group": "central extension of SL(2,R) x| R^2",
        "eps": 0 if (scalar(t1) - scalar(t2)).is_zero() else 1},
))

_register(CatalogEntry(
    name="flat-char",
    summary="flat group-valued connection; ten constrained torsion"
            " coefficients",
    symmetry_dim=5,
    params=tuple(_p_scalar("t%d" % i, 1 if i == 1 else 0,
                           "torsion coefficient %d" % i)
                 for i in range(1, 11)),
    builder=lambda **kw: flat_char_model([kw["t%d" % i]
                                          for i in range(1, 11)]),
    expected=_expect_flat_char,
    metadata=lambda **kw: {
        "group": "SO(3) x R^2" if not scalar(kw["t10"]).is_zero()
        else "5-dimensional Lie group"},
))

_register(CatalogEntry(
    name="tor23",
    summary="pure 3-class torsion with 5-dimensional symmetry",
    symmetry_dim=5,
    params=(_p_scalar("rho", 1, "positive scale", positive=True),
            ParamSpec("phi", "float", 0.0, "angle in [0, 2*pi)"),
            ParamSpec("eps", "choice", 1, "sign parameter", (1, -1)),
            ParamSpec("delta", "choice", 0, "group selector", (0, 1))),
    builder=tor23_model,
    expected=_expect_tor23,
    metadata=lambda rho, phi, eps, delta: {
        "group": "SO(3) x Aff(1)" if delta == 0
        else "central extension of a triangular 4-dimensional algebra"},
))

_register(CatalogEntry(
    name="tor27",
    summary="pure 7-class torsion with 5-dimensional symmetry",
    symmetry_dim=5,
    params=(_p_scalar("rho", 1, "positive scale", positive=True),
            ParamSpec("phi", "float", 0.0, "angle in [0, 2*pi)")),
    builder=tor27_model,
    expected=_expect_tor27,
    metadata=lambda rho, phi: {"group": "strictly 5-dimensional"},
))

_register(CatalogEntry(
    name="friedrich",
    summary="the classical point (1/5, -2/5) of the two-parameter"
            " 6-dimensional family",
    symmetry_dim=6,
    params=(),
    builder=lambda: six_dim_model(2, t1=Fraction(1, 5), t2=Fraction(-2, 5)),
    expected=lambda model: _expect_six2(model, Fraction(1, 5),
                                        Fraction(-2, 5)),
    metadata=lambda: _case2_metadata(Fraction(1, 5), Fraction(-2, 5)),
))


def resolve_params(entry: CatalogEntry, given=None, where=None):
    """The entry's parameters from `given` (name -> value), with defaults.

    With `where`, the JSON pointer of `given` in a model file, an error
    about one parameter ends with that parameter's pointer."""
    given = dict(given or {})

    def bad(message, name=None):
        if where is not None:
            message += f" (at {where}/{name})" if name else f" (at {where})"
        return ModelError(message)

    resolved = {}
    for spec in entry.params:
        raw = given.pop(spec.name, spec.default)
        if spec.kind == "scalar":
            try:
                resolved[spec.name] = Scalar.from_string(raw) \
                    if isinstance(raw, str) else scalar(raw)
            except (ValueError, TypeError):
                raise bad("bad value %r for parameter %s"
                          % (raw, spec.name), spec.name) from None
            if spec.positive and resolved[spec.name].sign() <= 0:
                raise bad("%s must be positive" % spec.name, spec.name)
        elif spec.kind == "float":
            try:
                val = float(raw)
            except (ValueError, TypeError):
                raise bad("bad value %r for parameter %s"
                          % (raw, spec.name), spec.name) from None
            if not _is_angle(val):  # every float parameter is an angle
                raise bad("parameter %s must lie in [0, 2*pi)" % spec.name,
                          spec.name)
            resolved[spec.name] = val
        else:
            try:
                val = int(raw)
            except (ValueError, TypeError, OverflowError):
                raise bad("bad value %r for parameter %s"
                          % (raw, spec.name), spec.name) from None
            if val not in spec.choices:
                raise bad("parameter %s must be one of %s"
                          % (spec.name, list(spec.choices)), spec.name)
            resolved[spec.name] = val
    if given:
        raise bad("unknown parameters for %s: %s"
                  % (entry.name, ", ".join(sorted(given))))
    return resolved


def build_entry(name, given=None):
    """Resolve parameters, build the model, return (model, entry, params)."""
    if name not in CATALOG:
        raise ModelError("unknown catalog entry %r; available: %s"
                         % (name, ", ".join(sorted(CATALOG))))
    entry = CATALOG[name]
    resolved = resolve_params(entry, given)
    model = entry.builder(**resolved)
    return model, entry, resolved


def entry_json(name, given=None):
    """Model JSON with a catalog stanza for provenance-aware classification."""
    model, entry, resolved = build_entry(name, given)
    data = model.to_json()
    data["catalog"] = {
        "entry": name,
        "params": {k: (v.to_string() if isinstance(v, Scalar) else v)
                   for k, v in resolved.items()},
        "symmetry_dim": entry.symmetry_dim,
        "metadata": entry.metadata(**resolved),
    }
    return data


def expected_properties(name, resolved, model):
    return CATALOG[name].expected(model, **resolved)


def verify_expectations(model, expect, tol=DEFAULT_TOL):
    """Compare computed geometry against the expected oracles.

    Returns a list of rows {check, ok, residual, expected, computed};
    never mutates the computation inputs.
    """
    from .connection import build_report
    report = build_report(model, tol)
    rows = []

    def add(check, ok, residual, exp_repr, got_repr):
        rows.append({"check": check, "ok": bool(ok),
                     "residual": float(residual),
                     "expected": exp_repr, "computed": got_repr})

    def form_row(check, expected_form, computed_form):
        if computed_form is None:
            add(check, False, float("nan"), repr(expected_form), "missing")
            return
        diff = (computed_form - expected_form).max_coeff_mag()
        exact = expected_form.is_exact and computed_form.is_exact
        ok = diff == 0.0 if exact else diff <= tol * max(
            1.0, expected_form.max_coeff_mag())
        add(check, ok, diff, repr(expected_form), repr(computed_form))

    def tensor_row(check, expected_t2, computed_t2):
        if computed_t2 is None:
            add(check, False, float("nan"), "matrix", "missing")
            return
        diff = (computed_t2 - expected_t2).max_mag()
        exact = expected_t2.is_exact and computed_t2.is_exact
        ok = diff == 0.0 if exact else diff <= tol * max(
            1.0, expected_t2.max_mag())
        add(check, ok, diff, _mat_repr(expected_t2), _mat_repr(computed_t2))

    if not report.nearly_integrable:
        add("nearly-integrable", False, report.ni_residual,
            "true", "false")
        return rows
    add("nearly-integrable", True, report.ni_residual, "true", "true")

    if expect.get("torsion_zero"):
        diff = report.torsion.max_coeff_mag()
        add("torsion-zero", report.torsion.is_zero(tol), diff, "0",
            repr(report.torsion))
    if "torsion" in expect:
        form_row("torsion", expect["torsion"], report.torsion)
    if "dT" in expect:
        form_row("torsion-differential", expect["dT"], report.dT)
    if "ric_gamma" in expect:
        tensor_row("ricci-characteristic", expect["ric_gamma"],
                   report.ric_gamma)
    if "ric_lc" in expect:
        tensor_row("ricci-metric", expect["ric_lc"], report.ric_lc)
    if "r_forms" in expect:
        for t in range(3):
            form_row("curvature-form-%d" % (t + 1), expect["r_forms"][t],
                     report.r_forms[t])
    if expect.get("flat"):
        total = sum(f.max_coeff_mag() for f in report.r_forms)
        add("curvature-flat", total <= tol, total, "0", "%g" % total)
    if "pure" in expect:
        pure = expect["pure"]
        got = report.torsion_class
        want = pure if pure is not None else "mixed"
        add("torsion-class", got == want, 0.0 if got == want else 1.0,
            want, got)
    if "K_present" in expect:
        present = {k for k, v in report.curvature_components["present"].items()
                   if v}
        want = set(expect["K_present"])
        absent = set(expect.get(
            "K_absent", {"c1", "c3", "c7", "c5", "c9", "c15"} - want))
        ok = want <= present and not (absent & present)
        add("curvature-components", ok, 0.0 if ok else 1.0,
            "+%s -%s" % (sorted(want), sorted(absent)), str(sorted(present)))
    add("ricci-relation", report.ricci_relation_residual <= tol,
        report.ricci_relation_residual, "0",
        "%g" % report.ricci_relation_residual)
    add("codifferential-symmetry",
        report.codifferential_zero == report.ric_gamma_symmetric, 0.0,
        "equivalent", "%s/%s" % (report.codifferential_zero,
                                 report.ric_gamma_symmetric))
    return rows


def _mat_repr(t2):
    return "[" + "; ".join(
        " ".join(v.to_string() for v in row) for row in t2.m) + "]"
