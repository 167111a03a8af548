"""Sphere-bundle calculus: the tautological form, CR structures, G2 form.

Every structure here lives on the product of a homogeneous model with the
unit sphere worth of compatible 2-forms, coordinatized by one affine chart
z.  Coefficients are quotients of polynomials in (z, zbar) by powers of
(1 + z zbar), which is a class closed under the exterior differential, so
all integrability residuals come out as exact polynomial identities.  The
far chart is reached by the substitution z -> 1/z applied to input data
(see FiberFunction.invert_chart), not by a second chart inside the types.
"""

from __future__ import annotations

from fractions import Fraction

from .connection import So3Connection, build_report, characteristic_connection
from .exterior import CoframeModel, Form, ModelError, sort_indices
from .repr import kappa_forms
from .scalar import (
    CScalar,
    Scalar,
    cscalar,
    nullspace,
    rank,
    scalar,
    sqrt3,
)
from .upsilon import E_matrices, TernaryForm

HALF = Scalar(1) / 2


def _czero():
    return CScalar(0)


# -- fiber coefficient functions --------------------------------------------


class FiberFunction:
    """Quotient of a polynomial in (z, zbar) by (1 + z zbar)^k.

    Monomials are keyed by (p, q) meaning z^p zbar^q with CScalar
    coefficients.  Addition aligns denominators, multiplication adds the
    exponents, and both Wirtinger derivatives stay inside the class by the
    quotient rule.  reduce() divides out common (1 + z zbar) factors so
    that zero functions have an empty numerator.
    """

    __slots__ = ("num", "k")

    def __init__(self, num=None, k: int = 0):
        store = {}
        for key, val in (num or {}).items():
            c = cscalar(val)
            if not c.is_zero():
                store[(int(key[0]), int(key[1]))] = c
        self.num = store
        self.k = int(k) if store else 0

    @classmethod
    def const(cls, c) -> "FiberFunction":
        return cls({(0, 0): cscalar(c)})

    @classmethod
    def zero(cls) -> "FiberFunction":
        return cls()

    @property
    def is_exact(self) -> bool:
        return all(c.is_exact for c in self.num.values())

    def is_zero(self, tol: float | None = None) -> bool:
        return all(c.is_zero(tol) for c in self.num.values())

    def max_mag(self) -> float:
        return max((c.mag() for c in self.num.values()), default=0.0)

    def conjugate(self) -> "FiberFunction":
        return FiberFunction({(q, p): c.conjugate()
                              for (p, q), c in self.num.items()}, self.k)

    def _aligned(self, other: "FiberFunction"):
        k = max(self.k, other.k)
        return (_raise_denominator(self, k - self.k),
                _raise_denominator(other, k - other.k), k)

    def __add__(self, other):
        other = _as_fiber(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, k = self._aligned(other)
        out = dict(a)
        for key, val in b.items():
            out[key] = out.get(key, _czero()) + val
        return FiberFunction(out, k)

    __radd__ = __add__

    def __neg__(self):
        return FiberFunction({key: -val for key, val in self.num.items()},
                             self.k)

    def __sub__(self, other):
        other = _as_fiber(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_fiber(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_fiber(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for (p, q), a in self.num.items():
            for (r, s), b in other.num.items():
                key = (p + r, q + s)
                out[key] = out.get(key, _czero()) + a * b
        return FiberFunction(out, self.k + other.k)

    __rmul__ = __mul__

    def d_z(self) -> "FiberFunction":
        # quotient rule: (num' (1+w) - k zbar num) / (1+w)^(k+1), w = z zbar
        dnum = {}
        for (p, q), c in self.num.items():
            if p:
                key = (p - 1, q)
                dnum[key] = dnum.get(key, _czero()) + scalar(p) * c
        lifted = _raise_num(dnum, 1)
        if self.k:
            for (p, q), c in self.num.items():
                key = (p, q + 1)
                lifted[key] = lifted.get(key, _czero()) - scalar(self.k) * c
        return FiberFunction(lifted, self.k + 1).reduce()

    def d_zbar(self) -> "FiberFunction":
        return self.conjugate().d_z().conjugate()

    def reduce(self) -> "FiberFunction":
        num, k = dict(self.num), self.k
        while k > 0 and num:
            divided = _divide_once(num)
            if divided is None:
                break
            num, k = divided, k - 1
        return FiberFunction(num, k)

    def invert_chart(self) -> "FiberFunction":
        """The same function written in the far chart z -> 1/z.

        Multiplying through by (z zbar)^k turns the denominator back into
        (1 + z zbar)^k; the result stays polynomial only when no monomial
        exponent exceeds k.
        """
        out = {}
        for (p, q), c in self.num.items():
            if p > self.k or q > self.k:
                raise ValueError(
                    "function leaves the polynomial class in the far chart")
            out[(self.k - p, self.k - q)] = c
        return FiberFunction(out, self.k)

    def eval(self, z: complex) -> complex:
        z = complex(z)
        zb = z.conjugate()
        total = 0j
        for (p, q), c in self.num.items():
            total += complex(c) * z ** p * zb ** q
        return total / (1 + (z * zb).real) ** self.k

    def __eq__(self, other):
        other = _as_fiber(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.num:
            return "FiberFunction(0)"
        parts = []
        for (p, q), c in sorted(self.num.items()):
            parts.append(f"z^{p} zb^{q}: ({c.re.to_string()})"
                         f"+i({c.im.to_string()})")
        return f"FiberFunction({'; '.join(parts)} / (1+z zb)^{self.k})"


def _as_fiber(x):
    if isinstance(x, FiberFunction):
        return x
    if isinstance(x, Form):
        return NotImplemented
    try:
        return FiberFunction.const(x)
    except TypeError:
        return NotImplemented


def _raise_num(num, times):
    """Multiply a numerator dict by (1 + z zbar)^times."""
    out = dict(num)
    for _ in range(times):
        nxt = {}
        for (p, q), c in out.items():
            nxt[(p, q)] = nxt.get((p, q), _czero()) + c
            key = (p + 1, q + 1)
            nxt[key] = nxt.get(key, _czero()) + c
        out = nxt
    return out


def _raise_denominator(f: FiberFunction, times: int):
    return _raise_num(f.num, times) if times else dict(f.num)


def _divide_once(num):
    """Divide a numerator by (1 + z zbar) or report failure with None."""
    charges = {}
    for (p, q), c in num.items():
        charges.setdefault(p - q, {})[min(p, q)] = c
    out = {}
    for charge, poly in charges.items():
        top = max(poly)
        if top == 0:
            return None  # nonzero constant sector, not divisible
        quot = {}
        carry = _czero()
        # synthetic division by (w + 1) from the highest w-power down
        for m in range(top, 0, -1):
            coef = poly.get(m, _czero()) - carry if m < top \
                else poly.get(m, _czero())
            quot[m - 1] = coef
            carry = coef
        rem = poly.get(0, _czero()) - carry
        if not rem.is_zero():
            return None
        for m, c in quot.items():
            if c.is_zero():
                continue
            p = m + charge if charge > 0 else m
            q = m if charge > 0 else m - charge
            out[(p, q)] = c
    return out


# -- exterior forms with fiber coefficients ---------------------------------


class TwistorForm:
    """Exterior form over (model coframe, dz, dzbar) with FiberFunction
    coefficients.  Leg dim+1 is dz and leg dim+2 is dzbar; after a change
    to the split basis those two slots denote the orthonormal fiber pair
    instead."""

    __slots__ = ("model", "degree", "terms")

    def __init__(self, model: CoframeModel, degree: int, terms=None):
        self.model = model
        self.degree = int(degree)
        self.terms = {}
        for legs, f in (terms or {}).items():
            self._accumulate(tuple(legs), f)
        self._prune()

    def _accumulate(self, legs, f):
        if not isinstance(f, FiberFunction):
            f = FiberFunction.const(f)
        key, sign = sort_indices(legs)
        if sign == 0 or f.is_zero():
            return
        if len(key) != self.degree:
            raise ModelError("term degree mismatch")
        if max(key, default=1) > self.model.dim + 2 or min(key, default=1) < 1:
            raise ModelError("leg out of range")
        val = f if sign > 0 else -f
        if key in self.terms:
            self.terms[key] = self.terms[key] + val
        else:
            self.terms[key] = val

    def _prune(self):
        for key in [k for k, v in self.terms.items() if v.is_zero()]:
            del self.terms[key]

    # constructors -----------------------------------------------------

    @classmethod
    def zero(cls, model, degree):
        return cls(model, degree)

    @classmethod
    def leg(cls, model, index, f=1):
        return cls(model, 1, {(index,): _as_fiber(f)})

    @classmethod
    def lift(cls, form: Form) -> "TwistorForm":
        out = cls(form.model, form.degree)
        for key, coef in form.terms.items():
            out._accumulate(key, FiberFunction.const(coef))
        out._prune()
        return out

    # ring operations --------------------------------------------------

    def _check(self, other):
        if self.model is not other.model or self.degree != other.degree:
            raise ModelError("form mismatch")

    def __add__(self, other):
        self._check(other)
        out = TwistorForm(self.model, self.degree, self.terms)
        for key, f in other.terms.items():
            out._accumulate(key, f)
        out._prune()
        return out

    def __neg__(self):
        return TwistorForm(self.model, self.degree,
                           {k: -f for k, f in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "TwistorForm":
        c = _as_fiber(c)
        return TwistorForm(self.model, self.degree,
                           {k: f * c for k, f in self.terms.items()})

    def wedge(self, other: "TwistorForm") -> "TwistorForm":
        if self.model is not other.model:
            raise ModelError("form mismatch")
        out = TwistorForm(self.model, self.degree + other.degree)
        for ka, fa in self.terms.items():
            seen = set(ka)
            for kb, fb in other.terms.items():
                if seen.intersection(kb):
                    continue
                key, sign = sort_indices(ka + kb)
                prod = fa * fb
                out._merge(key, prod if sign > 0 else -prod)
        # common (1 + z zbar) factors would otherwise compound through
        # every later product
        for key, f in out.terms.items():
            out.terms[key] = f.reduce()
        out._prune()
        return out

    def _merge(self, key, f):
        if key in self.terms:
            self.terms[key] = self.terms[key] + f
        else:
            self.terms[key] = f

    def conjugate(self) -> "TwistorForm":
        dz, dzb = self.model.dim + 1, self.model.dim + 2
        swap = {dz: dzb, dzb: dz}
        out = TwistorForm(self.model, self.degree)
        for legs, f in self.terms.items():
            out._accumulate(tuple(swap.get(l, l) for l in legs),
                            f.conjugate())
        out._prune()
        return out

    def real(self) -> "TwistorForm":
        return (self + self.conjugate()).scale(HALF)

    def imag(self) -> "TwistorForm":
        return (self - self.conjugate()).scale(CScalar(0, Fraction(-1, 2)))

    def d(self) -> "TwistorForm":
        model = self.model
        dz, dzb = model.dim + 1, model.dim + 2
        out = TwistorForm(model, self.degree + 1)
        for legs, f in self.terms.items():
            out._accumulate((dz,) + legs, f.d_z())
            out._accumulate((dzb,) + legs, f.d_zbar())
            for pos, leg in enumerate(legs):
                if leg > model.dim:
                    continue
                sign = -1 if pos % 2 else 1
                for pair, coef in model.d_of(leg).terms.items():
                    newlegs = legs[:pos] + pair + legs[pos + 1:]
                    out._accumulate(newlegs,
                                    f * FiberFunction.const(
                                        coef if sign > 0 else -coef))
        out._prune()
        return out

    # inspection -------------------------------------------------------

    def coeff(self, legs) -> FiberFunction:
        key, sign = sort_indices(tuple(legs))
        if sign == 0:
            return FiberFunction.zero()
        f = self.terms.get(key)
        if f is None:
            return FiberFunction.zero()
        return f if sign > 0 else -f

    def is_zero(self, tol: float | None = None) -> bool:
        return all(f.is_zero(tol) for f in self.terms.values())

    @property
    def is_exact(self) -> bool:
        return all(f.is_exact for f in self.terms.values())

    def max_norm(self) -> float:
        return max((f.reduce().max_mag() for f in self.terms.values()),
                   default=0.0)

    def has_fiber_coordinate_legs(self) -> bool:
        dz = self.model.dim + 1
        return any(l >= dz for legs in self.terms for l in legs)

    def eval_terms(self, z: complex):
        return {legs: f.eval(z) for legs, f in self.terms.items()}

    def substitute(self, replacements) -> "TwistorForm":
        """Replace 1-form legs by TwistorForms (basis change)."""
        out = TwistorForm(self.model, self.degree)
        for legs, f in self.terms.items():
            factor = None
            for leg in legs:
                piece = replacements.get(leg)
                if piece is None:
                    piece = TwistorForm.leg(self.model, leg)
                factor = piece if factor is None else factor.wedge(piece)
            if factor is None:
                factor = TwistorForm(self.model, 0, {(): FiberFunction.const(1)})
            for key, g in factor.terms.items():
                out._accumulate(key, f * g)
        out._prune()
        return out

    def __repr__(self):
        return (f"TwistorForm(deg {self.degree}, "
                f"{len(self.terms)} terms)")


def base_star(tf: TwistorForm) -> TwistorForm:
    """Hodge star on forms with base legs only (orientation theta^1..5)."""
    if any(l > 5 for legs in tf.terms for l in legs):
        raise ModelError("base star needs base legs only")
    full = tuple(range(1, 6))
    out = TwistorForm(tf.model, 5 - tf.degree)
    for key, f in tf.terms.items():
        comp = tuple(i for i in full if i not in key)
        _, sign = sort_indices(key + comp)
        out._accumulate(comp, f if sign > 0 else -f)
    out._prune()
    return out


def star7(tf: TwistorForm) -> TwistorForm:
    """Hodge star in the split orthonormal basis of a 7-dimensional total
    space (base model, no model fiber legs): legs 1..5 plus the fiber
    pair, oriented theta^1..5, fiber6, fiber7."""
    model = tf.model
    if model.n_fiber != 0:
        raise ModelError("the 7-dimensional star needs a base model")
    full = tuple(range(1, 8))
    out = TwistorForm(model, 7 - tf.degree)
    for key, f in tf.terms.items():
        comp = tuple(i for i in full if i not in key)
        _, sign = sort_indices(key + comp)
        out._accumulate(comp, f if sign > 0 else -f)
    out._prune()
    return out


# -- the coframe on the twistor space ---------------------------------------


def _fiber(entries, k=0):
    return FiberFunction(entries, k)


def _i(x=1):
    return CScalar(0, x)


def tautological_form(model: CoframeModel) -> TwistorForm:
    """The sphere-parametrized 2-form built from the three basic sections."""
    k1, k2, k3 = (TwistorForm.lift(k) for k in kappa_forms(model))
    b1 = _fiber({(1, 0): 1, (0, 1): 1}, 1)
    b2 = _fiber({(0, 1): _i(), (1, 0): _i(-1)}, 1)
    b3 = _fiber({(0, 0): 1, (1, 1): -1}, 1)
    return k1.scale(b1) + k2.scale(b2) + k3.scale(b3)


def omega_normalization(model: CoframeModel) -> FiberFunction:
    """*(omega ^ *omega) as a fiber function; equals 5 identically."""
    om = tautological_form(model)
    top = om.wedge(base_star(om))
    return top.coeff((1, 2, 3, 4, 5)).reduce()


def _gamma_forms(model: CoframeModel, gamma):
    if gamma is None:
        conn, _ = characteristic_connection(model)
        return conn.gammas
    if isinstance(gamma, So3Connection):
        return gamma.gammas
    return list(gamma)


def twistor_coframe(model: CoframeModel, gamma=None) -> dict:
    """The displayed complex coframe and its real orthonormal version."""
    if gamma is None:
        cached = model.__dict__.get("_twistor_coframe")
        if cached is not None:
            return cached
    gammas = [TwistorForm.lift(g) for g in _gamma_forms(model, gamma)]
    dz = TwistorForm.leg(model, model.dim + 1)
    s3 = sqrt3()

    inv = _fiber({(0, 0): 1}, 1)
    c1 = _fiber({(0, 0): _i(Fraction(-1, 2)), (2, 0): _i(Fraction(1, 2))})
    c2 = _fiber({(0, 0): Fraction(1, 2), (2, 0): Fraction(1, 2)})
    c3 = _fiber({(1, 0): _i()})
    h = (dz + gammas[0].scale(c1) + gammas[1].scale(c2)
         + gammas[2].scale(c3)).scale(inv)

    th = [TwistorForm.leg(model, i + 1) for i in range(5)]

    u = (th[0].scale(_fiber({(0, 0): -1, (1, 1): 4, (2, 2): -1}, 2))
         + th[1].scale(_fiber({(2, 0): _i(s3), (0, 2): _i(-s3)}, 2))
         + th[2].scale(_fiber({(2, 1): -s3, (1, 2): -s3,
                               (1, 0): s3, (0, 1): s3}, 2))
         + th[3].scale(_fiber({(2, 0): -s3, (0, 2): -s3}, 2))
         + th[4].scale(_fiber({(2, 1): _i(-s3), (1, 2): _i(s3),
                               (1, 0): _i(s3), (0, 1): _i(-s3)}, 2)))

    n1 = (th[0].scale(_fiber({(2, 1): _i(2 * s3), (1, 0): _i(-2 * s3)}, 2))
          + th[1].scale(_fiber({(3, 0): -2, (0, 1): -2}, 2))
          + th[2].scale(_fiber({(0, 0): _i(-1), (2, 0): _i(3),
                                (1, 1): _i(3), (3, 1): _i(-1)}, 2))
          + th[3].scale(_fiber({(3, 0): _i(-2), (0, 1): _i(2)}, 2))
          + th[4].scale(_fiber({(0, 0): -1, (2, 0): -3,
                                (1, 1): 3, (3, 1): 1}, 2)))

    n2 = (th[0].scale(_fiber({(2, 0): _i(2 * s3)}, 2))
          + th[1].scale(_fiber({(4, 0): 1, (0, 0): -1}, 2))
          + th[2].scale(_fiber({(3, 0): _i(-2), (1, 0): _i(2)}, 2))
          + th[3].scale(_fiber({(4, 0): _i(1), (0, 0): _i(1)}, 2))
          + th[4].scale(_fiber({(3, 0): 2, (1, 0): 2}, 2)))

    theta = [n1.real(), n1.imag(), n2.real(), n2.imag(), u,
             -h.imag(), h.real()]
    out = {"omega": tautological_form(model), "h": h, "u": u,
           "n1": n1, "n2": n2, "theta": theta}
    if gamma is None:
        model.__dict__["_twistor_coframe"] = out
    return out


# -- metric checks ----------------------------------------------------------


def _horizontal_dot(a: TwistorForm, b: TwistorForm) -> FiberFunction:
    """Complex-bilinear product of the pullback-metric components."""
    total = FiberFunction.zero()
    for i in range(1, 6):
        total = total + a.coeff((i,)) * b.coeff((i,))
    return total.reduce()


def _vertical_components(a: TwistorForm):
    """Components along the orthonormal fiber pair, from the dz parts."""
    model = a.model
    p = a.coeff((model.dim + 1,))
    q = a.coeff((model.dim + 2,))
    one_w = _fiber({(0, 0): 1, (1, 1): 1})
    comp6 = (one_w * _i()) * (q - p)
    comp7 = one_w * (p + q)
    return comp6.reduce(), comp7.reduce()


def _horizontal_part(a: TwistorForm, covariant_dz: TwistorForm,
                     covariant_dzb: TwistorForm) -> TwistorForm:
    """Subtract the full vertical covector, leaving horizontal components.

    A coordinate dz leg is not horizontal: on horizontal vectors it
    evaluates to minus the connection terms.  Removing (dz part) times
    the covariant differential fixes that up, after which the remaining
    coframe coefficients are honest horizontal components.
    """
    model = a.model
    p = a.coeff((model.dim + 1,))
    q = a.coeff((model.dim + 2,))
    return a - covariant_dz.scale(p) - covariant_dzb.scale(q)


def coframe_gram(model: CoframeModel, gamma=None):
    """7x7 Gram matrix of the real coframe, as reduced fiber functions.

    Horizontal components pair through the pulled-back metric; the fiber
    pair through the spherical metric that makes the displayed forms
    unit (the sphere of radius one half).
    """
    cf = twistor_coframe(model, gamma)
    theta = cf["theta"]
    one_w = _fiber({(0, 0): 1, (1, 1): 1})
    cov_dz = cf["h"].scale(one_w)
    cov_dzb = cov_dz.conjugate()
    hors = [_horizontal_part(t, cov_dz, cov_dzb) for t in theta]
    verts = [_vertical_components(t) for t in theta]
    out = []
    for a in range(7):
        row = []
        for b in range(7):
            g = _horizontal_dot(hors[a], hors[b])
            g = g + verts[a][0] * verts[b][0] + verts[a][1] * verts[b][1]
            row.append(g.reduce())
        out.append(row)
    return out


def gram_residual(model: CoframeModel, gamma=None) -> float:
    gram = coframe_gram(model, gamma)
    worst = 0.0
    for a in range(7):
        for b in range(7):
            expect = FiberFunction.const(1 if a == b else 0)
            worst = max(worst, (gram[a][b] - expect).max_mag())
    return worst


def null_span_checks(model: CoframeModel, gamma=None) -> dict:
    """The displayed bilinear relations among u, n1, n2 and unitality."""
    cf = twistor_coframe(model, gamma)
    u, n1, n2 = cf["u"], cf["n1"], cf["n2"]
    two = FiberFunction.const(2)
    checks = {
        "n1.n1": _horizontal_dot(n1, n1),
        "n2.n2": _horizontal_dot(n2, n2),
        "n1.n2": _horizontal_dot(n1, n2),
        "n1.conj(n2)": _horizontal_dot(n1, n2.conjugate()),
        "n1.u": _horizontal_dot(n1, u),
        "n2.u": _horizontal_dot(n2, u),
        "u.u - 1": _horizontal_dot(u, u) - FiberFunction.const(1),
        "n1.conj(n1) - 2": _horizontal_dot(n1, n1.conjugate()) - two,
        "n2.conj(n2) - 2": _horizontal_dot(n2, n2.conjugate()) - two,
    }
    return {name: f.reduce().max_mag() for name, f in checks.items()}


# -- CR structures ----------------------------------------------------------


STRUCTURES = ("j0", "j0m", "jm", "jmm")


def _structure_span(cf: dict, which: str):
    n1, n2 = cf["n1"], cf["n2"]
    if which == "j0":
        return [cf["h"], n1, n2]
    if which == "j0m":
        return [cf["h"], n1.conjugate(), n2.conjugate()]
    if which == "jm":
        return [cf["h"], n1, n2.conjugate()]
    if which == "jmm":
        return [cf["h"], n1.conjugate(), n2]
    raise ModelError(f"unknown CR structure {which!r}; "
                     f"choose one of {', '.join(STRUCTURES)}")


def _cr_forms(model: CoframeModel, which: str, gamma) -> dict:
    """Each coframe member mu with its residual 6-form d(mu) ^ u ^ span.

    The forms are built once per model and structure (unless an explicit
    connection is given) and serve both the exact residuals and the
    sampled cross-check.
    """
    if gamma is None:
        cache = model.__dict__.setdefault("_cr_residuals", {})
        cached = cache.get(which)
        if cached is not None:
            return cached
    cf = twistor_coframe(model, gamma)
    span = _structure_span(cf, which)
    u = cf["u"]
    wedge_all = u.wedge(span[0]).wedge(span[1]).wedge(span[2])
    names = ("transversal", "fiber", "null-1", "null-2")
    forms = {name: (mu, mu.d().wedge(wedge_all))
             for name, mu in zip(names, [u] + span)}
    if gamma is None:
        cache[which] = forms
    return forms


def cr_residuals(model: CoframeModel, which: str = "j0", gamma=None,
                 tol: float = 1e-9) -> dict:
    """The four integrability residuals of one almost CR structure.

    Each residual is the largest numerator coefficient of the 6-form
    obtained by wedging the differential of a coframe member with the
    transversal 1-form and the chosen span of (1,0)-forms; an integrable
    structure makes all four vanish identically.
    """
    residuals = {name: six.max_norm()
                 for name, (_mu, six) in _cr_forms(model, which, gamma).items()}
    worst = max(residuals.values())
    return {
        "structure": which,
        "residuals": residuals,
        "max_residual": worst,
        "integrable": worst <= tol,
    }


def predicted_verdict(model: CoframeModel, tol: float | None = None,
                      report=None) -> dict:
    """Integrability forecast from torsion type and curvature content.

    A report already built for the model at this tolerance may be passed
    in to avoid building it again.
    """
    rep = report if report is not None else build_report(model, tol)
    if rep.failure:
        raise ModelError(f"cannot classify: {rep.failure}")
    torsion_ok = rep.torsion_t7 is None or rep.torsion_t7.is_zero(tol)
    k_9_zero = not rep.curvature_components["present"]["c9"]
    return {
        "torsion_in_t3": torsion_ok,
        "curvature_c9_zero": k_9_zero,
        "integrable": torsion_ok and k_9_zero,
    }


# -- G2 structure -----------------------------------------------------------


def g2_form(model: CoframeModel, gamma=None) -> dict:
    """The natural 3-form, its coordinate match, and its normalization."""
    cf = twistor_coframe(model, gamma)
    u, h, n1, n2 = cf["u"], cf["h"], cf["n1"], cf["n2"]
    ihalf = FiberFunction.const(_i(Fraction(1, 2)))
    phi1 = (n1.wedge(n1.conjugate()) - n2.wedge(n2.conjugate())) \
        .wedge(u).scale(ihalf)
    phi2 = (n1.wedge(n2.conjugate()).wedge(h)
            - n1.conjugate().wedge(n2).wedge(h.conjugate())).scale(ihalf)
    phi3 = u.wedge(h).wedge(h.conjugate()).scale(ihalf)
    phi = phi1 + phi2 + phi3

    t = cf["theta"]

    def w(*forms):
        out = forms[0]
        for f in forms[1:]:
            out = out.wedge(f)
        return out

    phi_theta = (w(t[0], t[1], t[4]) - w(t[2], t[3], t[4])
                 + w(t[0], t[2], t[5]) - w(t[3], t[1], t[5])
                 + w(t[0], t[3], t[6]) - w(t[1], t[2], t[6])
                 + w(t[4], t[5], t[6]))
    match_residual = (phi - phi_theta).max_norm()

    result = {
        "phi": phi,
        "match_residual": match_residual,
        "match": match_residual == 0.0,
    }
    if model.n_fiber == 0:
        split = _to_split_basis(phi, model, gamma)
        top = split.wedge(star7(split))
        norm = top.coeff(tuple(range(1, 8))).reduce()
        result["norm_residual"] = (norm - FiberFunction.const(7)).max_mag()
    return result


def _to_split_basis(tf: TwistorForm, model: CoframeModel, gamma=None):
    """Rewrite dz, dzbar legs through the orthonormal fiber pair."""
    if model.n_fiber != 0:
        raise ModelError("the split basis is built over base models only")
    gammas = [TwistorForm.lift(g) for g in _gamma_forms(model, gamma)]
    dz, dzb = model.dim + 1, model.dim + 2
    one_w = _fiber({(0, 0): 1, (1, 1): 1})
    c1 = _fiber({(0, 0): _i(Fraction(-1, 2)), (2, 0): _i(Fraction(1, 2))})
    c2 = _fiber({(0, 0): Fraction(1, 2), (2, 0): Fraction(1, 2)})
    c3 = _fiber({(1, 0): _i()})
    # dz = (1+z zbar)(fiber7 - i fiber6) - sum_I c_I gamma^I
    vert = (TwistorForm.leg(model, dzb, one_w)
            - TwistorForm.leg(model, dz, one_w * _i()))
    repl_dz = vert - gammas[0].scale(c1) - gammas[1].scale(c2) \
        - gammas[2].scale(c3)
    repl_dzb = (TwistorForm.leg(model, dzb, one_w)
                + TwistorForm.leg(model, dz, one_w * _i())) \
        - gammas[0].scale(c1.conjugate()) - gammas[1].scale(c2.conjugate()) \
        - gammas[2].scale(c3.conjugate())
    return tf.substitute({dz: repl_dz, dzb: repl_dzb})


def quarter_identity(model: CoframeModel, gamma=None) -> dict:
    """The stated quarter-normalization of the transversal 1-form.

    In the split basis the fiber area form wedged with the square of the
    tautological form, starred and quartered, must reproduce the
    transversal form.  Both orientation signs are reported so that a
    convention mismatch shows up instead of being absorbed.
    """
    if model.n_fiber != 0:
        raise ModelError("the quarter identity check needs a base model")
    cf = twistor_coframe(model, gamma)
    om = cf["omega"]
    u = cf["u"]
    eta2 = TwistorForm(model, 2,
                       {(model.dim + 1, model.dim + 2):
                        FiberFunction.const(1)})
    six = eta2.wedge(om).wedge(om)
    quarter = star7(six).scale(FiberFunction.const(Fraction(1, 4)))
    res_plus = (quarter - u).max_norm()
    res_minus = (quarter + u).max_norm()
    return {
        "residual": res_plus,
        "residual_opposite_orientation": res_minus,
        "consistent": res_plus == 0.0,
    }


# -- pointwise endomorphism and null directions -----------------------------


def _sphere_point(z):
    """The three sphere coordinates at one chart point, exact in z."""
    zc = _as_cpoint(z)
    zb = zc.conjugate()
    denom = (zc * zb + CScalar(1)).re
    return [(zc + zb) / denom,
            (_i() * (zb - zc)) / denom,
            (CScalar(1) - zc * zb) / denom]


def omega_endomorphism(z) -> list:
    """The matrix of the sphere-parametrized 2-form at one fiber point.

    z may be a complex number, a pair (re, im) of Scalar-coercible
    values, or a CScalar.
    """
    b = _sphere_point(z)
    Es = E_matrices()
    out = [[CScalar(0) for _ in range(5)] for _ in range(5)]
    for bi, E in zip(b, Es):
        for r in range(5):
            for c in range(5):
                if not E[r][c].is_zero():
                    out[r][c] = out[r][c] + bi * E[r][c]
    return out


def _as_cpoint(z) -> CScalar:
    if isinstance(z, CScalar):
        return z
    if isinstance(z, complex):
        return cscalar(z)
    if isinstance(z, tuple):
        return CScalar(scalar(z[0]), scalar(z[1]))
    return CScalar(scalar(z), Scalar(0))


def null_direction_check(z) -> dict:
    """Eigenvalue pattern and the null property of the top eigenvector."""
    M = omega_endomorphism(z)

    def mul(A, B):
        return [[sum((A[i][k] * B[k][j] for k in range(5)), CScalar(0))
                 for j in range(5)] for i in range(5)]

    M2 = mul(M, M)
    M4 = mul(M2, M2)
    tr2 = sum((M2[i][i] for i in range(5)), CScalar(0))
    # annihilating polynomial x(x^2+1)(x^2+4) = x^5 + 5x^3 + 4x
    M3 = mul(M2, M)
    M5 = mul(M4, M)
    worst = 0.0
    for i in range(5):
        for j in range(5):
            val = M5[i][j] + scalar(5) * M3[i][j] + scalar(4) * M[i][j]
            worst = max(worst, val.mag())
    trace_residual = (tr2 + scalar(10)).mag()

    shifted = [[M[i][j] - (CScalar(0, 2) if i == j else CScalar(0))
                for j in range(5)] for i in range(5)]
    kernel = nullspace(shifted)
    result = {
        "annihilator_residual": worst,
        "trace_square_residual": trace_residual,
        "top_eigenspace_dim": len(kernel),
    }
    if kernel:
        n = kernel[0]
        ups = TernaryForm.standard()
        null_worst = 0.0
        for k in range(1, 6):
            total = CScalar(0)
            for i in range(1, 6):
                for j in range(1, 6):
                    c = ups.coeff(i, j, k)
                    if not c.is_zero():
                        total = total + c * n[i - 1] * n[j - 1]
            null_worst = max(null_worst, total.mag())
        result["null_contraction_residual"] = null_worst
    return result


def fiber_complex_structure_residual(z) -> float:
    """J^2 = -1 on the tangent plane of the fiber sphere at one point."""
    b = _sphere_point(z)

    def cross(x, y):
        return [x[1] * y[2] - x[2] * y[1],
                x[2] * y[0] - x[0] * y[2],
                x[0] * y[1] - x[1] * y[0]]

    worst = 0.0
    basis = [[CScalar(1), CScalar(0), CScalar(0)],
             [CScalar(0), CScalar(1), CScalar(0)],
             [CScalar(0), CScalar(0), CScalar(1)]]
    for e in basis:
        dot = sum((x * y for x, y in zip(b, e)), CScalar(0))
        tangent = [x - dot * y for x, y in zip(e, b)]
        twice = cross(b, cross(b, tangent))
        for got, want in zip(twice, tangent):
            worst = max(worst, (got + want).mag())
    return worst


def span_rank(model: CoframeModel, z, gamma=None) -> int:
    """Rank of (u, h, n1, n2 and conjugates) evaluated at one point."""
    cf = twistor_coframe(model, gamma)
    forms = [cf["u"], cf["h"], cf["h"].conjugate(), cf["n1"],
             cf["n1"].conjugate(), cf["n2"], cf["n2"].conjugate()]
    zc = complex(_as_cpoint(z))
    legs = sorted({l for f in forms for key in f.terms for l in key})
    rows = []
    for f in forms:
        vals = f.eval_terms(zc)
        rows.append([cscalar(vals.get((l,), 0.0)) for l in legs])
    return rank(rows)


# -- float sampling fallback ------------------------------------------------


def sample_points(seed: int, count: int):
    """Deterministic complex sample points away from the chart edge."""
    import random

    rng = random.Random(seed)
    return [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            for _ in range(count)]


def derivative_sample_residual(f: FiberFunction, z: complex,
                               step: float = 1e-5) -> float:
    """Formal Wirtinger derivative against central differences."""
    fz = f.d_z().eval(z)
    dx = (f.eval(z + step) - f.eval(z - step)) / (2 * step)
    dy = (f.eval(z + 1j * step) - f.eval(z - 1j * step)) / (2 * step)
    numeric = 0.5 * (dx - 1j * dy)
    return abs(fz - numeric)


def cr_residuals_sampled(model: CoframeModel, which: str = "j0", gamma=None,
                         seed: int = 0, count: int = 6,
                         step: float = 1e-5) -> dict:
    """Numerical cross-check of the exact residuals at sampled points.

    The residual 6-forms are the ones cr_residuals reduces, evaluated at
    the sample points rather than rebuilt.
    """
    points = sample_points(seed, count)
    worst = 0.0
    deriv_worst = 0.0
    for mu, six in _cr_forms(model, which, gamma).values():
        for z in points:
            for val in six.eval_terms(z).values():
                worst = max(worst, abs(val))
        for f in mu.terms.values():
            for z in points[:2]:
                deriv_worst = max(deriv_worst,
                                  derivative_sample_residual(f, z, step))
    return {
        "structure": which,
        "max_sampled_residual": worst,
        "derivative_check": deriv_worst,
    }
