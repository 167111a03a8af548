"""Sphere-bundle calculus: the tautological form, CR structures, G2 form.

Every structure here lives on the product of a homogeneous model with the
unit sphere worth of compatible 2-forms, coordinatized by one affine chart
z.  Coefficients are quotients of polynomials in (z, zbar) by powers of
(1 + z zbar), which is a class closed under the exterior differential, so
all integrability residuals come out as exact polynomial identities.  The
chart misses one point of each fiber sphere; a residual that vanishes
identically on the chart vanishes there too, by continuity, so no second
chart is built.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

from .connection import build_report, characteristic_connection, stage
from .exterior import (MERGED, CoframeModel, Form, ModelError, ext_d,
                       hodge_star)
from .repr import kappa_forms
from .scalar import (_SQRT3_FLOAT, DEFAULT_TOL, CScalar, Scalar, _cnorm,
                     cscalar, sqrt3, total)

HALF = Scalar(1) / 2


# -- fiber coefficient functions --------------------------------------------


class FiberFunction:
    """Quotient of a polynomial in (z, zbar) by (1 + z zbar)^k.

    Monomials are keyed by (p, q) meaning z^p zbar^q.  An exact numerator
    is held as integers over one denominator, as FLINT's fmpq_poly holds a
    rational polynomial: each coefficient is the four integers (a, b, c, e)
    of a + b sqrt3 + i(c + e sqrt3), all of them over the positive integer
    den, with no factor common to den and every integer.  A numerator with
    a float part is held as complex coefficients with den None; a monomial
    whose real and imaginary parts are both within the tolerance is left
    out.  Addition aligns denominators, multiplication adds the exponents,
    and both Wirtinger derivatives stay inside the class by the quotient
    rule.  A float product sums each monomial's products exactly rounded.
    reduce() divides out common (1 + z zbar) factors, and zero functions
    have an empty numerator.
    """

    __slots__ = ("coefs", "den", "k")

    def __init__(self, num=None, k: int = 0):
        store = {}
        for key, val in (num or {}).items():
            c = cscalar(val)
            if not c.is_zero():
                store[(int(key[0]), int(key[1]))] = c
        # a float value is tested again once rounded
        f = _normal(*_exact_parts(store), int(k))
        self.coefs, self.den, self.k = f.coefs, f.den, f.k

    @classmethod
    def const(cls, c) -> "FiberFunction":
        return cls({(0, 0): cscalar(c)})

    @property
    def num(self) -> dict:
        """The numerator as {(p, q): CScalar}."""
        if self.den is None:
            return {key: cscalar(c) for key, c in self.coefs.items()}
        den = self.den
        return {key: _cnorm(a, b, c, e, den)
                for key, (a, b, c, e) in self.coefs.items()}

    @property
    def is_exact(self) -> bool:
        return self.den is not None

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        if self.den is not None:
            return not self.coefs
        return all(_fzero(c, tol) for c in self.coefs.values())

    def max_mag(self) -> float:
        return max((abs(c) for _, c in _complex_items(self)), default=0.0)

    def conjugate(self) -> "FiberFunction":
        if self.den is None:
            return _fiber_of({(q, p): c.conjugate()
                              for (p, q), c in self.coefs.items()},
                             None, self.k)
        return _fiber_of({(q, p): (a, b, -c, -e)
                          for (p, q), (a, b, c, e) in self.coefs.items()},
                         self.den, self.k)

    def __add__(self, other):
        other = _as_fiber(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, exact = _operands(self, other)
        den = None
        if exact:
            da, db = self.den, other.den
            g = gcd(da, db)
            a, b, den = _scaled(a, db // g), _scaled(b, da // g), da // g * db
        add = _ring(den)[0]
        k = max(self.k, other.k)
        out = dict(_raise(a, k - self.k, add))
        for key, c in _raise(b, k - other.k, add).items():
            t = out.get(key)
            out[key] = c if t is None else add(t, c)
        return _normal(out, den, k)

    __radd__ = __add__

    def __neg__(self):
        scale = _ring(self.den)[2]
        return _fiber_of({key: scale(c, -1) for key, c in self.coefs.items()},
                         self.den, self.k)

    def __sub__(self, other):
        other = _as_fiber(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _as_fiber(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, exact = _operands(self, other)
        k = self.k + other.k
        if exact:
            return _normal(_convolve({}, a, b), self.den * other.den, k)
        return _normal(_fconvolve([(1, a, b)]), None, k)

    __rmul__ = __mul__

    def d_z(self) -> "FiberFunction":
        # quotient rule: (num' (1+w) - k zbar num) / (1+w)^(k+1), w = z zbar
        coefs, den, k = self.coefs, self.den, self.k
        add, _, scale = _ring(den)[:3]
        lifted = _raise({(p - 1, q): scale(c, p)
                         for (p, q), c in coefs.items() if p}, 1, add)
        if k:
            for (p, q), c in coefs.items():
                key = (p, q + 1)
                t = lifted.get(key)
                lifted[key] = scale(c, -k) if t is None \
                    else add(t, scale(c, -k))
        return _normal(lifted, den, k + 1).reduce()

    def d_zbar(self) -> "FiberFunction":
        return self.conjugate().d_z().conjugate()

    def reduce(self) -> "FiberFunction":
        coefs, k = self.coefs, self.k
        _, sub, _, is_zero, zero = _ring(self.den)
        while k > 0 and coefs:
            divided = _divide_once(coefs, sub, is_zero, zero)
            if divided is None:
                break
            coefs, k = divided, k - 1
        return self if k == self.k else _normal(coefs, self.den, k)

    def eval(self, z: complex) -> complex:
        # exactly rounded sums, so the value does not depend on the order
        # of the monomials in the numerator
        z = complex(z)
        zb = z.conjugate()
        terms = [c * z ** p * zb ** q for (p, q), c in _complex_items(self)]
        return total(terms, 0j) / (1 + (z * zb).real) ** self.k

    def __eq__(self, other):
        other = _as_fiber(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.coefs:
            return "FiberFunction(0)"
        parts = []
        for (p, q), c in sorted(self.num.items()):
            parts.append(f"z^{p} zb^{q}: ({c.re.to_string()})"
                         f"+i({c.im.to_string()})")
        return f"FiberFunction({'; '.join(parts)} / (1+z zb)^{self.k})"


def fiber_function(x) -> FiberFunction:
    """Coerce FiberFunctions and constants to FiberFunction."""
    return x if isinstance(x, FiberFunction) else FiberFunction.const(x)


def _as_fiber(x):
    try:
        return fiber_function(x)
    except TypeError:
        return NotImplemented


def _fiber_of(coefs, den, k):
    """A FiberFunction from parts already in normal form."""
    f = object.__new__(FiberFunction)
    f.coefs, f.den, f.k = coefs, den, k
    return f


def _complex_items(f):
    """((p, q), complex coefficient) in numerator order.  A float numerator
    gives its items as they are; an exact one rounds each coefficient as
    complex(CScalar) rounds it: a correctly rounded integer quotient does
    not depend on a common factor, so the shared denominator gives the same
    float as each coefficient's own."""
    den = f.den
    if den is None:
        return f.coefs.items()
    try:
        return [(key, complex(a / den + b / den * _SQRT3_FLOAT,
                              c / den + e / den * _SQRT3_FLOAT))
                for key, (a, b, c, e) in f.coefs.items()]
    except OverflowError:  # beyond the double range: Scalar gives inf
        return [(key, complex(c)) for key, c in f.num.items()]


def _complex_coefs(f):
    """The numerator of f as {(p, q): complex}."""
    return f.coefs if f.den is None else dict(_complex_items(f))


def _exact_parts(num):
    """(coefs, den) of a numerator of nonzero CScalars: integer parts over
    the lcm of their denominators, or complex values and None when one has
    a float part."""
    den = 1
    for c in num.values():
        if c._d is None:
            return {key: complex(c) for key, c in num.items()}, None
        den = den // gcd(den, c._d) * c._d
    # the lcm of normal forms leaves no common factor
    return {key: (c._a * (den // c._d), c._b * (den // c._d),
                  c._c * (den // c._d), c._e * (den // c._d))
            for key, c in num.items()}, den


def _normal(coefs, den, k):
    """The FiberFunction coefs / den over (1 + z zbar)^k: zero monomials
    left out and, on integer parts, the common factor divided out.  coefs
    is a new dict, which this takes over."""
    if den is None:
        coefs = {key: c for key, c in coefs.items() if not _fzero(c)}
    else:
        for key in [key for key, t in coefs.items() if not any(t)]:
            del coefs[key]
        g = den
        for t in coefs.values():
            if g == 1:
                break
            g = gcd(g, *t)
        if g != 1:
            coefs = {key: (a // g, b // g, c // g, e // g)
                     for key, (a, b, c, e) in coefs.items()}
            den //= g
    if not coefs:
        return _fiber_of({}, 1, 0)
    return _fiber_of(coefs, den, k)


def _operands(f, g):
    """The numerators of f and g on one path, and whether it is the exact
    one: integer parts when both are exact, complex values otherwise."""
    if f.den is not None and g.den is not None:
        return f.coefs, g.coefs, True
    return _complex_coefs(f), _complex_coefs(g), False


def _scaled(coefs, n):
    return coefs if n == 1 else {key: _qscale(t, n)
                                 for key, t in coefs.items()}


def _ring(den):
    """(add, sub, scale by an int, is_zero, zero) on the coefficients
    of a numerator: integer parts when den is an int, complex values when
    it is None."""
    if den is None:
        return operator.add, operator.sub, operator.mul, _fzero, 0j
    return _qadd, _qsub, _qscale, _qzero, (0, 0, 0, 0)


def _fzero(x, tol=DEFAULT_TOL):
    return abs(x.real) <= tol and abs(x.imag) <= tol


def _qadd(x, y):
    return x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]


def _qsub(x, y):
    return x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]


def _qscale(x, n):
    return n * x[0], n * x[1], n * x[2], n * x[3]


def _qzero(x):
    return not any(x)


def _convolve(out, a, b, n=1):
    """Add n times the product of the integer numerators a and b into out."""
    for (p, q), (a1, b1, c1, e1) in a.items():
        if n != 1:
            a1, b1, c1, e1 = n * a1, n * b1, n * c1, n * e1
        for (r, s), (a2, b2, c2, e2) in b.items():
            # (x1 + i y1)(x2 + i y2) with x = a + b*sqrt3, y = c + e*sqrt3
            x = (a1 * a2 + 3 * (b1 * b2 - e1 * e2) - c1 * c2,
                 a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2,
                 a1 * c2 + c1 * a2 + 3 * (b1 * e2 + e1 * b2),
                 a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2)
            key = (p + r, q + s)
            t = out.get(key)
            out[key] = x if t is None else (t[0] + x[0], t[1] + x[1],
                                            t[2] + x[2], t[3] + x[3])
    return out


def _fconvolve(products):
    """The product numerator of (sign, a, b) triples of complex numerators:
    sign times the product of a and b, summed.  Each monomial is the
    total of the rounded products x * y that reach it: their correctly
    rounded sum, so it does not depend on the order of the terms."""
    parts = {}
    for sign, a, b in products:
        for (p, q), x in a.items():
            if sign < 0:
                x = -x
            for (r, s), y in b.items():
                key = (p + r, q + s)
                t = parts.get(key)
                if t is None:
                    parts[key] = [x * y]
                else:
                    t.append(x * y)
    return {key: total(ts) for key, ts in parts.items()}


def _raise(coefs, times, add):
    """Multiply a numerator by (1 + z zbar)^times."""
    for _ in range(times):
        nxt = {}
        for (p, q), c in coefs.items():
            for key in ((p, q), (p + 1, q + 1)):
                t = nxt.get(key)
                nxt[key] = c if t is None else add(t, c)
        coefs = nxt
    return coefs


def _divide_once(coefs, sub, is_zero, zero):
    """Divide a numerator by (1 + z zbar) or report failure with None."""
    charges = {}
    for (p, q), c in coefs.items():
        charges.setdefault(p - q, {})[min(p, q)] = c
    out = {}
    for charge, poly in charges.items():
        top = max(poly)
        if top == 0:
            return None  # nonzero constant sector, not divisible
        # synthetic division by (w + 1) from the highest w-power down
        carry = poly[top]
        quot = [(top - 1, carry)]
        for m in range(top - 1, 0, -1):
            carry = sub(poly.get(m, zero), carry)
            quot.append((m - 1, carry))
        if not is_zero(sub(poly.get(0, zero), carry)):
            return None
        for m, c in quot:
            if not is_zero(c):
                out[(m + charge, m) if charge > 0 else (m, m - charge)] = c
    return out


# -- exterior forms with fiber coefficients ---------------------------------


class TwistorForm(Form):
    """Exterior form over (model coframe, dz, dzbar) with FiberFunction
    coefficients.  Leg dim+1 is dz and leg dim+2 is dzbar; after a change
    to the split basis those two slots denote the orthonormal fiber pair
    instead."""

    __slots__ = ()

    ring = staticmethod(fiber_function)
    n_extra = 2

    @classmethod
    def leg(cls, model, index, f=1):
        return cls(model, 1, {(index,): f})

    @classmethod
    def lift(cls, form: Form) -> "TwistorForm":
        return cls(form.model, form.degree, form.terms)

    def wedge(self, other: "TwistorForm") -> "TwistorForm":
        # common (1 + z zbar) factors would otherwise compound through
        # every later product, so each coefficient leaves reduced
        if self.model is not other.model:
            raise ModelError("forms live on different models")
        # the pairs of each output key, in the engine's order
        pairs = {}
        for ka, fa in self.terms.items():
            for kb, fb in other.terms.items():
                key, sign = MERGED[ka, kb]
                if sign:
                    pairs.setdefault(key, []).append((sign, fa, fb))
        exact = self.is_exact and other.is_exact
        terms = {}
        for key, group in pairs.items():
            if exact or all(fa.den and fb.den for _, fa, fb in group):
                # one integer sum of products over the common denominator
                # and the common power of (1 + z zbar)
                den, k = 1, 0
                for _, fa, fb in group:
                    d = fa.den * fb.den
                    den, k = den // gcd(den, d) * d, max(k, fa.k + fb.k)
                out = {}
                for sign, fa, fb in group:
                    _convolve(out, _raise(fa.coefs, k - fa.k - fb.k, _qadd),
                              fb.coefs, sign * den // (fa.den * fb.den))
                f = _normal(out, den, k)
            else:
                # one exactly rounded sum per monomial over the common
                # power of (1 + z zbar)
                k = max(fa.k + fb.k for _, fa, fb in group)
                f = _normal(_fconvolve(
                    [(sign, _raise(_complex_coefs(fa), k - fa.k - fb.k,
                                   operator.add), _complex_coefs(fb))
                     for sign, fa, fb in group]), None, k)
            if f.coefs:
                terms[key] = f.reduce()
        return self._normal(self.model, self.degree + other.degree, terms)

    def d(self) -> "TwistorForm":
        out = ext_d(self)
        dz, dzb = (self.model.dim + 1,), (self.model.dim + 2,)
        for legs, f in self.terms.items():
            for leg, df in ((dz, f.d_z()), (dzb, f.d_zbar())):
                key, sign = MERGED[leg, legs]
                if sign:
                    out._merge(key, df if sign > 0 else -df)
        out._prune()
        return out

    def conjugate(self) -> "TwistorForm":
        dz, dzb = self.model.dim + 1, self.model.dim + 2
        swap = {dz: dzb, dzb: dz}
        return TwistorForm(self.model, self.degree,
                           [(tuple(swap.get(l, l) for l in legs), f.conjugate())
                            for legs, f in self.terms.items()])

    def real(self) -> "TwistorForm":
        return (self + self.conjugate()) * HALF

    def imag(self) -> "TwistorForm":
        return (self - self.conjugate()) * CScalar(0, Fraction(-1, 2))

    def max_norm(self) -> float:
        return max((f.reduce().max_mag() for f in self.terms.values()),
                   default=0.0)

    def eval_terms(self, z: complex):
        return {legs: f.eval(z) for legs, f in self.terms.items()}


# -- the coframe on the twistor space ---------------------------------------


def _fiber(entries, k=0):
    return FiberFunction(entries, k)


def _i(x=1):
    return CScalar(0, x)


# (1 + z zbar), its inverse, and the coefficients c_I of the covariant
# differential dz + sum_I c_I gamma^I of the fiber coordinate
_ONE_W = _fiber({(0, 0): 1, (1, 1): 1})
_INV_ONE_W = _fiber({(0, 0): 1}, 1)
_C = (_fiber({(0, 0): _i(Fraction(-1, 2)), (2, 0): _i(Fraction(1, 2))}),
      _fiber({(0, 0): Fraction(1, 2), (2, 0): Fraction(1, 2)}),
      _fiber({(1, 0): _i()}))


def tautological_form(model: CoframeModel) -> TwistorForm:
    """The sphere-parametrized 2-form built from the three basic sections."""
    k1, k2, k3 = (TwistorForm.lift(k) for k in kappa_forms(model))
    b1 = _fiber({(1, 0): 1, (0, 1): 1}, 1)
    b2 = _fiber({(0, 1): _i(), (1, 0): _i(-1)}, 1)
    b3 = _fiber({(0, 0): 1, (1, 1): -1}, 1)
    return k1 * b1 + k2 * b2 + k3 * b3


def omega_normalization(model: CoframeModel) -> FiberFunction:
    """*(omega ^ *omega) as a fiber function; equals 5 identically."""
    om = tautological_form(model)
    top = om.wedge(hodge_star(om))
    return top.coeff((1, 2, 3, 4, 5)).reduce()


def _connection_terms(model: CoframeModel, tol: float) -> TwistorForm:
    """sum_I c_I gamma^I for the characteristic connection at tol."""
    gamma, _ = characteristic_connection(model, tol)
    g = [TwistorForm.lift(f) for f in gamma.gammas]
    return g[0] * _C[0] + g[1] * _C[1] + g[2] * _C[2]


@stage
def twistor_coframe(model: CoframeModel, tol: float = DEFAULT_TOL) -> dict:
    """The displayed complex coframe and its real orthonormal version.

    It is built on the characteristic connection, checked at tol, and kept
    by the model at tol.
    """
    dz = TwistorForm.leg(model, model.dim + 1)
    h = (dz + _connection_terms(model, tol)) * _INV_ONE_W
    s3 = sqrt3()

    th = [TwistorForm.leg(model, i + 1) for i in range(5)]

    u = (th[0] * _fiber({(0, 0): -1, (1, 1): 4, (2, 2): -1}, 2)
         + th[1] * _fiber({(2, 0): _i(s3), (0, 2): _i(-s3)}, 2)
         + th[2] * _fiber({(2, 1): -s3, (1, 2): -s3,
                           (1, 0): s3, (0, 1): s3}, 2)
         + th[3] * _fiber({(2, 0): -s3, (0, 2): -s3}, 2)
         + th[4] * _fiber({(2, 1): _i(-s3), (1, 2): _i(s3),
                           (1, 0): _i(s3), (0, 1): _i(-s3)}, 2))

    n1 = (th[0] * _fiber({(2, 1): _i(2 * s3), (1, 0): _i(-2 * s3)}, 2)
          + th[1] * _fiber({(3, 0): -2, (0, 1): -2}, 2)
          + th[2] * _fiber({(0, 0): _i(-1), (2, 0): _i(3),
                            (1, 1): _i(3), (3, 1): _i(-1)}, 2)
          + th[3] * _fiber({(3, 0): _i(-2), (0, 1): _i(2)}, 2)
          + th[4] * _fiber({(0, 0): -1, (2, 0): -3,
                            (1, 1): 3, (3, 1): 1}, 2))

    n2 = (th[0] * _fiber({(2, 0): _i(2 * s3)}, 2)
          + th[1] * _fiber({(4, 0): 1, (0, 0): -1}, 2)
          + th[2] * _fiber({(3, 0): _i(-2), (1, 0): _i(2)}, 2)
          + th[3] * _fiber({(4, 0): _i(1), (0, 0): _i(1)}, 2)
          + th[4] * _fiber({(3, 0): 2, (1, 0): 2}, 2))

    theta = [n1.real(), n1.imag(), n2.real(), n2.imag(), u,
             -h.imag(), h.real()]
    return {"omega": tautological_form(model), "h": h, "u": u,
            "n1": n1, "n2": n2, "theta": theta}


# -- metric checks ----------------------------------------------------------


def _horizontal_dot(a: TwistorForm, b: TwistorForm) -> FiberFunction:
    """Complex-bilinear product of the pullback-metric components."""
    out = FiberFunction()
    for i in range(1, 6):
        out = out + a.coeff((i,)) * b.coeff((i,))
    return out.reduce()


def _vertical_components(a: TwistorForm):
    """Components along the orthonormal fiber pair, from the dz parts."""
    model = a.model
    p = a.coeff((model.dim + 1,))
    q = a.coeff((model.dim + 2,))
    comp6 = (_ONE_W * _i()) * (q - p)
    comp7 = _ONE_W * (p + q)
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
    return a - covariant_dz * p - covariant_dzb * q


def coframe_gram(model: CoframeModel, tol: float = DEFAULT_TOL):
    """7x7 Gram matrix of the real coframe, as reduced fiber functions.

    Horizontal components pair through the pulled-back metric; the fiber
    pair through the spherical metric that makes the displayed forms
    unit (the sphere of radius one half).
    """
    cf = twistor_coframe(model, tol)
    theta = cf["theta"]
    cov_dz = cf["h"] * _ONE_W
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


def gram_residual(model: CoframeModel, tol: float = DEFAULT_TOL) -> float:
    gram = coframe_gram(model, tol)
    worst = 0.0
    for a in range(7):
        for b in range(7):
            expect = FiberFunction.const(1 if a == b else 0)
            worst = max(worst, (gram[a][b] - expect).max_mag())
    return worst


def null_span_checks(model: CoframeModel, tol: float = DEFAULT_TOL) -> dict:
    """The displayed bilinear relations among u, n1, n2 and unitality."""
    cf = twistor_coframe(model, tol)
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


@stage
def _cr_forms(model: CoframeModel, which: str, tol: float) -> dict:
    """Each coframe member mu with its residual 6-form d(mu) ^ u ^ span.

    The forms are kept per structure by the model at tol and serve both
    the exact residuals and the sampled cross-check.
    """
    cf = twistor_coframe(model, tol)
    span = _structure_span(cf, which)
    u = cf["u"]
    wedge_all = u.wedge(span[0]).wedge(span[1]).wedge(span[2])
    names = ("transversal", "fiber", "null-1", "null-2")
    return {name: (mu, mu.d().wedge(wedge_all))
            for name, mu in zip(names, [u] + span)}


def cr_residuals(model: CoframeModel, which: str = "j0",
                 tol: float = DEFAULT_TOL) -> dict:
    """The four integrability residuals of one almost CR structure.

    Each residual is the largest numerator coefficient of the 6-form
    obtained by wedging the differential of a coframe member with the
    transversal 1-form and the chosen span of (1,0)-forms; an integrable
    structure makes all four vanish identically.  tol is both the
    integrability threshold and the tolerance at which the characteristic
    connection is checked.
    """
    residuals = {name: six.max_norm() for name, (_mu, six)
                 in _cr_forms(model, which, tol).items()}
    worst = max(residuals.values())
    return {
        "structure": which,
        "residuals": residuals,
        "max_residual": worst,
        "integrable": worst <= tol,
    }


def predicted_verdict(model: CoframeModel, tol: float = DEFAULT_TOL) -> dict:
    """Integrability forecast from torsion type and curvature content: it
    reads only those fields of the report."""
    rep = build_report(model, tol)
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


def g2_form(model: CoframeModel, tol: float = DEFAULT_TOL) -> dict:
    """The natural 3-form and its match with the real coframe expression."""
    cf = twistor_coframe(model, tol)
    u, h, n1, n2 = cf["u"], cf["h"], cf["n1"], cf["n2"]
    ihalf = FiberFunction.const(_i(Fraction(1, 2)))
    phi1 = (n1.wedge(n1.conjugate()) - n2.wedge(n2.conjugate())) \
        .wedge(u) * ihalf
    phi2 = (n1.wedge(n2.conjugate()).wedge(h)
            - n1.conjugate().wedge(n2).wedge(h.conjugate())) * ihalf
    phi3 = u.wedge(h).wedge(h.conjugate()) * ihalf
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

    return {
        "phi": phi,
        "match_residual": match_residual,
        "match": match_residual == 0.0,
    }


def quarter_identity(model: CoframeModel, tol: float = DEFAULT_TOL) -> dict:
    """The stated quarter-normalization of the transversal 1-form.

    In the split basis the fiber area form wedged with the square of the
    tautological form, starred and quartered, must reproduce the
    transversal form.  Both orientation signs are reported so that a
    convention mismatch shows up instead of being absorbed.
    """
    if model.n_fiber != 0:
        raise ModelError("the quarter identity check needs a base model")
    cf = twistor_coframe(model, tol)
    om = cf["omega"]
    u = cf["u"]
    eta2 = TwistorForm(model, 2, {(model.dim + 1, model.dim + 2): 1})
    six = eta2.wedge(om).wedge(om)
    quarter = hodge_star(six, 7) * Fraction(1, 4)
    res_plus = (quarter - u).max_norm()
    res_minus = (quarter + u).max_norm()
    return {
        "residual": res_plus,
        "residual_opposite_orientation": res_minus,
        "consistent": res_plus == 0.0,
    }


# -- float sampling fallback ------------------------------------------------

# sample points per structure, and the central-difference step
_SAMPLES = 6
_STEP = 1e-5


def sample_points(seed: int, count: int):
    """Deterministic complex sample points away from the chart edge."""
    import random

    rng = random.Random(seed)
    return [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            for _ in range(count)]


def derivative_sample_residual(f: FiberFunction, points) -> float:
    """Formal Wirtinger derivative against central differences: the
    largest gap over the points."""
    fz = f.d_z()
    worst = 0.0
    for z in points:
        dx = (f.eval(z + _STEP) - f.eval(z - _STEP)) / (2 * _STEP)
        dy = (f.eval(z + 1j * _STEP) - f.eval(z - 1j * _STEP)) / (2 * _STEP)
        numeric = 0.5 * (dx - 1j * dy)
        worst = max(worst, abs(fz.eval(z) - numeric))
    return worst


def cr_residuals_sampled(model: CoframeModel, which: str = "j0",
                         seed: int = 0, tol: float = DEFAULT_TOL) -> dict:
    """Numerical cross-check of the exact residuals at sampled points.

    The residual 6-forms are the ones cr_residuals reduces at the same
    tol, evaluated at the sample points rather than rebuilt.
    """
    points = sample_points(seed, _SAMPLES)
    worst = 0.0
    deriv_worst = 0.0
    for mu, six in _cr_forms(model, which, tol).values():
        for z in points:
            for val in six.eval_terms(z).values():
                worst = max(worst, abs(val))
        for f in mu.terms.values():
            deriv_worst = max(deriv_worst,
                              derivative_sample_residual(f, points[:2]))
    return {
        "structure": which,
        "max_sampled_residual": worst,
        "derivative_check": deriv_worst,
    }
