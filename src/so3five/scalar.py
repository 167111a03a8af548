"""Exact arithmetic in the field Q(sqrt 3), a float fallback, and field-generic
linear algebra.

Every number flowing through the public JSON formats is a :class:`Scalar`:
either an exact element ``(n + m*sqrt(3))/d`` held as three Python integers
with ``d > 0`` and ``gcd(n, m, d) = 1``, or a plain float.  The rational
parts ``a = n/d`` and ``b = m/d`` are :class:`~fractions.Fraction` values
built on demand; arithmetic never forms them.  A :class:`CScalar` in
Q(sqrt 3, i) is exact as five integers ``(a + b*sqrt3 + i(c + e*sqrt3))/d``
in the same normal form, and holds two Scalar parts once either is a float.
Exact and float scalars mix freely; any operation that touches a float
yields a float.  Equality is exact: floats compare by value.  A tolerance is
an argument (``is_zero(tol)`` and the ``tol`` of the linear algebra),
defaulting to :data:`DEFAULT_TOL`.

The wire format is a tiny grammar::

    scalar   := rational | rational "*sqrt3" | rational ("+"|"-") rational "*sqrt3" | decimal
    rational := ["+"|"-"] digits ["/" digits]

"3/2*sqrt3" parses to (0, 3/2), "-1/2" to (-1/2, 0), "0.25" to a float.

The linear algebra here (rref, nullspace, solve, det, spectral projectors) is
generic over the element type: it works for Scalar and for the complex
numbers in :class:`CScalar`, choosing pivots by float magnitude and testing
zeroness exactly on exact entries, against ``tol * max-row-norm`` on float
entries.
"""

from __future__ import annotations

import math
import os
import re
from fractions import Fraction
from math import gcd

DEFAULT_TOL = 1e-9

_SQRT3_FLOAT = math.sqrt(3.0)
_new = object.__new__


def get_tol() -> float:
    """The SO3FIVE_TOL environment variable as a float, or DEFAULT_TOL when
    it is unset; ValueError when it is not a finite number >= 0.  The
    library never reads it; the command line does, when no --tol is given."""
    raw = os.environ.get("SO3FIVE_TOL")
    try:
        tol = DEFAULT_TOL if raw is None else float(raw)
    except ValueError:
        tol = math.nan
    if math.isfinite(tol) and tol >= 0:
        return tol
    raise ValueError(f"SO3FIVE_TOL must be a finite number >= 0, not {raw!r}")


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_TRAILING_RATIONAL_RE = re.compile(r"([+-]?\d+(?:/\d+)?)$")


def _rat_str(n: int, d: int) -> str:
    """The reduced fraction n/d, d > 0, as "n" or "n/d"."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _mk(n, m, d):
    """The exact Scalar (n + m*sqrt3)/d, already in normal form."""
    s = _new(Scalar)
    s._n = n
    s._m = m
    s._d = d
    s._f = None
    return s


def _norm(n, m, d):
    """The exact Scalar (n + m*sqrt3)/d for any d > 0."""
    if d != 1:
        g = gcd(n, m, d)
        if g != 1:
            return _mk(n // g, m // g, d // g)
    return _mk(n, m, d)


class Scalar:
    """One number: exact ``(n + m*sqrt3)/d`` or a float."""

    __slots__ = ("_n", "_m", "_d", "_f")

    def __init__(self, a=0, b=0, _float=None):
        if _float is not None:
            self._n = self._m = self._d = None
            self._f = float(_float)
            return
        self._f = None
        if type(a) is int and type(b) is int:
            self._n, self._m, self._d = a, b, 1
            return
        a = a if type(a) is Fraction else Fraction(a)
        b = b if type(b) is Fraction else Fraction(b)
        da, db = a.denominator, b.denominator
        d = da // gcd(da, db) * db  # lcm of reduced parts: already normal
        self._n, self._m, self._d = (a.numerator * (d // da),
                                     b.numerator * (d // db), d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, a, b=0) -> "Scalar":
        return cls(a, b)

    @classmethod
    def from_float(cls, f: float) -> "Scalar":
        return cls(_float=f)

    @classmethod
    def from_string(cls, s: str) -> "Scalar":
        s = s.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar string")
        if s.endswith("*sqrt3"):
            head = s[: -len("*sqrt3")]
            m = _TRAILING_RATIONAL_RE.search(head)
            if not m:
                raise ValueError(f"bad scalar string {s!r}")
            b = Fraction(m.group(1))
            rest = head[: m.start(1)]
            if rest == "":
                return cls(0, b)
            # rest is the rational part followed by an explicit sign that the
            # trailing regex may or may not have swallowed
            if rest.endswith("+"):
                a_str = rest[:-1]
            elif rest.endswith("-"):
                a_str = rest[:-1]
                b = -b  # the sign char was not captured by the tail match
            else:
                a_str = rest  # sign was captured into b already
            if not _RATIONAL_RE.match(a_str):
                raise ValueError(f"bad scalar string {s!r}")
            return cls(Fraction(a_str), b)
        if _RATIONAL_RE.match(s):
            return cls(Fraction(s))
        try:
            return cls(_float=float(s))
        except ValueError:
            raise ValueError(f"bad scalar string {s!r}") from None

    # -- kind and components ----------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._f is None

    @property
    def a(self) -> Fraction:
        if self._f is not None:
            raise TypeError("float scalar has no rational part")
        return Fraction(self._n, self._d)

    @property
    def b(self) -> Fraction:
        if self._f is not None:
            raise TypeError("float scalar has no sqrt3 part")
        return Fraction(self._m, self._d)

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        if self._f is not None:
            return self._f
        # n/d and m/d are correctly rounded, so this is float(a) +
        # float(b)*sqrt3 on the reduced parts
        try:
            return self._n / self._d + self._m / self._d * _SQRT3_FLOAT
        except OverflowError:  # beyond the double range
            return math.copysign(math.inf, self.sign())

    def to_string(self) -> str:
        if self._f is not None:
            return repr(self._f)
        n, m, d = self._n, self._m, self._d
        if not m:
            return _rat_str(n, d)
        if not n:
            return _rat_str(m, d) + "*sqrt3"
        sign = "+" if m > 0 else "-"
        return _rat_str(n, d) + sign + _rat_str(abs(m), d) + "*sqrt3"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Scalar({self.to_string()!r})"

    # -- predicates --------------------------------------------------------

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        if self._f is None:
            return not self._n and not self._m
        return abs(self._f) <= tol

    def sign(self) -> int:
        """Exact sign for exact scalars, float sign otherwise."""
        if self._f is not None:
            return (self._f > 0) - (self._f < 0)
        n, m = self._n, self._m  # d > 0 does not change the sign
        if not m:
            return (n > 0) - (n < 0)
        if not n:
            return 1 if m > 0 else -1
        if n > 0 and m > 0:
            return 1
        if n < 0 and m < 0:
            return -1
        # opposite signs: compare n^2 with 3 m^2 (equality impossible: sqrt3
        # is irrational, so n + m*sqrt3 = 0 forces n = m = 0)
        if n > 0:  # m < 0
            return 1 if n * n > 3 * m * m else -1
        return 1 if 3 * m * m > n * n else -1

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if type(x) is int:
            return _mk(x, 0, 1)
        if isinstance(x, bool):
            return NotImplemented
        if isinstance(x, int):
            return _mk(int(x), 0, 1)
        if isinstance(x, Fraction):
            return _mk(x.numerator, 0, x.denominator)
        if isinstance(x, float):
            return Scalar(_float=x)
        return NotImplemented

    def __add__(self, other):
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self._f is None and o._f is None:
            if not self._n and not self._m:
                return o
            if not o._n and not o._m:
                return self
            d = self._d
            if d == o._d:
                return _norm(self._n + o._n, self._m + o._m, d)
            d2 = o._d
            return _norm(self._n * d2 + o._n * d, self._m * d2 + o._m * d,
                         d * d2)
        return Scalar(_float=float(self) + float(o))

    __radd__ = __add__

    def __neg__(self):
        if self._f is None:
            return _mk(-self._n, -self._m, self._d)
        return Scalar(_float=-self._f)

    def __sub__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self._f is None and o._f is None:
            n1, m1, n2, m2 = self._n, self._m, o._n, o._m
            if not (n1 or m1) or not (n2 or m2):
                return ZERO
            if not m1 and not m2:
                n, d = n1 * n2, self._d * o._d
                if d != 1:
                    g = gcd(n, d)
                    if g != 1:
                        return _mk(n // g, 0, d // g)
                return _mk(n, 0, d)
            return _norm(n1 * n2 + 3 * m1 * m2, n1 * m2 + m1 * n2,
                         self._d * o._d)
        return Scalar(_float=float(self) * float(o))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self._f is not None:
            return Scalar(_float=1.0 / self._f)
        n, m, d = self._n, self._m, self._d
        if not m:
            if not n:
                raise ZeroDivisionError("scalar division by zero")
            return _mk(-d, 0, -n) if n < 0 else _mk(d, 0, n)
        norm = n * n - 3 * m * m  # nonzero: sqrt3 irrational
        if norm < 0:
            return _norm(-d * n, d * m, -norm)
        return _norm(d * n, -d * m, norm)

    def __truediv__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o._f is not None and o._f == 0.0:
            raise ZeroDivisionError("scalar division by zero")
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self._f is None and o._f is None:  # normal forms are unique
            return self._n == o._n and self._m == o._m and self._d == o._d
        return float(self) == float(o)

    # exact and float scalars compare through float, so two exact scalars
    # can both equal one float and differ: keep unhashable
    __hash__ = None


def sqrt3() -> Scalar:
    return Scalar(0, 1)


def scalar(x) -> Scalar:
    """Coerce ints, Fractions, floats, strings and Scalars to Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return Scalar.from_string(x)
    s = Scalar._coerce(x)
    if s is NotImplemented:
        raise TypeError(f"cannot make a Scalar from {type(x).__name__}")
    return s


ZERO = Scalar(0)


def _cmk(a, b, c, e, d):
    """The exact CScalar (a + b*sqrt3 + i(c + e*sqrt3))/d, in normal form."""
    z = _new(CScalar)
    z._a = a
    z._b = b
    z._c = c
    z._e = e
    z._d = d
    return z


def _cnorm(a, b, c, e, d):
    """The exact CScalar (a + b*sqrt3 + i(c + e*sqrt3))/d for any d > 0."""
    if d != 1:
        g = gcd(a, b, c, e, d)
        if g != 1:
            return _cmk(a // g, b // g, c // g, e // g, d // g)
    return _cmk(a, b, c, e, d)


def _five(re, im):
    """The five integers of the exact CScalar re + i*im."""
    d1, d2 = re._d, im._d
    if d1 == d2:
        return re._n, re._m, im._n, im._m, d1
    g = gcd(d1, d2)
    f1, f2 = d2 // g, d1 // g  # the lcm of two normal forms is normal
    return re._n * f1, re._m * f1, im._n * f2, im._m * f2, d1 * f1


def _cjoin(re, im):
    """The CScalar re + i*im of two Scalars: five integers when both are
    exact, the two parts as they are otherwise."""
    if re._f is None and im._f is None:
        return _cmk(*_five(re, im))
    z = _new(CScalar)
    z._d = None
    z._re = re
    z._im = im
    return z


def is_exact_zero(x):
    """True when the Scalar or CScalar x is an exact zero, never for a
    float: a product with such a factor is an exact zero too."""
    if type(x) is CScalar:
        return x._d is not None and not (x._a or x._b or x._c or x._e)
    return x._f is None and not x._n and not x._m


def _products(p, q, r, s):
    """p*q + r*s with each product that has an exact-zero factor left out."""
    if is_exact_zero(p) or is_exact_zero(q):
        return ZERO if is_exact_zero(r) or is_exact_zero(s) else r * s
    if is_exact_zero(r) or is_exact_zero(s):
        return p * q
    return p * q + r * s


class CScalar:
    """Complex number with Scalar real and imaginary parts.

    Only what the spinor and twistor computations need: ring operations,
    conjugation, division, magnitude.  An exact value is the five integers
    ``(a, b, c, e, d)``; ``_d is None`` marks one with a float part, which
    keeps its parts as two Scalars ``_re`` and ``_im``.
    """

    __slots__ = ("_a", "_b", "_c", "_e", "_d", "_re", "_im")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._c, self._e, self._d = re, 0, im, 0, 1
            return
        re, im = scalar(re), scalar(im)
        if re._f is None and im._f is None:
            self._a, self._b, self._c, self._e, self._d = _five(re, im)
        else:
            self._d, self._re, self._im = None, re, im

    @property
    def re(self) -> Scalar:
        if self._d is None:
            return self._re
        return _norm(self._a, self._b, self._d)

    @property
    def im(self) -> Scalar:
        if self._d is None:
            return self._im
        return _norm(self._c, self._e, self._d)

    @property
    def is_exact(self) -> bool:
        return self._d is not None

    def conjugate(self) -> "CScalar":
        if self._d is None:
            return _cjoin(self._re, -self._im)
        return _cmk(self._a, self._b, -self._c, -self._e, self._d)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        if self._d is None:
            return self._re.is_zero(tol) and self._im.is_zero(tol)
        return not (self._a or self._b or self._c or self._e)

    def mag(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    @staticmethod
    def _coerce(x):
        if isinstance(x, CScalar):
            return x
        if isinstance(x, complex):
            return _cjoin(Scalar(_float=x.real), Scalar(_float=x.imag))
        s = Scalar._coerce(x)
        if s is NotImplemented:
            return NotImplemented
        if s._f is None:
            return _cmk(s._n, s._m, 0, 0, s._d)
        return _cjoin(s, ZERO)

    def __add__(self, other):
        o = other if type(other) is CScalar else CScalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._d
        if d is None or o._d is None:
            return _cjoin(self.re + o.re, self.im + o.im)
        if d == o._d:
            return _cnorm(self._a + o._a, self._b + o._b, self._c + o._c,
                          self._e + o._e, d)
        d2 = o._d
        return _cnorm(self._a * d2 + o._a * d, self._b * d2 + o._b * d,
                      self._c * d2 + o._c * d, self._e * d2 + o._e * d,
                      d * d2)

    __radd__ = __add__

    def __neg__(self):
        if self._d is None:
            return _cjoin(-self._re, -self._im)
        return _cmk(-self._a, -self._b, -self._c, -self._e, self._d)

    def __sub__(self, other):
        o = CScalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = other if type(other) is CScalar else CScalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self._d is None or o._d is None:
            sr, si, orr, oi = self.re, self.im, o.re, o.im
            # a product with an exact-zero factor is left out, so that a
            # float part cannot turn an exact part into a float
            if is_exact_zero(sr) or is_exact_zero(orr):
                return _cjoin(_products(sr, orr, -si, oi),
                              _products(sr, oi, si, orr))
            if is_exact_zero(si):
                if is_exact_zero(oi):
                    return _cjoin(sr * orr, ZERO)
                return _cjoin(sr * orr, sr * oi)
            if is_exact_zero(oi):
                return _cjoin(sr * orr, si * orr)
            return _cjoin(sr * orr - si * oi, sr * oi + si * orr)
        # (x1 + i y1)(x2 + i y2) with x = a + b*sqrt3, y = c + e*sqrt3
        a1, b1, c1, e1 = self._a, self._b, self._c, self._e
        a2, b2, c2, e2 = o._a, o._b, o._c, o._e
        return _cnorm(a1 * a2 + 3 * (b1 * b2 - e1 * e2) - c1 * c2,
                      a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2,
                      a1 * c2 + c1 * a2 + 3 * (b1 * e2 + e1 * b2),
                      a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2,
                      self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "CScalar":
        if self._d is None:
            n = self._re * self._re + self._im * self._im
            return _cjoin(self._re / n, -self._im / n)
        a, b, c, e, d = self._a, self._b, self._c, self._e, self._d
        # 1/z = d (x - i y) / (x^2 + y^2), and x^2 + y^2 = p + q*sqrt3 is
        # inverted by its conjugate over the norm p^2 - 3 q^2
        p = a * a + 3 * b * b + c * c + 3 * e * e
        q = 2 * (a * b + c * e)
        norm = p * p - 3 * q * q
        if not norm:
            raise ZeroDivisionError("scalar division by zero")
        if norm < 0:
            d, norm = -d, -norm
        return _cnorm(d * (a * p - 3 * b * q), d * (b * p - a * q),
                      d * (3 * e * q - c * p), d * (c * q - e * p), norm)

    def __truediv__(self, other):
        o = CScalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, other):
        o = other if type(other) is CScalar else CScalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self._d is None or o._d is None:
            return self.re == o.re and self.im == o.im
        return (self._d == o._d and self._a == o._a and self._b == o._b
                and self._c == o._c and self._e == o._e)

    __hash__ = None

    def __repr__(self) -> str:
        return f"CScalar({self.re.to_string()!r}, {self.im.to_string()!r})"


I = CScalar(0, 1)


def cscalar(x) -> CScalar:
    o = CScalar._coerce(x)
    if o is NotImplemented:
        raise TypeError(f"cannot make a CScalar from {type(x).__name__}")
    return o


# ---------------------------------------------------------------------------
# field-generic linear algebra
# ---------------------------------------------------------------------------


def _mag(x) -> float:
    if isinstance(x, CScalar):
        return x.mag()
    return abs(float(x))


def _zero_like(x):
    return CScalar(0, 0) if isinstance(x, CScalar) else Scalar(0)


def _one_like(x):
    return CScalar(1, 0) if isinstance(x, CScalar) else Scalar(1)


def _matrix_scale(rows) -> float:
    best = 0.0
    for row in rows:
        s = math.sqrt(sum(_mag(x) ** 2 for x in row))
        best = max(best, s)
    return best if best > 0 else 1.0


def _negligible(x, scale: float, tol: float) -> bool:
    if x.is_exact:
        return x.is_zero()
    return _mag(x) <= tol * scale


def rref(rows, tol: float = DEFAULT_TOL):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns).

    Pivots are chosen by float magnitude; a float entry counts as zero when
    its magnitude is at most tol * (max row norm of the input).  Rows are
    held as {column: entry} without their exact zeros, so a row operation
    visits only the pivot row's entries.
    """
    if not rows or not rows[0]:
        return [list(r) for r in rows], []
    n, zero = len(rows[0]), _zero_like(rows[0][0])
    rows = [{c: x for c, x in enumerate(r) if not (x.is_exact and x.is_zero())}
            for r in rows]
    scale = _matrix_scale(r.values() for r in rows)
    m = len(rows)
    pivots = []
    r = 0
    for col in range(n):
        if r >= m:
            break
        best_i, best_m = -1, 0.0
        for i in range(r, m):
            x = rows[i].get(col)
            if x is None or _negligible(x, scale, tol):
                continue
            mg = _mag(x)
            if mg > best_m:
                best_i, best_m = i, mg
        if best_i < 0:
            continue
        rows[r], rows[best_i] = rows[best_i], rows[r]
        piv = rows[r][col]
        rows[r] = pivot_row = {c: x / piv for c, x in rows[r].items()}
        for i in range(m):
            row = rows[i]
            f = row.get(col)
            if i == r or f is None or _negligible(f, scale, tol):
                continue
            for c, xr in pivot_row.items():
                # zero - f*xr, not -(f*xr): a float zero keeps its sign
                x = row.get(c, zero) - f * xr
                if x.is_exact and x.is_zero():
                    del row[c]
                else:
                    row[c] = x
        pivots.append(col)
        r += 1
    return [[row.get(c, zero) for c in range(n)] for row in rows], pivots


def rank(rows, tol: float = DEFAULT_TOL) -> int:
    return len(rref(rows, tol)[1])


def nullspace(rows, tol: float = DEFAULT_TOL):
    """Basis of the kernel, one vector per non-pivot column."""
    if not rows or not rows[0]:
        return []
    red, pivots = rref(rows, tol)
    n = len(rows[0])
    sample = rows[0][0]
    zero, one = _zero_like(sample), _one_like(sample)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [zero] * n
        v[free] = one
        for j, pc in enumerate(pivots):
            v[pc] = -red[j][free]
        basis.append(v)
    return basis


def solve(rows, rhs, tol: float = DEFAULT_TOL):
    """One solution of A x = b (free variables set to zero).

    Raises ValueError when the system is inconsistent.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    scale = _matrix_scale(aug)
    red, pivots = rref(aug, tol)
    n = len(rows[0])
    if n in pivots:
        raise ValueError("inconsistent linear system")
    for row in red:
        if all(_negligible(x, scale, tol) for x in row[:n]) and \
                not _negligible(row[n], scale, tol):
            raise ValueError("inconsistent linear system")
    sample = rows[0][0]
    x = [_zero_like(sample)] * n
    for j, pc in enumerate(pivots):
        x[pc] = red[j][n]
    return x


def det(rows, tol: float = DEFAULT_TOL):
    """Determinant by elimination, exact on exact input."""
    rows = [list(r) for r in rows]
    n = len(rows)
    scale = _matrix_scale(rows)
    sample = rows[0][0]
    out = _one_like(sample)
    sign_flip = False
    for col in range(n):
        best_i, best_m = -1, 0.0
        for i in range(col, n):
            x = rows[i][col]
            if _negligible(x, scale, tol):
                continue
            mg = _mag(x)
            if mg > best_m:
                best_i, best_m = i, mg
        if best_i < 0:
            return _zero_like(sample)
        if best_i != col:
            rows[col], rows[best_i] = rows[best_i], rows[col]
            sign_flip = not sign_flip
        piv = rows[col][col]
        out = out * piv
        for i in range(col + 1, n):
            f = rows[i][col] / piv
            if f.is_zero():
                continue
            rows[i] = [xi - f * xc for xi, xc in zip(rows[i], rows[col])]
    return -out if sign_flip else out


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for l in range(1, k):
                acc = acc + A[i][l] * B[l][j]
            row.append(acc)
        out.append(row)
    return out


def mat_add(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, A):
    return [[c * x for x in row] for row in A]


def zeros(n, like=None):
    """The n x n zero matrix, over the field of `like` (Scalar when None)."""
    zero = _zero_like(like) if like is not None else Scalar(0)
    return [[zero] * n for _ in range(n)]


def identity(n, like=None):
    one = _one_like(like) if like is not None else Scalar(1)
    zero = _zero_like(like) if like is not None else Scalar(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def dot(u, v):
    """sum u_i v_i, leaving out each term whose first factor is an exact
    zero, and each exact-zero product of exact factors once the sum is
    exact: adding that changes neither an exact sum nor a float zero's
    sign."""
    acc = None
    for x, y in zip(u, v):
        if isinstance(x, Scalar) and x._f is None and (
                not x._n and not x._m
                or type(acc) is Scalar and acc._f is None and type(y) is Scalar
                and y._f is None and not y._n and not y._m):
            continue
        acc = x * y if acc is None else acc + x * y
    return acc if acc is not None else u[0] * v[0]


def spectral_projector(L, eigenvalues, lam):
    """Projector onto the lam-eigenspace of L, as a polynomial in L.

    L must be diagonalizable with spectrum contained in `eigenvalues`; the
    projector is the Lagrange product over the other eigenvalues, so it is
    exact when L and the eigenvalues are exact.
    """
    n = len(L)
    lam = scalar(lam)
    P = identity(n, like=L[0][0])
    for mu in eigenvalues:
        mu = scalar(mu)
        if mu == lam:
            continue
        M = [[L[i][j] - (mu if i == j else ZERO) for j in range(n)] for i in range(n)]
        P = mat_mul(P, M)
        P = mat_scale((lam - mu).inverse(), P)
    return P
