"""Constant-coefficient exterior calculus over coframe models.

A :class:`CoframeModel` presents a homogeneous geometry through structure
constants: each ``d(theta^i)`` is a fixed 2-form with Scalar coefficients.
The first five coframe directions are the base, carry the metric (the coframe
is orthonormal) and the orientation ``theta^1 ^ ... ^ theta^5``; zero, one or
three further directions are vertical bundle legs.  ``d^2 = 0`` is checked
when a model is built, so a loaded model is always a genuine Lie-algebra-level
geometry.

This module owns the one exterior-form engine.  Forms are dictionaries from
strictly increasing index tuples to coefficients, Scalars here; all indices
are 1-based.  The constructor checks terms from outside; the engine merges
leg tuples through the table MERGED and builds its results with the
unchecked Form._normal.  connection.CForm runs the engine over complex
coefficients, and twistor.TwistorForm over fiber functions with the dz,
dzbar legs.  The Hodge star is taken in a given top dimension, the
5-dimensional base by default, and refuses legs above it.
"""

from __future__ import annotations

import math

from .scalar import DEFAULT_TOL, Scalar, scalar

N_BASE = 5
_ALLOWED_FIBERS = (0, 1, 3)


class ModelError(ValueError):
    """Schema violation or a failed d^2 = 0 check."""


def sort_indices(indices):
    """Sort a tuple of indices, returning (sorted_tuple, sign) or (None, 0)
    when an index repeats."""
    idx = list(indices)
    sign = 1
    n = len(idx)
    for i in range(n):
        for j in range(n - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
            elif idx[j] == idx[j + 1]:
                return None, 0
    return tuple(idx), sign


class _MergeTable(dict):
    """(ka, kb) -> sort_indices(ka + kb) for two sorted leg tuples: the
    sorted key and its sign, or (None, 0) when they share a leg.  A pair is
    sorted on its first lookup only."""

    def __missing__(self, pair):
        merged = self[pair] = sort_indices(pair[0] + pair[1])
        return merged


MERGED = _MergeTable()


class Form:
    """Exterior form with constant Scalar coefficients on a model's frame.

    The engine is generic in two class attributes: ``ring`` coerces a value
    into the coefficient ring, and ``n_extra`` counts the legs a subclass
    allows past the model's coframe (numbered from ``model.dim + 1``).
    Arithmetic, :func:`wedge`, :func:`ext_d` and :func:`hodge_star` build
    forms of their argument's class.
    """

    __slots__ = ("model", "degree", "terms")

    ring = staticmethod(scalar)
    n_extra = 0

    def __init__(self, model, degree: int, terms=None):
        self.model = model.frame  # of a model, or of the frame itself
        self.degree = degree
        self.terms = {}
        if terms:
            for key, coef in (terms.items() if isinstance(terms, dict) else terms):
                self._accumulate(key, self.ring(coef))
        self._prune()

    @classmethod
    def _normal(cls, model, degree, terms):
        """The form of a frame with terms already sorted, in range, in the
        ring and nonzero.  terms is a new dict, which this takes over."""
        out = object.__new__(cls)
        out.model, out.degree, out.terms = model, degree, terms
        return out

    def _accumulate(self, key, coef):
        key = tuple(key)
        if len(key) != self.degree:
            raise ModelError(f"index tuple {key} does not match degree {self.degree}")
        skey, sign = sort_indices(key)
        if sign == 0:
            return
        top = self.model.dim + self.n_extra
        for i in skey:
            if not 1 <= i <= top:
                raise ModelError(f"coframe index {i} out of range 1..{top}")
        self._merge(skey, coef if sign > 0 else -coef)

    def _merge(self, skey, coef):
        """Add coef at an already sorted, in-range key."""
        if skey in self.terms:
            self.terms[skey] = self.terms[skey] + coef
        else:
            self.terms[skey] = coef

    def _prune(self):
        dead = [k for k, v in self.terms.items() if v.is_zero()]
        for k in dead:
            del self.terms[k]

    # -- access ------------------------------------------------------------

    def coeff(self, indices):
        """Coefficient of theta^{indices}, antisymmetrized in the indices."""
        skey, sign = sort_indices(tuple(indices))
        c = self.terms.get(skey) if sign else None
        if c is None:
            return self.ring(0)
        return c if sign > 0 else -c

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return all(v.is_zero(tol) for v in self.terms.values())

    @property
    def is_exact(self) -> bool:
        return all(v.is_exact for v in self.terms.values())

    def max_coeff_mag(self) -> float:
        return max((abs(float(v)) for v in self.terms.values()), default=0.0)

    def has_fiber_legs(self) -> bool:
        return any(i > N_BASE for key in self.terms for i in key)

    # -- algebra -----------------------------------------------------------

    def _check_same(self, other: "Form"):
        if self.model is not other.model:
            raise ModelError("forms live on different models")
        if self.degree != other.degree:
            raise ModelError("forms have different degrees")

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check_same(other)
        out = self._normal(self.model, self.degree, dict(self.terms))
        for k, v in other.terms.items():
            out._merge(k, v)
        out._prune()
        return out

    def __neg__(self):
        return self._normal(self.model, self.degree,
                            {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __mul__(self, c):
        try:
            c = self.ring(c)
        except TypeError:
            return NotImplemented
        out = self._normal(self.model, self.degree,
                           {k: v * c for k, v in self.terms.items()})
        out._prune()
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.model is not other.model or self.degree != other.degree:
            return False
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        labels = self.model.labels
        bits = []
        for key in sorted(self.terms):
            mono = "^".join(labels[i - 1] if i <= len(labels) else f"#{i}"
                            for i in key) if key else "1"
            bits.append(f"({self.terms[key]})*{mono}")
        return f"{type(self).__name__}(" + " + ".join(bits) + ")"


class Frame:
    """Coframe presentation by structure constants, plus an optional declared
    so(3) connection (three 1-forms).  It never changes once built."""

    def __init__(self, name: str, d, n_fiber: int, labels, connection):
        if n_fiber not in _ALLOWED_FIBERS:
            raise ModelError(f"n_fiber must be one of {_ALLOWED_FIBERS}, got {n_fiber}")
        self.name = str(name)
        self.n_base = N_BASE
        self.n_fiber = n_fiber
        self.dim = N_BASE + n_fiber
        if labels is None:
            labels = [f"e{i}" for i in range(1, N_BASE + 1)]
            labels += [f"f{i}" for i in range(1, n_fiber + 1)]
        labels = [str(l) for l in labels]
        if len(labels) != self.dim:
            raise ModelError(f"expected {self.dim} labels, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ModelError("coframe labels must be distinct")
        self.labels = tuple(labels)

        table = {}
        for i, entries in (d or {}).items():
            i = int(i)
            if not 1 <= i <= self.dim:
                raise ModelError(f"d-table index {i} out of range")
            cleaned = []
            for coef, b, c in entries:
                coef = scalar(coef)
                b, c = int(b), int(c)
                if b == c:
                    raise ModelError(f"degenerate pair ({b},{c}) in d-table")
                if b > c:
                    b, c = c, b
                    coef = -coef
                if not (1 <= b <= self.dim and 1 <= c <= self.dim):
                    raise ModelError(f"d-table pair ({b},{c}) out of range")
                cleaned.append((coef, b, c))
            table[i] = cleaned
        self.d_table = table

        conn = None
        if connection is not None:
            conn = {}
            for which in (1, 2, 3):
                conn[which] = [(scalar(co), int(ix))
                               for co, ix in connection.get(which, [])]
                for _, ix in conn[which]:
                    if not 1 <= ix <= self.dim:
                        raise ModelError(f"connection index {ix} out of range")
        self.connection_spec = conn

        # the terms of each d(theta^i), not Forms: a Form points at its
        # frame, and a frame that held one would be a reference cycle
        self._d_terms = {i: Form(self, 2, [((b, c), co) for co, b, c in
                                           table.get(i, [])]).terms
                         for i in range(1, self.dim + 1)}

    @property
    def frame(self) -> "Frame":
        return self

    # -- form constructors -------------------------------------------------

    def form(self, degree: int, terms=None) -> Form:
        return Form(self, degree, terms)

    def basis(self, *indices) -> Form:
        return Form(self, len(indices), [(tuple(indices), Scalar(1))])

    def zero(self, degree: int) -> Form:
        return Form(self, degree)

    def d_of(self, i: int) -> Form:
        return Form._normal(self, 2, dict(self._d_terms.get(i, ())))

    def gamma(self, which: int) -> Form:
        """Declared connection 1-form (1, 2 or 3)."""
        if self.connection_spec is None:
            raise ModelError(f"model {self.name!r} declares no connection")
        return Form(self, 1, [((ix,), co) for co, ix in self.connection_spec[which]])

    @property
    def has_connection(self) -> bool:
        return self.connection_spec is not None

    @property
    def is_exact(self) -> bool:
        ok = all(co.is_exact for entries in self.d_table.values()
                 for co, _, _ in entries)
        if ok and self.connection_spec:
            ok = all(co.is_exact for entries in self.connection_spec.values()
                     for co, _ in entries)
        return ok

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        d = {}
        for i, entries in self.d_table.items():
            if not entries:
                continue
            d[self.labels[i - 1]] = [
                [co.to_string(), self.labels[b - 1], self.labels[c - 1]]
                for co, b, c in entries]
        out = {"name": self.name, "labels": list(self.labels), "d": d}
        if self.connection_spec is not None:
            out["connection"] = {
                f"g{w}": [[co.to_string(), self.labels[ix - 1]]
                          for co, ix in self.connection_spec[w]]
                for w in (1, 2, 3)}
        return out


class CoframeModel:
    """A frame that passed the d^2 = 0 check, and ``stages``: the results
    kept at each tolerance, which connection.Analysis reads.  Their forms
    point at the frame, so reference counting frees the stages with the
    model.  Every other attribute is the frame's."""

    def __init__(self, name: str, d=None, n_fiber: int = 0, labels=None,
                 connection=None, tol: float = DEFAULT_TOL):
        self.frame = Frame(name, d, n_fiber, labels, connection)
        self.stages = {}
        bad = self.jacobi_residuals(tol)
        if bad:
            worst = ", ".join(
                f"d^2(theta^{i}) has {r.max_coeff_mag():.3e}" for i, r in bad)
            raise ModelError(f"d^2 != 0: {worst} "
                             f"(at /d/{self.labels[bad[0][0] - 1]})")

    def __getattr__(self, name):
        return getattr(self.frame, name)

    def jacobi_residuals(self, tol: float = DEFAULT_TOL):
        bad = []
        for i in range(1, self.dim + 1):
            r = ext_d(self.d_of(i))
            if not r.is_zero(tol):
                bad.append((i, r))
        return bad

    @classmethod
    def from_json(cls, data: dict, tol: float = DEFAULT_TOL) -> "CoframeModel":
        if not isinstance(data, dict):
            raise ModelError("model JSON must be an object (at the document root)")
        for field in ("name", "labels", "d"):
            if field not in data:
                raise ModelError(f"model JSON is missing {field!r} (at /{field})")
        if not isinstance(data["name"], str):
            raise ModelError("name must be a string (at /name)")
        labels = data["labels"]
        n_fiber = len(labels) - N_BASE if isinstance(labels, list) else None
        if n_fiber not in _ALLOWED_FIBERS \
                or not all(isinstance(l, str) for l in labels) \
                or len(set(labels)) != len(labels):
            raise ModelError("labels must be a list of 5, 6 or 8 distinct "
                             "strings (at /labels)")
        index = {l: i + 1 for i, l in enumerate(labels)}

        def look(label, where):
            if not isinstance(label, str) or label not in index:
                raise ModelError(f"unknown coframe label {label!r} (at {where})")
            return index[label]

        def coefficient(co, where):
            if not isinstance(co, str):
                raise ModelError(
                    f"coefficient must be a string, got {co!r} (at {where})")
            try:
                val = Scalar.from_string(co)
            except (ValueError, ZeroDivisionError):
                raise ModelError(
                    f"bad coefficient {co!r} (at {where})") from None
            if not (val.is_exact or math.isfinite(float(val))):
                raise ModelError(
                    f"non-finite coefficient {co!r} (at {where})")
            return val

        def entry_list(entries, where):
            if not isinstance(entries, list):
                raise ModelError(f"expected a list of entries (at {where})")
            return entries

        if not isinstance(data["d"], dict):
            raise ModelError("d must be an object keyed by coframe label (at /d)")
        d = {}
        for label, entries in data["d"].items():
            i = look(label, f"/d/{label}")
            rows = []
            for j, ent in enumerate(entry_list(entries, f"/d/{label}")):
                if not (isinstance(ent, list) and len(ent) == 3):
                    raise ModelError(
                        f"d entry must be [coef, label, label] (at /d/{label}/{j})")
                co, bl, cl = ent
                rows.append((coefficient(co, f"/d/{label}/{j}/0"),
                             look(bl, f"/d/{label}/{j}/1"),
                             look(cl, f"/d/{label}/{j}/2")))
                if bl == cl:
                    raise ModelError(f"d entry repeats {bl!r} (at /d/{label}/{j})")
            d[i] = rows

        conn = None
        if "connection" in data and data["connection"] is not None:
            if not isinstance(data["connection"], dict):
                raise ModelError("connection must be an object with keys "
                                 "g1, g2, g3 (at /connection)")
            conn = {}
            for w in (1, 2, 3):
                key = f"g{w}"
                entries = entry_list(data["connection"].get(key, []),
                                     f"/connection/{key}")
                rows = []
                for j, ent in enumerate(entries):
                    if not (isinstance(ent, list) and len(ent) == 2):
                        raise ModelError(
                            f"connection entry must be [coef, label]"
                            f" (at /connection/{key}/{j})")
                    co, l = ent
                    rows.append((coefficient(co, f"/connection/{key}/{j}/0"),
                                 look(l, f"/connection/{key}/{j}/1")))
                conn[w] = rows

        return cls(data["name"], d=d, n_fiber=n_fiber, labels=labels,
                   connection=conn, tol=tol)

    def __repr__(self):
        return f"CoframeModel({self.name!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def wedge(a: Form, b: Form) -> Form:
    if a.model is not b.model:
        raise ModelError("forms live on different models")
    out = a._normal(a.model, a.degree + b.degree, {})
    if out.degree > a.model.dim + a.n_extra:
        return out
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            key, sign = MERGED[ka, kb]
            if sign == 0:
                continue
            c = va * vb
            out._merge(key, c if sign > 0 else -c)
    out._prune()
    return out


def wedge_all(*forms: Form) -> Form:
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def ext_d(a: Form) -> Form:
    """Exterior derivative through the structure constants (coefficients are
    constant on the model).  Legs past the model's coframe are closed."""
    model = a.model
    out = a._normal(model, a.degree + 1, {})
    for key, coef in a.terms.items():
        for pos, leg in enumerate(key):
            if leg > model.dim:
                continue
            rest = key[:pos] + key[pos + 1:]
            for bc, dco in model._d_terms[leg].items():
                merged, s = MERGED[bc, rest]
                if s == 0:
                    continue
                val = coef * (dco if pos % 2 == 0 else -dco)
                out._merge(merged, val if s > 0 else -val)
    out._prune()
    return out


def hodge_star(a: Form, top: int = N_BASE) -> Form:
    """Hodge star of the orthonormal coframe theta^1..theta^top, oriented by
    theta^1^...^theta^top: the 5-dimensional base by default.  Rejects forms
    with a leg above top."""
    if any(i > top for key in a.terms for i in key):
        raise ModelError(f"hodge star in dimension {top} got a leg above {top}")
    if a.degree > top:
        raise ModelError(f"degree exceeds dimension {top}")
    last = a.model.dim + a.n_extra
    if a.terms and top > last:
        raise ModelError(f"coframe index {last + 1} out of range 1..{last}")
    full = tuple(range(1, top + 1))
    out = {}
    for key, coef in a.terms.items():
        comp = tuple(i for i in full if i not in key)
        out[comp] = coef if MERGED[key, comp][1] > 0 else -coef
    return a._normal(a.model, top - a.degree, out)


def form_inner(a: Form, b: Form) -> Scalar:
    """Riemannian inner product of two base forms of equal degree, computed
    as *(a ^ *b)."""
    if a.degree != b.degree:
        raise ModelError("inner product needs forms of equal degree")
    top = wedge(a, hodge_star(b))
    return top.coeff((1, 2, 3, 4, 5))


def form_norm_sq(a: Form) -> Scalar:
    return form_inner(a, a)
