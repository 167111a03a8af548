"""The exact field kernel against sympy, an independent oracle.

Seeded random elements of Q(sqrt 3) (``Scalar``) and Q(sqrt 3, i)
(``CScalar``) are combined with every field operation and the results are
compared exactly with sympy's algebraic number fields: ``QQ.algebraic_field
(sqrt(3))`` for the real field and the same field with ``I`` adjoined for
the complex one.  The samples include zero, units, large numerators and
pairs whose sum or difference cancels the denominator to 1.

Fiber functions (``twistor.FiberFunction``, a polynomial in z and zbar over
a power of 1 + z zbar) are checked the same way against sympy polynomials
in z and zbar over that complex field, with z and zbar independent
variables, as the Wirtinger derivatives treat them.

The linear algebra (``rref``, ``rank`` and ``nullspace``) is checked on
seeded sparse exact matrices against sympy's ``DomainMatrix`` over the same
real field, whose reduced row echelon form is unique.  On float matrices,
where the pivot order and the rounding are the algorithm's own, it is
checked bit for bit against the dense elimination that the sparse one
replaced.
"""

import random
from fractions import Fraction

import pytest
from sympy import QQ, I, Rational, ring, sign, sqrt, sympify
from sympy.polys.matrices import DomainMatrix

from so3five.repr import kernel_basis, upsilon_prime_matrix
from so3five.scalar import (
    DEFAULT_TOL,
    CScalar,
    Scalar,
    _mag,
    _matrix_scale,
    _negligible,
    nullspace,
    rank,
    rref,
)
from so3five.upsilon import E_matrices, stabilizer, standard_upsilon
from so3five.twistor import FiberFunction

K = QQ.algebraic_field(sqrt(3))
L = QQ.algebraic_field(sqrt(3), I)
L_SQRT3 = L.from_sympy(sqrt(3))
L_I = L.from_sympy(I)


def _rat(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == 1:
        return Fraction(rng.randint(-10 ** 40, 10 ** 40),
                        rng.randint(1, 10 ** 20))
    if kind == 2:
        return Fraction(rng.randint(-5, 5))
    return Fraction(rng.randint(-10 ** 6, 10 ** 6),
                    rng.choice([2, 3, 6, 12, 2 ** 20, 3 ** 15]))


FIXED = [Scalar(0), Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(2, 1),
         Scalar(2, -1), Scalar(-7, 4), Scalar(Fraction(1, 2)),
         Scalar(Fraction(3, 2), Fraction(-1, 2)),
         Scalar(10 ** 50 + 1, -(10 ** 49)),
         Scalar(Fraction(1, 3 ** 30), Fraction(2 ** 70, 7))]


def _sample(seed, n):
    rng = random.Random(seed)
    xs = FIXED + [Scalar(_rat(rng), _rat(rng)) for _ in range(n)]
    pairs = [(x, y) for x, y in zip(xs, xs[1:] + xs[:1])]
    for x in xs[len(FIXED):len(FIXED) + 8]:
        k = Scalar(rng.randint(-4, 4), rng.randint(-4, 4))
        pairs += [(x, k - x), (x, x), (x, -x)]  # sums and differences cancel
    return xs, pairs


XS, PAIRS = _sample(20260518, 40)


def to_k(x):
    """A Scalar as an element of sympy's Q(sqrt 3), through .a and .b."""
    assert type(x.a) is Fraction and type(x.b) is Fraction
    return K([QQ(x.b.numerator, x.b.denominator),
              QQ(x.a.numerator, x.a.denominator)])


def to_expr(x):
    return Rational(x.a.numerator, x.a.denominator) + \
        Rational(x.b.numerator, x.b.denominator) * sqrt(3)


def test_ring_and_field_operations():
    for x, y in PAIRS:
        kx, ky = to_k(x), to_k(y)
        assert to_k(x + y) == kx + ky
        assert to_k(x - y) == kx - ky
        assert to_k(x * y) == kx * ky
        assert to_k(-x) == -kx
        if y.is_zero():
            with pytest.raises(ZeroDivisionError):
                x / y
            with pytest.raises(ZeroDivisionError):
                y.inverse()
            continue
        assert to_k(x / y) == kx / ky
        assert to_k(y.inverse()) == K.one / ky


def test_mixed_with_int_and_fraction():
    q = Fraction(-5, 6)
    kq = K([QQ(-5, 6)])
    for x in XS:
        kx = to_k(x)
        assert to_k(x + 3) == kx + K([QQ(3)]) == to_k(3 + x)
        assert to_k(2 - x) == K([QQ(2)]) - kx
        assert to_k(x * q) == kx * kq == to_k(q * x)
        assert to_k(x / q) == kx / kq


def test_cancelled_denominators_are_one():
    for x in XS:
        k = Scalar(3, -2)
        s = x + (k - x)
        assert s == k and s.a.denominator == 1 and s.b.denominator == 1
        assert (x - x).is_zero() and (x - x).a == 0 and (x - x).b == 0


def power(x, n):
    """x to the integer n by repeated products and one inverse."""
    out = Scalar(1)
    for _ in range(abs(n)):
        out = out * x
    return out if n >= 0 else out.inverse()


def test_powers():
    for x in XS[:24]:
        kx = to_k(x)
        for n in range(0, 6):
            assert to_k(power(x, n)) == kx ** n
        if not x.is_zero():
            for n in (1, 2, 3):
                assert to_k(power(x, -n)) == (K.one / kx) ** n


def test_sign_order_and_equality():
    for x, y in PAIRS:
        ex, ey = to_expr(x), to_expr(y)
        assert x.sign() == int(sign(ex))
        assert ((x - y).sign() < 0) == bool(ex < ey)
        assert (x == y) == (to_k(x) == to_k(y))
        assert (x != y) == (to_k(x) != to_k(y))
        assert (x == x + Scalar(0)) and not (x == x + 1)


def test_sign_near_the_cancelling_line():
    # n + m*sqrt3 with n, m of opposite signs and n^2 close to 3 m^2
    for n in range(-12, 13):
        for m in (-7, -4, -1, 1, 4, 7):
            for d in (1, 5):
                x = Scalar(Fraction(n, d), Fraction(m, d))
                assert x.sign() == int(sign(to_expr(x))), (n, m, d)
    for n, m in ((97, -56), (-97, 56), (1351, -780), (-1351, 780)):
        assert Scalar(n, m).sign() == int(sign(n + m * sqrt(3)))


def test_components_and_wire_round_trip():
    for x in XS:
        s = x.to_string()
        back = Scalar.from_string(s)
        assert back == x and back.a == x.a and back.b == x.b
        assert sympify(s.replace("*sqrt3", "*sqrt(3)")) == K.to_sympy(to_k(x))


# -- Q(sqrt 3, i) ----------------------------------------------------------


def _sample_complex(seed, n):
    rng = random.Random(seed)
    fixed = [CScalar(0, 0), CScalar(1, 0), CScalar(0, 1), CScalar(0, -1),
             CScalar(1, 1), CScalar(0, Scalar(0, 1)),
             CScalar(Scalar(2, 1), 0),
             CScalar(Scalar(Fraction(1, 2)), Scalar(0, Fraction(1, 2))),
             CScalar(Scalar(10 ** 40, 3), Scalar(-1, 10 ** 35))]
    zs = fixed + [CScalar(Scalar(_rat(rng), _rat(rng)),
                          Scalar(_rat(rng), _rat(rng))) for _ in range(n)]
    pairs = list(zip(zs, zs[1:] + zs[:1]))
    for z in zs[len(fixed):len(fixed) + 5]:
        k = CScalar(rng.randint(-3, 3), rng.randint(-3, 3))
        pairs += [(z, k - z), (z, z), (z, -z)]
    return zs, pairs


ZS, ZPAIRS = _sample_complex(20260519, 20)


def to_l(z):
    """A CScalar as an element of sympy's Q(sqrt 3, i), through re and im."""
    re, im = z.re, z.im
    assert isinstance(re, Scalar) and isinstance(im, Scalar)

    def part(x):
        return L([QQ(x.a.numerator, x.a.denominator)]) + \
            L([QQ(x.b.numerator, x.b.denominator)]) * L_SQRT3

    return part(re) + part(im) * L_I


def test_complex_ring_and_field_operations():
    for z, w in ZPAIRS:
        lz, lw = to_l(z), to_l(w)
        assert to_l(z + w) == lz + lw
        assert to_l(z - w) == lz - lw
        assert to_l(z * w) == lz * lw
        assert to_l(-z) == -lz
        assert (z == w) == (lz == lw)
        assert z.is_zero() == (lz == L.zero)
        if w.is_zero():
            with pytest.raises(ZeroDivisionError):
                z / w
            continue
        assert to_l(z / w) == lz / lw
        assert to_l(w.inverse()) == L.one / lw


def test_complex_conjugate_parts_and_mixed_operands():
    x = Scalar(Fraction(-2, 9), Fraction(5, 4))
    lx = L([QQ(-2, 9)]) + L([QQ(5, 4)]) * L_SQRT3
    for z in ZS:
        lz = to_l(z)
        re = to_l(CScalar(z.re, 0))
        assert to_l(z.conjugate()) == re + re - lz
        assert to_l(z * x) == lz * lx == to_l(x * z)
        assert to_l(z + x) == lz + lx == to_l(x + z)
        assert to_l(z - 2) == lz - L([QQ(2)])
        assert to_l(-z + 1) == L.one - lz
        assert z == CScalar(z.re, z.im)


# -- fiber functions: polynomials in z, zbar over (1 + z zbar)^k -----------

R, Z, ZB = ring("z,zb", L)
ONE_W = R.one + Z * ZB


def _lq(x):
    return L([QQ(x.numerator, x.denominator)])


def _quad(rng):
    """The parts (a, b, c, e) of (a + b sqrt3) + i (c + e sqrt3), each one
    zero at random, as they often are in the twistor coframe."""
    return tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
                 if rng.random() < 0.6 else Fraction(0) for _ in range(4))


def _fiber_data(rng):
    """A seeded numerator {(p, q): parts}, multiplied by (1 + z zbar) up to
    three times, and a power k <= 7 of (1 + z zbar) below it."""
    num = {(rng.randint(0, 3), rng.randint(0, 3)): _quad(rng)
           for _ in range(rng.randint(1, 4))}
    for _ in range(rng.randint(0, 3)):
        lifted = {}
        for (p, q), c in num.items():
            for key in ((p, q), (p + 1, q + 1)):
                old = lifted.get(key, (0, 0, 0, 0))
                lifted[key] = tuple(x + y for x, y in zip(old, c))
        num = lifted
    return num, rng.randint(0, 7)


def _fiber(data):
    num, k = data
    return FiberFunction({key: CScalar(Scalar(a, b), Scalar(c, e))
                          for key, (a, b, c, e) in num.items()}, k)


def _oracle(data):
    """(numerator in L[z, zbar], k), built from the same parts."""
    num, k = data
    poly = R.zero
    for (p, q), (a, b, c, e) in num.items():
        coef = _lq(a) + _lq(b) * L_SQRT3 + (_lq(c) + _lq(e) * L_SQRT3) * L_I
        poly += coef * Z ** p * ZB ** q
    return poly, k


def _conjugate_data(data):
    num, k = data
    return {(q, p): (a, b, -c, -e) for (p, q), (a, b, c, e) in num.items()}, k


def to_r(f):
    """A FiberFunction as (numerator in L[z, zbar], k), through f.num."""
    poly = R.zero
    for (p, q), c in f.num.items():
        poly += to_l(c) * Z ** p * ZB ** q
    return poly, f.k


def same(x, y):
    """Equality of N1 / (1 + z zbar)^k1 and N2 / (1 + z zbar)^k2."""
    (n1, k1), (n2, k2) = x, y
    if k1 > k2:
        return n1 == n2 * ONE_W ** (k1 - k2)
    return n1 * ONE_W ** (k2 - k1) == n2


def _fiber_sample(seed, n):
    rng = random.Random(seed)
    data = [({}, 0), ({(0, 0): (Fraction(1), 0, 0, 0)}, 0),
            ({(0, 0): (1, 0, 0, 0), (1, 1): (1, 0, 0, 0)}, 3)]
    data += [_fiber_data(rng) for _ in range(n)]
    return data, list(zip(data, data[1:] + data[:1]))


FIBERS, FIBER_PAIRS = _fiber_sample(20261019, 21)


def test_fiber_ring_operations():
    for x, y in FIBER_PAIRS:
        f, g = _fiber(x), _fiber(y)
        (nf, kf), (ng, kg) = _oracle(x), _oracle(y)
        lifted = ONE_W ** abs(kf - kg)
        if kf >= kg:
            total, diff = (nf + ng * lifted, kf), (nf - ng * lifted, kf)
        else:
            total, diff = (nf * lifted + ng, kg), (nf * lifted - ng, kg)
        assert same(to_r(f + g), total)
        assert same(to_r(f - g), diff)
        assert same(to_r(f * g), (nf * ng, kf + kg))
        assert same(to_r(-f), (-nf, kf))
        assert same(to_r(3 + f), (nf + 3 * ONE_W ** kf, kf))
        assert same(to_r(f * CScalar(0, 2)), (nf * 2 * L_I, kf))
        assert (f == g) == same((nf, kf), (ng, kg))
        assert f == f + 0


def test_fiber_derivatives_and_conjugate():
    for data in FIBERS:
        f = _fiber(data)
        n, k = _oracle(data)
        # the quotient rule for N / (1 + z zbar)^k, z and zbar independent
        assert same(to_r(f.d_z()), (n.diff(Z) * ONE_W - k * ZB * n, k + 1))
        assert same(to_r(f.d_zbar()),
                    (n.diff(ZB) * ONE_W - k * Z * n, k + 1))
        assert same(to_r(f.conjugate()), _oracle(_conjugate_data(data)))


def test_fiber_reduce_divides_out_every_common_factor():
    products = [_fiber(x) * _fiber(y) for x, y in FIBER_PAIRS[:8]]
    for f in [_fiber(data) for data in FIBERS] + products:
        r = f.reduce()
        n, k = to_r(r)
        assert same((n, k), to_r(f))
        assert k <= f.k
        # either no denominator is left or (1 + z zbar) does not divide
        assert k == 0 or n.div(ONE_W)[1] != R.zero
        assert (n == R.zero) == (r.num == {}) == f.is_zero()


def test_fiber_eval():
    zsym, zbsym = R.symbols
    points = (Rational(3, 10) + Rational(7, 10) * I, Rational(-6, 5) +
              Rational(2, 5) * I, Rational(0))
    for data in FIBERS[:10]:
        f = _fiber(data)
        n, k = _oracle(data)
        expr = n.as_expr()
        for z in points:
            zbar = z.conjugate()
            want = complex((expr.subs({zsym: z, zbsym: zbar})
                            / (1 + z * zbar) ** k).evalf(30))
            got = f.eval(complex(z))
            assert abs(got - want) <= 1e-12 * (1 + abs(want)), (data, z)


# -- linear algebra -----------------------------------------------------------


def _sparse_matrix(rng):
    """An exact matrix of up to 12 x 12 with 10-40% nonzero entries, some
    rows being combinations of others."""
    m, n = rng.randint(1, 12), rng.randint(1, 12)
    density = rng.uniform(0.1, 0.4)
    rows = [[Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
             if rng.random() < density else Scalar(0) for _ in range(n)]
            for _ in range(m)]
    for i in rng.sample(range(m), rng.randint(0, m // 2)):
        j, k = rng.randrange(m), rng.randrange(m)
        c = Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
        rows[i] = [x + c * y for x, y in zip(rows[j], rows[k])]
    return rows


def to_domain(rows):
    return DomainMatrix([[to_k(x) for x in r] for r in rows],
                        (len(rows), len(rows[0])), K)


def test_exact_rref_rank_and_nullspace_match_sympy():
    rng = random.Random(20261020)
    for _ in range(60):
        rows = _sparse_matrix(rng)
        n = len(rows[0])
        want, want_pivots = to_domain(rows).rref()
        red, pivots = rref(rows)
        assert tuple(pivots) == want_pivots
        assert [[to_k(x) for x in r] for r in red] == want.to_list()
        assert all(x.is_exact for r in red for x in r)
        assert rank(rows) == len(want_pivots)
        # the kernel basis read off the unique reduced form, and A v = 0
        free = [c for c in range(n) if c not in want_pivots]
        basis = nullspace(rows)
        assert len(basis) == len(free)
        a = to_domain(rows)
        for v, f in zip(basis, free):
            assert [to_k(x) for x in v] == [
                K.one if c == f else -want[want_pivots.index(c), f].element
                if c in want_pivots else K.zero for c in range(n)]
            assert (a * to_domain([[x] for x in v])).is_zero_matrix


def test_ranks_of_the_structure_matrices():
    stab = [sum(X, []) for X in stabilizer(standard_upsilon())]
    spans = [(upsilon_prime_matrix(), 25),
             ([b.to_vector() for b in kernel_basis()], 25),
             (stab + [sum(E, []) for E in E_matrices()], 3)]
    for rows, want in spans:
        assert rank(rows) == want
        assert to_domain(rows).rank() == want


def dense_rref(rows, tol=DEFAULT_TOL):
    """The dense Gauss-Jordan elimination that rref's sparse rows replaced:
    every entry of the pivot row, exact zeros included, in each row
    operation."""
    rows = [list(r) for r in rows]
    scale = _matrix_scale(rows)
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for col in range(n):
        if r >= m:
            break
        best_i, best_m = -1, 0.0
        for i in range(r, m):
            x = rows[i][col]
            if _negligible(x, scale, tol):
                continue
            if _mag(x) > best_m:
                best_i, best_m = i, _mag(x)
        if best_i < 0:
            continue
        rows[r], rows[best_i] = rows[best_i], rows[r]
        piv = rows[r][col]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(m):
            f = rows[i][col]
            if i == r or _negligible(f, scale, tol):
                continue
            rows[i] = [xi - f * xr for xi, xr in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def test_float_rref_is_the_dense_elimination_bit_for_bit():
    rng = random.Random(20261021)
    for trial in range(80):
        rows = [[float(x) for x in r] for r in _sparse_matrix(rng)]
        if trial % 2:  # dependent rows leave residuals near the tolerance
            rows.append([x + 1e-12 * rng.random() for x in rows[0]])
        rows = [[Scalar.from_float(x) for x in r] for r in rows]
        assert repr(rref(rows)) == repr(dense_rref(rows))
