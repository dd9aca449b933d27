"""Exact coefficient field: rational functions over Q, or Q(i) once i appears.

Every coefficient in the workbench is a ``Scalar``: a rational function in
five fixed commuting indeterminates, in this order: the deformation
parameter ``q`` and the weights ``lam1``, ``lam2``, ``mu1``, ``mu2`` of the
two generic irreducibles that Section 2's tensor decomposition multiplies.
Its coefficients are in Q, or in Q(i) from the first time ``i`` appears
(:func:`imag_unit`, ``i`` in :func:`parse`).

A Scalar has one of two representations, and which one is a function of its
value alone:

- **native**: a value with rational coefficients whose reduced denominator
  is c x^e times cyclotomic binomials Phi_d(m) (m - 1, m + 1, m^2 + 1,
  m^4 + 1, ... for a primitive monomial m, such as q^2 - 1 or
  lam1 lam2 mu1 mu2 - 1).  It is held as a Laurent numerator, a dict from
  exponent tuples of five entries (negative entries allowed) to nonzero
  ``int``/``Fraction`` coefficients, over a sorted tuple of (factor,
  multiplicity) pairs.  The factors are irreducible and the numerator is
  divisible by none of them, so the form is canonical.  A Laurent
  polynomial is the value with no factors, and one arithmetic serves every
  native value, on dicts: * and / add multiplicities, + and - take the
  larger ones (0 + x, x - 0 and x times a single term over no factors,
  such as 1 or -1, need no reduction and take none; nor does a numerator
  of one term, c x^e, a unit of the Laurent ring that no factor divides; a
  product tries each numerator only against the other's factors that its
  own denominator lacks), and a numerator is divided by a factor exactly,
  one pass over the terms of each chain of exponents, at a cost of the
  quotient's terms (one of more than 10^6 terms is refused with ValueError
  before it is built); a divisor's numerator is split into binomial factors
  along the edges of its Newton polytope.  None of this builds a sympy
  object or takes a gcd.
- **general**: every other value, held as a canonical fraction of sympy's
  sparse fraction field (numerator and denominator coprime in Z[x], or
  Z[i][x], denominator with positive leading coefficient).

A product of a Scalar with ``ONE`` (the module's own Scalar 1, not any
value equal to 1) is that other Scalar itself, in either representation:
it builds no value and does no arithmetic.  ``ONE`` times an ``int``,
``Fraction`` or sympy operand still coerces it, so ``ONE * 3`` is
``Scalar(3)``.  A product, sum or == of two Laurent polynomials goes
straight to the dict arithmetic, with none of the factor bookkeeping of
``Scalar._bin``, which gives the same result.

sympy's field does the rest: an operation with a general operand, and a
division or negative power whose divisor's numerator has a factor other
than a monomial and binomials.  Its result is classified exactly
(``_from_field``): it comes back native whenever its coefficients are
rational and its denominator splits as above, whatever the ground field (Q(i)
splits m^2 + 1, but a value with rational coefficients keeps its native
form).  So no value has two representations: == compares representations
exactly and a native value never equals a general one.  ``hash`` hashes the
representation: the exponent/coefficient pairs of a native value (the hash
of the ``int``/``Fraction`` for a constant), together with its factors; the
sympy expression of a general one.  Neither depends on the field object, so
a value keeps its hash when ``i`` is adjoined.  A general value is
re-embedded into the rebuilt field on its first mixed operation.

``Scalar.f`` is the value as a sympy fraction, built on first use for a
native value and cached; ``str`` prints its expression.  No floating point
enters the module: a value is evaluated only exactly, as a plain ``int``
modulo a prime (:func:`prime_point_residue`).

sympy itself is imported on first need, never by ``import qgw``: by a
general value, by ``i`` (:func:`imag_unit`, ``i`` in :func:`parse`), by
``.f``, :meth:`Scalar.as_expr`, ``str`` and :func:`render`, and by a sympy
expression passed in.  Native arithmetic, ==, ``hash``, :func:`parse` of
text without ``i`` whose divisors split into binomials, and
:func:`prime_point_residue` of a native value need none of it; a general
value has its residue too, read off its sympy fraction.
"""

from __future__ import annotations

import numbers
import re
import sys
from fractions import Fraction
from math import exp, gcd, lcm, lgamma, log2
from operator import add, mul, sub, truediv


class DivisionByZero(ZeroDivisionError):
    pass


def _sympy():
    """The sympy package, imported on first need: the import takes 0.3-0.5 s
    of CPU on a 2-core x86-64 VM with Python 3.11, about half as long as the
    checks of a whole ``qgw run --suite all``, which needs none of it."""
    import sympy
    return sympy


_NAMES = ("q", "lam1", "lam2", "mu1", "mu2")  # the indeterminates, in order
_ORIGIN = (0,) * len(_NAMES)  # exponent tuple of a constant


class _Registry:
    """The ground field, Q or Q(i), and sympy's field of rational functions
    over it, built on first access of ``field`` and again after the switch
    to Q(i)."""

    def __init__(self):
        self.qi = False  # the ground field is Q(i), not Q
        self._field = None

    @property
    def domain(self):
        domains = _sympy().polys.domains
        return domains.QQ_I if self.qi else domains.QQ

    @property
    def field(self):
        if self._field is None:
            self._field = _sympy().polys.fields.field(",".join(_NAMES), self.domain)[0]
        return self._field

    def adjoin_i(self):
        """Switch the ground field from Q to Q(i); once, on first use of i."""
        if not self.qi:
            self.qi = True
            self._field = None


_REG = _Registry()


# -- native Laurent arithmetic: dicts {exponent tuple: nonzero int/Fraction} --

def _rat(x):
    """An int or Fraction as a plain int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def _nadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    d = a.copy()
    for k, v in b.items():
        v += d.get(k, 0)
        if v:
            d[k] = v
        else:
            del d[k]
    return d


def _nmul(a, b):
    if len(a) == 1 == len(b):  # two monomials, the most common product
        (ka, va), = a.items()
        (kb, vb), = b.items()
        if not any(ka):  # a constant leaves the other's exponents as they are
            return {kb: va * vb}
        return {tuple(map(add, ka, kb)) if any(kb) else ka: va * vb}
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:  # a monomial: a shift and a scaling, nothing cancels
        (kb, vb), = b.items()
        if any(kb):
            return {tuple(map(add, k, kb)): v * vb for k, v in a.items()}
        return a if vb == 1 else {k: v * vb for k, v in a.items()}
    d = {}
    for kb, vb in b.items():
        for ka, va in a.items():
            k = tuple(map(add, ka, kb))
            d[k] = d.get(k, 0) + va * vb
    return {k: v for k, v in d.items() if v}


def _npow(d, n):
    """d ** n, for n < 0 only of a single term: the fraction functions peel
    a multi-term d into such a term and binomial factors first."""
    if n == 0:
        return {_ORIGIN: 1}
    if len(d) == 1:  # v ** n with no Fraction.__pow__, whose type test is an ABC's
        (k, v), = d.items()
        num, den = (v, 1) if type(v) is int else (v.numerator, v.denominator)
        if n < 0:
            num, den = den, num
        num, den = num ** abs(n), den ** abs(n)
        return {tuple(e * n for e in k): num if den == 1 else _rat(Fraction(num, den))}
    out = None
    while True:  # square and multiply
        if n & 1:
            out = d if out is None else _nmul(out, d)
        n >>= 1
        if not n:
            return out
        d = _nmul(d, d)


# -- native fractions: a Laurent numerator over binomial factors -------------
#
# A factor (m, d) is the cyclotomic binomial Phi_d(m): m - 1 for d = 1 and
# m^(d/2) + 1 for d = 2, 4, 8, ..., with m a primitive exponent tuple (gcd of
# its entries 1, first nonzero entry positive).  Each is irreducible in the
# Laurent ring and no two are associates.  A denominator is a tuple of
# ((m, d), multiplicity) pairs sorted by (m, d); the numerator is divisible
# by none of its factors.

def _at_root(pairs, d):
    """Whether the sum of x z^t over the (t, x) pairs is 0 at a primitive
    d-th root of unity z, d a power of 2: z^(d/2) = -1 reduces each power."""
    if d == 1:
        return not sum(x for _, x in pairs)
    g, acc = d // 2, {}
    for t, x in pairs:
        t %= d
        if t < g:
            acc[t] = acc.get(t, 0) + x
        else:
            acc[t - g] = acc.get(t - g, 0) - x
    return not any(acc.values())


def _bdiv(a, m, d):
    """a / Phi_d(m) when the division is exact, else None.

    With y = m^g (g = 1 for d = 1, d/2 otherwise) the divisor is y + c.  The
    exponents of ``a`` fall into chains k - t*g*m, and the division is exact
    when it is exact on each chain as a polynomial in y.  First ``a`` must
    vanish at one root of Phi_d(m): x_j a primitive d-th root of unity, for
    an odd m_j, and the other indeterminates 1.  Then one pass over the
    terms of each chain, from its top, finds the quotient: between two terms
    of a chain its terms are q, -c q, q, ... or all 0.  So a sparse quotient
    costs no more than its terms, and one of more than ``_MAX_SIZE`` terms
    is refused with ValueError before any of it is built."""
    j = next(i for i, e in enumerate(m) if e % 2)
    if not _at_root(((k[j], x) for k, x in a.items()), d):
        return None
    c, g = (-1, 1) if d == 1 else (1, d // 2)
    v = tuple(e * g for e in m)
    i = next(i for i, e in enumerate(v) if e)
    chains = {}
    for k, x in a.items():
        t = k[i] // v[i]
        chains.setdefault(tuple(e - t * w for e, w in zip(k, v)), {})[t] = x
    runs, size = [], 0  # (base, top, bottom, q_(top - 1)) per nonzero stretch
    for base, ch in chains.items():
        ts = sorted(ch, reverse=True)
        qt = 0
        for top, bottom in zip(ts, ts[1:]):  # a_t = q_(t-1) + c q_t
            qt = ch[top] - c * qt
            if qt:
                runs.append((base, top, bottom, qt))
                size += top - bottom
                qt = qt if c == -1 or (top - bottom) % 2 else -qt  # q_bottom
        if ch[ts[-1]] != c * qt:
            return None
    if size > _MAX_SIZE:
        raise ValueError(f"exact quotient of {size} terms, more than {_MAX_SIZE}")
    out = {}
    for base, top, bottom, qt in runs:
        for t in range(top - 1, bottom - 1, -1):
            out[tuple(e + t * w for e, w in zip(base, v))] = qt
            qt = -c * qt
    return out


def _reduce(a, b, skip=()):
    """a / b in canonical form: ``a`` divided by each factor of ``b`` while
    the division is exact, largest degree first within each m.  A factor
    in ``skip``, which the caller knows does not divide ``a``, is not
    tried.  A single term c x^e is a unit of the Laurent ring, which no
    binomial divides, so a / b is canonical as it stands, and so is a
    over no factors."""
    if not a:
        return {}, ()
    if not b:
        return a, b
    if len(a) == 1:
        return a, b
    left = []
    for f, k in reversed(b):
        while k and f not in skip:
            quo = _bdiv(a, *f)
            if quo is None:
                break
            a, k = quo, k - 1
        if k:
            left.append((f, k))
    return a, tuple(reversed(left))


def _combine_factors(b1, b2, pick):
    """The factor tuple with multiplicities ``pick(k1, k2)`` (add: a
    product, max: a common multiple)."""
    if not b1:
        return b2
    if not b2:
        return b1
    d = dict(b1)
    for f, k in b2:
        d[f] = pick(d[f], k) if f in d else k
    return tuple(sorted(d.items()))


def _phi(m, d):
    """Phi_d(m) as a native dict."""
    if d == 1:
        return {m: 1, _ORIGIN: -1}
    return {tuple(e * (d // 2) for e in m): 1, _ORIGIN: 1}


def _expand(b):
    """The product of the factors of ``b`` as a native dict."""
    out = {_ORIGIN: 1}
    for f, k in b:
        out = _nmul(out, _npow(_phi(*f), k))
    return out


def _edge(a):
    """(m, {t: coefficient of V m^-t}) for an edge of the Newton polytope of
    ``a`` (two terms or more) at its lexicographically largest exponent V,
    with m primitive.

    The edges at V are the extreme rays of the cone spanned by the u - V.
    Scaled onto the hyperplane w.r = -1, with w the weights that order
    exponent differences lexicographically, the lexicographically largest of
    them is a vertex, so its ray is an edge."""
    v = max(a)
    base = 2 * max(abs(e) for k in a for e in k) + 2
    w = [base ** i for i in range(len(v) - 1, -1, -1)]

    def scaled(r):
        s = -sum(map(mul, w, r))
        return tuple(Fraction(x, s) for x in r)

    best = max((tuple(map(sub, u, v)) for u in a if u != v), key=scaled)
    g = gcd(*best)
    m = tuple(-e // g for e in best)
    i = next(i for i, e in enumerate(m) if e)
    edge = {0: a[v]}
    for u, x in a.items():
        t, rem = divmod(v[i] - u[i], m[i])
        if t > 0 and not rem and all(p - t * e == q for p, e, q in zip(v, m, u)):
            edge[t] = x
    return m, edge


def _root_order(edge, d):
    """The multiplicity of Phi_d as a factor of the polynomial {t: coefficient}:
    the number of its derivatives, from the 0th on, that vanish at a
    primitive d-th root of unity."""
    k = 0
    while edge and _at_root(edge.items(), d):
        k += 1
        edge = {t - 1: t * x for t, x in edge.items() if t}
    return k


def _peel(a):
    """(c x^e, factors) with ``a`` = c x^e times the product of the factors,
    or None when ``a`` is no monomial times binomial factors.

    Each round takes an edge of the Newton polytope.  Its coefficients are
    the product of the factors of ``a`` along the edge's m, so unless they
    are a product of Phi_d, ``a`` has another factor; those Phi_d(m) are
    then divided out of ``a``, largest first."""
    found = []
    while len(a) > 1:
        m, edge = _edge(a)
        top, d, ks = max(edge), 1, []
        while max(1, d // 2) <= top:
            k = _root_order(edge, d)
            if k:
                ks.append((d, k))
            d *= 2
        if sum(max(1, d // 2) * k for d, k in ks) != top:
            return None
        for d, k in reversed(ks):
            for _ in range(k):
                a = _bdiv(a, m, d)
                if a is None:
                    return None
            found.append(((m, d), k))
    return a, tuple(sorted(found))


def _fadd(x, bx, y, by):
    """x/bx + y/by over the least common multiple of the denominators; with
    no factors on either side, the sum of two Laurent polynomials.  A zero
    operand has no factors, so the other is the canonical result as it
    stands."""
    if not y:
        return x, bx
    if not x:
        return y, by
    if bx != by:
        den = _combine_factors(bx, by, max)
        x = _nmul(x, _expand(_over(den, bx)))
        y = _nmul(y, _expand(_over(den, by)))
        bx = den
    return _reduce(_nadd(x, y), bx)


def _fsub(x, bx, y, by):
    return _fadd(x, bx, {k: -v for k, v in y.items()}, by)


def _over(b1, b2):
    """The factors of b1 / b2, where b2 divides b1."""
    d = dict(b2)
    return tuple((f, k - d.get(f, 0)) for f, k in b1 if k > d.get(f, 0))


def _fmul(x, bx, y, by):
    """x/bx * y/by: each numerator is divided by the other's factors first,
    so the product needs no division.  A canonical numerator is divisible by
    none of its own factors, so x is not tried against a factor that bx
    shares with by, nor y against one that by shares with bx.  A single
    term over no factors, such as 1 or -1, is a unit of the Laurent ring: it
    divides no factor and no factor divides it, so the product needs no
    reduction."""
    if not by and len(y) == 1:
        return _nmul(x, y), bx
    if not bx and len(x) == 1:
        return _nmul(x, y), by
    x, left_y = _reduce(x, by, dict(bx))
    y, left_x = _reduce(y, bx, dict(by))
    if not x or not y:
        return {}, ()
    return _nmul(x, y), _combine_factors(left_x, left_y, add)


def _fdiv(x, bx, y, by):
    """x/bx / (y/by) with y = c x^e times binomial factors, or None when
    ``y`` is not; DivisionByZero for a zero y.  A single term y, such as a
    Laurent monomial, peels to itself, and x is shifted and scaled by its
    inverse."""
    if not y:
        raise DivisionByZero("division by zero Scalar")
    peeled = _peel(y)
    if peeled is None:
        return None
    mono, fy = peeled
    x, den = _reduce(_nmul(x, _npow(mono, -1)), _combine_factors(bx, fy, add))
    return _fmul(x, den, _expand(by), ()) if by else (x, den)


def _fpow(x, b, n):
    """(x/b) ** n, or None for a negative power of an ``x`` that is no
    monomial times binomial factors."""
    if n >= 0:
        return _npow(x, n), tuple((f, k * n) for f, k in b if n)
    peeled = _peel(x)
    if peeled is None:
        return None
    mono, fx = peeled
    num = _npow(mono, n)
    if b:
        num = _nmul(_npow(_expand(b), -n), num)
    return num, tuple((f, -k * n) for f, k in fx)


# -- the two representations and the sympy side ------------------------------

def _native(d, b=()):
    s = _new(Scalar)
    _set_d(s, d)
    _set_b(s, b)
    _set_f(s, None)
    return s


def _general(f):
    s = _new(Scalar)
    _set_d(s, None)
    _set_b(s, ())
    _set_f(s, f)
    return s


def _int_value(s):
    """The value of Scalar ``s`` as an int, or None when it is no integer."""
    d = s._d
    if d is None or len(d) > 1 or s._b:
        return None
    k, v = next(iter(d.items()), ((), 0))
    return v.numerator if v.denominator == 1 and not any(k) else None


def _rational(c):
    """A sympy rational coefficient as an int or Fraction."""
    return _rat(Fraction(int(c.numerator), int(c.denominator)))


def _from_field(f):
    """The Scalar of a canonical sympy fraction: native when every
    coefficient is rational and the denominator is c x^e times binomial
    factors (found by ``_peel``)."""
    num, den = f.numer, f.denom
    if f.field.domain.is_QQ_I:
        if any(v.y for p in (num, den) for v in p.values()):
            return _general(f)
        num, den = ({k: v.x for k, v in p.items()} for p in (num, den))
    den, b = {k: _rational(v) for k, v in den.items()}, ()
    if len(den) > 1:
        peeled = _peel(den)
        if peeled is None:
            return _general(f)
        den, b = peeled
    (e, c), = den.items()
    return _native({tuple(map(sub, k, e)): _rat(Fraction(_rational(v), c))
                    for k, v in num.items()}, b)


def _to_field(d, b):
    """The canonical fraction, in the current field, of native ``d`` over
    the factors ``b``: both times the lcm L of the coefficient denominators
    of ``d`` and the smallest monomial that clears the negative exponents.
    The expanded factors have integer coefficients, content 1 and a
    positive leading coefficient, so the two are coprime as they stand."""
    field = _REG.field
    ring = field.ring
    if not d:
        return field.zero
    conv = ring.domain.dtype
    den = lcm(*(v.denominator for v in d.values()))
    e = _expand(b)
    shift = tuple(max(0, -min(col)) for col in zip(*d, *e))
    numer = ring.dtype({tuple(map(add, k, shift)): conv(v.numerator * (den // v.denominator))
                        for k, v in d.items()})
    return field.raw_new(numer, ring.dtype({tuple(map(add, k, shift)): conv(v * den)
                                            for k, v in e.items()}))


def _lift(s):
    """The fraction of Scalar ``s`` in the current global field.  It is
    cached in ``s``, so that old Scalars such as ``ZERO`` pay the
    re-embedding into a rebuilt field once, not per use."""
    f = s._f
    if f is None or f.field is not _REG.field:
        f = (_to_field(s._d, s._b) if s._d is not None
             else _REG.field.from_expr(f.as_expr()))
        _set_f(s, f)
    return f


def _is_expr(x):
    """Whether ``x`` is a sympy expression; never imports sympy, since no
    such expression exists before sympy is loaded."""
    return "sympy" in sys.modules and isinstance(x, sys.modules["sympy"].Expr)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return _native({_ORIGIN: _rat(x)} if x else {})
    if _is_expr(x):
        if x.has(_sympy().I):
            _REG.adjoin_i()
        return _from_field(_REG.field.from_expr(x))
    raise TypeError(f"cannot coerce {x!r} to Scalar")


class Scalar:
    """Exact rational function over Q, or Q(i) once i appears; its value is
    immutable (only the cached sympy fraction is ever replaced, by an equal
    one in a rebuilt field)."""

    __slots__ = ("_d", "_b", "_f")

    def __new__(cls, value=0):
        # a Scalar is returned itself: ncalg reads ``c is ONE`` as "not
        # scaled", so Scalar(ONE) must stay ONE; a product with ONE is its
        # other Scalar operand itself, ONE * ONE included
        return value if isinstance(value, Scalar) else _coerce(value)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    @property
    def f(self):
        """The value as a fraction of the current sympy field, built on
        first use and cached."""
        return _lift(self)

    # -- arithmetic -------------------------------------------------------
    def _bin(self, b, frac, gen):
        """self (op) b: ``frac`` on two native fractions, Laurent
        polynomials among them (None: the result is not native), else
        ``gen`` on the sympy fractions."""
        if not isinstance(b, Scalar):
            b = _operand(b)  # first: it may switch the field to Q(i)
            if b is None:
                return NotImplemented
        x, y = self._d, b._d
        if x is not None and y is not None:
            r = frac(x, self._b, y, b._b)
            if r is not None:
                return _native(*r)
        if frac is _fmul:  # a general value times 1 or -1 needs no gcd
            for u, v in ((b, self), (self, b)):
                c = _int_value(u)
                if c == 1 or c == -1:
                    return v if c == 1 else _neg(v)
        try:
            return _from_field(gen(_lift(self), _lift(b)))
        except ZeroDivisionError:
            raise DivisionByZero("division by zero Scalar") from None

    def __add__(self, other):
        # the common case, two Laurent polynomials, goes straight to _nadd
        if type(other) is Scalar:
            x, y = self._d, other._d
            if x is not None and y is not None and not (self._b or other._b):
                return _native(_nadd(x, y))
        return self._bin(other, _fadd, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin(other, _fsub, sub)

    def __rsub__(self, other):
        b = _operand(other)
        return NotImplemented if b is None else b._bin(self, _fsub, sub)

    def __mul__(self, other):
        if other is ONE:
            return self
        if type(other) is Scalar:
            if self is ONE:
                return other
            x, y = self._d, other._d
            if x is not None and y is not None and not (self._b or other._b):
                return _native(_nmul(x, y))
        return self._bin(other, _fmul, mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._bin(other, _fdiv, truediv)

    def __rtruediv__(self, other):
        b = _operand(other)
        return NotImplemented if b is None else b._bin(self, _fdiv, truediv)

    def __pow__(self, n: int):
        if type(n) is not int and not isinstance(n, numbers.Integral):
            return NotImplemented
        return _pow(self, int(n))

    def __neg__(self):
        return _neg(self)

    def __pos__(self):
        return self

    # -- comparison / hashing --------------------------------------------
    def __eq__(self, other):
        if type(other) is Scalar:
            b = other
        elif isinstance(other, NUMBERS):
            b = _coerce(other)
        else:
            return NotImplemented
        x, y = self._d, b._d
        if x is not None or y is not None:  # one representation per value
            return x == y and self._b == b._b
        return _lift(self) == _lift(b)

    def __hash__(self):
        d = self._d
        if d is None:
            return hash(self._f.as_expr())
        if self._b:
            return hash((frozenset(d.items()), self._b))
        if not d or len(d) == 1 and _ORIGIN in d:  # 0 or a constant: the hash of the int/Fraction
            return hash(d.get(_ORIGIN, 0))
        return hash(frozenset(d.items()))

    def __bool__(self):
        d = self._d
        return True if d is None else bool(d)

    # -- inspection -------------------------------------------------------
    def as_expr(self):
        return self.f.as_expr()

    def __str__(self):
        return str(self.f.as_expr()).replace("I", "i")

    def __repr__(self):
        return f"Scalar({self})"


#: what Scalar, Element and TensorElement arithmetic and == take as a number
NUMBERS = (Scalar, int, Fraction)

_new = object.__new__
_set_d = Scalar._d.__set__
_set_b = Scalar._b.__set__
_set_f = Scalar._f.__set__


def _neg(s):
    d = s._d
    if d is None:
        return _general(-s._f)
    return _native({k: -v for k, v in d.items()}, s._b)


def _pow(s, n):
    if n < 0 and not s:
        raise DivisionByZero("0 ** negative power")
    if s._d is not None:
        r = _fpow(s._d, s._b, n)
        if r is not None:
            return _native(*r)
    f = _lift(s) ** n
    u = f.denom.canonical_unit()  # sympy's f**-n keeps the unit of f.numer
    if u != f.field.domain.one:
        f = f.raw_new(f.numer.mul_ground(u), f.denom.mul_ground(u))
    return _from_field(f)


def _operand(x):
    """``x`` as a Scalar operand, or None for a type Scalar cannot take."""
    return _coerce(x) if isinstance(x, (int, Fraction)) or _is_expr(x) else None


# -- constructors ---------------------------------------------------------

def indet(name: str) -> Scalar:
    if name not in _NAMES:
        raise KeyError(f"unknown indeterminate {name!r}; the indeterminates are "
                       + ", ".join(_NAMES))
    k = _NAMES.index(name)
    return _native({tuple(int(j == k) for j in range(len(_NAMES))): 1})


ZERO = Scalar(0)
ONE = Scalar(1)


def imag_unit() -> Scalar:
    return Scalar(_sympy().I)


def qvar() -> Scalar:
    return indet("q")


def sign_pow(k: int) -> Scalar:
    """(-1)**k as a Scalar."""
    return ONE if k % 2 == 0 else -ONE


# -- serialization --------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_]\w*|[^\s\d()*/^+-]", re.ASCII)
_TOKEN = re.compile(r"\s*(\d+|\w+|\*\*|\S)", re.ASCII)
# the four binary operations of parse: native arithmetic, sympy's field
_BINARY = {"+": (_fadd, add), "-": (_fsub, sub), "*": (_fmul, mul), "/": (_fdiv, truediv)}
_MAX_DIGITS = 100         # of an integer literal
_MAX_EXPONENT = 10 ** 9   # |n| in x^n
_MAX_SIZE = 10 ** 6       # bound on terms x coefficient bits of a result
_MAX_DEGREE = 2 ** 12     # of an operand in one indeterminate, for a gcd in sympy's field
_MAX_DEPTH = 100          # nesting of signs, powers and bracketed terms


def _den_terms(b):
    """A bound on the terms of the expanded product of the factors ``b``,
    found without expanding it.  For each m the product is a polynomial in
    y = m with at most (degree + 1) terms.  It is also the product of its
    layers, the factors of multiplicity at least l for l = 1, 2, ..., and a
    layer is a product of runs of consecutive Phi_(2^t)(y), t = i..j (Phi_1
    for t = 0): y^(2^j) - 1, of 2 terms, for i = 0, and otherwise
    1 + y^g + y^(2g) + ... with g = 2^(i-1), of 2^(j-i+1) terms.  The bound
    for ``b`` is the product over m of the smaller of the two."""
    by_m = {}
    for (m, d), k in b:
        by_m.setdefault(m, {})[d.bit_length() - 1] = k  # t with d = 2^t
    total = 1
    for ks in by_m.values():
        degree = sum(k * (1 if t == 0 else 2 ** (t - 1)) for t, k in ks.items())
        layers, below = 1, 0
        for level in sorted(set(ks.values())):
            ts = sorted(t for t, k in ks.items() if k >= level)
            runs, start = 1, ts[0]
            for prev, t in zip(ts, ts[1:] + [None]):
                if t != prev + 1:
                    runs *= 2 if start == 0 else 2 ** (prev - start + 1)
                    start = t
            layers *= runs ** (level - below)
            below = level
        total *= min(layers, degree + 1)
    return total


def _measure(s):
    """(numerator terms, denominator terms, height) of the canonical fraction
    of a Scalar, or bounds on them: the height is the largest numerator or
    denominator among its coefficients in absolute value (of a Laurent
    value, among its own coefficients).  A native value with factors is
    never expanded: the terms of its denominator are bounded by
    ``_den_terms``, and its coefficients by the lcm L of the numerator's
    coefficient denominators times 2^(sum of the multiplicities), each
    factor having two coefficients +-1."""
    d = s._d
    if d is None:
        f = s.f
        cs = [p for v in (*f.numer.values(), *f.denom.values())
              for p in ((v.x, v.y) if f.field.domain.is_QQ_I else (v,))]
        return (len(f.numer), len(f.denom),
                max(max(abs(int(c.numerator)), int(c.denominator)) for c in cs))
    if not s._b:
        return len(d), 1, max((max(abs(v.numerator), v.denominator) for v in d.values()),
                              default=1)
    den = lcm(*(v.denominator for v in d.values()))
    height = max(abs(v.numerator) * (den // v.denominator) for v in d.values())
    return len(d), _den_terms(s._b), max(height, den << sum(k for _, k in s._b))


def _work(terms, height):
    """terms x coefficient bits"""
    return terms * (log2(height) + 1)


def _bounded_pow(x, n):
    if n is None:
        raise ValueError("exponent that is not an integer")
    if abs(n) > _MAX_EXPONENT:
        raise ValueError(f"exponent beyond {_MAX_EXPONENT}")
    # num^m over den^m: a polynomial of u > 1 terms to the m has at most
    # C(m+u-1, u-1) terms (at least m+1), with coefficients of at most
    # m log2(h u) + 1 bits, and a monomial stays one term; a count is capped
    # at e^40, far past the bound, so that exp cannot overflow
    nx, dx, h = _measure(x)
    m, t = abs(n), max(nx, dx)
    terms = max(1, sum(exp(min(lgamma(m + u) - lgamma(m + 1) - lgamma(u), 40))
                       for u in (nx, dx) if u > 1))
    if (t > 1 and m > _MAX_SIZE) or terms * (m * log2(h * t) + 1) > _MAX_SIZE:
        raise ValueError("power too large")
    return _bounded(_pow(x, n))


def _bounded(x):
    """``x``, unless it has binomial factors and its canonical fraction passes
    the size bound: so every value parse returns can be printed.  (Dividing
    out a common factor can make the expanded denominator of a result far
    larger than its operands', as in (q + 1) / (q^(2^29) - 1)^2.)"""
    if x._b:
        nx, dx, h = _measure(x)
        if _work(nx + dx, h) > _MAX_SIZE:
            raise ValueError("value too large")
    return x


def _bounded_bin(x, op, y):
    """x op y for an operator of ``_BINARY``, refused before it is computed
    when it could pass the size bound, and after, when its value does.

    The bound is on what the operation builds from the operands' numerators
    n and denominators d, N + D terms with the coefficient bits of both:
    N = nx ny, D = dx dy for *; N = nx dy, D = dx ny for /; N = nx dy +
    ny dx, D = dx dy for + and -.  Two native operands are added over the
    lcm of their denominators instead, each numerator multiplied by the
    factors the other's denominator adds, which may expand to far more terms
    than that denominator has (q - 1 against q^n - 1); with the same factors
    a sum costs the operands' terms and needs no bound.  The native
    arithmetic builds no more, apart from exact quotients, which ``_bdiv``
    bounds.  sympy's field cancels N against D by a gcd, whose cost has no
    such bound unless N or D is a monomial, so when the operation reaches
    the field (with two native operands, only a division whose divisor's
    numerator is no monomial times binomials) it is refused there if an
    operand's fraction has a degree over ``_MAX_DEGREE`` in an
    indeterminate."""
    frac, gen = _BINARY[op]
    native_sum = op in "+-" and x._d is not None and y._d is not None
    if native_sum and x._b == y._b:
        return _bounded(x._bin(y, frac, gen))
    (nx, dx, hx), (ny, dy, hy) = _measure(x), _measure(y)
    if op == "*":
        num, den = nx * ny, dx * dy
    elif op == "/":
        num, den = nx * dy, dx * ny
    elif native_sum:
        common = _combine_factors(x._b, y._b, max)
        num = nx * _den_terms(_over(common, x._b)) + ny * _den_terms(_over(common, y._b))
        den = _den_terms(common)
    else:
        num, den = nx * dy + ny * dx, dx * dy
    if _work(num + den, hx * hy) > _MAX_SIZE:
        raise ValueError(f"{'product' if op in '*/' else 'sum'} too large")
    field_op = gen
    if num > 1 and den > 1:
        def field_op(a, b):
            if max(*a.numer.degrees(), *a.denom.degrees(),
                   *b.numer.degrees(), *b.denom.degrees()) > _MAX_DEGREE:
                raise ValueError(f"gcd of degree beyond {_MAX_DEGREE}")
            return gen(a, b)
    return _bounded(x._bin(y, frac, field_op))


def _tokens(text):
    """The tokens of ``text`` (integers, names, ``**`` and single characters),
    last first, so that ``pop`` takes the next."""
    return _TOKEN.findall(text.replace("^", "**"))[::-1]


def _sum(toks, depth):
    """A sum of products, left to right in one loop, so that its length
    costs no recursion."""
    x = _product(toks, depth)
    while toks and toks[-1] in ("+", "-"):
        op = toks.pop()
        x = _bounded_bin(x, op, _product(toks, depth))
    return x


def _product(toks, depth):
    x = _factor(toks, depth)
    while toks and toks[-1] in ("*", "/"):
        op = toks.pop()
        x = _bounded_bin(x, op, _factor(toks, depth))
    return x


def _factor(toks, depth):
    """A signed factor or a power, with Python's precedence: -x**n is
    -(x**n), and x**-n takes the sign into the exponent.  A sign, an
    exponent and a bracket each nest one level deeper."""
    if depth > _MAX_DEPTH:
        raise ValueError(f"nesting deeper than {_MAX_DEPTH}")
    if toks and toks[-1] in ("+", "-"):
        sign = toks.pop()
        x = _factor(toks, depth + 1)
        return _neg(x) if sign == "-" else x
    x = _atom(toks, depth)
    if toks and toks[-1] == "**":
        toks.pop()
        return _bounded_pow(x, _int_value(_factor(toks, depth + 1)))
    return x


def _atom(toks, depth):
    tok = toks.pop() if toks else "end of text"
    if tok == "(":
        x = _sum(toks, depth + 1)
        if not toks or toks.pop() != ")":
            raise ValueError("unbalanced bracket")
        return x
    if tok.isdigit():
        return _coerce(int(tok))
    if tok == "i":
        return imag_unit()
    if tok in _NAMES:
        return indet(tok)
    raise ValueError(f"unexpected {tok!r}")


# parse's store of values: (text, Q(i) or Q) -> Scalar
_PARSED = {}
_MAX_PARSED = 1 << 12


def parse(text: str) -> Scalar:
    """Parse an expression over + - * / ^ **, parentheses, integers, i and
    the five indeterminates q, lam1, lam2, mu1 and mu2, with the precedence
    of Python (``^`` is ``**``).  A parser by recursive descent evaluates the
    text as it reads it, with the arithmetic helpers, not Scalar's operators,
    so that parsing adds no operator calls to the caller's count; sums and
    products are loops, so their length is not bounded.

    The value of each distinct text is kept, keyed by the text and whether
    the ground field is Q(i): the value of a text depends on nothing else,
    and a Scalar is immutable, so a repeated text returns the value it gave
    before.  The store keeps the latest 4096 values.  A text with ``i`` is never kept, since parsing it
    switches the field to Q(i), and neither is a text that is refused, so
    it raises again on every call.

    The work is bounded by one size: 10^6 terms x coefficient bits of a
    canonical fraction.  These are refused with ValueError:

    - a name or character outside the grammar, before the text is parsed,
      so it is never run as code;
    - an integer literal of more than 100 digits, an exponent that is not
      an integer of at most 10^9 in size, and signs, exponents and brackets
      nested more than 100 deep;
    - a power or a binary operation whose result could pass the size,
      before it is computed; an operation that takes a gcd in sympy's field
      that no monomial makes trivial is also refused on an operand of degree
      over 2^12 in an indeterminate;
    - an exact division by a binomial factor whose quotient has more terms
      than the size, before the quotient is built;
    - a value with binomial factors whose canonical fraction passes the
      size, once it is computed.
    """
    key = (text, _REG.qi)
    x = _PARSED.get(key)
    if x is None:
        names = _NAME.findall(text)
        x = _parse(text, names)
        if "i" not in names:
            if len(_PARSED) >= _MAX_PARSED:
                del _PARSED[next(iter(_PARSED))]  # the oldest
            _PARSED[key] = x
    return x


def _parse(text, names):
    """The value of ``text``, whose name tokens are ``names``, parsed
    afresh: :func:`parse` without its store."""
    for tok in names:
        if tok != "i" and tok not in _NAMES:
            raise ValueError(f"unexpected {tok!r} in {text!r}")
    if max(map(len, re.findall(r"\d+", text)), default=0) > _MAX_DIGITS:
        raise ValueError(f"integer literal of more than {_MAX_DIGITS} digits in {text!r}")
    try:
        toks = _tokens(text)
        x = _sum(toks, 0)
        if toks:
            raise ValueError(f"unexpected {toks[-1]!r}")
        return x
    except (ValueError, RecursionError, DivisionByZero) as exc:
        raise ValueError(f"cannot parse {text!r}: {exc}") from exc


def render(a: Scalar) -> str:
    return str(a)


# -- residues modulo a prime ---------------------------------------------

MODULUS = (1 << 64) - 59  # a prime; 2, 3, 5, 7 and 11 have large order mod it
_PRIMES = (2, 3, 5, 7, 11)


def _monomial_residue(point, exps):
    """The monomial of exponent tuple ``exps`` at ``point`` modulo
    ``MODULUS``; a negative exponent is a power of the modular inverse."""
    r = 1
    for x, e in zip(point, exps):
        if e:
            r = r * pow(x, e, MODULUS) % MODULUS
    return r


def prime_point() -> list:
    """q = 2, lam1 = 3, lam2 = 5, mu1 = 7, mu2 = 11: a distinct prime for
    each indeterminate, in their order."""
    return list(_PRIMES)


def _terms_residue(terms, point):
    """The residue of the sum of the terms c x^k, the (k, c) of ``terms``
    with int or Fraction c, at ``point``; None when a denominator of a c is
    0 modulo ``MODULUS``."""
    r = 0
    for k, c in terms:
        if type(c) is not int:
            if not c.denominator % MODULUS:
                return None
            c = c.numerator * pow(c.denominator, -1, MODULUS)
        r += c * _monomial_residue(point, k)
    return r % MODULUS


def prime_point_residue(a: Scalar, point=None) -> "int | None":
    """The value of ``a`` modulo ``MODULUS`` at ``point``, one int per
    indeterminate in their order (default :func:`prime_point`); ValueError,
    before anything is computed, for a point that gives an indeterminate a
    value that is 0 modulo ``MODULUS`` (naming it), and for one with fewer
    than five values.  None when a coefficient's denominator is 0 modulo
    ``MODULUS``, at a pole (a denominator that is 0 modulo ``MODULUS`` at
    the point), and for a general value with an imaginary part.

    A native value is computed in plain ints: each term of the Laurent
    numerator and each factor m^g +- 1 at the point, a power at the cost of
    the bits of its exponent, and one modular inverse of the product of the
    factors.  At the prime point no factor vanishes: a factor Phi_d(m) is
    m^g +- 1 with m a nonzero exponent tuple, and a product of powers of
    distinct primes is 1 only for m = 0, so there the residue is the image
    of an exact rational value, whatever the degrees.  Elsewhere a factor
    can vanish (q - 1 at q = 1).  A general value is its canonical sympy
    fraction, numerator and denominator each evaluated term by term.  The
    evaluation is a ring map wherever the denominator does not vanish, so
    a value has one residue whatever its representation."""
    if point is None:
        point = prime_point()
    for i, (name, x) in enumerate(zip(_NAMES, point)):
        if not x % MODULUS:
            raise ValueError(f"coordinate {i} ({name}) of the point is 0 modulo MODULUS")
    if len(point) < len(_NAMES):
        raise ValueError(f"a point of {len(point)} values for {len(_NAMES)} indeterminates")
    if a._d is None:
        f = _lift(a)
        polys = (f.numer, f.denom)
        if f.field.domain.is_QQ_I:
            if any(c.y for p in polys for c in p.values()):
                return None
            polys = [{k: c.x for k, c in p.items()} for p in polys]
        num, den = (_terms_residue(((k, _rational(c)) for k, c in p.items()), point)
                    for p in polys)
    else:
        num, den = _terms_residue(a._d.items(), point), 1
        for (m, dd), k in a._b:
            f = pow(_monomial_residue(point, m), max(1, dd // 2), MODULUS)
            den = den * pow((f - 1 if dd == 1 else f + 1) % MODULUS, k, MODULUS) % MODULUS
    if num is None or not den:
        return None
    return num * pow(den, -1, MODULUS) % MODULUS


# -- Kronecker substitution ----------------------------------------------

_MAX_CODE_BITS = 1 << 14  # of one entry's code


def _kronecker_bits(k, width, norm):
    """b with X = 2^b > 2 width^(k-1) norm^k."""
    return (2 * width ** (k - 1) * norm ** k).bit_length()


def kronecker_codes(factors):
    """The matrices ``factors``, in row form (each row a list of (column,
    Scalar) pairs), with each entry x replaced by the int D q^s x at q = X =
    2^b: an identity between products of k = len(factors) of them, such as
    R12 R13 R23 = R23 R13 R12 or A B = 0, holds exactly when it holds
    between the products of their codes.  None, and nothing is built, unless
    every entry is a native Laurent polynomial in q alone (no binomial
    factor, no other indeterminate) and no code passes ``_MAX_CODE_BITS``
    bits.

    D is the lcm of the coefficient denominators and -s the lowest exponent
    of q, both over all entries, so each D q^s x lies in Z[q].  Evaluation
    at X is a ring map, so the code of a product of k factors is the value
    at X of (D q^s)^k times the product, the same unit on both sides of the
    identity.  An entry of such a product is a sum of at most W^(k-1)
    products of k entries, W the largest number of entries in a row, so its
    coefficients are at most W^(k-1) M^k < X/2 in size, M the largest L1
    norm of a D q^s x (at least D, the norm of the code of 1).  The
    difference of the two sides then has integer coefficients below X in
    size, and such a polynomial is 0 at X only when it is 0: its top term
    outweighs all the others.  A matrix given more than once is encoded
    once, and its codes are shared."""
    distinct = {id(rows): rows for rows in factors}
    values = {id(x): x for rows in distinct.values() for row in rows for _, x in row}
    terms = []
    for x in values.values():
        if type(x) is not Scalar or x._d is None or x._b:
            return None
        terms += x._d.items()
    if any(any(k[1:]) for k, _ in terms):
        return None
    den = lcm(*(v.denominator for _, v in terms))
    exps = [k[0] for k, _ in terms]
    lo, hi = min(exps, default=0), max(exps, default=0)
    norm = max([den] + [sum(abs(v.numerator) * (den // v.denominator) for v in x._d.values())
                        for x in values.values()])
    width = max(map(len, (row for rows in distinct.values() for row in rows)), default=1)
    b = _kronecker_bits(len(factors), width, norm)
    if b * (hi - lo) + norm.bit_length() > _MAX_CODE_BITS:
        return None
    codes = {i: sum((v.numerator * (den // v.denominator)) << (b * (k[0] - lo))
                    for k, v in x._d.items())
             for i, x in values.items()}
    encoded = {i: [[(j, codes[id(x)]) for j, x in row] for row in rows]
               for i, rows in distinct.items()}
    return [encoded[id(rows)] for rows in factors]
