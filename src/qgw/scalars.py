"""Exact coefficient field: rational functions over Q, or Q(i) once i appears.

Every coefficient in the workbench is a ``Scalar``: a canonical fraction of
multivariate polynomials in a fixed, ordered list of commuting indeterminates
(the deformation parameter ``q`` plus representation labels), with
coefficients in Q, or in Q(i) from the first time ``i`` appears
(:func:`imag_unit`, ``i`` in :func:`parse`).  Canonical form is that of
sympy's sparse fraction fields (numerator and denominator coprime in Z[x],
denominator with positive leading coefficient), so equality of Scalars is
exact and syntactic.  Over Q, +, - and * of fractions with monomial
denominators c x^e skip sympy's gcd: against a monomial it is a monomial,
read off the numerator in one pass.  No floating point enters the core;
floats appear only in :func:`scalar_eval`, which is a diagnostic.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

import sympy
from sympy import I as _sympy_I
from sympy import Symbol
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.fields import field as _mkfield


class DivisionByZero(ZeroDivisionError):
    pass


class PoleAtPoint(ArithmeticError):
    pass


class _Registry:
    """Global ordered indeterminate registry backing the scalar field."""

    def __init__(self, names):
        self.names = list(names)
        self.domain = QQ
        self._build()

    def _build(self):
        objs = _mkfield(",".join(self.names), self.domain)
        self.field = objs[0]
        self.gens = dict(zip(self.names, objs[1:]))
        self.symbols = {n: Symbol(n) for n in self.names}
        self.one = self.field.ring.one
        self.minus_one = -self.one

    def adjoin_i(self):
        """Switch the ground field from Q to Q(i); once, on first use of i."""
        if self.domain is QQ:
            self.domain = QQ_I
            self._build()

    def register(self, name):
        if name in self.names:
            return
        self.names.append(name)
        self._build()


_REG = _Registry(["q", "lam1", "lam2", "mu1", "mu2"])


def register_indeterminate(name: str) -> "Scalar":
    """Add a new indeterminate at the end of the global order.

    Existing Scalars keep working: they are lifted into the enlarged field
    lazily, on the first mixed operation.
    """
    _REG.register(name)
    return indet(name)


def _lift(s):
    """The fraction of Scalar ``s`` in the current global field.  After a
    rebuild, ``s`` keeps its re-embedded fraction (same value and hash), so
    that old Scalars such as ``ZERO`` pay the re-embedding once, not per use."""
    f = s.f
    if f.field is not _REG.field:
        f = _REG.field.from_expr(f.as_expr())
        object.__setattr__(s, "f", f)
    return f


def _coerce(x):
    if isinstance(x, Scalar):
        return _lift(x)
    if isinstance(x, (int, Fraction)):  # canonical as it stands: no cancel
        new = _REG.field.ring.ground_new
        return _REG.field.raw_new(new(x.numerator), new(x.denominator))
    if isinstance(x, sympy.Expr):
        if x.has(_sympy_I):
            _REG.adjoin_i()
        return _REG.field.from_expr(x)
    raise TypeError(f"cannot coerce {x!r} to Scalar")


def _laurent(a, b):
    """Both denominators are monomials c x^e over Q (so no gcd search)."""
    return _REG.domain is QQ and len(a.denom) == 1 and len(b.denom) == 1


def _reduced(field, num, c, e):
    """The canonical fraction num / (c x^e), for ``num`` a dict of integer
    coefficients and an integer c > 0.  Against a monomial the gcd is a
    monomial g x^m: g the gcd of c and the coefficients, m the componentwise
    minimum of e and the exponents."""
    num = {k: v for k, v in num.items() if v}
    if not num:
        return field.zero
    g = gcd(c, *num.values())
    m = tuple(map(min, e, *num)) if any(e) else e
    if any(m):
        num = {tuple(map(sub, k, m)): v for k, v in num.items()}
        e = tuple(map(sub, e, m))
    mpq, ring = QQ.dtype, field.ring
    return field.raw_new(ring.dtype({k: mpq(v // g) for k, v in num.items()}),
                         ring.dtype({e: mpq(c // g)}))


def _add(a, b, sign=1):
    """a + sign*b: each numerator shifted and scaled onto the lcm of the
    denominators when both are monomials."""
    if not _laurent(a, b):
        return a + b if sign > 0 else a - b
    (ea, ca), = a.denom.items()
    (eb, cb), = b.denom.items()
    c, e = lcm(ca.numerator, cb.numerator), tuple(map(max, ea, eb))
    num = {}
    for p, ep, s in ((a.numer, ea, c // ca.numerator),
                     (b.numer, eb, sign * c // cb.numerator)):
        d = tuple(map(sub, e, ep))
        for k, v in p.items():
            k = tuple(map(add, k, d))
            num[k] = num.get(k, 0) + s * v.numerator
    return _reduced(a.field, num, c, e)


def _mul(a, b):
    """a * b; a factor (or its negation) when the other is 1 or -1, the
    product of the integer numerators when both denominators are monomials."""
    one = _REG.one
    for x, y in ((a, b), (b, a)):
        if dict.__eq__(y.denom, one):
            if dict.__eq__(y.numer, one):
                return x
            if dict.__eq__(y.numer, _REG.minus_one):
                return -x
    if not _laurent(a, b):
        return a * b
    (ea, ca), = a.denom.items()
    (eb, cb), = b.denom.items()
    nb = [(k, v.numerator) for k, v in b.numer.items()]
    num = {}
    for ka, va in a.numer.items():
        for kb, vb in nb:
            k = tuple(map(add, ka, kb))
            num[k] = num.get(k, 0) + va.numerator * vb
    return _reduced(a.field, num, ca.numerator * cb.numerator, tuple(map(add, ea, eb)))


class Scalar:
    """Exact rational function over Q, or Q(i) once i appears; its value is
    immutable (only :func:`_lift` swaps in an equal fraction of a new field)."""

    __slots__ = ("f",)

    def __init__(self, value=0):
        object.__setattr__(self, "f", _coerce(value))

    @classmethod
    def _raw(cls, f):
        s = object.__new__(cls)
        object.__setattr__(s, "f", f)
        return s

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- arithmetic -------------------------------------------------------
    def _bin(self, other, op):
        if isinstance(other, Scalar):
            a, b = self.f, other.f
            if a.field is b.field is _REG.field:
                return Scalar._raw(op(a, b))
        try:
            b = _coerce(other)  # first: it may switch the field to Q(i)
        except TypeError:
            return NotImplemented
        return Scalar._raw(op(_lift(self), b))

    def __add__(self, other):
        return self._bin(other, _add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin(other, lambda a, b: _add(a, b, -1))

    def __rsub__(self, other):
        return self._bin(other, lambda a, b: _add(b, a, -1))

    def __mul__(self, other):
        return self._bin(other, _mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            return self._bin(other, lambda a, b: a / b)
        except ZeroDivisionError:
            raise DivisionByZero("division by zero Scalar") from None

    def __rtruediv__(self, other):
        try:
            return self._bin(other, lambda a, b: b / a)
        except ZeroDivisionError:
            raise DivisionByZero("division by zero Scalar") from None

    def __pow__(self, n: int):
        if not isinstance(n, numbers.Integral):
            return NotImplemented
        if n < 0 and not self:
            raise DivisionByZero("0 ** negative power")
        f = _lift(self) ** int(n)
        u = f.denom.canonical_unit()  # sympy's f**-n keeps the unit of f.numer
        if u != _REG.domain.one:
            f = f.raw_new(f.numer.mul_ground(u), f.denom.mul_ground(u))
        return Scalar._raw(f)

    def __neg__(self):
        return Scalar._raw(-self.f)

    def __pos__(self):
        return self

    # -- comparison / hashing --------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return _lift(self) == _coerce(other)
        return NotImplemented

    def __hash__(self):
        # independent of the field object, and equal to hash(int/Fraction)
        e = self.f.as_expr()
        if e.is_Rational:
            return hash(Fraction(int(e.p), int(e.q)))
        return hash(e)

    def __bool__(self):
        return bool(self.f.numer)

    # -- inspection -------------------------------------------------------
    def indeterminates(self):
        """Names of indeterminates actually occurring in this Scalar."""
        free = self.f.as_expr().free_symbols
        return {s.name for s in free}

    def as_expr(self):
        return self.f.as_expr()

    def __str__(self):
        return str(self.f.as_expr()).replace("I", "i")

    def __repr__(self):
        return f"Scalar({self})"


# -- constructors ---------------------------------------------------------

def indet(name: str) -> Scalar:
    if name not in _REG.gens:
        raise KeyError(f"unregistered indeterminate {name!r}; call register_indeterminate")
    return Scalar._raw(_REG.gens[name])


ZERO = Scalar(0)
ONE = Scalar(1)


def imag_unit() -> Scalar:
    return Scalar(_sympy_I)


def qvar() -> Scalar:
    return indet("q")


def sign_pow(k: int) -> Scalar:
    """(-1)**k as a Scalar."""
    return ONE if k % 2 == 0 else -ONE


# -- serialization --------------------------------------------------------

def parse(text: str) -> Scalar:
    """Parse an expression over + - * / ^ **, parentheses, integers, i and
    the registered indeterminates.  Any other name or character is a
    ValueError before sympy sees the text, so the input is never run as code.
    """
    local = dict(_REG.symbols)
    local["i"] = _sympy_I
    for tok in re.findall(r"[A-Za-z_]\w*|[^\s\d()*/^+-]", text, re.ASCII):
        if tok not in local:
            raise ValueError(f"unexpected {tok!r} in {text!r}")
    try:
        expr = sympy.sympify(text.replace("^", "**"), locals=local, rational=True)
        return Scalar(expr)
    except Exception as exc:
        raise ValueError(f"cannot parse {text!r}: {exc}") from exc


def render(a: Scalar) -> str:
    return str(a)


# -- numeric evaluation ---------------------------------------------------

def scalar_eval(a: Scalar, assignment: dict) -> complex:
    """Evaluate at a complex point.  Diagnostic only, never used for pass/fail.

    ``assignment`` maps indeterminate names to complex numbers and must cover
    all indeterminates of ``a``.  Raises PoleAtPoint when the denominator
    vanishes (within 1e-12 of the numerator's scale).
    """
    need = a.indeterminates()
    missing = need - set(assignment)
    if missing:
        raise KeyError(f"assignment missing indeterminates {sorted(missing)}")
    sub = {}
    for name, val in assignment.items():
        if name in _REG.symbols:
            c = complex(val)
            sub[_REG.symbols[name]] = sympy.Float(c.real, 17) + _sympy_I * sympy.Float(c.imag, 17)
    f = _lift(a)
    num = complex(f.numer.as_expr().subs(sub).evalf())
    den = complex(f.denom.as_expr().subs(sub).evalf())
    if abs(den) <= 1e-12:
        raise PoleAtPoint(f"denominator vanishes at {assignment}")
    return num / den
