"""Exact coefficient field: rational functions over Q, or Q(i) once i appears.

Every coefficient in the workbench is a ``Scalar``: a rational function in a
fixed, ordered list of commuting indeterminates (the deformation parameter
``q`` plus representation labels), with coefficients in Q, or in Q(i) from
the first time ``i`` appears (:func:`imag_unit`, ``i`` in :func:`parse`).

A Scalar has one of two representations, and which one is a function of its
value alone:

- **native**: a Laurent polynomial over Q, that is a value whose reduced
  denominator is c x^e.  It is held as a dict from exponent tuples (negative
  entries allowed) to nonzero ``int``/``Fraction`` coefficients, which is
  its canonical form.  +, -, * of two native values, / by a single-term
  native value, ``**`` (any integer power of a single term, a power n >= 0
  of more terms), ==, ``bool`` and the coercion of ``int``/``Fraction`` are
  dict arithmetic and build no sympy object.
- **general**: every other value, held as a canonical fraction of sympy's
  sparse fraction field (numerator and denominator coprime in Z[x], or
  Z[i][x], denominator with positive leading coefficient).

sympy's field does the rest: an operation with a general operand, division
by a multi-term value, and a negative power of one.  Its result comes back
native whenever its denominator is a monomial and its coefficients are
rational, so no value has two representations, whatever the ground field.
Hence == compares representations exactly and a native value never equals a
general one.  ``hash`` hashes the representation: the exponent/coefficient
pairs of a native value with trailing zero exponents dropped (the hash of
the ``int``/``Fraction`` for a constant), the sympy expression of a general
one.  Neither depends on the field object, so a value keeps its hash when
``i`` is adjoined or an indeterminate is registered.  A general value is
re-embedded into a rebuilt field on its first mixed operation.

``Scalar.f`` is the value as a sympy fraction, built on first use for a
native value and cached; ``str`` prints its expression.  No floating point
enters the core; floats appear only in :func:`scalar_eval`, which is a
diagnostic.
"""

from __future__ import annotations

import ast
import numbers
import re
from fractions import Fraction
from math import exp, lcm, lgamma, log2
from operator import add, mul, sub, truediv

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
        self.field = _mkfield(",".join(self.names), self.domain)[0]
        self.symbols = {n: Symbol(n) for n in self.names}
        self.n = len(self.names)
        self.origin = (0,) * self.n  # exponent tuple of a constant

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

    Existing Scalars keep working: a native value's exponent tuples are
    shorter, and an operation mixing lengths runs in the enlarged field.
    """
    _REG.register(name)
    return indet(name)


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


def _nsub(a, b):
    d = a.copy()
    for k, v in b.items():
        v = d.get(k, 0) - v
        if v:
            d[k] = v
        else:
            del d[k]
    return d


def _nmul(a, b):
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


def _ndiv(a, b):
    """a / b when b is a single term; None sends a multi-term b to sympy."""
    if len(b) != 1:
        if not b:
            raise DivisionByZero("division by zero Scalar")
        return None
    (kb, vb), = b.items()
    inv = vb if vb == 1 or vb == -1 else Fraction(vb.denominator, vb.numerator)
    return _nmul(a, {tuple(-e for e in kb): _rat(inv)})


def _npow(d, n, origin):
    """d ** n; None sends a negative power of a multi-term d to sympy."""
    if n == 0:
        return {origin: 1}
    if len(d) == 1:
        (k, v), = d.items()
        return {tuple(e * n for e in k): _rat(Fraction(v) ** n)}
    if n < 0:
        return None
    out = None
    while True:  # square and multiply
        if n & 1:
            out = d if out is None else _nmul(out, d)
        n >>= 1
        if not n:
            return out
        d = _nmul(d, d)


# -- the two representations and the sympy side ------------------------------

def _native(d, n):
    s = _new(Scalar)
    _set_d(s, d)
    _set_n(s, n)
    _set_f(s, None)
    return s


def _general(f):
    s = _new(Scalar)
    _set_d(s, None)
    _set_n(s, f.field.ngens)
    _set_f(s, f)
    return s


def _int_value(s):
    """The value of Scalar ``s`` as an int, or None when it is no integer."""
    d = s._d
    if d is None or len(d) > 1:
        return None
    k, v = next(iter(d.items()), ((), 0))
    return v.numerator if v.denominator == 1 and not any(k) else None


def _from_field(f):
    """The Scalar of a canonical sympy fraction: native when the denominator
    is a monomial c x^e and every coefficient is rational."""
    den = f.denom
    if len(den) == 1:
        (e, c), = den.items()
        if f.field.domain is QQ_I:
            if c.y or any(v.y for v in f.numer.values()):
                return _general(f)
            c, num = c.x, {k: v.x for k, v in f.numer.items()}
        else:
            num = f.numer
        c = Fraction(int(c.numerator), int(c.denominator))
        return _native({tuple(map(sub, k, e)):
                        _rat(Fraction(int(v.numerator), int(v.denominator)) / c)
                        for k, v in num.items()}, len(e))
    return _general(f)


def _to_field(d, n):
    """The canonical fraction, in the current field, of native ``d``: integer
    numerator over the lcm L of the coefficient denominators times the
    smallest monomial that clears the negative exponents."""
    field = _REG.field
    ring = field.ring
    if not d:
        return field.zero
    conv = ring.domain.dtype
    pad = (0,) * (ring.ngens - n)
    den = lcm(*(v.denominator for v in d.values()))
    shift = tuple(max(0, -min(col)) for col in zip(*d))
    numer = ring.dtype({tuple(map(add, k, shift)) + pad:
                        conv(v.numerator * (den // v.denominator))
                        for k, v in d.items()})
    return field.raw_new(numer, ring.dtype({shift + pad: conv(den)}))


def _lift(s):
    """The fraction of Scalar ``s`` in the current global field.  It is
    cached in ``s``, so that old Scalars such as ``ZERO`` pay the
    re-embedding into a rebuilt field once, not per use."""
    f = s._f
    if f is None or f.field is not _REG.field:
        f = _to_field(s._d, s._n) if s._d is not None else _REG.field.from_expr(f.as_expr())
        _set_f(s, f)
    return f


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return _native({_REG.origin: _rat(x)} if x else {}, _REG.n)
    if isinstance(x, sympy.Expr):
        if x.has(_sympy_I):
            _REG.adjoin_i()
        return _from_field(_REG.field.from_expr(x))
    raise TypeError(f"cannot coerce {x!r} to Scalar")


def _trim(k):
    """An exponent tuple without its trailing zeros: the same monomial for
    any number of registered indeterminates."""
    n = len(k)
    while n and not k[n - 1]:
        n -= 1
    return k[:n]


class Scalar:
    """Exact rational function over Q, or Q(i) once i appears; its value is
    immutable (only the cached sympy fraction is ever replaced, by an equal
    one in a rebuilt field)."""

    __slots__ = ("_d", "_n", "_f")

    def __init__(self, value=0):
        # a new object even for a Scalar: ncalg reads ``c is ONE`` as "not
        # scaled", so Scalar(ONE) must stay a distinct object
        s = value if isinstance(value, Scalar) else _coerce(value)
        _set_d(self, s._d)
        _set_n(self, s._n)
        _set_f(self, s._f)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    @property
    def f(self):
        """The value as a fraction of the current sympy field, built on
        first use and cached."""
        return _lift(self)

    # -- arithmetic -------------------------------------------------------
    def _bin(self, b, nat, gen):
        """self (op) b: ``nat`` on two native dicts (None: not native), else
        ``gen`` on the sympy fractions."""
        if not isinstance(b, Scalar):
            b = _operand(b)  # first: it may switch the field to Q(i)
            if b is None:
                return NotImplemented
        x, y = self._d, b._d
        if x is not None and y is not None and self._n == b._n:
            d = nat(x, y)
            if d is not None:
                return _native(d, self._n)
        if gen is mul:  # a general value times 1 or -1 needs no gcd
            for u, v in ((b, self), (self, b)):
                c = _int_value(u)
                if c == 1 or c == -1:
                    return v if c == 1 else _neg(v)
        try:
            return _from_field(gen(_lift(self), _lift(b)))
        except ZeroDivisionError:
            raise DivisionByZero("division by zero Scalar") from None

    def __add__(self, other):
        return self._bin(other, _nadd, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin(other, _nsub, sub)

    def __rsub__(self, other):
        b = _operand(other)
        return NotImplemented if b is None else b._bin(self, _nsub, sub)

    def __mul__(self, other):
        return self._bin(other, _nmul, mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._bin(other, _ndiv, truediv)

    def __rtruediv__(self, other):
        b = _operand(other)
        return NotImplemented if b is None else b._bin(self, _ndiv, truediv)

    def __pow__(self, n: int):
        if not isinstance(n, numbers.Integral):
            return NotImplemented
        return _pow(self, int(n))

    def __neg__(self):
        return _neg(self)

    def __pos__(self):
        return self

    # -- comparison / hashing --------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        b = _coerce(other)
        x, y = self._d, b._d
        if x is not None and y is not None and self._n == b._n:
            return x == y
        if (x is None) != (y is None):  # one representation per value
            return False
        return _lift(self) == _lift(b)

    def __hash__(self):
        d = self._d
        if d is None:
            return hash(self._f.as_expr())
        items = {_trim(k): v for k, v in d.items()}
        if not any(items):  # 0 or a constant: the hash of the int/Fraction
            return hash(items.get((), 0))
        return hash(frozenset(items.items()))

    def __bool__(self):
        d = self._d
        return True if d is None else bool(d)

    # -- inspection -------------------------------------------------------
    def indeterminates(self):
        """Names of indeterminates actually occurring in this Scalar."""
        if self._d is None:
            return {s.name for s in self._f.as_expr().free_symbols}
        return {_REG.names[i] for k in self._d for i, e in enumerate(k) if e}

    def as_expr(self):
        return self.f.as_expr()

    def __str__(self):
        return str(self.f.as_expr()).replace("I", "i")

    def __repr__(self):
        return f"Scalar({self})"


_new = object.__new__
_set_d = Scalar._d.__set__
_set_n = Scalar._n.__set__
_set_f = Scalar._f.__set__


def _neg(s):
    d = s._d
    if d is None:
        return _general(-s._f)
    return _native({k: -v for k, v in d.items()}, s._n)


def _pow(s, n):
    if n < 0 and not s:
        raise DivisionByZero("0 ** negative power")
    if s._d is not None:
        d = _npow(s._d, n, (0,) * s._n)
        if d is not None:
            return _native(d, s._n)
    f = _lift(s) ** n
    u = f.denom.canonical_unit()  # sympy's f**-n keeps the unit of f.numer
    if u != _REG.domain.one:
        f = f.raw_new(f.numer.mul_ground(u), f.denom.mul_ground(u))
    return _from_field(f)


def _operand(x):
    """``x`` as a Scalar operand, or None for a type Scalar cannot take."""
    try:
        return _coerce(x)
    except TypeError:
        return None


# -- constructors ---------------------------------------------------------

def indet(name: str) -> Scalar:
    if name not in _REG.symbols:
        raise KeyError(f"unregistered indeterminate {name!r}; call register_indeterminate")
    k = _REG.names.index(name)
    return _native({tuple(int(j == k) for j in range(_REG.n)): 1}, _REG.n)


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

_NAME = re.compile(r"[A-Za-z_]\w*|[^\s\d()*/^+-]", re.ASCII)
# the four binary operations of parse: native dict arithmetic, sympy's field
_BINARY = {ast.Add: (_nadd, add), ast.Sub: (_nsub, sub), ast.Mult: (_nmul, mul),
           ast.Div: (_ndiv, truediv)}
_MAX_DIGITS = 100         # of an integer literal
_MAX_EXPONENT = 10 ** 9   # |n| in x^n
_MAX_SIZE = 10 ** 6       # bound on terms x coefficient bits of a product or power
_MAX_DEPTH = 100          # nesting of signs, powers and bracketed terms


def _size(s):
    """(terms, height) of a Scalar: the height is the largest numerator or
    denominator among its coefficients, in absolute value."""
    if s._d is not None:
        cs = list(s._d.values())
    else:
        cs = [p for v in (*s._f.numer.values(), *s._f.denom.values())
              for p in ((v.x, v.y) if s._f.field.domain is QQ_I else (v,))]
    return len(cs), max((max(abs(int(c.numerator)), int(c.denominator)) for c in cs),
                        default=1)


def _bounded_pow(x, n):
    if n is None:
        raise ValueError("exponent that is not an integer")
    if abs(n) > _MAX_EXPONENT:
        raise ValueError(f"exponent beyond {_MAX_EXPONENT}")
    # x^m has at most C(m+t-1, t-1) terms (at least m+1 when t > 1), with
    # coefficients of at most m log2(h t) + 1 bits
    t, h = _size(x)
    m = abs(n)
    terms = exp(lgamma(m + t) - lgamma(m + 1) - lgamma(t))
    if (t > 1 and m > _MAX_SIZE) or terms * (m * log2(h * t) + 1) > _MAX_SIZE:
        raise ValueError("power too large")
    return _pow(x, n)


def _evaluate(node, depth=0):
    """The Scalar of a parsed expression, refusing each product and power
    before it is computed when a bound on its size passes ``_MAX_SIZE``.
    It calls the arithmetic helpers, not Scalar's operators, so that parsing
    adds no operator calls to the caller's count."""
    if depth > _MAX_DEPTH:
        raise ValueError(f"nesting deeper than {_MAX_DEPTH}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        spine = []  # a chain such as a*b + c - d, left to right without recursion
        while isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            spine.append((_BINARY[type(node.op)], node.right))
            node = node.left
        x = _evaluate(node, depth + 1)
        for (nat, gen), right in reversed(spine):
            y = _evaluate(right, depth + 1)
            if gen is mul or gen is truediv:
                (ta, ha), (tb, hb) = _size(x), _size(y)
                if ta * tb * (log2(ha * hb) + 1) > _MAX_SIZE:
                    raise ValueError("product too large")
            x = x._bin(y, nat, gen)
        return x
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        x = _evaluate(node.left, depth + 1)
        return _bounded_pow(x, _int_value(_evaluate(node.right, depth + 1)))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        x = _evaluate(node.operand, depth + 1)
        return _neg(x) if isinstance(node.op, ast.USub) else x
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return _coerce(node.value)
    if isinstance(node, ast.Name):
        return imag_unit() if node.id == "i" else indet(node.id)
    raise ValueError(f"unexpected {type(node).__name__}")


def parse(text: str) -> Scalar:
    """Parse an expression over + - * / ^ **, parentheses, integers, i and
    the registered indeterminates, with the precedence of Python (``^`` is
    ``**``).  Any other name or character is a ValueError before the text is
    parsed, so it is never run as code.  So are a literal over 100 digits, an
    exponent that is not an integer of at most 10^9 in size, and a product
    or power whose result could pass 10^6 terms x coefficient bits, each
    refused before it is computed."""
    for tok in _NAME.findall(text):
        if tok != "i" and tok not in _REG.symbols:
            raise ValueError(f"unexpected {tok!r} in {text!r}")
    if max(map(len, re.findall(r"\d+", text)), default=0) > _MAX_DIGITS:
        raise ValueError(f"integer literal of more than {_MAX_DIGITS} digits in {text!r}")
    try:
        return _evaluate(ast.parse(text.replace("^", "**").strip(), mode="eval").body)
    except (SyntaxError, ValueError, RecursionError, DivisionByZero) as exc:
        raise ValueError(f"cannot parse {text!r}: {exc}") from exc


def render(a: Scalar) -> str:
    return str(a)


# -- numeric evaluation ---------------------------------------------------

def _complex(c):
    if hasattr(c, "y"):  # an element of Q(i)
        return complex(float(c.x), float(c.y))
    return complex(float(c))


def scalar_eval(a: Scalar, assignment: dict) -> complex:
    """Evaluate at a complex point.  Diagnostic only, never used for pass/fail.

    ``assignment`` maps indeterminate names to complex numbers and must cover
    all indeterminates of ``a``.  The numerator and denominator of the
    canonical fraction are summed term by term in complex floats.  Raises
    PoleAtPoint when the denominator vanishes (within 1e-12 of the
    numerator's scale).
    """
    missing = a.indeterminates() - set(assignment)
    if missing:
        raise KeyError(f"assignment missing indeterminates {sorted(missing)}")
    f = a.f
    point = [complex(assignment.get(n, 0)) for n in _REG.names[:f.field.ngens]]

    def value(p):
        total = 0j
        for k, c in p.items():
            t = _complex(c)
            for x, e in zip(point, k):
                if e:
                    t *= x ** e
            total += t
        return total

    num, den = value(f.numer), value(f.denom)
    if abs(den) <= 1e-12:
        raise PoleAtPoint(f"denominator vanishes at {assignment}")
    return num / den
