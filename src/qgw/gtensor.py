"""k-fold Z2-graded tensor powers of a presented algebra.

Multiplication is legwise with the Koszul rule:
(a (x) b)(c (x) d) = (-1)^(deg b * deg c) ac (x) bd, with the degrees of
the presentation's generators.  Over a presentation with no odd generator
(pres.graded is false) every sign is +1, and tensor_mul computes none.

Terms are keyed by k-tuples of normal-form words; every word is homogeneous,
so the sign of a product of basis tensors is always defined.

TensorElement(pres, arity, terms) is the one public constructor: it
coerces each coefficient to a Scalar and each leg to a tuple, refuses a term
of another arity with ArityMismatch and a leg with a letter that is no
generator with ValueError (as Element does), drops zeros, normal-forms each
leg and sums repeated keys.  Everything else in this module builds its value
with the trusted _tensor(pres, arity, terms), as ncalg builds Elements with
_element: +, -, scalar *, flip, tensor_mul, outer, unit, zero and
apply_to_leg combine terms that are already in that form, and tensor_mul
with a unit factor returns the other factor itself.  +, -, negation, scalar
*, == and truth are Element's arithmetic, inherited from ncalg._Terms; the
constructor, tensor_mul and apply_to_leg sum through ncalg._add_scaled,
each basis tensor's normal form coming from _expand.  Other modules
build through the constructor or those functions, except hopfcore, which
puts an antipode image, already normal, on one leg with _tensor; a leg that
is a normal word is not rewritten.
"""

from __future__ import annotations

from .ncalg import Element, Presentation, _add_scaled, _Terms
from .scalars import ONE, Scalar

class ArityMismatch(ValueError):
    pass


class TensorElement(_Terms):
    """Normal-form linear combination of k-tuples of words; see the module
    docstring for what the constructor accepts."""

    __slots__ = ("arity",)

    def __init__(self, pres: Presentation, arity: int, terms):
        self.pres = pres
        self.arity = arity
        acc: dict[tuple, Scalar] = {}
        for legs, c in terms.items() if isinstance(terms, dict) else terms:
            legs = tuple(pres._checked_word(w) for w in legs)
            if len(legs) != arity:
                raise ArityMismatch(f"term {legs} has arity {len(legs)}, expected {arity}")
            c = Scalar(c)
            if c:
                _add_scaled(acc, c, _expand(pres, legs))
        self.terms = acc

    def _check(self, other):
        if self.pres is not other.pres:
            raise ValueError("tensors over different presentations")
        if self.arity != other.arity:
            raise ArityMismatch(f"{self.arity} vs {other.arity}")

    def _same(self, other):
        return self.pres is other.pres and self.arity == other.arity

    def _new(self, terms):
        return _tensor(self.pres, self.arity, terms)

    def _unit_key(self):
        return ((),) * self.arity

    def _mul(self, other):
        return tensor_mul(self, other)

    def flip(self):
        """Swap the two legs of a tensor square, with the Koszul sign (the
        map tau, used for the opposite coproduct)."""
        if self.arity != 2:
            raise ArityMismatch(f"flip needs arity 2, got {self.arity}")
        deg = self.pres.degree
        return _tensor(self.pres, 2, {(b, a): -c if deg(a) and deg(b) else c
                                      for (a, b), c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for legs, c in self.terms.items():
            mono = " (x) ".join("*".join(w) if w else "1" for w in legs)
            bits.append(f"({c})*[{mono}]")
        return " + ".join(bits)

    def __repr__(self):
        return f"TensorElement[{self}]"


def _tensor(pres: Presentation, arity: int, terms: dict) -> TensorElement:
    """The TensorElement with exactly ``terms``, which the caller guarantees
    are tuples of ``arity`` normal-form words with nonzero Scalar
    coefficients."""
    t = object.__new__(TensorElement)
    t.pres, t.arity, t.terms = pres, arity, terms
    return t


def _expand(pres, legs) -> dict:
    """The normal form of the basis tensor ``legs`` with coefficient 1: each
    leg with a redex normal-formed, the products of the sums expanded."""
    out = {(): ONE}
    for w in legs:
        # no two products share a key
        red = {w: ONE} if pres.irreducible(w) else pres.reduce_terms({w: ONE})
        out = {k + (w2,): c2 if c is ONE else c if c2 is ONE else c * c2
               for k, c in out.items() for w2, c2 in red.items()}
    return out


def unit(pres, arity) -> TensorElement:
    return _tensor(pres, arity, {((),) * arity: ONE})


def zero(pres, arity) -> TensorElement:
    return _tensor(pres, arity, {})


def outer(a: Element, b: Element) -> TensorElement:
    """a (x) b of two Elements over one presentation."""
    a._check(b)
    return _tensor(a.pres, 2, {(u, v): cu * cv for u, cu in a.terms.items()
                               for v, cv in b.terms.items()})


def tensor_mul(s: TensorElement, t: TensorElement) -> TensorElement:
    """s * t legwise, with the Koszul sign.  A unit factor, whose terms are
    exactly {((),) * k: ONE}, returns the other factor itself, since no
    code mutates a TensorElement's terms."""
    s._check(t)
    pres, k, graded = s.pres, s.arity, s.pres.graded
    unit_key = ((),) * k
    if len(s.terms) == 1 and s.terms.get(unit_key) is ONE:
        return t
    if len(t.terms) == 1 and t.terms.get(unit_key) is ONE:
        return s
    acc: dict[tuple, Scalar] = {}
    deg = pres.degree
    for u, cu in s.terms.items():
        udeg = [deg(w) for w in u] if graded else None
        for v, cv in t.terms.items():
            c = cu * cv
            if graded:
                sgn = 0
                for i in range(k):
                    if deg(v[i]):
                        sgn += sum(udeg[i + 1 :])
                if sgn % 2:
                    c = -c
            _add_scaled(acc, c, _expand(pres, tuple(u[i] + v[i] for i in range(k))))
    return _tensor(pres, k, acc)


def apply_to_leg(t: TensorElement, leg: int, fn, out_arity_delta: int) -> TensorElement:
    """Substitute leg ``leg`` (0-based) through fn: word -> TensorElement.

    fn must be linear on words; its output arity is 1 + out_arity_delta.
    Used for (Delta (x) id) style maps; splicing in place needs no sign.
    """
    pres = t.pres
    new_arity = t.arity + out_arity_delta
    acc: dict[tuple, Scalar] = {}
    for legs, c in t.terms.items():
        pre, post = legs[:leg], legs[leg + 1 :]
        _add_scaled(acc, c, {pre + slegs + post: sc for slegs, sc in fn(legs[leg]).terms.items()})
    return _tensor(pres, new_arity, acc)
