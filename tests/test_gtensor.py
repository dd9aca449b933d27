import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qgw.algebras import fa_presentation, uq_hopf, uq_presentation
from qgw.gtensor import (ArityMismatch, TensorElement, apply_to_leg, outer, tensor_mul,
                         unit, zero)
from qgw.hopfcore import coproduct
from qgw.ncalg import Element, GeneratorSymbol, Presentation
from qgw.scalars import ONE, ZERO, Scalar, qvar


def free_super():
    return Presentation([GeneratorSymbol("e", degree=0),
                         GeneratorSymbol("f", degree=1),
                         GeneratorSymbol("h", degree=1)])


def tens(pres, terms):
    return TensorElement(pres, 2, terms)


@pytest.mark.parametrize("c", [3, Fraction(1, 2), Scalar(Fraction(-2, 3)), qvar()],
                         ids=["int", "Fraction", "Scalar", "q"])
@pytest.mark.parametrize("kind", ["Element", "TensorElement"])
def test_numbers_are_scalars_on_either_side(kind, c):
    """int, Fraction and Scalar operands of +, -, * and == act as the Scalar
    of their value, on the left and on the right, in both classes."""
    p = free_super()
    if kind == "Element":
        e, one = Element(p, {("e",): 2, ("f", "h"): 1}), p.one()
    else:
        e, one = tens(p, {(("e",), ("f",)): 2, ((), ("h",)): 1}), unit(p, 2)
    s = one * Scalar(c)
    assert e + c == c + e == e + s
    assert e - c == e - s and c - e == s - e
    assert e * c == c * e == e * Scalar(c)
    assert s == c and c == s and s != c + 1 and c + 1 != s


def test_element_and_tensor_do_not_mix():
    """An Element and a TensorElement over one presentation are refused by
    +, - and * in either order, and are never equal."""
    h = uq_hopf()
    x = h.pres.gen("Xp")
    t = coproduct(x, h)
    for a, b in ((x, t), (t, x)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, b)
        assert (a == b) is False and a != b


def test_subtraction_of_a_foreign_operand_names_minus():
    """The TypeError of a - b, for an Element or a TensorElement and an
    operand of another space or no number, names -, in both orders."""
    h = uq_hopf()
    x = h.pres.gen("Xp")
    t = coproduct(x, h)
    for a, b in ((x, t), (t, x), (x, "a"), ("a", x), (t, "a"), ("a", t)):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: "):
            a - b


def test_bosonic_product_is_legwise():
    """Over a presentation with no odd generator no product has a sign."""
    p = Presentation([GeneratorSymbol("e"), GeneratorSymbol("f"), GeneratorSymbol("h")])
    a = tens(p, {(("e",), ("f",)): ONE})
    ab = tensor_mul(a, a)
    assert ab.terms == {(("e", "e"), ("f", "f")): ONE}
    assert tensor_mul(tens(p, {((), ("f",)): ONE}), tens(p, {(("h",), ()): ONE})).terms \
        == {(("h",), ("f",)): ONE}


def test_koszul_sign():
    p = free_super()
    a = tens(p, {((), ("f",)): ONE})   # 1 (x) f
    b = tens(p, {(("h",), ()): ONE})   # h (x) 1
    ab = tensor_mul(a, b)
    # (1 (x) f)(h (x) 1) = (-1)^{|f||h|} h (x) f
    assert ab.terms == {(("h",), ("f",)): -ONE}
    ba = tensor_mul(b, a)
    assert ba.terms == {(("h",), ("f",)): ONE}


def test_flip_super_sign():
    p = free_super()
    a = tens(p, {(("f",), ("h",)): ONE})
    assert a.flip().terms == {(("h",), ("f",)): -ONE}


def test_flip_is_an_involution_on_a_super_square_and_refuses_other_arities():
    """tau o tau = id with the Koszul sign, also on a square whose terms mix
    odd and even legs; flip swaps the legs of a square only."""
    p = free_super()
    a = tens(p, {(("f",), ("h",)): ONE, (("f",), ("f",)): 2 * ONE, (("e", "f"), ("h", "e")): qvar(),
                 (("e",), ("f",)): -ONE, ((), ("f", "h")): 3 * ONE})
    assert a.flip().flip() == a
    assert a.flip().terms[(("f",), ("f",))] == -2 * ONE
    assert a.flip().terms[(("f",), ("e",))] == -ONE
    with pytest.raises(ArityMismatch):
        TensorElement(p, 3, {(("f",), ("h",), ("e",)): ONE}).flip()


def test_unit_and_zero():
    p = free_super()
    u = unit(p, 2)
    z = zero(p, 2)
    a = tens(p, {(("e",), ("f",)): ONE})
    assert tensor_mul(u, a) == a
    assert a + z == a
    assert not z


@pytest.mark.parametrize("key", ["uq", "uq-super"])
def test_a_unit_factor_returns_the_other_factor(key):
    """A factor whose terms are exactly {(): ONE}, or {((),) * k: ONE},
    returns the other factor itself, with no rewriting, in an ungraded and
    a graded algebra; a unit of another coefficient object equal to 1 takes
    the general product to the same value."""
    p = PRESENTATIONS[key]()
    e = Element(p, {("Xp", "K1"): qvar(), ("Xm",): 2, (): -1})
    t = tens(p, {(("Xp",), ("Xm", "K2")): qvar(), (("K1",), ()): 3, ((), ("Xp",)): -1})
    one_e, one_t = Element(p, {(): Scalar(1)}), TensorElement(p, 2, {((), ()): Scalar(1)})
    assert one_e.terms[()] is not ONE and one_t.terms[((), ())] is not ONE
    with mock.patch.object(Presentation, "reduce_terms", side_effect=AssertionError):
        units = [p.one() * e, e * p.one(), unit(p, 2) * t, t * unit(p, 2)]
    assert units == [e, e, t, t] and all(u is v for u, v in zip(units, [e, e, t, t]))
    assert one_e * e == e * one_e == e and one_t * t == t * one_t == t


def test_arity_mismatch():
    p = free_super()
    a = tens(p, {(("e",), ("f",)): ONE})
    b = TensorElement(p, 3, {(("e",), ("f",), ()): ONE})
    with pytest.raises(ArityMismatch):
        tensor_mul(a, b)


def test_apply_to_leg_coproduct_style():
    p = free_super()
    a = tens(p, {(("e",), ("f",)): ONE})

    def grouplike(word):
        # w -> w (x) w, linear on words
        return TensorElement(p, 2, {(word, word): ONE})

    out = apply_to_leg(a, 0, grouplike, 1)
    assert out.arity == 3
    assert out.terms == {(("e",), ("e",), ("f",)): ONE}


def test_constructor_refuses_a_letter_that_is_no_generator():
    p = uq_presentation()
    for terms in ({(("z",), ("K1",)): 1}, {(("K1",), ("K1", "z")): 1},
                  [((("K1",), "zK"), ONE)]):
        with pytest.raises(ValueError, match="no generator of uq"):
            TensorElement(p, 2, terms)
    # a zero coefficient does not excuse the letter, as for an Element
    with pytest.raises(ValueError, match="'z'"):
        TensorElement(p, 2, {(("z",), ()): 0})


def test_number_minus_tensor():
    p = uq_presentation()
    t = TensorElement(p, 2, {(("K1",), ("K1",)): 2})
    one = unit(p, 2)
    assert 3 - t == one * 3 - t == -(t - 3)
    assert Scalar(3) - t == 3 - t and 0 - t == -t
    assert (3 - t).terms == {((), ()): Scalar(3), (("K1",), ("K1",)): Scalar(-2)}


PRESENTATIONS = {"uq": uq_presentation,
                 "uq-super": lambda: uq_presentation(graded=True),
                 "fa-ac-inv": lambda: fa_presentation("ac")}


def raw_terms(p, arity):
    """Raw terms of up to three keys of ``arity`` words of up to three
    letters of ``p``, with int or q-monomial coefficients, zeros included."""
    word = st.lists(st.sampled_from([g.name for g in p.gens]), max_size=3).map(tuple)
    coeffs = st.integers(-2, 2) | st.tuples(st.integers(-2, 2).filter(bool),
                                            st.integers(-2, 2)).map(lambda ck: ck[0] * qvar() ** ck[1])
    return st.dictionaries(st.tuples(*[word] * arity), coeffs, max_size=3)


def assert_trusted(p, t):
    """``t`` holds what the public constructor would give: keys that are
    tuples of ``arity`` tuple words, and nonzero Scalar coefficients that
    normal-forming again leaves as they are."""
    assert t.pres is p
    for legs, c in t.terms.items():
        assert type(legs) is tuple and len(legs) == t.arity
        assert all(type(w) is tuple for w in legs)
        assert isinstance(c, Scalar) and c
    assert TensorElement(p, t.arity, t.terms).terms == t.terms


@pytest.mark.parametrize("key", sorted(PRESENTATIONS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_trusted_results_equal_the_constructors(key, data):
    """Every value built through the trusted path, over uq, uq-super and
    fa-ac-inv, is in the form TensorElement(...) gives."""
    p = PRESENTATIONS[key]()
    a, b = (TensorElement(p, 2, data.draw(raw_terms(p, 2))) for _ in range(2))
    x, y = (Element(p, {w: c for (w,), c in data.draw(raw_terms(p, 1)).items()})
            for _ in range(2))

    def square(word):
        e = p.monomial(word)
        return outer(e, e)

    results = [a + b, a - b, -a, a + 2, a - 3, tensor_mul(a, b), a * b, b * a, a.flip(),
               outer(x, y), apply_to_leg(a, 0, square, 1), apply_to_leg(b, 1, square, 1),
               unit(p, 2), zero(p, 3)]
    results += [a * c for c in (0, ZERO, ONE, -2)] + [c * a for c in (0, ONE, 5)]
    for t in results:
        assert_trusted(p, t)
    assert not a * 0 and not a * ZERO and a * ONE == a and (a - a).terms == {}
