import pytest

from qgw.gtensor import (BOSONIC, SUPER, ArityMismatch, BadPositions,
                         ModeMismatch, TensorElement, apply_to_leg, embed_leg,
                         tensor_mul, unit, zero)
from qgw.ncalg import GeneratorSymbol, Presentation
from qgw.scalars import ONE


def free_super():
    return Presentation([GeneratorSymbol("e", degree=0),
                         GeneratorSymbol("f", degree=1),
                         GeneratorSymbol("h", degree=1)])


def tens(pres, terms, mode=BOSONIC):
    return TensorElement(pres, 2, terms, mode)


def test_bosonic_product_is_legwise():
    p = free_super()
    a = tens(p, {(("e",), ("f",)): ONE})
    b = tens(p, {(("e",), ("f",)): ONE})
    ab = tensor_mul(a, b)
    assert ab.terms == {(("e", "e"), ("f", "f")): ONE}


def test_koszul_sign():
    p = free_super()
    a = tens(p, {((), ("f",)): ONE}, SUPER)   # 1 (x) f
    b = tens(p, {(("h",), ()): ONE}, SUPER)   # h (x) 1
    ab = tensor_mul(a, b)
    # (1 (x) f)(h (x) 1) = (-1)^{|f||h|} h (x) f
    assert ab.terms == {(("h",), ("f",)): -ONE}
    ba = tensor_mul(b, a)
    assert ba.terms == {(("h",), ("f",)): ONE}


def test_flip_super_sign():
    p = free_super()
    a = tens(p, {(("f",), ("h",)): ONE}, SUPER)
    assert a.flip().terms == {(("h",), ("f",)): -ONE}
    bos = tens(p, {(("f",), ("h",)): ONE})
    assert bos.flip().terms == {(("h",), ("f",)): ONE}


def test_unit_and_zero():
    p = free_super()
    u = unit(p, 2)
    z = zero(p, 2)
    a = tens(p, {(("e",), ("f",)): ONE})
    assert tensor_mul(u, a) == a
    assert a + z == a
    assert not z


def test_embed_leg():
    p = free_super()
    t = embed_leg(p.gen("e"), (2,), 3)
    assert t.terms == {((), ("e",), ()): ONE}


def test_embed_leg_positions():
    p = free_super()
    a = tens(p, {(("e",), ("f",)): ONE})
    t = embed_leg(a, (1, 3), 3)
    assert t.terms == {(("e",), (), ("f",)): ONE}


def test_embed_bad_positions():
    p = free_super()
    with pytest.raises(BadPositions):
        embed_leg(p.gen("e"), (4,), 3)


def test_arity_mismatch():
    p = free_super()
    a = tens(p, {(("e",), ("f",)): ONE})
    b = TensorElement(p, 3, {(("e",), ("f",), ()): ONE}, BOSONIC)
    with pytest.raises(ArityMismatch):
        tensor_mul(a, b)


def test_mode_mismatch():
    p = free_super()
    a = tens(p, {(("e",), ("f",)): ONE})
    b = tens(p, {(("e",), ("f",)): ONE}, SUPER)
    with pytest.raises(ModeMismatch):
        tensor_mul(a, b)


def test_apply_to_leg_coproduct_style():
    p = free_super()
    a = tens(p, {(("e",), ("f",)): ONE})

    def grouplike(word):
        # w -> w (x) w, linear on words
        return TensorElement(p, 2, {(word, word): ONE}, BOSONIC)

    out = apply_to_leg(a, 0, grouplike, 1)
    assert out.arity == 3
    assert out.terms == {(("e",), ("e",), ("f",)): ONE}
