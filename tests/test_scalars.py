from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.rings import PolyElement

from qgw import scalars
from qgw.scalars import (ONE, ZERO, PoleAtPoint, Scalar, imag_unit, indet,
                         parse, qvar, register_indeterminate, render,
                         scalar_eval, sign_pow)


def test_basic_arithmetic():
    q = qvar()
    assert q * (ONE / q) == ONE
    assert q - q == ZERO
    assert (q + ONE) * (q - ONE) == q * q - ONE
    assert not ZERO
    assert ONE


def test_negative_powers():
    q = qvar()
    assert q ** -2 == ONE / (q * q)
    assert q ** 0 == ONE
    assert (q ** -3) * (q ** 3) == ONE
    # inverting a negative leading coefficient keeps the denominator canonical
    assert (-q) ** -3 == -ONE / q ** 3
    assert (ONE - q) ** -1 == ONE / (ONE - q)
    assert (-q) ** -1 + ONE / q == ZERO


def test_sign_pow():
    assert sign_pow(0) == ONE
    assert sign_pow(1) == -ONE
    assert sign_pow(-3) == -ONE
    assert sign_pow(4) == ONE


def test_imag_unit(restore_field):
    i = imag_unit()
    assert i * i == -ONE


def test_label_indeterminates():
    l1, m1 = indet("lam1"), indet("mu1")
    assert l1 != m1
    assert l1 * m1 == m1 * l1


def test_register_indeterminate_new_symbol(restore_field):
    t = register_indeterminate("tmp_extra")
    assert t * t != t or t == ONE  # it behaves like a transcendental
    assert indet("tmp_extra") == t


def test_parse_render_roundtrip():
    q = qvar()
    a = (q * q - ONE) / (q ** 3) + indet("lam1")
    assert parse(render(a)) == a


@pytest.mark.parametrize("text", ['__import__("os").getpid() + q', "Q + 1", "1.5",
                                  "q.conjugate()", "2q", "q^^2", "1/0", ""])
def test_parse_rejects_text_outside_the_grammar(text):
    with pytest.raises(ValueError):
        parse(text)


def test_parse_runs_no_code(tmp_path):
    target = tmp_path / "written"
    with pytest.raises(ValueError):
        parse(f"open({str(target)!r}, 'w').write('x') + q")
    assert not target.exists()


def test_scalar_eval():
    q = qvar()
    a = (q - ONE / q) ** 2
    qc = 0.7 + 0.2j
    want = (qc - 1 / qc) ** 2
    assert abs(scalar_eval(a, {"q": qc}) - want) < 1e-12


def test_scalar_eval_pole():
    q = qvar()
    with pytest.raises(PoleAtPoint):
        scalar_eval(ONE / (q - ONE), {"q": 1.0})


def test_coercions():
    assert Scalar(3) + 2 == Scalar(5)
    assert 2 * qvar() == qvar() + qvar()


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_ring_axioms_on_small_polynomials(a, b, c):
    q = qvar()
    x, y, z = q + a, q * q + b, ONE / q + c
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


@given(st.integers(-4, 4))
def test_power_consistency(k):
    q = qvar()
    lhs = q ** k
    rhs = ONE
    for _ in range(abs(k)):
        rhs = rhs * (q if k >= 0 else ONE / q)
    assert lhs == rhs


def _scalars():
    """0, 1, -1, integers and fractions, Laurent polynomials in q and lam1,
    and rational functions with a general denominator."""
    q, l1 = qvar(), indet("lam1")
    small = st.integers(-3, 3)
    const = st.builds(lambda n, d: Scalar(Fraction(n, d)), small, st.integers(1, 4))
    laurent = st.builds(
        lambda cs, s, c: sum((k * q ** (i - s) for i, k in enumerate(cs)), c * l1),
        st.lists(small, max_size=4), st.integers(0, 3), small)
    general = st.builds(lambda x, d, e: x / (q * q + d) ** e, laurent,
                        st.sampled_from([-1, 1, 2]), st.integers(1, 2))
    return st.sampled_from([ZERO, ONE, -ONE]) | const | laurent | general


@settings(deadline=None)
@given(_scalars(), _scalars())
def test_unit_shortcut_matches_field_product(a, b):
    fa, fb = scalars._lift(a), scalars._lift(b)
    got, want = scalars._mul(fa, fb), fa * fb
    assert (got.numer, got.denom) == (want.numer, want.denom)
    assert (a * b).f == want
    assert -(a * -ONE) == a and (-ONE) * b == -b


@settings(deadline=None)
@given(_scalars())
def test_parse_render_roundtrip_on_strategy(a):
    assert parse(render(a)) == a


def _same(got, want):
    assert (got.numer, got.denom) == (want.numer, want.denom)


@settings(deadline=None)
@given(_scalars(), _scalars())
def test_laurent_path_matches_field(a, b):
    fa, fb = scalars._lift(a), scalars._lift(b)
    _same(scalars._add(fa, fb), fa + fb)
    _same(scalars._add(fa, fb, -1), fa - fb)
    _same(scalars._mul(fa, fb), fa * fb)
    _same((a + b).f, fa + fb)
    _same((a - b).f, fa - fb)
    _same((a * b).f, fa * fb)


def test_laurent_path_needs_no_cancel(monkeypatch):
    q, l1 = qvar(), indet("lam1")
    a, b = (q ** 2 - 1) / q ** 3, l1 / (2 * q)
    want = [a.f + b.f, a.f - b.f, a.f * b.f]

    def no_cancel(*args):
        raise AssertionError("cancel called on a Laurent operation")

    monkeypatch.setattr(PolyElement, "cancel", no_cancel)
    got = [a + b, a - b, a * b, 3 * a - Fraction(1, 2)]
    monkeypatch.undo()
    for x, y in zip(got, want):
        _same(x.f, y)
    assert got[3] == 3 * a - parse("1/2")


def test_qi_results_match_field(restore_field):
    i = imag_unit()
    q, l1 = qvar(), indet("lam1")
    values = [ZERO, ONE, -ONE, i, (q * q - 1) / q ** 3 + l1, q - i / (2 * q),
              ONE / (q * q - i), Scalar(Fraction(-3, 4))]
    for a in values:
        for b in values:
            _same((a + b).f, a.f + b.f)
            _same((a - b).f, a.f - b.f)
            _same((a * b).f, a.f * b.f)


@pytest.mark.parametrize("qi", [False, True], ids=["Q", "Q(i)"])
def test_int_coercion_is_canonical(restore_field, qi):
    if qi:
        imag_unit()
    reg = scalars._REG
    for x in (Fraction(-3, 4), 0, -7, 1, Fraction(5, 1)):
        _same(Scalar(x).f, reg.field.ground_new(reg.domain.convert(x)))


@pytest.mark.parametrize("make_i", [imag_unit, lambda: parse("i*q") / qvar()],
                         ids=["imag_unit", "parse"])
def test_values_survive_switch_to_qi(restore_field, make_i):
    def values():
        q, l1 = qvar(), indet("lam1")
        return [(q * q - ONE) / q ** 3 + l1, q + 1, ONE / (q * q - 1),
                Scalar(Fraction(1, 2)), Scalar(1), Scalar(-1), Scalar(0)]

    assert scalars._REG.domain is QQ
    before = values()
    texts = [render(x) for x in before]
    index = {x: k for k, x in enumerate(before)}
    i = make_i()
    assert scalars._REG.domain is QQ_I
    assert i * i == -ONE
    after = values()
    for k, (x, y) in enumerate(zip(before, after)):
        assert x.f.field is not y.f.field
        assert x == y and hash(x) == hash(y)
        assert index[y] == k
        assert render(x) == render(y) == texts[k]
        assert x + i - i == y and x * y == y * y
        assert render(x * i) == render(y * i)
        assert x.f.field is y.f.field  # lifted once, not on every operation


def test_plain_parse_stays_over_q(restore_field):
    assert parse("(q^2 - 1)/q + lam1*mu1") == (qvar() ** 2 - 1) / qvar() \
        + indet("lam1") * indet("mu1")
    assert scalars._REG.domain is QQ


def test_hash_agrees_with_eq_for_constants():
    v = object()
    assert {ONE: v}.get(1) is v
    assert {Scalar(Fraction(1, 2)): v}.get(Fraction(1, 2)) is v
    assert {Fraction(-3): v}.get(Scalar(-3)) is v
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_hash_survives_new_indeterminate(restore_field):
    key = qvar() + 1
    d = {key: 1}
    register_indeterminate("tmp_hash")
    fresh = qvar() + 1
    assert fresh.f.field is not key.f.field
    assert d.get(fresh) == 1
