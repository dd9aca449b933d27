from fractions import Fraction

import pytest

from test_algebras import fa_z2_hopf

from qgw import algebras, frt, hopfcore
from qgw.algebras import uq_hopf, uq_presentation, uqgl11_hopf
from qgw.gtensor import TensorElement
from qgw.hopfcore import (ActionNotCompatible, HopfData, NotInvertible,
                          antipode, check_hopf_axioms, coproduct, counit,
                          g_degrees, grouplike_data, superize,
                          try_invert, try_invert_tensor, z2_extend)
from qgw.ncalg import GeneratorSymbol, Presentation
from qgw.rmatlab import catalog
from qgw.scalars import ONE, ZERO, Scalar, qvar


def test_grouplike_structure_maps():
    h = uq_hopf()
    k = h.pres.gen("K1")
    assert coproduct(k, h).terms == {(("K1",), ("K1",)): ONE}
    assert counit(k, h) == ONE
    assert antipode(k, h) == h.pres.gen("K1i")


def test_counit_multiplicative():
    h = uq_hopf()
    e = h.pres.word("K1", "K2") + h.pres.word("Xp", "Xm")
    assert counit(e, h) == ONE  # eps(Xp Xm) = 0


def test_antipode_antihomomorphism():
    h = uq_hopf()
    a, b = h.pres.gen("Xp"), h.pres.gen("K2")
    assert antipode(a * b, h) == antipode(b, h) * antipode(a, h)


def test_hopf_axioms_uq():
    rep = check_hopf_axioms(uq_hopf())
    assert rep.ok, rep.failures[:3]


def _altered(h, name, delta=None, counit=None, antipode=None):
    """h with some generator images replaced."""
    return HopfData(h.pres, {**h.delta, **(delta or {})}, {**h.counit_map, **(counit or {})},
                    {**h.antipode_map, **(antipode or {})}, g=h.g, name=name)


def test_hopf_axioms_reject_a_doubled_coproduct_coefficient():
    h = uq_hopf()
    pres = h.pres
    bad = TensorElement(pres, 2, {(("Xp",), ("K1",)): 2 * ONE, (("K2i",), ("Xp",)): ONE})
    assert not check_hopf_axioms(_altered(h, "bad-delta", delta={"Xp": bad})).ok


def test_hopf_axioms_reject_an_antipode_of_the_wrong_sign():
    h = uq_hopf()
    rep = check_hopf_axioms(_altered(h, "bad-antipode", antipode={"Xp": -h.antipode_map["Xp"]}))
    assert not rep.ok


def test_hopf_axioms_reject_a_wrong_counit():
    h = uq_hopf()
    assert not check_hopf_axioms(_altered(h, "bad-counit", counit={"Xp": ONE})).ok


def test_hopf_axioms_reject_a_coproduct_of_the_wrong_parity():
    h = uqgl11_hopf()
    bad = h.delta["Xp"] + TensorElement(h.pres, 2, {(("Xp",), ("Xm",)): ONE})
    rep = check_hopf_axioms(_altered(h, "bad-parity", delta={"Xp": bad}))
    assert ("delta-parity", ("Xp",)) in rep.failures


def test_g_degrees():
    degs = g_degrees(uq_presentation(), "g")
    assert degs["Xp"] == 1 and degs["Xm"] == 1
    assert degs["K1"] == 0 and degs["g"] == 0


def test_superize_needs_g():
    h = uq_hopf()
    bare = HopfData(h.pres, h.delta, h.counit_map, h.antipode_map,
                    g=None, name="bare")
    with pytest.raises(ValueError):
        superize(bare)


def test_superize_refuses_a_graded_input():
    with pytest.raises(ValueError, match="ungraded"):
        superize(uqgl11_hopf())


def test_superize_refuses_an_odd_invertible_generator():
    """g k g = -k makes the invertible k odd: the action is not compatible."""
    pres = Presentation([GeneratorSymbol("g", inverse="g"), GeneratorSymbol("k", inverse="ki"),
                         GeneratorSymbol("ki", inverse="k")])
    pres.add_rule(("k", "g"), {("g", "k"): -ONE})
    pres.add_rule(("ki", "g"), {("g", "ki"): -ONE})
    h = HopfData(pres, *grouplike_data(pres, ["g", "k", "ki"]), g="g")
    with pytest.raises(ActionNotCompatible):
        superize(h)


def test_superize_coproduct_picks_up_g():
    hs = superize(uq_hopf())
    assert hs.pres.graded and not uq_hopf().pres.graded
    d = hs.delta["Xp"].terms
    # the term with odd second leg carries an extra g on the first leg
    assert (("K2i", "g"), ("Xp",)) in d
    assert (("Xp",), ("K1",)) in d
    rep = check_hopf_axioms(hs)
    assert rep.ok, rep.failures[:3]


def rg_tensor(pres: Presentation, g: str) -> TensorElement:
    """(1/2)(1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g), its own inverse."""
    half = Scalar(Fraction(1, 2))
    return TensorElement(pres, 2, {
        ((), ()): half, ((), (g,)): half, ((g,), ()): half, ((g,), (g,)): -half,
    })


def test_rg_tensor_involutive():
    pres = uq_presentation()
    t = rg_tensor(pres, "g")
    from qgw.gtensor import tensor_mul, unit
    assert tensor_mul(t, t) == unit(pres, 2)


def test_z2_extend_adds_involution():
    gens = [GeneratorSymbol("x")]
    q = qvar()
    pres = Presentation(gens)
    delta = {"x": TensorElement(pres, 2,
                                {(("x",), ()): ONE, ((), ("x",)): ONE})}
    h = HopfData(pres, delta, {"x": ZERO}, {"x": pres.monomial(("x",), -ONE)},
                 name="prim")
    hz = z2_extend(h, {"x": 1})
    assert hz.g == "g"
    assert hz.pres.word("x", "g") == hz.pres.monomial(("g", "x"), -ONE)
    assert hz.pres.word("g", "g") == hz.pres.one()
    rep = check_hopf_axioms(hz)
    assert rep.ok, rep.failures[:3]


def test_z2_extend_parity_required_for_all():
    # A(ac) has no generator g, so its missing parities are what is refused
    with pytest.raises(KeyError, match="no parity for generator"):
        z2_extend(algebras.fa_hopf("ac"), {"a": 0})
    with pytest.raises(ValueError, match="generator name g already taken"):
        z2_extend(uq_hopf(), {"K1": 0})


def test_try_invert_grouplike_word():
    pres = uq_presentation()
    inv = try_invert(pres.word("K1", "K2"))
    assert inv * pres.word("K1", "K2") == pres.one()


def test_try_invert_unipotent():
    pres = uq_presentation()
    e = pres.one() + pres.word("K1", "Xp") * (qvar() - ONE)
    # Xp^2 = 0 truncates the geometric series immediately
    inv = try_invert(e)
    assert inv * e == pres.one() and e * inv == pres.one()


def test_try_invert_rejects_noninvertible():
    pres = uq_presentation()
    with pytest.raises(NotInvertible):
        try_invert(pres.gen("Xp"))


def test_try_invert_tensor():
    pres = uq_presentation()
    t = TensorElement(pres, 2, {(("K1",), ("K1",)): ONE,
                                (("Xp",), ("Xm",)): ONE})
    ti = try_invert_tensor(t)
    from qgw.gtensor import tensor_mul, unit
    assert tensor_mul(ti, t) == unit(pres, 2)


def test_try_invert_tensor_rejects_noninvertible(monkeypatch):
    pres = uq_presentation()
    t = TensorElement(pres, 2, {(("Xp",), ("K1",)): ONE, (("K1",), ("Xm",)): ONE})
    with pytest.raises(NotInvertible, match="no invertible"):
        try_invert_tensor(t)
    # the unit part K1 (x) K1 is invertible, but with no correction term
    # the series misses (Xp (x) Xm)
    t = TensorElement(pres, 2, {(("K1",), ("K1",)): ONE, (("Xp",), ("Xm",)): ONE})
    want = try_invert_tensor(t)
    monkeypatch.setattr(hopfcore, "SERIES_TERMS", 0)
    with pytest.raises(NotInvertible, match="within 0 terms"):
        try_invert_tensor(t)
    monkeypatch.setattr(hopfcore, "SERIES_TERMS", 1)
    assert try_invert_tensor(t) == want


def test_grouplike_data_helper():
    pres = uq_presentation()
    d, e, s = grouplike_data(pres, ["K1"])
    assert d["K1"].terms == {(("K1",), ("K1",)): ONE}
    assert e["K1"] == ONE
    assert s["K1"] == pres.gen("K1i")


# every Hopf structure the suite checks, with the number of sub-checks of
# check_hopf_axioms: a structure over a graded presentation adds the
# delta-, eps- and antipode-parity checks of each generator
HOPF_STRUCTURES = {
    "uq": (algebras.uq_hopf, 116),
    "uq-omega": (algebras.uq_omega_hopf, 116),
    "uqgl11": (algebras.uqgl11_hopf, 137),
    "uqgl11-omega": (algebras.uqgl11_omega_hopf, 137),
    **{f"fa-{key}": (lambda key=key: algebras.fa_hopf(key), checked)
       for key, checked in (("ac", 87), ("omega", 87), ("gl11", 105), ("gl11omega", 105))},
    **{f"fa-z2-{key}": (lambda key=key: fa_z2_hopf(key), checked)
       for key, checked in (("ac", 116), ("omega", 116), ("gl11", 137), ("gl11omega", 137))},
    "uq/super": (lambda: superize(algebras.uq_hopf()), 137),
    "uq-omega/super": (lambda: superize(algebras.uq_omega_hopf()), 137),
    "fa-z2-ac/super": (lambda: superize(fa_z2_hopf("ac")), 137),
    "ar-glnm(2,1)": (lambda: frt.ar_hopf(catalog("glnm", 2, 1)), 107),
    "ar-super_glnm(2,1)": (lambda: frt.ar_hopf(catalog("super_glnm", 2, 1)), 125),
}


@pytest.mark.parametrize("key", sorted(HOPF_STRUCTURES))
def test_parity_checks_run_exactly_on_graded_presentations(key):
    build, checked = HOPF_STRUCTURES[key]
    rep = check_hopf_axioms(build())
    assert rep.ok, rep.failures[:3]
    assert rep.checked == checked
