from functools import lru_cache

import pytest

from qgw import algebras
from qgw.algebras import (FA_GRID, NotQuantumMatrix, adjoin_inverses, fa_hopf,
                          fa_presentation, theta_iso_for, theta_map, uq_casimirs,
                          uq_hopf, uq_omega_hopf, uq_presentation, uqgl11_hopf,
                          uqgl11_omega_hopf)
from qgw.frt import ar_hopf, build_ar, generator_grid
from qgw.hopfcore import (casimir_central_check, check_hopf_axioms, coproduct,
                          counit, superize, theta_iso_check, z2_extend)
from qgw.ncalg import overlap_check
from qgw.rmatlab import RMatrix, catalog, superizable_grading_search, superize_r
from qgw.scalars import ONE, ZERO, qvar

_q = qvar()
# The paper's relations of the 2x2 function algebras, written out by hand:
# ba = p ab, ca = p' ac, db = r bd, dc = r' cd, cb = s bc, da - ad = t bc,
# b^2 = c^2 = 0, and whether b and c are odd.
FA_RELATIONS = {
    #             p,   p',      r,       r',            s,        t,              odd
    "ac":        (_q,  _q,      -ONE / _q, -ONE / _q,   ONE,      _q - ONE / _q,  False),
    "gl11":      (_q,  _q,      ONE / _q,  ONE / _q,    -ONE,     ONE / _q - _q,  True),
    "omega":     (ONE, _q ** 2, -ONE,      -ONE / _q ** 2, _q ** 2,  _q ** 2 - ONE, False),
    "gl11omega": (ONE, _q ** 2, ONE,       ONE / _q ** 2,  -_q ** 2, ONE - _q ** 2, True),
}


def paper_rules(coeffs):
    """The rewrite rules of FA_RELATIONS' relations in the order a < b < c < d."""
    p, p2, r, r2, s, t, _ = coeffs
    return {("b", "a"): {("a", "b"): p}, ("c", "a"): {("a", "c"): p2},
            ("d", "b"): {("b", "d"): r}, ("d", "c"): {("c", "d"): r2},
            ("c", "b"): {("b", "c"): s}, ("d", "a"): {("a", "d"): ONE, ("b", "c"): t},
            ("b", "b"): {}, ("c", "c"): {}}


def test_uq_relations():
    p = uq_presentation()
    q = qvar()
    assert p.word("K2", "K1") == p.word("K1", "K2")
    assert p.word("Xp", "K1") == p.monomial(("K1", "Xp"), ONE / q)
    assert p.word("Xp", "K2") == p.monomial(("K2", "Xp"), -q)
    assert p.word("Xp", "g") == p.monomial(("g", "Xp"), -ONE)
    assert p.word("g", "g") == p.one()
    assert not p.word("Xp", "Xp")
    comm = p.word("Xm", "Xp") - p.word("Xp", "Xm")
    want = (p.word("K1", "K2") - p.word("K1i", "K2i")) * (-ONE / (q - ONE / q))
    assert comm == want


def test_uq_graded_variant_same_rules():
    assert uq_presentation(graded=True).rules == uq_presentation().rules
    assert uq_presentation(graded=True).by_name["Xp"].degree == 1
    assert uq_presentation().by_name["Xp"].degree == 0


def test_uq_presentations_confluent():
    for graded in (False, True):
        rep = overlap_check(uq_presentation(graded))
        assert rep.ok, rep.failures[:3]


def test_casimirs_central():
    h = uq_hopf()
    c1sq, c2 = uq_casimirs()
    assert casimir_central_check(h, c1sq).ok
    assert casimir_central_check(h, c2).ok


def test_all_hopf_catalog_axioms():
    for build in (uq_hopf, uq_omega_hopf, uqgl11_hopf, uqgl11_omega_hopf):
        rep = check_hopf_axioms(build())
        assert rep.ok, (build.__name__, rep.failures[:3])


@pytest.mark.parametrize("k, i, j, entry", [
    (0, 1, 1, lambda p: p.monomial(("K1",), 2)),                     # diagonal coefficient 2
    (0, 2, 1, lambda p: p.monomial(("Xp",)) + p.monomial(("K1", "Xp"))),  # two-term corner
    (1, 1, 2, lambda p: p.monomial(("K1",))),                        # corner without Xm
    (0, 2, 1, lambda p: p.monomial(("Xp", "Xm"))),                   # Xm is no group-like
], ids=["diagonal-coefficient", "two-terms", "no-x", "not-group-like"])
def test_uq_hopf_refuses_an_ansatz_outside_its_shape(monkeypatch, k, i, j, entry):
    mats = algebras.ansatz("standard")
    mats[k].rows[i - 1][j - 1] = entry(mats[k].pres)
    monkeypatch.setattr(algebras, "ansatz", lambda which: mats)
    with pytest.raises(ValueError, match=rf"ansatz {mats[k].label} entry \({i},{j}\)"):
        algebras._uq_hopf.__wrapped__("uq")


def test_omega_coproduct_differs():
    h, ho = uq_hopf(), uq_omega_hopf()
    assert h.delta["Xp"].terms != ho.delta["Xp"].terms
    assert h.delta["K1"].terms == ho.delta["K1"].terms


def test_superization_matches_direct_entry():
    hs = superize(uq_hopf())
    hg = uqgl11_hopf()
    for x in hg.pres.by_name:
        assert hs.delta[x].terms == hg.delta[x].terms, x
        assert hs.antipode_map[x].terms == hg.antipode_map[x].terms, x
        assert hs.counit_map[x] == hg.counit_map[x], x


@pytest.mark.parametrize("key", sorted(FA_RELATIONS))
def test_fa_presentation_has_the_paper_relations(key):
    p = fa_presentation(key, inverses=False)
    assert p.name == f"fa-{key}"
    assert p.rules == paper_rules(FA_RELATIONS[key])
    odd = FA_RELATIONS[key][-1]
    assert [(g.name, g.degree) for g in p.gens] == [("a", 0), ("b", odd), ("c", odd), ("d", 0)]


def test_fa_relations_rank_two():
    p = fa_presentation("ac")
    q = qvar()
    assert p.word("b", "a") == p.monomial(("a", "b"), q)
    assert p.word("c", "b") == p.word("b", "c")
    assert p.word("d", "b") == p.monomial(("b", "d"), -ONE / q)
    assert not p.word("b", "b")
    da = p.word("d", "a")
    assert da == p.word("a", "d") + p.monomial(("b", "c"), q - ONE / q)


def test_fa_gl11_sign():
    p = fa_presentation("gl11")
    assert p.word("c", "b") == p.monomial(("b", "c"), -ONE)


def test_fa_omega_relations():
    p = fa_presentation("omega")
    q = qvar()
    assert p.word("b", "a") == p.word("a", "b")
    assert p.word("c", "a") == p.monomial(("a", "c"), q * q)
    assert p.word("d", "a") == p.word("a", "d") \
        + p.monomial(("b", "c"), q * q - ONE)


def test_fa_inverses():
    p = fa_presentation("ac")
    assert p.word("a", "ai") == p.one()
    assert p.word("di", "d") == p.one()


def test_adjoin_inverses_no_inverse_flag():
    p = fa_presentation("ac", inverses=False)
    assert "ai" not in p.by_name
    p2 = adjoin_inverses(p)
    assert p2.word("ai", "a") == p2.one()


def test_adjoin_inverses_refuses_a_rule_to_zero():
    """A(R) of ac with its entry q - 1/q replaced by q has b a -> 0, not
    b a -> p a b: adjoin_inverses names that rule instead of a KeyError."""
    q = qvar()
    R = RMatrix(2, [[q, 0, 0, 0], [0, ONE, q, 0], [0, 0, ONE, 0], [0, 0, 0, -ONE / q]])
    pres = build_ar(R, names=FA_GRID, name="ac-w-q")
    assert pres.rules[("b", "a")] == {}
    with pytest.raises(NotQuantumMatrix, match=r"ac-w-q needs b a -> p a b, has b a -> 0$"):
        adjoin_inverses(pres)


def test_fa_hopf_axioms():
    for key in ("ac", "gl11", "omega", "gl11omega"):
        rep = check_hopf_axioms(fa_hopf(key))
        assert rep.ok, (key, rep.failures[:3])


def test_fa_matrix_coproduct():
    want = {"a": {(("a",), ("a",)): ONE, (("b",), ("c",)): ONE},
            "b": {(("a",), ("b",)): ONE, (("b",), ("d",)): ONE},
            "c": {(("c",), ("a",)): ONE, (("d",), ("c",)): ONE},
            "d": {(("c",), ("b",)): ONE, (("d",), ("d",)): ONE}}
    for key in FA_RELATIONS:
        h = fa_hopf(key)
        for x, terms in want.items():
            assert coproduct(h.pres.gen(x), h).terms == terms, (key, x)
            assert counit(h.pres.gen(x), h) == (ONE if x in "ad" else ZERO), (key, x)


COL = {"a": 0, "b": 1, "c": 0, "d": 1, "ai": 0, "di": 1, "g": 0}


@lru_cache(maxsize=None)
def fa_z2_hopf(key):
    """Z2-extension of fa_hopf(key) with the column-grading sign action, from
    a hand-written parity table: the reference for the one theta_iso_for
    derives from the grading (0, 1)."""
    return z2_extend(fa_hopf(key), {"a": 0, "ai": 0, "b": 1, "c": 1, "d": 0, "di": 0})


def _theta_pair(src, tgt):
    """superize(fa_z2_hopf(src)), fa_z2_hopf(tgt), and the twist x -> x g^COL(x)
    in both directions."""
    aR, aRbar = superize(fa_z2_hopf(src)), fa_z2_hopf(tgt)
    return aR, aRbar, theta_map(aR.pres, aRbar, COL), theta_map(aRbar.pres, aR, COL)


def test_theta_isomorphism_rank_two():
    for src, tgt in (("ac", "gl11"), ("omega", "gl11omega")):
        rep = theta_iso_check(*_theta_pair(src, tgt))
        assert rep.ok, (src, rep.failures[:3])
        assert rep.checked == 80


def test_theta_rejects_the_counit_map():
    # x -> eps(x) 1 respects every rule and the coproduct, but is no isomorphism
    aR, aRbar, _, theta_inv = _theta_pair("ac", "gl11")
    eta_eps = {x: aRbar.pres.one() * aR.counit_map[x] for x in aR.pres.by_name}
    rep = theta_iso_check(aR, aRbar, eta_eps, theta_inv)
    assert {f[0] for f in rep.failures} == {"inverse-left", "inverse-right"}
    assert ("inverse-left", "a") in rep.failures


def test_theta_rejects_a_map_that_is_not_injective():
    aR, aRbar, theta, theta_inv = _theta_pair("ac", "gl11")
    rep = theta_iso_check(aR, aRbar, {**theta, "b": aRbar.pres.zero()}, theta_inv)
    assert ("inverse-left", "b") in rep.failures


def test_theta_rejects_an_image_of_the_wrong_parity():
    aR, aRbar, theta, theta_inv = _theta_pair("ac", "gl11")
    rep = theta_iso_check(aR, aRbar, {**theta, "a": theta["a"] + theta["b"]}, theta_inv)
    assert ("parity", "a") in rep.failures


def test_theta_map_images():
    aRbar = fa_z2_hopf("gl11")
    col = {"a": 0, "b": 1, "c": 0, "d": 1, "ai": 0, "di": 1, "g": 0}
    th = theta_map(fa_z2_hopf("ac").pres, aRbar, col)
    assert th["a"] == aRbar.pres.gen("a")
    assert th["b"] == aRbar.pres.word("b", "g")
    assert th["g"] == aRbar.pres.gen("g")


def test_theta_rejects_a_twist_that_is_not_an_algebra_map():
    # x -> x g^col(x) between the wrong pair of algebras: the q-commutations
    # of d with a, b and c do not map to relations of the target
    for src, tgt in (("ac", "gl11omega"), ("omega", "gl11")):
        rep = theta_iso_check(*_theta_pair(src, tgt))
        bad = {f[1] for f in rep.failures if f[0] == "relation"}
        assert {("d", "a"), ("d", "b"), ("d", "c")} <= bad, (src, tgt, rep.failures)


# the sub-checks of theta_iso_check for each R: one per rule of A(R) and of
# A(Rbar) and four per generator; for these R every grading is superizable
THETA_CHECKS = {("ac",): 46, ("omega",): 46, ("std_gl", 2): 42, ("std_gl", 3): 132,
                ("glnm", 2, 1): 140, ("identity", 2): 42}
THETA_CASES = [(spec, p) for spec in THETA_CHECKS
               for p in superizable_grading_search(catalog(*spec)) if any(p)]


@pytest.mark.parametrize("spec,p", THETA_CASES, ids=str)
def test_theta_iso_for_every_superizable_grading(spec, p):
    R = catalog(*spec)
    h = ar_hopf(R)
    rep = theta_iso_for(h, ar_hopf(superize_r(R, p)), generator_grid(h.pres, R.n), p)
    assert rep.ok, rep.failures[:3]
    assert rep.checked == THETA_CHECKS[spec]


def test_theta_cases_cover_every_nonzero_grading():
    assert len(THETA_CASES) == sum(2 ** catalog(*spec).n - 1 for spec in THETA_CHECKS) == 26


def _gl21_pair():
    """superize(A(gl(2|1)) x| Z2) and A(super gl(2|1)) x| Z2, p = (0, 0, 1),
    with the parities written out by hand."""
    p = (0, 0, 1)
    parity = {f"t{i}{j}": (p[i - 1] + p[j - 1]) % 2 for i in range(1, 4) for j in range(1, 4)}
    R = catalog("glnm", 2, 1)
    return superize(z2_extend(ar_hopf(R), parity)), z2_extend(ar_hopf(superize_r(R, p)), parity)


@pytest.mark.parametrize("col,failed,tags", [
    # t_ij -> t_ij g^(p_i), the row parity
    (lambda pi, pj: pi, 17, {"relation", "inverse-relation", "intertwine"}),
    # t_ij -> t_ij g^(1 - p_j)
    (lambda pi, pj: 1 - pj, 48, {"relation", "inverse-relation"}),
], ids=["row-parity", "flipped-column-parity"])
def test_theta_rejects_a_twist_not_read_off_the_columns(col, failed, tags):
    aR, aRbar = _gl21_pair()
    p = (0, 0, 1)
    table = {f"t{i + 1}{j + 1}": col(p[i], p[j]) for i in range(3) for j in range(3)}
    rep = theta_iso_check(aR, aRbar, theta_map(aR.pres, aRbar, table),
                          theta_map(aRbar.pres, aR, table))
    assert rep.checked == 140
    assert len(rep.failures) == failed
    assert {f[0] for f in rep.failures} == tags


def test_theta_map_needs_every_generator_but_g():
    aR, aRbar = _gl21_pair()
    table = {f"t{i}{j}": 0 for i in range(1, 4) for j in range(1, 4)}
    assert theta_map(aR.pres, aRbar, table)["g"] == aRbar.pres.gen("g")
    del table["t12"]
    with pytest.raises(KeyError, match="t12"):
        theta_map(aR.pres, aRbar, table)
