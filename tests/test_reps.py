import os
import random
import re
import subprocess
import sys
from functools import reduce
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from conftest import dense_eq, dense_smul, dense_zeros, madd, to_dense

from qgw import reps, smat
from qgw.algebras import ansatz, uq_hopf, uqgl11_hopf
from qgw.hopfcore import coproduct, try_invert
from qgw.reps import (DegenerateLabel, FAMILIES, NoIntertwiner, NonIntegerLabel, Rep,
                      RepLabel, quasitriangularity_check, rep_build, ribbon_check,
                      ribbon_data, tensor_decompose, twist_check, universal_r_eval)
from qgw.rmatlab import catalog, hecke_check, qybe_check, sybe_check
from qgw.scalars import ONE, indet, qvar, sign_pow


def test_integer_label_weights():
    q = qvar()
    lab = RepLabel(2, 1)
    assert lab.lam1 == q * q
    assert lab.lam2 == -q
    assert lab.integral


@pytest.mark.parametrize("weights", [(1.5, 0), (1, 0.2), (1.9, 0.2), ("1", 0), (None, 0)])
def test_non_integer_weights_are_refused(weights):
    # int() would truncate (1.5, 0) to the label (1, 0)
    with pytest.raises(TypeError, match="weights must be integers"):
        RepLabel(*weights)
    with pytest.raises(TypeError):
        rep_build(weights)
    assert isinstance(RepLabel(True, 0), RepLabel)  # a bool is an int


def test_degenerate_label_rejected():
    with pytest.raises(DegenerateLabel):
        RepLabel(0, 0)
    with pytest.raises(DegenerateLabel):
        RepLabel(1, -1)


def test_labels_differing_in_gsign_are_unequal():
    lam1, lam2 = indet("lam1"), indet("lam2")
    plus = RepLabel.symbolic(lam1, lam2, gsign=ONE)
    minus = RepLabel.symbolic(lam1, lam2, gsign=-ONE)
    assert plus == RepLabel.symbolic(lam1, lam2)
    assert plus != minus
    assert not smat.meq(Rep(plus).images["g"], Rep(minus).images["g"])
    assert repr(plus) != repr(minus)


def test_symbolic_label():
    lab = RepLabel.symbolic(indet("lam1"), indet("lam2"))
    assert not lab.integral
    rep = rep_build(lab)
    assert rep.images["K1"][0] == [(0, indet("lam1"))]


@pytest.mark.parametrize("graded", [False, True])
def test_word_matrices_match_a_fresh_fold(graded):
    r = rep_build((1, 0), graded=graded)
    letters = sorted(r.images)
    for length in range(5):
        for word in product(letters, repeat=length):
            want = smat.eye(2)
            for x in word:
                want = smat.mmul(want, r.images[x])
            assert smat.meq(r._wmat(word), want), word


def test_evaluate_returns_a_matrix_of_its_own():
    r = rep_build((2, 1))
    pres = r.pres
    for e in (pres.one(), pres.word("K1"), pres.word("K2", "Xp"), pres.word("Xp", "Xm")):
        want = [list(row) for row in r.evaluate(e)]
        got = r.evaluate(e)
        got[0][0] = (0, qvar() ** 7)
        got[1].append(ONE)
        got.append([])
        assert r.evaluate(e) == want


def test_integer_labels_are_built_once():
    r = rep_build((1, 0))
    assert rep_build((1, 0)) is r is rep_build(RepLabel(1, 0))
    graded = rep_build((1, 0), graded=True)
    assert graded is not r and graded.graded and not r.graded
    assert rep_build(RepLabel(1, 0), graded=True) is graded
    assert rep_build((2, 1)) is not r


def test_symbolic_labels_are_built_afresh():
    lab = RepLabel.symbolic(indet("lam1"), indet("lam2"))
    assert rep_build(lab) is not rep_build(lab)


@pytest.mark.parametrize("graded", [False, True])
def test_degenerate_label_raises_on_every_call(graded):
    for _ in range(2):
        for lab in ((0, 0), (1, -1)):
            with pytest.raises(DegenerateLabel):
                rep_build(lab, graded=graded)


# the labels of the suite's rows and of the benchmark's universal R-matrices
ORACLE_LABELS = [(m1, m2) for m1 in (0, 1, -1, 2) for m2 in (0, 1, -1, 2) if m1 + m2 != 0] + \
    [(m1, 1 - m1) for m1 in (-2, -1, 0, 1, 2, 3)]


@pytest.mark.parametrize("graded", [False, True])
def test_rep_defining_relations_hold(graded):
    # the per-label rule check, which construction leaves to the family's
    # symbolic Rep, as the oracle for the specialization argument
    for lab in ORACLE_LABELS:
        rep_build(lab, graded=graded)._verify()


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("gsign", [1, -1])
def test_family_verification_names_a_broken_rule(monkeypatch, graded, gsign):
    q = qvar()
    images = reps._images

    def scaled(l1, l2, gsc):  # Xp's coefficient c times q
        out = images(l1, l2, gsc)
        (j, c), = out["Xp"][0]
        out["Xp"] = [[(j, c * q)], []]
        return out

    monkeypatch.setattr(reps, "_images", scaled)
    family = f"{'graded' if graded else 'ungraded'} representation family of g-sign {gsign:+d}"
    with pytest.raises(ValueError, match=r"rule \('Xm', 'Xp'\) fails in the " + re.escape(family)):
        reps._verify_family.__wrapped__(graded, gsign * ONE)
    # and no Rep of the family is returned unverified
    reps._verify_family.cache_clear()
    with pytest.raises(ValueError, match=r"rule \('Xm', 'Xp'\) fails"):
        Rep((1, 0) if gsign == 1 else (1, 1), graded=graded)


def test_family_verification_failure_loads_no_sympy():
    """The message of a broken family names the rule and the family without
    printing the symbolic weights, which would load sympy."""
    code = """if True:
        import sys
        from qgw import reps
        from qgw.scalars import qvar
        images = reps._images

        def scaled(l1, l2, gsc):
            out = images(l1, l2, gsc)
            (j, c), = out["Xp"][0]
            out["Xp"] = [[(j, c * qvar())], []]
            return out

        reps._images = scaled
        try:
            reps.Rep((1, 0))
        except ValueError as e:
            print(e)
        sys.exit("sympy" in sys.modules)
    """
    src = str(Path(reps.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60, check=False)
    assert out.stdout.strip() == ("rule ('Xm', 'Xp') fails in the ungraded representation "
                                  "family of g-sign +1")
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("gsign", [2, indet("q"), ONE / 2])
def test_symbolic_label_refuses_a_gsign_other_than_plus_or_minus_one(gsign):
    with pytest.raises(DegenerateLabel, match="g-sign"):
        RepLabel.symbolic(indet("lam1"), indet("lam2"), gsign=gsign)


@pytest.mark.parametrize("weights", [(0, indet("lam2")), (indet("lam1"), 0)])
def test_symbolic_label_refuses_a_zero_weight(weights):
    """The weights are invertible: a zero one is refused, not left for the
    representation's images to divide by."""
    with pytest.raises(DegenerateLabel, match="is 0"):
        RepLabel.symbolic(*weights)


def test_evaluate_words():
    rep = rep_build((1, 0))
    pres = rep.pres
    q = qvar()
    img = rep.evaluate(pres.word("K1", "K2"))
    assert smat.meq(img, [[(0, q)], [(1, -q)]])
    comm = pres.word("Xp", "Xm") - pres.word("Xm", "Xp")
    want = madd(to_dense(rep.evaluate(pres.word("Xp", "Xm"))),
                dense_smul(-ONE, to_dense(rep.evaluate(pres.word("Xm", "Xp")))))
    assert dense_eq(to_dense(rep.evaluate(comm)), want)


def test_fundamental_recovers_catalog():
    assert universal_r_eval((1, 0), (1, 0)) == catalog("ac")


def test_omega_fundamental_recovers_catalog():
    assert universal_r_eval((1, 0), (1, 0), which="omega") == catalog("omega")


def test_super_fundamental_up_to_normalization():
    q = qvar()
    got = universal_r_eval((1, 0), (1, 0), which="super")
    want = dense_smul(ONE / q, catalog("super_ac").m)
    assert dense_eq(got.m, want)
    assert got.p == (0, 1)


def test_reparametrized_labels():
    q = qvar()
    for m1, m2 in ((1, 0), (2, 1), (1, 1), (0, 1)):
        t = sign_pow(m2) * q ** (m1 + m2)
        got = universal_r_eval((m1, m2), (m1, m2))
        # entrywise: a uniform monomial times the rank-two solution at
        # parameter t
        pref = q ** ((m1 + m2) * (m1 - m2 - 1))
        assert got.m[0][0] == pref * t
        assert got.m[1][1] == pref
        assert got.m[1][2] == pref * (t - ONE / t)
        assert got.m[3][3] == -pref / t


def test_symbolic_label_rejected_for_r_eval():
    lab = RepLabel.symbolic(indet("lam1"), indet("lam2"))
    with pytest.raises(NonIntegerLabel):
        universal_r_eval(lab, (1, 0))


@pytest.mark.parametrize("check", [
    lambda lab: universal_r_eval(lab, (1, 0)),
    lambda lab: quasitriangularity_check((1, 0), lab, (0, 1)),
    lambda lab: twist_check((1, 0), (0, 1), lab),
    ribbon_check, ribbon_data])
def test_symbolic_label_has_no_weights(check):
    lab = RepLabel.symbolic(indet("lam1"), indet("lam2"))
    with pytest.raises(NonIntegerLabel):
        check(lab)


def test_evaluated_r_solves_ybe():
    assert qybe_check(universal_r_eval((2, 1), (2, 1)))
    assert sybe_check(universal_r_eval((1, 0), (1, 0), which="super"))
    assert hecke_check(universal_r_eval((1, 0), (1, 0)))


def test_quasitriangularity_all_families():
    for which in FAMILIES:
        rep = quasitriangularity_check((1, 0), (0, 1), (1, 1), which=which)
        assert rep.ok, (which, rep.failures[:3])


@pytest.mark.parametrize("which", list(FAMILIES))
def test_tail_legs_agree_with_the_ansatz(which):
    """The tails multiply to e1 = (l+_22)^-1 l+_21 / w and
    e2 = -(l-_22)^-1 l-_12 / w of the family's l+/l- ansatz, w = q - 1/q:
    the two hand-kept sources of each family agree."""
    plus, minus = ansatz(which)
    pres = plus.pres
    w = qvar() - ONE / qvar()

    def tail(words):
        return reduce(mul, (pres.word(*word) for word in words))

    fam = FAMILIES[which]
    assert tail(fam.tail1) == try_invert(plus.entry(2, 2)) * plus.entry(2, 1) * (ONE / w)
    assert tail(fam.tail2) == try_invert(minus.entry(2, 2)) * minus.entry(1, 2) * (-ONE / w)


def test_families_are_the_four_and_no_other():
    assert list(FAMILIES) == ["standard", "omega", "super", "super-omega"]
    with pytest.raises(KeyError):
        universal_r_eval((1, 0), (2, 1), which="bogus")
    with pytest.raises(KeyError):
        quasitriangularity_check((1, 0), (0, 1), (1, 1), which="bogus")


def test_quasitriangularity_mixed_dims():
    rep = quasitriangularity_check((2, 1), (1, 0), (2, 0))
    assert rep.ok, rep.failures[:3]


def test_ribbon_battery():
    for lab in ((1, 0), (2, 1), (1, 1), (0, 1)):
        rep = ribbon_check(lab)
        assert rep.ok, (lab, rep.failures[:3])


def test_tensor_decompose_symbolic():
    out1, out2, T = tensor_decompose()
    assert out1.lam1 == indet("lam1") * indet("mu1")
    q = qvar()
    assert out2.lam1 == indet("lam1") * indet("mu1") / q
    assert len(T) == 4
    assert smat.inv(T)  # invertible change of basis


def test_tensor_decompose_integer():
    out1, out2, T = tensor_decompose((1, 0), (2, 1))
    q = qvar()
    assert out1.lam1 == q ** 3
    # lam2 of the complement: -q * lam2(1,0) * lam2(2,1) = -q * 1 * (-q)
    assert out2.lam2 == q * q
    assert smat.inv(T)


SYMBOLIC_PAIR = (RepLabel.symbolic(indet("lam1"), indet("lam2")),
                 RepLabel.symbolic(indet("mu1"), indet("mu2")))


@pytest.mark.parametrize("labels", [SYMBOLIC_PAIR, ((1, 0), (2, 1)), ((0, 1), (1, 1))])
def test_tensor_decompose_columns_are_highest_weight_vectors_and_their_images(labels):
    """T's columns 0 and 2 are killed by Delta(Xp), and columns 1 and 3 are
    Delta(Xm) of them."""
    _, _, T = tensor_decompose(*labels)
    h = uq_hopf()
    r1, r2 = (Rep(lab) for lab in labels)
    xp, xm = (to_dense(smat.mmul(reps._tensor_matrix(coproduct(h.pres.gen(x), h), r1, r2), T))
              for x in ("Xp", "Xm"))
    T = to_dense(T)
    assert not any(row[0] or row[2] for row in xp)
    assert [row[1] for row in T] == [row[0] for row in xm]
    assert [row[3] for row in T] == [row[2] for row in xm]


@pytest.mark.parametrize("labels", [((1, 0), (2, 1)), ((0, 1), (1, 1))])
def test_tensor_decompose_at_integer_labels_loads_no_sympy(labels):
    code = ("import sys; from qgw.reps import tensor_decompose; "
            f"tensor_decompose(*{labels!r}); sys.exit('sympy' in sys.modules)")
    src = str(Path(reps.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60, check=False)
    assert out.returncode == 0, out.stderr


def test_summand_with_flipped_gsign_fails_to_intertwine_g(monkeypatch):
    summands = reps._summands

    def flipped(lab1, lab2):
        out1, out2 = summands(lab1, lab2)
        return out1, RepLabel.symbolic(out2.lam1, out2.lam2, gsign=-out2.gsign)

    monkeypatch.setattr(reps, "_summands", flipped)
    with pytest.raises(NoIntertwiner, match="intertwine g$"):
        tensor_decompose()


def test_twist_check_both_sides():
    assert twist_check((1, 0), (1, 1), (2, 1), super_side=False).ok
    assert twist_check((1, 0), (1, 1), (2, 1), super_side=True).ok


# -- the form table ----------------------------------------------------------

EVEN = range(-8, 9, 2)
WEIGHTS = [(h1, h2) for h1 in EVEN for h2 in EVEN]


def _bumped(m, i, j):
    """The 2x2 matrix m (zero for None) with entry (i, j) raised by one."""
    rows = [list(row) for row in (m or ((0, 0), (0, 0)))]
    rows[i][j] += 1
    return tuple(map(tuple, rows))


def test_ribbon_rows_invert_the_standard_form():
    std = FAMILIES["standard"].form
    for a in WEIGHTS:
        assert reps._RIBBON.at(a, a) * std.at(a, a) == ONE, a
        for b in WEIGHTS:
            assert reps._RIBBON_CROSS.at(a, b) * std.at(a, b) * std.at(b, a) == ONE, (a, b)


def test_chi21_is_chi_transposed():
    assert reps._CHI21.Q == tuple(zip(*reps._CHI.Q))
    assert reps._CHI.S is reps._CHI21.S is None


@pytest.mark.parametrize("which", list(FAMILIES))
@pytest.mark.parametrize("part", ["Q", "S"])
@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_changed_family_form_entry_fails_quasitriangularity(monkeypatch, which, part, i, j):
    fam = FAMILIES[which]
    form = fam.form._replace(**{part: _bumped(getattr(fam.form, part), i, j)})
    monkeypatch.setitem(FAMILIES, which, fam._replace(form=form))
    rep = quasitriangularity_check((1, 0), (0, 1), (1, 1), which=which)
    assert (rep.checked, len(rep.failures)) == (10, 5), rep.failures


@pytest.mark.parametrize("super_side", [False, True])
def test_chi_swapped_for_chi21_fails_twist(monkeypatch, super_side):
    monkeypatch.setattr(reps, "_CHI", reps._CHI21)
    monkeypatch.setattr(reps, "_CHI21", reps._CHI)
    rep = twist_check((1, 0), (1, 1), (2, 1), super_side=super_side)
    assert (rep.checked, len(rep.failures)) == (9, 3), rep.failures


def test_ribbon_prefactor_without_its_sign_fails(monkeypatch):
    monkeypatch.setattr(reps, "_RIBBON", reps._RIBBON._replace(S=None))
    for lab in ((1, 0), (2, 1), (1, 1), (0, 1)):
        assert not ribbon_check(lab).ok, lab


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_wrong_ribbon_cross_term_fails_delta_nu(monkeypatch, i, j):
    cross = reps._RIBBON_CROSS
    monkeypatch.setattr(reps, "_RIBBON_CROSS", cross._replace(Q=_bumped(cross.Q, i, j)))
    for lab in ((1, 0), (2, 1)):
        assert ribbon_check(lab).failures == [("delta-nu",)], lab


def _dense_evaluate(rep, e):
    """The image of ``e`` summed as dense matrices, c times the matrix of
    each word added into a zero matrix: the reference for Rep.evaluate."""
    out = dense_zeros(rep.dim)
    for w, c in e.terms.items():
        out = madd(out, dense_smul(c, to_dense(rep._wmat(w))))
    return out


def _dense_kron(a, b, deg_b, pa):
    """a (x) b for dense matrices, entry ((i, j), (k, l)) equal to
    (-1)^(deg_b pa[k]) a[i][k] b[j][l]."""
    rb, cb = len(b), len(b[0])
    out = dense_zeros(len(a) * rb, len(a[0]) * cb)
    for i, k, j, l in product(range(len(a)), range(len(a[0])), range(rb), range(cb)):
        x = a[i][k] * b[j][l]
        out[i * rb + j][k * cb + l] = -x if deg_b * pa[k] else x
    return out


def _dense_tensor_image(t, a, b):
    """The image of the tensor element ``t`` on a (x) b, summed as dense
    Kronecker products: the reference for reps._tensor_matrix."""
    pres = t.pres
    out = dense_zeros(a.dim * b.dim)
    for (w1, w2), c in t.terms.items():
        m = _dense_kron(_dense_evaluate(a, pres.monomial(w1)),
                        _dense_evaluate(b, pres.monomial(w2)), pres.degree(w2), a.p)
        out = madd(out, dense_smul(c, m))
    return out


def _random_element(pres, rng):
    """A sum of up to four words of up to three letters, with coefficients
    that cancel against each other as often as not."""
    q = qvar()
    coeffs = [ONE, -ONE, 2 * ONE, q, ONE / q, q - ONE / q]
    names = [gs.name for gs in pres.gens]
    out = pres.zero()
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
        out = out + pres.monomial(word, rng.choice(coeffs))
    return out


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("labels", [((1, 0), (2, -1)), ((0, 1), (3, -1)), SYMBOLIC_PAIR],
                         ids=["integer", "integer2", "symbolic"])
def test_row_form_images_match_the_dense_sums(labels, graded):
    # Rep.evaluate, reps._tensor_matrix and a tensor leg's evaluate, summed in
    # row form, against dense sums of scaled matrices and Kronecker products,
    # on random Elements and on the coproduct images of generators and of
    # random Elements
    h = (uqgl11_hopf if graded else uq_hopf)()
    r1, r2 = (Rep(lab, graded=graded) for lab in labels)
    pres = h.pres
    assert r1.pres is pres
    rng = random.Random(7)
    elements = [pres.gen(gs.name) for gs in pres.gens]
    elements += [_random_element(pres, rng) for _ in range(12)]
    # a tensor leg needs Cartan weights, which a symbolic label has not
    leg = reps._ev_tensor(r1, r2, h) if r1.label.integral else None
    for e in elements:
        for r in (r1, r2):
            assert dense_eq(to_dense(r.evaluate(e)), _dense_evaluate(r, e)), e
        t = coproduct(e, h)
        want = _dense_tensor_image(t, r1, r2)
        assert dense_eq(to_dense(reps._tensor_matrix(t, r1, r2)), want), e
        assert leg is None or dense_eq(to_dense(leg.evaluate(e)), want), e
