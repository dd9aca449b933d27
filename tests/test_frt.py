from itertools import product
from math import comb
from unittest import mock

import pytest
from conftest import dense_mmul, dense_smul, dense_zeros, is_zero, madd, to_dense, twisted_r
from test_algebras import FA_RELATIONS, paper_rules

from qgw import exterior, frt
from qgw.algebras import (ansatz, fa_hopf, fa_presentation, uq_hopf, uq_omega_hopf,
                          uqgl11_hopf, uqgl11_omega_hopf)
from qgw.frt import (OperatorMatrix, ar_hopf, build_ar, duality_pairing_check,
                     frt_relation_check, matrix_hopf_check, pairing_matrices, qdet, qdet_check)
from qgw.exterior import omega_build
from qgw.gtensor import outer, zero
from qgw.hopfcore import NotInvertible, check_hopf_axioms, coproduct
from qgw.ncalg import StepCapExceeded, tensor
from qgw.rmatlab import catalog
from qgw.scalars import ONE, ZERO, qvar


def test_ansatz_families_satisfy_exchange_relations():
    cases = (("standard", ("ac",)), ("omega", ("omega",)),
             ("super", ("super_ac",)), ("super-omega", ("super_omega",)))
    for which, spec in cases:
        R = catalog(*spec)
        plus, minus = ansatz(which)
        for L1, L2 in ((plus, plus), (plus, minus), (minus, minus)):
            rep = frt_relation_check(R, L1, L2)
            assert rep.checked == 16
            assert rep.ok, (which, rep.failures[:2])


HOPF_OF_ANSATZ = (("standard", uq_hopf), ("omega", uq_omega_hopf), ("super", uqgl11_hopf),
                  ("super-omega", uqgl11_omega_hopf))


def test_ansatz_entries_have_the_matrix_coproduct_and_antipode():
    for which, build in HOPF_OF_ANSATZ:
        rep = matrix_hopf_check(build(), *ansatz(which))
        assert rep.checked == 16
        assert rep.ok, (which, rep.failures[:2])


def test_matrix_hopf_check_refuses_another_structure():
    rep = matrix_hopf_check(uq_omega_hopf(), *ansatz("standard"))
    assert {f[0] for f in rep.failures} == {"coproduct", "antipode"}


def test_transposed_matrix_coproduct_fails_on_all_but_one_matrix():
    """Delta(l_ij) = sum_k l_kj (x) l_ik, the transposed convention, holds on
    every entry of super-omega's l+ alone, so the coproduct sub-check of
    matrix_hopf_check tells the two conventions apart on the other seven."""
    holds = set()
    rng = range(1, 3)
    for which, build in HOPF_OF_ANSATZ:
        h = build()
        for L in ansatz(which):
            if all(coproduct(L.entry(i, j), h)
                   == sum((outer(L.entry(k, j), L.entry(i, k)) for k in rng), zero(h.pres, 2))
                   for i, j in product(rng, repeat=2)):
                holds.add((which, L.label))
    assert holds == {("super-omega", "plus")}


def test_ansatz_unknown():
    with pytest.raises(KeyError):
        ansatz("nope")


def test_frt_negative_wrong_matrix():
    plus, minus = ansatz("standard")
    rep = frt_relation_check(catalog("omega"), plus, minus)
    assert not rep.ok


def test_build_ar_recovers_catalog_relations():
    p = build_ar(catalog("ac"), names=[["a", "b"], ["c", "d"]])
    assert p.rules == paper_rules(FA_RELATIONS["ac"])


def test_build_ar_super_grading():
    p = build_ar(catalog("super_ac"), names=[["a", "b"], ["c", "d"]])
    assert p.by_name["b"].degree == 1
    assert p.by_name["a"].degree == 0
    assert p.rules == paper_rules(FA_RELATIONS["gl11"])


def test_qdet_rank_two():
    pres = fa_presentation("ac")
    t = OperatorMatrix(pres, [[pres.gen("a"), pres.gen("b")],
                              [pres.gen("c"), pres.gen("d")]], label="t")
    det = qdet(t)
    # a d^-1 - b d^-1 c d^-1, in normal form
    q = qvar()
    assert det == pres.word("a", "di") + pres.monomial(("b", "c", "di", "di"), q)
    # multiplying back by d^2 gives the quadratic combination
    assert det * pres.word("d", "d") == pres.word("a", "d") \
        + pres.monomial(("b", "c"), q)


def test_qdet_refuses_only_an_entry_with_no_inverse(monkeypatch):
    """NoInverses when try_invert finds no inverse of d; a step cap or any
    other exception inside it propagates as it is."""
    pres = fa_presentation("ac")
    t = OperatorMatrix(pres, [[pres.gen("a"), pres.gen("b")],
                              [pres.gen("c"), pres.gen("d")]], label="t")
    for exc, want in ((NotInvertible("no unit"), frt.NoInverses),
                      (StepCapExceeded("cap"), StepCapExceeded), (KeyError("bug"), KeyError)):
        def fail(e, exc=exc):
            raise exc

        monkeypatch.setattr(frt, "try_invert", fail)
        with pytest.raises(want):
            qdet(t)


def test_qdet_check_families():
    assert qdet_check(fa_hopf("ac")).ok
    assert qdet_check(fa_hopf("gl11")).ok
    assert qdet_check(fa_hopf("gl11omega")).ok


def test_qdet_not_central_bosonic():
    pres = fa_presentation("ac")
    t = OperatorMatrix(pres, [[pres.gen("a"), pres.gen("b")],
                              [pres.gen("c"), pres.gen("d")]], label="t")
    det = qdet(t)
    b = pres.gen("b")
    assert det * b != b * det
    assert det * b + b * det == pres.zero()


@pytest.mark.parametrize("key", ["ac", "gl11", "omega", "gl11omega"])
def test_qdet_multiplicative(key):
    """D(t t') = D(t) D(t') for two super-commuting copies t, t' of the matrix
    algebra; the super keys need t, t' and tt' graded (0, 1) over
    Koszul-commuting copies."""
    base = fa_presentation(key)
    pres = tensor(*(base.derive(rename={g.name: g.name + tag for g in base.gens})
                    for tag in "12"), base.name + "-x2")
    grading = (0, 1) if pres.by_name["b1"].degree else None

    def fam(tag):
        return OperatorMatrix(pres, [[pres.gen("a" + tag), pres.gen("b" + tag)],
                                     [pres.gen("c" + tag), pres.gen("d" + tag)]],
                              label="t" + tag, grading=grading)

    t1, t2 = fam("1"), fam("2")
    prod = OperatorMatrix(pres, [
        [sum((t1.entry(i, k) * t2.entry(k, j) for k in (1, 2)), pres.zero())
         for j in (1, 2)] for i in (1, 2)], label="tt'", grading=grading)
    assert qdet(prod) == qdet(t1) * qdet(t2)


def test_duality_pairing():
    for spec in (("ac",), ("super_ac",), ("omega",), ("super_omega",)):
        rep = duality_pairing_check(catalog(*spec))
        assert rep.ok, (spec, rep.failures[:2])


def test_pairing_matrices_layout():
    plus, minus = pairing_matrices(catalog("ac"))
    q = qvar()
    # plus[k][l] is the 2x2 scalar matrix of the (k+1, l+1) entry
    assert len(plus) == 2 and len(plus[0][0]) == 2
    assert to_dense(plus[0][0])[0][0] == q
    assert to_dense(minus[0][0])[0][0] == ONE / q


def test_ar_hopf_bialgebra():
    h = ar_hopf(catalog("ac"))
    from qgw.hopfcore import coproduct
    d = coproduct(h.pres.gen("t11"), h)
    assert d.terms == {(("t11",), ("t11",)): ONE, (("t12",), ("t21",)): ONE}
    assert h.antipode_map is None


@pytest.mark.parametrize("key", ["glnm", "super_glnm"])
@pytest.mark.parametrize("n, m", [(2, 1), (1, 2), (2, 2)])
def test_ar_hopf_bialgebra_axioms_on_gl_n_m(key, n, m):
    """Section 4: A(R) of gl(n|m), plain and graded, is a bialgebra."""
    rep = check_hopf_axioms(ar_hopf(catalog(key, n, m)))
    assert rep.ok, rep.failures[:3]


def dense_function_rows(R, gname):
    """Reference for build_ar's rows: both sums read all 2n^2 entries."""
    n = R.n
    p = (0,) + R.p
    rng = range(1, n + 1)
    for A, B, C, D in product(rng, repeat=4):
        row = {}
        for f, e in product(rng, repeat=2):
            x = R.entry(A, f, B, e)
            if not x:
                continue
            if (p[A] * p[B] + p[C] * p[e]) % 2:
                x = -x
            w = (gname(f, C), gname(e, D))
            row[w] = row.get(w, ZERO) + x
        for r, s in product(rng, repeat=2):
            x = R.entry(s, C, r, D)
            if not x:
                continue
            if (p[C] * p[D] + p[r] * p[A]) % 2:
                x = -x
            w = (gname(B, r), gname(A, s))
            row[w] = row.get(w, ZERO) - x
        row = {w: c for w, c in row.items() if c}
        if row:
            yield row


# (catalog spec, n, m) of gl(n|m)-type R-matrices
GLNM_RS = [(("ac",), 1, 1), (("omega",), 1, 1), (("super_ac",), 1, 1),
           (("glnm", 2, 1), 2, 1), (("super_glnm", 1, 2), 1, 2), (("std_gl", 2), 2, 0),
           (("std_gl", 3), 3, 0), (("glnm", 2, 2), 2, 2), (("super_omega",), 1, 1),
           (("super_glnm", 2, 1), 2, 1), (("super_glnm", 2, 2), 2, 2)]


@pytest.mark.parametrize("twist", [None, 0, 1])
@pytest.mark.parametrize("spec, n, m", GLNM_RS, ids=[s[0][0] + str(s[1:]) for s in GLNM_RS])
def test_function_rows_from_nonzeros_and_rule_counts(spec, n, m, twist):
    """The rows of R T1 T2 = T2 T1 R, compiled from R's nonzeros, are the
    dense double loop's, in the same order and with the same dict order, up
    to the sign (-1)^(p(A)p(B) + p(C)p(D)) of the row at (A,B,C,D), and A(R)
    has C((n+m)^2, 2) + 2nm rules.  The loop's hand-derived signs are the
    compiled rows' conjugated by the diagonal matrix of the signs
    (-1)^(p(a)p(b)), which leaves the rules as they are."""
    R = catalog(*spec)
    R = R if twist is None else twisted_r(R, twist)

    def gname(i, j):
        return f"t{i}{j}"

    names = [[gname(i, j) for j in range(1, R.n + 1)] for i in range(1, R.n + 1)]
    p, sign = R.p, (0,) + R.p
    rf, t1, t2 = frt.scalar_factor(R.rows), frt.leg1(names, R.n), frt.leg2(names, p, (p, p))
    rows = [[(w, -c if (sign[A] * sign[B] + sign[C] * sign[D]) % 2 else c) for w, c in row.items()]
            for (A, B, C, D), row in zip(product(range(1, R.n + 1), repeat=4),
                                         frt.relation_rows([rf, t1, t2], [t2, t1, rf], R.n ** 2))
            if row]
    assert rows == [list(row.items()) for row in dense_function_rows(R, gname)]
    assert len(build_ar(R).rules) == comb((n + m) ** 2, 2) + 2 * n * m


@pytest.mark.parametrize("twist", [None, 0, 1])
@pytest.mark.parametrize("spec", [("ac",), ("omega",), ("std_gl", 2)], ids=repr)
def test_omega_rule_count(spec, twist):
    """Omega_q(R) has C(d,2) x x rules, d^2 dx x rules and C(d+1,2) dx dx
    rules: 2d^2."""
    R = catalog(*spec)
    R = R if twist is None else twisted_r(R, twist)
    assert len(omega_build(R).pres.rules) == 2 * R.n ** 2


def dense_omega_rows(R):
    """Reference for the relations of Omega_q(R): u_i v_j - f v_b u_a R^a_i^b_j
    at each (i, j), read from all n^2 entries of R's column (i, j)."""
    q = qvar()
    rng = range(1, R.n + 1)
    for i, j in product(rng, repeat=2):
        for tag, u, v, f in (("x-x", "x", "x", ONE / q), ("dx-x", "dx", "x", q),
                             ("dx-dx", "dx", "dx", -q)):
            row = {(f"{u}{i}", f"{v}{j}"): ONE}
            for a, b in product(rng, repeat=2):
                c = R.entry(a, i, b, j)
                if c:
                    w = (f"{v}{b}", f"{u}{a}")
                    row[w] = row.get(w, ZERO) - f * c
            yield tag, i, j, [(w, c) for w, c in row.items() if c]


@pytest.mark.parametrize("twist", [None, 0, 1])
@pytest.mark.parametrize("spec", [("ac",), ("omega",), ("std_gl", 2), ("std_gl", 3),
                                  ("glnm", 2, 1)], ids=repr)
def test_omega_rows_from_nonzeros(spec, twist):
    """The rows of Omega_q(R)'s three relations, compiled from the nonzeros
    of R^t, are the dense loop's, in the same order and with the same dict
    order."""
    R = catalog(*spec)
    R = R if twist is None else twisted_r(R, twist)
    got = [(tag, i, j, list(row.items())) for tag, i, j, row in exterior._exchange_rows(R)]
    assert got == list(dense_omega_rows(R))


def envelope_residuals(R, e1, e2, add, mul, smulf, zero):
    """Reference for the l+/l- exchange relation: the residuals of
    R m2 m1 = m1 m2 R at each (A,B,C,D), written out with its own sign rule.

    e1/e2 look up the entries of the first/second generator matrix; the
    algebraic operations are passed in so the same loop serves both element
    matrices and scalar representation matrices.
    """
    n = R.n
    p = (0,) + R.p
    rng = range(1, n + 1)
    for A, B, C, D in product(rng, repeat=4):
        lhs = zero()
        for e, f in product(rng, repeat=2):
            x = R.entry(A, e, B, f)
            if not x:
                continue
            if (p[e] * (p[C] + p[f])) % 2:
                x = -x
            lhs = add(lhs, smulf(x, mul(e1(f, C), e2(e, D))))
        rhs = zero()
        for r, s in product(rng, repeat=2):
            x = R.entry(r, D, s, C)
            if not x:
                continue
            if (p[r] * (p[B] + p[s])) % 2:
                x = -x
            rhs = add(rhs, smulf(x, mul(e2(A, r), e1(B, s))))
        yield (A, B, C, D), add(lhs, smulf(-ONE, rhs))


def _swapped(idx):
    A, B, C, D = idx
    return B, A, C, D


# (ansatz family, catalog R); the last pairs a family with the wrong R
FAMILY_RS = [("standard", "ac"), ("omega", "omega"), ("super", "super_ac"),
             ("super-omega", "super_omega"), ("standard", "omega")]


@pytest.mark.parametrize("which, key", FAMILY_RS)
def test_frt_relation_check_matches_the_reference(which, key):
    """The l+/l- residual at (A,B,C,D), A(R21)'s relation, is the
    reference's at (B,A,C,D), in all four orders; minus-plus fails."""
    R = catalog(key)
    plus, minus = ansatz(which)
    for L1, L2 in ((plus, plus), (plus, minus), (minus, minus), (minus, plus)):
        rep = frt_relation_check(R, L1, L2)
        ref = [(_swapped(idx), str(res)) for idx, res in envelope_residuals(
            R, L1.entry, L2.entry, lambda u, v: u + v, lambda u, v: u * v,
            lambda c, u: u * c, L1.pres.zero) if res]
        assert rep.checked == 16
        assert sorted(rep.failures) == sorted(ref)
    assert not frt_relation_check(R, minus, plus).ok


@pytest.mark.parametrize("key, wrong", [("ac", None), ("super_ac", None), ("omega", None),
                                        ("super_omega", None), ("ac", "omega")])
def test_duality_pairing_check_matches_the_reference(key, wrong):
    """duality_pairing_check fails where the reference does, relabelled, in
    all four orders: its (plus, minus) family runs (minus, plus) when the
    pairing's matrices come swapped.  wrong pairs R with another R's
    matrices."""
    R = catalog(key)
    plus, minus = pairing_matrices(catalog(wrong or key))
    n = R.n
    for m1, m2 in ((plus, minus), (minus, plus)):
        with mock.patch.object(frt, "pairing_matrices", lambda _: (m1, m2)):
            rep = frt.duality_pairing_check(R)
        want = []
        d1, d2 = ([[to_dense(m) for m in row] for row in ms] for ms in (m1, m2))
        for tag, a, b in (("++", d1, d1), ("+-", d1, d2), ("--", d2, d2)):
            want += [(tag,) + _swapped(idx) for idx, res in envelope_residuals(
                R, lambda i, j: a[i - 1][j - 1], lambda i, j: b[i - 1][j - 1],
                madd, dense_mmul, dense_smul, lambda: dense_zeros(n))
                if not is_zero(res)]
        assert rep.checked == 3 * n ** 4
        assert sorted(f for f, in rep.failures) == sorted(want)
