import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from conftest import (dense_eq, dense_eye, dense_mmul, dense_smul, dense_zeros, is_zero, madd,
                      to_dense, twisted_r)

from qgw import smat
from qgw.reps import universal_r_eval
from qgw.rmatlab import (NotSuperizable, NullDegreeViolated, RMatrix,
                         UnknownName, catalog, flip_rows, hecke_check,
                         hecke_identity_check, null_degree_check,
                         qybe_check, rmatrix_from_json,
                         rmatrix_to_json, superizable_grading_search,
                         superize_r, sybe_check)
from qgw.scalars import ONE, Scalar, parse, qvar


def test_catalog_rank_two_entries():
    q = qvar()
    R = catalog("ac")
    assert R.entry(1, 1, 1, 1) == q
    assert R.entry(2, 2, 2, 2) == -ONE / q
    assert R.entry(1, 2, 2, 1) == q - ONE / q
    assert R.entry(1, 1, 2, 2) == ONE
    assert R.entry(2, 2, 1, 1) == ONE


def test_catalog_unknown():
    with pytest.raises(UnknownName):
        catalog("nosuch")


@pytest.mark.parametrize("spec, message", [
    (("glnm",), "needs a size n"), (("glnm", 2), "needs a size m"),
    (("super_glnm", None, 1), "needs a size n"), (("std_gl",), "needs a size n"),
    (("identity", -1), "needs a size n"), (("glnm", 0, 0), "dimension 0")])
def test_catalog_refuses_a_missing_or_empty_size(spec, message):
    with pytest.raises(ValueError, match=message):
        catalog(*spec)


@pytest.mark.parametrize("n", [0, -1, 1.0, True, None])
def test_rmatrix_refuses_a_dimension_below_one(n):
    """A 0-dimensional R would pass every braid check vacuously."""
    with pytest.raises(ValueError, match="dimension"):
        RMatrix(n, [])


def test_qybe_battery():
    for spec in (("ac",), ("omega",), ("std_gl", 2), ("identity", 3)):
        assert qybe_check(catalog(*spec)), spec


def test_hecke_battery():
    for spec in (("ac",), ("omega",), ("std_gl", 2), ("std_gl", 3)):
        assert hecke_check(catalog(*spec)), spec
    assert not hecke_check(catalog("identity", 2))


def test_hecke_identity_form():
    # R^f_k^e_l R^l_i^k_j = (q - 1/q) R^f_i^e_j + delta delta holds exactly
    # where (P R - q)(P R + 1/q) = 0 does: on the Hecke R-matrices, and on none
    # of the last four
    hecke = [("ac",), ("omega",), ("std_gl", 2), ("std_gl", 3), ("glnm", 2, 1), ("glnm", 1, 2)]
    other = [("identity", 2), ("super_ac",), ("super_omega",), ("super_glnm", 2, 1)]
    for spec in hecke + other:
        R = catalog(*spec)
        assert hecke_identity_check(R) == hecke_check(R) == (spec in hecke), spec


def test_sybe_super_ac():
    assert sybe_check(catalog("super_ac"))


def _odd_entry_matrix():
    # identity plus a single corner entry whose index parities do not
    # balance under p=(0,1)
    m = [[ONE if i == j else 0 for j in range(4)] for i in range(4)]
    m[0][1] = ONE  # R^1_1^1_2
    return m


def test_sybe_requires_null_degree():
    R = catalog("ac")  # bosonic grading: every index even, trivially fine
    assert sybe_check(R) == qybe_check(R)
    bad = RMatrix(2, _odd_entry_matrix())
    bad.p = (0, 1)  # bypass the constructor invariant
    assert not null_degree_check(bad)
    with pytest.raises(NullDegreeViolated):
        RMatrix(2, _odd_entry_matrix(), grading=(0, 1))


def test_superizable_search():
    assert (0, 1) in superizable_grading_search(catalog("ac"))
    assert len(superizable_grading_search(catalog("identity", 2))) == 4
    assert (0, 0, 1) in superizable_grading_search(catalog("glnm", 2, 1))


def test_superize_r_flips_one_sign():
    R = catalog("ac")
    Rb = superize_r(R, (0, 1))
    assert Rb == catalog("super_ac")
    q = qvar()
    assert Rb.entry(2, 2, 2, 2) == ONE / q
    # only the (22,22) entry differs
    diff = [(i, j) for i in range(4) for j in range(4)
            if R.m[i][j] != Rb.m[i][j]]
    assert diff == [(3, 3)]


def test_superize_r_trivial_grading():
    R = catalog("ac")
    assert superize_r(R, (0, 0)) == R


def test_superize_r_rejects_bad_grading():
    with pytest.raises(NotSuperizable, match=r"^entry R\^1_1\^1_2 violates grading \(0, 1\)$"):
        superize_r(RMatrix(2, _odd_entry_matrix()), (0, 1))
    with pytest.raises(ValueError, match="grading length"):
        superize_r(catalog("ac"), (0, 1, 1))


@pytest.mark.parametrize("p", [(0, 2), (0, -1), (0, 3), (0, True), (0, 1.0)], ids=repr)
def test_a_parity_other_than_the_ints_0_and_1_is_refused(p):
    # _odd reads a parity mod 2 and superize_r and embed_rows by truth value,
    # so a grading (0, 2) would be read as even by one and odd by the others
    with pytest.raises(ValueError, match="other than the ints 0 and 1"):
        RMatrix(2, catalog("ac").m, grading=p)
    with pytest.raises(ValueError, match="other than the ints 0 and 1"):
        superize_r(catalog("ac"), p)


CATALOG = [("ac",), ("omega",), ("identity", 2), ("identity", 3), ("std_gl", 2),
           ("std_gl", 3), *(("glnm", n, m) for n, m in ((1, 1), (2, 1), (1, 2), (3, 1),
                                                         (2, 2), (1, 3)))]


@pytest.mark.parametrize("spec", CATALOG, ids=str)
def test_superize_r_matches_the_dense_signing(spec):
    # at every grading under which R is even, the row-form D R against the
    # entry grid with the rows of two odd upper indices negated
    R = catalog(*spec)
    n = R.n
    for p in superizable_grading_search(R):
        want = [[-x if p[a] and p[b] else x for x in R.m[a * n + b]]
                for a, b in product(range(n), repeat=2)]
        Rb = superize_r(R, p)
        assert Rb.p == p and Rb.name == (R.name + "-super")
        assert [list(r) for r in Rb.rows] == smat.row_form(want), p
        assert dense_eq(Rb.m, want), p
        smat.check_invertible(Rb.rows)
        assert Rb == RMatrix(n, want, grading=p)


def test_superized_family_sybe():
    for n, m in ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)):
        Rb = catalog("super_glnm", n, m)
        assert null_degree_check(Rb)
        assert sybe_check(Rb), (n, m)


def _doubled(R):
    """R with its first nonzero off-diagonal entry doubled."""
    m = [list(row) for row in R.m]
    i, j = next((i, j) for i, row in enumerate(m) for j, x in enumerate(row)
                if x and i != j)
    m[i][j] = 2 * m[i][j]
    return RMatrix(R.n, m, grading=R.p, name=R.name + "-doubled")


_SUPER_SOLUTIONS = [("super_ac",), ("super_omega",)] + [
    ("super_glnm", n, m) for n, m in ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3))]


@pytest.mark.parametrize("make", [lambda spec=spec: catalog(*spec)
                                  for spec in _SUPER_SOLUTIONS]
                         + [lambda w=w: universal_r_eval((1, 0), (1, 0), which=w)
                            for w in ("super", "super-omega")],
                         ids=[s[0] + "".join(map(str, s[1:])) for s in _SUPER_SOLUTIONS]
                         + ["universal-super", "universal-super-omega"])
def test_sybe_verdicts_pinned(make):
    R = make()
    assert R.is_super
    assert sybe_check(R)
    assert not sybe_check(_doubled(R))


@pytest.mark.parametrize("n, m", [(2, 1), (1, 2)])
def test_sybe_needs_the_koszul_signs(n, m):
    # the bosonic gl(n|m) solution under a super grading, without the
    # superization signs, is even but fails the graded braid relation
    bosonic = catalog("glnm", n, m)
    assert qybe_check(bosonic)
    assert not sybe_check(RMatrix(n + m, bosonic.m, grading=[0] * n + [1] * m))


def test_glnm_specializes_to_rank_two():
    assert catalog("glnm", 1, 1).m == catalog("ac").m
    assert catalog("glnm", 1, 1) == catalog("ac")


def test_rmatrix_equality_reads_entries_and_grading():
    ac = catalog("ac")
    assert ac != catalog("omega") and ac != twisted_r(ac, 1)
    assert ac != RMatrix(2, ac.m, grading=(0, 1))  # even under (0, 1), graded apart
    assert ac != catalog("std_gl", 3) and ac != "ac"


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)])
def test_superized_glnm_diagonal(n, m):
    """Superized with p = (0^n, 1^m), gl(n|m) has R^{ij}_{ij} = 1 for i != j
    and R^{ii}_{ii} = q for even i, 1/q for odd i, as gl(1|1) in
    prop3.1/superizable: the -1 of the bosonic solution on two odd indices
    is undone by the superization sign."""
    q, d, p = qvar(), n + m, (0,) * n + (1,) * m
    Rb = superize_r(catalog("glnm", n, m), p)
    for i in range(d):
        for j in range(d):
            want = (ONE / q if p[i] else q) if i == j else ONE
            assert Rb.m[i * d + j][i * d + j] == want, (i, j)


def permutation_matrix(n):
    """The matrix P of the flip a (x) b -> b (x) a on two legs of dimension n."""
    out = dense_zeros(n * n)
    for a, b in product(range(n), repeat=2):
        out[a * n + b][b * n + a] = ONE
    return out


def test_permutation_matrix():
    P = permutation_matrix(2)
    assert dense_eq(dense_mmul(P, P), dense_eye(4))


# every catalog R, two twists of gl(2|1), and the Hecke verdict of each
_HECKE = [(("ac",), True), (("super_ac",), False), (("omega",), True),
          (("super_omega",), False), (("glnm", 1, 1), True), (("glnm", 2, 1), True),
          (("glnm", 1, 2), True), (("super_glnm", 2, 1), False), (("std_gl", 2), True),
          (("std_gl", 3), True), (("identity", 2), False), (("twist", 0), True),
          (("twist", 1), True)]


def _hecke_r(spec):
    return twisted_r(catalog("glnm", 2, 1), spec[1]) if spec[0] == "twist" else catalog(*spec)


def _hecke_by_product(R):
    """(PR - q)(PR + 1/q) = 0, with P R the product by the permutation matrix."""
    q, idm = qvar(), dense_eye(R.n * R.n)
    pr = dense_mmul(permutation_matrix(R.n), R.m)
    return is_zero(dense_mmul(madd(pr, dense_smul(-q, idm)), madd(pr, dense_smul(ONE / q, idm))))


@pytest.mark.parametrize("spec", [s for s, _ in _HECKE], ids=str)
def test_flip_rows_is_the_permutation_product(spec):
    R = _hecke_r(spec)
    pr = flip_rows(R.rows, R.n)
    assert dense_eq(to_dense(pr), dense_mmul(permutation_matrix(R.n), R.m))
    assert all(a is not b for a, b in zip(pr, R.rows))  # new rows, R.rows untouched
    pr[0].append((0, ONE))
    assert R.rows == _hecke_r(spec).rows


@pytest.mark.parametrize("spec, holds", _HECKE, ids=[str(s) for s, _ in _HECKE])
def test_hecke_verdicts_pinned(spec, holds):
    R = _hecke_r(spec)
    assert hecke_check(R) is holds
    assert _hecke_by_product(R) is holds
    if holds:
        assert not hecke_check(_doubled(R))


_ALL = [("ac",), ("super_ac",), ("omega",), ("super_omega",), ("std_gl", 2),
        ("std_gl", 3)] + [(kind, n, m) for kind in ("glnm", "super_glnm")
                            for n, m in ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3))]


@pytest.mark.parametrize("spec", _ALL, ids=lambda s: "".join(map(str, s)))
def test_hecke_integer_and_scalar_paths_agree(spec, monkeypatch):
    # each catalog R and a twist of it, as they are and doubled: the product
    # takes the integer path and gives the verdict of the Scalar path and of
    # the product by the permutation matrix
    R = catalog(*spec)
    for S in (R, twisted_r(R, 5), _doubled(R), _doubled(twisted_r(R, 5))):
        factors = [smat.row_form(m) for m in (S.m, S.m)]
        assert smat.kronecker_codes(factors) is not None
        got = hecke_check(S)
        with monkeypatch.context() as m:
            m.setattr(smat, "kronecker_codes", lambda factors: None)
            assert hecke_check(S) is got, (spec, S.name)
        assert _hecke_by_product(S) is got, (spec, S.name)


def test_braid_and_hecke_on_glnm_make_no_scalar_product(monkeypatch):
    # every entry of gl(2|2) is a Laurent polynomial in q: the products run
    # on ints, and the checks multiply no Scalars
    R = catalog("glnm", 2, 2)
    calls = []
    for name in ("__mul__", "__rmul__"):
        op = getattr(Scalar, name)
        monkeypatch.setattr(Scalar, name, lambda x, y, op=op: calls.append(y) or op(x, y))
    assert qybe_check(R) and hecke_check(R) and sybe_check(catalog("super_glnm", 2, 2))
    assert calls == []


def test_braid_check_on_a_built_glnm_makes_no_scalar_call(monkeypatch):
    # R's row form is found at construction and encoded before it is
    # embedded: the braid check itself tests no Scalar for zero, negates
    # none and multiplies none
    R = catalog("glnm", 2, 2)
    calls = []
    for name in ("__bool__", "__neg__", "__mul__", "__rmul__"):
        op = getattr(Scalar, name)
        monkeypatch.setattr(Scalar, name,
                            lambda *a, op=op, name=name: calls.append(name) or op(*a))
    assert qybe_check(R)
    assert calls == []


def test_entry_refuses_an_index_outside_one_to_n():
    R = catalog("ac")
    assert R.entry(2, 2, 1, 1) == ONE and R.entry(1, 2, 2, 1) == qvar() - ONE / qvar()
    # index 0 would read R.m[-1], and index 3 a neighbouring row
    for args, bad in (((0, 1, 1, 1), 0), ((1, 0, 1, 1), 0), ((1, 1, 3, 1), 3),
                      ((1, 1, 1, -1), -1)):
        with pytest.raises(IndexError, match=rf"^index {bad} outside 1\.\.2$"):
            R.entry(*args)


def test_invertibility_enforced():
    with pytest.raises(Exception):
        RMatrix(2, [[0] * 4 for _ in range(4)])


def _counting_inv(monkeypatch):
    calls, inv = [], smat.inv
    monkeypatch.setattr(smat, "inv", lambda a: calls.append(a) or inv(a))
    return calls


def test_invertibility_certified_at_a_point(monkeypatch):
    # gl(2|1) with one entry off by 2: invertible, and the Gauss-Jordan
    # inverse would divide by q + 2 in sympy's field
    calls = _counting_inv(monkeypatch)
    data = json.loads(rmatrix_to_json(catalog("glnm", 2, 1)))
    r, c, text = data["entries"][0]
    data["entries"][0] = [r, c, f"({text}) + 2"]
    assert rmatrix_from_json(json.dumps(data)).entry(1, 1, 1, 1) == qvar() + 2
    assert calls == []


def test_singular_r_keeps_its_message(monkeypatch):
    calls = _counting_inv(monkeypatch)
    rows = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    with pytest.raises(smat.Singular, match="matrix is singular over the scalar field"):
        RMatrix(2, rows)
    assert len(calls) == 1


def test_singular_at_the_point_falls_back_to_the_inverse(monkeypatch):
    # q - 2 vanishes at the point q = 2, but not identically
    calls = _counting_inv(monkeypatch)
    q = qvar()
    R = RMatrix(2, [[q - 2 if i == j == 0 else ONE if i == j else 0 for j in range(4)]
                    for i in range(4)])
    assert len(calls) == 1
    assert smat.meq(smat.mmul(R.rows, R.inverse_matrix()), smat.eye(4))
    assert dense_eq(dense_mmul(R.m, to_dense(R.inverse_matrix())), dense_eye(4))


_HUGE_DEGREE = """
import json, sys
from qgw.rmatlab import rmatrix_from_json
for text in sys.argv[1:]:
    entries = [[0, 0, text]] + [[k, k, "1"] for k in (1, 2, 3)]
    R = rmatrix_from_json(json.dumps({"n": 2, "grading": [0, 0], "entries": entries}))
    print(R.m[1][1] == 1)
"""


def test_invertibility_of_huge_degree_in_time():
    # the certificate reduces powers modulo a prime, so its cost does not
    # grow with the degree; a subprocess with a timeout, so that a
    # regression fails instead of hanging
    src = str(Path(smat.__file__).resolve().parents[1])
    texts = ["q^1000000000", "(q^(2^29)+1)/(q^(2^28)+1)", "lam1^-1000000000 + mu2^999999999"]
    out = subprocess.run([sys.executable, "-c", _HUGE_DEGREE, *texts], timeout=20, check=True,
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == ["True"] * len(texts)


_HUGE_BRAID = """
import json, sys
from qgw.rmatlab import hecke_check, qybe_check, rmatrix_from_json
# ac at q^N: a QYBE solution, but not Hecke at q; with a 2 for its 1 at
# ((1, 0), (1, 0)), no solution
n, w = "q^1000000000", "q^1000000000 - q^-1000000000"
for d in ("1", "2"):
    entries = [[0, 0, n], [1, 1, d], [1, 2, w], [2, 2, "1"], [3, 3, "-q^-1000000000"]]
    R = rmatrix_from_json(json.dumps({"n": 2, "entries": entries}))
    print(qybe_check(R), hecke_check(R))
"""


def test_braid_check_of_huge_degree_in_time():
    # codes of entries q^(+-10^9) would pass the size bound: the checks run
    # on the Scalar path, at a cost that does not grow with the degree
    src = str(Path(smat.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _HUGE_BRAID], timeout=20, check=True,
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == ["True", "False", "False", "False"]


def test_serialization_roundtrip():
    for spec in (("ac",), ("super_ac",), ("glnm", 2, 1)):
        R = catalog(*spec)
        R2 = rmatrix_from_json(rmatrix_to_json(R))
        assert R2 == R


def _ac_json(**change):
    data = json.loads(rmatrix_to_json(catalog("ac")))
    data.update(change)
    return json.dumps(data)


@pytest.mark.parametrize("change", [
    {"entries": [[-1, -1, "q"]]}, {"entries": [[4, 0, "q"]]},
    {"entries": [[0, 16, "q"]]}, {"entries": [[0, 0]]}, {"entries": [[0, 0, 1]]},
    {"entries": [["0", 0, "q"]]}, {"entries": [[True, 0, "q"]]},
    {"entries": [[0.0, 0, "q"]]}, {"entries": None}, {"entries": {"0": "q"}},
    {"n": 0}, {"n": -2}, {"n": 9, "grading": None}, {"n": 10 ** 6},
    {"n": 2.0}, {"n": "2"}, {"n": True}, {"n": None},
    {"grading": [0, 2]}, {"grading": [0]}, {"grading": [0, 1, 0]},
    {"grading": "01"}, {"grading": [0, False]},
], ids=repr)
def test_json_loader_rejects_malformed_input(change):
    with pytest.raises(ValueError):
        rmatrix_from_json(_ac_json(**change))


@pytest.mark.parametrize("second", ["-q^-1", "q"])
def test_json_loader_refuses_a_repeated_cell(second):
    # with the last value winning, [0, 0] = -1/q would load and pass the
    # braid check
    data = json.loads(_ac_json())
    assert data["entries"][0][:2] == [0, 0]
    data["entries"].append([0, 0, second])
    with pytest.raises(ValueError, match=r"repeats the cell \(0, 0\)"):
        rmatrix_from_json(json.dumps(data))


def test_json_loader_parses_each_distinct_entry_once(monkeypatch):
    from qgw import rmatlab
    calls, parse = [], rmatlab.parse
    monkeypatch.setattr(rmatlab, "parse", lambda text: calls.append(text) or parse(text))
    R = catalog("glnm", 2, 2)
    text = rmatrix_to_json(R)
    texts = [e[2] for e in json.loads(text)["entries"]]
    assert rmatrix_from_json(text) == R
    assert sorted(calls) == sorted(set(texts))
    assert len(calls) < len(texts)


def test_json_loader_rejects_non_objects():
    for text in ("[]", "3", "not json"):
        with pytest.raises(ValueError):
            rmatrix_from_json(text)
    assert rmatrix_from_json(_ac_json()) == catalog("ac")


def test_entry_convention_matches_matrix_layout():
    R = catalog("ac")
    n = R.n
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                for d in (1, 2):
                    assert R.entry(a, c, b, d) == \
                        R.m[(a - 1) * n + b - 1][(c - 1) * n + d - 1]


def test_rmatrix_of_general_entries_needs_no_exact_inverse(monkeypatch):
    """A dense R whose entries (a q + b)/(q^6 - 1) are general values (q^6 - 1
    has the factors q^2 + q + 1 and q^2 - q + 1) is certified invertible by
    its residues at the prime point: smat.inv, an elimination in sympy's
    field, is never called."""
    rng = random.Random(3)
    entries = [[parse(f"({rng.randint(1, 9)}*q+{rng.randint(1, 9)})/(q^6-1)") for _ in range(9)]
               for _ in range(9)]
    assert all(x._d is None for row in entries for x in row)

    def refuse(a):
        raise AssertionError("smat.inv was called")

    monkeypatch.setattr(smat, "inv", refuse)
    R = RMatrix(3, entries, name="general")
    assert R.rows[0][0][1] == entries[0][0]
