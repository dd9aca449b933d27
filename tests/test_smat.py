from fractions import Fraction
from itertools import product

import pytest
from conftest import dense_eq, dense_smul, dense_zeros, madd, twisted_r
from hypothesis import given, settings, strategies as st

from qgw import scalars, smat
from qgw.reps import universal_r_eval
from qgw.rmatlab import catalog
from qgw.scalars import (MODULUS, ONE, ZERO, Scalar, imag_unit, indet, kronecker_codes,
                         parse, prime_point_residue, qvar)


def _dense(rows):
    """The dense square matrix of a matrix in row form, each row's columns
    distinct and its values nonzero."""
    out = dense_zeros(len(rows))
    for r, pairs in enumerate(rows):
        assert len({c for c, _ in pairs}) == len(pairs)
        for c, x in pairs:
            assert x
            out[r][c] = x
    return out


def _embedded(m, dims, ps, legs):
    """The dense form of embed_rows on the row form of the dense ``m``."""
    return _dense(smat.embed_rows(smat.row_form(m), dims, ps, legs))


def _placed(m, dims, ps, legs):
    """Entry by entry, the embedding of ``m`` on legs (i, j) next to the
    spectator leg k: the entry of m at ((x_i, x_j), (y_i, y_j)) where x_k =
    y_k, times -1 when the spectator basis vector is odd and the factors
    acting on the legs after k have odd total parity."""
    i, j = legs
    k = 3 - i - j
    flat = list(product(*map(range, dims)))  # flat index -> (x0, x1, x2)
    out = dense_zeros(len(flat))
    for r, x in enumerate(flat):
        for c, y in enumerate(flat):
            if x[k] != y[k]:
                continue
            v = m[x[i] * dims[j] + x[j]][y[i] * dims[j] + y[j]]
            after = sum(ps[l][x[l]] + ps[l][y[l]] for l in legs if l > k)
            out[r][c] = -v if v and ps[k][x[k]] and after % 2 else v
    return out


@pytest.mark.parametrize("legs", [(0, 1), (0, 2), (1, 2)])
def test_leg_embedding_zero_grading_is_plain_placement(legs):
    R = catalog("ac")
    got = _embedded(R.m, (2, 2, 2), ((0, 0),) * 3, legs)
    assert dense_eq(got, _placed(R.m, (2, 2, 2), ((0, 0),) * 3, legs))


_CATALOG = [("ac",), ("super_ac",), ("omega",), ("super_omega",), ("glnm", 2, 1),
            ("super_glnm", 2, 1), ("super_glnm", 1, 2), ("std_gl", 2), ("identity", 2)]


@pytest.mark.parametrize("spec", _CATALOG, ids=lambda s: "".join(map(str, s)))
def test_embedding_of_row_form_matches_entrywise_placement(spec):
    """embed_rows on R's row form is the Koszul-signed placement of R on each
    pair of legs of the catalog R's grading."""
    R = catalog(*spec)
    dims, ps = (R.n,) * 3, (R.p,) * 3
    for legs in ((0, 1), (0, 2), (1, 2)):
        want = _placed(R.m, dims, ps, legs)
        assert dense_eq(_dense(smat.embed_rows(R.rows, dims, ps, legs)), want), legs


def test_leg_embedding_odd_spectator_signs():
    # legs 0 and 2 around an odd spectator: the leg-2 factor moves past it
    q = qvar()
    m = dense_zeros(4)
    m[0][0] = q  # E00 (x) E00: both factors even
    m[0][3] = ONE  # E01 (x) E01: both factors odd
    got = _embedded(m, (2, 2, 2), ((0, 1),) * 3, (0, 2))
    # rows and columns are (leg0, leg1, leg2) -> 4 leg0 + 2 leg1 + leg2
    assert got[0][0] == q and got[2][2] == q
    assert got[0][5] == ONE and got[2][7] == -ONE
    assert sum(1 for row in got for x in row if x) == 4
    # on legs (0, 1) the spectator comes last and nothing moves past it
    got = _embedded(m, (2, 2, 2), ((0, 1),) * 3, (0, 1))
    assert got[0][6] == ONE and got[1][7] == ONE


def test_leg_embedding_mixed_dimensions():
    # a 6x6 operator on legs (0, 2) of dimensions (2, 4, 3): an entry at
    # row (a, b) = (1, 2), column (c, d) = (0, 1) lands at (1, s, 2) and
    # (0, s, 1) for every spectator index s, flattened as (x0 * 4 + x1) * 3 + x2
    m = dense_zeros(6)
    m[1 * 3 + 2][0 * 3 + 1] = ONE
    got = _embedded(m, (2, 4, 3), ((0, 0), (0, 0, 0, 0), (0, 0, 0)), (0, 2))
    assert len(got) == 24
    want = {((1 * 4 + s) * 3 + 2, (0 * 4 + s) * 3 + 1) for s in range(4)}
    assert {(r, c) for r, row in enumerate(got) for c, x in enumerate(row)
            if x} == want


def test_braid_holds_on_embedded_legs():
    dims, ps = (2, 2, 2), ((0, 1),) * 3
    for name, ok in (("super_ac", True), ("ac", False)):
        m = catalog(name).m
        rows = smat.row_form(m)
        legs = [smat.embed_rows(rows, dims, ps, pr) for pr in ((0, 1), (0, 2), (1, 2))]
        assert smat.braid_holds(*legs) is ok, name
    assert smat.braid_holds(*[[[(i, ONE)] for i in range(8)]] * 3)


def _full_product(a, b):
    """a b for dense square ``a`` and ``b``, every entry summed over the
    nonzero pairs that meet: the plain reference for braid_holds."""
    out = dense_zeros(len(a))
    for i, row in enumerate(a):
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        out[i][j] = out[i][j] + x * y
    return out


def _braid_sides(r12, r13, r23):
    """Both sides of the braid relation for three matrices in row form, as
    full dense products."""
    a, b, c = (_dense(r) for r in (r12, r13, r23))
    return _full_product(_full_product(a, b), c), _full_product(_full_product(c, b), a)


def _braid_reference(r12, r13, r23):
    return dense_eq(*_braid_sides(r12, r13, r23))


_CATALOG = [("ac",), ("omega",), ("std_gl", 2), ("std_gl", 3), ("identity", 2)] + [
    (kind, n, m) for kind in ("glnm", "super_glnm")
    for n, m in ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3))] + [
    ("super_ac",), ("super_omega",)]


def _corrupted(m):
    """``m`` with its last nonzero entry doubled."""
    m = [list(row) for row in m]
    i, j = max((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x)
    m[i][j] = 2 * m[i][j]
    return m


@pytest.mark.parametrize("spec", _CATALOG, ids=lambda s: "".join(map(str, s)))
def test_braid_holds_matches_the_full_products_on_the_catalog(spec):
    # each catalog R, its last nonzero doubled, and for a super R its bosonic
    # grading: the early exit must not pass an R whose sides differ late
    R = catalog(*spec)
    verdicts = []
    for m, ps in ((R.m, R.p), (R.m, (0,) * R.n), (_corrupted(R.m), R.p)):
        rows = smat.row_form(m)
        legs = [smat.embed_rows(rows, (R.n,) * 3, (ps,) * 3, pr)
                for pr in ((0, 1), (0, 2), (1, 2))]
        verdicts.append(smat.braid_holds(*legs))
        assert verdicts[-1] is _braid_reference(*legs), (spec, ps)
    assert verdicts[0]


@settings(deadline=None)
@given(st.data(), st.integers(1, 6))
def test_braid_holds_matches_the_full_products_on_random_triples(data, n):
    def rows():
        out = []
        for _ in range(n):
            cols = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
            out.append([(c, x) for c in cols if (x := data.draw(_ENTRIES))])
        return out

    triple = [rows() for _ in range(3)]
    assert smat.braid_holds(*triple) is _braid_reference(*triple)


_DIAGONAL = st.sampled_from([ONE, -ONE, Scalar(2), qvar(), ONE / qvar(), qvar() + ONE])


@settings(deadline=None)
@given(st.data(), st.integers(2, 6))
def test_braid_holds_refutes_sides_that_differ_in_the_last_row_only(data, n):
    # x, y and z diagonal commute; an entry off the diagonal in z's last row
    # changes row n - 1 of x y z and of z y x, and no other row
    x, y, z = ([[(i, data.draw(_DIAGONAL))] for i in range(n)] for _ in range(3))
    c = data.draw(st.integers(0, n - 2))
    z[-1].append((c, data.draw(_DIAGONAL)))
    left, right = _braid_sides(x, y, z)
    assert all(dense_eq([a], [b]) for a, b in zip(left[:-1], right[:-1]))
    assert smat.braid_holds(x, y, z) is dense_eq(left, right)
    if x[c][0][1] * y[c][0][1] != x[-1][0][1] * y[-1][0][1]:
        assert not smat.braid_holds(x, y, z)


def test_braid_holds_stops_at_the_first_row_that_differs(monkeypatch):
    # x y z and z y x differ in row 0: one row of each product is computed
    n = 8
    diag = [[(i, ONE)] for i in range(n)]
    z = [list(r) for r in diag]
    z[0] = [(0, ONE), (1, ONE)]
    x = [list(r) for r in diag]
    x[1] = [(1, Scalar(2))]
    assert not _braid_reference(x, diag, z)
    rows, products = [], smat.products

    def counted(a, b):
        for acc in products(a, b):
            rows.append(acc)
            yield acc

    monkeypatch.setattr(smat, "products", counted)
    assert not smat.braid_holds(x, diag, z)
    assert len(rows) == 4
    rows.clear()
    assert smat.braid_holds(diag, diag, diag)
    assert len(rows) == 4 * n


def _on_scalars(fn, *args):
    """fn(*args) with smat's Kronecker codes turned off: the Scalar path."""
    codes = smat.kronecker_codes
    smat.kronecker_codes = lambda factors: None
    try:
        return fn(*args)
    finally:
        smat.kronecker_codes = codes


def _legs(m, n, ps):
    rows = smat.row_form(m)
    return [smat.embed_rows(rows, (n,) * 3, (ps,) * 3, pr) for pr in smat.LEGS]


def _catalog_variants(R):
    """(matrix, grading) for R and a twist of it, as they are and with the
    last nonzero doubled, each under R's grading and the zero grading."""
    for m in (R.m, twisted_r(R, 3).m):
        for mm in (m, _corrupted(m)):
            for ps in dict.fromkeys((R.p, (0,) * R.n)):
                yield mm, ps


@pytest.mark.parametrize("spec", [s for s in _CATALOG if s[0] != "identity"],
                         ids=lambda s: "".join(map(str, s)))
def test_legs_embedded_from_codes_are_the_codes_of_the_legs(spec):
    # encoding R before embedding it gives the legs that encoding the
    # embedded Scalar legs gives: the same X and the same ints, slot by slot
    R = catalog(*spec)
    for m, ps in _catalog_variants(R):
        dims, pss, rows = (R.n,) * 3, (ps,) * 3, smat.row_form(m)
        legs = _legs(m, R.n, ps)
        want = kronecker_codes(legs)
        assert want is not None
        assert smat.braid_legs(rows, rows, rows, dims, pss) == want, (spec, ps)
        assert _on_scalars(smat.braid_legs, rows, rows, rows, dims, pss) == legs


def test_legs_embedded_from_codes_on_a_quasitriangular_triple():
    # three different R-matrices of the universal R at integer labels, on
    # legs (0, 1), (0, 2) and (1, 2)
    labs = ((1, 0), (2, -1), (0, 1))
    mats = [smat.row_form(universal_r_eval(labs[i], labs[j]).m) for i, j in smat.LEGS]
    dims, ps = (2, 2, 2), ((0, 0),) * 3
    legs = [smat.embed_rows(m, dims, ps, pr) for m, pr in zip(mats, smat.LEGS)]
    want = kronecker_codes(legs)
    assert want is not None
    assert smat.braid_legs(*mats, dims, ps) == want
    assert smat.braid_holds(*want) is smat.braid_holds(*legs) is _braid_reference(*legs) is True


@pytest.mark.parametrize("spec", [s for s in _CATALOG if s[0] != "identity"],
                         ids=lambda s: "".join(map(str, s)))
def test_integer_and_scalar_paths_agree_on_the_catalog(spec):
    # each catalog R and a twist of it, as they are and with the last
    # nonzero doubled: the integer path applies and gives the Scalar verdict
    R = catalog(*spec)
    verdicts = []
    for m in (R.m, twisted_r(R, 3).m):
        for mm in (m, _corrupted(m)):
            rows = smat.row_form(mm)
            codes = smat.braid_legs(rows, rows, rows, (R.n,) * 3, (R.p,) * 3)
            assert all(type(x) is int for leg in codes for row in leg for _, x in row)
            verdicts.append(smat.braid_holds(*codes))
            assert verdicts[-1] is smat.braid_holds(*_legs(mm, R.n, R.p)), spec
    assert verdicts[0] and verdicts[2]
    assert not (verdicts[1] or verdicts[3])


_Q = qvar()
# sums of up to three terms a/d q^e with negative exponents and Fraction
# coefficients
_LAURENT = st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 6), st.integers(-3, 3)),
                    min_size=1, max_size=3).map(
    lambda terms: sum((Fraction(a, d) * _Q ** e for a, d, e in terms), ZERO))


@settings(deadline=None)
@given(st.data(), st.integers(1, 5))
def test_integer_and_scalar_paths_agree_on_random_triples(data, n):
    # mostly diagonal, so that the sides are equal as often as not
    def rows():
        out = []
        for i in range(n):
            cols = [i] + data.draw(st.lists(st.integers(0, n - 1), max_size=1, unique=True))
            out.append([(c, x) for c in dict.fromkeys(cols) if (x := data.draw(_LAURENT))])
        return out

    triple = [rows() for _ in range(3)]
    codes = kronecker_codes(triple)
    assert codes is not None
    got = smat.braid_holds(*codes)
    assert got is smat.braid_holds(*triple) is _braid_reference(*triple)


def test_kronecker_bound_is_needed(monkeypatch):
    # x = diag(M, q), y = diag(M, 1), z the flip: x y z has M^2 and q where
    # z y x has q and M^2, so the sides differ, but agree at q = M^2.  With
    # M = 2^t every code is an integer polynomial of L1 norm at most M and
    # the rows have one entry, so the bound asks for X > 2 M^3, b = 3t + 2
    t = 5
    big = Scalar(2 ** t)
    x = [[(0, big)], [(1, _Q)]]
    y = [[(0, big)], [(1, ONE)]]
    z = [[(1, ONE)], [(0, ONE)]]
    assert not _braid_reference(x, y, z)
    assert scalars._kronecker_bits(3, 1, 2 ** t) == 3 * t + 2
    assert not smat.braid_holds(*kronecker_codes([x, y, z]))
    monkeypatch.setattr(scalars, "_kronecker_bits", lambda k, width, norm: 2 * t)
    # a smaller X: unequal sides compare equal
    assert smat.braid_holds(*kronecker_codes([x, y, z]))


def test_kronecker_codes_refuse_other_entries(restore_field):
    # labels, binomial denominators, Q(i) and codes past the size bound stay
    # on the Scalar path, and braid_holds still decides on them
    q = _Q
    diag = [[(i, ONE)] for i in range(2)]
    for x in (indet("lam1"), ONE / (q + ONE), q ** 1000000000 + ONE, parse("2/(q^2-1)"),
              q * imag_unit()):
        z = [[(0, ONE), (1, x)], [(1, ONE)]]
        assert kronecker_codes([diag, diag, z]) is None, x
        assert smat.braid_holds(diag, diag, z)
        assert smat.braid_holds(z, [[(0, 2 * ONE)], [(1, ONE)]], diag) is \
            _braid_reference(z, [[(0, 2 * ONE)], [(1, ONE)]], diag)
    assert kronecker_codes([[[(0, Fraction(1, 2) * q ** -2)]]]) == [[[(0, 1)]]]


def test_check_invertible_without_a_residue_decides_by_inverse(monkeypatch):
    # 1/MODULUS q has no residue at the prime point, so the exact inverse
    # decides: it is invertible alone and singular in a rank-one matrix
    x = Fraction(1, MODULUS) * qvar()
    assert prime_point_residue(x) is None
    calls, inv = [], smat.inv
    monkeypatch.setattr(smat, "inv", lambda a: calls.append(a) or inv(a))
    smat.check_invertible([[(0, x)], [(1, ONE)]])
    assert len(calls) == 1
    with pytest.raises(smat.Singular):
        smat.check_invertible([[(0, x), (1, x)], [(0, ONE), (1, ONE)]])
    assert len(calls) == 2


def _dense_cols(rows, cols):
    """The dense form of a matrix in row form with ``cols`` columns, its
    rows' columns distinct and its values nonzero."""
    assert all(len({c for c, _ in pairs}) == len(pairs) and all(x for _, x in pairs)
               for pairs in rows)
    return smat.dense(rows, cols)


def _naive_mmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


# x and -x both occur, so that sums of products cancel to 0
_ENTRIES = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, Scalar(2), qvar(), -qvar(),
                            ONE / qvar(), qvar() - ONE / qvar(), ONE / (qvar() + ONE)])


@settings(deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_mmul_matches_naive_product(data, n, k, m):
    def matrix(rows, cols):
        return [[data.draw(_ENTRIES) for _ in range(cols)] for _ in range(rows)]

    a, b = matrix(n, k), matrix(k, m)
    if data.draw(st.booleans()):  # a zero row of a and a zero column of b
        a[data.draw(st.integers(0, n - 1))] = [ZERO] * k
        col = data.draw(st.integers(0, m - 1))
        for row in b:
            row[col] = ZERO
    got = smat.mmul(smat.row_form(a), smat.row_form(b))
    assert len(got) == n
    assert dense_eq(_dense_cols(got, m), _naive_mmul(a, b))


@settings(deadline=None)
@given(st.data(), *[st.integers(1, 3)] * 4)
def test_kron_matches_koszul_formula(data, ra, ca, rb, cb):
    """Entry ((i, j), (k, l)) of kron_rows(a, b, deg_b, pa, cols) is
    (-1)^(deg_b pa[k]) a[i][k] b[j][l], on random parities and degrees."""
    def matrix(rows, cols):
        return [[data.draw(_ENTRIES) for _ in range(cols)] for _ in range(rows)]

    a, b = matrix(ra, ca), matrix(rb, cb)
    pa = data.draw(st.lists(st.integers(0, 1), min_size=ca, max_size=ca))
    deg_b = data.draw(st.integers(0, 1))
    want = dense_zeros(ra * rb, ca * cb)
    for i, k, j, l in product(range(ra), range(ca), range(rb), range(cb)):
        x = a[i][k] * b[j][l]
        want[i * rb + j][k * cb + l] = -x if deg_b * pa[k] else x
    got = smat.kron_rows(smat.row_form(a), smat.row_form(b), deg_b, pa, cb)
    assert dense_eq(_dense_cols(got, ca * cb), want)
    plain = _dense_cols(smat.kron_rows(smat.row_form(a), smat.row_form(b), 0, pa, cb), ca * cb)
    assert all(plain[i * rb + j][k * cb + l] == a[i][k] * b[j][l]
               for i, k, j, l in product(range(ra), range(ca), range(rb), range(cb)))


def test_mmul_of_embedded_legs_multiplies_nonzero_pairs(monkeypatch):
    # one Scalar multiplication per pair (a[i][t], b[t][j]) of nonzeros, and
    # one addition fewer per entry that such pairs reach: none to a 0
    R = catalog("super_glnm", n=2, m=2)
    a, b = (_dense(smat.embed_rows(R.rows, (4,) * 3, (R.p,) * 3, pr)) for pr in ((0, 1), (0, 2)))
    pairs = sum(sum(1 for row in a if row[t]) * sum(1 for x in b[t] if x)
                for t in range(64))
    reached = sum(1 for row in a for j in range(64)
                  if any(row[t] and b[t][j] for t in range(64)))
    calls = {"__mul__": 0, "__add__": 0}

    def counted(name):
        op = getattr(Scalar, name)

        def wrapper(x, y):
            calls[name] += 1
            return op(x, y)
        return wrapper

    ra, rb = smat.row_form(a), smat.row_form(b)
    for name in calls:
        monkeypatch.setattr(Scalar, name, counted(name))
    got = smat.mmul(ra, rb)
    monkeypatch.undo()
    assert calls == {"__mul__": pairs, "__add__": pairs - reached}
    assert pairs < 64 ** 3 // 10
    assert dense_eq(_dense(got), _naive_mmul(a, b))


def test_meq_compares_the_nonzero_entries_in_any_order():
    q = qvar()
    a = [[(0, q), (1, ONE)], []]
    assert smat.meq(a, [[(1, ONE), (0, q)], [(1, q - q)]])
    assert not smat.meq(a, [[(0, q)], []])
    assert not smat.meq(a, [[(0, q), (1, -ONE)], []])
    assert not smat.meq(a, a + [[]])


def test_mmul_keeps_no_entry_that_cancels():
    q = qvar()
    a = [[(0, q), (1, -q)]]
    b = [[(0, ONE), (1, ONE)], [(0, ONE), (1, 2 * ONE)]]
    assert smat.mmul(a, b) == [[(1, -q)]]
    assert smat.lincomb(2, [(ONE, [[(0, q), (1, q)], []]), (ONE, [[(0, -q)], []])]) \
        == [[(1, q)], []]


_COEFFS = st.sampled_from([ONE, -ONE, Scalar(2), qvar(), ONE - qvar() * qvar(), ONE / qvar()])


@settings(deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(0, 3))
def test_lincomb_matches_the_dense_sum(data, n, k):
    """lincomb(n, [(c, m), ...]) is the dense sum of the c m, in row form
    with each column once and no entry that is 0 (``_dense`` asserts both);
    a matrix minus itself leaves every row empty."""
    terms = [(data.draw(_COEFFS), [[data.draw(_ENTRIES) for _ in range(n)] for _ in range(n)])
             for _ in range(k)]
    want = dense_zeros(n)
    for c, m in terms:
        want = madd(want, dense_smul(c, m))
    got = smat.lincomb(n, [(c, smat.row_form(m)) for c, m in terms])
    assert dense_eq(_dense(got), want)
    c = data.draw(_COEFFS)
    assert smat.lincomb(n, [(c, got), (-c, got)]) == [[] for _ in range(n)]


def test_lincomb_takes_no_product_by_one(monkeypatch):
    """A coefficient ONE, or an entry ONE, is not multiplied by: m + c 1
    takes no product, and c m one per entry of m that is not ONE.  The
    entry -q + q of m + q 1 cancels and is dropped."""
    q = qvar()
    m = [[(0, q), (1, ONE)], [(1, -q)]]
    calls = []
    mul = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    shifted = smat.lincomb(2, [(ONE, m), (q, smat.eye(2))])
    assert not calls
    scaled = smat.lincomb(2, [(q, m)])
    assert len(calls) == 2
    monkeypatch.undo()
    assert shifted == [[(0, 2 * q), (1, ONE)], []]
    assert smat.meq(scaled, [[(0, q * q), (1, q)], [(1, -q * q)]])


@settings(deadline=None)
@given(st.data(), st.integers(1, 4))
def test_inv_is_the_inverse_of_the_dense_matrix(data, n):
    # half the draws are triangular with a nonzero diagonal, so invertible;
    # check_invertible, modulo a prime at a point, agrees with inv
    a = [[data.draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    triangular = data.draw(st.booleans())
    if triangular:
        for i in range(n):
            a[i][:i] = [ZERO] * i
            a[i][i] = data.draw(_ENTRIES.filter(bool))
    rows = smat.row_form(a)
    try:
        b = smat.inv(rows)
    except smat.Singular:
        assert not triangular
        with pytest.raises(smat.Singular):
            smat.check_invertible(rows)
        return
    smat.check_invertible(rows)
    eye = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    assert dense_eq(_naive_mmul(a, _dense_cols(b, n)), eye)
    assert dense_eq(_naive_mmul(_dense_cols(b, n), a), eye)
