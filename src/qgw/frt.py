"""FRT-type constructions from an R-matrix.

Every relation built from R is a matrix equation on V (x) V, whose rows
{word: Scalar}, one per entry, relation_rows reads off the nonzeros of its
factors: matrices of Scalars and the legs u1 = u (x) 1 and u2 = 1 (x) u of
a grid of letters.  u2's entry (-1)^(p(a)(p(b) + p(d))) delta^a_c u^b_d,
the sign rule of smat.embed_rows, is the one Koszul sign.  build_ar compiles
A(R) from R t1 t2 = t2 t1 R; matrix_coalgebra_data and ar_hopf give it the
coproduct t -> t (x) t.  FRT's R l2 l1 = l1 l2 R is checked on generator
matrices l+/l- (m+/m- when graded) by frt_relation_check, on the canonical
pairing's scalar matrices by duality_pairing_check, and matrix_hopf_check
checks Delta L = L (x) L and S L = L^-1; exterior compiles Omega_q(R) the
same way.  The quantum determinant rounds out the toolbox.  Everything here
works for any R; the catalog algebras built from it live in algebras.
"""

from __future__ import annotations

from itertools import product

from . import smat
from .gtensor import TensorElement, outer, zero
from .hopfcore import HopfData, NotInvertible, antipode, coproduct, try_invert
from .ncalg import Element, GeneratorSymbol, _add_scaled, compile_relations, linear
from .report import CheckReport
from .rmatlab import RMatrix
from .scalars import ONE, ZERO, Scalar


class NoInverses(ValueError):
    pass


class OperatorMatrix:
    """A square matrix of algebra elements over one presentation.

    grading, when given, is the index grading p(i); entries are then
    required to be homogeneous of degree p(i)+p(j).
    """

    def __init__(self, pres, entries, label="", grading=None):
        self.pres = pres
        self.label = label
        self.rows = [[x if isinstance(x, Element) else pres.monomial((), Scalar(x))
                      for x in row] for row in entries]
        self.n = len(self.rows)
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("entry grid must be square")
        self.p = tuple(grading) if grading is not None else (0,) * self.n
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                want = (self.p[i] + self.p[j]) % 2
                for w in e.terms:
                    if pres.degree(w) % 2 != want:
                        raise ValueError(
                            f"{label or 'matrix'} entry ({i + 1},{j + 1}) "
                            f"is not homogeneous of degree {want}")

    def entry(self, i, j) -> Element:
        """1-based."""
        return self.rows[i - 1][j - 1]

    def __repr__(self):
        return f"OperatorMatrix({self.label or 'anon'}, n={self.n})"


# -- matrix relations on V (x) V ------------------------------------------

def scalar_factor(rows):
    """The matrix ``rows`` of Scalars, in row form, as a factor, by columns."""
    return [[(j, (), x, False) for j, x in sorted(pairs)] for pairs in rows]


def leg1(names, dim):
    """u1 = u (x) 1 on a second leg of dimension ``dim``, for the grid of
    u's letters: entry ((a, b), (c, b)) is u^a_c."""
    return [[(c * dim + b, (x,), ONE, False) for c, x in enumerate(row)]
            for row in names for b in range(dim)]


def leg2(names, p, pu):
    """u2 = 1 (x) u on a first leg of grading ``p``, for the grid of u's
    letters, its rows and columns graded by ``pu``: entry ((a, b), (a, d)) is
    (-1)^(p(a)(p(b) + p(d))) u^b_d, the sign of moving u^b_d past a."""
    cols = len(names[0])
    return [[(a * cols + d, (x,), ONE, pa * (pu[0][b] + pu[1][d]) % 2 == 1)
             for d, x in enumerate(row)] for a, pa in enumerate(p) for b, row in enumerate(names)]


def _paths(factors, r, word, x, odd):
    if not factors:
        yield r, word, x, odd
        return
    for c, w, y, o in factors[0][r]:
        yield from _paths(factors[1:], c, word + w,
                          y if x is ONE else x if y is ONE else x * y, odd != o)


def relation_rows(lhs, rhs, width):
    """The entries of LHS - RHS, row-major, each a dict {word: Scalar}, for two
    products (lists) of factors with ``width`` columns, matrices in row form of
    (column, letters, Scalar, sign) entries.  A path through a side's nonzeros
    gives a word, its Scalars' product (none by ONE) and a sign, one negation."""
    for r in range(len(lhs[0])):
        row = [{} for _ in range(width)]
        for side, odd in ((lhs, False), (rhs, True)):
            for c, word, x, o in _paths(side, r, (), ONE, odd):
                _add_scaled(row[c], -x if o else x, {word: ONE})
        yield from row


def _envelope_rows(R: RMatrix):
    """(label, row) of FRT's R u2 v1 = v1 u2 R on the letters i n + j of u
    and n^2 + i n + j of v: the entry at ((a, b), (c, d)) has the label
    (b, a, d, c), its index in the flipped relation R21 u1 v2 = v2 u1 R21."""
    n, p = R.n, R.p
    u, v = ([[k + i * n + j for j in range(n)] for i in range(n)] for k in (0, n * n))
    rf, u2, v1 = scalar_factor(R.rows), leg2(u, p, (p, p)), leg1(v, n)
    labels = ((b, a, d, c) for a, b, c, d in product(range(1, n + 1), repeat=4))
    return zip(labels, relation_rows([rf, u2, v1], [v1, u2, rf], n * n))


def frt_relation_check(R: RMatrix, L1: OperatorMatrix, L2: OperatorMatrix) -> CheckReport:
    """Check R L2 L1 = L1 L2 R, FRT's R (L1)_2 (L2)_1 = (L2)_1 (L1)_2 R,
    entrywise for a pair of generator matrices, e.g. (l+, l+), (l+, l-),
    (l-, l-); the residuals are labelled as in :func:`_envelope_rows`."""
    images = [x for L in (L1, L2) for row in L.rows for x in row]
    rep = CheckReport(f"frt[{L1.label},{L2.label}]")
    for idx, row in _envelope_rows(R):
        res = linear(lambda w: images[w[0]] * images[w[1]], row, L1.pres.zero())
        rep.record(not res, (idx, str(res)))
    return rep


def matrix_hopf_check(h: HopfData, *mats: OperatorMatrix) -> CheckReport:
    """FRT's Hopf structure on generator matrices of h, at every (i, j) of each:
    Delta(l_ij) = sum_k l_ik (x) l_kj and sum_k S(l_ik) l_kj = delta_ij."""
    rep = CheckReport(f"matrix-hopf[{h.name}]")
    for L in mats:
        rng = range(1, L.n + 1)
        for i, j in product(rng, repeat=2):
            row = [(L.entry(i, k), L.entry(k, j)) for k in rng]
            want = sum((outer(a, b) for a, b in row), zero(h.pres, 2))
            rep.record(coproduct(L.entry(i, j), h) == want, ("coproduct", L.label, i, j))
            inv = sum((antipode(a, h) * b for a, b in row), h.pres.zero())
            rep.record(inv == (ONE if i == j else ZERO), ("antipode", L.label, i, j))
    return rep


# -- the quadratic function algebra ---------------------------------------

def build_ar(R: RMatrix, names=None, name="", sample_budget=0):
    """Compile the matrix bialgebra A(R) as a rewrite presentation.

    Generators are row-major t<i><j> (or the given name grid) with degrees
    p(i)+p(j) from R's grading; relations are the rows of R t1 t2 = t2 t1 R.
    sample_budget is ignored: the overlap check of compile_relations proves
    confluence without probes.
    """
    n, p = R.n, R.p
    if names is None:
        names = [[f"t{i}{j}" for j in range(1, n + 1)] for i in range(1, n + 1)]
    gens = [GeneratorSymbol(x, degree=(p[i] + p[j]) % 2)
            for i, row in enumerate(names) for j, x in enumerate(row)]
    rf, t1, t2 = scalar_factor(R.rows), leg1(names, n), leg2(names, p, (p, p))
    rel = [(row, {}) for row in relation_rows([rf, t1, t2], [t2, t1, rf], n * n) if row]
    return compile_relations(gens, rel, name=name or (f"ar-{R.name}" if R.name else "ar"))


def matrix_coalgebra_data(pres, names):
    """Delta/counit entries of the matrix coproduct on a square name grid.

    names[i][j] is the generator t_ij; Delta(t_ij) = sum_k t_ik (x) t_kj and
    eps(t_ij) = delta_ij.
    """
    n = len(names)
    delta, eps = {}, {}
    for i, row in enumerate(names):
        for j, g in enumerate(row):
            delta[g] = TensorElement(
                pres, 2, {((row[k],), (names[k][j],)): ONE for k in range(n)})
            eps[g] = ONE if i == j else Scalar(0)
    return delta, eps


def generator_grid(pres, n):
    """The n x n grid t_ij of build_ar's generators, read row-major."""
    return [[g.name for g in pres.gens[i * n:(i + 1) * n]] for i in range(n)]


def ar_hopf(R: RMatrix) -> HopfData:
    """A(R) with the matrix coproduct t -> t (x) t (bialgebra, no antipode)
    on the generator_grid of build_ar's generators."""
    pres = build_ar(R)
    return HopfData(pres, *matrix_coalgebra_data(pres, generator_grid(pres, R.n)), None)


# -- determinant -----------------------------------------------------------

def qdet(t: OperatorMatrix) -> Element:
    """a d^-1 - b d^-1 c d^-1 for a 2x2 quantum matrix with invertible d."""
    if t.n != 2:
        raise ValueError("determinant implemented for 2x2 matrices")
    try:
        di = try_invert(t.entry(2, 2))
    except NotInvertible as exc:
        raise NoInverses(str(exc)) from exc
    return t.entry(1, 1) * di - t.entry(1, 2) * di * t.entry(2, 1) * di


def _grouplike(h: HopfData, e: Element) -> bool:
    return coproduct(e, h) == outer(e, e)


def qdet_check(h: HopfData) -> CheckReport:
    """Determinant properties for a 2x2 matrix Hopf algebra.

    Bosonic case: D commutes with the diagonal generators, anticommutes
    with the off-diagonal ones, and D^2 is central; D and D^2 are both
    group-like.  Graded case: D is the superdeterminant, central outright.
    """
    pres = h.pres
    t = OperatorMatrix(pres, [[pres.gen("a"), pres.gen("b")],
                              [pres.gen("c"), pres.gen("d")]], label="t",
                       grading=(0, 1) if pres.graded else None)
    det = qdet(t)
    rep = CheckReport(f"qdet[{h.name}]")
    if pres.graded:
        for gname in ("a", "b", "c", "d"):
            x = pres.gen(gname)
            rep.record(det * x == x * det, ("central", gname))
    else:
        for gname in ("a", "d"):
            x = pres.gen(gname)
            rep.record(det * x == x * det, ("commute", gname))
        for gname in ("b", "c"):
            x = pres.gen(gname)
            rep.record(det * x + x * det == pres.zero(), ("anticommute", gname))
        sq = det * det
        for gname in ("a", "b", "c", "d"):
            x = pres.gen(gname)
            rep.record(sq * x == x * sq, ("square-central", gname))
        rep.record(_grouplike(h, sq), ("square-grouplike",))
    rep.record(_grouplike(h, det), ("grouplike",))
    return rep


# -- duality pairing -------------------------------------------------------

def pairing_matrices(R: RMatrix):
    """Canonical duality pairing: the n x n scalar matrices of l+/l- entries,
    in row form.

    plus[k-1][l-1] has the entry <.., l+ entry (k,l)> = R^i_j^k_l at (i-1, j-1),
    and minus is the same from R^-1: the plain representation matrices of the l+/l- entries.  The
    right-action convention of the pairing would add, for graded R, the sign
    (-1)^{p(j)(p(k)+p(l))} to plus and (-1)^{p(k)(p(i)+p(j))} to minus.
    """
    n = R.n
    plus, minus = ([[[[] for _ in range(n)] for _ in range(n)] for _ in range(n)]
                   for _ in range(2))
    # row (i, k) and column (j, l) of R, row (k, i) and column (l, j) of R^-1
    for out, rows, order in ((plus, R.rows, 1), (minus, R.inverse_matrix(), -1)):
        for r, pairs in enumerate(rows):
            i, k = divmod(r, n)[::order]
            for c, x in pairs:
                j, l = divmod(c, n)[::order]
                out[k][l][i].append((j, x))
    return plus, minus


def duality_pairing_check(R: RMatrix) -> CheckReport:
    """The paired generator matrices satisfy the exchange relations.

    Representation-consistency of the canonical pairing: the plain
    (sign-stripped) scalar matrices of the l+/l- (m+/m-) entries must
    satisfy the same entrywise identities R L2 L1 = L1 L2 R as the
    abstract generators.
    """
    n = R.n
    plus, minus = pairing_matrices(R)
    rep = CheckReport(f"duality[{R.name or 'R'}]")
    for tag, m1, m2 in (("++", plus, plus), ("+-", plus, minus), ("--", minus, minus)):
        mats = [m for ms in (m1, m2) for row in ms for m in row]
        for idx, row in _envelope_rows(R):
            res = smat.lincomb(n, ((c, smat.mmul(mats[a], mats[b])) for (a, b), c in row.items()))
            rep.record(not any(res), ((tag,) + idx,))
    return rep
