"""FRT-type constructions from an R-matrix.

Both sides of the construction come from one exchange relation,
R t1 t2 = t2 t1 R with the explicit sign factors in the graded case, which
_exchange_terms writes once.  On the function algebra side, build_ar
compiles the quadratic bialgebra A(R) from it, matrix_coalgebra_data gives
the matrix coproduct t -> t (x) t and its counit on a grid of generators,
and ar_hopf puts the two together.  On the enveloping side, matrices of
algebra elements l+/l- (m+/m- in the graded case) must satisfy
R l2 l1 = l1 l2 R, which are A(R21)'s relations with t1 -> l1 and
t2 -> l2, for R21^a_c^b_d = R^b_d^a_c; frt_relation_check verifies them
entrywise for given generator matrices, duality_pairing_check for the scalar
matrices of the canonical pairing, and matrix_hopf_check FRT's Delta L = L (x) L
and S L = L^-1 in a Hopf structure.  The quantum determinant rounds out the toolbox.

Everything here works for any R; the catalog algebras built from these
constructions live in algebras.  All graded signs are carried explicitly by
the index formulas; matrix products of graded entries are plain products in
the ambient algebra.
"""

from __future__ import annotations

from itertools import product

from . import smat
from .gtensor import TensorElement, outer, zero
from .hopfcore import HopfData, antipode, coproduct, try_invert
from .ncalg import Element, GeneratorSymbol, _add_scaled, compile_relations
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


# -- exchange relations ----------------------------------------------------

def _exchange_terms(n, p, entry, u, v):
    """The FRT exchange relation R t1 t2 = t2 t1 R, with t1 -> u and t2 -> v.

    entry(a, c, b, d) reads R^a_c^b_d, u(i, j) and v(i, j) give the images
    of the matrix entries and p is the index grading.  Yields, for each
    index (A,B,C,D), the list of signed terms (coefficient, left, right) of
    R^A_f^B_e u(f,C) v(e,D) - R^s_C^r_D v(B,r) u(A,s), in (f,e) and then
    (r,s) order, with the graded sign factors of a super R.  The nonzeros of
    each row and column of R are listed once, so an index costs its
    nonzeros, not 2n^2 entry reads.
    """
    p = (0,) + p
    rng = range(1, n + 1)
    pairs = list(product(rng, repeat=2))
    row_nz = {(A, B): [(f, e, x) for f, e in pairs if (x := entry(A, f, B, e))]
              for A, B in pairs}
    col_nz = {(C, D): [(r, s, x) for r, s in pairs if (x := entry(s, C, r, D))]
              for C, D in pairs}
    for A, B, C, D in product(rng, repeat=4):
        terms = [(-x if (p[A] * p[B] + p[C] * p[e]) % 2 else x, u(f, C), v(e, D))
                 for f, e, x in row_nz[A, B]]
        terms += [(x if (p[C] * p[D] + p[r] * p[A]) % 2 else -x, v(B, r), u(A, s))
                  for r, s, x in col_nz[C, D]]
        yield (A, B, C, D), terms


def _exchange_r21(R: RMatrix, u, v):
    """:func:`_exchange_terms` of R21, R21^a_c^b_d = R^b_d^a_c: the l+/l-
    relation R L2 L1 = L1 L2 R at (B,A,C,D) is A(R21)'s relation at
    (A,B,C,D), with t1 -> L1 and t2 -> L2."""
    return _exchange_terms(R.n, R.p, lambda a, c, b, d: R.entry(b, d, a, c), u, v)


def frt_relation_check(R: RMatrix, L1: OperatorMatrix, L2: OperatorMatrix) -> CheckReport:
    """Check R L2 L1 = L1 L2 R entrywise for a pair of generator matrices.

    Call once per relation family, e.g. (l+, l+), (l+, l-), (l-, l-).  The
    residual at (A,B,C,D) is that of A(R21)'s relation with t1 -> L1 and
    t2 -> L2; the graded sign factors are taken from R's index grading, and
    a bosonic R gives the ungraded relations.
    """
    pres = L1.pres
    rep = CheckReport(f"frt[{L1.label},{L2.label}]")
    for idx, terms in _exchange_r21(R, L1.entry, L2.entry):
        res = pres.zero()
        for c, left, right in terms:
            res = res + left * right * c
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
    p(i)+p(j) from R's grading; relations come from R t1 t2 = t2 t1 R with
    the graded sign factors when R is super.  sample_budget is ignored: the
    overlap check of compile_relations proves confluence without probes.
    """
    n = R.n
    p = R.p
    if names is None:
        names = [[f"t{i}{j}" for j in range(1, n + 1)] for i in range(1, n + 1)]

    def gname(i, j):
        return names[i - 1][j - 1]

    gens = [GeneratorSymbol(gname(i, j), degree=(p[i - 1] + p[j - 1]) % 2)
            for i in range(1, n + 1) for j in range(1, n + 1)]
    rel = []
    for _, terms in _exchange_terms(n, p, R.entry, gname, gname):
        row = {}
        for c, left, right in terms:
            _add_scaled(row, c, {(left, right): ONE})
        if row:
            rel.append((row, {}))
    label = name or (f"ar-{R.name}" if R.name else "ar")
    return compile_relations(gens, rel, name=label)


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
    except Exception as exc:
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
    for r, pairs in enumerate(R.rows):  # row (i, k), column (j, l)
        i, k = divmod(r, n)
        for c, x in pairs:
            j, l = divmod(c, n)
            plus[k][l][i].append((j, x))
    for r, pairs in enumerate(R.inverse_matrix()):  # row (k, i), column (l, j)
        k, i = divmod(r, n)
        for c, x in pairs:
            l, j = divmod(c, n)
            minus[k][l][i].append((j, x))
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
    fams = [("++", plus, plus), ("+-", plus, minus), ("--", minus, minus)]
    for tag, m1, m2 in fams:
        for idx, terms in _exchange_r21(R, lambda i, j: m1[i - 1][j - 1],
                                        lambda i, j: m2[i - 1][j - 1]):
            res = smat.lincomb(n, ((c, smat.mmul(left, right)) for c, left, right in terms))
            rep.record(not any(res), ((tag,) + idx,))
    return rep
