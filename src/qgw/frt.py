"""FRT-type constructions from an R-matrix.

Two sides of the construction are covered.  On the enveloping side,
matrices of algebra elements l+/l- (m+/m- in the graded case) must satisfy
the quadratic exchange relations R l2 l1 = l1 l2 R; frt_relation_check
verifies this entrywise for a concrete ansatz.  On the function algebra
side, build_ar compiles the quadratic bialgebra A(R) from R t1 t2 = t2 t1 R
(with the explicit sign factors in the graded case) and ar_hopf equips it
with the matrix coproduct.  Determinants, antipode matrices and the
canonical duality pairing round out the toolbox.

All graded signs are carried explicitly by the index formulas; matrix
products of graded entries are plain products in the ambient algebra.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import smat
from .algebras import fa_presentation, uq_presentation
from .gtensor import BOSONIC, SUPER, TensorElement, outer, zero
from .hopfcore import HopfData, coproduct, try_invert
from .ncalg import Element, GeneratorSymbol, compile_relations, tensor
from .report import CheckReport
from .rmatlab import RMatrix
from .scalars import ONE, ZERO, Scalar, qvar


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

def _envelope_residuals(R: RMatrix, e1, e2, add, mul, smulf, zero):
    """Entrywise residuals of R m2 m1 = m1 m2 R with graded sign factors.

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


def _function_rows(R: RMatrix, gname):
    """Rows of R t1 t2 - t2 t1 R as word->coeff dicts, graded signs included.

    The row (A,B,C,D) reads the nonzeros R^A_f^B_e of R's row (A,B), in
    (f,e) order, and R^s_C^r_D of its column (C,D), in (r,s) order; each
    list is made once, so a row costs its nonzeros, not 2n^2 entry reads.
    Zero rows are skipped.
    """
    n = R.n
    p = (0,) + R.p
    rng = range(1, n + 1)
    pairs = list(product(rng, repeat=2))
    row_nz = {(A, B): [(f, e, x) for f, e in pairs if (x := R.entry(A, f, B, e))]
              for A, B in pairs}
    col_nz = {(C, D): [(r, s, x) for r, s in pairs if (x := R.entry(s, C, r, D))]
              for C, D in pairs}
    for A, B, C, D in product(rng, repeat=4):
        row = {}
        for f, e, x in row_nz[A, B]:
            if (p[A] * p[B] + p[C] * p[e]) % 2:
                x = -x
            w = (gname(f, C), gname(e, D))
            row[w] = row.get(w, ZERO) + x
        for r, s, x in col_nz[C, D]:
            if (p[C] * p[D] + p[r] * p[A]) % 2:
                x = -x
            w = (gname(B, r), gname(A, s))
            row[w] = row.get(w, ZERO) - x
        row = {w: c for w, c in row.items() if c}
        if row:
            yield row


def frt_relation_check(R: RMatrix, L1: OperatorMatrix, L2: OperatorMatrix = None) -> CheckReport:
    """Check R L2 L1 = L1 L2 R entrywise for a pair of generator matrices.

    Call once per relation family, e.g. (l+, l+), (l+, l-), (l-, l-).  The
    graded sign factors are taken from R's index grading; a bosonic R gives
    the ungraded relations.
    """
    L2 = L1 if L2 is None else L2
    pres = L1.pres
    rep = CheckReport(f"frt[{L1.label},{L2.label}]")
    for idx, res in _envelope_residuals(
            R, L1.entry, L2.entry,
            lambda u, v: u + v, lambda u, v: u * v,
            lambda c, u: u * c, pres.zero):
        rep.record(not res, (idx, str(res)))
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
    rel = [(row, {}) for row in _function_rows(R, gname)]
    label = name or (f"ar-{R.name}" if R.name else "ar")
    return compile_relations(gens, rel, name=label)


def ar_hopf(R: RMatrix) -> HopfData:
    """A(R) with the matrix coproduct t -> t (x) t (bialgebra, no antipode);
    the generator grid is read row-major from build_ar's generators."""
    pres = build_ar(R)
    n = R.n
    names = [[g.name for g in pres.gens[i * n:(i + 1) * n]] for i in range(n)]
    mode = SUPER if any(R.p) else BOSONIC
    delta, eps = {}, {}
    for i in range(n):
        for j in range(n):
            g = names[i][j]
            delta[g] = TensorElement(
                pres, 2,
                {((names[i][k],), (names[k][j],)): ONE for k in range(n)}, mode)
            eps[g] = ONE if i == j else Scalar(0)
    return HopfData(pres, delta, eps, None, mode=mode)


def matrix_coproduct_check(L: OperatorMatrix, h: HopfData) -> CheckReport:
    """Delta(L_ij) = sum_k L_ik (x) L_kj for a matrix over h's presentation."""
    rep = CheckReport(f"matrix-coproduct[{L.label}]")
    n = L.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lhs = coproduct(L.entry(i, j), h)
            rhs = sum((outer(L.entry(i, k), L.entry(k, j), h.mode) for k in range(1, n + 1)),
                      zero(h.pres, 2, h.mode))
            rep.record(lhs == rhs, ((i, j), str(lhs - rhs)))
    return rep


# -- antipode and determinant ---------------------------------------------

def antipode_matrix_check(t: OperatorMatrix, s_t: OperatorMatrix) -> CheckReport:
    """t S(t) = S(t) t = identity, entrywise by rewriting."""
    pres = t.pres
    rep = CheckReport(f"antipode-matrix[{t.label}]")
    n = t.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            want = pres.one() if i == j else pres.zero()
            left = sum((t.entry(i, k) * s_t.entry(k, j) for k in range(1, n + 1)),
                       pres.zero())
            right = sum((s_t.entry(i, k) * t.entry(k, j) for k in range(1, n + 1)),
                        pres.zero())
            rep.record(left == want, (("t.St", i, j), str(left - want)))
            rep.record(right == want, (("St.t", i, j), str(right - want)))
    return rep


def antipode_matrix(t: OperatorMatrix) -> OperatorMatrix:
    """The 2x2 inverse matrix for a quantum matrix with nilpotent b, c.

    S(t) = (1 - t0^-1 t1 + (t0^-1 t1)^2) t0^-1 with t0 the diagonal part;
    the series truncates because the off-diagonal entries square to zero.
    """
    if t.n != 2:
        raise ValueError("closed form implemented for 2x2 matrices")
    a, b, c, d = t.entry(1, 1), t.entry(1, 2), t.entry(2, 1), t.entry(2, 2)
    try:
        ai, di = try_invert(a), try_invert(d)
    except Exception as exc:
        raise NoInverses(str(exc)) from exc
    return OperatorMatrix(t.pres, [
        [ai + ai * b * di * c * ai, -(ai * b * di)],
        [-(di * c * ai), di + di * c * ai * b * di],
    ], label=f"S({t.label})" if t.label else "S(t)", grading=t.p)


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
    return coproduct(e, h) == outer(e, e, h.mode)


def qdet_check(h: HopfData) -> CheckReport:
    """Determinant properties for a 2x2 matrix Hopf algebra.

    Bosonic case: D commutes with the diagonal generators, anticommutes
    with the off-diagonal ones, and D^2 is central; D and D^2 are both
    group-like.  Graded case: D is the superdeterminant, central outright.
    """
    pres = h.pres
    t = OperatorMatrix(pres, [[pres.gen("a"), pres.gen("b")],
                              [pres.gen("c"), pres.gen("d")]], label="t",
                       grading=(0, 1) if h.mode == SUPER else None)
    det = qdet(t)
    rep = CheckReport(f"qdet[{h.name}]")
    if h.mode == SUPER:
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


@lru_cache(maxsize=None)
def _two_family_presentation(key: str):
    """Two super-commuting copies of the 2x2 matrix algebra fa_presentation(key)."""
    base = fa_presentation(key)
    t1, t2 = (base.derive(rename={g.name: g.name + tag for g in base.gens}) for tag in "12")
    return tensor(t1, t2, base.name + "-x2")


def qdet_multiplicative_check(key: str = "ac") -> CheckReport:
    """D(t t') = D(t) D(t') for two super-commuting copies of the matrix
    algebra; t, t' and tt' carry the grading (0, 1) when b is odd."""
    pres = _two_family_presentation(key)
    rep = CheckReport(f"qdet-mult[{key}]")
    grading = (0, 1) if pres.by_name["b1"].degree else None

    def fam(tag):
        return OperatorMatrix(pres, [[pres.gen("a" + tag), pres.gen("b" + tag)],
                                     [pres.gen("c" + tag), pres.gen("d" + tag)]],
                              label="t" + tag, grading=grading)

    t1, t2 = fam("1"), fam("2")
    prod = OperatorMatrix(pres, [
        [sum((t1.entry(i, k) * t2.entry(k, j) for k in (1, 2)), pres.zero())
         for j in (1, 2)] for i in (1, 2)], label="tt'", grading=grading)
    rep.record(qdet(prod) == qdet(t1) * qdet(t2), ("multiplicative", key))
    return rep


# -- duality pairing -------------------------------------------------------

def pairing_matrices(R: RMatrix):
    """Canonical duality pairing: the n x n scalar matrices of l+/l- entries.

    plus[k][l][i][j] = <.., l+ entry (k,l)> = R^i_j^k_l and minus is the same
    from R^-1: the plain representation matrices of the l+/l- entries.  The
    right-action convention of the pairing would add, for graded R, the sign
    (-1)^{p(j)(p(k)+p(l))} to plus and (-1)^{p(k)(p(i)+p(j))} to minus.
    """
    n = R.n
    rinv = R.inverse_matrix()
    plus = [[smat.zeros(n) for _ in range(n)] for _ in range(n)]
    minus = [[smat.zeros(n) for _ in range(n)] for _ in range(n)]
    for k, l in product(range(1, n + 1), repeat=2):
        for i, j in product(range(1, n + 1), repeat=2):
            plus[k - 1][l - 1][i - 1][j - 1] = R.entry(i, j, k, l)
            minus[k - 1][l - 1][i - 1][j - 1] = rinv[(k - 1) * n + i - 1][(l - 1) * n + j - 1]
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
        for idx, res in _envelope_residuals(
                R, lambda i, j: m1[i - 1][j - 1], lambda i, j: m2[i - 1][j - 1],
                smat.madd, smat.mmul, smat.smul, lambda: smat.zeros(n)):
            rep.record(smat.is_zero(res), ((tag,) + idx,))
    return rep


# -- the catalog ansatz matrices ------------------------------------------

def ansatz(which: str):
    """The l+/l- (m+/m-) generator matrices realizing the exchange relations.

    which: "standard" or "omega" over the bosonic enveloping presentation,
    "super" or "super-omega" over the graded one.  Returns (plus, minus).
    The group-like letters are K1 = q^(H1/2), K2 = g q^(H2/2), g; in the
    graded case qh = K1 K2 g and qN = g K2.
    """
    q = qvar()
    w = q - ONE / q
    graded = which in ("super", "super-omega")
    pres = uq_presentation(graded=True) if graded else uq_presentation()
    z = pres.zero()

    def m(word, coeff=ONE):
        return pres.monomial(word, coeff)

    grading = (0, 1) if graded else None
    if which == "standard":
        plus = [[m(("K1",)), z], [m(("Xp",), w), m(("K2i",))]]
        minus = [[m(("K1i",)), m(("Xm",), -w)], [z, m(("K2",))]]
    elif which == "omega":
        plus = [[m(("K1", "K2i", "g")), z],
                [m(("K1", "Xp"), w), m(("K1", "K2i"))]]
        minus = [[m(("K1i", "K2i", "g")), m(("K2i", "g", "Xm"), -w)],
                 [z, m(("K1", "K2"))]]
    elif which == "super":
        plus = [[m(("K1",)), z], [m(("Xp",), w), m(("K2i", "g"))]]
        minus = [[m(("K1i",)), m(("Xm", "g"), -w)], [z, m(("g", "K2"))]]
    elif which == "super-omega":
        plus = [[m(("K1", "K2i", "g")), z],
                [m(("K1", "Xp"), w), m(("K1", "K2i", "g"))]]
        minus = [[m(("K1i", "K2i", "g")), m(("K2i", "Xm"), w)],
                 [z, m(("K1", "K2", "g"))]]
    else:
        raise KeyError(f"unknown ansatz {which!r}")
    return (OperatorMatrix(pres, plus, label="plus", grading=grading),
            OperatorMatrix(pres, minus, label="minus", grading=grading))
