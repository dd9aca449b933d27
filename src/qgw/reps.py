"""Two-dimensional representations and evaluated universal R-matrices.

The catalog enveloping algebra has a family of 2-dimensional irreducibles
labelled by a pair of weights.  On integer labels every Cartan exponential
in the universal R-matrix, the ribbon element and the twisting cocycle has
even integer eigenvalue exponents, so all of them evaluate to exact +-q^k
diagonal matrices and every identity can be checked with no numerics.

Each representation is verified by specialization.  The generators'
matrices are Laurent polynomials in the weights lam1 and lam2 over Q(q),
and the rewrite rules' coefficients lie in Q(q), so a rule that holds on
the symbolic weights holds at every pair of invertible weights: the
substitution lam1 -> l1, lam2 -> l2 is a ring map.  So each family,
ungraded or graded with g-sign 1 or -1, is checked against every rule once
per process, on lam1 and lam2 (_verify_family), before its first Rep is
returned, and every Rep, integer or symbolic, is an image of that one.

FAMILIES is where the four families ("standard", "omega", "super",
"super-omega") are written: each pairs a Hopf structure of algebras (read
off its l+/l- ansatz) with its universal R-matrix, given by
the tail legs e1, e2 and the Cartan form of its prefactor.  The omega forms
are the cocycle twists of the standard ones and the super forms live over
the graded presentation.  Every diagonal matrix here (an R prefactor, the
twisting cocycle, the ribbon prefactor and cross term) is a row of that
one form table, data that _weight_diag evaluates over a product basis.  A
Rep is a leg of an evaluation as it is; _ev_tensor makes the tensor
product of two legs through a coproduct.

Every matrix here is in row form (smat): a Rep keeps the matrix of each
word it meets, and its evaluate sums an Element's image from those
(smat.lincomb); the image on a tensor product is the sum of the graded
Kronecker products of its legs' images (smat.kron_rows).  The one
dense grid is the entry grid of the RMatrix that universal_r_eval returns.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import index, mul
from typing import Callable, NamedTuple

from . import smat
from .algebras import uq_hopf, uq_omega_hopf, uqgl11_hopf, uqgl11_omega_hopf, \
    uq_presentation
from .hopfcore import antipode, coproduct, counit
from .ncalg import Element
from .report import CheckReport
from .rmatlab import RMatrix, flip_index
from .scalars import ONE, ZERO, Scalar, indet, qvar, sign_pow


class DegenerateLabel(ValueError):
    pass


class NonIntegerLabel(TypeError):
    pass


class NoIntertwiner(ArithmeticError):
    pass


class _Form(NamedTuple):
    """A Cartan form (Q, S), two integer 2x2 matrices: its value at the
    weights a = (h1a, h2a) and b = (h1b, h2b) of two basis vectors is
    (-1)^(a S b / 4) q^(a Q b / 4), with no sign when S is None."""
    Q: tuple
    S: tuple | None = None

    @lru_cache(maxsize=1 << 12)  # a form's values repeat over the checks of a run
    def at(self, a, b):
        def pair(m):  # a m b / 4, an integer as the weights are even
            return (a[0] * (m[0][0] * b[0] + m[0][1] * b[1])
                    + a[1] * (m[1][0] * b[0] + m[1][1] * b[1])) // 4
        value = qvar() ** pair(self.Q)
        return value if self.S is None else sign_pow(pair(self.S)) * value


class _Family(NamedTuple):
    """A universal R-matrix (the Cartan prefactor times 1 + (1 - q^2) e1 (x) e2)
    and the Hopf structure it belongs to.  tail1 and tail2 list the words
    whose product is e1 and e2; form is the prefactor's Cartan form on the
    weights of the two legs."""
    hopf: Callable
    tail1: tuple
    tail2: tuple
    form: _Form


_SIGN = ((0, 0), (0, 1))  # (-1)^(h2a h2b / 4)

# the form table: the four families' prefactors, the twisting cocycle chi =
# q^(H2 (x) (H1 + H2) / 4) and its flip chi21, and the ribbon element's
# prefactor (on one leg: its value at b = a) and the cross term of its coproduct
FAMILIES = {
    "standard": _Family(uq_hopf, (("K2", "Xp"),), (("K2i", "Xm"),),
                        _Form(((1, 0), (0, -1)), _SIGN)),
    "omega": _Family(uq_omega_hopf, (("K2", "Xp"),), (("K2i", "g", "K1i"), ("K2i", "Xm")),
                     _Form(((1, 1), (-1, -1)), _SIGN)),
    "super": _Family(uqgl11_hopf, (("g", "K2", "Xp"),), (("K2i", "g"), ("Xm", "g")),
                     _Form(((0, -1), (-1, -2)))),
    "super-omega": _Family(uqgl11_omega_hopf, (("g", "K2", "Xp"),),
                           (("K2i", "K2i", "K1i"), ("Xm", "g")), _Form(((0, 0), (-2, -2)))),
}
_CHI = _Form(((0, 0), (1, 1)))
_CHI21 = _Form(((0, 1), (0, 1)))
_RIBBON = _Form(((-1, 0), (0, 1)), _SIGN)
_RIBBON_CROSS = _Form(((-2, 0), (0, 2)))


class RepLabel:
    """Weight pair (m1, m2) or a symbolic pair of invertible scalars.

    Integer labels set lam1 = q^m1 and lam2 = (-1)^m2 q^m2.  The label is
    degenerate (the representation fails to be irreducible) exactly when
    (lam1 lam2)^2 = 1; construction refuses that case.
    """

    def __init__(self, m1, m2):
        try:
            self.m1, self.m2 = index(m1), index(m2)
        except TypeError:
            raise NonIntegerLabel(f"weights must be integers, got ({m1!r}, {m2!r})") from None
        q = qvar()
        self.lam1 = q ** self.m1
        self.lam2 = sign_pow(self.m2) * q ** self.m2
        self.gsign = sign_pow(self.m2)
        self._guard()

    @classmethod
    def symbolic(cls, lam1, lam2, gsign=ONE):
        """The label of the invertible weights lam1 and lam2; DegenerateLabel
        for a g-sign other than 1 or -1, since g squares to 1."""
        lab = object.__new__(cls)
        lab.m1 = lab.m2 = None
        lab.lam1, lab.lam2 = Scalar(lam1), Scalar(lam2)
        lab.gsign = Scalar(gsign)
        if lab.gsign != ONE and lab.gsign != -ONE:
            raise DegenerateLabel(f"g-sign {lab.gsign} is not 1 or -1")
        lab._guard()
        return lab

    @property
    def integral(self):
        return self.m1 is not None

    def _guard(self):
        if not (self.lam1 and self.lam2):
            raise DegenerateLabel(f"a weight of {self} is 0, which is not invertible")
        if (self.lam1 * self.lam2) ** 2 == ONE:
            raise DegenerateLabel(f"(lam1 lam2)^2 = 1 at {self}")

    def __eq__(self, other):
        if not isinstance(other, RepLabel):
            return NotImplemented
        return (self.lam1 == other.lam1 and self.lam2 == other.lam2
                and self.gsign == other.gsign)

    def __repr__(self):
        if self.integral:
            return f"RepLabel({self.m1}, {self.m2})"
        return f"RepLabel.symbolic({self.lam1}, {self.lam2}, gsign={self.gsign})"


def _aslabel(lab):
    if isinstance(lab, RepLabel):
        return lab
    m1, m2 = lab
    return RepLabel(m1, m2)


def _diag(*entries):
    """The diagonal matrix of the nonzero ``entries``."""
    return [[(i, Scalar(x))] for i, x in enumerate(entries)]


def _images(l1, l2, gsc):
    """The generators' matrices at the weights l1, l2 and the g-sign gsc:
    Laurent polynomials in l1 and l2 over Q(q)."""
    q = qvar()
    c = (l1 * l2 - ONE / (l1 * l2)) / (q - ONE / q)
    return {
        "K1": _diag(l1, l1 / q), "K1i": _diag(ONE / l1, q / l1),
        "K2": _diag(l2, -q * l2), "K2i": _diag(ONE / l2, -ONE / (q * l2)),
        "g": _diag(gsc, -gsc),
        "Xp": [[(1, c)], []],
        "Xm": [[], [(0, ONE)]],
    }


class Rep:
    """A 2-dimensional representation, verified against every rewrite rule.

    Basis vectors carry Cartan weights: K1 acts by diag(lam1, lam1/q), K2
    by diag(lam2, -q lam2), and the involution by diag(1,-1) up to the
    overall sign (-1)^m2 on integer labels.  graded=True produces the same
    matrices over the graded presentation with basis parity (0, 1).

    The rules are not checked per label: a Rep is the image, under
    lam1 -> label.lam1 and lam2 -> label.lam2, of its family's Rep on the
    symbolic weights, which _verify_family checks once per process, before
    the first Rep of the family is returned (see the module docstring).
    """

    def __init__(self, label, graded=False):
        self._load(_aslabel(label), bool(graded))
        _verify_family(self.graded, self.label.gsign)

    def _load(self, label, graded):
        """Set the label, the presentation and the generators' images."""
        self.label, self.graded = label, graded
        self.pres = uq_presentation(graded=graded)
        self.images = _images(label.lam1, label.lam2, label.gsign)
        self.dim = 2
        self.p = (0, 1) if graded else (0, 0)
        # the matrix of each word met so far, built from its prefix's
        self._words = {(): smat.eye(self.dim),
                       **{(x,): m for x, m in self.images.items()}}

    @property
    def weights(self):
        """The Cartan weights (2 m1, 2 m2) and (2 m1 - 2, 2 m2 + 2) of the
        basis vectors; NonIntegerLabel on a symbolic label, which has none."""
        if not self.label.integral:
            raise NonIntegerLabel(f"{self.label} has no integer Cartan weights")
        m1, m2 = self.label.m1, self.label.m2
        return (2 * m1, 2 * m2), (2 * m1 - 2, 2 * m2 + 2)

    def _wmat(self, word):
        """The matrix of ``word``: its prefix's times the image of its last
        letter, each word once per Rep.  It is shared, so callers must not
        change it."""
        words = self._words
        k = len(word)
        while word[:k] not in words:
            k -= 1
        m = words[word[:k]]
        for k in range(k + 1, len(word) + 1):
            m = words[word[:k]] = smat.mmul(m, self.images[word[k - 1]])
        return m

    def _verify(self):
        """ValueError naming the first rewrite rule whose two sides have
        different matrices here, and the family of the Rep: the message is
        built without printing a weight, which would load sympy."""
        for lhs, rhs in self.pres.rules.items():
            if not smat.meq(self._wmat(lhs), smat.lincomb(
                    self.dim, ((c, self._wmat(w)) for w, c in rhs.items()))):
                raise ValueError(
                    f"rule {lhs} fails in the {'graded' if self.graded else 'ungraded'} "
                    f"representation family of g-sign {'+1' if self.label.gsign == ONE else '-1'}")

    def evaluate(self, e: Element):
        """The matrix of ``e``, a new one."""
        if e.pres is not self.pres:
            raise ValueError("element not over this representation's algebra")
        return smat.lincomb(self.dim, ((c, self._wmat(w)) for w, c in e.terms.items()))

    def __repr__(self):
        return f"Rep({self.label}, graded={self.graded})"


@lru_cache(maxsize=None)
def _verify_family(graded, gsign):
    """Check every rewrite rule on the Rep of the symbolic weights lam1 and
    lam2 with this g-sign: once per (graded, g-sign) in the process.
    ValueError naming the rule that fails."""
    rep = object.__new__(Rep)
    rep._load(RepLabel.symbolic(indet("lam1"), indet("lam2"), gsign), graded)
    rep._verify()


def rep_build(label, graded=False) -> Rep:
    """The verified representation at ``label``, a RepLabel or an (m1, m2)
    pair.  An integer label is built once per (m1, m2, graded) in the
    process, so the matrices of the words its checks evaluate are shared by
    every later check; callers must not change a Rep.  A symbolic label is
    built afresh on each call.  DegenerateLabel as RepLabel."""
    label = _aslabel(label)
    if not label.integral:
        return Rep(label, graded=graded)
    return _integer_rep(label.m1, label.m2, bool(graded))


@lru_cache(maxsize=None)
def _integer_rep(m1, m2, graded) -> Rep:
    return Rep((m1, m2), graded=graded)


# -- evaluation contexts ----------------------------------------------------

class _Ev(NamedTuple):
    """What R-matrix evaluation needs from a leg: dimension, Cartan weights
    per basis vector, basis parity, and an Element -> matrix map.  A Rep
    has all of them, so a Rep is a leg too."""
    dim: int
    weights: tuple
    p: tuple
    evaluate: Callable


def _tensor_matrix(t, a, b):
    """The matrix of the tensor element ``t`` on the Reps a (x) b: the sum
    over t's terms c w1 (x) w2 of c times the graded Kronecker product of
    the word matrices of w1 and w2, which are their images, as a Rep
    satisfies every rule."""
    pres = t.pres
    if pres is not a.pres or pres is not b.pres:
        raise ValueError("tensor element not over the representations' algebra")
    return smat.lincomb(a.dim * b.dim, (
        (c, smat.kron_rows(a._wmat(w1), b._wmat(w2), pres.degree(w2), a.p, b.dim))
        for (w1, w2), c in t.terms.items()))


def _ev_tensor(a, b, h) -> _Ev:
    """The tensor product representation of the Reps a and b through the
    coproduct of h."""
    weights = tuple((x1 + y1, x2 + y2) for x1, x2 in a.weights for y1, y2 in b.weights)
    p = tuple((x + y) % 2 for x in a.p for y in b.p)
    return _Ev(a.dim * b.dim, weights, p, lambda e: _tensor_matrix(coproduct(e, h), a, b))


def _weight_diag(evA, evB, form):
    """The diagonal matrix of ``form`` over the tensor basis of evA and evB:
    its value at the weights a and b of each pair of basis vectors."""
    return _diag(*[form.at(a, b) for a in evA.weights for b in evB.weights])


# -- the four R-matrix families --------------------------------------------

def _r_matrix(evA, evB, which):
    fam = FAMILIES[which]
    pres = fam.hopf().pres
    e1, e2 = (reduce(mul, (pres.word(*w) for w in words)) for words in (fam.tail1, fam.tail2))
    q = qvar()
    dim = evA.dim * evB.dim
    tail = smat.lincomb(dim, [(ONE, smat.eye(dim)), (ONE - q * q, smat.kron_rows(
        evA.evaluate(e1), evB.evaluate(e2), e2.degree(), evA.p, evB.dim))])
    # the prefactor D is diagonal: row i of D T is T's row i times D's entry
    return [[(j, d * x) for j, x in row]
            for ((_, d),), row in zip(_weight_diag(evA, evB, fam.form), tail)]


def universal_r_eval(lab1, lab2, which="standard") -> RMatrix:
    """The universal R-matrix in a pair of integer-labelled representations."""
    graded = FAMILIES[which].hopf().pres.graded
    r1 = rep_build(lab1, graded=graded)
    r2 = rep_build(lab2, graded=graded)
    m = _r_matrix(r1, r2, which)
    return RMatrix(2, smat.dense(m, len(m)), grading=(0, 1) if graded else None,
                   name=f"{which}@{r1.label},{r2.label}")


def quasitriangularity_check(lab1, lab2, lab3, which="standard") -> CheckReport:
    """Coproduct intertwining, both hexagon identities and the braid
    equation for the evaluated R-matrix on three integer labels."""
    fam = FAMILIES[which]
    h = fam.hopf()
    pres = h.pres
    evs = [rep_build(l, graded=pres.graded) for l in (lab1, lab2, lab3)]
    ev1, ev2, ev3 = evs
    rep = CheckReport(f"quasitriangular:{which}")

    r12 = _r_matrix(ev1, ev2, which)
    t12 = _ev_tensor(ev1, ev2, h)
    for gs in pres.gens:
        d = coproduct(pres.gen(gs.name), h)
        lhs = smat.mmul(_tensor_matrix(d.flip(), ev1, ev2), r12)
        rhs = smat.mmul(r12, _tensor_matrix(d, ev1, ev2))
        rep.record(smat.meq(lhs, rhs), ("intertwine", gs.name))

    dims = [e.dim for e in evs]
    ps = [e.p for e in evs]
    rows = (r12, _r_matrix(ev1, ev3, which), _r_matrix(ev2, ev3, which))
    r12e, r13, r23 = (smat.embed_rows(m, dims, ps, legs) for m, legs in zip(rows, smat.LEGS))
    t23 = _ev_tensor(ev2, ev3, h)
    rep.record(smat.meq(_r_matrix(t12, ev3, which), smat.mmul(r13, r23)),
               ("hexagon", "delta-leg1"))
    rep.record(smat.meq(_r_matrix(ev1, t23, which), smat.mmul(r13, r12e)),
               ("hexagon", "delta-leg2"))
    rep.record(smat.braid_holds(*smat.braid_legs(*rows, dims, ps)), ("braid", "three-legs"))
    return rep


# -- ribbon structure -------------------------------------------------------

def ribbon_data(label) -> dict:
    """Evaluated Drinfeld element u, its antipode image, the central square
    z = u S(u), the square-distinguishing group-like r and the ribbon nu."""
    r = rep_build(label)
    pres = r.pres
    q = qvar()
    w2 = ONE - q * q
    fe = pres.word("K2i", "Xm") * pres.word("K2", "Xp")
    ef = pres.word("K2", "Xp") * pres.word("K2i", "Xm")
    tail_u = pres.one() + pres.word("K1i", "K2i") * fe * w2
    tail_su = pres.one() + ef * pres.word("K1", "K2") * w2
    tail_z = pres.one() + (pres.word("K1", "K2") * ef
                           + pres.word("K1i", "K2i") * fe) * w2
    pref = _diag(*[_RIBBON.at(a, a) for a in r.weights])
    u = smat.mmul(pref, r.evaluate(tail_u))
    su = smat.mmul(pref, r.evaluate(tail_su))
    z = smat.mmul(smat.mmul(pref, pref), r.evaluate(tail_z))
    nu = smat.mmul(pref, r.evaluate(pres.word("K1", "K2") * tail_u))
    return {"rep": r, "pref": pref, "tail_u": tail_u, "u": u, "su": su,
            "z": z, "nu": nu, "r": r.evaluate(pres.word("K1i", "K1i", "K2i", "K2i"))}


def ribbon_check(label) -> CheckReport:
    """The ribbon axioms for nu and the properties of u, z and r at one
    integer label (both tensor legs carry the same label)."""
    data = ribbon_data(label)
    r = data["rep"]
    h = uq_hopf()
    pres = r.pres
    q = qvar()
    rep = CheckReport(f"ribbon:{r.label}")

    u, su, z, nu = data["u"], data["su"], data["z"], data["nu"]
    uinv = smat.inv(u)
    for gs in pres.gens:
        x = pres.gen(gs.name)
        conj = smat.mmul(smat.mmul(u, r.evaluate(x)), uinv)
        rep.record(smat.meq(conj, r.evaluate(antipode(antipode(x, h), h))),
                   ("u-implements-S2", gs.name))
        rep.record(smat.meq(smat.mmul(nu, r.evaluate(x)),
                            smat.mmul(r.evaluate(x), nu)),
                   ("nu-central", gs.name))
        s4 = antipode(antipode(antipode(antipode(x, h), h), h), h)
        rep.record(s4 == x, ("S4-identity", gs.name))

    rep.record(smat.meq(smat.mmul(u, su), z), ("z-is-uSu",))
    rep.record(smat.meq(smat.mmul(nu, nu), z), ("nu-squared",))
    rep.record(smat.meq(data["r"], _diag(*[q ** (-(h1 + h2)) for h1, h2 in r.weights])),
               ("r-grouplike-weights",))
    rep.record(smat.meq(smat.mmul(data["r"], r.evaluate(
        pres.word("K1", "K1", "K2", "K2"))), smat.eye(r.dim)),
        ("r-inverse-of-casimir-square",))

    # S(nu) = nu through the antihomomorphism; the diagonal prefactor is
    # S-invariant because the antipode negates both Cartan weights
    s_tail = antipode(pres.word("K1", "K2") * data["tail_u"], h)
    rep.record(smat.meq(smat.mmul(r.evaluate(s_tail), data["pref"]), nu),
               ("S-fixes-nu",))
    rep.record(counit(pres.word("K1", "K2") * data["tail_u"], h) == ONE,
               ("counit-nu",))

    # Delta nu = (R21 R)^-1 (nu (x) nu), both legs at this label
    rmat = _r_matrix(r, r, "standard")
    flip = flip_index(r.dim)
    r21 = [[(flip[j], x) for j, x in rmat[i]] for i in flip]  # P R P
    cross = _weight_diag(r, r, _RIBBON_CROSS)
    lhs = smat.mmul(smat.mmul(smat.kron_rows(data["pref"], data["pref"], 0, r.p, r.dim), cross),
                    _ev_tensor(r, r, h).evaluate(pres.word("K1", "K2") * data["tail_u"]))
    rhs = smat.mmul(smat.inv(smat.mmul(r21, rmat)), smat.kron_rows(nu, nu, 0, r.p, r.dim))
    rep.record(smat.meq(lhs, rhs), ("delta-nu",))
    return rep


# -- decomposition of tensor products --------------------------------------

def _summands(lab1, lab2):
    """The labels of the two summands of lab1 (x) lab2: the weights of
    e1 (x) e1, and of w (see tensor_decompose), one step lower in both
    Cartan weights and of the opposite g-sign."""
    q = qvar()
    return (RepLabel.symbolic(lab1.lam1 * lab2.lam1, lab1.lam2 * lab2.lam2,
                              gsign=lab1.gsign * lab2.gsign),
            RepLabel.symbolic(lab1.lam1 * lab2.lam1 / q, -q * lab1.lam2 * lab2.lam2,
                              gsign=-lab1.gsign * lab2.gsign))


def tensor_decompose(lab1=None, lab2=None):
    """Split the tensor product of two generic representations into two.

    Defaults to the fully symbolic pair (lam1, lam2) and (mu1, mu2).
    Returns the two summands' labels and an invertible intertwiner T with
    Delta(x) T = T (pi_1 + pi_2)(x) for every generator.  T is built from
    the summands' highest-weight vectors: e1 (x) e1, and w = b e1 (x) e2 -
    a e2 (x) e1, where Delta(Xp) sends e1 (x) e2 to a e1 (x) e1 and
    e2 (x) e1 to b e1 (x) e1, so that Delta(Xp) w = 0.  Its columns are
    e1 (x) e1, Delta(Xm)(e1 (x) e1), w and Delta(Xm) w.  Raises
    NoIntertwiner when T is singular or fails to intertwine a generator,
    which it names.
    """
    if lab1 is None:
        lab1 = RepLabel.symbolic(indet("lam1"), indet("lam2"))
    if lab2 is None:
        lab2 = RepLabel.symbolic(indet("mu1"), indet("mu2"))
    lab1, lab2 = _aslabel(lab1), _aslabel(lab2)
    out1, out2 = _summands(lab1, lab2)
    h = uq_hopf()
    pres = h.pres
    r1, r2 = Rep(lab1), Rep(lab2)
    t1, t2 = Rep(out1), Rep(out2)
    big = {gs.name: _tensor_matrix(coproduct(pres.gen(gs.name), h), r1, r2)
           for gs in pres.gens}

    a, b = (dict(big["Xp"][0]).get(j, ZERO) for j in (1, 2))
    w = [ZERO, b, -a, ZERO]
    t = []
    for i, row in enumerate(big["Xm"]):  # row i of T, entry by entry
        xm = dict(row)
        entries = (ONE if i == 0 else ZERO, xm.get(0, ZERO), w[i],
                   b * xm.get(1, ZERO) - a * xm.get(2, ZERO))
        t.append([(j, x) for j, x in enumerate(entries) if x])
    try:
        smat.check_invertible(t)
    except smat.Singular:
        raise NoIntertwiner("T is singular") from None
    for x, m in big.items():
        # pi_1(x) + pi_2(x), block diagonal
        blk = (t1.evaluate(pres.gen(x))
               + [[(j + 2, y) for j, y in row] for row in t2.evaluate(pres.gen(x))])
        if not smat.meq(smat.mmul(m, t), smat.mmul(t, blk)):
            raise NoIntertwiner(f"T fails to intertwine {x}")
    return out1, out2, t


# -- cocycle twisting -------------------------------------------------------

def twist_check(lab1, lab2, lab3, super_side=False) -> CheckReport:
    """The diagonal cocycle chi: counital 2-cocycle identity, conjugation
    of the coproduct, and the twisted R-matrix computed two ways."""
    which0, which1 = ("super", "super-omega") if super_side \
        else ("standard", "omega")
    h0, h1 = FAMILIES[which0].hopf(), FAMILIES[which1].hopf()
    pres = h0.pres
    evs = [rep_build(l, graded=super_side) for l in (lab1, lab2, lab3)]
    ev1, ev2, ev3 = evs
    rep = CheckReport(f"twist:{which1}")

    dims = [e.dim for e in evs]
    ps = [e.p for e in evs]
    t12 = _ev_tensor(ev1, ev2, h0)
    c12 = _weight_diag(ev1, ev2, _CHI)
    lhs = smat.mmul(smat.embed_rows(c12, dims, ps, (0, 1)), _weight_diag(t12, ev3, _CHI))
    rhs = smat.mmul(smat.embed_rows(_weight_diag(ev2, ev3, _CHI), dims, ps, (1, 2)),
                    _weight_diag(ev1, _ev_tensor(ev2, ev3, h0), _CHI))
    rep.record(smat.meq(lhs, rhs), ("cocycle",))

    c12i = smat.inv(c12)
    t12_twisted = _ev_tensor(ev1, ev2, h1)
    for gs in pres.gens:
        x = pres.gen(gs.name)
        twisted = smat.mmul(smat.mmul(c12, t12.evaluate(x)), c12i)
        rep.record(smat.meq(twisted, t12_twisted.evaluate(x)),
                   ("conjugated-coproduct", gs.name))

    r0 = _r_matrix(ev1, ev2, which0)
    r1m = _r_matrix(ev1, ev2, which1)
    c21 = _weight_diag(ev1, ev2, _CHI21)
    rep.record(smat.meq(r1m, smat.mmul(smat.mmul(c21, r0), c12i)),
               ("twisted-R",))
    return rep
