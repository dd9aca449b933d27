"""Built-in catalog of presentations and Hopf data.

One enveloping-type algebra in two Hopf guises (standard and twisted) and
its super counterparts, each written once, as the l+/l- generator matrices
of ansatz that realize its FRT exchange relations, off which _uq_hopf reads
the coproduct and antipode of X+-; and the four 2x2 matrix function algebras
that the verification suites exercise.  Exponential generators never appear: the
catalog works with the group-likes K1 = q^(H1/2), K2 = g q^(H2/2) and the
involution g, in which every structure map of interest is a finite word.
The function algebras are A(R) of catalog R-matrices, built by
frt.build_ar, with the inverses ai, di of the diagonal generators adjoined.
theta_iso_for checks Theorem 4.1 on A(R) and A(superize_r(R, p)), with the
Z2 grading and the twist t_ij -> t_ij g^(p_j) derived from p alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .frt import OperatorMatrix, build_ar, matrix_coalgebra_data
from .gtensor import TensorElement
from .hopfcore import (HopfData, grouplike_data, superize, theta_iso_check, try_invert,
                       try_invert_tensor, z2_extend)
from .ncalg import (ConfluenceFailure, GeneratorSymbol, Presentation, compile_relations,
                    overlap_check)
from .report import CheckReport
from .rmatlab import catalog
from .scalars import ONE, Scalar, qvar

HALF = Scalar(Fraction(1, 2))


# -- enveloping side -------------------------------------------------------

def uq_presentation(graded: bool = False) -> Presentation:
    """K1, K2 invertible, g involutive, X+ and X- nilpotent.

    Bosonic by default; graded=True assigns odd degree to X+- (the same
    rules, reread as a superalgebra).
    """
    return _uq_presentation(bool(graded))


@lru_cache(maxsize=None)
def _uq_presentation(graded: bool) -> Presentation:
    q = qvar()
    d = 1 if graded else 0
    gens = [
        GeneratorSymbol("K1i", inverse="K1"),
        GeneratorSymbol("K1", inverse="K1i"),
        GeneratorSymbol("K2i", inverse="K2"),
        GeneratorSymbol("K2", inverse="K2i"),
        GeneratorSymbol("g", inverse="g"),
        GeneratorSymbol("Xp", degree=d, nilpotent=True),
        GeneratorSymbol("Xm", degree=d, nilpotent=True),
    ]
    rel = []
    ks = ["K1i", "K1", "K2i", "K2"]
    for hi in ["K2i", "K2"]:
        for lo in ["K1i", "K1"]:
            rel.append(({(hi, lo): ONE}, {(lo, hi): ONE}))
    for k in ks:
        rel.append(({("g", k): ONE}, {(k, "g"): ONE}))
    comm = {("Xp", "K1"): ONE / q, ("Xp", "K1i"): q,
            ("Xm", "K1"): q, ("Xm", "K1i"): ONE / q,
            ("Xp", "K2"): -q, ("Xp", "K2i"): -ONE / q,
            ("Xm", "K2"): -ONE / q, ("Xm", "K2i"): -q}
    for (x, k), c in comm.items():
        rel.append(({(x, k): ONE}, {(k, x): c}))
    for x in ["Xp", "Xm"]:
        rel.append(({(x, "g"): ONE}, {("g", x): -ONE}))
    c = ONE / (q - ONE / q)
    rel.append(({("Xm", "Xp"): ONE},
                {("Xp", "Xm"): ONE, ("K1", "K2"): -c, ("K1i", "K2i"): c}))
    name = "uq-super" if graded else "uq"
    return compile_relations(gens, rel, name=name)


# the ansatz that each Hopf structure on the enveloping algebra is read off
_ANSATZ = {"uq": "standard", "uq-omega": "omega", "uqgl11": "super", "uqgl11-omega": "super-omega"}


def _ansatz_entry(mat, i, j, x=None):
    """mat's (i, j) entry c W1 x W2, with W1 and W2 group-like words, as (W1, W2); for x
    None, a group-like word W1 with c = 1.  ValueError names an entry of another shape."""
    terms = list(mat.entry(i, j).terms.items())
    word, c = terms[0] if len(terms) == 1 else ((), None)
    k = word.index(x) if x in word else len(word)
    if c is None or (x is None and c != ONE) or (x and k == len(word)) or any(
            mat.pres.by_name[y].inverse is None for y in word[:k] + word[k + 1:]):
        raise ValueError(f"ansatz {mat.label} entry ({i},{j}) = {mat.entry(i, j)} is not "
                         + (f"c W1 {x} W2" if x else "a group-like word"))
    return word[:k], word[k + 1:]


@lru_cache(maxsize=None)
def _uq_hopf(name) -> HopfData:
    """Structure ``name`` read off its ansatz by FRT's Delta L = L (x) L, S L = L^-1:
    K1, K2, g group-like, x = X+ (X-) from l+_21 (l-_12) = c W1 x W2 and a = l_ii, d = l_jj,
    Delta x = x (x) W1^-1 d W2^-1 + W1^-1 a W2^-1 (x) x, S x = -W2 a^-1 W1 x W2 d^-1 W1."""
    plus, minus = ansatz(_ANSATZ[name])
    pres = plus.pres
    delta, eps, spo = grouplike_data(pres, ["K1i", "K1", "K2i", "K2", "g"])
    for x, mat, i, j in (("Xp", plus, 2, 1), ("Xm", minus, 1, 2)):
        (w1, w2), (a, _), (d, _) = (_ansatz_entry(mat, *e) for e in ((i, j, x), (i, i), (j, j)))
        v1, v2, va, vd = (tuple(pres.by_name[y].inverse for y in w[::-1]) for w in (w1, w2, a, d))
        delta[x] = TensorElement(pres, 2, {((x,), v1 + d + v2): ONE, (v1 + a + v2, (x,)): ONE})
        eps[x] = Scalar(0)
        spo[x] = pres.monomial(w2 + va + w1 + (x,) + w2 + vd + w1, -ONE)
    return HopfData(pres, delta, eps, spo, g="g", name=name)


def uq_hopf() -> HopfData:
    """The standard Hopf structure on the catalog enveloping algebra."""
    return _uq_hopf("uq")


def uq_omega_hopf() -> HopfData:
    """Twisted coproduct and antipode on the same algebra."""
    return _uq_hopf("uq-omega")


def uqgl11_hopf() -> HopfData:
    """The super-Hopf algebra on the graded presentation: in the even/odd
    generator dictionary qh = K1 K2 g, qN = g K2 its odd pair is X+ and X- g."""
    return _uq_hopf("uqgl11")


def uqgl11_omega_hopf() -> HopfData:
    """Twisted super coproduct and antipode on the graded presentation."""
    return _uq_hopf("uqgl11-omega")


def uq_casimirs():
    """The group-like square (K1 K2)^2 and the quadratic central element."""
    pres = uq_presentation()
    q = qvar()
    c1sq = pres.monomial(("K1", "K1", "K2", "K2"))
    c2 = pres.monomial(("Xp", "Xm")) \
        + pres.monomial(("K1", "K2"), -HALF / (q - ONE / q)) \
        + pres.monomial(("K1i", "K2i"), HALF / (q - ONE / q))
    return c1sq, c2


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


# -- function algebra side -------------------------------------------------

# the catalog R-matrix of each function algebra
_FA_R = {"ac": "ac", "gl11": "super_ac", "omega": "omega", "gl11omega": "super_omega"}
FA_GRID = (("a", "b"), ("c", "d"))


@lru_cache(maxsize=None)
def fa_presentation(key: str, inverses: bool = True) -> Presentation:
    """2x2 quantum matrix algebra A(R) of the catalog R-matrix for key.

    The generator grid is a b / c d.  With inverses=True the generators ai,
    di are adjoined (see adjoin_inverses for the induced rules).
    """
    if inverses:
        return adjoin_inverses(fa_presentation(key, inverses=False))
    if key not in _FA_R:
        raise KeyError(f"unknown function algebra {key!r}")
    return build_ar(catalog(_FA_R[key]), names=FA_GRID, name=f"fa-{key}")


class NotQuantumMatrix(ValueError):
    """A presentation without the rules that adjoin_inverses conjugates."""


def _q_rule(pres, lhs, lead="", extra=""):
    """pres's rule ``lhs -> p lead`` with p != 0, ``lhs -> lead + t extra``
    when ``extra`` is given, or ``lhs -> 0`` when ``lead`` is empty, as its
    dict; else NotQuantumMatrix, naming the rule.  A word is spelled one
    letter per generator."""
    rule = pres.rules.get(tuple(lhs))
    p = rule.get(tuple(lead)) if rule else None
    if (rule != {}) if not lead else (
            not p or not set(rule) <= {tuple(lead), tuple(extra or lead)} or (extra and p != ONE)):
        w = " ".join
        want = f"{w(lead)} + t {w(extra)}" if extra else f"p {w(lead)}" if lead else "0"
        has = f"no rule for {w(lhs)}" if rule is None else \
            f"{w(lhs)} -> " + (" + ".join(w(x) or "1" for x in rule) or "0")
        raise NotQuantumMatrix(f"{pres.name or 'unnamed'} needs {w(lhs)} -> {want}, has {has}")
    return rule


def adjoin_inverses(pres: Presentation) -> Presentation:
    """Adjoin ai, di to a 2x2 quantum matrix presentation.

    The q-commutation rules for the inverses follow by conjugating the
    defining ones; the three rules involving both d-side and a-side
    inverses pick up correction terms with a factor b c that grow word
    length, so they are flagged unoriented.  No reduction order orients
    them: rewriting di di ai at its rightmost di ai by the correction term
    ai ai b c di di, again and again, never stops, each step adding four
    letters and one b.  Whether leftmost rewriting terminates is not
    proved, so it rests on the step cap, and so does the overlap check,
    which runs here, as the presentation is built: ConfluenceFailure names
    the first three overlaps that fail, as in compile_relations.  Raises
    NotQuantumMatrix unless pres has the rules b a -> p a b, c a -> p a c,
    d b -> p b d and d c -> p c d, each with its own p != 0, and
    d a -> a d + t b c; and, when t != 0, b b -> 0 and c c -> 0.  A(std_gl(2))
    has neither, and 4 of the 32 overlaps of its inverse rules run into a step
    cap of 20,000.
    """
    p_ba = _q_rule(pres, "ba", "ab")[("a", "b")]
    p_ca = _q_rule(pres, "ca", "ac")[("a", "c")]
    r_db = _q_rule(pres, "db", "bd")[("b", "d")]
    r_dc = _q_rule(pres, "dc", "cd")[("c", "d")]
    t = _q_rule(pres, "da", "ad", "bc").get(("b", "c"), Scalar(0))
    if t:
        _q_rule(pres, "bb")
        _q_rule(pres, "cc")
    old = {g.name: g for g in pres.gens}
    gens = [
        GeneratorSymbol("ai", inverse="a"),
        GeneratorSymbol("a", inverse="ai"),
        old["b"], old["c"],
        GeneratorSymbol("di", inverse="d"),
        GeneratorSymbol("d", inverse="di"),
    ]
    out = pres.derive(gens=gens, name=pres.name + "-inv", rules=[
        (("b", "ai"), {("ai", "b"): ONE / p_ba}, False),
        (("c", "ai"), {("ai", "c"): ONE / p_ca}, False),
        (("di", "b"), {("b", "di"): ONE / r_db}, False),
        (("di", "c"), {("c", "di"): ONE / r_dc}, False),
        (("d", "ai"), {("ai", "d"): ONE, ("ai", "ai", "b", "c"): -t / (p_ba * p_ca)}, True),
        (("di", "a"), {("a", "di"): ONE, ("b", "c", "di", "di"): -t / (r_db * r_dc)}, True),
        (("di", "ai"), {("ai", "di"): ONE,
                        ("ai", "ai", "b", "c", "di", "di"): t / (p_ba * p_ca * r_db * r_dc)},
         True),
    ])
    rep = overlap_check(out)
    if not rep.ok:
        raise ConfluenceFailure(f"{out.name}: {rep.failures[:3]}")
    return out


@lru_cache(maxsize=None)
def fa_hopf(key: str) -> HopfData:
    """Matrix coproduct Hopf data on fa_presentation(key, inverses=True)."""
    pres = fa_presentation(key)
    delta, eps = matrix_coalgebra_data(pres, FA_GRID)
    delta["ai"] = try_invert_tensor(delta["a"])
    delta["di"] = try_invert_tensor(delta["d"])
    eps["ai"] = eps["di"] = ONE
    spo = {
        "a": pres.word("ai") + pres.word("ai", "b", "di", "c", "ai"),
        "b": -pres.word("ai", "b", "di"),
        "c": -pres.word("di", "c", "ai"),
        "d": pres.word("di") + pres.word("di", "c", "ai", "b", "di"),
    }
    spo["ai"] = try_invert(spo["a"])
    spo["di"] = try_invert(spo["d"])
    return HopfData(pres, delta, eps, spo, name=f"fa-{key}")


def theta_map(src_pres: Presentation, tgt: HopfData, col_parity: dict) -> dict:
    """Generator images x -> x g^(column parity) for the twist isomorphism.

    src_pres and the target presentation must share generator names; the
    distinguished g of the target maps to itself, and every other generator
    needs a column parity (KeyError otherwise).
    """
    g = tgt.pres.gen(tgt.g)
    return {x: tgt.pres.gen(x) * g if x != tgt.g and col_parity[x] % 2 else tgt.pres.gen(x)
            for x in src_pres.by_name}


def theta_iso_for(h: HopfData, hbar: HopfData, names, p) -> CheckReport:
    """Theorem 4.1 for h = A(R), hbar = A(Rbar), Rbar = superize_r(R, p): superize(A(R)
    x| Z2) = A(Rbar) x| Z2 via t_ij -> t_ij g^(p_j), by theta_iso_check.  names[i][j]
    is t_ij in both; t_ij has parity p_i + p_j, and an adjoined inverse takes its
    partner's parity and column."""
    parity, col = {}, {}
    for i, row in enumerate(names):
        for j, x in enumerate(row):
            parity[x], col[x] = (p[i] + p[j]) % 2, p[j]
    for gs in h.pres.gens:
        if gs.name not in parity and gs.inverse in parity:
            parity[gs.name], col[gs.name] = parity[gs.inverse], col[gs.inverse]
    aR, aRbar = superize(z2_extend(h, parity)), z2_extend(hbar, parity)
    return theta_iso_check(aR, aRbar, theta_map(aR.pres, aRbar, col),
                           theta_map(aRbar.pres, aR, col))
