"""Quantum exterior algebras of Hecke type and their hidden symmetries.

Omega_q(R) is generated by coordinates x_1..x_n (even) and forms
dx_1..dx_n (odd) with exchange relations driven by a Hecke R-matrix:

    x_i x_j  =  1/q  x_b x_a R^a_i^b_j,
    dx_i x_j =    q  x_b dx_a R^a_i^b_j,
    dx_i dx_j = -q  dx_b dx_a R^a_i^b_j.

On the column vectors x and dx they are u1 v2 = f R^t v2 u1, whose rows
_exchange_rows reads off frt.relation_rows: ExteriorAlgebra compiles them,
and gl_coaction_check maps them to the coaction's images.
The module carries the exterior differential and implements two right
actions mixing x and dx: the bosonic one of the twisted enveloping algebra
(H1, H2, X+-) and the super one of its gl(1|1) counterpart (h, N, eta,
eta+).  Both are stored on generators, each actor's entry built by _entry,
and extended through the (super-)covariance identity, whose coproduct legs
act by scalars on generators.  The left coaction of the
2x2 super matrix quantum group on (x, dx) is checked by direct rewriting
in the graded tensor algebra.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .algebras import fa_presentation
from .frt import leg1, leg2, relation_rows, scalar_factor
from .ncalg import Element, GeneratorSymbol, compile_relations, linear, rule_residuals, tensor
from .report import CheckReport
from .rmatlab import RMatrix, hecke_check
from .scalars import ONE, qvar


class NotHecke(ValueError):
    pass


class UnknownActor(KeyError):
    pass


class ExteriorAlgebra:
    """Compiled presentation of Omega_q(R) for a Hecke R-matrix."""

    def __init__(self, R: RMatrix):
        if not hecke_check(R):
            raise NotHecke(f"{R.name or 'R'} fails the Hecke condition")
        self.R = R
        self.n = R.n
        self.name = f"omega({R.name or 'R'})"
        idx = range(1, self.n + 1)
        gens = [GeneratorSymbol(f"x{i}") for i in idx] + \
               [GeneratorSymbol(f"dx{i}", degree=1) for i in idx]
        self.pres = compile_relations(gens, [(row, {}) for *_, row in _exchange_rows(R)],
                                      name=self.name)
        self._check_differential()

    def x(self, i) -> Element:
        return self.pres.gen(f"x{i}")

    def dx(self, i) -> Element:
        return self.pres.gen(f"dx{i}")

    def _check_differential(self):
        """d must send every rewrite rule to zero, making it well defined."""
        for lhs, res in rule_residuals(self.pres, self._d_word, self.pres.zero()):
            if res:
                raise ValueError(f"differential not defined on rule {lhs}")

    def _d_word(self, w) -> Element:
        pres = self.pres
        out = pres.zero()
        sign = ONE
        for k, letter in enumerate(w):
            if not letter.startswith("dx"):
                out = out + pres.monomial(
                    w[:k] + ("d" + letter,) + w[k + 1:], sign)
            if pres.by_name[letter].degree:
                sign = -sign
        return out

    def differential(self, e: Element) -> Element:
        """The exterior derivative, by the graded Leibniz rule."""
        if e.pres is not self.pres:
            raise ValueError("element not over this exterior algebra")
        return linear(self._d_word, e.terms, self.pres.zero())

    def __repr__(self):
        return f"ExteriorAlgebra({self.name}, n={self.n})"


def _exchange_rows(R: RMatrix, mark=""):
    """(tag, i, j, row) of u_i v_j = f v_b u_a R^a_i^b_j for (u, v) = (x, x),
    (dx, x) and (dx, dx), as u1 v2 = f R^t v2 u1 on column vectors of
    letters, v's followed by ``mark``."""
    n, q = R.n, qvar()

    def rows(su, sv, f):
        rt = [[] for _ in range(n * n)]  # f R^t
        for i, pairs in enumerate(R.rows):
            for j, x in pairs:
                rt[j].append((i, f * x))
        u, v = ([[f"{s}{i}{m}"] for i in range(1, n + 1)] for s, m in ((su, ""), (sv, mark)))
        return relation_rows([leg1(u, n), leg2(v, (0,), (R.p, (0,)))],
                             [scalar_factor(rt), leg2(v, R.p, (R.p, (0,))), leg1(u, 1)], 1)

    kinds = zip(product(range(1, n + 1), repeat=2), rows("x", "x", ONE / q),
                rows("dx", "x", q), rows("dx", "dx", -q))
    return [(tag, i, j, row) for (i, j), *kind in kinds
            for tag, row in zip(("x-x", "dx-x", "dx-dx"), kind)]


def omega_build(R: RMatrix) -> ExteriorAlgebra:
    return ExteriorAlgebra(R)


# -- right actions ----------------------------------------------------------

class ActionTable:
    """Right action of a rank-one symmetry algebra on Omega_q(R).

    Every actor is skew-primitive: its coproduct is h (x) B + A (x) h with
    A, B acting on generators by scalars.  entries maps the actor name to
    its generator images, the two scalar legs, and its parity.
    """

    def __init__(self, omega: ExteriorAlgebra, tag, entries):
        self.omega = omega
        self.tag = tag
        self.entries = entries


def _entry(omega, x_to, dx_to, left=(ONE, ONE), right=(ONE, ONE), deg=0):
    """One actor of an ActionTable.  x_to and dx_to give the images of x_i
    and dx_i: None for zero, or (c, omega.x) for c x_i and (c, omega.dx) for
    c dx_i.  left and right are the scalar legs, each a pair (on every x_i,
    on every dx_i); deg is the actor's parity."""
    idx = range(1, omega.n + 1)

    def images(to, src):
        return {f"{src}{i}": to[1](i) * to[0] if to else omega.pres.zero() for i in idx}

    def legs(pair):
        return {f"{d}x{i}": c for i in idx for d, c in zip(("", "d"), pair)}

    return {"gen": images(x_to, "x") | images(dx_to, "dx"),
            "left": legs(left), "right": legs(right), "deg": deg}


def bosonic_action(omega: ExteriorAlgebra) -> ActionTable:
    """H1 and H2 act by weight (2 on x / 2 on dx respectively), X+ sends
    coordinates to forms and X- back, with the twisted coproduct legs."""
    q = qvar()
    entries = {
        "H1": _entry(omega, (2, omega.x), None),
        "H2": _entry(omega, None, (2, omega.dx)),
        "Xp": _entry(omega, (ONE / q, omega.dx), None, left=(ONE, -ONE / q), right=(ONE, ONE / q)),
        "Xm": _entry(omega, None, (q, omega.x), left=(ONE / q, ONE), right=(q, -q * q)),
    }
    return ActionTable(omega, "bosonic", entries)


def super_action(omega: ExteriorAlgebra) -> ActionTable:
    """h, N act by weight; the odd pair eta, eta+ exchanges x and dx with
    Koszul signs through the super-covariance identity."""
    q = qvar()
    entries = {
        "h": _entry(omega, (ONE, omega.x), (ONE, omega.dx)),
        "N": _entry(omega, None, (ONE, omega.dx)),
        "eta": _entry(omega, (ONE / q, omega.dx), None, left=(ONE, ONE / q), right=(ONE, ONE / q),
                      deg=1),
        "etap": _entry(omega, None, (q, omega.x), left=(ONE / q, ONE), right=(q, q * q), deg=1),
    }
    return ActionTable(omega, "super", entries)


def _act_word(table: ActionTable, entry, w) -> Element:
    pres = table.omega.pres
    if not w:
        return pres.zero()  # counit of every actor vanishes
    head, rest = w[0], w[1:]
    out = pres.monomial((head,), entry["left"][head]) \
        * _act_word(table, entry, rest)
    c = ONE
    for y in rest:
        c = c * entry["right"][y]
    t = entry["gen"][head] * pres.monomial(rest, c)
    if entry["deg"] and pres.degree(rest):
        t = -t
    return out + t


def act(e: Element, actor, table: ActionTable) -> Element:
    """Right action of a named generator, extended through covariance."""
    if actor not in table.entries:
        raise UnknownActor(actor)
    if e.pres is not table.omega.pres:
        raise ValueError("element not over this action's exterior algebra")
    return linear(partial(_act_word, table, table.entries[actor]), e.terms, e.pres.zero())


def covariance_check(table: ActionTable) -> CheckReport:
    """Every actor maps both sides of every defining rule to equal
    elements: the action descends to Omega_q(R)."""
    rep = CheckReport(f"covariance:{table.omega.name}:{table.tag}")
    pres = table.omega.pres
    for actor, entry in table.entries.items():
        for lhs, res in rule_residuals(pres, partial(_act_word, table, entry), pres.zero()):
            rep.record(not res, (actor, lhs))
    return rep


# -- matrix super-transformation -------------------------------------------

def gl_coaction_check(omega: ExteriorAlgebra) -> CheckReport:
    """The primed generators x' = alpha x + beta dx, dx' = gamma x + delta dx
    satisfy the Omega_q(R) relations inside the graded tensor algebra."""
    rep = CheckReport(f"gl-coaction:{omega.name}")
    gl = fa_presentation("gl11omega", inverses=False).derive(
        rename={"a": "al", "b": "be", "c": "ga", "d": "de"})
    pres = tensor(gl, omega.pres, f"glo(1|1)x{omega.name}")
    images = {}
    for s, a, b in (("x", "al", "be"), ("dx", "ga", "de")):
        for i in range(1, omega.n + 1):
            # v's letters, marked, too: no row sums a term of either side with one of the other
            images[f"{s}{i}"] = images[f"{s}{i}'"] = pres.word(a, f"x{i}") + pres.word(b, f"dx{i}")
    for tag, i, j, row in _exchange_rows(omega.R, "'"):
        res = linear(lambda w: images[w[0]] * images[w[1]], row, pres.zero())
        rep.record(not res, (tag, i, j))
    return rep
