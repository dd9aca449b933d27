"""Hopf and super-Hopf structure maps over presented algebras.

A HopfData carries generator images of the coproduct, counit and antipode;
the module extends them (anti)multiplicatively, checks the axioms by exact
rewriting, and implements the superization construction: given a group-like
involution g, the same algebra becomes a super-Hopf algebra with

    new_coproduct(h) = sum h1 * g^(-deg h2) (x) h2,
    new_antipode(h)  = g^(deg h) * S(h),

where the degree of a homogeneous element is read off from the adjoint
action g h g^-1 = (-1)^deg(h) h.  The inverse direction, adjoining g to an
algebra with a chosen index grading, is z2_extend: it resolves only the
overlaps that contain g, since those of the algebra's own rules never meet
g and were resolved when the algebra was built.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from .gtensor import TensorElement, _tensor, apply_to_leg, outer, unit, zero
from .ncalg import (Element, GeneratorSymbol, Presentation, linear, multiplicative, overlaps,
                    resolve_overlaps, rule_residuals)
from .report import CheckReport
from .scalars import ONE, ZERO, Scalar


class NoAntipode(Exception):
    pass


class NotInvolutive(Exception):
    pass


class NotGradedCentral(Exception):
    pass


class ActionNotCompatible(Exception):
    pass


class NotInvertible(Exception):
    pass


class HopfData:
    """Generator-level Hopf structure on a Presentation.

    delta maps generator names to arity-2 TensorElements, counit to Scalars,
    antipode (optional) to Elements.  The structure is super exactly when
    pres.graded: then the tensor square multiplies with Koszul signs and the
    antipode of a word carries the sign of reversing its odd letters.
    """

    def __init__(self, pres: Presentation, delta, counit, antipode=None, g=None, name=""):
        self.pres = pres
        self.g = g
        self.name = name or pres.name
        self.delta = dict(delta)
        self.counit_map = {k: Scalar(v) for k, v in counit.items()}
        self.antipode_map = dict(antipode) if antipode is not None else None
        for gsym in pres.gens:
            if gsym.name not in self.delta:
                raise KeyError(f"no coproduct image for generator {gsym.name}")
            if gsym.name not in self.counit_map:
                raise KeyError(f"no counit image for generator {gsym.name}")
            if self.antipode_map is not None and gsym.name not in self.antipode_map:
                raise KeyError(f"no antipode image for generator {gsym.name}")
        if g is not None and g not in pres.index:
            raise KeyError(f"group-like {g} is not a generator")

    def __repr__(self):
        return f"HopfData({self.name}, graded={self.pres.graded})"


def grouplike_data(pres, names):
    """Delta/counit/antipode entries for generators that are group-like.

    Covers a name and its inverse partner in one call; the antipode of a
    group-like is its inverse.
    """
    delta, eps, spo = {}, {}, {}
    for n in names:
        gsym = pres.by_name[n]
        x = pres.gen(n)
        delta[n] = outer(x, x)
        eps[n] = ONE
        inv = gsym.inverse
        if inv is None:
            raise ValueError(f"group-like {n} has no inverse partner")
        spo[n] = pres.word(inv)
    return delta, eps, spo


# -- multiplicative / antimultiplicative extension -------------------------

def _delta_map(h: HopfData):
    return multiplicative(h.delta, unit(h.pres, 2))


def _eps_map(h: HopfData):
    return multiplicative(h.counit_map, ONE)


def _terms(e: Element, h: HopfData) -> dict:
    if e.pres is not h.pres:
        raise ValueError("element not over this Hopf algebra")
    return e.terms


def coproduct(e: Element, h: HopfData) -> TensorElement:
    return linear(_delta_map(h), _terms(e, h), zero(h.pres, 2))


def counit(e: Element, h: HopfData) -> Scalar:
    return linear(_eps_map(h), _terms(e, h), ZERO)


def _s_word(h: HopfData, word) -> Element:
    if h.antipode_map is None:
        raise NoAntipode(h.name)
    out = h.pres.one()
    for x in word:
        out = h.antipode_map[x] * out
    if h.pres.graded:
        degs = [h.pres.by_name[x].degree for x in word]
        sgn = sum(degs[i] * degs[j] for i in range(len(degs)) for j in range(i + 1, len(degs)))
        if sgn % 2:
            out = -out
    return out


def antipode(e: Element, h: HopfData) -> Element:
    return linear(partial(_s_word, h), _terms(e, h), h.pres.zero())


# -- axiom checking --------------------------------------------------------

def _mul_legs(h: HopfData, t: TensorElement) -> Element:
    """Multiplication map on the tensor square (no sign: it is m, not m o tau)."""
    return linear(lambda legs: h.pres.monomial(legs[0] + legs[1]), t.terms, h.pres.zero())


def _eps_leg(h: HopfData, t: TensorElement, leg: int) -> Element:
    eps = _eps_map(h)
    return linear(lambda legs: h.pres.monomial(legs[1 - leg], eps(legs[leg])), t.terms,
                  h.pres.zero())


def check_hopf_axioms(h: HopfData) -> CheckReport:
    """Rule compatibility, generator parities, and the coalgebra and
    antipode laws on generators.

    Complete, without sampling.  Once Delta, eps and S respect every rule,
    they are well defined.  Over a graded presentation the parity checks
    make Delta(x) and S(x) of degree |x| and eps(x) = 0 for odd x, so (as
    over an ungraded one) both sides of coassociativity and of each counit
    law are algebra maps: agreeing on generators, they agree everywhere.
    As S is antimultiplicative, the elements satisfying each antipode law
    form a subalgebra (Majid, Foundations of Quantum Group Theory, 1995,
    section 1).
    """
    rep = CheckReport(f"hopf-axioms:{h.name}")
    pres = h.pres
    delta, s1 = _delta_map(h), partial(_s1, h)

    # structure maps must descend through every rewrite rule
    maps = [("delta-rule", delta, zero(pres, 2)), ("eps-rule", _eps_map(h), ZERO)]
    if h.antipode_map is not None:
        maps.append(("antipode-rule", partial(_s_word, h), pres.zero()))
    for tag, f, z in maps:
        for lhs, res in rule_residuals(pres, f, z):
            rep.record(not res, (tag, lhs))

    for gsym in pres.gens:
        x, w = gsym.name, (gsym.name,)
        e = pres.gen(x)
        d = coproduct(e, h)
        if pres.graded:
            rep.record(all((pres.degree(w1) + pres.degree(w2)) % 2 == gsym.degree
                           for w1, w2 in d.terms), ("delta-parity", w))
            rep.record(not (gsym.degree and h.counit_map[x]), ("eps-parity", w))
            if h.antipode_map is not None:
                rep.record(h.antipode_map[x].degree() in (None, gsym.degree),
                           ("antipode-parity", w))
        rep.record(apply_to_leg(d, 0, delta, 1) == apply_to_leg(d, 1, delta, 1), ("coassoc", w))
        eta_eps = pres.one() * h.counit_map[x]
        for leg, side in ((0, "left"), (1, "right")):
            rep.record(_eps_leg(h, d, leg) == e, (f"counit-{side}", w))
            if h.antipode_map is not None:
                rep.record(_mul_legs(h, apply_to_leg(d, leg, s1, 0)) == eta_eps,
                           (f"antipode-{side}", w))

    if h.g is not None:
        gels = pres.gen(h.g)
        rep.record(coproduct(gels, h) == outer(gels, gels), ("grouplike-delta", h.g))
        rep.record(counit(gels, h) == ONE, ("grouplike-eps", h.g))
        rep.record(gels * gels == pres.one(), ("involutive", h.g))
    return rep


def _s1(h, word):
    return _tensor(h.pres, 1, {(w,): c for w, c in _s_word(h, word).terms.items()})


# -- superization ----------------------------------------------------------

def g_degrees(pres: Presentation, g: str) -> dict:
    """Z2-degree of each generator from the adjoint action of the involution g."""
    if pres.word(g, g) != pres.one():
        raise NotInvolutive(f"{g}^2 != 1 in {pres.name}")
    ginv = pres.by_name[g].inverse or g
    degs = {}
    for x in pres.by_name:
        conj = pres.word(g, x, ginv)
        if conj == pres.gen(x):
            degs[x] = 0
        elif conj == -pres.gen(x):
            degs[x] = 1
        else:
            raise NotGradedCentral(f"g {x} g^-1 is not +-{x} in {pres.name}")
    return degs


def superize(h: HopfData) -> HopfData:
    """Bosonic Hopf algebra with involution g -> super-Hopf algebra.

    Same algebra and counit; coproduct picks up g^(-deg) on the first leg,
    antipode picks up g^deg in front.  Degrees come from g-conjugation.
    """
    if h.g is None:
        raise ValueError("superize needs a distinguished group-like g")
    if h.pres.graded:
        raise ValueError("superize starts from a HopfData over an ungraded presentation")
    degs = g_degrees(h.pres, h.g)
    try:
        spres = h.pres.derive(gens=[replace(x, degree=degs[x.name]) for x in h.pres.gens],
                              name=h.pres.name + "/super")
    except ValueError as exc:
        raise ActionNotCompatible(str(exc)) from None
    g = h.g

    delta, eps, spo = {}, {}, {} if h.antipode_map is not None else None
    for x in spres.by_name:
        # a term with an odd second leg gets g^-1 = g on its first leg; the
        # constructor sums repeated keys
        delta[x] = TensorElement(spres, 2, [((w1 + (g,) if spres.degree(w2) else w1, w2), c)
                                            for (w1, w2), c in h.delta[x].terms.items()])
        eps[x] = h.counit_map[x]
        if spo is not None:
            sx = h.antipode_map[x]
            pre = spres.word(g) if degs[x] % 2 else spres.one()
            spo[x] = pre * Element(spres, sx.terms)
    return HopfData(spres, delta, eps, spo, g=g, name=h.name + "/super")


# -- Z2-extension ----------------------------------------------------------

def z2_extend(h: HopfData, parity: dict) -> HopfData:
    """Adjoin an involution g with g x = (-1)^parity[x] x g for each generator.

    parity maps every generator name to 0 or 1 (inverse partners must agree
    with their partner's parity).  The result is a bosonic Hopf algebra with
    g group-like.  Compatibility of the sign action with the rules is checked
    by resolving every overlap that contains g, one check each, in the order
    of overlap_check.  An overlap of two rules of h.pres never meets g and
    resolves exactly as it does there, which is for the builder of h.pres to
    prove (compile_relations and adjoin_inverses do, as they build).
    """
    pres = h.pres
    if "g" in pres.index:
        raise ValueError("generator name g already taken")
    for x in pres.by_name:
        if x not in parity:
            raise KeyError(f"no parity for generator {x}")
        inv = pres.by_name[x].inverse
        if inv is not None and parity[x] % 2 != parity[inv] % 2:
            raise ActionNotCompatible(f"parities of {x} and {inv} differ")
    out = pres.derive(gens=(GeneratorSymbol("g", inverse="g"),) + pres.gens,
                      rules=[((x, "g"), {("g", x): -ONE if parity[x] % 2 else ONE}, False)
                             for x in pres.by_name],
                      name=pres.name + "xg")
    chk = resolve_overlaps(out, (o for o in overlaps(out) if "g" in o))
    if not chk.ok:
        raise ActionNotCompatible(f"{out.name}: {chk.failures[:3]}")

    delta, eps, spo = {}, {}, {} if h.antipode_map is not None else None
    for x in pres.by_name:
        delta[x] = TensorElement(out, 2, h.delta[x].terms)
        eps[x] = h.counit_map[x]
        if spo is not None:
            spo[x] = Element(out, h.antipode_map[x].terms)
    dg, eg, sg = grouplike_data(out, ["g"])
    delta.update(dg)
    eps.update(eg)
    if spo is not None:
        spo.update(sg)
    return HopfData(out, delta, eps, spo, g="g", name=h.name + "xg")


# -- isomorphism checking --------------------------------------------------

def theta_iso_check(aR: HopfData, aRbar: HopfData, theta: dict, theta_inv: dict) -> CheckReport:
    """Verify that the generator map theta is a bialgebra isomorphism
    aR -> aRbar with inverse theta_inv.

    theta sends generator names of aR to Elements of aRbar, theta_inv the
    names of aRbar to Elements of aR; both extend multiplicatively.  Checks:
    each map respects every defining rule of its source (relation,
    inverse-relation), so both are algebra maps; both composites fix every
    generator (inverse-left, inverse-right), so the maps are mutually
    inverse; theta(x) has the degree of x (parity); and
    (theta (x) theta) o coproduct = coproduct o theta on generators
    (intertwine).  Both sides of the last are algebra maps, as theta is
    even, so it holds everywhere, and for a bijective theta it implies that
    theta preserves the counit.
    """
    rep = CheckReport(f"theta:{aR.name}->{aRbar.name}")
    src, tgt = aR.pres, aRbar.pres
    fwd, back = multiplicative(theta, tgt.one()), multiplicative(theta_inv, src.one())
    for tag, pres, f, z in (("relation", src, fwd, tgt.zero()),
                            ("inverse-relation", tgt, back, src.zero())):
        for lhs, res in rule_residuals(pres, f, z):
            rep.record(not res, (tag, lhs))
    for tag, gens, f, images, z in (("inverse-left", src, back, theta, src.zero()),
                                    ("inverse-right", tgt, fwd, theta_inv, tgt.zero())):
        for x in gens.by_name:
            rep.record(linear(f, images[x].terms, z) == gens.gen(x), (tag, x))
    for gsym in src.gens:
        x = gsym.name
        rep.record(theta[x].degree() in (None, gsym.degree), ("parity", x))
        lhs_t = _push_tensor(coproduct(src.gen(x), aR), fwd, aRbar)
        rep.record(lhs_t == coproduct(theta[x], aRbar), ("intertwine", x))
    return rep


def _push_tensor(t: TensorElement, f, target_h: HopfData) -> TensorElement:
    """(f (x) f)(t) for a word map f into the algebra of target_h."""
    def legs_map(legs):
        return outer(f(legs[0]), f(legs[1]))
    return linear(legs_map, t.terms, zero(target_h.pres, 2))


# -- centrality ------------------------------------------------------------

def casimir_central_check(h: HopfData, c: Element, anticommuting=()) -> CheckReport:
    """[c, x] = 0 for every generator x, or {c, x} = 0 for listed names."""
    rep = CheckReport(f"central:{h.name}")
    for gsym in h.pres.gens:
        x = h.pres.gen(gsym.name)
        if gsym.name in anticommuting:
            rep.record(c * x + x * c == h.pres.zero(), ("anticommutator", gsym.name))
        else:
            rep.record(c * x - x * c == h.pres.zero(), ("commutator", gsym.name))
    return rep


# -- inversion helper ------------------------------------------------------

#: the most terms try_invert and try_invert_tensor add to u^-1
SERIES_TERMS = 8


def try_invert(e: Element) -> Element:
    """Invert unit + nilpotent-correction elements by a geometric series.

    Picks the order-least term whose word consists of invertible
    generators, peels it off as the unit part u, and sums
    u^-1 (1 - r u^-1 + (r u^-1)^2 - ...) until the residual vanishes.
    Verifies the two-sided inverse exactly.
    """
    pres = e.pres
    uw = next((w for w in sorted(e.terms, key=pres.order_key) if _invertible(pres, w)), None)
    if uw is None:
        raise NotInvertible("no invertible monomial term")
    c = e.terms[uw]
    return _series_inverse(e, pres.monomial(_inverse_word(pres, uw), ONE / c),
                           pres.monomial(uw, c), pres.one())


def try_invert_tensor(t: TensorElement) -> TensorElement:
    """The same inversion inside a tensor power, with the unit part the
    least term, legwise in order, whose legs are all invertible words."""
    pres = t.pres
    uw = next((legs for legs in sorted(t.terms, key=lambda ls: tuple(map(pres.order_key, ls)))
               if all(_invertible(pres, w) for w in legs)), None)
    if uw is None:
        raise NotInvertible("no invertible tensor monomial term")
    c = t.terms[uw]
    v0 = TensorElement(pres, t.arity, {tuple(_inverse_word(pres, w) for w in uw): ONE / c})
    return _series_inverse(t, v0, TensorElement(pres, t.arity, {uw: c}),
                           unit(pres, t.arity))


def _invertible(pres, word) -> bool:
    return all(pres.by_name[x].inverse is not None for x in word)


def _inverse_word(pres, word) -> tuple:
    return tuple(pres.by_name[x].inverse for x in reversed(word))


def _series_inverse(e, v0, u, one):
    """v0 (1 - y + y^2 - ...) with y = v0 (e - u), v0 = u^-1, summed until
    it is a two-sided inverse of e, for at most SERIES_TERMS more terms.  On
    a TensorElement ``*`` is tensor_mul."""
    y = v0 * (e - u)
    power = inv = v0  # (-y)^k v0, k = 0
    for _ in range(SERIES_TERMS):
        if e * inv == one and inv * e == one:
            return inv
        power = -(y * power)
        inv = inv + power
    if e * inv == one and inv * e == one:
        return inv
    raise NotInvertible(f"series did not close within {SERIES_TERMS} terms")
