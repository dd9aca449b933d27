"""The four workloads: fixed batches of qgw operations and their checks.

A workload has a ``setup`` (the warm-up builds, paid once per process) and
a ``batch`` of operations.  Each operation is an ``Op``: ``run`` is the
timed call into qgw and ``verify`` turns its result into ``None`` or a
fault description, untimed, once the whole batch has been measured.  The
seed draws coefficients, twists, labels and evaluation points, never which
operations run nor their order: every seed gives the same amount of work,
and the operations that run first pay the same warm-up of sympy's caches.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from fractions import Fraction

import checks
from qgw import algebras, cli, exterior, frt, gtensor, hopfcore, reps, rmatlab
from qgw.scalars import Scalar, qvar, render


@dataclass
class Op:
    name: str
    run: object      # () -> result, timed
    verify: object   # result -> None | str, untimed


def _first_error(*errs):
    return next((e for e in errs if e), None)


def _rendered(terms):
    return {w: render(c) for w, c in terms.items()}


# -- suite: the paper's check battery, cold ----------------------------------

SUITE_SEED = 0


def suite_setup():
    return None


def suite_batch(ctx, rng):
    """One operation per check of ``qgw run --suite all --seed 0``, in the
    command's own order.  The seed draws nothing: the program seed is pinned
    because it changes the work, and the order decides which check pays for
    the shared presentation builds."""
    ops = []
    for c in sorted(cli.CHECKS, key=lambda c: c.id):
        def run(cid=c.id):
            return cli.run(suite=cid, seed=SUITE_SEED, out=io.StringIO())

        def verify(res, c=c):
            results, code = res
            want = "fail" if c.expected == "fail-of-property" else "pass"
            got = results[0]["verdict"]
            if got != want:
                return f"{c.id}: verdict {got}, expected {want}"
            if code != 0:
                return f"{c.id}: exit code {code}"
            return None

        ops.append(Op(c.id, run, verify))
    return ops


# -- algebra: warm rewriting and Hopf work -----------------------------------

ALGEBRAS = ("uq", "uq-super", "fa-ac-inv", "fa-gl11-inv", "ar-gl(2|1)")

# Fixed triples of words, each with the number of seeded draws per round.
# The five uq triples drawn three times cost about the same (30-50 ms
# here): they put the batch median inside a cluster of thirty similar
# operations, where the jitter of single operations averages out, instead
# of in a gap between two unlike ones.
TRIPLES = {
    "uq": [((("Xm",), ("Xp", "K1"), ("K2i", "Xm")), 1),
           ((("Xm", "Xp"), ("g",), ("Xm", "K1i")), 1),
           ((("K1", "Xm"), ("Xp",), ("Xm", "Xp")), 3),
           ((("K1i", "Xm"), ("Xp",), ("Xm", "Xp")), 3),
           ((("Xm", "K2"), ("Xp",), ("Xm", "Xp")), 3),
           ((("Xm", "Xp"), ("K2i",), ("Xm", "Xp")), 3),
           ((("Xm", "Xp"), ("Xm", "Xp"), ("g",)), 3)],
    "fa-ac-inv": [((("d",), ("a", "b"), ("c", "ai")), 1),
                  ((("di", "c"), ("a",), ("b", "d")), 1),
                  ((("d", "a"), ("di",), ("ai", "c")), 1)],
    "ar-gl(2|1)": [((("t33",), ("t21", "t12"), ("t11",)), 1),
                   ((("t32", "t23"), ("t13",), ("t31",)), 1),
                   ((("t22", "t11"), ("t33",), ("t12",)), 1)],
}
TRIPLES["uq-super"] = TRIPLES["uq"]
TRIPLES["fa-gl11-inv"] = TRIPLES["fa-ac-inv"]

HOPF_WORDS = {
    "uq": [("Xm", "K1", "Xp"), ("Xm", "Xp", "K2i", "g")],
    "uq-super": [("Xm", "Xp", "K1", "Xm"), ("Xp", "g", "Xm")],
    "fa-ac-inv": [("di", "a", "d"), ("d", "a", "b")],
    "fa-gl11-inv": [("di", "a", "d"), ("c", "a", "d")],
    "ar-gl(2|1)": [("t33", "t11", "t22")],
}

# di^k ai^m: rewriting work grows fast with k and m (see README)
INVERSE_RUNS = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (2, 3)]

RATIONAL_QS = [Fraction(3, 2), Fraction(5, 3), Fraction(2), Fraction(7, 4), Fraction(5, 2)]
LABELS = [(m1, m2) for m1 in (-1, 0, 1, 2) for m2 in (-1, 0, 1, 2) if m1 + m2 != 0]


def algebra_setup():
    return {
        "uq": algebras.uq_hopf(),
        "uq-super": algebras.uqgl11_hopf(),
        "fa-ac-inv": algebras.fa_hopf("ac"),
        "fa-gl11-inv": algebras.fa_hopf("gl11"),
        "ar-gl(2|1)": frt.ar_hopf(rmatlab.catalog("glnm", 2, 1)),
    }


def _coeff(rng):
    """A seeded coefficient r * q, r a nonzero rational of one-digit terms.

    The power of q is fixed: a coefficient free of q makes the scalar
    arithmetic of an operation cheaper, so drawing it would let the seed
    change the work."""
    r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return Scalar(r) * qvar()


def _value_check(key, rng):
    """An independent evaluation for normal forms over the given algebra:
    (terms, word, coeff) -> None | fault."""
    q = rng.choice(RATIONAL_QS)
    if key in ("uq", "uq-super"):
        images = [checks.uq_images(q, *lab) for lab in rng.sample(LABELS, 2)]
        return lambda terms, word, coeff: _first_error(
            *(checks.rep_error(im, _rendered(terms), word, render(coeff), q) for im in images))
    if key.startswith("fa-"):
        alpha, delta = rng.choice(RATIONAL_QS), rng.choice(RATIONAL_QS) + 1
        values = {"a": alpha, "ai": 1 / alpha, "d": delta, "di": 1 / delta}
    else:
        values = {f"t{i}{i}": Fraction(rng.randint(2, 9), rng.randint(1, 5)) for i in (1, 2, 3)}
    return lambda terms, word, coeff: checks.character_error(
        values, _rendered(terms), word, render(coeff), q)


def _assoc_op(key, h, triple, rng):
    pres = h.pres
    cs = [_coeff(rng) for _ in triple]
    a, b, c = (pres.monomial(w, k) for w, k in zip(triple, cs))
    lhs_set = set(pres.rules)
    value = _value_check(key, rng)
    word = triple[0] + triple[1] + triple[2]

    def run():
        return (a * b) * c, a * (b * c)

    def verify(res):
        left, right = res
        if left != right:
            return f"{key}: (ab)c != a(bc) for {triple}"
        return _first_error(checks.irreducible_error(left.terms, lhs_set),
                            value(left.terms, word, cs[0] * cs[1] * cs[2]))

    return Op(f"assoc {key} {triple}", run, verify)


def _eps_leg(h, t, leg):
    """(eps (x) id) or (id (x) eps) of a tensor square, as an Element."""
    pres = h.pres
    out = pres.zero()
    for legs, c in t.terms.items():
        out = out + pres.monomial(legs[1 - leg], c * hopfcore.counit(pres.monomial(legs[leg]), h))
    return out


def _antipode_leg(h, t, leg):
    """m (S (x) id) or m (id (x) S) of a tensor square."""
    pres = h.pres
    out = pres.zero()
    for (w1, w2), c in t.terms.items():
        x, y = pres.monomial(w1), pres.monomial(w2)
        if leg == 0:
            x = hopfcore.antipode(x, h)
        else:
            y = hopfcore.antipode(y, h)
        out = out + (x * y) * c
    return out


def _hopf_op(key, h, word, rng):
    """Coproduct, coassociativity (not on A(R): too costly), counit and
    antipode laws on one seeded multiple of a fixed word."""
    pres = h.pres
    coeff = _coeff(rng)
    e = pres.monomial(word, coeff)
    lhs_set = set(pres.rules)
    coassoc = not key.startswith("ar-")

    def delta_of(w):
        return hopfcore.coproduct(pres.monomial(w), h)

    def run():
        d = hopfcore.coproduct(e, h)
        out = {"d": d, "eps": [_eps_leg(h, d, 0), _eps_leg(h, d, 1)]}
        if coassoc:
            out["coassoc"] = (gtensor.apply_to_leg(d, 0, delta_of, 1)
                              == gtensor.apply_to_leg(d, 1, delta_of, 1))
        if h.antipode_map is not None:
            out["unit"] = pres.one() * hopfcore.counit(e, h)
            out["antipode"] = [_antipode_leg(h, d, 0), _antipode_leg(h, d, 1)]
        return out

    def verify(res):
        legs = [w for t in res["d"].terms for w in t]
        errs = [checks.irreducible_error(legs, lhs_set)]
        if not res.get("coassoc", True):
            errs.append(f"{key}: coassociativity fails on {word}")
        if any(x != e for x in res["eps"]):
            errs.append(f"{key}: counit law fails on {word}")
        if "antipode" in res and any(x != res["unit"] for x in res["antipode"]):
            errs.append(f"{key}: antipode law fails on {word}")
        return _first_error(*errs)

    return Op(f"hopf {key} {word}", run, verify)


def _nf_op(key, h, k, m, rng):
    pres = h.pres
    word = ("di",) * k + ("ai",) * m
    coeff = _coeff(rng)
    lhs_set = set(pres.rules)
    value = _value_check(key, rng)

    def run():
        return pres.reduce_terms({word: coeff})

    def verify(terms):
        return _first_error(checks.irreducible_error(terms, lhs_set),
                            value(terms, word, coeff))

    return Op(f"nf {key} di^{k} ai^{m}", run, verify)


def algebra_batch(ctx, rng):
    ops = []
    for key in ALGEBRAS:
        h = ctx[key]
        ops += [_assoc_op(key, h, t, rng) for t, draws in TRIPLES[key] for _ in range(draws)]
        ops += [_hopf_op(key, h, w, rng) for w in HOPF_WORDS[key]]
    for key in ("fa-ac-inv", "fa-gl11-inv"):
        ops += [_nf_op(key, ctx[key], k, m, rng) for k, m in INVERSE_RUNS]
    return ops


# -- braid: R-matrix verification without rewriting ----------------------------

GLNM_SIZES = [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)]
# twisted copies, read through the JSON loader, up to this dimension; the
# 4-dimensional ones (64x64 products) are checked in catalog form only
TWISTED_MAX_DIM = 3
CORRUPTED = [(1, 1, False), (2, 1, False), (1, 1, True), (1, 2, True)]
QT_TRIPLES = 2
CANONICAL_PAIRS = 2


def braid_setup():
    algebras.uq_hopf()   # the representations of the universal R-matrix
    return None


def _complex_q(rng):
    return complex(0.8 + 0.3 * rng.random(), 0.2 + 0.3 * rng.random())


# Twist exponents: never 0, since an entry 1 is cheaper than q^k.
TWIST_EXPONENTS = (-2, -1, 1, 2)
# Labels with m1 + m2 = 1 give X+ the image e12 and entries of one shape;
# other sums change the entries, and with them the scalar work.
QT_LABELS = [(m1, 1 - m1) for m1 in (-2, -1, 0, 1, 2, 3)]


def _twist(rng, d):
    return {(i, j): rng.choice(TWIST_EXPONENTS) for i in range(d) for j in range(i + 1, d)}


def _spec_json(spec):
    return json.dumps({"n": spec["n"], "grading": spec["p"], "name": "bench",
                       "entries": checks.spec_json_entries(spec)})


def _braid_op(name, spec, qc, hecke, load):
    """Braid relation (graded when the spec is) and optionally Hecke.

    ``load`` holds the arguments of ``rmatlab.catalog``, or is None to read
    the spec through ``rmatlab.rmatrix_from_json``."""
    text = _spec_json(spec)
    d, p = spec["n"], spec["p"]

    def run():
        R = rmatlab.catalog(*load) if load else rmatlab.rmatrix_from_json(text)
        ybe = rmatlab.sybe_check(R) if R.is_super else rmatlab.qybe_check(R)
        return ybe, (rmatlab.hecke_check(R) if hecke else None)

    def verify(res):
        ybe, hk = res
        Rnum = checks.spec_numeric(spec, qc)
        errs = [checks.verdict_error(f"{name} braid", ybe, checks.braid_holds(Rnum, d, p))]
        if hecke:
            errs.append(checks.verdict_error(f"{name} hecke", hk,
                                             checks.hecke_holds(Rnum, d, qc)))
        return _first_error(*errs)

    return Op(name, run, verify)


def _corrupted_op(n, m, sup, rng):
    spec = checks.glnm_spec(n, m, sup, _twist(rng, n + m))
    pos = rng.choice(sorted(spec["entries"]))
    bad = checks.corrupt_spec(spec, pos, rng.randint(1, 3))
    qc = _complex_q(rng)
    op = _braid_op(f"corrupted {'super ' if sup else ''}gl({n}|{m})", bad, qc, False, None)
    inner = op.verify

    def verify(res):
        if res[0]:
            return f"{op.name}: corrupted copy at {pos} passes"
        return inner(res)

    return Op(op.name, op.run, verify)


def _canonical_op(lab, rng):
    qc = _complex_q(rng)

    def run():
        return reps.universal_r_eval(lab, lab)

    def verify(R):
        import numpy as np

        got = np.zeros((4, 4), dtype=complex)
        for i, row in enumerate(R.m):
            for j, x in enumerate(row):
                if x:
                    got[i, j] = checks.evaluate(render(x), qc)
        return checks.matrix_error(f"universal R at {lab}", got,
                                   checks.canonical_numeric(qc, *lab))

    return Op(f"universal-r {lab}", run, verify)


def _quasitriangular_op(labs, rng):
    qc = _complex_q(rng)

    def run():
        return reps.quasitriangularity_check(*labs, which="standard").ok

    def verify(ok):
        r12 = checks.universal_r_numeric(qc, labs[0], labs[1])
        r13 = checks.universal_r_numeric(qc, labs[0], labs[2])
        r23 = checks.universal_r_numeric(qc, labs[1], labs[2])
        ref = checks.braid_holds(r12, 2, (0, 0), R13=r13, R23=r23)
        return checks.verdict_error(f"quasitriangularity {labs}", ok, ref)

    return Op(f"quasitriangularity {labs}", run, verify)


def braid_batch(ctx, rng):
    ops = []
    for n, m in GLNM_SIZES:
        qc = _complex_q(rng)
        ops.append(_braid_op(f"catalog gl({n}|{m})", checks.glnm_spec(n, m, False), qc,
                             True, ("glnm", n, m)))
        ops.append(_braid_op(f"catalog super gl({n}|{m})", checks.glnm_spec(n, m, True), qc,
                             False, ("super_glnm", n, m)))
        if n + m > TWISTED_MAX_DIM:
            continue
        tw = _twist(rng, n + m)
        ops.append(_braid_op(f"twisted gl({n}|{m})", checks.glnm_spec(n, m, False, tw), qc,
                             True, None))
        ops.append(_braid_op(f"twisted super gl({n}|{m})", checks.glnm_spec(n, m, True, tw),
                             qc, False, None))
    ops += [_corrupted_op(n, m, sup, rng) for n, m, sup in CORRUPTED]
    ops += [_canonical_op(rng.choice(QT_LABELS), rng) for _ in range(CANONICAL_PAIRS)]
    ops += [_quasitriangular_op(tuple(rng.choice(QT_LABELS) for _ in range(3)), rng)
            for _ in range(QT_TRIPLES)]
    return ops


# -- build: fresh rewrite systems ----------------------------------------------

# (name, (n, m, superized), twisted) of gl(n|m)-type R-matrices: ac is
# gl(1|1), and omega is ac under the twist k = 1, built as it is in the
# catalog; the others get a seeded twist.  A round has four cheap builds
# (2-dimensional and std_gl(2)), four of about 0.4 s (3-dimensional) and
# three omega_build; over the two rounds of a run the batch median falls
# inside the middle group.
BUILD_RS = [
    ("ac", (1, 1, False), True),
    ("omega", (1, 1, False), False),
    ("super_ac", (1, 1, True), True),
    ("gl(2|1)", (2, 1, False), True),
    ("gl(1|2)", (1, 2, False), True),
    ("super gl(2|1)", (2, 1, True), True),
    ("super gl(1|2)", (1, 2, True), True),
    ("std_gl(2)", (2, 0, False), True),
]
OMEGA_RS = ("ac", "omega", "std_gl(2)")


def build_setup():
    return None


def _build_matrix(n, m, sup, twisted, rng):
    tw = _twist(rng, n + m) if twisted else {(0, 1): 1}
    return rmatlab.rmatrix_from_json(_spec_json(checks.glnm_spec(n, m, sup, tw)))


def build_batch(ctx, rng):
    ops = []
    for name, (n, m, sup), twisted in BUILD_RS:
        R = _build_matrix(n, m, sup, twisted, rng)

        # Without the random associativity probes (sample_budget=0): they are
        # normal-form work, which the algebra workload measures, and 90% of a
        # build.  What is left is the write side of ncalg: row reduction with
        # division, order checks and the exhaustive overlap check.
        # omega_build keeps its own fixed probe budget.
        def run_ar(R=R):
            return frt.build_ar(R, sample_budget=0)

        def verify_ar(pres, name=name, n=n, m=m):
            return checks.count_error(f"A(R) {name}", len(pres.rules), checks.ar_rule_count(n, m))

        ops.append(Op(f"build_ar {name}", run_ar, verify_ar))
        if name in OMEGA_RS:
            def run_om(R=R):
                return exterior.omega_build(R)

            def verify_om(om, name=name, d=n + m):
                return checks.count_error(f"Omega {name}", len(om.pres.rules),
                                          checks.omega_rule_count(d))

            ops.append(Op(f"omega_build {name}", run_om, verify_om))
    return ops


WORKLOADS = {
    "suite": (suite_setup, suite_batch),
    "algebra": (algebra_setup, algebra_batch),
    "braid": (braid_setup, braid_batch),
    "build": (build_setup, build_batch),
}
