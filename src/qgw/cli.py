"""Named verification suites with a command line front end.

Every headline identity of the workbench gets a stable check id grouped
into suites (sec2..sec5, engine).  A check is one function, declared by
@_check(id, anchor, expected); its suite is read off its id: an engine/...
id names its own, and any other is anchored in the paper (def2.1, sec3/...,
thm4.1) and falls in sec plus the digit of its section.  Negative checks
are first class: their expected verdict is "fail-of-property" and the
runner treats the failure as the correct outcome.  Only engine/associativity
draws from the seed, and it probes only the presentations with unoriented
rules, whose overlap check proves confluence only up to the step cap; every
other check is exact.  Reports can be emitted as text or JSON; ``qgw list``
prints each check's id, expected verdict and anchor.

Exit codes: 0 all expected verdicts met, 1 at least one mismatch, 2 an
error row (an unexpected exception in a check) or a usage error.  A closed
stdout ends the process by SIGPIPE, quietly, as it ends cat.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
import time
from dataclasses import dataclass

from . import algebras, exterior, frt, reps, rmatlab, smat
from .hopfcore import casimir_central_check, check_hopf_axioms, coproduct, superize
from .gtensor import TensorElement
from .ncalg import STATS, associativity_probes, overlap_check
from .report import CheckReport
from .rmatlab import catalog, hecke_check, qybe_check, sybe_check
from .scalars import ONE, Scalar, qvar, sign_pow


class UnknownCheck(KeyError):
    pass


@dataclass
class CheckDescriptor:
    id: str
    anchor: str
    fn: object
    expected: str = "pass"  # or "fail-of-property"
    error_anchor: str = ""  # the anchor of an error row, when not ``anchor``

    @property
    def suite(self) -> str:
        """An engine/... or user/... id names its suite; any other id's suite is
        sec and the first digit of its place in the paper (def2.1 -> sec2)."""
        place = self.id.split("/")[0]
        return place if place in ("engine", "user") else "sec" + next(filter(str.isdigit, place))


CHECKS = []


def _check(id, anchor, expected="pass"):
    """Declare the decorated function the check ``id``, after those above it."""
    def register(fn):
        CHECKS.append(CheckDescriptor(id, anchor, fn, expected))
        return fn
    return register


# -- small helpers ---------------------------------------------------------

def _bool_report(name, pairs):
    rep = CheckReport(name)
    for ok, what in pairs:
        rep.record(ok, what)
    return rep


def _ac_at(t: Scalar) -> list:
    """The rank two matrix solution with q replaced by an arbitrary unit t,
    in row form."""
    return [[(0, t)], [(1, ONE), (2, t - ONE / t)], [(2, ONE)], [(3, -ONE / t)]]


def _ctx_labels(ctx, default):
    labs = ctx.get("labels")
    return [tuple(labs[k:k + 2]) for k in range(0, len(labs), 2)] if labs else default


# -- section 2 -------------------------------------------------------------

@_check("def2.1/hopf-axioms", "the twisted enveloping algebras satisfy the Hopf axioms")
def _chk_hopf_axioms(ctx):
    rep = check_hopf_axioms(algebras.uq_hopf())
    rep.merge(check_hopf_axioms(algebras.uqgl11_hopf()))
    return rep


@_check("sec2/qybe", "the rank two matrix solution satisfies the QYBE")
def _chk_qybe(ctx):
    R = catalog("ac")
    return _bool_report("qybe-ac", [
        (qybe_check(R), "qybe"),
        (hecke_check(R), "hecke"),
        (rmatlab.hecke_identity_check(R), "hecke-identity"),
    ])


# the label triples of thm2.2/quasitriangularity, each with its family
_QT_TRIPLES = [("standard", ((-1, 0), (2, 2), (-1, 0))), ("standard", ((0, 1), (1, 1), (-1, 2))),
               ("standard", ((-1, -1), (-1, 0), (2, 2))), ("super", ((1, 1), (-1, -1), (1, 2)))]


@_check("thm2.2/quasitriangularity", "hexagon and intertwining identities in tensor triples")
def _chk_quasitriangularity(ctx):
    rep = CheckReport("quasitriangularity")
    for which, tri in _QT_TRIPLES:
        rep.merge(reps.quasitriangularity_check(*tri, which=which))
    return rep


@_check("sec2/casimirs", "the quadratic and group-like-square elements are central")
def _chk_casimirs(ctx):
    h = algebras.uq_hopf()
    c1sq, c2 = algebras.uq_casimirs()
    rep = casimir_central_check(h, c1sq)
    rep.merge(casimir_central_check(h, c2))
    return rep


@_check("prop2.4/ribbon", "is a ribbon Hopf algebra")
def _chk_ribbon(ctx):
    rep = CheckReport("ribbon")
    for lab in _ctx_labels(ctx, [(1, 0), (2, 1), (1, 1), (0, 1)]):
        rep.merge(reps.ribbon_check(lab))
    return rep


@_check("prop2.5/canonical", "the fundamental representation recovers the matrix solution, "
        "up to reparametrization for general labels")
def _chk_canonical(ctx):
    q = qvar()
    rep = CheckReport("canonical")
    rep.record(reps.universal_r_eval((1, 0), (1, 0)) == catalog("ac"),
               "fundamental")
    for m1, m2 in _ctx_labels(ctx, [(1, 0), (2, 1), (1, 1), (0, 1)]):
        t = sign_pow(m2) * q ** (m1 + m2)
        pref = q ** ((m1 + m2) * (m1 - m2 - 1))
        want = smat.smul(pref, _ac_at(t))
        got = reps.universal_r_eval((m1, m2), (m1, m2)).rows
        rep.record(smat.meq(got, want), ("reparametrized", m1, m2))
    return rep


def _frt_triple(R, which, h):
    plus, minus = algebras.ansatz(which)
    rep = CheckReport(f"frt-{which}")
    rep.merge(frt.frt_relation_check(R, plus, plus))
    rep.merge(frt.frt_relation_check(R, plus, minus))
    rep.merge(frt.frt_relation_check(R, minus, minus))
    rep.merge(frt.matrix_hopf_check(h, plus, minus))
    return rep


@_check("sec2/frt", "generator matrices satisfy the exchange relations")
def _chk_frt(ctx):
    return _frt_triple(catalog("ac"), "standard", algebras.uq_hopf())


@_check("sec2/tensor-decomposition", "a product of two irreducibles splits into two")
def _chk_tensor_decompose(ctx):
    try:
        reps.tensor_decompose()
        failure = None
    except reps.NoIntertwiner as exc:
        failure = str(exc)
    return _bool_report("tensor-decompose", [(failure is None, ("intertwiner", failure))])


@_check("sec2/duality", "duality pairing between matrix and enveloping sides")
def _chk_duality(ctx):
    return frt.duality_pairing_check(catalog("ac"))


# -- section 3 -------------------------------------------------------------

@_check("prop3.1/superizable", "the rank two solution is superizable with p=(0,1)")
def _chk_superizable(ctx):
    q = qvar()
    R = catalog("ac")
    gradings = rmatlab.superizable_grading_search(R)
    Rbar = rmatlab.superize_r(R, (0, 1))
    gl11 = rmatlab.RMatrix(2, [[q, 0, 0, 0], [0, ONE, q - ONE / q, 0],
                               [0, 0, ONE, 0], [0, 0, 0, ONE / q]], grading=(0, 1))
    return _bool_report("superizable", [
        ((0, 1) in gradings, "grading"),
        (sybe_check(Rbar), "sybe"),
        (Rbar == gl11, "entries"),
    ])


def _hopf_match(a, b, name):
    """Same generators, same structure maps, compared as term dictionaries."""
    rep = CheckReport(name)
    for x in a.pres.by_name:
        rep.record(a.delta[x].terms == b.delta[x].terms, ("delta", x))
        rep.record(a.counit_map[x] == b.counit_map[x], ("counit", x))
        rep.record(a.antipode_map[x].terms == b.antipode_map[x].terms,
                   ("antipode", x))
    return rep


@_check("prop3.2/superization", "superization reproduces the super quantum group")
def _chk_superization(ctx):
    rep = _hopf_match(superize(algebras.uq_hopf()), algebras.uqgl11_hopf(),
                      "superization")
    rep.merge(_hopf_match(superize(algebras.uq_omega_hopf()),
                          algebras.uqgl11_omega_hopf(), "superization-omega"))
    return rep


@_check("sec3/super-r", "super universal R-matrix in the fundamental representation, "
        "up to the central normalization")
def _chk_super_r(ctx):
    q = qvar()
    got = reps.universal_r_eval((1, 0), (1, 0), which="super")
    want = smat.smul(ONE / q, catalog("super_ac").rows)
    return _bool_report("super-r", [(smat.meq(got.rows, want), "entries")])


@_check("sec3/super-frt", "super generator matrices satisfy the exchange relations")
def _chk_super_frt(ctx):
    return _frt_triple(catalog("super_ac"), "super", algebras.uqgl11_hopf())


@_check("sec3/super-duality", "graded duality pairing")
def _chk_super_duality(ctx):
    return frt.duality_pairing_check(catalog("super_ac"))


# -- section 4 -------------------------------------------------------------

@_check("sec4/glnm-ybe", "gl(n|m)-type solutions satisfy the (graded) YBE")
def _chk_glnm_ybe(ctx):
    rep = CheckReport("glnm-ybe")
    for n, m in ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)):
        R = catalog("glnm", n, m)
        rep.record(qybe_check(R), ("qybe", n, m))
        rep.record(sybe_check(rmatlab.superize_r(R, (0,) * n + (1,) * m)), ("sybe", n, m))
    return rep


@_check("thm4.1/superization-iso",
        "superized matrix algebras are isomorphic to the super ones via the involution twist")
def _chk_theta(ctx):
    rep = CheckReport("theta")
    for src, tgt in (("ac", "gl11"), ("omega", "gl11omega")):
        rep.merge(algebras.theta_iso_for(algebras.fa_hopf(src), algebras.fa_hopf(tgt),
                                         algebras.FA_GRID, (0, 1)))
    R, p = catalog("glnm", 2, 1), (0, 0, 1)
    h = frt.ar_hopf(R)
    rep.merge(algebras.theta_iso_for(h, frt.ar_hopf(rmatlab.superize_r(R, p)),
                                     frt.generator_grid(h.pres, R.n), p))
    return rep


def _det_element():
    return algebras.uq_presentation().word("K1", "K2")


@_check("sec4/determinant", "the determinant-like element: group-like, sign commutation, "
        "central square with images q^(+-2)")
def _chk_determinant(ctx):
    h = algebras.uq_hopf()
    pres = h.pres
    q = qvar()
    D = _det_element()
    Dsq = D * D
    rep = casimir_central_check(h, D, anticommuting=("Xp", "Xm"))
    rep.merge(casimir_central_check(h, Dsq))
    want = TensorElement(pres, 2, {(("K1", "K2"), ("K1", "K2")): ONE})
    rep.record(coproduct(D, h) == want, "grouplike")
    for lab, val in (((1, 0), q * q), ((-1, 0), ONE / (q * q))):
        img = reps.rep_build(lab).evaluate(Dsq)
        rep.record(smat.meq(img, smat.smul(val, smat.eye(2))),
                   ("square-image", lab))
    return rep


@_check("sec4/determinant-noncentral",
        "the determinant-like element itself is not central", expected="fail-of-property")
def _chk_determinant_noncentral(ctx):
    return casimir_central_check(algebras.uq_hopf(), _det_element())


@_check("sec4/superdeterminant", "superdeterminants are central and group-like")
def _chk_superdeterminant(ctx):
    rep = frt.qdet_check(algebras.fa_hopf("gl11"))
    rep.merge(frt.qdet_check(algebras.fa_hopf("gl11omega")))
    return rep


# -- section 5 -------------------------------------------------------------

@_check("sec5/hecke", "Hecke condition battery")
def _chk_hecke(ctx):
    pairs = []
    for spec in (("ac",), ("omega",), ("std_gl", 2), ("std_gl", 3)):
        pairs.append((hecke_check(catalog(*spec)), spec))
    pairs.append((rmatlab.hecke_identity_check(catalog("omega")),
                  "omega-identity"))
    return _bool_report("hecke", pairs)


@_check("prop5.1/twisting", "the exterior coproduct is a cocycle twist and the twisted "
        "R-matrix matches its closed form")
def _chk_twisting(ctx):
    rep = reps.twist_check((1, 0), (2, 1), (1, 1), super_side=False)
    rep.record(reps.universal_r_eval((1, 0), (1, 0), which="omega")
               == catalog("omega"), "closed-form")
    return rep


@_check("sec5/super-twisting", "the super exterior coproduct is a cocycle twist")
def _chk_super_twisting(ctx):
    return reps.twist_check((1, 0), (2, 1), (1, 1), super_side=True)


@_check("sec5/omega-hopf", "Hopf axioms for the exterior-variant presentations")
def _chk_omega_hopf(ctx):
    rep = check_hopf_axioms(algebras.uq_omega_hopf())
    rep.merge(check_hopf_axioms(algebras.uqgl11_omega_hopf()))
    return rep


@_check("sec5/omega-frt", "exterior-variant generator matrix exchange relations")
def _chk_omega_frt(ctx):
    rep = _frt_triple(catalog("omega"), "omega", algebras.uq_omega_hopf())
    rep.merge(_frt_triple(catalog("super_omega"), "super-omega", algebras.uqgl11_omega_hopf()))
    return rep


@_check("prop5.2/exterior",
        "exterior algebras are covariant and carry the hidden matrix super-transformation")
def _chk_exterior(ctx):
    """Covariance, the coaction, and d^2 = 0 on each generator: d is an odd
    derivation, checked well defined on every rule as Omega_q(R) is built,
    so d^2 is an even derivation (the cross terms of d^2(a b) cancel), which
    vanishes on every word once it vanishes on the generators."""
    rep = CheckReport("exterior")
    for spec in (("std_gl", 2), ("std_gl", 3), ("ac",)):
        om = exterior.omega_build(catalog(*spec))
        rep.merge(exterior.covariance_check(exterior.bosonic_action(om)))
        rep.merge(exterior.covariance_check(exterior.super_action(om)))
        rep.merge(exterior.gl_coaction_check(om))
        for x in om.pres.by_name:
            rep.record(not om.differential(om.differential(om.pres.gen(x))), ("d2", x))
    return rep


# -- engine ----------------------------------------------------------------

def _catalog_presentations():
    yield algebras.uq_presentation()
    yield algebras.uq_presentation(graded=True)
    for key in ("ac", "gl11", "omega", "gl11omega"):
        yield algebras.fa_presentation(key)
    yield frt.build_ar(catalog("ac"))


def _engine_report(name, check, presentations):
    """One check per presentation: whether ``check`` of it passes."""
    rep = CheckReport(name)
    for pres in presentations:
        r = check(pres)
        rep.record(r.ok, (pres.name, r.failures[:2]))
    return rep


@_check("engine/overlaps", "all catalog rewrite systems resolve their overlaps")
def _chk_overlaps(ctx):
    return _engine_report("overlaps", overlap_check, _catalog_presentations())


@_check("engine/associativity", "randomized associativity probes")
def _chk_associativity(ctx):
    """Probes of the presentations with unoriented rules, the four function
    algebras with inverses, whose overlap check proves confluence only up to
    the step cap; the others have an overlap check that proves it."""
    rng = ctx["rng"]
    return _engine_report("associativity", lambda p: associativity_probes(p, 60, rng),
                          (p for p in _catalog_presentations() if p.unoriented))


def _residues(rows, what):
    """:func:`smat.residues` of a Scalar matrix in row form; ValueError
    naming an entry without one, a general value or one at a pole."""
    out = smat.residues(rows)
    bad = [(i, j) for i, pairs in enumerate(out) for j, r in pairs if r is None]
    if bad:
        raise ValueError(f"{what} entry {bad[0]} has no residue at the prime point")
    return out


@_check("engine/numeric-spot", "exact confirmation modulo a prime at the prime point")
def _chk_numeric(ctx):
    """Re-confirm two exact identities modulo the prime ``scalars.MODULUS``
    at the prime point (:func:`smat.residues`): evaluation at a point is a
    ring homomorphism away from poles, so they hold between the residues."""
    rep = CheckReport("numeric-spot")
    got = _residues(reps.universal_r_eval((1, 0), (1, 0)).rows, "universal R")
    rep.record(smat.meq(got, _residues(catalog("ac").rows, "ac")), ("canonical", "ac"))
    for nm in ("ac", "omega"):
        R = catalog(nm)
        r12, r13, r23 = (_residues(smat.embed_rows(R.rows, (R.n,) * 3, (R.p,) * 3, pr), nm)
                         for pr in smat.LEGS)
        rep.record(smat.meq(smat.mod_mmul(smat.mod_mmul(r12, r13), r23),
                            smat.mod_mmul(smat.mod_mmul(r23, r13), r12)), ("qybe", nm))
    return rep


_BY_ID = {c.id: c for c in CHECKS}
SUITES = {"all": [c.id for c in CHECKS]}
for c in CHECKS:
    SUITES.setdefault(c.suite, []).append(c.id)


def _resolve(suite):
    """The checks that ``suite`` names, a comma-separated list of suite names
    and check ids: each check once, in its first position."""
    ids = []
    for tok in suite.split(","):
        tok = tok.strip()
        if tok in SUITES:
            ids.extend(SUITES[tok])
        elif tok in _BY_ID:
            ids.append(tok)
        else:
            raise UnknownCheck(tok)
    return [_BY_ID[i] for i in dict.fromkeys(ids)]


def list_checks(filter_text="") -> str:
    lines = []
    for c in CHECKS:
        if filter_text in c.id or filter_text in c.anchor:
            lines.append(f"{c.id:32s} [{c.expected}] {c.anchor}")
    return "\n".join(lines)


def _user_rmatrix(text) -> CheckDescriptor:
    """The check of a user R-matrix, given as the text of its JSON file."""
    def check(ctx):
        R = rmatlab.rmatrix_from_json(text)
        return _bool_report("user-rmatrix", [(qybe_check(R), "braid relation has a nonzero residual")])
    return CheckDescriptor("user/rmatrix", "user-supplied R-matrix satisfies the (graded) YBE",
                           check, error_anchor="user-supplied R-matrix")


def _row(c: CheckDescriptor, ctx) -> dict:
    """Run one check: its verdict, time, rewrite steps and first failure."""
    t0 = time.perf_counter()
    s0 = STATS["steps"]
    residual = None
    try:
        rep = c.fn(ctx)
        verdict = "pass" if rep.ok else "fail"
        if rep.failures:
            residual = str(rep.failures[0])
    except Exception as exc:  # engine error: report, keep going
        verdict = "error"
        residual = f"{type(exc).__name__}: {exc}"
    anchor = c.error_anchor if verdict == "error" and c.error_anchor else c.anchor
    row = {"id": c.id, "anchor": anchor, "verdict": verdict,
           "millis": int(1000 * (time.perf_counter() - t0)), "steps": STATS["steps"] - s0}
    if residual is not None:
        row["residual"] = residual
    return row


def run(suite="all", format="text", seed=0, labels=None, extra_rmatrix=None, out=None):
    """Execute a suite, then the user R-matrix if given; returns (results, exit_code)."""
    descs = sorted(_resolve(suite), key=lambda c: c.id)
    if extra_rmatrix is not None:
        descs.append(_user_rmatrix(extra_rmatrix))
    results = []
    code = 0
    for c in descs:
        row = _row(c, {"rng": random.Random(seed), "labels": labels})
        results.append(row)
        if row["verdict"] == "error":
            code = 2
        elif code != 2 and (row["verdict"] == "pass") != (c.expected == "pass"):
            code = 1
    text = _render(results, format)
    print(text, file=out or sys.stdout)
    return results, code


def _render(results, format):
    if format == "json":
        return json.dumps(results, indent=2)
    lines = []
    for r in results:
        line = f"{r['id']:32s} {r['verdict']:5s} {r['millis']:6d} ms " \
               f"{r['steps']:9d} steps"
        if "residual" in r:
            line += f"  {r['residual']}"
        lines.append(line)
    return "\n".join(lines)


def _labels_arg(text):
    """argparse type of ``--labels``: "m1,m2[,m1',m2',...]" -> list of int."""
    try:
        labels = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None
    if len(labels) % 2:
        raise argparse.ArgumentTypeError(f"expected pairs m1,m2, got {text!r}")
    return labels


def main(argv=None):
    # run as the command, on sys.argv: a closed stdout, as in ``qgw list |
    # head -1``, ends the process quietly by SIGPIPE, as it ends cat, where
    # Python would raise BrokenPipeError; an in-process caller keeps its own
    if argv is None and hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    ap = argparse.ArgumentParser(prog="qgw")
    sub = ap.add_subparsers(dest="cmd", required=True)
    rp = sub.add_parser("run", help="execute a check suite")
    rp.add_argument("--suite", default="all")
    rp.add_argument("--format", choices=("text", "json"), default="text")
    rp.add_argument("--seed", type=int, default=0,
                    help="draws the engine/associativity probes, and nothing else")
    rp.add_argument("--labels", type=_labels_arg, default=None,
                    help="m1,m2[,m1',m2'] integer label override")
    rp.add_argument("--rmatrix", default=None,
                    help="path to a serialized R-matrix to verify")
    lp = sub.add_parser("list", help="list check descriptors")
    lp.add_argument("filter", nargs="?", default="")
    # argparse reads a token that starts with "-", such as the labels -1,2,
    # as an option, so the token after --labels is joined to it as its value
    tokens, argv = iter(sys.argv[1:] if argv is None else argv), []
    for tok in tokens:
        argv.append(f"--labels={next(tokens, '')}" if tok == "--labels" else tok)
    args = ap.parse_args(argv)

    if args.cmd == "list":
        print(list_checks(args.filter))
        return 0
    extra = None
    if args.rmatrix:
        try:
            with open(args.rmatrix, encoding="utf-8") as fh:
                extra = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read {args.rmatrix}: {exc}", file=sys.stderr)
            return 2
    try:
        _, code = run(suite=args.suite, format=args.format, seed=args.seed,
                      labels=args.labels, extra_rmatrix=extra)
    except UnknownCheck as exc:
        print(f"unknown check or suite: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
