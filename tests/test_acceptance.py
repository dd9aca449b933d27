"""Acceptance gate: one test per headline criterion, one verdict line each.

Every test prints "ACCEPT <name>: PASS|FAIL" (visible with pytest -s or in
captured output on failure) and asserts the criterion.  Run order follows
the build layers; everything is exact arithmetic unless stated.
"""

import random
import time

from conftest import dense_eq, dense_smul, to_dense
from test_algebras import FA_RELATIONS, fa_z2_hopf, paper_rules

from qgw import smat
from qgw.algebras import (FA_GRID, ansatz, fa_hopf, fa_presentation, theta_iso_for,
                          theta_map, uq_hopf, uq_omega_hopf, uq_presentation,
                          uqgl11_hopf, uqgl11_omega_hopf)
from qgw.exterior import (bosonic_action, covariance_check, gl_coaction_check,
                          omega_build, super_action)
from qgw.frt import ar_hopf, build_ar, frt_relation_check, generator_grid, qdet_check
from qgw.hopfcore import (casimir_central_check, check_hopf_axioms, coproduct,
                          superize, theta_iso_check, z2_extend)
from qgw.gtensor import TensorElement
from qgw.ncalg import associativity_probes, overlap_check
from qgw.reps import (quasitriangularity_check, rep_build, ribbon_check,
                      twist_check, universal_r_eval)
from qgw.rmatlab import catalog, hecke_check, qybe_check, superize_r, sybe_check
from qgw.scalars import (MODULUS, ONE, Scalar, prime_point, prime_point_residue, qvar,
                         sign_pow)


def _verdict(name, ok, detail=""):
    line = f"ACCEPT {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_accept_1_ybe_hecke_battery():
    ok = True
    for spec in (("ac",), ("omega",), ("std_gl", 2), ("std_gl", 3)):
        R = catalog(*spec)
        ok = ok and qybe_check(R) and hecke_check(R)
    ok = ok and sybe_check(catalog("super_ac"))
    for n, m in ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)):
        ok = ok and sybe_check(catalog("super_glnm", n, m))
    _verdict("ybe-hecke-battery", ok)


def test_accept_2_frt_recovery():
    ok = True
    detail = ""
    cases = (("standard", ("ac",)), ("super", ("super_ac",)),
             ("omega", ("omega",)), ("super-omega", ("super_omega",)))
    for which, spec in cases:
        R = catalog(*spec)
        plus, minus = ansatz(which)
        checked = 0
        for L1, L2 in ((plus, plus), (plus, minus), (minus, minus)):
            rep = frt_relation_check(R, L1, L2)
            checked += rep.checked
            if not rep.ok:
                ok, detail = False, f"{which}: {rep.failures[0]}"
        ok = ok and checked == 48
    # the compiled quotient has the paper's relations of the function algebra
    p = build_ar(catalog("ac"), names=[["a", "b"], ["c", "d"]])
    ok = ok and p.rules == paper_rules(FA_RELATIONS["ac"])
    _verdict("frt-recovery", ok, detail)


def test_accept_3_quasitriangularity_grid():
    grid = [(m1, m2) for m1 in (0, 1, 2) for m2 in (0, 1, 2)
            if m1 + m2 != 0]
    rng = random.Random(0)
    triples = {tuple(rng.choice(grid) for _ in range(3)) for _ in range(14)}
    ok = True
    detail = ""
    count = 0
    for tri in sorted(triples):
        if count >= 12:
            break
        rep = quasitriangularity_check(*tri, which="standard")
        count += 1
        if not rep.ok:
            ok, detail = False, f"{tri}: {rep.failures[0]}"
    ok = ok and count >= 10
    _verdict("quasitriangularity-grid", ok, detail)


def _rank_two_at(t):
    z = Scalar(0)
    return [[t, z, z, z],
            [z, ONE, t - ONE / t, z],
            [z, z, ONE, z],
            [z, z, z, -ONE / t]]


def test_accept_4_reconstruction():
    q = qvar()
    ok = universal_r_eval((1, 0), (1, 0)) == catalog("ac")
    detail = ""
    for m1, m2 in ((1, 0), (2, 1), (1, 1), (0, 1)):
        t = sign_pow(m2) * q ** (m1 + m2)
        # the reparametrized solution appears times a uniform monomial
        # q^((m1+m2)(m1-m2-1)), which is 1 exactly when m1 - m2 = 1
        pref = q ** ((m1 + m2) * (m1 - m2 - 1))
        want = dense_smul(pref, _rank_two_at(t))
        got = universal_r_eval((m1, m2), (m1, m2))
        if not dense_eq(got.m, want):
            ok, detail = False, f"label ({m1},{m2})"
        if m1 - m2 == 1 and pref != ONE:
            ok, detail = False, "prefactor should be trivial"
    _verdict("reconstruction", ok, detail)


def test_accept_5_ribbon():
    ok = True
    detail = ""
    for lab in ((1, 0), (2, 1), (1, 1), (0, 1)):
        rep = ribbon_check(lab)
        if not rep.ok:
            ok, detail = False, f"{lab}: {rep.failures[0]}"
    _verdict("ribbon", ok, detail)


def test_accept_6_superization_equivalence():
    ok = True
    detail = ""
    for bos, sup in ((uq_hopf, uqgl11_hopf),
                     (uq_omega_hopf, uqgl11_omega_hopf)):
        hs, hg = superize(bos()), sup()
        for x in hg.pres.by_name:
            if hs.delta[x].terms != hg.delta[x].terms \
                    or hs.antipode_map[x].terms != hg.antipode_map[x].terms \
                    or hs.counit_map[x] != hg.counit_map[x]:
                ok, detail = False, f"{sup.__name__}:{x}"
        rep = check_hopf_axioms(hg)
        if not rep.ok:
            ok, detail = False, str(rep.failures[0])
    _verdict("superization-equivalence", ok, detail)


def test_accept_7_matrix_superization_iso():
    ok = True
    detail = ""
    checked = []
    col2 = {"a": 0, "b": 1, "c": 0, "d": 1, "ai": 0, "di": 1, "g": 0}
    pairs = (("ac", "gl11"), ("omega", "gl11omega"))
    for src, tgt in pairs:
        aR = superize(fa_z2_hopf(src))
        aRbar = fa_z2_hopf(tgt)
        rep = theta_iso_check(aR, aRbar, theta_map(aR.pres, aRbar, col2),
                              theta_map(aRbar.pres, aR, col2))
        checked.append(rep.checked)
        if not rep.ok:
            ok, detail = False, f"{src}: {rep.failures[0]}"
    p = (0, 0, 1)
    parity = {f"t{i}{j}": (p[i - 1] + p[j - 1]) % 2
              for i in range(1, 4) for j in range(1, 4)}
    col3 = {f"t{i}{j}": p[j - 1] for i in range(1, 4) for j in range(1, 4)}
    col3["g"] = 0
    aR = superize(z2_extend(ar_hopf(catalog("glnm", 2, 1)), parity))
    aRbar = z2_extend(ar_hopf(catalog("super_glnm", 2, 1)), parity)
    rep = theta_iso_check(aR, aRbar, theta_map(aR.pres, aRbar, col3),
                          theta_map(aRbar.pres, aR, col3))
    checked.append(rep.checked)
    if not rep.ok:
        ok, detail = False, f"gl(2|1): {rep.failures[0]}"
    # the same cases with the grading and the twist derived from p
    R = catalog("glnm", 2, 1)
    h = ar_hopf(R)
    derived = [theta_iso_for(fa_hopf(src), fa_hopf(tgt), FA_GRID, (0, 1)) for src, tgt in pairs]
    derived.append(theta_iso_for(h, ar_hopf(superize_r(R, p)), generator_grid(h.pres, R.n), p))
    if not all(r.ok for r in derived):
        ok, detail = False, f"theta_iso_for: {[r.failures[:1] for r in derived]}"
    if checked != [r.checked for r in derived] or checked != [80, 80, 140]:
        ok, detail = False, f"sub-checks {checked}, derived {[r.checked for r in derived]}"
    _verdict("matrix-superization-iso", ok, detail)


def test_accept_8_determinant_suite():
    h = uq_hopf()
    pres = h.pres
    q = qvar()
    D = pres.word("K1", "K2")
    ok = casimir_central_check(h, D, anticommuting=("Xp", "Xm")).ok
    ok = ok and casimir_central_check(h, D * D).ok
    ok = ok and coproduct(D, h) == TensorElement(
        pres, 2, {(("K1", "K2"), ("K1", "K2")): ONE})
    for lab, val in (((1, 0), q * q), ((-1, 0), ONE / (q * q))):
        img = rep_build(lab).evaluate(D * D)
        ok = ok and smat.meq(img, smat.smul(val, smat.eye(2)))
    # the negative check: D itself must NOT be central
    ok = ok and not casimir_central_check(h, D).ok
    from qgw.algebras import fa_hopf
    ok = ok and qdet_check(fa_hopf("gl11")).ok
    ok = ok and qdet_check(fa_hopf("gl11omega")).ok
    _verdict("determinant-suite", ok)


def test_accept_9_twisting():
    ok = twist_check((1, 0), (2, 1), (1, 1), super_side=False).ok
    ok = ok and twist_check((1, 0), (2, 1), (1, 1), super_side=True).ok
    ok = ok and universal_r_eval((1, 0), (1, 0), which="omega") \
        == catalog("omega")
    for build in (uq_omega_hopf, uqgl11_omega_hopf):
        ok = ok and check_hopf_axioms(build()).ok
    _verdict("twisting", ok)


def test_accept_10_exterior_suite():
    ok = True
    detail = ""
    rng = random.Random(2)
    for spec in (("std_gl", 2), ("std_gl", 3), ("ac",)):
        om = omega_build(catalog(*spec))
        d = om.differential
        names = list(om.pres.by_name)
        for _ in range(20):
            w = tuple(rng.choice(names) for _ in range(rng.randint(1, 4)))
            if d(d(om.pres.monomial(w))):
                ok, detail = False, f"d2 {spec} {w}"
        x1 = om.x(1)
        e2 = om.x(min(2, om.n)) * om.dx(1)
        if d(x1 * e2) != d(x1) * e2 + x1 * d(e2):
            ok, detail = False, f"leibniz {spec}"
        for table in (bosonic_action(om), super_action(om)):
            rep = covariance_check(table)
            if not rep.ok:
                ok, detail = False, f"{spec} {table.tag}: {rep.failures[0]}"
        rep = gl_coaction_check(om)
        if not rep.ok:
            ok, detail = False, f"coaction {spec}: {rep.failures[0]}"
    _verdict("exterior-suite", ok, detail)


def test_accept_11_engine_health():
    ok = True
    detail = ""
    t0 = time.time()
    cases = [uq_presentation(), uq_presentation(graded=True)] \
        + [fa_presentation(k) for k in ("ac", "gl11", "omega", "gl11omega")] \
        + [build_ar(catalog("ac"))]
    for pres in cases:
        rep = overlap_check(pres)
        rep.merge(associativity_probes(pres, 1000, random.Random(4)))
        if not rep.ok:
            ok, detail = False, f"{pres.name}: {rep.failures[0]}"
    # spot checks modulo MODULUS at three pseudo-random q
    rng = random.Random(13)
    for _ in range(3):
        q = rng.randint(2, MODULUS - 2)
        point = (q, *prime_point()[1:])
        mul = lambda a, b: [[sum(a[i][k] * b[k][j] for k in range(len(a))) % MODULUS
                             for j in range(len(a))] for i in range(len(a))]

        def ev(m):
            out = [[prime_point_residue(x, point) for x in row] for row in m]
            assert all(None not in row for row in out), f"an entry has no residue at q={q}"
            return out

        bad = [] if ev(universal_r_eval((1, 0), (1, 0)).m) == ev(catalog("ac").m) else ["canonical"]
        for nm in ("ac", "omega"):
            R = catalog(nm)
            legs = {pr: ev(to_dense(smat.embed_rows(R.rows, (R.n,) * 3, (R.p,) * 3, pr)))
                    for pr in ((0, 1), (0, 2), (1, 2))}
            if mul(mul(legs[(0, 1)], legs[(0, 2)]), legs[(1, 2)]) \
                    != mul(mul(legs[(1, 2)], legs[(0, 2)]), legs[(0, 1)]):
                bad.append(f"qybe {nm}")
        if bad:
            ok, detail = False, f"{bad} at q={q}"
    _verdict("engine-health", ok, f"{detail} [{time.time() - t0:.0f}s]")
