"""The benchmark's correctness checks must catch wrong answers.

No timing here.  Each check is fed a right answer, which it must accept,
and a wrong one (a changed coefficient, a wrong verdict, a wrong relation
count), which it must report.
"""

import itertools
import json
import os
import random
from fractions import Fraction

import pytest

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
Q = Fraction(3, 2)
C = "1/(q - 1/q)"
# Xm Xp rewrites to Xp Xm - c K1 K2 + c K1i K2i in the enveloping algebra
XMXP_NF = {("Xp", "Xm"): "1", ("K1", "K2"): f"-{C}", ("K1i", "K2i"): C}


def test_evaluate_in_fractions_and_complex():
    assert checks.evaluate("q - 1/q", Q) == Fraction(5, 6)
    assert checks.evaluate("2*q^(-2)/3 + 1", Fraction(2)) == Fraction(7, 6)
    assert abs(checks.evaluate("q**2", 1j) + 1) < 1e-15
    with pytest.raises(ValueError):
        checks.evaluate("__import__('os')", Q)


def test_irreducible_check_finds_a_rule_left_hand_side():
    lhs = {("b", "a")}
    assert checks.irreducible_error([("a", "b"), ("a",)], lhs) is None
    assert checks.irreducible_error([("a", "b", "a")], lhs) is not None


@pytest.mark.parametrize("label", [(1, 0), (2, 1), (-1, 0), (0, 2)])
def test_representation_check_accepts_the_normal_form(label):
    images = checks.uq_images(Q, *label)
    assert checks.rep_error(images, XMXP_NF, ("Xm", "Xp"), "1", Q) is None
    assert checks.rep_error(images, {("Xm", "Xp"): "3*q"}, ("Xm", "Xp"), "3*q", Q) is None


def test_representation_check_reports_a_changed_coefficient():
    images = checks.uq_images(Q, 2, 1)
    for word in XMXP_NF:
        wrong = dict(XMXP_NF)
        wrong[word] = f"({wrong[word]})*q"
        assert checks.rep_error(images, wrong, ("Xm", "Xp"), "1", Q) is not None
    assert checks.rep_error(images, XMXP_NF, ("Xm", "Xp"), "2", Q) is not None


def test_representation_images_satisfy_every_rule_of_qgw():
    pytest.importorskip("sympy")
    from qgw import algebras
    from qgw.scalars import render

    for graded in (False, True):
        pres = algebras.uq_presentation(graded=graded)
        for label in [(1, 0), (2, -1), (0, 1)]:
            images = checks.uq_images(Q, *label)
            for lhs, rhs in pres.rules.items():
                terms = {w: render(c) for w, c in rhs.items()}
                assert checks.rep_error(images, terms, lhs, "1", Q) is None, (lhs, label)


def test_character_check_reports_a_changed_coefficient():
    values = {"a": Fraction(2), "ai": Fraction(1, 2), "d": Fraction(3), "di": Fraction(1, 3)}
    nf = {("ai", "di"): "q", ("ai", "ai", "b", "c", "di", "di"): "q - 1/q"}
    assert checks.character_error(values, nf, ("di", "ai"), "q", Q) is None
    nf[("ai", "di")] = "q^2"
    assert checks.character_error(values, nf, ("di", "ai"), "q", Q) is not None


def test_braid_verdicts_follow_the_floating_point_reference():
    qc = 0.9 + 0.35j
    for n, m in [(1, 1), (2, 1), (1, 3)]:
        for sup in (False, True):
            spec = checks.glnm_spec(n, m, sup, {(0, 1): 2})
            R = checks.spec_numeric(spec, qc)
            assert checks.braid_holds(R, n + m, spec["p"]) is True
            assert checks.verdict_error("ybe", True, True) is None
            assert checks.verdict_error("ybe", False, True) is not None
            assert checks.hecke_holds(R, n + m, qc) is (not sup)
    bosonic = checks.glnm_spec(2, 1, False)
    R = checks.spec_numeric(bosonic, qc)
    assert checks.braid_holds(R, 3, [0, 0, 1]) is False  # grading without superization


def test_every_corrupted_copy_breaks_the_braid_relation():
    rng = random.Random(0)
    qc = 0.85 + 0.3j
    for n, m, sup in [(1, 1, False), (2, 1, False), (1, 1, True), (1, 2, True)]:
        d = n + m
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        for _ in range(4):
            spec = checks.glnm_spec(n, m, sup, {p: rng.randint(-2, 2) for p in pairs})
            for pos, k in itertools.product(sorted(spec["entries"]), (1, 2, 3)):
                R = checks.spec_numeric(checks.corrupt_spec(spec, pos, k), qc)
                assert checks.braid_holds(R, d, spec["p"]) is False, (n, m, sup, pos, k)


def test_spec_entries_render_for_the_json_loader():
    spec = checks.glnm_spec(1, 1, False, {(0, 1): 1})
    texts = {(r, c): t for r, c, t in checks.spec_json_entries(spec)}
    assert checks.evaluate(texts[(1, 1)], Q) == Q          # omega: q on (12,12)
    assert checks.evaluate(texts[(1, 2)], Q) == Q - 1 / Q
    assert checks.evaluate(texts[(3, 3)], Q) == -1 / Q


def test_universal_r_closed_forms_agree_and_catch_a_wrong_entry():
    qc = 0.8 + 0.4j
    for lab in [(1, 0), (2, 1), (0, 1), (2, -1)]:
        want = checks.canonical_numeric(qc, *lab)
        got = checks.universal_r_numeric(qc, lab, lab)
        assert checks.matrix_error("R", got, want) is None
        got[1, 2] += 0.5
        assert checks.matrix_error("R", got, want) is not None
    r12 = checks.universal_r_numeric(qc, (1, 0), (2, 1))
    r13 = checks.universal_r_numeric(qc, (1, 0), (0, 2))
    r23 = checks.universal_r_numeric(qc, (2, 1), (0, 2))
    assert checks.braid_holds(r12, 2, (0, 0), R13=r13, R23=r23) is True
    assert checks.braid_holds(r12, 2, (0, 0), R13=r13, R23=r13) is False


def test_relation_counts():
    assert checks.ar_rule_count(1, 1) == 8
    assert checks.ar_rule_count(2, 1) == 40
    assert checks.ar_rule_count(2, 0) == 6
    assert checks.omega_rule_count(2) == 8
    assert checks.omega_rule_count(3) == 18
    assert checks.count_error("A(R)", 40, checks.ar_rule_count(1, 2)) is None
    assert checks.count_error("A(R)", 41, checks.ar_rule_count(1, 2)) is not None
    assert checks.count_error("Omega", 9, checks.omega_rule_count(2)) is not None


def test_suite_check_reports_a_wrong_verdict():
    pytest.importorskip("sympy")
    import workloads

    ops = {op.name: op for op in workloads.suite_batch(None, random.Random(0))}
    assert len(ops) == 28
    neg = ops["sec4/determinant-noncentral"]
    assert neg.verify(([{"verdict": "fail"}], 0)) is None
    assert neg.verify(([{"verdict": "pass"}], 0)) is not None
    pos = ops["sec2/qybe"]
    assert pos.verify(([{"verdict": "pass"}], 0)) is None
    assert pos.verify(([{"verdict": "error"}], 2)) is not None
    assert pos.verify(([{"verdict": "pass"}], 1)) is not None


def test_traced_metrics_match_the_benchmark_description():
    pytest.importorskip("sympy")
    import tracing
    from qgw import cli

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer"]]
    assert names == tracing.metric_names([c.id for c in cli.CHECKS])
    assert [w["name"] for w in spec["workloads"]] == ["suite", "algebra", "braid", "build"]
