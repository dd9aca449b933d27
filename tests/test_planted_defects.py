"""Planted defects in the matrix layer, the shared exact elimination, the
representations, the l+/l- ansatz, the R-matrix checks and catalog, the
tensor product, the redex test and the native fractions, each caught by the
suite; together they change every row.

Each case copies the qgw package to a temporary folder, replaces one text
in one module (the anchor must occur there exactly once), runs a cold
``qgw run --suite all --seed 0 --format json`` on the copy, and compares
its verdicts with tests/golden_suite.json.  The rows whose verdict changes
must be exactly the listed ones, and each of them must fail or give an
error: a defect that no row notices, or that a refactor moves out of the
rows' reach, fails its case.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qgw"
GOLDEN = Path(__file__).parent / "golden_suite.json"

DEFECTS = {
    "embed_rows without its Koszul sign": (
        "smat.py", "odd = -x if cross else x", "odd = x",
        {"prop3.1/superizable", "sec4/glnm-ybe", "thm2.2/quasitriangularity"}),
    "kron_rows without its sign": (
        "smat.py", "ra = [(k, -x if deg_b and pa[k] else x) for k, x in ra]", "ra = list(ra)",
        {"sec3/super-r", "thm2.2/quasitriangularity"}),
    # every sum of scaled matrices, the Hecke shifts and forms among them
    "lincomb adding with ONE": (
        "smat.py", "_add_scaled(row, c, dict(pairs))", "_add_scaled(row, ONE, dict(pairs))",
        {"sec2/duality", "sec3/super-duality", "engine/numeric-spot", "prop2.4/ribbon",
         "prop2.5/canonical", "prop5.1/twisting", "sec2/tensor-decomposition",
         "sec3/super-r", "sec4/determinant", "sec5/super-twisting",
         "thm2.2/quasitriangularity", "sec2/qybe", "sec5/hecke", "prop5.2/exterior"}),
    # ncalg.echelon compiles every presentation and inverts every matrix
    "echelon pivot without its sign": (
        "ncalg.py", "c = -row.pop(lead)", "c = row.pop(lead)",
        {"def2.1/hopf-axioms", "engine/associativity", "engine/numeric-spot",
         "engine/overlaps", "prop2.4/ribbon", "prop2.5/canonical", "prop3.2/superization",
         "prop5.1/twisting", "prop5.2/exterior", "sec2/casimirs", "sec2/duality", "sec2/frt",
         "sec2/tensor-decomposition", "sec3/super-duality", "sec3/super-frt", "sec3/super-r",
         "sec4/determinant", "sec4/determinant-noncentral", "sec4/superdeterminant",
         "sec5/omega-frt", "sec5/omega-hopf", "sec5/super-twisting",
         "thm2.2/quasitriangularity", "thm4.1/superization-iso"}),
    "echelon without back-substitution": (
        "ncalg.py", "for w in [w for w in rhs if w in solved]:", "for w in []:",
        {"engine/associativity", "engine/overlaps", "prop2.4/ribbon", "sec2/duality",
         "sec3/super-duality", "sec4/superdeterminant", "thm4.1/superization-iso"}),
    # sec2/duality and sec3/super-duality cannot see this one: the exchange
    # relations they check are homogeneous in the minus matrices
    "inverse read without its minus sign": (
        "smat.py", "[(j - n, -x) for j, x in", "[(j - n, x) for j, x in",
        {"prop2.4/ribbon", "prop5.1/twisting", "sec5/super-twisting"}),
    "_CHI's Q ((0, 0), (1, 1)) -> ((0, 0), (1, 0))": (
        "reps.py", "_CHI = _Form(((0, 0), (1, 1)))", "_CHI = _Form(((0, 0), (1, 0)))",
        {"prop5.1/twisting", "sec5/super-twisting"}),
    "_RIBBON's -1 -> 1": (
        "reps.py", "_RIBBON = _Form(((-1, 0), (0, 1)), _SIGN)",
        "_RIBBON = _Form(((1, 0), (0, 1)), _SIGN)",
        {"prop2.4/ribbon"}),
    "_Form.at without its sign part": (
        "reps.py", "return value if self.S is None else sign_pow(pair(self.S)) * value",
        "return value",
        {"engine/numeric-spot", "prop2.4/ribbon", "prop2.5/canonical", "prop5.1/twisting",
         "thm2.2/quasitriangularity"}),
    # the one runtime verification of the representations, on the symbolic
    # weights, refuses every Rep: each row that builds one gives an error
    "Rep image of Xp times q": (
        "reps.py", '"Xp": [[(1, c)], []]', '"Xp": [[(1, c * q)], []]',
        {"engine/numeric-spot", "prop2.4/ribbon", "prop2.5/canonical", "prop5.1/twisting",
         "sec2/tensor-decomposition", "sec3/super-r", "sec4/determinant",
         "sec5/super-twisting", "thm2.2/quasitriangularity"}),
    # a wrong group-like on a diagonal of an ansatz, which its Hopf structure
    # is read off: the Hopf-axiom row fails as well as the FRT row
    "standard l+_22 K2i -> K2": (
        "algebras.py", '[m(("Xp",), w), m(("K2i",))]]', '[m(("Xp",), w), m(("K2",))]]',
        {"def2.1/hopf-axioms", "sec2/frt", "prop2.4/ribbon", "prop3.2/superization",
         "prop5.1/twisting", "sec2/tensor-decomposition", "thm2.2/quasitriangularity"}),
    "omega l-_22 K1 K2 -> K1 K2i": (
        "algebras.py", '[z, m(("K1", "K2"))]]', '[z, m(("K1", "K2i"))]]',
        {"sec5/omega-hopf", "sec5/omega-frt", "prop3.2/superization", "prop5.1/twisting"}),
    "super l+_22 K2i g -> K2 g": (
        "algebras.py", '[m(("Xp",), w), m(("K2i", "g"))]]', '[m(("Xp",), w), m(("K2", "g"))]]',
        {"def2.1/hopf-axioms", "sec3/super-frt", "prop3.2/superization",
         "sec5/super-twisting", "thm2.2/quasitriangularity"}),
    "super-omega l-_11 K1i K2i g -> K1 K2i g": (
        "algebras.py", 'minus = [[m(("K1i", "K2i", "g")), m(("K2i", "Xm"), w)],',
        'minus = [[m(("K1", "K2i", "g")), m(("K2i", "Xm"), w)],',
        {"sec5/omega-hopf", "sec5/omega-frt", "prop3.2/superization", "sec5/super-twisting"}),
    # the Hecke relation (PR - q)(PR + 1/q) = 0 and its contracted form
    "hecke_check shift 1/q -> q": (
        "rmatlab.py", "_shifted(pr, ONE / q))", "_shifted(pr, q))",
        {"prop5.2/exterior", "sec2/qybe", "sec5/hecke"}),
    "hecke_identity_check with 1/q - q": (
        "rmatlab.py", "(q - ONE / q, rows)", "(ONE / q - q, rows)",
        {"sec2/qybe", "sec5/hecke"}),
    "ac corner -1/q -> -q": (
        "rmatlab.py", '[0, 0, ONE, 0], [0, 0, 0, -ONE / q]], name="ac")',
        '[0, 0, ONE, 0], [0, 0, 0, -q]], name="ac")',
        {"engine/associativity", "engine/numeric-spot", "engine/overlaps", "prop2.5/canonical",
         "prop3.1/superizable", "prop5.2/exterior", "sec2/duality", "sec2/frt", "sec2/qybe",
         "sec3/super-duality", "sec3/super-frt", "sec3/super-r", "sec4/superdeterminant",
         "sec5/hecke", "thm4.1/superization-iso"}),
    "omega middle 1/q -> q": (
        "rmatlab.py", '[0, 0, ONE / q, 0], [0, 0, 0, -ONE / q]], name="omega")',
        '[0, 0, q, 0], [0, 0, 0, -ONE / q]], name="omega")',
        {"engine/associativity", "engine/numeric-spot", "engine/overlaps", "prop5.1/twisting",
         "prop5.2/exterior", "sec4/superdeterminant", "sec5/hecke", "sec5/omega-frt",
         "thm4.1/superization-iso"}),
    "superize_r without its sign flip": (
        "rmatlab.py", "-x if p[a] and p[b] else x", "x",
        {"engine/associativity", "engine/overlaps", "prop3.1/superizable", "sec3/super-duality",
         "sec3/super-frt", "sec3/super-r", "sec4/glnm-ybe", "sec4/superdeterminant",
         "sec5/omega-frt", "thm4.1/superization-iso"}),
    "Omega_q(R) dx-x constant q -> 1/q": (
        "exterior.py", '("dx-x", dx, x, q)', '("dx-x", dx, x, ONE / q)',
        {"prop5.2/exterior"}),
    "qdet with + b d^-1 c d^-1": (
        "frt.py", "t.entry(1, 1) * di - t.entry(1, 2)", "t.entry(1, 1) * di + t.entry(1, 2)",
        {"sec4/superdeterminant"}),
    "uq_casimirs -1/2 -> -1": (
        "algebras.py", "-HALF / (q - ONE / q)", "-ONE / (q - ONE / q)",
        {"sec2/casimirs"}),
    # the redex test that lets monomial, word and tensor legs skip the
    # rewriter: a word whose redex is its first two letters passes as normal
    "irreducible scan from the second letter": (
        "ncalg.py", "_scan(self._follow, tuple(word), 0, todo, {})",
        "_scan(self._follow, tuple(word), 1, todo, {})",
        {"def2.1/hopf-axioms", "prop3.2/superization", "prop5.2/exterior", "sec3/super-frt",
         "sec4/superdeterminant", "sec5/omega-hopf", "thm4.1/superization-iso"}),
    # a two-term numerator can share a binomial factor with its denominator
    "_reduce shortcut for two-term numerators": (
        "scalars.py", "    if len(a) == 1:\n        return a, b",
        "    if len(a) <= 2:\n        return a, b",
        {"engine/associativity", "prop2.4/ribbon", "prop2.5/canonical", "prop5.1/twisting",
         "sec3/super-r", "thm2.2/quasitriangularity"}),
    # a defect in TensorElement.flip's Koszul sign changes no row: no
    # generator's coproduct has a term with two odd legs
    "tensor_mul without its Koszul sign": (
        "gtensor.py", "if sgn % 2:", "if False:",
        {"def2.1/hopf-axioms", "sec4/superdeterminant", "sec5/omega-hopf"}),
}


def test_every_row_can_fail():
    """Each of the suite's rows is changed by some defect of the table."""
    ids = {r["id"] for r in json.loads(GOLDEN.read_text())}
    assert set().union(*(rows for *_, rows in DEFECTS.values())) == ids


@pytest.mark.parametrize("name", list(DEFECTS))
def test_planted_matrix_defect_changes_its_rows(tmp_path, name):
    module, old, new, want = DEFECTS[name]
    shutil.copytree(SRC, tmp_path / "qgw", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "qgw" / module
    text = path.read_text()
    assert text.count(old) == 1, f"anchor not found once in {module}: {old!r}"
    path.write_text(text.replace(old, new))
    proc = subprocess.run(
        [sys.executable, "-m", "qgw.cli", "run", "--suite", "all", "--seed", "0",
         "--format", "json"],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)), capture_output=True, text=True,
        timeout=300, check=False)
    golden = {r["id"]: r["verdict"] for r in json.loads(GOLDEN.read_text())}
    rows = {r["id"]: r["verdict"] for r in json.loads(proc.stdout)}
    assert rows.keys() == golden.keys()
    changed = {k: v for k, v in rows.items() if v != golden[k]}
    assert changed.keys() == want, changed
    assert set(changed.values()) <= {"fail", "error"}, changed
