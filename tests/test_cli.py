import io
import json
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from sympy.polys.domains import QQ, QQ_I

from qgw import cli, reps, scalars
from qgw.rmatlab import RMatrix, catalog, rmatrix_from_json, rmatrix_to_json


def run_quiet(**kw):
    return cli.run(out=io.StringIO(), **kw)


def test_every_check_has_unique_id():
    ids = [c.id for c in cli.CHECKS]
    assert len(ids) == len(set(ids))
    assert "thm2.2/quasitriangularity" in ids
    assert "prop2.5/canonical" in ids
    assert "prop2.4/ribbon" in ids


def test_catalog_is_pinned():
    """Each check's id, suite (read off its id) and expected verdict, in the
    order the checks are declared."""
    fail = "fail-of-property"
    assert [(c.id, c.suite, c.expected) for c in cli.CHECKS] == [
        ("def2.1/hopf-axioms", "sec2", "pass"), ("sec2/qybe", "sec2", "pass"),
        ("thm2.2/quasitriangularity", "sec2", "pass"), ("sec2/casimirs", "sec2", "pass"),
        ("prop2.4/ribbon", "sec2", "pass"), ("prop2.5/canonical", "sec2", "pass"),
        ("sec2/frt", "sec2", "pass"), ("sec2/tensor-decomposition", "sec2", "pass"),
        ("sec2/duality", "sec2", "pass"), ("prop3.1/superizable", "sec3", "pass"),
        ("prop3.2/superization", "sec3", "pass"), ("sec3/super-r", "sec3", "pass"),
        ("sec3/super-frt", "sec3", "pass"), ("sec3/super-duality", "sec3", "pass"),
        ("sec4/glnm-ybe", "sec4", "pass"), ("thm4.1/superization-iso", "sec4", "pass"),
        ("sec4/determinant", "sec4", "pass"), ("sec4/determinant-noncentral", "sec4", fail),
        ("sec4/superdeterminant", "sec4", "pass"), ("sec5/hecke", "sec5", "pass"),
        ("prop5.1/twisting", "sec5", "pass"), ("sec5/super-twisting", "sec5", "pass"),
        ("sec5/omega-hopf", "sec5", "pass"), ("sec5/omega-frt", "sec5", "pass"),
        ("prop5.2/exterior", "sec5", "pass"), ("engine/overlaps", "engine", "pass"),
        ("engine/associativity", "engine", "pass"), ("engine/numeric-spot", "engine", "pass")]
    assert cli._user_rmatrix("{}").suite == "user"


def test_suites_partition_catalog():
    grouped = sum((cli.SUITES[s] for s in ("sec2", "sec3", "sec4", "sec5",
                                           "engine")), [])
    assert sorted(grouped) == sorted(cli.SUITES["all"])


def test_list_checks_filter():
    assert "prop2.4/ribbon" in cli.list_checks("ribbon")
    assert cli.list_checks("nosuchcheck") == ""
    assert len(cli.list_checks("").splitlines()) == len(cli.CHECKS)


def test_unknown_check():
    with pytest.raises(cli.UnknownCheck):
        run_quiet(suite="sec9/nope")


def test_run_small_suite_json():
    results, code = run_quiet(suite="sec2/qybe,prop3.1/superizable",
                              format="json", seed=3)
    assert code == 0
    assert [r["id"] for r in results] == ["prop3.1/superizable", "sec2/qybe"]
    for r in results:
        assert r["verdict"] == "pass"
        assert "millis" in r and "steps" in r
    # the rendered report round-trips through json
    assert json.loads(cli._render(results, "json")) == results


def test_a_check_named_twice_runs_once():
    results, _ = run_quiet(suite="sec2/qybe,sec2/qybe,sec2", format="json")
    ids = [r["id"] for r in results]
    assert ids == sorted(set(ids)) == sorted(cli.SUITES["sec2"])


def test_negative_descriptor_expected_failure():
    results, code = run_quiet(suite="sec4/determinant-noncentral", seed=0)
    assert code == 0
    assert results[0]["verdict"] == "fail"
    assert "residual" in results[0]


_COLD_RUN = """
import io, json
from qgw import cli
rows, _ = cli.run(out=io.StringIO(), suite="engine/associativity,engine/numeric-spot", seed=9)
print(json.dumps([{k: v for k, v in r.items() if k != "millis"} for r in rows]))
"""


def test_determinism_for_fixed_seed():
    # each run in a fresh process pays the same cached builds (the U_q
    # presentation and its representations, rewrite steps of the first
    # row), whatever ran before it in this one
    a, b = (json.loads(_fresh_python("-c", _COLD_RUN).stdout) for _ in range(2))
    assert [r["verdict"] for r in a] == ["pass", "pass"]
    assert a == b


def test_the_seed_draws_only_the_associativity_probes():
    """Fresh runs at two seeds give the same verdict, steps and residual on
    every row but engine/associativity, whose probes the seed draws."""
    runs = []
    for seed in ("0", "1"):
        proc = _fresh_python("-m", "qgw.cli", "run", "--suite", "all", "--seed", seed,
                             "--format", "json")
        assert proc.returncode == 0, proc.stderr
        runs.append({r["id"]: [r["verdict"], r["steps"], r.get("residual")]
                     for r in json.loads(proc.stdout)})
    a, b = runs
    assert a.pop("engine/associativity") != b.pop("engine/associativity")
    assert len(a) == len(cli.CHECKS) - 1 and a == b


def test_engine_rows_record_one_check_per_presentation():
    """engine/overlaps resolves the overlaps of the seven catalog
    presentations, and engine/associativity probes the four with unoriented
    rules, where no overlap check proves confluence."""
    overlaps = cli._chk_overlaps({"labels": None})
    probes = cli._chk_associativity({"rng": random.Random(0), "labels": None})
    assert (overlaps.ok, overlaps.checked, probes.ok, probes.checked) == (True, 7, True, 4)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
@pytest.mark.parametrize("args", [("list",), ("run", "--suite", "sec2/qybe")], ids=" ".join)
def test_a_closed_pipe_ends_the_command_quietly(args):
    """As in ``qgw list | head -1``: a reader that closes the pipe ends the
    command by SIGPIPE, with no traceback and not with exit 1 (a verdict
    mismatch).  The pipe is closed before the command writes, so that its
    first write meets a closed pipe, as a late write of ``head -1``'s may."""
    proc = subprocess.Popen([sys.executable, "-m", "qgw.cli", *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_fresh_env())
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == -signal.SIGPIPE and "Traceback" not in err, err


def test_only_the_associativity_check_reads_the_seed():
    for c in cli.CHECKS:
        if c.id != "engine/associativity":
            c.fn({"labels": None})  # KeyError on a read of ctx["rng"]


def test_exterior_checks_d2_on_each_generator(monkeypatch):
    """d^2 = 0 is checked on the generators x1..xn, dx1..dxn of each
    Omega_q(R), n = 2, 3, 2: once each, and nowhere else."""
    seen = []

    class Logged(cli.CheckReport):
        def record(self, ok, what):
            seen.append((ok, what))
            super().record(ok, what)

    monkeypatch.setattr(cli, "CheckReport", Logged)
    assert cli._chk_exterior({}).ok
    gens = [f"{d}x{i}" for n in (2, 3, 2) for d in ("", "d") for i in range(1, n + 1)]
    assert seen == [(True, ("d2", x)) for x in gens]


def test_user_rmatrix_pass_and_fail(tmp_path):
    good = rmatrix_to_json(catalog("super_ac"))
    _, code = run_quiet(suite="sec5/hecke", extra_rmatrix=good)
    assert code == 0

    bad = RMatrix(2, [[1, 0, 0, 0], [0, 2, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    results, code = run_quiet(suite="sec5/hecke",
                              extra_rmatrix=rmatrix_to_json(bad))
    assert code == 1
    assert results[-1]["id"] == "user/rmatrix"
    assert results[-1]["verdict"] == "fail"


def test_malformed_user_rmatrix_is_an_error_row():
    data = json.loads(rmatrix_to_json(catalog("ac")))
    data["entries"].append([-1, -1, "q"])  # would wrap to the last cell
    results, code = run_quiet(suite="sec2/qybe", extra_rmatrix=json.dumps(data))
    assert code == 2
    assert results[-1]["id"] == "user/rmatrix"
    assert results[-1]["verdict"] == "error"
    assert results[-1]["residual"].startswith("ValueError: entry [-1, -1, 'q']")


def test_user_rmatrix_entry_is_data_not_code(tmp_path):
    target = tmp_path / "written"
    data = json.loads(rmatrix_to_json(catalog("ac")))
    data["entries"][0][2] = f"open({str(target)!r}, 'w').write('x') + q"
    results, code = run_quiet(suite="sec2/qybe", extra_rmatrix=json.dumps(data))
    assert code == 2
    assert results[-1]["id"] == "user/rmatrix"
    assert results[-1]["verdict"] == "error"
    assert results[-1]["residual"].startswith("ValueError: unexpected 'open'")
    assert not target.exists()


def test_user_rmatrix_switches_field_to_qi(restore_field):
    # Every entry times i: both sides of the YBE are cubic in R, so it still
    # holds.  The suite runs over Q, then parsing the user R-matrix switches
    # the field to Q(i), and the braid check mixes Scalars of both fields.
    data = json.loads(rmatrix_to_json(catalog("glnm", 2, 1)))
    data["entries"] = [[r, c, f"i*({s})"] for r, c, s in data["entries"]]
    assert scalars._REG.domain is QQ
    results, code = run_quiet(suite="sec2/qybe",
                              extra_rmatrix=json.dumps(data))
    assert scalars._REG.domain is QQ_I
    assert code == 0
    assert [(r["id"], r["verdict"]) for r in results] == [
        ("sec2/qybe", "pass"), ("user/rmatrix", "pass")]

    r, c, s = next(e for e in data["entries"] if e[0] != e[1])
    data["entries"][data["entries"].index([r, c, s])] = [r, c, f"2*{s}"]
    results, code = run_quiet(suite="sec2/qybe",
                              extra_rmatrix=json.dumps(data))
    assert code == 1
    assert results[-1]["id"] == "user/rmatrix"
    assert results[-1]["verdict"] == "fail"


def test_main_entry_list(capsys):
    assert cli.main(["list", "ribbon"]) == 0
    assert "prop2.4/ribbon" in capsys.readouterr().out


def test_main_entry_run(capsys):
    code = cli.main(["run", "--suite", "sec2/qybe", "--format", "json",
                     "--seed", "4"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["id"] == "sec2/qybe"


def test_main_missing_rmatrix_file():
    assert cli.main(["run", "--suite", "sec2/qybe",
                     "--rmatrix", "/does/not/exist.json"]) == 2


def test_main_rmatrix_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.main(["run", "--suite", "sec2/qybe", "--rmatrix", str(path)]) == 2
    assert f"cannot read {path}" in capsys.readouterr().err


def test_labels_flag(capsys):
    code = cli.main(["run", "--suite", "prop2.4/ribbon", "--labels", "2,1"])
    assert code == 0


def _ac_with(monkeypatch, row, col, value):
    """cli.catalog with one entry of ``ac`` replaced."""
    real = cli.catalog

    def patched(name, *args):
        R = real(name, *args)
        if name != "ac":
            return R
        m = [list(r) for r in R.m]
        m[row][col] = value
        return RMatrix(2, m, name="ac")

    monkeypatch.setattr(cli, "catalog", patched)


def test_numeric_spot_refuses_an_entry_without_a_residue(monkeypatch):
    """An entry whose coefficient's denominator is MODULUS has no residue:
    the row is an error that names the entry, never a comparison of Nones."""
    _ac_with(monkeypatch, 0, 0, Fraction(1, scalars.MODULUS) * scalars.qvar())
    rows, code = run_quiet(suite="engine/numeric-spot")
    assert (rows[0]["verdict"], code) == ("error", 2)
    assert rows[0]["residual"].startswith("ValueError: ac entry (0, 0) has no residue")


def test_numeric_spot_fails_a_wrong_entry(monkeypatch):
    """ac with its entry q - 1/q replaced by q is no solution and is not the
    fundamental image of the universal R-matrix."""
    _ac_with(monkeypatch, 1, 2, scalars.qvar())
    rows, code = run_quiet(suite="engine/numeric-spot")
    assert (rows[0]["verdict"], code) == ("fail", 1)
    assert rows[0]["residual"].startswith("('canonical', ")


def test_tensor_decomposition_that_fails_to_intertwine_is_a_fail_row(monkeypatch):
    summands = reps._summands

    def flipped(lab1, lab2):
        out1, out2 = summands(lab1, lab2)
        return out1, reps.RepLabel.symbolic(out2.lam1, out2.lam2, gsign=-out2.gsign)

    monkeypatch.setattr(reps, "_summands", flipped)
    rows, code = run_quiet(suite="sec2/tensor-decomposition")
    assert (rows[0]["verdict"], code) == ("fail", 1)
    assert rows[0]["residual"] == "('intertwiner', 'T fails to intertwine g')"


def test_labels_may_start_with_a_minus(capsys):
    """The token after --labels is its value, also when it starts with -."""
    outs = []
    for argv in (["--labels", "-1,2"], ["--labels=-1,2"]):
        assert cli.main(["run", "--suite", "prop2.4/ribbon", "--format", "json", *argv]) == 0
        outs.append([(r["id"], r["verdict"]) for r in json.loads(capsys.readouterr().out)])
    assert outs[0] == outs[1] == [("prop2.4/ribbon", "pass")]


def test_main_rejects_bad_labels(capsys):
    for bad in ("abc", "1,x", "2,1,3", "", "-1,x", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--suite", "prop2.4/ribbon", "--labels", bad])
        assert exc.value.code == 2
        assert "--labels" in capsys.readouterr().err


def test_suite_all_matches_golden():
    """Same verdicts, residuals and rewrite steps as recorded, check by
    check.  A fresh process, so that every check pays its presentation
    builds as in a cold ``qgw run --suite all``."""
    golden = json.loads((Path(__file__).parent / "golden_suite.json").read_text())
    proc = _fresh_python("-m", "qgw.cli", "run", "--suite", "all", "--seed", "0", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    keys = ("id", "verdict", "steps", "residual")
    rows = [{k: r[k] for k in keys if k in r} for r in json.loads(proc.stdout)]
    assert rows == golden


_COUNT_CANCEL = """
import io
from sympy.polys.rings import PolyElement
from qgw import cli
calls, cancel = [0], PolyElement.cancel
def counted(*args):
    calls[0] += 1
    return cancel(*args)
PolyElement.cancel = counted
cli.run(suite="all", seed=0, out=io.StringIO())
print(calls[0])
"""


def test_suite_all_needs_no_gcd():
    """A cold ``qgw run --suite all`` keeps every coefficient native: no
    operation reaches the gcd of sympy's fraction field."""
    proc = _fresh_python("-c", _COUNT_CANCEL)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


_LAZY_SYMPY = """
import io, json, sys
import qgw
from qgw import cli, rmatlab, scalars
loaded = ["sympy" in sys.modules]
cli.run(suite="all", seed=0, out=io.StringIO())
loaded.append("sympy" in sys.modules)
R = rmatlab.rmatrix_from_json(sys.argv[1])
x = scalars.parse(sys.argv[2])
loaded.append("sympy" in sys.modules)
values = [x, *(e for row in R.m for e in row)]
before = list(map(hash, values))
if sys.argv[3] == "str":
    str(x)
else:
    assert scalars.imag_unit() ** 2 == -1
loaded.append("sympy" in sys.modules)
y = scalars.parse(sys.argv[2])
print(json.dumps({"loaded": loaded, "same": [x == y, hash(x) == hash(y)], "hashes": before,
                  "after": list(map(hash, values)), "str": list(map(str, values))}))
"""

_BINOMIAL_FRACTION = "(q^2 + lam1)/(q^2 - 1)^2/(lam1*q - 1) - 1/q"


@pytest.mark.parametrize("trigger", ["str", "imag_unit"])
def test_sympy_loads_only_when_a_value_needs_it(trigger):
    """``import qgw``, a whole suite, reading a corrupted gl(2|1) R (whose
    inverse over the field divides by q + 2) and parsing a fraction over
    binomials load no sympy; printing a value or adjoining i loads it, and
    changes no value, == or hash."""
    data = json.loads(rmatrix_to_json(catalog("glnm", 2, 1)))
    r, c, text = data["entries"][0]
    data["entries"][0] = [r, c, f"({text}) + 2"]
    proc = _fresh_python("-c", _LAZY_SYMPY, json.dumps(data), _BINOMIAL_FRACTION, trigger)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == [False, False, False, True]
    assert got["same"] == [True, True]
    R = rmatrix_from_json(json.dumps(data))
    values = [scalars.parse(_BINOMIAL_FRACTION), *(e for row in R.m for e in row)]
    assert got["hashes"] == got["after"] == [hash(e) for e in values]
    assert got["str"] == [str(e) for e in values]


def _fresh_env():
    """The environment of a fresh python that imports this qgw."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _fresh_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_fresh_env(), check=False)
