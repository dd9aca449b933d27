"""The catalog structures, rendered, against tests/golden_catalog.json.

The file records the Delta/epsilon/S images of the generators of the four
U_q Hopf structures, the compiled presentation of Omega_q(R) for three
Hecke R-matrices, the universal R-matrix of every family evaluated at two
pairs of integer labels, and the ribbon u, S(u), z and nu evaluated at three
integer labels ((1, 0) and (2, 1), where nu and z are 1, and (1, 1), where
they are not).  A refactor of how the catalog is written must leave all of
them as they are.  To rewrite the file after a deliberate change
of a structure, run ``PYTHONPATH=src python tests/test_golden_catalog.py``.
"""

import json
from pathlib import Path

from qgw import algebras, reps, smat
from qgw.exterior import omega_build
from qgw.ncalg import presentation_to_json
from qgw.rmatlab import catalog
from qgw.scalars import render

GOLDEN = Path(__file__).parent / "golden_catalog.json"

HOPF = {"uq": algebras.uq_hopf, "uq-omega": algebras.uq_omega_hopf,
        "uqgl11": algebras.uqgl11_hopf, "uqgl11-omega": algebras.uqgl11_omega_hopf}
OMEGA_R = {"std_gl(2)": ("std_gl", 2), "std_gl(3)": ("std_gl", 3), "ac": ("ac",)}
LABELS = (((1, 0), (2, 1)), ((2, 1), (1, 1)))
RIBBON_LABELS = ((1, 0), (2, 1), (1, 1))


def _terms(terms):
    """A term dict as a sorted list of [key, rendered coefficient]."""
    return sorted([k, render(c)] for k, c in terms.items())


def _matrix(m):
    return [[render(c) for c in row] for row in m]


def _hopf(h):
    return {x: {"delta": _terms(h.delta[x].terms), "counit": render(h.counit_map[x]),
                "antipode": _terms(h.antipode_map[x].terms)}
            for x in h.pres.index}


def snapshot():
    """The rendered structures, as JSON reads them back (tuples as lists)."""
    return json.loads(json.dumps({
        "hopf": {name: _hopf(build()) for name, build in HOPF.items()},
        "omega": {name: json.loads(presentation_to_json(omega_build(catalog(*args)).pres))
                  for name, args in OMEGA_R.items()},
        "universal_r": {f"{which}@{a}/{b}": _matrix(reps.universal_r_eval(a, b, which=which).m)
                        for which in reps.FAMILIES for a, b in LABELS},
        "ribbon": {f"{name}@{a}": _matrix(smat.dense(data[name], 2))
                   for a in RIBBON_LABELS for data in [reps.ribbon_data(a)]
                   for name in ("u", "su", "z", "nu")},
    }))


def test_catalog_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = snapshot()
    assert got.keys() == golden.keys()
    for part in golden:
        assert got[part].keys() == golden[part].keys(), part
        for key in golden[part]:
            assert got[part][key] == golden[part][key], (part, key)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
