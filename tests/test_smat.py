from itertools import product

import pytest

from qgw import smat
from qgw.rmatlab import catalog
from qgw.scalars import ONE, qvar


def _placed(m, n, legs):
    """The plain index placement of an n^2 x n^2 matrix on two of three
    legs of dimension n: no signs."""
    out = smat.zeros(n ** 3)
    i, j = legs
    k = 3 - i - j
    for a, b, s, c, d in product(range(n), repeat=5):
        row, col = [0, 0, 0], [0, 0, 0]
        row[i], row[j], row[k] = a, b, s
        col[i], col[j], col[k] = c, d, s
        out[(row[0] * n + row[1]) * n + row[2]][(col[0] * n + col[1]) * n + col[2]] = \
            m[a * n + b][c * n + d]
    return out


@pytest.mark.parametrize("legs", [(0, 1), (0, 2), (1, 2)])
def test_leg_embedding_zero_grading_is_plain_placement(legs):
    R = catalog("ac")
    got = smat.embed_pair(R.m, (2, 2, 2), ((0, 0),) * 3, legs)
    assert smat.meq(got, _placed(R.m, 2, legs))


def test_leg_embedding_odd_spectator_signs():
    # legs 0 and 2 around an odd spectator: the leg-2 factor moves past it
    q = qvar()
    m = smat.zeros(4)
    m[0][0] = q  # E00 (x) E00: both factors even
    m[0][3] = ONE  # E01 (x) E01: both factors odd
    got = smat.embed_pair(m, (2, 2, 2), ((0, 1),) * 3, (0, 2))
    # rows and columns are (leg0, leg1, leg2) -> 4 leg0 + 2 leg1 + leg2
    assert got[0][0] == q and got[2][2] == q
    assert got[0][5] == ONE and got[2][7] == -ONE
    assert sum(1 for row in got for x in row if x) == 4
    # on legs (0, 1) the spectator comes last and nothing moves past it
    got = smat.embed_pair(m, (2, 2, 2), ((0, 1),) * 3, (0, 1))
    assert got[0][6] == ONE and got[1][7] == ONE


def test_leg_embedding_mixed_dimensions():
    # a 6x6 operator on legs (0, 2) of dimensions (2, 4, 3): an entry at
    # row (a, b) = (1, 2), column (c, d) = (0, 1) lands at (1, s, 2) and
    # (0, s, 1) for every spectator index s, flattened as (x0 * 4 + x1) * 3 + x2
    m = smat.zeros(6)
    m[1 * 3 + 2][0 * 3 + 1] = ONE
    got = smat.embed_pair(m, (2, 4, 3), ((0, 0), (0, 0, 0, 0), (0, 0, 0)), (0, 2))
    assert len(got) == 24
    want = {((1 * 4 + s) * 3 + 2, (0 * 4 + s) * 3 + 1) for s in range(4)}
    assert {(r, c) for r, row in enumerate(got) for c, x in enumerate(row)
            if x} == want


def test_braid_holds_on_embedded_legs():
    dims, ps = (2, 2, 2), ((0, 1),) * 3
    for name, ok in (("super_ac", True), ("ac", False)):
        m = catalog(name).m
        legs = [smat.embed_pair(m, dims, ps, pr) for pr in ((0, 1), (0, 2), (1, 2))]
        assert smat.braid_holds(*legs) is ok, name
    assert smat.braid_holds(*[smat.eye(8)] * 3)
