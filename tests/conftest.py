import random

import pytest

from qgw import scalars
from qgw.rmatlab import RMatrix


@pytest.fixture
def restore_field():
    """Put the scalar field back as it was, so that a switch to Q(i) or a new
    indeterminate made by one test does not reach the tests after it."""
    reg = scalars._REG
    saved = dict(vars(reg), names=list(reg.names))
    yield
    vars(reg).clear()
    vars(reg).update(saved)


def madd(a, b):
    """a + b for dense matrices, entry by entry: the plain reference for
    the sums that qgw takes in row form."""
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero(a):
    return all(not x for row in a for x in row)


def twisted_r(R, seed):
    """R under a seeded diagonal twist: for each pair i < j of indices the
    entry at ((i,j),(i,j)) times q^k and the one at ((j,i),(j,i)) times
    q^-k, k in {-2, -1, 1, 2}, which keeps the braid relation and the Hecke
    condition."""
    rng, d, q = random.Random(seed), R.n, scalars.qvar()
    m = [list(row) for row in R.m]
    for i in range(d):
        for j in range(i + 1, d):
            k = rng.choice((-2, -1, 1, 2))
            m[i * d + j][i * d + j] *= q ** k
            m[j * d + i][j * d + i] *= q ** -k
    return RMatrix(d, m, grading=R.p, name=f"{R.name}-twist{seed}")
