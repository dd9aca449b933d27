import random

import pytest

from qgw import scalars, smat
from qgw.rmatlab import RMatrix
from qgw.scalars import ONE, ZERO


@pytest.fixture
def restore_field():
    """Put the scalar field back as it was, so that a switch to Q(i) made by
    one test does not reach the tests after it."""
    reg = scalars._REG
    saved = dict(vars(reg))
    yield
    vars(reg).clear()
    vars(reg).update(saved)


# Dense matrices, lists of rows of Scalar entries: the plain references for
# the row-form matrices of qgw.smat.

def madd(a, b):
    """a + b for dense matrices, entry by entry: the plain reference for
    the sums that qgw takes in row form."""
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero(a):
    return all(not x for row in a for x in row)


def dense_zeros(rows, cols=None):
    return [[ZERO] * (rows if cols is None else cols) for _ in range(rows)]


def dense_eye(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def dense_smul(c, a):
    return [[c * x for x in row] for row in a]


def dense_mmul(a, b):
    """a b, each entry summed over the pairs of nonzero entries that meet."""
    out = dense_zeros(len(a), len(b[0]))
    for i, row in enumerate(a):
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        out[i][j] = out[i][j] + x * y
    return out


def dense_eq(a, b):
    """Whether the dense matrices ``a`` and ``b`` are equal, rows held as
    lists or tuples."""
    return len(a) == len(b) and all(list(ra) == list(rb) for ra, rb in zip(a, b))


def to_dense(rows, cols=None):
    """The dense matrix of a matrix in row form, square unless ``cols``."""
    return smat.dense(rows, len(rows) if cols is None else cols)


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
