"""Matrices over the exact scalar field, stored dense and multiplied on their
nonzeros.

A matrix is a plain list of lists of Scalar entries; enough linear algebra
for R-matrix checks and representation work (multiply, Kronecker product,
Gauss-Jordan inverse, an exact invertibility test).  No numerics.  Most
entries of the matrices here are 0, so the products, sums and row
operations skip zero operands: :func:`mmul` costs one multiplication per
pair of nonzero entries that meet.  The *row form* of a matrix lists, for
each row, the (column, value) pairs of its nonzero entries
(:func:`row_form`).  :func:`embed_rows` is the one embedding of a two-leg
operator into three graded tensor legs, with Koszul signs: it takes the
operator in row form and returns the embedding in row form, so a caller
that embeds one matrix on several legs builds its row form once
(:func:`embed_pair` takes and returns dense matrices).
:func:`braid_holds` compares the two sides of the braid relation on three
such legs row by row, without building an n^3 x n^3 matrix: the rows are
compared in order, and the check stops at the first row that differs.
:func:`product_is_zero` decides a b = 0 the same way.

Both run on plain ints when every entry of their factors is a Laurent
polynomial in q over Q (``scalars.kronecker_codes``): each entry x becomes
the value at q = X = 2^b of D q^s x, with D the lcm of the coefficient
denominators and -s the lowest exponent of q.  The map is a ring map, and
an entry of a product of k factors is a sum of at most W^(k-1) products
of k codes (W the widest row), whose coefficients are below W^(k-1) M^k in
size (M the largest L1 norm of a D q^s x, at least D).  With X > 2 W^(k-1)
M^k the two sides' difference has coefficients below X, and a nonzero
integer polynomial with coefficients below X does not vanish at X: equal
ints are equal entries.  Any other entry, or a code of more than 2^14 bits
(an entry q^1000000000), leaves the factors on the Scalar products.
"""

from __future__ import annotations

from .scalars import MODULUS, ONE, ZERO, Scalar, kronecker_codes, prime_point_residue


class Singular(ArithmeticError):
    pass


def zeros(rows, cols=None):
    cols = rows if cols is None else cols
    return [[ZERO for _ in range(cols)] for _ in range(rows)]


def eye(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def madd(a, b):
    return [[x + y if x and y else x or y for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def smul(c, a):
    c = Scalar(c)
    return [[c * x if x else x for x in row] for row in a]


def row_form(a):
    """The row form of ``a``."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in a]


def _dense(rows, cols):
    """The dense matrix of ``rows``, each an iterable of (column, value)
    pairs."""
    out = []
    for pairs in rows:
        row = [ZERO] * cols
        for j, x in pairs:
            row[j] = x
        out.append(row)
    return out


def _products(a, b):
    """The rows of a b as dicts {column: value}, one at a time, from ``a``
    and ``b`` in row form: one Scalar multiplication per pair of nonzero
    entries that meet, and no addition to a 0.  An entry that cancels stays,
    as a 0."""
    for ra in a:
        acc = {}
        for t, x in ra:
            for j, y in b[t]:
                acc[j] = acc[j] + x * y if j in acc else x * y
        yield acc


def mmul(a, b):
    """a b, at one Scalar multiplication per pair of nonzero entries that
    meet."""
    return _dense((acc.items() for acc in _products(row_form(a), row_form(b))), len(b[0]))


def kron(a, b, deg_b, pa):
    """a (x) b on graded legs: entry ((i, j), (k, l)) is
    (-1)^(deg_b * pa[k]) a[i][k] b[j][l], the Koszul sign of moving b, of
    degree deg_b, past the first leg's basis vector k of parity pa[k].
    deg_b = 0 gives the plain Kronecker product."""
    cols = len(b[0])
    rows_b = row_form(b)
    out = []
    for ra in row_form(a):
        ra = [(k, -x if deg_b and pa[k] else x) for k, x in ra]
        for rb in rows_b:
            out.append([(k * cols + l, x * y) for k, x in ra for l, y in rb])
    return _dense(out, len(a[0]) * cols)


def meq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def is_zero(a):
    return all(not x for row in a for x in row)


def _flatten(idx, dims):
    return (idx[0] * dims[1] + idx[1]) * dims[2] + idx[2]


def embed_rows(rows, dims, ps, legs):
    """Embed the matrix of row form ``rows`` (:func:`row_form`), acting on
    legs ``legs = (i, j)``, into three legs of dimensions ``dims`` and
    gradings ``ps`` (a 0/1 tuple per leg), in row form.

    The sign is the Koszul cost of moving each operator factor past the
    spectator leg; the factor's parity is read off entrywise from the row
    and column indices of its leg (legal because every matrix here is even).
    """
    i, j = legs
    k = 3 - i - j
    out = [[] for _ in range(dims[0] * dims[1] * dims[2])]
    for r, pairs in enumerate(rows):
        ri, rj = divmod(r, dims[j])
        for c, x in pairs:
            ci, cj = divmod(c, dims[j])
            # parity of the operator factors acting on legs i and j
            di = (ps[i][ri] + ps[i][ci]) % 2
            dj = (ps[j][rj] + ps[j][cj]) % 2
            cross = ((di if i > k else 0) + (dj if j > k else 0)) % 2
            odd = -x if cross else x  # the entry next to an odd spectator
            for s in range(dims[k]):
                row, col = [0, 0, 0], [0, 0, 0]
                row[i], row[j], row[k] = ri, rj, s
                col[i], col[j], col[k] = ci, cj, s
                y = odd if ps[k][s] else x
                out[_flatten(row, dims)].append((_flatten(col, dims), y))
    return out


def embed_pair(m, dims, ps, legs):
    """:func:`embed_rows` of the dense matrix ``m``, as a dense matrix."""
    rows = embed_rows(row_form(m), dims, ps, legs)
    return _dense(rows, len(rows))


def braid_holds(r12, r13, r23):
    """R12 R13 R23 == R23 R13 R12 for three leg-embedded matrices in row
    form (:func:`embed_rows`), multiplied and compared in that form, one row
    at a time: row i of each side comes from row i of its first factor, the
    rows are compared in order, and the check stops at the first row that
    differs.

    When every entry is a Laurent polynomial in q over Q, the products run
    on the entries' Kronecker codes at q = X = 2^b (:func:`kronecker_codes`)
    with k = 3: an entry of either side is a sum of at most W^2 products of
    three codes, so its coefficients are below W^2 M^3 in size, and X > 2
    W^2 M^3 makes two sides with equal ints equal as Laurent polynomials."""
    r12, r13, r23 = kronecker_codes((r12, r13, r23)) or (r12, r13, r23)

    def rows(x, y, z):
        xy = ([(j, v) for j, v in acc.items() if v] for acc in _products(x, y))
        return ({j: v for j, v in acc.items() if v} for acc in _products(xy, z))

    return all(a == b for a, b in zip(rows(r12, r13, r23), rows(r23, r13, r12)))


def product_is_zero(a, b):
    """Whether a b = 0, row by row, stopping at the first nonzero row; on
    Kronecker codes at k = 2 when they apply, as in :func:`braid_holds`."""
    rows = row_form(a), row_form(b)
    a, b = kronecker_codes(rows) or rows
    return not any(any(acc.values()) for acc in _products(a, b))


def _rref(rows):
    """Gauss-Jordan elimination over the fraction field: the reduced rows of
    ``rows`` (a new matrix) and the list of pivot columns.  Each column in
    turn takes as pivot the first row at or below the next pivot row with a
    nonzero there; elimination stops once every row has a pivot."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pc = rows[r][c]
        rows[r] = [x / pc if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def inv(a):
    """Gauss-Jordan inverse over the fraction field: [a | 1] reduced to
    [1 | a^-1]; Singular when a column of ``a`` has no pivot."""
    n = len(a)
    rows, pivots = _rref([list(row) + erow for row, erow in zip(a, eye(n))])
    if pivots != list(range(n)):
        raise Singular("matrix is singular over the scalar field")
    return [row[n:] for row in rows]


def _invertible_mod(a, p):
    """Whether the integer matrix ``a`` is invertible modulo the prime ``p``."""
    work = [list(row) for row in a]
    n = len(work)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return False
        work[col], work[piv] = work[piv], work[col]
        inv_pivot = pow(work[col][col], -1, p)
        for r in range(col + 1, n):
            if work[r][col]:
                f = work[r][col] * inv_pivot
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[col])]
    return True


def check_invertible(a):
    """Raise Singular unless ``a`` is invertible over the scalar field.

    A determinant that is nonzero at one point is nonzero, and so is one
    whose value there is nonzero modulo a prime.  So a matrix whose entries'
    residues at the prime point (``prime_point_residue``) form a matrix
    invertible modulo ``MODULUS`` is invertible, with no division of Scalars
    and at a cost that does not grow with the degrees of the entries.  A
    matrix that is singular there, or has an entry without a residue, is
    decided by :func:`inv`."""
    at = [[prime_point_residue(x) if x else 0 for x in row] for row in a]
    if any(v is None for row in at for v in row) or not _invertible_mod(at, MODULUS):
        inv(a)
