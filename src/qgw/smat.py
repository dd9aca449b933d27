"""Matrices over the exact scalar field, in row form, multiplied on their
nonzeros.

A matrix is held in *row form*: for each row, the (column, value) pairs of
its nonzero entries, in any order.  This is the one form that the R-matrix
checks and the representation work read and write (multiply, Kronecker
product, leg embedding, inverse, an exact invertibility test).
No numerics.  Most entries of the matrices here are 0, so a product costs
one Scalar multiplication per pair of nonzero entries that meet
(:func:`products`, :func:`mmul`), and sums and scalings touch the nonzeros
only.  :func:`lincomb` is the one sum of scaled matrices: it adds each row
through ``ncalg._add_scaled``, the one accumulate, so a coefficient ONE
takes no product and an entry that cancels is dropped.
:func:`kron_rows` makes the graded Kronecker product of two matrices, and
:func:`embed_rows` is the one embedding of a two-leg operator into three
graded tensor legs, with Koszul signs.

Dense grids remain only where data comes in or goes out, at an R-matrix's
entry grid (``rmatlab.RMatrix.m``, read by :func:`row_form` and written by
:func:`dense`).  :func:`inv` reduces the rows of [a | 1] as dicts through
``ncalg.echelon``, the one exact elimination, which also compiles the
relations of every presentation.

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

:func:`braid_legs` encodes the two-leg matrices before it embeds them, so
each distinct entry is encoded once, not once per slot of three n^3 x n^3
legs.  The bound is the same: a row of an embedded leg is one row of its
matrix with shifted columns, each value times +-1, so the legs have the
matrices' widest row, L1 norms, denominators and exponent span, hence
their X, and the codes of the embedding are the embedding of the codes.
"""

from __future__ import annotations

from .ncalg import _add_scaled, echelon
from .scalars import MODULUS, ONE, ZERO, Scalar, kronecker_codes, prime_point_residue


class Singular(ArithmeticError):
    pass


def zeros(n):
    """The n x n zero entry grid, for an R-matrix's entries."""
    return [[ZERO] * n for _ in range(n)]


def eye(n):
    return [[(i, ONE)] for i in range(n)]


def smul(c, a):
    c = Scalar(c)
    return [[(j, c * x) for j, x in row] for row in a]


def row_form(a):
    """The row form of the dense grid ``a``.  The shared ZERO, which fills
    most entries, is passed over without a call of ``Scalar.__bool__``."""
    return [[(j, x) for j, x in enumerate(row) if x is not ZERO and x] for row in a]


def dense(rows, cols):
    """The dense grid of ``rows``, each an iterable of (column, value)
    pairs."""
    out = []
    for pairs in rows:
        row = [ZERO] * cols
        for j, x in pairs:
            row[j] = x
        out.append(row)
    return out


def lincomb(n, terms):
    """The sum of c m over the (c, m) of ``terms``, for matrices m of ``n``
    rows, in row form.  Each row of m is added into a row dict by
    ``ncalg._add_scaled``: no product by a coefficient or an entry that is
    ONE, no addition to an entry not yet there, and no entry that cancels."""
    acc = [{} for _ in range(n)]
    for c, m in terms:
        for row, pairs in zip(acc, m):
            _add_scaled(row, c, dict(pairs))
    return [list(row.items()) for row in acc]


def products(a, b):
    """The rows of a b as dicts {column: value}, one at a time: one Scalar
    multiplication per pair of nonzero entries that meet, and no addition
    to a 0.  An entry that cancels stays, as a 0."""
    for ra in a:
        acc = {}
        for t, x in ra:
            for j, y in b[t]:
                acc[j] = acc[j] + x * y if j in acc else x * y
        yield acc


def mmul(a, b):
    """a b, at one Scalar multiplication per pair of nonzero entries that
    meet, with no entry that cancels."""
    return [[(j, x) for j, x in acc.items() if x] for acc in products(a, b)]


def kron_rows(a, b, deg_b, pa, cols):
    """a (x) b on graded legs, b with ``cols`` columns: entry ((i, j),
    (k, l)) is (-1)^(deg_b * pa[k]) a[i][k] b[j][l], the Koszul sign of
    moving b, of degree deg_b, past the first leg's basis vector k of parity
    pa[k].  deg_b = 0 gives the plain Kronecker product.  One Scalar product
    per pair of nonzeros."""
    out = []
    for ra in a:
        ra = [(k, -x if deg_b and pa[k] else x) for k, x in ra]
        for rb in b:
            out.append([(k * cols + l, x * y) for k, x in ra for l, y in rb])
    return out


def meq(a, b):
    """Whether ``a`` and ``b`` are the same matrix: as many rows, and the
    same nonzero entries in each."""
    def entries(pairs):
        return {j: x for j, x in pairs if x}

    return len(a) == len(b) and all(entries(ra) == entries(rb) for ra, rb in zip(a, b))


def embed_rows(rows, dims, ps, legs):
    """Embed the matrix ``rows``, acting on legs ``legs = (i, j)``, into
    three legs of dimensions ``dims`` and gradings ``ps`` (a 0/1 tuple per
    leg).  A basis vector (x0, x1, x2) of the three legs has the flat index
    (x0 d1 + x1) d2 + x2.

    The sign is the Koszul cost of moving each operator factor past the
    spectator leg; the factor's parity is read off entrywise from the row
    and column indices of its leg (legal because every matrix here is even).
    """
    i, j = legs
    k = 3 - i - j
    stride = (dims[1] * dims[2], dims[2], 1)
    # the flat offset and the parity of each basis vector of the spectator
    spectator = [(s * stride[k], ps[k][s]) for s in range(dims[k])]
    out = [[] for _ in range(dims[0] * stride[0])]
    for r, pairs in enumerate(rows):
        ri, rj = divmod(r, dims[j])
        row = ri * stride[i] + rj * stride[j]
        for c, x in pairs:
            ci, cj = divmod(c, dims[j])
            # parity of the operator factors acting on legs i and j
            di = (ps[i][ri] + ps[i][ci]) % 2
            dj = (ps[j][rj] + ps[j][cj]) % 2
            cross = ((di if i > k else 0) + (dj if j > k else 0)) % 2
            odd = -x if cross else x  # the entry next to an odd spectator
            col = ci * stride[i] + cj * stride[j]
            for shift, p in spectator:
                out[row + shift].append((col + shift, odd if p else x))
    return out


LEGS = ((0, 1), (0, 2), (1, 2))


def braid_legs(m12, m13, m23, dims, ps):
    """R12, R13 and R23 for :func:`braid_holds`: the two-leg matrices
    ``m12``, ``m13`` and ``m23``, in row form, embedded (:func:`embed_rows`)
    on the legs of ``LEGS`` of dimensions ``dims`` and gradings ``ps``.
    When every entry is a Laurent polynomial in q over Q, the legs hold the
    entries' Kronecker codes at k = 3 (:func:`kronecker_codes`), encoded
    before they are embedded: the legs' rows are the matrices' rows, up to
    columns and signs, so the codes and their X are those of the legs."""
    mats = (m12, m13, m23)
    mats = kronecker_codes(mats) or mats
    return [embed_rows(m, dims, ps, legs) for m, legs in zip(mats, LEGS)]


def braid_holds(r12, r13, r23):
    """R12 R13 R23 == R23 R13 R12 for three leg-embedded matrices in row
    form (:func:`embed_rows`), multiplied and compared in that form, one row
    at a time: row i of each side comes from row i of its first factor, the
    rows are compared in order, and the check stops at the first row that
    differs.

    The entries are Scalars, or the ints of :func:`braid_legs`: an entry of
    either side is then a sum of at most W^2 products of three codes, so its
    coefficients are below W^2 M^3 in size, and X > 2 W^2 M^3 makes two
    sides with equal ints equal as Laurent polynomials.  The legs' W, M, D
    and exponent span are those of the two-leg matrices they embed, so the
    matrices' codes bound the legs' products."""
    def rows(x, y, z):
        xy = ([(j, v) for j, v in acc.items() if v] for acc in products(x, y))
        return ({j: v for j, v in acc.items() if v} for acc in products(xy, z))

    return all(a == b for a, b in zip(rows(r12, r13, r23), rows(r23, r13, r12)))


def product_is_zero(a, b):
    """Whether a b = 0 for ``a`` and ``b`` in row form, row by row, stopping
    at the first nonzero row; on Kronecker codes at k = 2 when they apply,
    as in :func:`braid_holds`."""
    a, b = kronecker_codes((a, b)) or (a, b)
    return not any(any(acc.values()) for acc in products(a, b))


def inv(a):
    """The inverse of ``a`` over the fraction field, in row form: the rows
    of [a | 1] reduced by :func:`ncalg.echelon`, pivoting on the smallest
    column, to [1 | a^-1], so a^-1[i][j] = -solved[i][n + j]; Singular
    unless the pivots are exactly the columns of ``a``."""
    n = len(a)
    rows = [{j: x for j, x in pairs if x} for pairs in a]
    for i, row in enumerate(rows):
        row[n + i] = ONE
    solved, pivots = echelon(rows, int.__neg__)
    if pivots[::-1] != list(range(n)):
        raise Singular("matrix is singular over the scalar field")
    return [[(j - n, -x) for j, x in solved[i].items()] for i in range(n)]


def _invertible_mod(work, p):
    """Whether the integer matrix ``work``, row dicts {column: value} of
    values in [0, p), is invertible modulo the prime ``p``: Gaussian
    elimination in place, the dicts filling in only where pivot rows reach."""
    n = len(work)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r].get(col)), None)
        if piv is None:
            return False
        work[col], work[piv] = work[piv], work[col]
        pivot = work[col]
        inv_pivot = pow(pivot[col], -1, p)
        for row in work[col + 1:]:
            if row.get(col):
                f = row[col] * inv_pivot
                for j, y in pivot.items():
                    row[j] = (row.get(j, 0) - f * y) % p
    return True


def residues(rows):
    """The residues (``prime_point_residue``) of the matrix ``rows``, in row
    form, each distinct value's found once: None where a value has none."""
    values = {id(x): x for pairs in rows for _, x in pairs}
    res = {i: prime_point_residue(x) for i, x in values.items()}
    return [[(j, res[id(x)]) for j, x in pairs] for pairs in rows]


def mod_mmul(a, b):
    """a b modulo ``MODULUS``, for a and b in row form with int values."""
    return [[(j, v % MODULUS) for j, v in acc.items()] for acc in products(a, b)]


def check_invertible(rows):
    """Raise Singular unless the square matrix ``rows`` is invertible over
    the scalar field.

    A determinant that is nonzero at one point is nonzero, and so is one
    whose value there is nonzero modulo a prime.  So a matrix whose
    :func:`residues` form a matrix invertible modulo ``MODULUS`` is
    invertible, with no division of Scalars and at a cost that does not
    grow with the degrees of the entries.  A matrix that is singular there,
    or has an entry without a residue, is decided by :func:`inv`."""
    res = residues(rows)
    if any(r is None for pairs in res for _, r in pairs) or not _invertible_mod(
            list(map(dict, res)), MODULUS):
        inv(rows)
