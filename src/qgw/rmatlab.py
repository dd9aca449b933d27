"""R-matrix toolkit: braid-equation checks, Hecke condition, superization.

An RMatrix is an n^2 x n^2 matrix of exact scalars with the composite-index
convention M[(a-1)n+b-1][(c-1)n+d-1] = R^a_c^b_d, i.e. rows are the upper
index pair (a,b), columns the lower pair (c,d).  A grading p marks basis
directions odd.  Its entries are read-only, held as tuples, and its row
form (``R.rows``, :func:`smat.row_form`) is found once, at construction:
every check below reads that, not the n^4 entries.  superize_r signs R's
rows in that form, and the entry grid ``m`` of its result is built on
first read.  The braid check embeds R into three graded legs with
:func:`smat.braid_legs`, whose Koszul signs make one check serve as the
QYBE (zero grading) and the super YBE: sybe_check is qybe_check, since
RMatrix refuses a graded R that is not even.  One iterator over R's
nonzeros and one parity test serve null_degree_check,
superizable_grading_search and superize_r.
"""

from __future__ import annotations

import json
from itertools import product

from . import smat
from .scalars import ONE, Scalar, parse, qvar, render


class UnknownName(KeyError):
    pass


class NotSuperizable(ValueError):
    pass


class NullDegreeViolated(ValueError):
    pass


def _grading(p, n):
    """The grading ``p`` as a tuple, none for p None; ValueError unless it
    has n entries, each the int 0 or 1."""
    p = tuple(p) if p is not None else (0,) * n
    if len(p) != n:
        raise ValueError("grading length must equal the dimension")
    if not all(type(x) is int and x in (0, 1) for x in p):
        raise ValueError(f"grading {p!r} has a value other than the ints 0 and 1")
    return p


class RMatrix:
    def __init__(self, n, entries, grading=None, name=""):
        if type(n) is not int or n < 1:
            raise ValueError(f"dimension {n!r} is not an int of at least 1")
        self.n = n
        self.name = name
        # Scalar(x) is x for a Scalar: the type test spares the call
        self._m = tuple(tuple(x if type(x) is Scalar else Scalar(x) for x in row)
                        for row in entries)
        if len(self._m) != n * n or any(len(r) != n * n for r in self._m):
            raise ValueError(f"need a {n * n}x{n * n} entry grid")
        self.rows = tuple(map(tuple, smat.row_form(self._m)))
        self.p = _grading(grading, n)
        smat.check_invertible(self.rows)  # invertibility is part of the contract
        if self.is_super and not null_degree_check(self):
            raise NullDegreeViolated(f"{name or 'R'} is not even under {self.p}")

    @classmethod
    def _certified(cls, n, rows, p, name):
        """The RMatrix of the row form ``rows``, which the caller has shown
        to be invertible and even under the grading ``p``: no entry grid is
        built until ``m`` is read, and neither property is checked again."""
        R = object.__new__(cls)
        R.n, R.name, R.rows, R.p, R._m = n, name, rows, p, None
        return R

    @property
    def m(self):
        """The n^2 x n^2 entry grid, as tuples."""
        if self._m is None:
            self._m = tuple(map(tuple, smat.dense(self.rows, self.n * self.n)))
        return self._m

    @property
    def is_super(self):
        return any(self.p)

    def entry(self, a, c, b, d):
        """R^a_c^b_d with 1-based indices; IndexError for an index outside
        1..n."""
        n = self.n
        if not (0 < a <= n and 0 < c <= n and 0 < b <= n and 0 < d <= n):
            bad = next(x for x in (a, c, b, d) if not 0 < x <= n)
            raise IndexError(f"index {bad} outside 1..{n}")
        return self.m[(a - 1) * n + b - 1][(c - 1) * n + d - 1]

    def inverse_matrix(self):
        """R^-1, in row form."""
        return smat.inv(self.rows)

    def __eq__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return self.n == other.n and self.p == other.p and smat.meq(self.rows, other.rows)

    def __repr__(self):
        return f"RMatrix({self.name or 'anon'}, n={self.n}, p={self.p})"


# -- braid relation ---------------------------------------------------------

def qybe_check(R: RMatrix) -> bool:
    """R12 R13 R23 = R23 R13 R12, exactly, with Koszul-signed legs graded by
    R.p: the QYBE for a zero grading, the super YBE for a super R."""
    return smat.braid_holds(*smat.braid_legs(*(R.rows,) * 3, (R.n,) * 3, (R.p,) * 3))


def _nonzeros(R: RMatrix):
    """(a, b, c, d, x) for each nonzero x = R^a_c^b_d, with 0-based indices,
    in the row-major order of R.m."""
    n = R.n
    for i, pairs in enumerate(R.rows):
        a, b = divmod(i, n)
        for j, x in pairs:
            yield (a, b, *divmod(j, n), x)


def _odd(p, a, b, c, d):
    """Whether R^a_c^b_d (0-based) is odd under the index grading p."""
    return (p[a] + p[b] + p[c] + p[d]) % 2


def null_degree_check(R: RMatrix) -> bool:
    """Whether every nonzero entry of R is even under R.p."""
    return not any(_odd(R.p, a, b, c, d) for a, b, c, d, _ in _nonzeros(R))


# RMatrix refuses a graded R that is not even, so the super YBE is the
# graded braid check itself
sybe_check = qybe_check


def flip_index(n):
    """The flip a (x) b -> b (x) a on composite indices: entry a n + b is
    b n + a.  P M is M's rows in this order, and M P its columns."""
    return [b * n + a for a, b in product(range(n), repeat=2)]


def flip_rows(m, n):
    """P m, for the flip P on two legs of dimension n: the rows of ``m`` in
    the order of :func:`flip_index`, as new lists, with no multiplication."""
    return [list(m[k]) for k in flip_index(n)]


def _shifted(rows, c):
    """m + c times the identity, in row form, for m of row form ``rows``."""
    return smat.lincomb(len(rows), [(ONE, rows), (c, smat.eye(len(rows)))])


def hecke_check(R: RMatrix) -> bool:
    """(PR - q)(PR + 1/q) = 0, the product taken by
    :func:`smat.product_is_zero` on R's row form."""
    q = qvar()
    pr = flip_rows(R.rows, R.n)
    return smat.product_is_zero(_shifted(pr, -q), _shifted(pr, ONE / q))


def hecke_identity_check(R: RMatrix) -> bool:
    """Contracted form: R^f_k^e_l R^l_i^k_j = (q - 1/q) R^f_i^e_j + delta delta,
    that is R P R = (q - 1/q) R + P for the flip P, on R's row form: the rows
    (f, e) of R P R are taken one at a time, and the check stops at the first
    that differs from the sum's."""
    q = qvar()
    rows, flip = R.rows, [[(j, ONE)] for j in flip_index(R.n)]
    want = smat.lincomb(len(rows), [(q - ONE / q, rows), (ONE, flip)])
    return all({j: x for j, x in got.items() if x} == dict(pairs)
               for got, pairs in zip(smat.products(rows, flip_rows(rows, R.n)), want))


# -- superization ----------------------------------------------------------

def superizable_grading_search(R: RMatrix):
    """All index gradings under which R is even (exhaustive over 2^n)."""
    support = [(a, b, c, d) for a, b, c, d, _ in _nonzeros(R)]
    return [bits for bits in product((0, 1), repeat=R.n)
            if not any(_odd(bits, *idx) for idx in support)]


def superize_r(R: RMatrix, p) -> RMatrix:
    """Flip the sign of entries with both upper indices odd and flag super.

    The result is D R, D the diagonal matrix of the signs of R's rows, in
    row form; NotSuperizable names the first entry of R that is odd under
    ``p``.  D is its own inverse, so D R is invertible because R is: R's
    certificate carries over, and D R is not checked again."""
    n = R.n
    p = _grading(p, n)
    rows = [[] for _ in range(n * n)]
    for a, b, c, d, x in _nonzeros(R):
        if _odd(p, a, b, c, d):
            raise NotSuperizable(f"entry R^{a + 1}_{c + 1}^{b + 1}_{d + 1} violates grading {p}")
        rows[a * n + b].append((c * n + d, -x if p[a] and p[b] else x))
    return RMatrix._certified(n, tuple(map(tuple, rows)), p,
                              (R.name + "-super") if R.name else "")


# -- catalog ---------------------------------------------------------------

def _glnm(n, m):
    q = qvar()
    d = n + m
    p = [0] * n + [1] * m
    # each distinct entry made once and shared
    w, odd_diag, minus = q - ONE / q, -ONE / q, -ONE
    out = smat.zeros(d * d)
    for i in range(1, d + 1):
        diag = q if i <= n else odd_diag
        out[(i - 1) * d + i - 1][(i - 1) * d + i - 1] = diag
        for j in range(1, d + 1):
            if i == j:
                continue
            sign = minus if (p[i - 1] and p[j - 1]) else ONE
            out[(i - 1) * d + j - 1][(i - 1) * d + j - 1] = sign
            if j > i:
                out[(i - 1) * d + j - 1][(j - 1) * d + i - 1] = w
    return out, p


def catalog(name, n=None, m=None) -> RMatrix:
    """Built-in R-matrices by name.

    ac / super_ac: the 4x4 Alexander-Conway solution and its super form.
    omega / super_omega: the exterior-calculus relative and its super form.
    glnm / super_glnm (params n, m): the non-standard gl(n|m) family.
    std_gl (param n): the standard Hecke solution for GL_q(n).
    identity (param n).

    ValueError names a size that is missing or not an int >= 0.
    """
    sizes = {"glnm": (n, m), "super_glnm": (n, m), "std_gl": (n,), "identity": (n,)}
    for label, size in zip("nm", sizes.get(name, ())):
        if type(size) is not int or size < 0:
            raise ValueError(f"catalog {name!r} needs a size {label}, an int >= 0; got {size!r}")
    q = qvar()
    w = q - ONE / q
    if name == "ac":
        return RMatrix(2, [[q, 0, 0, 0], [0, ONE, w, 0],
                           [0, 0, ONE, 0], [0, 0, 0, -ONE / q]], name="ac")
    if name == "super_ac":
        return superize_r(catalog("ac"), (0, 1))
    if name == "omega":
        return RMatrix(2, [[q, 0, 0, 0], [0, q, w, 0],
                           [0, 0, ONE / q, 0], [0, 0, 0, -ONE / q]], name="omega")
    if name == "super_omega":
        return superize_r(catalog("omega"), (0, 1))
    if name == "glnm":
        ent, p = _glnm(n, m)
        return RMatrix(n + m, ent, name=f"gl({n}|{m})")
    if name == "super_glnm":
        return superize_r(catalog("glnm", n=n, m=m), [0] * n + [1] * m)
    if name == "std_gl":
        ent, _ = _glnm(n, 0)
        return RMatrix(n, ent, name=f"std_gl({n})")
    if name == "identity":
        return RMatrix(n, smat.dense(smat.eye(n * n), n * n), name="identity")
    raise UnknownName(name)


# -- serialization ---------------------------------------------------------

def rmatrix_to_json(R: RMatrix) -> str:
    entries = []
    for i, row in enumerate(R.m):
        for j, x in enumerate(row):
            if x:
                entries.append([i, j, render(x)])
    return json.dumps({"n": R.n, "grading": list(R.p), "name": R.name,
                       "entries": entries}, indent=1)


# the braid check multiplies n^3 x n^3 leg matrices in row form, at one
# Scalar product per pair of nonzeros that meet: n^7 per product for a dense R
MAX_JSON_N = 8


def _is_index(x, size):
    return type(x) is int and 0 <= x < size


def rmatrix_from_json(text: str) -> RMatrix:
    """Read what :func:`rmatrix_to_json` writes; ValueError on malformed data,
    including a (row, column) cell given twice.  Each distinct expression
    text is parsed once (Scalars are immutable, so equal texts share one
    value), and a bad expression raises at its first occurrence."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    n, grading, entries = data.get("n"), data.get("grading"), data.get("entries")
    if type(n) is not int or not 1 <= n <= MAX_JSON_N:
        raise ValueError(f"n must be an integer from 1 to {MAX_JSON_N}, got {n!r}")
    if not isinstance(name := data.get("name", ""), str):
        raise ValueError(f"name must be a string, got {name!r}")
    if grading is not None and not (isinstance(grading, list) and len(grading) == n
                                    and all(_is_index(g, 2) for g in grading)):
        raise ValueError(f"grading must be a list of {n} values in {{0, 1}}, got {grading!r}")
    if not isinstance(entries, list):
        raise ValueError("entries must be a list of [row, column, expression]")
    ent, cells, parsed = smat.zeros(n * n), set(), {}
    for e in entries:
        if not (isinstance(e, list) and len(e) == 3 and _is_index(e[0], n * n)
                and _is_index(e[1], n * n) and isinstance(e[2], str)):
            raise ValueError(f"entry {e!r} is not [row, column, expression] "
                             f"with 0 <= row, column < {n * n}")
        row, col, expr = e
        if (row, col) in cells:
            raise ValueError(f"entry {e!r} repeats the cell ({row}, {col})")
        cells.add((row, col))
        if expr not in parsed:
            parsed[expr] = parse(expr)
        ent[row][col] = parsed[expr]
    try:
        return RMatrix(n, ent, grading=grading, name=name)
    except smat.Singular:
        raise ValueError("the R-matrix is not invertible") from None
