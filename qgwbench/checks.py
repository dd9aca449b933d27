"""Correctness checks of the benchmark, computed apart from qgw.

Nothing here imports qgw or sympy.  Coefficients arrive as the strings that
``qgw.scalars.render`` prints and are evaluated by a small expression
evaluator, in ``fractions.Fraction`` at a rational q or in complex floating
point.  Every check returns ``None`` when the answer is right and a short
description of the fault otherwise, so a caller can count and report them.
numpy is imported inside the functions that use it, so that importing this
module adds nothing to a benchmark process's set-up time or memory.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from itertools import product
from math import comb

# -- expression evaluation ------------------------------------------------

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}


def evaluate(text: str, q):
    """Value of a rendered rational function of q (``^`` or ``**`` powers)."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value) if isinstance(q, Fraction) else node.value
        if isinstance(node, ast.Name) and node.id == "q":
            return q
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Pow) and not isinstance(right, (int, Fraction)):
                raise ValueError(f"non-integer power in {text!r}")
            if isinstance(node.op, ast.Pow):
                right = int(right)
            return _BINOPS[type(node.op)](left, right)
        raise ValueError(f"cannot evaluate {ast.dump(node)} in {text!r}")

    return ev(tree)


# -- rewriting ------------------------------------------------------------

def irreducible_error(words, lhs_set):
    """A normal word contains no left-hand side of a rewrite rule."""
    for w in words:
        for i in range(len(w) - 1):
            if (w[i], w[i + 1]) in lhs_set:
                return f"word {w} still contains rule {w[i]} {w[i + 1]}"
    return None


# -- the 2-dimensional weight representations of the enveloping algebra ----

def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


_ZERO2 = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
_EYE2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def uq_images(q, m1: int, m2: int) -> dict:
    """Generator images at integer labels, as documented in ``qgw.reps.Rep``,
    at a rational (Fraction) or complex q.

    lam1 = q^m1 and lam2 = (-1)^m2 q^m2; K1 acts by diag(lam1, lam1/q), K2 by
    diag(lam2, -q lam2), g by (-1)^m2 diag(1, -1), X+ by c e12 with
    c = (lam1 lam2 - 1/(lam1 lam2)) / (q - 1/q), and X- by e21.  The graded
    presentation uses the same matrices.
    """
    if m1 + m2 == 0:
        raise ValueError("degenerate label: m1 + m2 = 0")
    sg = Fraction((-1) ** (m2 % 2))
    lam1, lam2 = q ** m1, sg * q ** m2
    c = (lam1 * lam2 - 1 / (lam1 * lam2)) / (q - 1 / q)
    z = Fraction(0)

    def diag(a, b):
        return ((a, z), (z, b))

    return {
        "K1": diag(lam1, lam1 / q), "K1i": diag(1 / lam1, q / lam1),
        "K2": diag(lam2, -q * lam2), "K2i": diag(1 / lam2, -1 / (q * lam2)),
        "g": diag(sg, -sg),
        "Xp": ((z, c), (z, z)),
        "Xm": ((z, z), (Fraction(1), z)),
    }


def word_matrix(images, word):
    m = _EYE2
    for x in word:
        m = _mat_mul(m, images[x])
    return m


def terms_matrix(images, terms, q):
    """Image of a word -> rendered-coefficient map."""
    out = _ZERO2
    for w, c in terms.items():
        out = _mat_add(out, _mat_scale(evaluate(c, q), word_matrix(images, w)))
    return out


def rep_error(images, terms, word, coeff, q):
    """Does ``terms`` (a normal form) equal coeff * word in this representation?"""
    got = terms_matrix(images, terms, q)
    want = _mat_scale(evaluate(coeff, q), word_matrix(images, word))
    if got != want:
        return f"image of the normal form of {word} is {got}, expected {want}"
    return None


def character_error(values, terms, word, coeff, q):
    """Same comparison in a one-dimensional character: letters -> numbers.

    Letters outside ``values`` map to 0.
    """
    def val(w):
        v = Fraction(1)
        for x in w:
            v *= values.get(x, 0)
        return v

    got = sum((evaluate(c, q) * val(w) for w, c in terms.items()), Fraction(0))
    want = evaluate(coeff, q) * val(word)
    if got != want:
        return f"character value of the normal form of {word} is {got}, expected {want}"
    return None


# -- R-matrices in closed form ------------------------------------------------
#
# An entry is (coef, e, w): the value coef * q^e, times (q - 1/q) when w is
# true.  A spec is {"n": n, "p": grading, "entries": {(row, col): entry}},
# in qgw's convention rows (a,b) and columns (c,d) for R^a_c^b_d.

def glnm_spec(n: int, m: int, super_form: bool, twist=None) -> dict:
    """The gl(n|m) solution of ``qgw.rmatlab.catalog``, optionally superized.

    ``twist`` maps pairs i < j to an integer k: the diagonal twist multiplies
    the entry at ((i,j),(i,j)) by q^k and the one at ((j,i),(j,i)) by q^-k,
    which keeps the braid relation and the Hecke condition.
    """
    d = n + m
    p = [0] * n + [1] * m
    twist = twist or {}
    ent = {}
    for i in range(d):
        odd_i = p[i] == 1
        if super_form:
            ent[(i * d + i, i * d + i)] = (1, -1 if odd_i else 1, False)
        else:
            ent[(i * d + i, i * d + i)] = (-1 if odd_i else 1, -1 if odd_i else 1, False)
        for j in range(d):
            if i == j:
                continue
            both_odd = p[i] == 1 and p[j] == 1
            k = twist.get((i, j), 0) if i < j else -twist.get((j, i), 0)
            sign = 1 if super_form else (-1 if both_odd else 1)
            ent[(i * d + j, i * d + j)] = (sign, k, False)
            if j > i:
                ent[(i * d + j, j * d + i)] = (-1 if (super_form and both_odd) else 1, 0, True)
    return {"n": d, "p": p if super_form else [0] * d, "entries": ent}


def corrupt_spec(spec: dict, position, delta: int) -> dict:
    """The spec with an integer added to the entry at ``position``."""
    return dict(spec, offset={position: delta})


def _entry_text(entry) -> str:
    coef, e, w = entry
    mono = f"{coef}*q^({e})"
    return f"{mono}*(q - 1/q)" if w else mono


def spec_json_entries(spec):
    """[row, col, text] triples for ``qgw.rmatlab.rmatrix_from_json``."""
    out = []
    offset = spec.get("offset", {})
    for (r, c), entry in sorted(spec["entries"].items()):
        text = _entry_text(entry)
        if (r, c) in offset:
            text = f"{text} + {offset[(r, c)]}"
        out.append([r, c, text])
    return out


def spec_numeric(spec, q: complex) -> np.ndarray:
    import numpy as np

    n2 = spec["n"] ** 2
    out = np.zeros((n2, n2), dtype=complex)
    for r, c, text in spec_json_entries(spec):
        out[r, c] = evaluate(text, q)
    return out


def embed3(R: np.ndarray, dims, parities, legs) -> np.ndarray:
    """Two-leg operator on three graded legs, with the Koszul sign of moving
    each factor past the spectator leg."""
    import numpy as np

    i, j = legs
    k = 3 - i - j
    out = np.zeros((dims[0] * dims[1] * dims[2],) * 2, dtype=complex)
    rows, cols = np.nonzero(R)
    for r, c in zip(rows, cols):
        ri, rj = divmod(r, dims[j])
        ci, cj = divmod(c, dims[j])
        di = (parities[i][ri] + parities[i][ci]) % 2
        dj = (parities[j][rj] + parities[j][cj]) % 2
        cross = ((di if i > k else 0) + (dj if j > k else 0)) % 2
        for s in range(dims[k]):
            row, col = [0, 0, 0], [0, 0, 0]
            row[i], row[j], row[k] = ri, rj, s
            col[i], col[j], col[k] = ci, cj, s
            fr = (row[0] * dims[1] + row[1]) * dims[2] + row[2]
            fc = (col[0] * dims[1] + col[1]) * dims[2] + col[2]
            out[fr, fc] = -R[r, c] if (cross and parities[k][s]) else R[r, c]
    return out


def _verdict(residual: float, scale: float):
    """True / False, or None when the residual sits between the tolerances."""
    rel = residual / max(1.0, scale)
    if rel < 1e-8:
        return True
    if rel > 1e-6:
        return False
    return None


def braid_holds(R: np.ndarray, dim: int, parity, R13=None, R23=None, dims=None,
                parities=None):
    """R12 R13 R23 == R23 R13 R12 in floating point (graded when parity is odd
    somewhere).  For three different legs pass R13, R23, dims and parities."""
    import numpy as np

    dims = dims or (dim, dim, dim)
    parities = parities or (parity, parity, parity)
    r12 = embed3(R, dims, parities, (0, 1))
    r13 = embed3(R if R13 is None else R13, dims, parities, (0, 2))
    r23 = embed3(R if R23 is None else R23, dims, parities, (1, 2))
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return _verdict(float(np.abs(lhs - rhs).max()), float(np.abs(lhs).max()))


def hecke_holds(R: np.ndarray, dim: int, q: complex):
    """(P R - q)(P R + 1/q) == 0 in floating point."""
    import numpy as np

    n2 = dim * dim
    perm = np.zeros((n2, n2))
    for a, b in product(range(dim), repeat=2):
        perm[a * dim + b, b * dim + a] = 1
    pr = perm @ R
    eye = np.eye(n2)
    res = (pr - q * eye) @ (pr + eye / q)
    return _verdict(float(np.abs(res).max()), float(np.abs(pr).max()) ** 2)


def verdict_error(what, verdict: bool, reference):
    if reference is None:
        return f"{what}: floating-point residual is inconclusive"
    if verdict != reference:
        return f"{what}: qgw says {verdict}, floating point says {reference}"
    return None


# -- evaluated universal R-matrix (standard family, 2-dimensional legs) ----

def universal_r_numeric(q: complex, lab_a, lab_b) -> np.ndarray:
    """R = diag(pref) (1 + (1 - q^2) K2 X+ (x) K2^-1 X-) on two labels.

    pref on weights (h1, h2) of the two legs is
    (-1)^(h2a h2b / 4) q^((h1a h1b - h2a h2b) / 4), with h1 = (2 m1, 2 m1 - 2)
    and h2 = (2 m2, 2 m2 + 2) on the two basis vectors.
    """
    import numpy as np

    ia, ib = ({k: np.array(v, dtype=complex) for k, v in uq_images(q, *lab).items()}
              for lab in (lab_a, lab_b))
    tail = np.eye(4, dtype=complex) + (1 - q * q) * np.kron(
        ia["K2"] @ ia["Xp"], ib["K2i"] @ ib["Xm"])

    def weights(m1, m2):
        return [(2 * m1, 2 * m2), (2 * m1 - 2, 2 * m2 + 2)]

    pref = []
    for h1a, h2a in weights(*lab_a):
        for h1b, h2b in weights(*lab_b):
            pref.append((-1) ** ((h2a * h2b // 4) % 2) * q ** ((h1a * h1b - h2a * h2b) // 4))
    return np.diag(pref) @ tail


def canonical_numeric(q: complex, m1: int, m2: int) -> np.ndarray:
    """Equal labels: q^((m1+m2)(m1-m2-1)) times the rank two solution at
    t = (-1)^m2 q^(m1+m2) (the closed form of the canonical check)."""
    import numpy as np

    t = (-1) ** (m2 % 2) * q ** (m1 + m2)
    base = np.array([[t, 0, 0, 0], [0, 1, t - 1 / t, 0], [0, 0, 1, 0], [0, 0, 0, -1 / t]],
                    dtype=complex)
    return q ** ((m1 + m2) * (m1 - m2 - 1)) * base


def matrix_error(what, got: np.ndarray, want: np.ndarray):
    import numpy as np

    if _verdict(float(np.abs(got - want).max()), float(np.abs(want).max())) is not True:
        return f"{what}: entries differ from the closed form"
    return None


# -- presentation sizes -----------------------------------------------------

def ar_rule_count(n: int, m: int) -> int:
    """Quadratic rules of A(R) for a gl(n|m)-type R: C(N,2) + 2nm, N = (n+m)^2."""
    return comb((n + m) ** 2, 2) + 2 * n * m


def omega_rule_count(dim: int) -> int:
    """Rules of Omega_q(R): C(d,2) for x x, d^2 for dx x, C(d+1,2) for dx dx."""
    return 2 * dim * dim


def count_error(what, got: int, want: int):
    if got != want:
        return f"{what}: {got} rules, expected {want}"
    return None
