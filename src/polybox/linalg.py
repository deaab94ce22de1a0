"""Dense exact linear algebra over rational tuples.

Vectors are tuples of rationals, matrices are tuples of row tuples.
Everything is Gaussian elimination with first-nonzero pivoting; there
are no stability concerns in exact arithmetic.
"""
from __future__ import annotations

from .exact import R0, R1, rat


def vec(xs):
    return tuple(rat(x) for x in xs)


def mat(rows):
    return tuple(vec(r) for r in rows)


def zeros(n):
    return (R0,) * n


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def combine(coeffs, vectors):
    """Σ c·v over paired coefficients and vectors, zero terms skipped."""
    out = zeros(len(vectors[0]))
    for c, v in zip(coeffs, vectors, strict=True):
        if c:
            out = vec_add(out, vec_scale(c, v))
    return out


def dot(a, b):
    s = R0
    for x, y in zip(a, b, strict=True):
        s += x * y
    return s


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def outer(a, b):
    return tuple(tuple(x * y for y in b) for x in a)


def identity(n):
    return tuple(tuple(R1 if i == j else R0 for j in range(n)) for i in range(n))


def _rref(rows):
    """Reduced row echelon form. Returns (rref rows as lists, pivot cols)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(_rref(rows)[1])


def independent_rows(rows):
    """Indices of a maximal linearly independent subset, greedily."""
    picked = []
    basis = []
    for i, row in enumerate(rows):
        cand = basis + [list(row)]
        if rank(cand) == len(cand):
            picked.append(i)
            basis = cand
    return picked


def invert(m):
    """Inverse of a square rational matrix; raises on singular input."""
    n = len(m)
    aug = [list(row) + [R1 if i == j else R0 for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))
