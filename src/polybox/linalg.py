"""Dense exact linear algebra over rational tuples.

Vectors are tuples of rationals, matrices are tuples of row tuples.
The kernels `dot`, `combine`, `mat_vec` and `mat_mul` never add two
rationals: they put each vector's entries on the LCM of its
denominators (`exact.numerators`), sum integer numerators, and build
one normalised rational per output entry with `rat(num, den)` (the
fraction-free idea of Bareiss, Math. Comp. 22, 1968, which `lp.py`
uses for the simplex). Results are the same rationals as a
term-by-term sum; only `.numerator`, `.denominator` and `rat` are used,
so any backend of `exact` works. `vec_add`, `vec_sub` and `vec_scale`
work entry by entry and skip zero entries. Every kernel returns exact
rationals, never bare ints, and raises ValueError on vectors of unequal
length.

Elimination (`rank`, `independent_rows`, `invert`) is Gaussian with
first-nonzero pivoting; there are no stability concerns in exact
arithmetic.

`linear_map` builds the matrix of a linear map from its values on a
spanning family, zero on the orthogonal complement of the family's
span (`StateSpace.linear_map` is the case of the vertices of K).
"""
from __future__ import annotations

import math
from operator import mul

from .exact import R0, R1, numerators, rat


def vec(xs):
    return tuple(rat(x) for x in xs)


def mat(rows):
    return tuple(vec(r) for r in rows)


def zeros(n):
    return (R0,) * n


def _ratio(num, den):
    return rat(num, den) if num else R0


def _same_length(a, b):
    if len(a) != len(b):
        raise ValueError(f"vectors of length {len(a)} and {len(b)}")


def vec_add(a, b):
    """a + b; an entry with a zero side is the other side, unchanged."""
    _same_length(a, b)
    return tuple(rat(x + y) if x and y else rat(x or y) for x, y in zip(a, b))


def vec_sub(a, b):
    """a − b; an entry with a zero side is the other side (negated)."""
    _same_length(a, b)
    return tuple(rat(x - y) if x and y else rat(x) if x else -rat(y)
                 for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(rat(c * x) if x else R0 for x in a)


def combine(coeffs, vectors):
    """Σ c·v over paired coefficients and vectors, zero terms skipped:
    integer numerators of the coefficients (over their LCM) times those
    of the vectors (over the LCM of theirs), summed per coordinate."""
    n = len(vectors[0])
    terms = [(c, v) for c, v in zip(coeffs, vectors, strict=True) if c]
    if not terms:
        return zeros(n)
    cnums, cden = numerators([c for c, _ in terms])
    vnums = []
    for _, v in terms:
        if len(v) != n:
            raise ValueError(f"vectors of length {n} and {len(v)}")
        vnums.append(numerators(v))
    vden = math.lcm(*(d for _, d in vnums))
    acc = [0] * n
    for w, (nums, d) in zip(cnums, vnums):
        w *= vden // d
        for t, x in enumerate(nums):
            if x:
                acc[t] += w * x
    den = cden * vden
    return tuple(_ratio(x, den) for x in acc)


def dot(a, b):
    _same_length(a, b)
    na, da = numerators(a)
    nb, db = numerators(b)
    return _ratio(sum(map(mul, na, nb)), da * db)


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def mat_vec(m, v):
    """m·v: v's numerators are taken once, each row's once."""
    nv, dv = numerators(v)
    out = []
    for row in m:
        _same_length(row, v)
        nr, dr = numerators(row)
        out.append(_ratio(sum(map(mul, nr, nv)), dr * dv))
    return tuple(out)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    """a·b with the numerators of every row of a and column of b taken
    once."""
    cols = [numerators(c) for c in transpose(b)]
    out = []
    for ra in a:
        _same_length(ra, b)
        nr, dr = numerators(ra)
        out.append(tuple(_ratio(sum(map(mul, nr, nc)), dr * dc) for nc, dc in cols))
    return tuple(out)


def outer(a, b):
    return tuple(tuple(x * y for y in b) for x in a)


def identity(n):
    return tuple(tuple(R1 if i == j else R0 for j in range(n)) for i in range(n))


def rref(rows):
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
        inv = R1 / m[r][c]
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
    return len(rref(rows)[1])


def independent_rows(rows):
    """Indices of a maximal linearly independent subset, greedily: each
    row not in the span of the rows before it. These are the pivot
    columns of the transpose's reduced row echelon form."""
    return rref(transpose(rows))[1]


def invert(m):
    """Inverse of a square rational matrix; raises on singular input."""
    n = len(m)
    aug = [list(row) + [R1 if i == j else R0 for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def linear_map(domain, images):
    """Matrix of the linear map sending each domain vector to its image,
    zero on the orthogonal complement of their span: Σ_a images[a] ⊗
    dual_a over an independent subset of the domain, with dual_a its
    dual basis inside the span. Raises ValueError if the assignment is
    not linear."""
    domain, images = mat(domain), mat(images)
    idx = independent_rows(domain)
    rows = [domain[i] for i in idx]
    ginv = invert([[dot(a, b) for b in rows] for a in rows])
    q = mat_mul(transpose([images[i] for i in idx]), [combine(g, rows) for g in ginv])
    if any(mat_vec(q, v) != img for v, img in zip(domain, images, strict=True)):
        raise ValueError("assignment does not extend to a linear map")
    return q
