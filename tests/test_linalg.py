"""Integer-numerator kernels in linalg and LpBuilder rows, against a
term-by-term Fraction reference computed here."""

import math
import random
from fractions import Fraction

import pytest

from polybox import linalg as la
from polybox.exact import Rational, numerators, rat
from polybox.lp import LpBuilder


def draw(rng):
    """A scalar of mixed kind: zero, an int, a small or a large fraction,
    as an exact rational or as a bare int."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([0, rat(0)])
    if kind == 1:
        return rng.randrange(-9, 10)
    if kind == 2:
        return rat(rng.randrange(-9, 10))
    if kind == 3:
        return rat(rng.randrange(-20, 21), rng.randrange(1, 13))
    if kind == 4:
        return rat(rng.randrange(-10**30, 10**30), rng.randrange(1, 10**25))
    return rat(rng.randrange(-5, 6), rng.choice([7, 49, 343, 2**40, 3**30]))


def vector(rng, n):
    return tuple(draw(rng) for _ in range(n))


def F(x):
    return Fraction(int(x.numerator), int(x.denominator))


def ref_dot(a, b):
    return sum((F(x) * F(y) for x, y in zip(a, b)), Fraction(0))


def exact_tuple(got, want):
    """Every entry an exact rational (never an int) equal to the reference."""
    assert all(type(x) is Rational for x in got)
    assert [F(x) for x in got] == list(want)


def is_integer(a):
    """An integer numerator: an int (or the backend's integer), not a
    rational."""
    return not isinstance(a, Rational) and a == int(a)


@pytest.mark.parametrize("n", (0, 1, 3, 6))
def test_dot_and_vector_sums(n):
    rng = random.Random(n)
    for _ in range(40):
        a, b = vector(rng, n), vector(rng, n)
        d = la.dot(a, b)
        assert type(d) is Rational and F(d) == ref_dot(a, b)
        exact_tuple(la.vec_add(a, b), [F(x) + F(y) for x, y in zip(a, b)])
        exact_tuple(la.vec_sub(a, b), [F(x) - F(y) for x, y in zip(a, b)])


@pytest.mark.parametrize("n", (1, 3, 6))
def test_combine_and_mat_vec(n):
    rng = random.Random(1000 + n)
    for _ in range(40):
        combine_and_mat_vec(rng, n)


def combine_and_mat_vec(rng, n):
    vectors = [vector(rng, n) for _ in range(rng.randrange(1, 5))]
    coeffs = [draw(rng) for _ in vectors]
    want = [sum((F(c) * F(v[t]) for c, v in zip(coeffs, vectors)), Fraction(0))
            for t in range(n)]
    exact_tuple(la.combine(coeffs, vectors), want)
    exact_tuple(la.combine([0] * len(vectors), vectors), [0] * n)
    m = [vector(rng, n) for _ in range(rng.randrange(0, 4))]
    v = vector(rng, n)
    exact_tuple(la.mat_vec(m, v), [ref_dot(row, v) for row in m])
    b = [vector(rng, 2) for _ in range(n)]
    got = la.mat_mul(m, b)
    assert [[F(x) for x in row] for row in got] == \
        [[ref_dot(row, [r[c] for r in b]) for c in range(2)] for row in m]
    assert all(type(x) is Rational for row in got for x in row)


def test_unequal_lengths_raise():
    a, b = (rat(1), rat(2)), (rat(1),)
    for call in (lambda: la.dot(a, b), lambda: la.vec_add(a, b),
                 lambda: la.vec_sub(a, b), lambda: la.mat_vec([a], b),
                 lambda: la.mat_vec([b, a], b), lambda: la.combine([1, 2], [a, b]),
                 lambda: la.combine([1], [a, a]), lambda: la.mat_mul([a], [b])):
        with pytest.raises(ValueError):
            call()


def test_numerators():
    nums, den = numerators((rat(1, 6), rat(-3, 4), 5, rat(0)))
    assert (nums, den) == ([2, -9, 60, 0], 12)
    assert numerators(()) == ([], 1)


def test_add_rows_against_fraction_rows():
    rng = random.Random(2000)
    for _ in range(60):
        add_rows_against_fraction_rows(rng)


def add_rows_against_fraction_rows(rng):
    # each stored row (coeffs, rhs, s, kind), read as coeffs/s and rhs/s,
    # is the Fraction sum Σ_a m[a]·expr[a], negated for ">="; s is the
    # LCM of the row's coefficients' reduced denominators, the rhs stays
    # out of it, and zero coefficients are gone
    nvars, width = rng.randrange(1, 6), rng.randrange(1, 5)
    expr = [{v: draw(rng) for v in rng.sample(range(nvars), rng.randrange(0, nvars + 1))}
            for _ in range(width)]
    matrix = [[draw(rng) for _ in range(width)] for _ in range(rng.randrange(1, 5))]
    kind = rng.choice(["eq", "le", "ge"])
    rhs = [draw(rng) for _ in matrix]
    if rng.randrange(2):
        rhs = [rhs[0]] * len(matrix)
        b_rhs = rhs[0]
    else:
        b_rhs = rhs
    b = LpBuilder()
    b.vars(nvars)
    b.add_rows(matrix, expr, kind, b_rhs)
    assert len(b._rows) == len(matrix)
    sign = -1 if kind == "ge" else 1
    for m, r, (coeffs, brhs, s, stored) in zip(matrix, rhs, b._rows):
        want = {}
        for ma, e in zip(m, expr):
            for v, c in e.items():
                want[v] = want.get(v, Fraction(0)) + F(ma) * F(c)
        want = {v: sign * c for v, c in want.items() if c}
        want_rhs = sign * F(r)
        assert stored == ("le" if kind == "ge" else kind)
        assert {v: Fraction(a, s) for v, a in coeffs.items()} == want
        assert Fraction(brhs, s) == want_rhs
        assert all(is_integer(a) and a for a in coeffs.values())
        # the stored rhs is an int when s clears it, else the exact rational
        assert is_integer(brhs) == (F(brhs).denominator == 1)
        assert s == math.lcm(*(c.denominator for c in want.values()))


def ref_rank(rows):
    """Rank by Fraction elimination, written out here."""
    m = [[F(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def ref_independent_rows(rows):
    """The greedy reference: keep each row that raises the rank."""
    picked = []
    for i, row in enumerate(rows):
        if ref_rank([rows[j] for j in picked] + [row]) == len(picked) + 1:
            picked.append(i)
    return picked


def dependent_matrix(rng, n, d):
    """n rational rows of length d: zero rows, repeats, multiples and
    combinations of earlier rows among random ones."""
    rows = []
    for _ in range(n):
        kind = rng.randrange(5) if rows else 4
        if kind == 0:
            row = la.zeros(d)
        elif kind == 1:
            row = rng.choice(rows)
        elif kind == 2:
            row = la.vec_scale(rat(rng.randrange(-5, 6), rng.randrange(1, 4)), rng.choice(rows))
        elif kind == 3:
            row = la.vec_add(rng.choice(rows), rng.choice(rows))
        else:
            row = la.vec(draw(rng) for _ in range(d))
        rows.append(row)
    return rows


def test_independent_rows_against_greedy_reference():
    rng = random.Random(24)
    for _ in range(200):
        rows = dependent_matrix(rng, rng.randrange(0, 8), rng.randrange(1, 6))
        assert la.independent_rows(rows) == ref_independent_rows(rows)
    assert la.independent_rows([]) == []


def test_linear_map_reproduces_and_kills_the_complement():
    rng = random.Random(2024)
    for _ in range(60):
        d, c = rng.randrange(1, 6), rng.randrange(1, 5)
        domain = dependent_matrix(rng, rng.randrange(1, 7), d)
        if la.is_zero([x for v in domain for x in v]):
            continue
        m = la.mat([[draw(rng) for _ in range(d)] for _ in range(c)])
        images = [la.mat_vec(m, v) for v in domain]
        q = la.linear_map(domain, images)
        assert len(q) == c and all(len(row) == d for row in q)
        for v, img in zip(domain, images):
            assert la.mat_vec(q, v) == img
        # a vector orthogonal to the domain's span maps to zero
        span = [domain[i] for i in la.independent_rows(domain)]
        inside = la.linear_map(span, span)
        for z in la.identity(d):
            perp = la.vec_sub(z, la.mat_vec(inside, z))
            assert all(la.dot(perp, v) == 0 for v in span)
            assert la.is_zero(la.mat_vec(q, perp))


def test_elimination_on_bare_ints_stays_exact():
    # the pivot row is scaled by a rational reciprocal, never 1/int
    assert la.rank([[1, 10**20], [1, 10**20 + 1]]) == 2
    inv = la.invert([[2, 1], [1, 1]])
    assert inv == ((1, -1), (-1, 2))
    assert all(isinstance(x, Rational) for row in inv for x in row)
    assert la.independent_rows([[1, 10**20], [1, 10**20 + 1], [0, 1]]) == [0, 1]
