"""Exact rational scalars and the two-phase simplex solver."""

import random

import pytest

from polybox.exact import R0, R1, approx_eq, format_rat, is_rational, parse_rat, rat
from polybox.linalg import combine
from polybox.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpBuilder, vec_expr


class TestRationals:
    def test_rat_forms(self):
        assert rat(1, 2) + rat(1, 2) == R1
        assert rat("3/4") == rat(3, 4)
        assert rat("-2") == -2
        assert rat(5) == 5
        assert rat(2.0) == 2

    def test_non_integral_float_rejected(self):
        with pytest.raises(TypeError):
            rat(0.1)

    def test_format_parse_round_trip(self):
        rng = random.Random(0)
        for _ in range(100):
            q = rat(rng.randrange(-50, 51), rng.randrange(1, 17))
            assert parse_rat(format_rat(q)) == q
        assert format_rat(rat(4, 2)) == "2"
        assert format_rat(rat(-3, 6)) == "-1/2"

    def test_is_rational(self):
        assert is_rational(rat(1, 3))
        assert is_rational(7)
        assert not is_rational(0.5)

    def test_approx_eq(self):
        assert approx_eq(1.0, 1.0 + 1e-12)
        assert not approx_eq(1.0, 1.01)


class TestRowVocabulary:
    def test_vec_expr_sums_terms_per_coordinate(self):
        # 2·(x0, x1) − (x2, x3) + 0·(x4, x5) + (x0, x3)
        expr = vec_expr([(2, [0, 1]), (-1, [2, 3]), (0, [4, 5]), (1, [0, 3])])
        assert expr == [{0: 3, 2: -1}, {1: 2, 3: 0}]

    def test_vec_expr_needs_equal_lengths(self):
        with pytest.raises(ValueError):
            vec_expr([(1, [0, 1]), (1, [2])])

    @pytest.mark.parametrize("kind", ["eq", "le", "ge"])
    def test_add_rows_matches_hand_written_rows(self, kind):
        # rows of [[1, 2], [0, -1], [3, 0]]·(x + 2y) with x = (v0, v1), y = (v2, v3)
        expr = vec_expr([(1, [0, 1]), (2, [2, 3])])
        matrix = [[1, 2], [0, -1], [3, 0]]
        want = [{0: 1, 2: 2, 1: 2, 3: 4}, {1: -1, 3: -2}, {0: 3, 2: 6}]
        for rhs, rhs_rows in ((rat(5), [rat(5)] * 3), ((1, 2, 3), [1, 2, 3])):
            b, hand = LpBuilder(), LpBuilder()
            b.vars(4)
            hand.vars(4)
            b.add_rows(matrix, expr, kind, rhs)
            for row, r in zip(want, rhs_rows):
                getattr(hand, "add_" + kind)(row, r)
            assert b._rows == hand._rows

    def test_add_rows_drops_zero_coefficients_keeps_empty_rows(self):
        # (1, -1)·((x), (x + 2y)) = −2y; (0, 0)·… is an empty row
        expr = [{0: R1}, {0: R1, 1: rat(2)}]
        b = LpBuilder()
        b.vars(2)
        b.add_rows([[1, -1], [0, 0]], expr, "eq", [rat(-4), R0])
        assert b._rows == [({1: rat(-2)}, rat(-4), "eq"), ({}, R0, "eq")]
        res = b.minimize({0: R1})
        assert res.status == OPTIMAL and (res[0], res[1]) == (0, 2)

    def test_add_rows_rejects_a_short_matrix_row(self):
        b = LpBuilder()
        b.vars(2)
        with pytest.raises(ValueError):
            b.add_rows([[1]], vec_expr([(1, [0, 1])]), "ge", R0)

    def test_combine(self):
        vs = [(R1, R0, rat(2)), (R0, R1, R1)]
        assert combine([rat(3), rat(-1, 2)], vs) == (rat(3), rat(-1, 2), rat(11, 2))
        assert combine([R0, R0], vs) == (R0, R0, R0)
        with pytest.raises(ValueError):
            combine([R1], vs)


class TestSimplex:
    def test_bounded_optimum(self):
        # max x+y st x+2y<=4, 3x+y<=6 -> (8/5, 6/5), value 14/5
        b = LpBuilder()
        x, y = b.var(), b.var()
        b.add_le({x: 1, y: 2}, 4)
        b.add_le({x: 3, y: 1}, 6)
        res = b.maximize({x: 1, y: 1})
        assert res.status == OPTIMAL
        assert res.objective == rat(14, 5)
        assert (res[x], res[y]) == (rat(8, 5), rat(6, 5))

    def test_free_variable_bounded(self):
        b = LpBuilder()
        x = b.var(nonneg=False)
        y = b.var()
        b.add_eq({x: 1, y: 1}, 3)
        res = b.minimize({y: 1})
        assert res.status == OPTIMAL
        assert res[y] == 0 and res[x] == 3

    def test_free_variable_unbounded(self):
        b = LpBuilder()
        x = b.var(nonneg=False)
        y = b.var()
        b.add_eq({x: 1, y: 1}, 3)
        res = b.minimize({x: 1})
        assert res.status == UNBOUNDED

    def test_infeasible_with_farkas(self):
        b = LpBuilder()
        x = b.var()
        b.add_le({x: 1}, 1)
        b.add_ge({x: 1}, 2)
        res = b.minimize({})
        assert res.status == INFEASIBLE
        assert res.farkas is not None

    def test_unbounded_with_ray(self):
        b = LpBuilder()
        x = b.var()
        b.add_ge({x: 1}, 1)
        res = b.maximize({x: 1})
        assert res.status == UNBOUNDED
        assert res.ray is not None

    def test_feasibility_probe(self):
        b = LpBuilder()
        x = b.var()
        b.add_eq({x: 2}, 3)
        res = b.minimize({})
        assert res.status == OPTIMAL
        assert res[x] == rat(3, 2)

    def test_duals_price_the_optimum(self):
        # strong duality: c.x == y.b at the optimum
        b = LpBuilder()
        x, y = b.var(), b.var()
        b.add_le({x: 1, y: 2}, 4)
        b.add_le({x: 3, y: 1}, 6)
        res = b.maximize({x: 1, y: 1})
        assert res.duals is not None
        assert sum(d * r for d, r in zip(res.duals, (4, 6))) == res.objective

    def test_random_lps_against_feasible_construction(self):
        # build LPs with a known feasible point; optimum must not exceed it
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randrange(2, 5)
            b = LpBuilder()
            xs = b.vars(n)
            x0 = [rat(rng.randrange(0, 4)) for _ in range(n)]
            for _ in range(rng.randrange(1, 4)):
                coeffs = {xs[i]: rat(rng.randrange(-3, 4)) for i in range(n)}
                rhs = sum(coeffs[xs[i]] * x0[i] for i in range(n))
                b.add_le(coeffs, rhs + rng.randrange(0, 3))
            cost = {xs[i]: rat(rng.randrange(-3, 4)) for i in range(n)}
            res = b.minimize(cost)
            if res.status == OPTIMAL:
                val0 = sum(cost[xs[i]] * x0[i] for i in range(n))
                assert res.objective <= val0

    def test_duals_with_slack_and_artificial_rows(self):
        # min x+2y st x+y>=2 (starts on an artificial), x<=1 (starts on its
        # slack): optimum (1, 1), unique duals of the stored <= rows
        b = LpBuilder()
        x, y = b.var(), b.var()
        b.add_ge({x: 1, y: 1}, 2)
        b.add_le({x: 1}, 1)
        res = b.minimize({x: 1, y: 2})
        assert res.status == OPTIMAL and res.objective == 3
        assert (res[x], res[y]) == (1, 1)
        assert res.duals == (rat(-2), rat(-1))

    def test_random_lps_against_highs(self):
        # independent solver on seeded random LPs mixing ==, <=, >= rows
        # with rhs of both signs and nonneg/free variables
        linprog = pytest.importorskip("scipy.optimize").linprog
        highs_status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
        rng = random.Random(11)
        seen = set()
        for _ in range(150):
            n = rng.randrange(2, 6)
            free = [rng.random() < 0.3 for _ in range(n)]
            b = LpBuilder()
            xs = [b.var(nonneg=not f) for f in free]
            a_eq, b_eq, a_ub, b_ub = [], [], [], []
            for _ in range(rng.randrange(1, 6)):
                row = [rng.randrange(-3, 4) for _ in range(n)]
                rhs = rng.randrange(-4, 5)
                coeffs = {xs[i]: c for i, c in enumerate(row) if c}
                kind = rng.choice(("==", "<=", ">="))
                if kind == "==":
                    b.add_eq(coeffs, rhs)
                    a_eq.append(row)
                    b_eq.append(rhs)
                elif kind == "<=":
                    b.add_le(coeffs, rhs)
                    a_ub.append(row)
                    b_ub.append(rhs)
                else:
                    b.add_ge(coeffs, rhs)
                    a_ub.append([-c for c in row])
                    b_ub.append(-rhs)
            cost = [rng.randrange(-3, 4) for _ in range(n)]
            res = b.minimize({xs[i]: c for i, c in enumerate(cost) if c})
            ref = linprog(cost, A_ub=a_ub or None, b_ub=b_ub or None,
                          A_eq=a_eq or None, b_eq=b_eq or None,
                          bounds=[(None, None) if f else (0, None)
                                  for f in free],
                          method="highs")
            assert res.status == highs_status.get(ref.status), ref.message
            if res.status == OPTIMAL:
                assert abs(float(res.objective) - ref.fun) <= 1e-7 * (
                    1 + abs(ref.fun))
            seen.add(res.status)
        assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
