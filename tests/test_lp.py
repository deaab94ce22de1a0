"""Exact rational scalars and the two-phase simplex solver."""

import random

import pytest

from polybox import lp, measurements
from polybox.exact import R0, R1, approx_eq, format_rat, is_rational, rat
from polybox.linalg import combine
from polybox.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpBuilder, LpStats, vec_expr
from polybox.polysimplex import PolySimplex


def rational_rows(b):
    """A builder's stored rows read back as rationals: (coeffs, rhs, kind),
    the integer coefficients and the exact rhs each over the row's scale
    s_r, the LCM of its coefficients' denominators."""
    return [({v: rat(a, s) for v, a in coeffs.items()}, rat(rhs, s), kind)
            for coeffs, rhs, s, kind in b._rows]


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
            assert rat(format_rat(q)) == q
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
        assert rational_rows(b) == [({1: rat(-2)}, rat(-4), "eq"), ({}, R0, "eq")]
        assert b._rows == [({1: -2}, -4, 1, "eq"), ({}, 0, 1, "eq")]
        res = b.minimize({0: R1})
        assert res.status == OPTIMAL and (res[0], res[1]) == (0, 2)

    def test_row_scale_ignores_the_rhs(self):
        # s_r clears only the coefficients; the fractional rhs stays exact
        # in the stored row, and the rhs column's one scale clears it
        b = LpBuilder()
        x, y = b.vars(2)
        b.add_eq({x: 1, y: 1}, rat(1, 7))
        assert b._rows == [({x: 1, y: 1}, rat(1, 7), 1, "eq")]
        res = b.minimize({x: R1})
        assert (res[x], res[y], res.stats.bits) == (0, rat(1, 7), 1)

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

    def test_farkas_check_rejects_made_up_multipliers(self):
        # rows x <= 1 and x >= 2 (stored as -x <= -2): y = (-1, -1) sums
        # them to 0 <= -1 and certifies infeasibility
        b = LpBuilder()
        x = b.var()
        b.add_le({x: 1}, 1)
        b.add_ge({x: 1}, 2)
        b._check_farkas(b.minimize({}).farkas)
        b._check_farkas((-R1, -R1))
        # y = (-1, 0) passes the signs and y^T A <= 0, but y^T b < 0
        with pytest.raises(AssertionError, match="not separating"):
            b._check_farkas((-R1, R0))
        # the feasible -x <= 1: y = (1,) gives y^T A = -1 <= 0 and
        # y^T b = 1 > 0, and only its sign on a '<=' row gives it away
        f = LpBuilder()
        x = f.var()
        f.add_ge({x: 1}, -1)
        assert f.minimize({}).status == OPTIMAL
        with pytest.raises(AssertionError, match="sign check"):
            f._check_farkas((R1,))

    def test_dual_check_rejects_made_up_duals(self):
        # min x + 2y st x + y >= 2 (stored -x - y <= -2), x <= 1: optimum
        # (1, 1) of value 3 with duals (-2, -1)
        b = LpBuilder()
        x, y = b.var(), b.var()
        b.add_ge({x: 1, y: 1}, 2)
        b.add_le({x: 1}, 1)
        cost = {x: R1, y: rat(2)}
        res = b.minimize(cost)
        b._check_dual(res.duals, cost, res.objective)
        with pytest.raises(AssertionError, match="strong duality"):
            b._check_dual((rat(-2), -R1), cost, rat(4))
        # y = (-3, 0) prices the feasible, not optimal, point (0, 3) at
        # its value 6: strong duality holds, the reduced costs (-2, -1) fail
        with pytest.raises(AssertionError, match="negative reduced cost"):
            b._check_dual((rat(-3), R0), cost, rat(6))
        # y = (0, 1) leaves reduced costs (0, 2) >= 0 and y^T b = 1; only
        # its sign on a '<=' row gives it away
        with pytest.raises(AssertionError, match="sign check"):
            b._check_dual((R0, R1), cost, R1)
        # min x st x - z == 0 (z free), x <= 1: y = (1, 0) leaves x a zero
        # reduced cost and y^T b = 0, but z the reduced cost 1
        f = LpBuilder()
        x, z = f.var(), f.var(nonneg=False)
        f.add_eq({x: 1, z: -1}, 0)
        f.add_le({x: 1}, 1)
        res = f.minimize({x: R1})
        assert res.objective == 0 and res.duals == (R0, R0)
        with pytest.raises(AssertionError, match="free variable"):
            f._check_dual((R1, R0), {x: R1}, R0)

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

    @pytest.mark.parametrize("case", ["eq", "le", "nonneg"])
    def test_primal_check_catches_a_perturbed_numerator(self, monkeypatch, case):
        # the check runs on the integer numerators X of x = X/d against
        # each row scaled by its LCM; one wrong numerator must fail it
        b = LpBuilder()
        x, y, z = b.var(), b.var(), b.var()
        if case == "le":
            b.add_le({x: rat(2, 3), y: rat(1, 5)}, 1)
            cost, bump, msg = {x: -1}, (x, 1), "infeasible point"
        else:
            b.add_eq({x: rat(1, 2), y: rat(1, 3)}, 1)
            cost, bump, msg = {x: 1, y: 1}, (x, 1), "infeasible point"
            if case == "nonneg":
                # z is in no row, so only its sign bound can fail
                bump, msg = (z, -1), "negative variable"
        assert b.minimize(cost).status == OPTIMAL
        public_x = LpBuilder._public_x

        def perturbed(T, col_of):
            X = list(public_x(T, col_of))
            X[bump[0]] += bump[1]
            return tuple(X)

        monkeypatch.setattr(LpBuilder, "_public_x", staticmethod(perturbed))
        with pytest.raises(AssertionError, match=msg):
            b.minimize(cost)

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
        # integer coefficients in -3..3
        _cross_check_highs(random.Random(11), lambda rng: rng.randrange(-3, 4),
                           lambda rng: rng.randrange(-4, 5))
        # the same coefficients with rhs of both signs and denominators up
        # to 999: every s_r is 1, and one rhs scale D > 1 clears them all
        _cross_check_highs(random.Random(13), lambda rng: rng.randrange(-3, 4),
                           lambda rng: rat(rng.randrange(-999, 1000),
                                           rng.randrange(1, 1000)))

    def test_rational_lps_against_highs(self):
        # rational coefficients with denominators up to 12, so that every
        # row is scaled to integers by its own factor
        _cross_check_highs(random.Random(12),
                           lambda rng: rat(rng.randrange(-6, 7), rng.randrange(1, 13)),
                           lambda rng: rat(rng.randrange(-8, 9), rng.randrange(1, 13)))

    def test_row_scaling_invariance(self):
        # c times a <= row with rhs >= 0 (a row that starts on its slack)
        # changes no pivot: status, x and objective stay, that row's dual
        # or Farkas multiplier is divided by c, the others stay, and a ray
        # keeps its direction
        rng = random.Random(5)
        seen = set()
        for _ in range(80):
            n = rng.randrange(2, 5)
            free = [rng.random() < 0.3 for _ in range(n)]
            rows = []
            for _ in range(rng.randrange(1, 5)):
                coeffs = {i: rat(rng.randrange(-6, 7), rng.randrange(1, 13))
                          for i in range(n)}
                rows.append((rng.choice(("eq", "le", "ge")), coeffs,
                             rat(rng.randrange(-8, 9), rng.randrange(1, 13))))
            k = rng.randrange(len(rows) + 1)
            rows.insert(k, ("le", {i: rat(rng.randrange(-6, 7), rng.randrange(1, 13))
                                   for i in range(n)}, rat(rng.randrange(0, 9), 4)))
            cost = {i: rat(rng.randrange(-3, 4), rng.randrange(1, 5)) for i in range(n)}
            c = rat(rng.randrange(1, 13), rng.randrange(1, 13))
            results = []
            for factor in (R1, c):
                b = LpBuilder()
                for f in free:
                    b.var(nonneg=not f)
                for r, (kind, coeffs, rhs) in enumerate(rows):
                    m = factor if r == k else R1
                    getattr(b, "add_" + kind)({i: m * a for i, a in coeffs.items()}, m * rhs)
                results.append(b.minimize(cost))
            base, scaled = results
            assert scaled.status == base.status
            seen.add(base.status)
            if base.status == OPTIMAL:
                assert (scaled.x, scaled.objective) == (base.x, base.objective)
                mult, mult_scaled = base.duals, scaled.duals
            elif base.status == INFEASIBLE:
                mult, mult_scaled = base.farkas, scaled.farkas
            else:
                # the same direction; the length changes when row k's slack
                # enters, because that slack is measured in units of row k
                t = next(b / a for a, b in zip(base.ray, scaled.ray) if a)
                assert t > 0 and scaled.ray == tuple(t * a for a in base.ray)
                continue
            assert mult_scaled[k] == mult[k] / c
            assert mult_scaled[:k] + mult_scaled[k + 1:] == mult[:k] + mult[k + 1:]
        assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}

    def test_redundant_equality_negative_drive_out_pivot(self, monkeypatch):
        # row 3 = −row 1. Phase 1 ends with row 2's artificial basic at
        # zero, and the first nonzero entry of its row is negative, so
        # driving it out pivots on p < 0; the tableau is then negated to
        # keep its denominator positive.
        pivots = []
        pivot = lp._Tableau.pivot

        def record(T, r, c):
            pivots.append(T.rows[r][c])
            pivot(T, r, c)
            assert T.d > 0

        monkeypatch.setattr(lp._Tableau, "pivot", record)
        b = LpBuilder()
        x, y = b.var(), b.var()
        b.add_eq({x: -1, y: -2}, -2)
        b.add_eq({x: 1, y: -1}, -1)
        b.add_eq({x: 1, y: 2}, 2)
        res = b.minimize({x: 1, y: 1})
        assert pivots[-1] < 0
        assert res.status == OPTIMAL and res.objective == 1
        assert (res[x], res[y]) == (0, 1)
        assert res.duals == (rat(-2, 3), rat(1, 3), R0)
        assert (res.stats.phase1_pivots, res.stats.phase2_pivots) == (2, 0)

    def test_unbounded_ray_through_a_scaled_slack(self):
        # min −y st −3x/4 + 2y <= 1/2, −x/4 + y <= 2: after two pivots the
        # slack of row 1 enters and no row limits it. The ray is one unit
        # of that slack in the caller's units; row 1 is scaled by 4 in the
        # tableau, so read in tableau units it would be (1, 1/4).
        b = LpBuilder()
        x, y = b.var(), b.var()
        b.add_le({x: rat(-3, 4), y: 2}, rat(1, 2))
        b.add_le({x: rat(-1, 4), y: 1}, 2)
        res = b.minimize({y: -1})
        assert res.status == UNBOUNDED and res.ray == (4, 1)
        assert res.stats.phase2_pivots == 2

    @pytest.mark.parametrize("seed, pivots", [(0, 17), (1, 19), (2, 15), (3, 17)])
    def test_joint_lp_tableau_stays_at_the_matrix_size(self, seed, pivots):
        # the 3-cube joint LP's matrix comes from K's facets and its data,
        # a seeded bias-15/16 collection, sits in the rhs only; with rows
        # scaled by their coefficients alone the final tableau stays small
        # (83-99 bits when the rhs denominators entered each row's scale)
        P = PolySimplex((1, 1, 1))
        F = measurements.random_collection(P.as_state_space(), P, random.Random(seed),
                                           bias=rat(15, 16))
        res = measurements._joint_lp(F)[0].minimize({})
        assert res.status == INFEASIBLE
        assert (res.stats.phase1_pivots, res.stats.phase2_pivots) == (pivots, 0)
        assert res.stats.bits <= 24

    def test_stats_record_size_and_pivots(self):
        # max x+y st x+2y<=4, 3x+y<=6: both rows start on their slacks, so
        # no phase-1 pivot; x enters on row 2 (p = 3), then y on row 1
        # (p = 5). The final tableau has d = 5 and largest entry 14, the
        # objective row's rhs cell (14/5).
        b = LpBuilder()
        x, y = b.var(), b.var()
        b.add_le({x: 1, y: 2}, 4)
        b.add_le({x: 3, y: 1}, 6)
        assert b.maximize({x: 1, y: 1}).stats == LpStats(
            rows=2, columns=4, split_columns=0, phase1_pivots=0,
            phase2_pivots=2, bits=4)
        # a free variable takes two columns and the == row an artificial:
        # the positive column of y has the most negative phase-1 reduced
        # cost, and its one pivot reaches the optimum x = 0. The <= row is
        # stored as 3x <= 4/3 (s_r = 4 clears only its coefficient), and
        # the rhs column's one scale D = 3 clears its rhs
        b = LpBuilder()
        x, y = b.var(), b.var(nonneg=False)
        b.add_eq({x: rat(1, 2), y: rat(2, 3)}, rat(5, 6))
        b.add_le({x: rat(3, 4)}, rat(1, 3))
        res = b.minimize({x: R1, y: rat(1, 5)})
        assert (res[x], res[y], res.objective) == (0, rat(5, 4), rat(1, 4))
        assert res.stats == LpStats(rows=2, columns=5, split_columns=2,
                                    phase1_pivots=1, phase2_pivots=0, bits=5)
        b.add_ge({x: 1}, 1)
        res = b.minimize({})
        assert res.status == INFEASIBLE
        assert (res.stats.rows, res.stats.columns) == (3, 7)


def record_pricing(monkeypatch):
    """Per pivot: the negative reduced costs {column: entry} before it,
    the entering column and whether the pivot is degenerate (ratio 0).
    The solves recorded must have no artificial columns."""
    steps = []
    pivot = lp._Tableau.pivot

    def record(T, r, c):
        neg = {j: v for j, v in T.rows[-1].items() if v < 0 and j != T.rhs}
        steps.append((neg, c, not T.rows[r].get(T.rhs)))
        pivot(T, r, c)

    monkeypatch.setattr(lp._Tableau, "pivot", record)
    return steps


class TestPricing:
    def test_dantzig_pricing_with_bland_on_stalls(self, monkeypatch):
        # min -2x - 5y - 5z st 2x - y + 3z <= 0, -2x + 2y - 2z <= 0: the
        # first pivot (y, most negative, least index on the tie with z) is
        # degenerate, so Bland's least index picks the next one, x
        steps = record_pricing(monkeypatch)
        b = LpBuilder()
        x, y, z = b.vars(3)
        b.add_le({x: 2, y: -1, z: 3}, 0)
        b.add_le({x: -2, y: 2, z: -2}, 0)
        res = b.minimize({x: -2, y: -5, z: -5})
        assert res.status == OPTIMAL and res.objective == 0
        stalled, differ = False, set()
        for neg, enter, degenerate in steps:
            least = min(neg)
            most = min(neg, key=lambda j: (neg[j], j))
            assert enter == (least if stalled else most)
            if least != most:
                differ.add(stalled)
            stalled = degenerate
        # both rules decided a pivot on which they disagree
        assert differ == {False, True}

    def test_degenerate_textbook_lps(self, monkeypatch):
        # Beale (1955) and Chvátal (Linear Programming, 1983, ch. 3): both
        # start with a degenerate pivot, and with their textbook choice of
        # leaving row Dantzig's rule alone cycles on them
        steps = record_pricing(monkeypatch)
        b = LpBuilder()
        x = b.vars(4)
        b.add_le({x[0]: rat(1, 4), x[1]: -8, x[2]: -1, x[3]: 9}, 0)
        b.add_le({x[0]: rat(1, 2), x[1]: -12, x[2]: rat(-1, 2), x[3]: 3}, 0)
        b.add_le({x[2]: 1}, 1)
        res = b.minimize({x[0]: rat(-3, 4), x[1]: 20, x[2]: rat(-1, 2), x[3]: 6})
        assert res.status == OPTIMAL and res.objective == rat(-5, 4)
        assert steps[0][2]
        steps.clear()
        b = LpBuilder()
        x = b.vars(4)
        b.add_le({x[0]: rat(1, 2), x[1]: rat(-11, 2), x[2]: rat(-5, 2), x[3]: 9}, 0)
        b.add_le({x[0]: rat(1, 2), x[1]: rat(-3, 2), x[2]: rat(-1, 2), x[3]: 1}, 0)
        b.add_le({x[0]: 1}, 1)
        res = b.maximize({x[0]: 10, x[1]: -57, x[2]: -9, x[3]: -24})
        assert res.status == OPTIMAL and res.objective == 1
        assert steps[0][2]

    def test_second_objective_picks_the_least_among_minimizers(self):
        # min x + y st x + y >= 1, x <= 2/3: every point of the segment
        # x + y = 1, 0 <= x <= 2/3 is optimal; then -x picks x = 2/3
        b = LpBuilder()
        x, y = b.var(), b.var()
        b.add_ge({x: 1, y: 1}, 1)
        b.add_le({x: 1}, rat(2, 3))
        first = b.minimize({x: 1, y: 1})
        res = b.minimize(({x: 1, y: 1}, {x: -1}))
        assert res.status == OPTIMAL and res.objective == 1
        assert (res[x], res[y]) == (rat(2, 3), rat(1, 3))
        assert res.duals == first.duals
        res = b.minimize(({x: 1, y: 1}, {x: 1}))
        assert (res[x], res[y]) == (0, 1)

    def test_second_objective_unbounded_on_the_optimal_face(self):
        # min y st y >= 1: x is free to grow, and then -x has no minimum;
        # the ray raises x and keeps y
        b = LpBuilder()
        x, y = b.var(), b.var()
        b.add_ge({y: 1}, 1)
        assert b.minimize({y: 1}).status == OPTIMAL
        res = b.minimize(({y: 1}, {x: -1}))
        assert res.status == UNBOUNDED and res.ray == (1, 0)


def _cross_check_highs(rng, coeff, rhs_draw):
    """Status and objective against scipy's HiGHS on 150 seeded random LPs
    mixing ==, <=, >= rows with rhs of both signs and nonneg/free
    variables; every optimum's duals must also be dual feasible. At each
    optimum a second cost, drawn from its own generator, is minimized
    among the minimizers, against HiGHS on the LP with the row
    cost·x == the first optimum added."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    highs_status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
    then_rng = random.Random(0)
    seen, seen_then = set(), set()
    for _ in range(150):
        n = rng.randrange(2, 6)
        free = [rng.random() < 0.3 for _ in range(n)]
        b = LpBuilder()
        xs = [b.var(nonneg=not f) for f in free]
        a_eq, b_eq, a_ub, b_ub = [], [], [], []
        for _ in range(rng.randrange(1, 6)):
            row = [coeff(rng) for _ in range(n)]
            rhs = rhs_draw(rng)
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
        # the stored rows, read back as rationals, are the rows HiGHS gets
        rows = rational_rows(b)
        for kind, a_rows, b_rows in (("eq", a_eq, b_eq), ("le", a_ub, b_ub)):
            assert [([coeffs.get(x, R0) for x in xs], rhs)
                    for coeffs, rhs, k in rows if k == kind] == \
                [([rat(c) for c in row], rat(r)) for row, r in zip(a_rows, b_rows)]
        cost = [rng.randrange(-3, 4) for _ in range(n)]
        res = b.minimize({xs[i]: c for i, c in enumerate(cost) if c})
        ref = linprog(cost, A_ub=[[float(c) for c in row] for row in a_ub] or None,
                      b_ub=[float(c) for c in b_ub] or None,
                      A_eq=[[float(c) for c in row] for row in a_eq] or None,
                      b_eq=[float(c) for c in b_eq] or None,
                      bounds=[(None, None) if f else (0, None) for f in free],
                      method="highs")
        assert res.status == highs_status.get(ref.status), ref.message
        if res.status == OPTIMAL:
            assert abs(float(res.objective) - ref.fun) <= 1e-7 * (1 + abs(ref.fun))
            # dual feasibility of the stored rows: y <= 0 on <= rows, and
            # reduced costs c - yA >= 0 (== 0 on free variables)
            for y, (coeffs, _, kind) in zip(res.duals, rows):
                assert kind == "eq" or y <= 0
            for i, f in enumerate(free):
                red = cost[i] - sum(y * coeffs.get(xs[i], 0)
                                    for y, (coeffs, _, _) in zip(res.duals, rows))
                assert red == 0 if f else red >= 0
            then = [then_rng.randrange(-3, 4) for _ in range(n)]
            lex = b.minimize(({xs[i]: c for i, c in enumerate(cost) if c},
                              {xs[i]: c for i, c in enumerate(then) if c}))
            ref = linprog(then, A_ub=[[float(c) for c in row] for row in a_ub] or None,
                          b_ub=[float(c) for c in b_ub] or None,
                          A_eq=[[float(c) for c in row] for row in a_eq + [cost]],
                          b_eq=[float(c) for c in b_eq + [res.objective]],
                          bounds=[(None, None) if f else (0, None) for f in free],
                          method="highs")
            assert lex.status == highs_status.get(ref.status), ref.message
            if lex.status == OPTIMAL:
                assert (lex.objective, lex.duals) == (res.objective, res.duals)
                value = sum(c * v for c, v in zip(then, lex.x))
                assert abs(float(value) - ref.fun) <= 1e-7 * (1 + abs(ref.fun))
            seen_then.add(lex.status)
        seen.add(res.status)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert OPTIMAL in seen_then


@pytest.fixture
def recorded_solves(monkeypatch):
    """(rows, variable kinds, cost, sense, result, warm) of every LP solved
    from here on, for a replay by HiGHS; warm: the solve started from the
    builder's kept phase-1 tableau."""
    solves = []
    solve = LpBuilder._solve

    def recording(self, cost, sense, then=None):
        warm = self._start is not None
        res = solve(self, cost, sense, then)
        solves.append((list(self._rows), list(self._vars), dict(cost), sense, res, warm))
        return res
    monkeypatch.setattr(LpBuilder, "_solve", recording)
    return solves


def replay_against_highs(solves):
    """Re-solve each recorded LP with scipy's HiGHS from its stored rows
    (a/s_r, b/s_r): the status must be the same and an optimum's
    objective within 1e-9 (a two-stage solve's first stage). Returns the
    set of statuses seen."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    highs_status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
    seen = set()
    for rows, kinds, cost, sense, res, _warm in solves:
        n = len(kinds)
        dense = {"eq": ([], []), "le": ([], [])}
        for coeffs, rhs, s, kind in rows:
            a, b = dense[kind]
            a.append([coeffs.get(v, 0) / s for v in range(n)])
            b.append(float(rat(rhs) / s))
        ref = linprog([float(cost.get(v, R0)) for v in range(n)],
                      A_ub=dense["le"][0] or None, b_ub=dense["le"][1] or None,
                      A_eq=dense["eq"][0] or None, b_eq=dense["eq"][1] or None,
                      bounds=[(0, None) if k == "nonneg" else (None, None)
                              for k in kinds], method="highs")
        assert res.status == highs_status.get(ref.status), ref.message
        seen.add(res.status)
        if res.status == OPTIMAL:
            # HiGHS minimizes cost·x; the result's objective is sense times that
            assert abs(float(sense * res.objective) - ref.fun) <= 1e-9
    return seen


class TestDecisionLpsAgainstHighs:
    """The decision LPs, as solved, re-solved by scipy's HiGHS from their
    stored rows: locality, separability and the steering degree; the
    joint-measurement LP and the incompatibility degree's free-mixing
    LP."""

    def test_replay(self, recorded_solves):
        from polybox.bell import is_local, random_ns_box
        from polybox.serialize import builtin_space
        from polybox.steering import (assemblage_from, is_separable, self_dual_state,
                                      square_self_dual_iso, steering_degree,
                                      steering_degree_at)
        from conftest import partition_assemblage

        rng = random.Random(31)
        P = PolySimplex((1, 1))
        sq = P.as_state_space()
        ident = measurements.identity_collection(P)
        y = self_dual_state(sq, square_self_dual_iso())
        for _ in range(30):
            box = random_ns_box(P, P, rng)
            is_local(box)
            is_separable(assemblage_from(ident, box.tensor(), sq))
        for _ in range(25):
            beta = assemblage_from(measurements.random_collection(sq, P, rng, bias=rat(3, 4)),
                                   y, sq)
            is_separable(beta)
            steering_degree_at(beta, P.barycenter())
            steering_degree(beta)
        for shape in ((1, 1), (2, 1)):
            for _ in range(6):
                beta = partition_assemblage(PolySimplex(shape), builtin_space("poly:2,1"), rng)
                is_separable(beta)
                steering_degree(beta)
        assert 150 <= len(recorded_solves) <= 300
        assert replay_against_highs(recorded_solves) == {OPTIMAL, INFEASIBLE}

    def test_joint_and_degree_lps(self, recorded_solves):
        # is_compatible on square and (2,1) collections, both verdicts, and
        # id_degree's free-mixing LP (with q_value's LP where λ* = 0)
        rng = random.Random(32)
        verdicts = []
        for shape in ((1, 1), (2, 1)):
            P = PolySimplex(shape)
            for t in range(12):
                F = measurements.random_collection(P.as_state_space(), P, rng,
                                                   bias=rat(3, 4) if t % 2 else None)
                verdicts.append(measurements.is_compatible(F)[0])
                measurements.id_degree(F)
        assert set(verdicts) == {True, False}
        assert 50 <= len(recorded_solves) <= 100
        assert replay_against_highs(recorded_solves) == {OPTIMAL, INFEASIBLE}

    def test_templated_lps(self, recorded_solves):
        # the templates: q_value's LP per (K, S, s) and is_witness's per
        # (K, S), whose costs change, and base_norm's per K, whose rhs
        # changes; most solves start from a kept phase-1 tableau
        from polybox.serialize import builtin_space
        from polybox.witnesses import is_witness, q_value, two_outcome_witness_criterion

        rng = random.Random(33)
        for label, shape in (("square", (1, 1)), ("cube:3", (1, 1, 1))):
            P, space = PolySimplex(shape), builtin_space(label)
            off = tuple(rat(j + 1, 3) for _ in shape for j in range(2))
            xbar = space.interior_point()
            for t in range(4):
                F = measurements.random_collection(space, P, rng, bias=rat(t, 4))
                for s in (P.barycenter(), off):
                    W = q_value(F, s)[1]
                    two_outcome_witness_criterion(W)
                    for c in (rat(1, 2), rat(3, 2), rat(2)):
                        for shift in (R0, rat(1, 4)):
                            is_witness(W.scale(c).translate(tuple(shift * x for x in xbar)))
        # per shape 8 q_value and 48 is_witness solves, and up to (k + 1)·8
        # of base_norm (none for a zero edge image); a cost-only template's
        # first two solves are cold (fewer if an earlier test built it),
        # and so is every with_rhs copy
        warm = sum(rec[-1] for rec in recorded_solves)
        assert 2 * (8 + 48) < len(recorded_solves) <= 2 * (8 + 48) + 8 * (2 + 3)
        assert 2 * (8 + 48) - 2 * 3 * 2 <= warm <= 2 * (8 + 48)
        assert replay_against_highs(recorded_solves) == {OPTIMAL}


@pytest.fixture
def solved(monkeypatch):
    """(builder, cost, result) of every LP solved from here on."""
    out = []
    solve = LpBuilder._solve

    def recording(self, cost, sense, then=None):
        res = solve(self, cost, sense, then)
        out.append((self, cost, res))
        return res
    monkeypatch.setattr(LpBuilder, "_solve", recording)
    return out


def cold_tensor_lp(shape, gens, rows):
    """`tensor_lp` at λ = 0 as one fresh builder, each block added with
    its rhs, T's rows at the edges and then T̄."""
    lp = LpBuilder()
    outcomes = shape.outcome_list()
    v = {n: lp.vars(len(gens[0])) for n in outcomes}
    for i, j in shape.edges:
        lp.add_rows(gens, vec_expr([(R1, v[n]) for n in outcomes if n[i] == j]), "eq",
                    rows[shape.index(i, j)])
    tbar = combine([R1] * (shape.shape[0] + 1), rows[:shape.shape[0] + 1])
    lp.add_rows(gens, vec_expr([(R1, v[n]) for n in outcomes]), "eq", tbar)
    return lp


def witness_template():
    """A fresh `is_witness` LP on the square, 6 == rows over 16 facet
    weights, and the costs of two witness maps on it."""
    from polybox import witnesses
    from polybox.polysimplex import square_space

    P, sq = PolySimplex((1, 1)), square_space()
    lp, phi = witnesses._collection_lp.__wrapped__(sq, P)
    rng = random.Random(34)
    costs = []
    for _ in range(2):
        W = witnesses.random_witness_map(P, sq, rng)
        cost = {}
        for key, cols in phi.items():
            img = W.vertex_images[P.chart_vertex(*key)]
            cost.update(zip(cols, (sum(a * b for a, b in zip(f, img)) for f in sq.facets)))
        costs.append(cost)
    return lp, phi, costs


class TestTemplates:
    """A builder kept per (space, shape, s) and solved for many costs, or
    a `with_rhs` copy of one, gives what a freshly built builder gives on
    the same data: status, objective, x, duals, Farkas vector and stats."""

    DRAWS = (("square", (1, 1)), ("poly:2,1", (2, 1)), ("cube:3", (1, 1, 1)))

    def test_cost_only_sites_equal_cold_solves(self, solved):
        from polybox import witnesses
        from polybox.serialize import builtin_space

        rng = random.Random(35)
        for label, shape in self.DRAWS:
            P, space = PolySimplex(shape), builtin_space(label)
            off = tuple(rat(j + 1, (l + 1) * (l + 2) // 2) for l in shape for j in range(l + 1))
            for t in range(3):
                F = measurements.random_collection(space, P, rng, bias=rat(t, 3))
                for s in (P.barycenter(), off):
                    W = witnesses.q_value(F, s)[1]
                    _lp, cost, res = solved[-1]
                    fresh = witnesses._q_lp.__wrapped__(space, P, s)[0]
                    assert fresh.minimize(cost) == res
                    witnesses.is_witness(W.scale(rat(3, 2)))
                    _lp, cost, res = solved[-1]
                    fresh = witnesses._collection_lp.__wrapped__(space, P)[0]
                    assert fresh.minimize(cost) == res

    def test_rhs_only_sites_equal_cold_solves(self, solved):
        # each template is first solved twice itself, so that it keeps a
        # phase-1 tableau (of rhs 0) that its with_rhs copies must not use
        from polybox import bell, spaces, steering
        from polybox.linalg import transpose
        from polybox.serialize import builtin_space
        from conftest import partition_assemblage

        rng = random.Random(36)
        Q = PolySimplex((1, 1))
        for label, shape in self.DRAWS:
            P, space = PolySimplex(shape), builtin_space(label)
            qspace = Q.as_state_space()
            joint_gens = transpose(space.facet_rows)
            box_gens = tuple(tuple(v[c] for v in qspace.vertices) for c in qspace.coord_idx)
            lhs_gens = tuple(tuple(v[c] for v in space.vertices) for c in space.coord_idx)
            norm_lp, norm_cost = spaces._base_norm_lp(space)
            for template, cost in ((measurements._tensor_template(P, joint_gens)[0], {}),
                                   (measurements._tensor_template(P, box_gens)[0], {}),
                                   (measurements._tensor_template(P, lhs_gens)[0], {}),
                                   (norm_lp, norm_cost)):
                template.minimize(cost)
                template.minimize(cost)
                assert template._start is not None
            for t in range(3):
                F = measurements.random_collection(space, P, rng, bias=rat(t, 3))
                measurements.is_compatible(F)
                res = solved[-1][2]
                rows = [[F.effects[key][a] for a in space.basis_idx] for key in P.keys]
                assert cold_tensor_lp(P, joint_gens, rows).minimize({}) == res

                box = bell.random_ns_box(P, Q, rng)
                bell.is_local(box)
                res = solved[-1][2]
                rows = [[row[c] for c in qspace.coord_idx] for row in box.tensor()]
                assert cold_tensor_lp(P, box_gens, rows).minimize({}) == res

                beta = partition_assemblage(P, space, rng)
                steering.is_separable(beta)
                res = solved[-1][2]
                rows = [[row[c] for c in space.coord_idx] for row in beta.rows]
                assert cold_tensor_lp(P, lhs_gens, rows).minimize({}) == res

                psi = combine([rat(rng.randrange(-4, 5), 3) for _ in space.vertices],
                              space.vertices)
                spaces.base_norm(space, psi)
                res = solved[-1][2]
                fresh = LpBuilder()
                c, d = fresh.vars(len(space.vertices)), fresh.vars(len(space.vertices))
                fresh.add_rows(transpose(space.vertices), vec_expr([(R1, c), (-R1, d)]),
                               "eq", psi)
                assert fresh.minimize(dict.fromkeys(c + d, R1)) == res
            statuses = {res.status for _lp, _cost, res in solved}
        assert statuses == {OPTIMAL, INFEASIBLE}

    def test_costs_a_b_a(self):
        # the second solve keeps phase 1's end; the third starts from a copy
        # of it, not from B's optimal tableau
        lp, _phi, (a, b) = witness_template()
        first = lp.minimize(a)
        assert lp.minimize(b) != first and lp._start is not None
        assert lp.minimize(a) == first
        assert lp.minimize(a) == first
        assert first.stats.phase1_pivots > 0

    def test_a_row_or_variable_after_a_solve(self):
        # the kept tableau is dropped: the solve is the cold one with the
        # new row, or with the new variable
        lp, phi, (a, b) = witness_template()
        lp.minimize(a)
        lp.minimize(b)
        row = {phi[(0, 0)][0]: R1, phi[(1, 0)][1]: R1}
        lp.add_ge(row, rat(1, 3))
        assert lp._start is None
        ref, _phi, _costs = witness_template()
        ref.add_ge(row, rat(1, 3))
        want = ref.minimize(a)
        assert lp.minimize(a) == want and lp.minimize(b) == ref.minimize(b)
        assert lp.minimize(a) == want and want.stats.rows == 7
        y = lp.var()
        ref.var()
        assert lp._start is None
        lp.add_le({y: R1, phi[(0, 1)][0]: R1}, rat(1, 2))
        ref.add_le({y: R1, phi[(0, 1)][0]: R1}, rat(1, 2))
        assert lp.minimize(b) == ref.minimize(b)

    def test_a_doctored_kept_tableau_trips_a_check(self):
        lp, _phi, (a, b) = witness_template()
        lp.minimize(a)
        lp.minimize(b)
        T = lp._start.T
        # one more unit of a basic facet weight: the point leaves the rows
        i = next(i for i, c in enumerate(T.basis) if c < len(lp._vars))
        T.rows[i][T.rhs] = T.rows[i].get(T.rhs, 0) + T.d * T.rhs_scale
        with pytest.raises(AssertionError):
            lp.minimize(a)

    def test_with_rhs_stores_the_rows_of_a_fresh_build(self):
        # a >= row keeps its sign: its rhs is stored negated, as add_ge does
        b = LpBuilder()
        x, y = b.var(), b.var(nonneg=False)
        b.add_eq({x: rat(1, 2), y: rat(2, 3)}, 0)
        b.add_ge({x: 1, y: -1}, 0)
        b.add_le({y: rat(3, 4)}, 0)
        c = b.with_rhs([rat(5, 6), rat(-1, 3), 2])
        ref = LpBuilder()
        x, y = ref.var(), ref.var(nonneg=False)
        ref.add_eq({x: rat(1, 2), y: rat(2, 3)}, rat(5, 6))
        ref.add_ge({x: 1, y: -1}, rat(-1, 3))
        ref.add_le({y: rat(3, 4)}, 2)
        assert (c._vars, c._rows) == (ref._vars, ref._rows)
        assert c.minimize({x: 1}) == ref.minimize({x: 1})
        with pytest.raises(ValueError, match="2 rhs values for 3 rows"):
            b.with_rhs([R0, R0])
