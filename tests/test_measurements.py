"""Measurement collections, the joint LP, and incompatibility degrees."""

import itertools
import random

import pytest

from polybox import linalg as la
from polybox import measurements
from polybox.exact import R0, R1, rat
from polybox.lp import OPTIMAL, LpBuilder, vec_expr
from polybox.measurements import (DegreeReport, _dual_witness, _joint_lp, from_functionals,
                                  id_degree, id_degree_at, identity_collection,
                                  is_compatible, least_mixing, make_collection,
                                  random_collection, scaled_state_vars)
from polybox.polysimplex import PolySimplex, polysimplex_space, square_space
from polybox.serialize import builtin_space, space_from_json
from polybox.spaces import simplex_space
from polybox.witnesses import make_witness_map, q_value, trace_pairing

from conftest import apply_collection, coin_toss, coin_toss_on, pentagon_json

SQ = PolySimplex((1, 1))

#: two binary effects on the pentagon whose ID = 1/5 no interior base
#: point attains: `id_degree` returns s = (1, 0, ½, ½). A seeded search
#: of asymmetric facet-combination collections on the square, poly:2,1,
#: cube:3 and the pentagon found such draws on the pentagon only.
PENTAGON_BOUNDARY = {(0, 0): ("3/5", "3/4", "3/8", "0", "3/40"),
                     (0, 1): ("2/5", "1/4", "5/8", "1", "37/40"),
                     (1, 0): ("1", "1/2", "0", "3/8", "1"),
                     (1, 1): ("0", "1/2", "1", "5/8", "0")}


def value_rows(F):
    """F's value table, one row per key in `shape.keys` order: the tensor
    that a joint measurement of F decomposes."""
    return [F.effects[key] for key in F.shape.keys]


def square_values(f):
    """Values of an ambient square functional on the four vertices."""
    sp = square_space()
    return tuple(la.dot(f, v) for v in sp.vertices)


class TestValidation:
    def test_missing_effect(self):
        sp = square_space()
        eff = {(0, 0): square_values(SQ.m(0, 0)),
               (0, 1): square_values(SQ.m(0, 1))}
        with pytest.raises(ValueError):
            make_collection(sp, (1, 1), eff)

    def test_negative_effect(self):
        # the second table is affinely consistent, so only the sign refuses it
        sp = square_space()
        for low in ((rat(-1, 4), R0, R0, R0), (rat(-1, 4), R0, R0, rat(1, 4))):
            eff = {(0, 0): low,
                   (0, 1): tuple(R1 - v for v in low),
                   (1, 0): square_values(SQ.m(1, 0)),
                   (1, 1): square_values(SQ.m(1, 1))}
            with pytest.raises(ValueError):
                make_collection(sp, (1, 1), eff)

    def test_short_effect(self):
        # the length is checked before the table is transposed, which
        # would drop the last vertex silently
        sp = square_space()
        eff = {key: square_values(SQ.m(*key)) for key in SQ.keys}
        eff[(1, 1)] = eff[(1, 1)][:3]
        with pytest.raises(ValueError, match="has 3 values, expected 4"):
            make_collection(sp, (1, 1), eff)

    def test_not_normalized(self):
        sp = square_space()
        eff = {(0, 0): square_values(SQ.m(0, 0)),
               (0, 1): square_values(SQ.m(0, 0)),
               (1, 0): square_values(SQ.m(1, 0)),
               (1, 1): square_values(SQ.m(1, 1))}
        with pytest.raises(ValueError):
            make_collection(sp, (1, 1), eff)

    def test_affinely_inconsistent(self):
        # square vertices obey v00 + v11 = v01 + v10; these values do not
        sp = square_space()
        eff = {(0, 0): (R1, R0, R0, R0),
               (0, 1): (R0, R1, R1, R1),
               (1, 0): square_values(SQ.m(1, 0)),
               (1, 1): square_values(SQ.m(1, 1))}
        with pytest.raises(ValueError):
            make_collection(sp, (1, 1), eff)

    def test_mix_shape_mismatch(self):
        a = identity_collection(SQ)
        b = coin_toss(PolySimplex((2,)), PolySimplex((2,)).barycenter())
        with pytest.raises(ValueError):
            a.mix(b, rat(1, 2))


class TestBasics:
    def test_identity_applies_to_itself(self):
        F = identity_collection(SQ)
        for v in F.space.vertices:
            assert apply_collection(F, v) == v

    def test_coin_toss_is_constant(self):
        s = SQ.barycenter()
        F = coin_toss(SQ, s)
        for v in F.space.vertices:
            assert apply_collection(F, v) == s
        with pytest.raises(ValueError):
            coin_toss(SQ, la.vec_scale(2, s))

    def test_effect_value_extends_linearly(self):
        F = identity_collection(SQ)
        sp = F.space
        mid = la.vec_scale(rat(1, 2), la.vec_add(sp.vertices[0], sp.vertices[3]))
        for (i, j), vals in F.effects.items():
            want = (vals[0] + vals[3]) / 2
            assert F.effect_value(i, j, mid) == want

    def test_map_matrix_matches_apply(self):
        rng = random.Random(7)
        F = random_collection(square_space(), (1, 1), rng)
        m = F.as_map_matrix()
        for v in F.space.vertices:
            assert tuple(la.mat_vec(m, v)) == apply_collection(F, v)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 1, 1), (2, 1), (2,)])
    def test_effects_kept_from_validation(self, shape):
        # bias pulls H towards the identity collection through `mix`
        rng = random.Random(11)
        P = PolySimplex(shape)
        space = polysimplex_space(shape)
        ident = identity_collection(P)
        F = random_collection(space, (1, 1), rng)
        G = random_collection(space, (1, 1), rng)
        H = random_collection(space, shape, rng, bias=rat(1, 2))
        collections = [ident, F, G, H, F.mix(G, rat(1, 3)), ident.mix(H, rat(3, 4)),
                       coin_toss(P, P.barycenter()),
                       from_functionals(space, (1, 1), {k: F.effect(*k) for k in F.effects})]
        for C in collections:
            assert C.space is space
            for (i, j), vals in C.effects.items():
                assert C.effect(i, j) == space.canonical_functional(vals)

    def test_mix_interpolates(self):
        F = identity_collection(SQ)
        G = coin_toss(SQ, SQ.barycenter())
        H = F.mix(G, rat(1, 4))
        for k, vals in H.effects.items():
            want = tuple(rat(3, 4) * a + rat(1, 4) * b
                         for a, b in zip(F.effects[k], G.effects[k]))
            assert vals == want


class TestCompatibility:
    def test_identity_on_square_incompatible(self):
        # the Farkas witness of the identity pair is demo row 1's: Tr FW = −1
        F = identity_collection(SQ)
        ok, W = is_compatible(F)
        assert not ok
        assert la.dot(F.space.unit, W.bar_image()) == R1
        assert trace_pairing(F, W) == -1
        assert is_compatible(F, want_joint=False) == (False, None)

    def test_coin_toss_compatible(self):
        F = coin_toss(SQ, SQ.barycenter())
        ok, joint = is_compatible(F)
        assert ok
        assert joint.check(value_rows(F))

    def test_product_collection_compatible(self):
        # one sharp input plus one trivial input always has a joint
        sp = square_space()
        half = la.vec_scale(rat(1, 2), sp.unit)
        F = from_functionals(sp, (1, 1), {(0, 0): SQ.m(0, 0),
                                          (0, 1): SQ.m(0, 1),
                                          (1, 0): half, (1, 1): half})
        ok, joint = is_compatible(F)
        assert ok
        assert joint.check(value_rows(F))

    def test_a_joint_that_misses_the_marginals_raises(self, monkeypatch):
        # the solved weights read for the wrong outcomes: (n_0, n_1) and
        # (1 − n_0, 1 − n_1) swap, so the sharp input's marginals swap
        build = measurements._joint_lp

        def swapped(F, mixing=None):
            lp, c, lam, t = build(F, mixing)
            return lp, dict(zip(c, reversed(list(c.values())))), lam, t
        monkeypatch.setattr(measurements, "_joint_lp", swapped)
        half = la.vec_scale(rat(1, 2), square_space().unit)
        F = from_functionals(square_space(), (1, 1), {(0, 0): SQ.m(0, 0),
                                                      (0, 1): SQ.m(0, 1),
                                                      (1, 0): half, (1, 1): half})
        with pytest.raises(AssertionError, match="misses row"):
            is_compatible(F)

    def test_a_joint_that_is_not_affine_raises(self, monkeypatch):
        # the identity pair's table g_n(x_t) = 1 where F(x_t) = s_n, else
        # 0: nonnegative, with F's marginals, so `check` passes, but g_00
        # reads 1, 0, 0, 0 on the vertices 00, 01, 10, 11, whose affine
        # relation x_00 + x_11 = x_01 + x_10 it breaks. A feasible joint LP
        # (of a compatible collection) lets is_compatible reach the table.
        F = identity_collection(SQ)
        table = {n: tuple(R1 if tuple(F.effects[key][t] for key in SQ.keys) == SQ.vertex(n)
                          else R0 for t in range(4))
                 for n in SQ.outcomes()}
        half = la.vec_scale(rat(1, 2), square_space().unit)
        G = from_functionals(square_space(), (1, 1), {(0, 0): SQ.m(0, 0),
                                                      (0, 1): SQ.m(0, 1),
                                                      (1, 0): half, (1, 1): half})
        build = measurements._joint_lp
        joint = measurements.ProductDecomposition
        monkeypatch.setattr(measurements, "_joint_lp", lambda F, mixing=None: build(G, mixing))
        monkeypatch.setattr(measurements, "ProductDecomposition",
                            lambda shape, space, weights: joint(shape, space, table))
        assert joint(SQ, simplex_space(3), table).check(value_rows(F))
        assert F.space.linear_map(la.transpose(list(table.values()))) is None
        with pytest.raises(AssertionError, match="not affine on K"):
            is_compatible(F)

    def test_simplex_domain_always_compatible(self):
        # classical systems admit no incompatibility
        rng = random.Random(3)
        sp = simplex_space(3)
        for _ in range(10):
            F = random_collection(sp, (1, 1), rng)
            ok, _ = is_compatible(F, want_joint=False)
            assert ok

    def test_joint_check_rejects_doctored_table(self):
        F = coin_toss(SQ, SQ.barycenter())
        ok, joint = is_compatible(F)
        assert ok
        key = next(iter(joint.weights))
        joint.weights[key] = tuple(v + rat(1, 7) for v in joint.weights[key])
        with pytest.raises(AssertionError):
            joint.check(value_rows(F))


class TestDegrees:
    def test_identity_square_degree(self):
        F = identity_collection(SQ)
        s = SQ.barycenter()
        assert id_degree_at(F, s, cross_check=True) == rat(1, 2)

    def test_boundary_point_rejected(self):
        F = identity_collection(SQ)
        # a vertex, a positive point whose blocks sum to 2, a short point
        for s in (F.space.vertices[0], (R1,) * 4, (R1, R1, R1)):
            with pytest.raises(ValueError):
                id_degree_at(F, s)

    def test_degree_zero_for_compatible(self):
        F = coin_toss(SQ, SQ.barycenter())
        assert id_degree_at(F, SQ.barycenter()) == R0
        rep = id_degree(F)
        assert isinstance(rep, DegreeReport)
        assert rep.value == R0 and rep.evaluations == 1

    def test_search_on_identity(self):
        rep = id_degree(identity_collection(SQ))
        assert rep.value == rat(1, 2)
        assert SQ.interior(rep.s)

    def test_barycenter_bound(self):
        # k+1 inputs force ID at the barycenter to at most k/(k+1)
        rng = random.Random(11)
        s = SQ.barycenter()
        for t in range(8):
            F = random_collection(square_space(), (1, 1), rng,
                                  bias=rat(3, 4) if t % 2 else None)
            assert id_degree_at(F, s, cross_check=True) <= rat(1, 2)

    def test_mixing_to_degree_restores_compatibility(self):
        F = identity_collection(SQ)
        s = SQ.barycenter()
        lam = id_degree_at(F, s)
        mixed = F.mix(coin_toss_on(F.space, SQ, s), lam)
        ok, joint = is_compatible(mixed)
        assert ok
        assert joint.check(value_rows(mixed))
        # any smaller mixing weight leaves it incompatible
        under = F.mix(coin_toss_on(F.space, SQ, s), lam - rat(1, 100))
        ok, _ = is_compatible(under, want_joint=False)
        assert not ok

    def test_random_collection_valid_on_foreign_space(self):
        rng = random.Random(5)
        sp = polysimplex_space((2, 1))
        F = random_collection(sp, (1, 1, 1), rng, bias=rat(1, 2))
        assert apply_collection(F, sp.vertices[0])
        tgt = PolySimplex((1, 1, 1)).as_state_space()
        for v in sp.vertices:
            assert tgt.is_state(apply_collection(F, v))


def block_grid(shape):
    """Interior states of S whose block entries all lie in {1/4, 1/2, 3/4}."""
    vals = (rat(1, 4), rat(1, 2), rat(3, 4))
    blocks = [[b for b in itertools.product(vals, repeat=l + 1) if sum(b) == 1]
              for l in shape.shape]
    return [tuple(itertools.chain(*bs)) for bs in itertools.product(*blocks)]


class TestSingleLpDegree:
    """id_degree is the least mixing weight over all interior s, found by
    one LP solve."""

    def check_report(self, F, rep):
        assert F.shape.interior(rep.s)
        assert id_degree_at(F, rep.s) == rep.value
        for s in block_grid(F.shape):
            assert rep.value <= id_degree_at(F, s)
        ok, _ = is_compatible(F.mix(coin_toss_on(F.space, F.shape, rep.s), rep.value),
                              want_joint=False)
        assert ok
        assert rep.evaluations == 1

    @pytest.mark.parametrize("shape, value", [((1, 1), rat(1, 2)), ((1, 1, 1), rat(2, 3)),
                                              ((2, 1), rat(1, 2)), ((2, 2), rat(1, 2))])
    def test_identity(self, shape, value):
        F = identity_collection(PolySimplex(shape))
        rep = id_degree(F)
        assert rep.value == value
        self.check_report(F, rep)

    @pytest.mark.parametrize("bias", [rat(1, 2), rat(3, 4), rat(15, 16)])
    def test_random_square(self, bias):
        # seed 20 gives a compatible draw at bias 1/2, incompatible ones above
        F = random_collection(square_space(), SQ, random.Random(20), bias=bias)
        self.check_report(F, id_degree(F))

    @pytest.mark.parametrize("bias", [None, rat(15, 16)])
    def test_report_keeps_the_certifying_witness(self, bias):
        F = random_collection(square_space(), SQ, random.Random(20), bias=bias)
        rep = id_degree(F)
        q, W, lam = q_value(F, rep.s)
        assert rep.witness.vertex_images == W.vertex_images
        assert trace_pairing(F, rep.witness) == q and lam == rep.value


class TestDualWitness:
    """id_degree reads its witness off the duals of its one solve: a
    witness map with ⟨1_K, W(s)⟩ = 1 whose trace is q_s(F) at the
    reported s, so −q/(1−q) certifies the least mixing from below."""

    @staticmethod
    def collections(shape, n_random):
        P = PolySimplex(shape)
        rng = random.Random(str(("dual witness", shape)))
        out = [identity_collection(P)]
        for bias in (rat(3, 4), rat(15, 16), rat(9, 10))[:n_random]:
            out.append(random_collection(polysimplex_space(shape), P, rng, bias=bias))
        return out

    @pytest.mark.parametrize("shape, n_random", [((1, 1), 3), ((1, 1, 1), 3), ((2, 1), 3),
                                                 ((2, 2), 2), ((1, 1, 1, 1), 1)], ids=str)
    def test_read_back_witness_certifies_the_degree(self, shape, n_random):
        for F in self.collections(shape, n_random):
            rep = id_degree(F)
            assert rep.value > 0 and rep.evaluations == 1
            W = rep.witness
            assert make_witness_map(F.shape, F.space, W.vertex_images).vertex_images == \
                W.vertex_images
            assert la.dot(F.space.unit, W.apply(rep.s)) == R1
            assert trace_pairing(F, W) == rep.q
            q, _W, lam = q_value(F, rep.s)
            assert rep.q == q and lam == rep.value
            assert -q / (R1 - q) == rep.value

    def test_boundary_base_point(self):
        # least_mixing's boundary branch: the witness is normalized at an s
        # with a zero coordinate, and interior points approach its degree
        F = make_collection(space_from_json(pentagon_json()), (1, 1),
                            {k: tuple(map(rat, v)) for k, v in PENTAGON_BOUNDARY.items()})
        rep = id_degree(F)
        half = rat(1, 2)
        assert rep.value == rat(1, 5) and rep.s == (R1, R0, half, half)
        assert not F.shape.interior(rep.s)
        W = rep.witness
        assert make_witness_map(F.shape, F.space, W.vertex_images).vertex_images == \
            W.vertex_images
        assert la.dot(F.space.unit, W.apply(rep.s)) == R1
        assert trace_pairing(F, W) == rep.q and -rep.q / (R1 - rep.q) == rep.value
        near = [id_degree_at(F, (R1 - e, e, half, half)) for e in (rat(1, 10), rat(1, 1000))]
        assert near[0] > near[1] > rep.value

    def test_reads_the_solve_of_the_report(self):
        # the witness is a function of the returned duals alone
        F = identity_collection(PolySimplex((2, 1)))
        rep = id_degree(F)
        W, q = _dual_witness(F, rep.solve.duals[len(F.shape.shape) + 1:], rep.s)
        assert W.vertex_images == rep.witness.vertex_images and q == rep.q == -1

    def test_wrong_duals_are_not_a_witness(self):
        F = identity_collection(SQ)
        # the chart rows' duals, past the λ ≤ 1 and scaled_state_vars rows
        y = id_degree(F).solve.duals[3:]
        # negated, W(s) has unit value −1 before normalization
        with pytest.raises(AssertionError, match="⟨1_K, W"):
            _dual_witness(F, [-v for v in y], F.shape.barycenter())
        # one marginal multiplier moved leaves an image outside V(K)+
        moved = list(y)
        moved[1] += rat(1, 2)
        with pytest.raises(AssertionError, match="NOT_POSITIVE"):
            _dual_witness(F, moved, F.shape.barycenter())

    def test_a_witness_that_misses_the_value_raises(self, monkeypatch):
        read = measurements._dual_witness

        def halved(F, duals, s):
            W, q = read(F, duals, s)
            return W.scale(rat(1, 2)), q / 2
        monkeypatch.setattr(measurements, "_dual_witness", halved)
        with pytest.raises(AssertionError, match="dual witness"):
            id_degree(identity_collection(SQ))

    def test_compatible_keeps_the_barycenter_witness(self):
        F = coin_toss(SQ, SQ.barycenter())
        rep = id_degree(F)
        q, W, _lam = q_value(F, SQ.barycenter())
        assert rep.value == R0 and rep.q == q >= 0
        assert rep.witness.vertex_images == W.vertex_images


def two_lp_least_mixing(lp, lam, t, shape):
    """The two-solve form of `least_mixing`: the least λ*, then, with
    λ = λ* added, a second LP that maximizes μ ≤ every t^i_j, and s =
    t/λ* at its optimum."""
    res = lp.minimize({lam: R1})
    if res.status != OPTIMAL:
        raise AssertionError("mixing LP infeasible at λ=1")
    lam_star = res.objective
    if lam_star == 0:
        return DegreeReport(R0, shape.barycenter(), 1)
    lp.add_eq({lam: R1}, lam_star)
    mu = lp.var(nonneg=True)
    for v in t:
        lp.add_le({mu: R1, v: -R1}, R0)
    res = lp.maximize({mu: R1})
    assert res.status == OPTIMAL
    return DegreeReport(lam_star, tuple(res[v] / lam_star for v in t), 2)


def mixing_outcome(search, build):
    """(λ*, smallest entry of s) of search(*build()). The smallest entry
    of s is μ*/λ*, so two searches that agree on it found the same
    greatest μ; it is 0 when only a boundary s attains λ*."""
    rep = search(*build())
    return rep.value, min(rep.s)


SHAPES = [(1, 1), (1, 1, 1), (2, 1)]


class TestMixingModes:
    """Each `mixing` mode of the joint LP against the witness dual: the
    fixed-s LP through `id_degree_at(..., cross_check=True)` off the
    barycenter, and the free-s LP through `id_degree`."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("bias", [None, rat(3, 4), rat(15, 16)])
    def test_cross_check_off_barycenter(self, shape, bias):
        P = PolySimplex(shape)
        F = random_collection(polysimplex_space(shape), P, random.Random(31), bias=bias)
        grid = [s for s in block_grid(P) if s != P.barycenter()]
        values = {id_degree_at(F, s, cross_check=True)
                  for s in random.Random(32).sample(grid, 3)}
        assert (values == {R0}) == (bias is None)

    @pytest.mark.parametrize("shape", SHAPES[1:])
    @pytest.mark.parametrize("bias", [None, rat(3, 4)])
    def test_search_agrees_with_fixed_s(self, shape, bias):
        P = PolySimplex(shape)
        F = random_collection(polysimplex_space(shape), P, random.Random(33), bias=bias)
        rep = id_degree(F)
        assert P.interior(rep.s)
        assert id_degree_at(F, rep.s, cross_check=True) == rep.value
        assert (rep.value == R0) == (bias is None)


class TestOneSolveLeastMixing:
    """`least_mixing`'s single solve (least λ, then greatest μ among its
    minimizers) against the two-solve reference."""

    @pytest.mark.parametrize("space, shape", [("square", (1, 1)), ("poly:2,1", (2, 1)),
                                              ("cube:3", (1, 1, 1))])
    def test_matches_two_solves(self, space, shape):
        P = PolySimplex(shape)
        sp = builtin_space(space)
        rng = random.Random(str((space, shape)))
        seen = set()
        for bias in (None, rat(1, 2), rat(3, 4), rat(7, 8), rat(15, 16), rat(31, 32)):
            F = random_collection(sp, P, rng, bias=bias)

            def build():
                lp, _c, lam, t = _joint_lp(F, "free")
                return lp, lam, t, P

            got = mixing_outcome(least_mixing, build)
            assert got == mixing_outcome(two_lp_least_mixing, build)
            seen.add(got[0] > 0)
        assert seen == {False, True}


def facet_joint_lp(F, mixing=None):
    """The joint LP written by hand: per (i, j < l_i) the marginal rows
    at the basis vertices over the facet columns, then the columns of λ
    and t, and last the normalization rows Σ_n g_n(b_a) = 1."""
    space, shape = F.space, F.shape
    outcomes = shape.outcome_list()
    free = mixing == "free"
    lp = LpBuilder()
    lam = t = None
    if mixing is not None:
        lam = lp.var(nonneg=True)
        lp.add_le({lam: R1}, R1)
    c = {n: lp.vars(len(space.facets)) for n in outcomes}
    if free:
        t = scaled_state_vars(lp, lam, shape)
    for i, l in enumerate(shape.shape):
        for j in range(l):
            vals = [F.effects[(i, j)][x] for x in space.basis_idx]
            expr = vec_expr([(R1, c[n]) for n in outcomes if n[i] == j])
            cols = list(space.facet_rows)
            if free:
                cols += [vals, (-R1,) * space.rank]
                expr += [{lam: R1}, {t[shape.index(i, j)]: R1}]
            elif mixing is not None:
                s_ij = shape.coords(mixing, i, j)
                cols.append([v - s_ij for v in vals])
                expr.append({lam: R1})
            lp.add_rows(la.transpose(cols), expr, "eq", vals)
    lp.add_rows(la.transpose(space.facet_rows), vec_expr([(R1, c[n]) for n in outcomes]),
                "eq", R1)
    return lp


class TestJointLpIsATensorLp:
    """`_joint_lp` goes through `tensor_lp` and stores the same variables
    and rows, in the same order, as the hand-written facet-weight LP:
    `_dual_witness` reads its duals by position."""

    @pytest.mark.parametrize("space", ["square", "poly:2,1", "delta:2"])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 1, 1)], ids=str)
    def test_same_rows_in_every_mode(self, space, shape):
        P = PolySimplex(shape)
        sp = builtin_space(space)
        rng = random.Random(str(("joint rows", space, shape)))
        for bias in (None, rat(3, 4)):
            F = random_collection(sp, P, rng, bias=bias)
            for mixing in (None, P.barycenter(), "free"):
                lp = _joint_lp(F, mixing)[0]
                ref = facet_joint_lp(F, mixing)
                assert (lp._vars, lp._rows) == (ref._vars, ref._rows)


class TestFourCube:
    """The 4-cube identity collection: 16 joint outcomes over 8 facets."""

    P4 = PolySimplex((1, 1, 1, 1))

    def test_identity_incompatible(self):
        F = identity_collection(self.P4)
        ok, W = is_compatible(F)
        assert not ok
        assert la.dot(F.space.unit, W.bar_image()) == R1
        assert q_value(F, self.P4.barycenter())[0] <= trace_pairing(F, W) < 0

    def test_identity_degree_cross_checked(self):
        F = identity_collection(self.P4)
        assert id_degree_at(F, self.P4.barycenter(), cross_check=True) == rat(3, 4)
