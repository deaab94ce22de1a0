"""State spaces: representations, membership, base norm, chi, tensors."""

import random

import pytest

from polybox import linalg as la
from polybox.exact import R0, R1, rat
from polybox.lp import OPTIMAL, LpBuilder, vec_expr
from polybox.polysimplex import hypercube_space, polysimplex_space, square_space
from polybox.spaces import (StateSpace, base_norm, chi,
                            linear_map_from_vertex_images, max_effect_value,
                            max_tensor_member, membership,
                            separable_decomposition, simplex_space,
                            span_inverse)

SPACES = [simplex_space(2), square_space(), polysimplex_space((2, 1))]


def random_state(space, rng):
    """Random rational convex combination of vertices."""
    w = [rat(rng.randrange(0, 5)) for _ in space.vertices]
    if sum(w) == 0:
        w[rng.randrange(len(w))] = R1
    tot = sum(w)
    out = la.zeros(space.dim)
    for wi, v in zip(w, space.vertices):
        out = la.vec_add(out, la.vec_scale(wi / tot, v))
    return tuple(out)


def random_span_vector(space, rng):
    v = la.zeros(space.dim)
    for b in space.basis:
        v = la.vec_add(v, la.vec_scale(rat(rng.randrange(-6, 7), 3), b))
    return tuple(v)


class TestRepresentations:
    def test_vertices_satisfy_facets(self):
        for space in SPACES:
            for v in space.vertices:
                assert space.is_state(v)
                for f in space.facets:
                    assert la.dot(f, v) >= 0
                assert la.dot(space.unit, v) == 1

    def test_every_facet_is_supporting(self):
        for space in SPACES:
            for f in space.facets:
                assert min(la.dot(f, v) for v in space.vertices) == 0

    def test_hull_points_are_states(self):
        rng = random.Random(0)
        for space in SPACES:
            for _ in range(20):
                x = random_state(space, rng)
                assert space.is_state(x)
                assert membership(space, x)

    def test_outside_points_rejected(self):
        sq = square_space()
        v0 = sq.vertices[0]
        v1 = sq.vertices[1]
        outside = la.vec_sub(la.vec_scale(2, v0), v1)
        assert not membership(sq, tuple(outside)) or sq.is_state(outside)
        beyond = la.vec_scale(2, v0)
        assert not sq.is_state(beyond)

    def test_constructor_rejects_bad_input(self):
        with pytest.raises(ValueError):
            StateSpace("x", [], (R1,), [])
        with pytest.raises(ValueError):
            StateSpace("x", [(R1, R0), (R1,)], (R1, R0), [(R1, R0)])

    def test_interior_point_strictly_inside(self):
        for space in SPACES:
            x = space.interior_point()
            assert space.is_state(x)
            for f in space.facets:
                assert la.dot(f, x) > 0

    def test_canonical_functional_matches_values(self):
        rng = random.Random(1)
        for space in SPACES:
            f = random_span_vector(space, rng)
            vals = [la.dot(f, v) for v in space.vertices]
            g = space.canonical_functional(vals)
            assert g is not None
            assert [la.dot(g, v) for v in space.vertices] == vals


class TestConeTables:
    TABLE_SPACES = [square_space(), hypercube_space(3), polysimplex_space((2, 1)),
                    simplex_space(2)]

    def test_facet_rows_decide_the_cone(self):
        rng = random.Random(5)
        for space in self.TABLE_SPACES:
            seen = set()
            for _ in range(40):
                c = [rat(rng.randrange(-1, 6), 2) for _ in space.basis]
                psi = la.combine(c, space.basis)
                inside = all(x >= 0 for x in la.mat_vec(space.facet_rows, c))
                assert inside == space.in_cone(psi)
                seen.add(inside)
            assert seen == {True, False}

    def test_facet_values_give_effect_values(self):
        rng = random.Random(6)
        for space in self.TABLE_SPACES:
            basis_rows = [space.facet_values[x] for x in space.basis_idx]
            assert tuple(basis_rows) == la.transpose(space.facet_rows)
            for _ in range(10):
                c = [rat(rng.randrange(0, 7), 3) for _ in space.facets]
                f = la.combine(c, space.facets)
                want = tuple(la.dot(f, v) for v in space.vertices)
                assert la.mat_vec(space.facet_values, c) == want

    @staticmethod
    def facet_combination(space, facets, vals):
        """Nonnegative weights on `facets` whose combination takes the
        values `vals` on the vertices of `space`, or None."""
        lp = LpBuilder()
        c = lp.vars(len(facets))
        cols = [[la.dot(g, v) for v in space.vertices] for g in facets]
        lp.add_rows(la.transpose(cols), vec_expr([(R1, c)]), "eq", vals)
        res = lp.minimize({})
        return [res[v] for v in c] if res.status == OPTIMAL else None

    @pytest.mark.parametrize("space", TABLE_SPACES, ids=lambda sp: sp.label)
    def test_facets_generate_positive_effects(self, space):
        # the joint-measurement, minimizing-F and effect LPs write effects
        # positive on K as nonnegative facet combinations; that is exact
        # only when the facets generate A(K)+. Effects here are random
        # span functionals shifted to vanish at some vertex.
        rng = random.Random(7)
        for _ in range(15):
            g = random_span_vector(space, rng)
            low = min(la.dot(g, v) for v in space.vertices)
            vals = [la.dot(g, v) - low for v in space.vertices]
            c = self.facet_combination(space, space.facets, vals)
            assert c is not None
            assert la.mat_vec(space.facet_values, c) == tuple(vals)

    @pytest.mark.parametrize("space", TABLE_SPACES, ids=lambda sp: sp.label)
    def test_no_facet_is_redundant(self, space):
        # each facet is an extreme ray of A(K)+: with it dropped the rest
        # no longer generate it
        for k, g in enumerate(space.facets):
            rest = space.facets[:k] + space.facets[k + 1:]
            vals = [la.dot(g, v) for v in space.vertices]
            assert self.facet_combination(space, rest, vals) is None


class TestBaseNorm:
    def test_states_have_norm_one(self):
        rng = random.Random(2)
        for space in SPACES:
            for _ in range(10):
                assert base_norm(space, random_state(space, rng)) == 1

    def test_duality_with_effects(self):
        # ||psi|| == max over effects e of |<2e - 1, psi>|; the effect LP
        # route is max_effect_value(psi) + max_effect_value(-psi) - <1,psi>
        # ... simplest dual check: norm >= |<2e-1, psi>| for facet mixes,
        # and the decomposition certifies the value from above.
        rng = random.Random(3)
        for space in SPACES:
            for _ in range(35):
                psi = random_span_vector(space, rng)
                val, pos, neg = base_norm(space, psi, with_decomposition=True)
                assert la.vec_sub(pos, neg) == la.vec(psi)
                assert space.in_cone(pos) and space.in_cone(neg)
                assert la.dot(space.unit, pos) + la.dot(space.unit, neg) == val
                hi = max_effect_value(space, psi)
                lo = max_effect_value(space, la.vec_scale(-1, psi))
                # dual form: sup_e <e,psi> - inf_e <e,psi> with e in [0,1]
                assert hi + lo == val

    def test_rejects_off_span(self):
        sq = square_space()
        bad = tuple([R1] + [R0] * (sq.dim - 1))
        if not sq.in_span(bad):
            with pytest.raises(ValueError):
                base_norm(sq, bad)


class TestChi:
    def test_pairing_reproduces_evaluation(self):
        rng = random.Random(4)
        for space in SPACES:
            c = chi(space)
            for _ in range(10):
                f = random_span_vector(space, rng)
                y = random_state(space, rng)
                assert c.pair(f, y) == la.dot(la.vec(f), la.vec(y))

    def test_push_left_of_identity(self):
        for space in SPACES:
            c = chi(space)
            assert c.push_left(space.span_projector) == c.tensor


class TestLinearMaps:
    def test_map_from_vertex_images_reproduces(self):
        rng = random.Random(5)
        sq = square_space()
        tgt = simplex_space(2)
        images = [random_state(tgt, rng) for _ in sq.vertices]
        m = linear_map_from_vertex_images(sq, images, tgt.dim)
        if m is not None:
            for v, img in zip(sq.vertices, images):
                assert la.mat_vec(m, v) == la.vec(img)

    def test_span_inverse_round_trip(self):
        sq = square_space()
        p = sq.span_projector
        inv = span_inverse(p, sq)
        assert la.mat_mul(inv, p) == p


class TestTensors:
    def test_product_states_in_max_tensor(self):
        rng = random.Random(6)
        for sa in SPACES:
            for sb in SPACES:
                x = random_state(sa, rng)
                y = random_state(sb, rng)
                assert max_tensor_member(la.outer(x, y), sa, sb)

    def test_pr_tensor_in_max_tensor(self):
        from polybox.bell import pr_box
        pr = pr_box()
        sq = square_space()
        assert max_tensor_member(pr.tensor(), sq, sq)

    def test_scaled_tensor_fails_normalization(self):
        sq = square_space()
        x = sq.vertices[0]
        t = la.outer(la.vec_scale(2, x), x)
        assert not max_tensor_member(t, sq, sq)
        assert max_tensor_member(t, sq, sq, normalized=False)

    def test_separable_decomposition_reconstructs(self):
        rng = random.Random(7)
        sq = square_space()
        x = random_state(sq, rng)
        y = random_state(sq, rng)
        t = la.outer(x, y)
        w = separable_decomposition(t, sq.vertices, sq.vertices)
        assert w is not None
        acc = [[R0] * sq.dim for _ in range(sq.dim)]
        for (a, c), wv in w.items():
            for r, xv in enumerate(sq.vertices[a]):
                for s, yv in enumerate(sq.vertices[c]):
                    acc[r][s] += wv * xv * yv
        assert la.mat(acc) == la.mat(t)

    def test_entangled_tensor_not_vertex_separable(self):
        from polybox.bell import pr_box
        sq = square_space()
        w = separable_decomposition(pr_box().tensor(), sq.vertices, sq.vertices)
        assert w is None
