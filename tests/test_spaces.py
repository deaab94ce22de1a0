"""State spaces: representations, membership, base norm, canonical maps and
chi, tensors."""

import random

import pytest

from polybox import linalg as la
from polybox.exact import R0, R1, rat
from polybox.lp import OPTIMAL, LpBuilder, vec_expr
from polybox.polysimplex import polysimplex_space, square_space
from polybox.serialize import builtin_space
from polybox.spaces import (StateSpace, base_norm, check_facets_generate, max_tensor_member,
                            separable_decomposition, simplex_space)

from conftest import hypercube_space

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


def membership(space, psi):
    """The vertex-LP reference form of `is_state`: psi is a convex
    combination of K's vertices."""
    b = LpBuilder()
    w = b.vars(len(space.vertices))
    b.add_rows(la.transpose(space.vertices), vec_expr([(R1, w)]), "eq", la.vec(psi))
    b.add_eq({wi: R1 for wi in w}, R1)
    return b.minimize({}).status == OPTIMAL


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


@pytest.mark.parametrize("label", ["square", "cube:3", "cube:4", "delta:2", "delta:3",
                                   "poly:2,1", "poly:2,2"])
def test_builtin_facets_generate(label):
    # built-in spaces skip the check on construction; JSON spaces run it
    check_facets_generate(builtin_space(label))


def max_effect_value(space, psi):
    """max_{f ∈ E(K)} ⟨f, psi⟩ by one LP: f and 1 − f are nonnegative
    facet combinations (the facets generate A(K)+)."""
    b = LpBuilder()
    c = b.vars(len(space.facets))
    d = b.vars(len(space.facets))
    b.add_rows(la.transpose(space.facet_rows), vec_expr([(R1, c), (R1, d)]), "eq", R1)
    return b.maximize(dict(zip(c, la.mat_vec(space.facets, psi)))).objective


class TestBaseNorm:
    def test_states_have_norm_one(self):
        rng = random.Random(2)
        for space in SPACES:
            for _ in range(10):
                assert base_norm(space, random_state(space, rng)) == 1

    def test_duality_with_effects(self):
        # the dual form of the norm: sup_e <e,psi> - inf_e <e,psi> over
        # effects e in [0,1], each side one effect LP
        rng = random.Random(3)
        for space in SPACES:
            for _ in range(35):
                psi = random_span_vector(space, rng)
                val = base_norm(space, psi)
                hi = max_effect_value(space, psi)
                lo = max_effect_value(space, la.vec_scale(-1, psi))
                assert hi + lo == val

    def test_rejects_off_span(self):
        sq = square_space()
        bad = tuple([R1] + [R0] * (sq.dim - 1))
        if not sq.in_span(bad):
            with pytest.raises(ValueError):
                base_norm(sq, bad)


class TestChi:
    """χ_K is stored as `span_projector` X: ⟨χ_K, f⊗y⟩ = f·(X·y), and
    pushing χ_K through a map with canonical matrix m is m·X."""

    def test_pairing_reproduces_evaluation(self):
        rng = random.Random(4)
        for space in SPACES:
            X = space.span_projector
            for _ in range(10):
                f = random_span_vector(space, rng)
                y = random_state(space, rng)
                assert la.dot(f, la.mat_vec(X, y)) == la.dot(f, y)

    def test_push_left_of_identity(self):
        for space in SPACES:
            X = space.span_projector
            assert la.mat_mul(X, X) == X

    def test_projector_fixes_the_span_and_kills_its_complement(self, state_space):
        X = state_space.span_projector
        assert all(la.mat_vec(X, v) == v for v in state_space.vertices)
        for z in state_space.int_table.relations:
            perp = [0] * state_space.dim
            for t, c in z:
                perp[t] = c
            assert la.is_zero(la.mat_vec(X, la.vec(perp)))


def random_affine_images(space, tgt_dim, rng):
    """The images of K's vertices under a random affine map into
    dimension tgt_dim: M·v + c."""
    m = [[rat(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(space.dim)]
         for _ in range(tgt_dim)]
    c = la.vec(rat(rng.randrange(-6, 7), 2) for _ in range(tgt_dim))
    return [la.vec_add(la.mat_vec(m, v), c) for v in space.vertices]


class TestLinearMaps:
    def test_map_from_vertex_images_reproduces(self):
        rng = random.Random(5)
        for space in SPACES + [hypercube_space(3)]:
            for tgt_dim in (1, 3, space.dim):
                images = random_affine_images(space, tgt_dim, rng)
                m = space.linear_map(images)
                assert m is not None
                assert [la.mat_vec(m, v) for v in space.vertices] == images
                # canonical: m vanishes off span V(K)
                assert la.mat_mul(m, space.span_projector) == m
        # one image moved off an affinely consistent table: no map
        sq = square_space()
        images = random_affine_images(sq, 3, rng)
        images[0] = la.vec_add(images[0], (R1, R0, R0))
        assert sq.linear_map(images) is None
        with pytest.raises(ValueError):
            sq.linear_map(images[:3])

    def test_span_inverse_round_trip(self):
        # the inverse on span V(K) of a span-preserving map m, built from
        # the pairs m·b ↦ b over the vertex basis
        rng = random.Random(6)
        for space in SPACES + [hypercube_space(3)]:
            X = space.span_projector
            done = 0
            while done < 3:
                r = la.mat([[rng.randrange(-3, 4) for _ in range(space.dim)]
                            for _ in range(space.dim)])
                m = la.mat_mul(X, la.mat_mul(r, X))
                try:
                    inv = la.linear_map([la.mat_vec(m, b) for b in space.basis], space.basis)
                except ValueError:
                    assert la.rank(m) < space.rank
                    continue
                assert la.mat_mul(inv, m) == X and la.mat_mul(m, inv) == X
                done += 1


def gram_reference(space, values):
    """The per-vertex re-check through the Gram inverse: the functional r
    with ⟨r, b⟩ = value at each basis vertex b takes every given value."""
    basis = space.basis
    ginv = la.invert([[la.dot(a, b) for b in basis] for a in basis])
    r = la.combine(la.mat_vec(ginv, [values[i] for i in space.basis_idx]), basis)
    return all(la.dot(r, v) == t for v, t in zip(space.vertices, values))


def dense(space, c):
    """A sparse dependency as one integer per vertex."""
    out = [0] * len(space.vertices)
    for t, x in c:
        out[t] = x
    return out


class TestVertexDependencies:
    def test_dependencies_span_the_vertex_kernel(self, state_space):
        deps = [dense(state_space, c) for c in state_space.int_table.dependencies]
        assert len(deps) == len(state_space.vertices) - state_space.rank
        for c in deps:
            assert all(type(x) is int for x in c) and any(c)
            assert la.is_zero(la.combine(la.vec(c), state_space.vertices))
            assert sum(c) == 0
        assert not deps or la.rank(la.mat(deps)) == len(deps)

    def test_failed_dependency_matches_the_gram_reference(self, state_space):
        # consistent tables pass; with one entry moved, the dependency
        # test, linear_map and canonical_functional all agree with the
        # reference (on delta:2, with no dependency, every table passes)
        rng = random.Random(str(state_space.label))
        seen = set()
        for _ in range(3):
            images = random_affine_images(state_space, 2, rng)
            assert state_space.failed_dependency(images) is None
            assert all(gram_reference(state_space, col) for col in la.transpose(images))
            for t in range(len(images)):
                moved = list(images)
                moved[t] = la.vec_add(images[t], (R0, rat(rng.randrange(1, 5), 3)))
                want = gram_reference(state_space, [img[1] for img in moved])
                assert (state_space.linear_map(moved) is None) == (not want)
                assert (state_space.canonical_functional([img[1] for img in moved])
                        is None) == (not want)
                dep = state_space.failed_dependency(moved)
                assert (dep is None) == want
                if dep is not None:
                    assert dense(state_space, dep)[t] != 0
                seen.add(want)
        assert seen == ({True} if state_space.label == "delta:2" else {False})

    @pytest.mark.parametrize("name", ["cube:3", "poly:2,1"])
    def test_every_moved_value_is_refused(self, name):
        space = builtin_space(name)
        images = random_affine_images(space, 2, random.Random(name))
        for t in range(len(images)):
            moved = list(images)
            moved[t] = la.vec_add(images[t], (rat(1, 3), R0))
            assert space.linear_map(moved) is None
            assert space.canonical_functional([img[0] for img in moved]) is None
            assert space.canonical_functional([img[1] for img in moved]) is not None

    def test_table_shape_is_checked(self):
        sq = square_space()
        with pytest.raises(ValueError):
            sq.failed_dependency([(R1,)] * 3)
        with pytest.raises(ValueError):
            sq.failed_dependency([(R1,), (R1,), (R1,), (R1, R0)])


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
        # the unit pairing alone fails: the unscaled product is a member
        assert max_tensor_member(la.outer(x, x), sq, sq)

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


# ----- reference forms of the integer membership tests -----

def expand(space, psi):
    """Coefficients of psi over the vertex basis, or None if psi is
    outside span V(K): solved at the coordinates coord_idx(K), then
    recombined and compared on every coordinate."""
    psi = la.vec(psi)
    m = tuple(tuple(v[r] for v in space.basis) for r in space.coord_idx)
    c = la.mat_vec(la.invert(m), tuple(psi[r] for r in space.coord_idx))
    return c if la.combine(c, space.basis) == psi else None


def expand_in_span(space, psi):
    return expand(space, psi) is not None


def expand_in_cone(space, psi):
    """The basis-expansion form: psi is in span V(K) and every facet
    pairs nonnegatively with it."""
    return expand_in_span(space, psi) and all(la.dot(g, psi) >= 0 for g in space.facets)


def expand_is_state(space, psi):
    return expand_in_cone(space, psi) and la.dot(space.unit, psi) == 1


def projector_max_tensor_member(tensor, space_a, space_b):
    """The projector form: P_A m P_Bᵀ == m, then every facet pair and the
    unit pairing in rationals."""
    m = la.mat(tensor)
    pa, pb = space_a.span_projector, space_b.span_projector
    if la.mat_mul(pa, la.mat_mul(m, la.transpose(pb))) != m:
        return False
    for g in space_a.facets:
        gm = la.mat_vec(la.transpose(m), g)
        if any(la.dot(gm, h) < 0 for h in space_b.facets):
            return False
    return la.dot(space_a.unit, la.mat_vec(m, space_b.unit)) == 1


def membership_probes(space, rng):
    """Vertices, states on faces and inside, scaled and negated states,
    span vectors with negative facet values, and each of these moved off
    the span by a small step along one ambient coordinate."""
    pts = list(space.vertices) + [la.zeros(space.dim), space.interior_point()]
    for _ in range(12):
        w = [rat(rng.randrange(0, 3)) for _ in space.vertices]
        w[rng.randrange(len(w))] += 1
        x = la.vec_scale(1 / sum(w), la.combine(w, space.vertices))
        pts += [x, la.vec_scale(rat(rng.randrange(2, 5), 3), x), la.vec_scale(-1, x)]
        pts.append(random_span_vector(space, rng))
    for p in list(pts[:10]):
        for t in range(space.dim):
            step = [R0] * space.dim
            step[t] = rat(rng.choice([-1, 1]), rng.randrange(1, 50))
            pts.append(la.vec_add(p, step))
    return pts


class TestIntegerMembership:
    def test_relations_span_the_orthogonal_complement(self, state_space):
        space = state_space
        rels = space.int_table.relations
        assert len(rels) == space.dim - space.rank
        dense = [[R0] * space.dim for _ in rels]
        for row, z in zip(dense, rels):
            for t, c in z:
                assert isinstance(c, int) and c != 0
                row[t] = rat(c)
        for z in dense:
            assert all(la.dot(z, v) == 0 for v in space.vertices)
        if dense:
            assert la.rank(dense) == len(dense)

    def test_agrees_with_basis_expansion(self, state_space):
        space = state_space
        rng = random.Random(41)
        seen = set()
        for psi in membership_probes(space, rng):
            verdicts = (space.in_span(psi), space.in_cone(psi), space.is_state(psi))
            assert verdicts == (expand_in_span(space, psi), expand_in_cone(space, psi),
                                expand_is_state(space, psi))
            seen.add(verdicts)
        want = {(True, True, True), (True, True, False), (True, False, False)}
        if space.dim > space.rank:
            want.add((False, False, False))
        assert seen == want

    def test_other_lengths_and_floats(self, state_space):
        space = state_space
        x = space.vertices[0]
        assert not space.in_span(x + (R0,)) and not space.in_cone(x[:-1])
        assert not space.is_state(x + (R0,))
        with pytest.raises(TypeError):
            space.in_cone((0.5,) * space.dim)


def tensor_probes(sa, sb, rng):
    """Product and mixed separable states, the same unnormalised, tensors
    with a negative facet pair, and each moved off span⊗span at one
    entry."""
    out = []
    for _ in range(6):
        terms = [(rat(rng.randrange(1, 4)), random_state(sa, rng), random_state(sb, rng))
                 for _ in range(rng.randrange(1, 3))]
        tot = sum(w for w, _, _ in terms)
        t = [[R0] * sb.dim for _ in range(sa.dim)]
        for w, x, y in terms:
            for r in range(sa.dim):
                for c in range(sb.dim):
                    t[r][c] += w / tot * x[r] * y[c]
        t = la.mat(t)
        out += [t, la.mat([la.vec_scale(rat(3, 2), row) for row in t]),
                la.outer(random_span_vector(sa, rng), random_state(sb, rng))]
        moved = [list(row) for row in t]
        moved[rng.randrange(sa.dim)][rng.randrange(sb.dim)] += rat(1, rng.randrange(2, 9))
        out.append(la.mat(moved))
        # off the span on one side only: columns, or rows, leave it
        for off_a, off_b in ((off_span(sa), random_state(sb, rng)),
                             (random_state(sa, rng), off_span(sb))):
            if off_a is not None and off_b is not None:
                out.append(la.mat([[v + a * b for v, b in zip(row, off_b)]
                                   for row, a in zip(t, off_a)]))
    return out


def off_span(space):
    """A vector outside span V(K) (a relation), or None when the span is
    the whole ambient space."""
    rels = space.int_table.relations
    if not rels:
        return None
    z = [R0] * space.dim
    for t, c in rels[0]:
        z[t] = rat(c, 7)
    return tuple(z)


class TestIntegerTensorMembership:
    def test_agrees_with_projector_form(self, state_space):
        rng = random.Random(43)
        seen = set()
        for sb in (state_space, square_space()):
            for t in tensor_probes(state_space, sb, rng):
                got = max_tensor_member(t, state_space, sb)
                assert got == projector_max_tensor_member(t, state_space, sb)
                seen.add(got)
        assert seen == {True, False}

    def test_entangled_states(self):
        from polybox.bell import pr_box, random_ns_box
        from polybox.polysimplex import PolySimplex
        from polybox.steering import self_dual_state, square_self_dual_iso
        sq = square_space()
        y = self_dual_state(sq, square_self_dual_iso())
        P = PolySimplex((1, 1))
        rng = random.Random(44)
        tensors = [y, pr_box().tensor()] + [random_ns_box(P, P, rng).tensor() for _ in range(8)]
        # 2·PR − uniform: normalised and no-signalling, so in span⊗span,
        # with entries −1/4 (negative facet pairs)
        bad = la.mat([[2 * v - rat(1, 4) for v in row] for row in pr_box().tensor()])
        tensors.append(bad)
        for t in tensors:
            assert max_tensor_member(t, sq, sq) == projector_max_tensor_member(t, sq, sq)
        assert max_tensor_member(y, sq, sq) and not max_tensor_member(bad, sq, sq)
        p = sq.span_projector
        assert la.mat_mul(p, la.mat_mul(bad, p)) == bad

    def test_shape_mismatch_raises(self):
        sq = square_space()
        with pytest.raises(ValueError):
            max_tensor_member(la.outer(sq.vertices[0], sq.vertices[0][:3]), sq, sq)
