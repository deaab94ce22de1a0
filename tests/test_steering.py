"""Assemblages, hidden-state models, steering degrees, self-dual states."""

import random

import pytest

from polybox import linalg as la
from polybox import serialize as sz
from polybox import steering
from polybox.exact import R0, R1, rat
from polybox.lp import OPTIMAL, LpBuilder, vec_expr
from polybox.measurements import (id_degree, id_degree_at, identity_collection,
                                  least_mixing, product_lp, random_collection,
                                  scaled_state_vars)
from polybox.polysimplex import PolySimplex, square_space
from polybox.spaces import max_tensor_member
from polybox.steering import (Assemblage, assemblage_from, is_separable,
                              self_dual_state, square_self_dual_iso, steering_degree,
                              steering_degree_at)
from conftest import assemblage_functional_separates, partition_assemblage, pentagon_json
from test_measurements import mixing_outcome, two_lp_least_mixing

SQ = PolySimplex((1, 1))


def self_dual_square():
    return self_dual_state(square_space(), square_self_dual_iso())


def mix_with_trivial(beta, s, lam):
    """(1−λ)β + λ s⊗x as a new assemblage, from p(j|i) and x_{j|i}: the
    reference mixture."""
    lam = rat(lam)
    shape = beta.shape
    return Assemblage(shape, beta.space, [
        la.vec_add(la.vec_scale((R1 - lam) * beta.p[key], beta.sub_states[key]),
                   la.vec_scale(lam * shape.coords(s, *key), beta.x))
        for key in shape.keys])


def identity_assemblage():
    F = identity_collection(SQ)
    return assemblage_from(F, self_dual_square(), square_space())


def product_assemblage(rng):
    sp = square_space()
    F = random_collection(sp, (1, 1), rng)
    w = [rat(rng.randrange(1, 4)) for _ in sp.vertices]
    tot = sum(w)
    xb = la.zeros(sp.dim)
    for wi, v in zip(w, sp.vertices):
        xb = la.vec_add(xb, la.vec_scale(wi / tot, v))
    xa = sp.interior_point()
    return assemblage_from(F, la.outer(xa, xb), sp)


class TestAssemblage:
    def test_rows_must_lie_in_the_maximal_tensor_product(self):
        # the three conditions of S ⊗̂ K, each broken once: one average
        # over every input, every σ_{j|i} in V(K)+, ⟨1_K, x⟩ = 1
        beta = identity_assemblage()
        rows = [list(r) for r in beta.to_tensor()]
        s00, s10, s11 = rows[0], rows[2], rows[3]
        assert Assemblage(beta.shape, beta.space, rows).to_tensor() == beta.to_tensor()
        bad = [
            [la.vec_add(s00, la.vec_scale(rat(1, 3), beta.x))] + rows[1:],
            rows[:2] + [la.vec_scale(rat(3, 2), s10), s11],
            rows[:2] + [la.vec_add(s10, la.vec_scale(2, s11)), la.vec_scale(-1, s11)],
            [la.vec_scale(2, r) for r in rows]]
        for b in bad:
            with pytest.raises(ValueError, match="not a state of S ⊗̂ K"):
                Assemblage(beta.shape, beta.space, b)
        with pytest.raises(ValueError, match="shape"):
            Assemblage(beta.shape, beta.space, rows[:3])

    def test_p_and_sub_states_read_the_rows(self):
        # p(j|i) = ⟨1_K, σ_{j|i}⟩, x_{j|i} = σ_{j|i}/p(j|i), and x where
        # p(j|i) = 0
        sp = square_space()
        beta = assemblage_from(identity_collection(SQ), la.outer(SQ.vertex((0, 1)),
                                                                 sp.vertices[2]), sp)
        assert beta.x == sp.vertices[2]
        assert beta.p == {(0, 0): R1, (0, 1): R0, (1, 0): R0, (1, 1): R1}
        assert set(beta.sub_states.values()) == {sp.vertices[2]}
        beta = identity_assemblage()
        for key, row in zip(SQ.keys, beta.to_tensor()):
            assert la.vec_scale(beta.p[key], beta.sub_states[key]) == row

    def test_tensor_round_trip(self):
        # β ∈ S ⊗̂ K, and pairing with m^i_j ⊗ · (the identity collection
        # on S) reads it back
        rng = random.Random(3)
        for beta in [identity_assemblage(), product_assemblage(rng)]:
            back = assemblage_from(identity_collection(beta.shape), beta.to_tensor(),
                                   beta.space)
            assert back.x == beta.x
            assert back.p == beta.p
            for k, v in beta.sub_states.items():
                if beta.p[k]:
                    assert back.sub_states[k] == v

    def test_product_state_extraction(self):
        rng = random.Random(5)
        sp = square_space()
        F = random_collection(sp, (1, 1), rng)
        xa = sp.interior_point()
        xb = sp.vertices[2]
        beta = assemblage_from(F, la.outer(xa, xb), sp)
        assert beta.x == xb
        for (i, j), pij in beta.p.items():
            assert pij == F.effect_value(i, j, xa)
            if pij:
                assert beta.sub_states[(i, j)] == xb

    def test_rejects_non_tensor_states(self):
        sp = square_space()
        F = identity_collection(SQ)
        y = la.outer(sp.interior_point(), sp.interior_point())
        doubled = [[2 * v for v in row] for row in y]
        with pytest.raises(ValueError):
            assemblage_from(F, doubled, sp)


class TestSeparability:
    def test_product_is_separable(self):
        rng = random.Random(7)
        beta = product_assemblage(rng)
        ok, model = is_separable(beta)
        assert ok
        assert model.check(beta.to_tensor())
        assert steering_degree_at(beta, SQ.barycenter()) == R0

    def test_negative_vertex_weight_rejected(self):
        # the square's vertices satisfy v00 + v11 = v01 + v10, so moving
        # weight along that relation keeps every α_n, but one weight of
        # α_n turns negative
        beta = product_assemblage(random.Random(7))
        ok, model = is_separable(beta)
        assert ok
        n, ws = next((n, ws) for n, ws in model.weights.items() if any(ws))
        c = max(ws) + 1
        model.weights[n] = la.vec_add(ws, (c, -c, -c, c))
        with pytest.raises(AssertionError, match="negative"):
            model.check(beta.to_tensor())

    def test_identity_on_self_dual_steers(self):
        beta = identity_assemblage()
        ok, mu = is_separable(beta)
        assert not ok and mu.idx is None and mu.shape_b is beta.space
        assert assemblage_functional_separates(mu.tensor, beta)
        assert steering_degree_at(beta, SQ.barycenter()) > 0

    def test_non_separable_self_dual_draws_are_certified(self):
        rng = random.Random(7)
        y, sq = self_dual_square(), square_space()
        steer = 0
        for _ in range(20):
            beta = assemblage_from(random_collection(sq, SQ, rng, bias=rat(3, 4)), y, sq)
            ok, found = is_separable(beta)
            if not ok:
                assert found.pair_tensor(beta.to_tensor()) < 0
                assert assemblage_functional_separates(found.tensor, beta)
                steer += 1
        assert steer >= 15

    def test_mixing_to_degree_restores_separability(self):
        beta = identity_assemblage()
        s = SQ.barycenter()
        lam = steering_degree_at(beta, s)
        ok, model = is_separable(mix_with_trivial(beta, s, lam))
        assert ok
        assert model.check(mix_with_trivial(beta, s, lam).to_tensor())
        ok, _ = is_separable(mix_with_trivial(beta, s, lam - rat(1, 50)))
        assert not ok

    def test_non_state_target_rejected(self):
        beta = identity_assemblage()
        with pytest.raises(ValueError):
            steering_degree_at(beta, la.vec_scale(2, SQ.barycenter()))

    def test_search_on_separable(self):
        rng = random.Random(11)
        rep = steering_degree(product_assemblage(rng))
        assert rep.value == R0 and rep.evaluations == 1


class TestSelfDual:
    def test_square_state_normalized(self):
        sp = square_space()
        y = self_dual_square()
        assert la.dot(sp.unit, la.mat_vec(y, sp.unit)) == R1
        assert max_tensor_member(y, sp, sp)

    def test_degrees_agree_on_self_dual(self):
        # SD of (F ⊗ id)(y) equals ID of F when y is the self-dual state
        rng = random.Random(13)
        sp = square_space()
        y = self_dual_square()
        s = SQ.barycenter()
        F = identity_collection(SQ)
        beta = assemblage_from(F, y, sp)
        assert steering_degree_at(beta, s) == rat(1, 2)
        assert id_degree_at(F, s) == rat(1, 2)
        for t in range(3):
            F = random_collection(sp, (1, 1), rng, bias=rat(2, 3) if t else None)
            beta = assemblage_from(F, y, sp)
            assert steering_degree_at(beta, s) == id_degree_at(F, s)

    def test_degree_never_exceeds_id(self):
        rng = random.Random(17)
        sp = square_space()
        s = SQ.barycenter()
        for _ in range(5):
            F = random_collection(sp, (1, 1), rng, bias=rat(1, 2))
            w = [rat(rng.randrange(0, 3) ** 2) for _ in range(4)]
            tot = sum(w) or R1
            y = [[R0] * sp.dim for _ in range(sp.dim)]
            pairs = [(a, b) for a in sp.vertices for b in sp.vertices[:1]]
            for wi, (a, b) in zip(w, pairs):
                for r in range(sp.dim):
                    for c in range(sp.dim):
                        y[r][c] += wi / tot * a[r] * b[c]
            beta = assemblage_from(F, la.mat(y), sp)
            assert steering_degree_at(beta, s) <= id_degree_at(F, s)

    @pytest.mark.parametrize("bias", [None, rat(1, 2), rat(3, 4), rat(15, 16)])
    def test_search_degrees_agree_on_self_dual(self, bias):
        # bias None is the identity pair; seed 20 is compatible at bias 1/2
        sp = square_space()
        if bias is None:
            F = identity_collection(SQ)
        else:
            F = random_collection(sp, (1, 1), random.Random(20), bias=bias)
        beta = assemblage_from(F, self_dual_square(), sp)
        rep = steering_degree(beta)
        assert rep.value == id_degree(F).value
        assert SQ.interior(rep.s)
        assert steering_degree_at(beta, rep.s) == rep.value
        ok, _ = is_separable(mix_with_trivial(beta, rep.s, rep.value))
        assert ok
        assert rep.evaluations == 1

    def test_iso_validation(self):
        sp = square_space()
        with pytest.raises(ValueError):
            self_dual_state(sp, {0: (0, 1), 1: (0, 1), 2: (1, 1), 3: (2, 1)})
        with pytest.raises(ValueError):
            self_dual_state(sp, {0: (0, -1), 1: (3, 1), 2: (1, 1), 3: (2, 1)})
        with pytest.raises(ValueError):
            self_dual_state(sp, {0: (0, 1), 1: (3, 1)})

    @pytest.mark.parametrize("label, iso", [
        ("delta:2", square_self_dual_iso()),
        ("square", {0: (0, 1), 1: (-1, 1), 2: (1, 1), 3: (2, 1)}),
        ("square", {0: (0, 1), 1: (3, 1), 2: (1, 1), 4: (2, 1)})],
        ids=["delta:2", "vertex -1", "facet 4"])
    def test_iso_names_a_facet_and_a_vertex(self, label, iso):
        # delta:2 has three vertices and facets; the square's vertex -1
        # would index its last vertex
        with pytest.raises(ValueError, match="names no facet or no vertex"):
            self_dual_state(sz.builtin_space(label), iso)

    def test_spanning_pairs_reject_nonlinear(self):
        e1 = (R1, R0)
        e2 = (R0, R1)
        both = (R1, R1)
        with pytest.raises(ValueError):
            la.linear_map([e1, e2, both], [e1, e2, (R0, R0)])
        with pytest.raises(ValueError):
            la.linear_map([e1, e1], [e1, e2])


def hidden_state_lp(beta, mixing=None):
    """The hidden-state LP as `steering` builds it."""
    return product_lp(beta.shape, beta.space, beta.to_tensor(), mixing)


def ambient_lhs_lp(beta, mixing=None):
    """The ambient form of the hidden-state LP: one row per entry of the
    tensor, every ambient coordinate of S times every one of K."""
    shape, space = beta.shape, beta.space
    tensor = beta.to_tensor()
    outcomes = shape.outcome_list()
    free = mixing == "free"
    lp = LpBuilder()
    lam = t = None
    if mixing is not None:
        lam = lp.var(nonneg=True)
        lp.add_le({lam: R1}, R1)
    avar = {n: lp.vars(len(space.vertices), nonneg=True) for n in outcomes}
    if free:
        t = scaled_state_vars(lp, lam, shape)
    verts = [shape.vertex(n) for n in outcomes]
    for r in range(shape.ambient_dim):
        expr = vec_expr([(sv[r], avar[n]) for n, sv in zip(outcomes, verts)])
        cols = list(space.vertices)
        if free:
            cols += [tensor[r], la.vec_scale(-R1, beta.x)]
            expr += [{lam: R1}, {t[r]: R1}]
        elif mixing is not None:
            cols.append(la.vec_sub(tensor[r], la.vec_scale(mixing[r], beta.x)))
            expr.append({lam: R1})
        lp.add_rows(la.transpose(cols), expr, "eq", tensor[r])
    return lp, lam, t


#: λ* of the vertex-split draws per (space, shape) that only a boundary s
#: attains, in draw order
BOUNDARY_DRAWS = {("poly:2,1", (1, 1)): [rat(3, 11)], ("poly:2,1", (2, 1)): [rat(1, 17)],
                  ("pentagon", (1, 1)): [rat(121, 751)],
                  ("pentagon", (2, 1)): [rat(1, 85), rat(1, 169)]}


class TestHiddenStateLpOnIndependentCoordinates:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1)], ids=str)
    def test_matches_ambient_rows(self, state_space, shape):
        P = PolySimplex(shape)
        rng = random.Random(str((state_space.label, shape)))
        # the barycenter, and block entry j weighted j + 1
        points = [P.barycenter(), tuple(rat(j + 1, (l + 1) * (l + 2) // 2)
                                        for l in shape for j in range(l + 1))]
        seen, boundary = set(), []
        for _ in range(5):
            beta = partition_assemblage(P, state_space, rng)
            ok, found = is_separable(beta)
            ref, _lam, _t = ambient_lhs_lp(beta)
            assert ok == (ref.minimize({}).status == OPTIMAL)
            assert found.check(beta.to_tensor()) if ok else \
                assemblage_functional_separates(found.tensor, beta)
            seen.add(ok)
            for s in points:
                ref, lam, _t = ambient_lhs_lp(beta, s)
                assert steering_degree_at(beta, s) == ref.minimize({lam: R1}).objective
            ref, lam, t = ambient_lhs_lp(beta, "free")
            rep = steering_degree(beta)
            assert rep.value == least_mixing(ref, lam, t, P).value

            def build():
                lp, _avar, lam, t = hidden_state_lp(beta, "free")
                return lp, lam, t, P

            got = mixing_outcome(least_mixing, build)
            assert got == mixing_outcome(two_lp_least_mixing, build)
            if got[1] == 0:
                # s is on the boundary, and SD_s attains λ* there
                assert min(rep.s) == 0 and steering_degree_at(beta, rep.s) == rep.value
                boundary.append(rep.value)
        if state_space.label in ("square", "pentagon"):
            assert seen == {True, False}
        assert boundary == BOUNDARY_DRAWS.get((state_space.label, shape), [])

    def test_square_rows(self):
        beta = identity_assemblage()
        s = SQ.barycenter()
        assert hidden_state_lp(beta)[0].minimize({}).stats.rows == 9
        assert ambient_lhs_lp(beta)[0].minimize({}).stats.rows == 16
        lp, _avar, lam, _t = hidden_state_lp(beta, s)
        assert lp.minimize({lam: R1}).stats.rows == 10
        ref, lam, _t = ambient_lhs_lp(beta, s)
        assert ref.minimize({lam: R1}).stats.rows == 17


class TestSearchModel:
    """steering_degree reads a hidden-state model of (1−λ*)β + λ* s⊗x
    off the primal of its one solve, and checks it on every row."""

    CASES = {"square": [(1, 1), (2, 1)], "poly:2,1": [(1, 1), (1, 1, 1)],
             "pentagon": [(1, 1), (2, 1)]}
    #: draws per label whose λ* only a boundary s attains
    BOUNDARY = {"square": 0, "poly:2,1": 3, "pentagon": 3}

    @pytest.mark.parametrize("label", list(CASES))
    def test_model_of_the_mixture(self, label):
        if label == "pentagon":
            space = sz.space_from_json(pentagon_json())
        else:
            space = sz.builtin_space(label)
        values, boundary = [], 0
        for shape in self.CASES[label]:
            P = PolySimplex(shape)
            rng = random.Random(str(("search model", label, shape)))
            for _ in range(8):
                beta = partition_assemblage(P, space, rng)
                rep = steering_degree(beta)
                mixed = mix_with_trivial(beta, rep.s, rep.value).to_tensor()
                assert steering._mixture(beta, rep.s, rep.value) == mixed
                assert rep.model.check(mixed)
                assert steering_degree_at(beta, rep.s) == rep.value
                assert rep.evaluations == 1
                values.append(rep.value)
                boundary += min(rep.s) == 0
        assert len(values) == 16 and any(values)
        assert boundary == self.BOUNDARY[label]

    def test_identity_on_self_dual(self):
        beta = identity_assemblage()
        rep = steering_degree(beta)
        assert rep.value == rat(1, 2)
        assert rep.model.check(mix_with_trivial(beta, rep.s, rep.value).to_tensor())
        with pytest.raises(AssertionError, match="misses row"):
            rep.model.check(mix_with_trivial(beta, rep.s, rat(1, 3)).to_tensor())

    def test_a_model_that_misses_the_mixture_raises(self, monkeypatch):
        read = steering.product_decomposition

        def moved(shape, space, res, v):
            model = read(shape, space, res, v)
            n = next(n for n, ws in model.weights.items() if any(ws))
            model.weights[n] = la.vec_scale(2, model.weights[n])
            return model
        monkeypatch.setattr(steering, "product_decomposition", moved)
        with pytest.raises(AssertionError, match="misses row"):
            steering_degree(identity_assemblage())
