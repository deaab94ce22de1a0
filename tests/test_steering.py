"""Assemblages, hidden-state models, steering degrees, self-dual states."""

import random

import pytest

from polybox import linalg as la
from polybox.exact import R0, R1, rat
from polybox.measurements import (id_degree, id_degree_at, identity_collection,
                                  random_collection)
from polybox.polysimplex import PolySimplex, square_space
from polybox.spaces import max_tensor_member
from polybox.steering import (Assemblage, assemblage_from,
                              assemblage_from_tensor, is_separable,
                              map_from_spanning_pairs, self_dual_state,
                              square_self_dual_iso, steering_degree,
                              steering_degree_at)

SQ = PolySimplex((1, 1))


def self_dual_square():
    return self_dual_state(square_space(), square_self_dual_iso())


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
    def test_validation(self):
        beta = identity_assemblage()
        with pytest.raises(ValueError):
            Assemblage(beta.shape, beta.space, beta.x,
                       {**beta.p, (0, 0): beta.p[(0, 0)] + rat(1, 3)},
                       beta.sub_states)
        with pytest.raises(ValueError):
            Assemblage(beta.shape, beta.space, la.vec_scale(2, beta.x),
                       beta.p, beta.sub_states)
        bad_subs = dict(beta.sub_states)
        bad_subs[(1, 0)] = la.vec_scale(rat(3, 2), beta.sub_states[(1, 0)])
        with pytest.raises(ValueError):
            Assemblage(beta.shape, beta.space, beta.x, beta.p, bad_subs)

    def test_tensor_round_trip(self):
        rng = random.Random(3)
        for beta in [identity_assemblage(), product_assemblage(rng)]:
            back = assemblage_from_tensor(beta.shape, beta.space, beta.to_tensor())
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
        assert model.check(beta)
        assert steering_degree_at(beta, SQ.barycenter()) == R0

    def test_identity_on_self_dual_steers(self):
        beta = identity_assemblage()
        ok, model = is_separable(beta)
        assert not ok and model is None
        assert steering_degree_at(beta, SQ.barycenter()) > 0

    def test_mixing_to_degree_restores_separability(self):
        beta = identity_assemblage()
        s = SQ.barycenter()
        lam = steering_degree_at(beta, s)
        ok, model = is_separable(beta.mix_with_trivial(s, lam))
        assert ok
        assert model.check(beta.mix_with_trivial(s, lam))
        ok, _ = is_separable(beta.mix_with_trivial(s, lam - rat(1, 50)))
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
        ok, _ = is_separable(beta.mix_with_trivial(rep.s, rep.value))
        assert ok
        separable, _ = is_separable(beta)
        assert rep.evaluations == (1 if separable else 2)

    def test_iso_validation(self):
        sp = square_space()
        with pytest.raises(ValueError):
            self_dual_state(sp, {0: (0, 1), 1: (0, 1), 2: (1, 1), 3: (2, 1)})
        with pytest.raises(ValueError):
            self_dual_state(sp, {0: (0, -1), 1: (3, 1), 2: (1, 1), 3: (2, 1)})
        with pytest.raises(ValueError):
            self_dual_state(sp, {0: (0, 1), 1: (3, 1)})

    def test_spanning_pairs_reject_nonlinear(self):
        e1 = (R1, R0)
        e2 = (R0, R1)
        both = (R1, R1)
        with pytest.raises(ValueError):
            map_from_spanning_pairs([e1, e2, both], [e1, e2, (R0, R0)], 2)
