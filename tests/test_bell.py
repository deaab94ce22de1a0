"""No-signalling boxes, locality, CHSH witnesses, the incompatibility bound."""

import dataclasses
import itertools
import random

import pytest

from polybox import bell
from polybox import linalg as la
from polybox.bell import (BellWitness, Box, _embedded_pr_probs,
                          all_chsh_witnesses, bell_id_bound_check, bell_value, box_from,
                          chsh_witness, deterministic_box, is_local, pr_box, random_ns_box,
                          square_equality_construction)
from polybox.exact import R0, R1, rat
from polybox.lp import OPTIMAL, LpBuilder
from polybox.measurements import ProductDecomposition, identity_collection, random_collection
from polybox.polysimplex import PolySimplex, square_space
from polybox.steering import self_dual_state, square_self_dual_iso
from polybox.witnesses import q_value

from conftest import (box_from_tensor, box_functional_separates, coin_toss, random_local_box,
                      three_input_pr_box)

P = PolySimplex((1, 1))


def incompatible_draw(rng):
    sp = square_space()
    while True:
        F = random_collection(sp, (1, 1), rng, bias=rat(7, 8))
        q, _w, _lam = q_value(F, P.barycenter())
        if q < 0:
            return F


class TestBox:
    def test_signalling_rejected(self):
        probs = dict(pr_box().probs)
        probs[(0, 0, 0, 0)] = R1
        probs[(0, 0, 0, 1)] = R0
        probs[(0, 0, 1, 0)] = R0
        probs[(0, 0, 1, 1)] = R0
        with pytest.raises(ValueError):
            Box(P, P, probs)

    def test_negative_rejected(self):
        probs = dict(pr_box().probs)
        probs[(0, 0, 0, 0)] = rat(-1, 2)
        probs[(0, 0, 0, 1)] = R1
        with pytest.raises(ValueError):
            Box(P, P, probs)

    def test_missing_keys_rejected(self):
        probs = dict(pr_box().probs)
        del probs[(1, 1, 0, 0)]
        with pytest.raises(ValueError):
            Box(P, P, probs)

    def test_float_mode(self):
        probs = {k: float(v) for k, v in pr_box().probs.items()}
        box = Box(P, P, probs)
        assert box.mode == "float"
        assert bell_value(box) == pytest.approx(4.0)

    def test_pr_marginals_uniform(self):
        box = pr_box()
        for i in (0, 1):
            for j in (0, 1):
                for other in (0, 1):
                    assert box.probs[(i, other, j, 0)] + box.probs[(i, other, j, 1)] \
                        == rat(1, 2)
                    assert box.probs[(other, i, 0, j)] + box.probs[(other, i, 1, j)] \
                        == rat(1, 2)

    def test_tensor_round_trip(self):
        rng = random.Random(3)
        box = random_ns_box(P, P, rng)
        back = box_from_tensor(P, P, box.tensor())
        assert back.probs == box.probs

    def test_box_from_pairs_effects(self):
        sp = square_space()
        y = self_dual_state(sp, square_self_dual_iso())
        F = identity_collection(P)
        box = box_from(F, F, y)
        for (ia, ib, ja, jb), v in box.probs.items():
            fa = F.effect(ia, ja)
            fb = F.effect(ib, jb)
            assert la.dot(fa, la.mat_vec(y, fb)) == v


class TestLocality:
    def test_deterministic_is_local(self):
        box = deterministic_box(P, P, (0, 1), (1, 0))
        ok, model = is_local(box)
        assert ok
        assert model.check(box.tensor())

    def test_negative_weights_rejected(self):
        # +1 on na = 00 and 11, −1 on 01 and 10 (nb = 00, S_B's vertex 0)
        # leaves every marginal of the deterministic box unchanged
        box = deterministic_box(P, P, (0, 0), (0, 0))
        doctored = ProductDecomposition(P, P.as_state_space(), {
            (0, 0): (rat(2), R0, R0, R0), (1, 1): (R1, R0, R0, R0),
            (0, 1): (-R1, R0, R0, R0), (1, 0): (-R1, R0, R0, R0)})
        with pytest.raises(AssertionError, match="negative"):
            doctored.check(box.tensor())

    def test_pr_is_not_local(self):
        ok, mu = is_local(pr_box())
        assert not ok and mu.value(pr_box()) == rat(-1, 2)
        assert box_functional_separates(mu.tensor, pr_box())

    def test_mixtures_of_deterministic_are_local(self):
        rng = random.Random(5)
        for _ in range(5):
            box = random_local_box(P, P, rng)
            ok, model = is_local(box)
            assert ok
            assert model.check(box.tensor())

    def test_float_box_rejected(self):
        probs = {k: float(v) for k, v in pr_box().probs.items()}
        with pytest.raises(ValueError):
            is_local(Box(P, P, probs))

    def test_witness_criterion_matches_lp(self):
        # in the binary 2-input scenario the 8 CHSH values decide locality
        rng = random.Random(7)
        mus = all_chsh_witnesses()
        for _ in range(15):
            box = random_ns_box(P, P, rng)
            ok, _ = is_local(box)
            assert ok == all(mu.value(box) >= 0 for mu in mus)


class TestChsh:
    def test_bad_indices(self):
        with pytest.raises(ValueError):
            chsh_witness(0, 2, 0)

    def test_witnesses_are_built_once(self):
        for i, j, k in itertools.product((0, 1), repeat=3):
            mu = chsh_witness(i, j, k)
            assert chsh_witness(i, j, k) is mu
            assert mu == chsh_witness.__wrapped__(i, j, k)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mu.norm_max = R0

    def test_norms_are_one(self):
        for mu in all_chsh_witnesses():
            assert mu.norm_max == R1

    def test_negative_tensor_rejected(self):
        t = la.mat([[-la.dot(P.unit(), P.vertex(n)) for _ in range(4)]
                    for n in P.outcomes()])
        with pytest.raises(ValueError):
            BellWitness((0, 0, 0), t, P, P)

    def test_norm_max_is_not_an_argument(self):
        # passing it would skip the product-vertex check
        t = la.mat([[-R1] * 4 for _ in range(4)])
        with pytest.raises(TypeError):
            BellWitness(None, t, P, P, norm_max=R1)

    def test_pr_values(self):
        box = pr_box()
        assert bell_value(box) == rat(4)
        assert chsh_witness(0, 1, 0).value(box) == rat(-1, 2)

    def test_deterministic_maximum(self):
        best = None
        for na in P.outcomes():
            for nb in P.outcomes():
                b = bell_value(deterministic_box(P, P, na, nb))
                if best is None or b > best:
                    best = b
        assert best == rat(2)

    def test_non_square_scenario_rejected(self):
        sh = PolySimplex((2,))
        box = deterministic_box(sh, sh, (0,), (1,))
        with pytest.raises(ValueError):
            bell_value(box)

    def test_scenario_mismatch_rejected(self):
        sh = PolySimplex((2,))
        box = deterministic_box(sh, sh, (0,), (1,))
        with pytest.raises(ValueError):
            chsh_witness(0, 1, 0).value(box)


class TestBound:
    def test_identity_pair_on_self_dual(self):
        # maximally incompatible, yet this particular box sits at +q/2
        sp = square_space()
        F = identity_collection(P)
        y = self_dual_state(sp, square_self_dual_iso())
        rep = bell_id_bound_check(chsh_witness(0, 1, 0), F, F, y, P.barycenter())
        assert rep.holds
        assert rep.q == rat(-1)
        assert rep.lhs == rat(1, 2)
        assert rep.equality_holds is False

    def test_compatible_collection_rejected(self):
        sp = square_space()
        F = coin_toss(P, P.barycenter())
        y = self_dual_state(sp, square_self_dual_iso())
        with pytest.raises(ValueError):
            bell_id_bound_check(chsh_witness(0, 1, 0), F, F, y, P.barycenter())

    def test_bound_on_random_draws(self):
        rng = random.Random(11)
        sp = square_space()
        y = self_dual_state(sp, square_self_dual_iso())
        fb = identity_collection(P)
        for _ in range(5):
            fa = incompatible_draw(rng)
            mu = chsh_witness(rng.randrange(2), rng.randrange(2), rng.randrange(2))
            rep = bell_id_bound_check(mu, fa, fb, y, P.barycenter())
            assert rep.holds
            assert rep.lhs >= rep.norm_max * rep.q

    def test_equality_construction_identity_gives_pr(self):
        F = identity_collection(P)
        con = square_equality_construction(F)
        assert con.q == rat(-1)
        assert con.lhs == rat(-1, 2)
        assert con.holds
        box = box_from(F, con.f_b, con.y)
        assert box.probs == pr_box().probs

    def test_equality_construction_random(self):
        rng = random.Random(13)
        for _ in range(3):
            fa = incompatible_draw(rng)
            con = square_equality_construction(fa)
            assert con.holds
            assert con.lhs == con.q / 2


def ambient_is_local(box):
    """The ambient form of the locality LP: one row per table entry and
    the normalization row."""
    outs_a = box.shape_a.outcome_list()
    outs_b = box.shape_b.outcome_list()
    lp = LpBuilder()
    w = {(na, nb): lp.var(nonneg=True) for na in outs_a for nb in outs_b}
    for key in box._keys():
        ia, ib, ja, jb = key
        lp.add_eq({w[(na, nb)]: R1 for na in outs_a for nb in outs_b
                   if na[ia] == ja and nb[ib] == jb}, box.probs[key])
    lp.add_eq({v: R1 for v in w.values()}, R1)
    return lp.minimize({}).status == OPTIMAL


def seeded_boxes(shape_a, shape_b, rng, count):
    """random_ns_box draws, and on binary shapes the same mixed with a PR
    variant so that both verdicts occur."""
    A, B = PolySimplex(shape_a), PolySimplex(shape_b)
    boxes = [random_ns_box(A, B, rng) for _ in range(count)]
    if all(l == 1 for l in shape_a + shape_b):
        for box in boxes[:count // 2]:
            t = rat(rng.randrange(1, 4), 4)
            pr = _embedded_pr_probs(A, B, (0, 1), (0, 1), (1, 0, rng.randrange(2)))
            boxes.append(Box(A, B, {k: (1 - t) * v + t * pr[k] for k, v in box.probs.items()}))
    return boxes


class TestLocalityOnIndependentCoordinates:
    SHAPES = [((1, 1), (1, 1)), ((1, 1, 1), (1, 1)), ((2, 1), (1, 1)), ((2,), (1, 1)),
              ((2,), (2,))]

    @pytest.mark.parametrize("shape_a, shape_b", SHAPES, ids=str)
    def test_verdicts_match_ambient_rows(self, shape_a, shape_b):
        rng = random.Random(str((shape_a, shape_b)))
        seen = set()
        for box in seeded_boxes(shape_a, shape_b, rng, 8):
            ok, found = is_local(box)
            assert ok == ambient_is_local(box)
            assert found.check(box.tensor()) if ok else box_functional_separates(found.tensor, box)
            seen.add(ok)
        if shape_a in ((1, 1), (1, 1, 1)):
            assert seen == {True, False}

    def test_square_rows(self, solved_rows):
        for box in (pr_box(), deterministic_box(P, P, (0, 1), (1, 0))):
            is_local(box)
            ambient_is_local(box)
        assert solved_rows == [9, 17, 9, 17]


def deterministic_parts_random_ns_box(shape_a, shape_b, rng):
    """random_ns_box with each deterministic part read off a validated
    deterministic_box."""
    parts = []
    for _ in range(rng.randrange(2, 6)):
        na = tuple(rng.randrange(0, l + 1) for l in shape_a.shape)
        nb = tuple(rng.randrange(0, l + 1) for l in shape_b.shape)
        parts.append(deterministic_box(shape_a, shape_b, na, nb).probs)
    if all(l == 1 for l in shape_a.shape + shape_b.shape):
        for _ in range(rng.randrange(0, 3)):
            ia_pair = tuple(sorted(rng.sample(range(shape_a.k + 1), 2)))
            ib_pair = tuple(sorted(rng.sample(range(shape_b.k + 1), 2)))
            variant = (rng.randrange(2), rng.randrange(2), rng.randrange(2))
            parts.append(_embedded_pr_probs(shape_a, shape_b, ia_pair, ib_pair, variant))
    weights = [rat(rng.randrange(1, 10)) for _ in parts]
    tot = sum(weights)
    probs = {}
    for w, part in zip(weights, parts):
        for k, v in part.items():
            probs[k] = probs.get(k, R0) + (w / tot) * v
    return probs


@pytest.mark.parametrize("shape_a, shape_b", TestLocalityOnIndependentCoordinates.SHAPES,
                         ids=str)
def test_random_ns_box_matches_validated_parts(shape_a, shape_b):
    A, B = PolySimplex(shape_a), PolySimplex(shape_b)
    for seed in range(20):
        box = random_ns_box(A, B, random.Random(seed))
        assert box.probs == deterministic_parts_random_ns_box(A, B, random.Random(seed))


class TestSeparatingFunctional:
    """A "false" locality verdict carries a Bell functional read off its
    one LP, checked outside it on every product of vertices."""

    def test_three_input_pr_box(self):
        box = three_input_pr_box()
        ok, mu = is_local(box)
        assert not ok and mu.idx is None
        assert mu.value(box) == rat(-1, 2)
        assert box_functional_separates(mu.tensor, box)

    def test_nonlocal_draws_on_three_inputs_each(self):
        A = PolySimplex((1, 1, 1))
        nonlocal_ = 0
        for box in seeded_boxes((1, 1, 1), (1, 1, 1), random.Random(11), 6):
            ok, found = is_local(box)
            if not ok:
                assert found.value(box) < 0 and found.shape_a == A
                assert box_functional_separates(found.tensor, box)
                nonlocal_ += 1
        assert nonlocal_ >= 3

    @pytest.mark.parametrize("shapes", [((1, 1), (1, 1)), ((1, 1, 1), (1, 1)),
                                        ((2, 1), (2,))], ids=str)
    def test_every_product_vertex_is_visited(self, shapes):
        # g = Σ_i m^i_{l_i} counts the inputs at their last outcome, so
        # ⟨c·1⊗1 − g_A⊗g_B, s_n ⊗ s_m⟩ = c − g_A(n)·g_B(m) is least, and
        # only, at the last pair of the enumeration: both tops
        A, B = PolySimplex(shapes[0]), PolySimplex(shapes[1])

        def g(S):
            return la.combine([R1] * (S.k + 1), [S.m(i, l) for i, l in enumerate(S.shape)])

        top = (A.k + 1) * (B.k + 1)
        for c, rejected in ((top, False), (top - rat(1, 2), True)):
            mu = la.mat([[c * u * w - x * y for w, y in zip(B.unit(), g(B))]
                         for u, x in zip(A.unit(), g(A))])
            values = [la.dot(A.vertex(n), la.mat_vec(mu, B.vertex(m)))
                      for n in A.outcomes() for m in B.outcomes()]
            assert min(values[:-1]) > 0 and values[-1] == c - top
            if rejected:
                with pytest.raises(ValueError, match="negative on a product vertex"):
                    BellWitness(None, mu, A, B)
            else:
                assert BellWitness(None, mu, A, B).norm_max == max(values)

    def test_a_functional_that_misses_the_tensor_raises(self, monkeypatch):
        # a checked functional whose pairing with γ is not negative is an
        # internal error, not a "false" verdict
        monkeypatch.setattr(bell, "product_functional",
                            lambda shape, space, farkas: la.mat(
                                [[R0] * space.dim for _ in range(shape.ambient_dim)]))
        with pytest.raises(AssertionError, match="not < 0"):
            is_local(pr_box())
