"""Witness maps: validation, trace pairing, duality, special criteria."""

import dataclasses
import itertools
import random

import pytest

from polybox import linalg as la
from polybox import serialize as sz
from polybox.exact import R0, R1, rat
from polybox.lp import OPTIMAL, LpBuilder, vec_expr
from polybox.measurements import (MeasurementCollection, identity_collection,
                                  is_compatible, random_collection)
from polybox.polysimplex import PolySimplex, polysimplex_space, square_space
from polybox.spaces import simplex_space
from polybox.witnesses import (EtbDecomposition, EtbRefutation, WitnessValidationError,
                               _etb_lp, _min_trace_witness, is_etb, is_witness,
                               make_witness_map, maximal_incompatibility_certificate,
                               q_value, random_witness_map, retraction_check,
                               square_extremality, trace_pairing,
                               two_outcome_witness_criterion)

from conftest import apply_collection, coin_toss, map_trace, pentagon_json

SQ = PolySimplex((1, 1))
SPACES = [simplex_space(2), square_space(), polysimplex_space((2, 1))]


def constant_map(shape, space, v):
    return {n: tuple(v) for n in shape.outcomes()}


def square_etb_map():
    """The map w_n = ψ^0_{n_0} + ψ^1_{n_1} with ψ^i_j = x_{2i+j}/2 on the
    square: ETB by construction."""
    sp = square_space()
    psi = {(i, j): la.vec_scale(rat(1, 2), sp.vertices[2 * i + j])
           for i in range(2) for j in range(2)}
    images = {n: tuple(la.vec_add(psi[(0, n[0])], psi[(1, n[1])])) for n in SQ.outcomes()}
    return make_witness_map(SQ, sp, images)


def map_trace_pairing(F, W, base=None):
    """The reference form of `trace_pairing`: Tr(F∘W) of the composed
    ambient matrices, summed over the dual bases of S at `base`."""
    m = la.mat_mul(F.as_map_matrix(), W.as_map_matrix())
    return map_trace(m, W.shape, base)


def square_witness():
    """The q-minimizer for the identity on the square: a genuine witness."""
    F = identity_collection(SQ)
    q, W, lam = q_value(F, SQ.barycenter())
    assert q < 0
    return W


class TestConstruction:
    def test_missing_outcome(self):
        sp = square_space()
        images = constant_map(SQ, sp, sp.interior_point())
        del images[(1, 1)]
        with pytest.raises(ValueError):
            make_witness_map(SQ, sp, images)

    def test_exchange_violation(self):
        sp = square_space()
        images = constant_map(SQ, sp, la.zeros(sp.dim))
        images[(1, 1)] = sp.vertices[0]
        with pytest.raises(WitnessValidationError) as err:
            make_witness_map(SQ, sp, images)
        assert err.value.code == "CONSISTENCY_VIOLATION"

    def test_violation_names_the_dependency(self):
        sp = square_space()
        images = constant_map(SQ, sp, sp.interior_point())
        images[(1, 1)] = la.vec_scale(2, sp.interior_point())
        with pytest.raises(WitnessValidationError) as err:
            make_witness_map(SQ, sp, images)
        assert err.value.detail == "1·w(0, 0) - 1·w(0, 1) - 1·w(1, 0) + 1·w(1, 1) != 0"

    @pytest.mark.parametrize("shape", [PolySimplex((1, 1, 1)), PolySimplex((2, 1))],
                             ids=["cube:3", "(2,1)"])
    def test_chart_check_catches_each_single_image(self, shape):
        # valid maps pass; moving any one vertex image inside the cone
        # (the top image, an edge image or any other) breaks additivity
        rng = random.Random(8)
        for sp in (square_space(), simplex_space(2)):
            for _ in range(3):
                images = random_witness_map(shape, sp, rng).vertex_images
                make_witness_map(shape, sp, images)
                for n in shape.outcomes():
                    step = la.vec_scale(rat(rng.randrange(1, 5), 3), sp.interior_point())
                    bad = dict(images)
                    bad[n] = la.vec_add(images[n], step)
                    with pytest.raises(WitnessValidationError) as err:
                        make_witness_map(shape, sp, bad)
                    assert err.value.code == "CONSISTENCY_VIOLATION"

    def test_chart_check_agrees_with_exchange_equations(self):
        # tables with every image shifted by c_n·v: c_n affine in the
        # chart (a consistent table) or arbitrary; the chart check must
        # accept exactly the tables where every pairwise exchange
        # equation w_n + w_n' == w_(n_i<->n'_i) holds
        rng = random.Random(9)
        sp = square_space()
        v = sp.interior_point()
        seen = set()
        for shape in (PolySimplex((1, 1, 1)), PolySimplex((2, 1))):
            outs = shape.outcome_list()
            for _ in range(20):
                images = random_witness_map(shape, sp, rng).vertex_images
                if rng.randrange(2):
                    w = {(i, j): rng.randrange(3) for i, l in enumerate(shape.shape)
                         for j in range(l + 1)}
                    c = {n: sum(w[(i, ni)] for i, ni in enumerate(n)) for n in outs}
                else:
                    c = {n: rng.randrange(3) for n in outs}
                table = {n: la.vec_add(images[n], la.vec_scale(c[n], v)) for n in outs}
                exchange = True
                for n, m in itertools.combinations(outs, 2):
                    for i in range(shape.k + 1):
                        a = n[:i] + (m[i],) + n[i + 1:]
                        b = m[:i] + (n[i],) + m[i + 1:]
                        if la.vec_add(table[n], table[m]) != la.vec_add(table[a], table[b]):
                            exchange = False
                try:
                    make_witness_map(shape, sp, table)
                    accepted = True
                except WitnessValidationError as err:
                    assert err.code == "CONSISTENCY_VIOLATION"
                    accepted = False
                assert accepted == exchange
                seen.add(accepted)
        assert seen == {True, False}

    def test_cone_violation(self):
        sp = square_space()
        bad = la.vec_scale(rat(-1), sp.interior_point())
        with pytest.raises(WitnessValidationError) as err:
            make_witness_map(SQ, sp, constant_map(SQ, sp, bad))
        assert err.value.code == "NOT_POSITIVE"

    def test_apply_matches_images(self):
        rng = random.Random(2)
        for sp in SPACES:
            W = random_witness_map(SQ, sp, rng)
            for n in SQ.outcomes():
                assert W.apply(SQ.vertex(n)) == W.vertex_images[n]

    def test_scale_and_translate(self):
        rng = random.Random(4)
        sp = square_space()
        W = random_witness_map(SQ, sp, rng)
        doubled = W.scale(2)
        shifted = W.translate(sp.interior_point())
        for n in SQ.outcomes():
            assert doubled.vertex_images[n] == tuple(la.vec_scale(2, W.vertex_images[n]))
            assert shifted.vertex_images[n] == tuple(
                la.vec_add(W.vertex_images[n], sp.interior_point()))


class TestTracePairing:
    def test_shape_mismatch(self):
        F = identity_collection(PolySimplex((2,)))
        W = square_witness()
        with pytest.raises(ValueError):
            trace_pairing(F, W)
        with pytest.raises(ValueError):
            trace_pairing(identity_collection(PolySimplex((1, 1, 1))), W)

    def test_base_independence(self):
        # the chart sum at the top vertex is Tr(F∘W) over any dual bases
        rng = random.Random(9)
        for sp in SPACES:
            F = random_collection(sp, (1, 1), rng)
            W = random_witness_map(SQ, sp, rng)
            ref = trace_pairing(F, W)
            for base in SQ.outcomes():
                assert map_trace_pairing(F, W, base) == ref

    def test_linearity_in_the_witness(self):
        rng = random.Random(13)
        sp = polysimplex_space((2, 1))
        F = random_collection(sp, (1, 1), rng)
        W = random_witness_map(SQ, sp, rng)
        assert trace_pairing(F, W.scale(3)) == 3 * trace_pairing(F, W)

    def test_translation_shifts_by_unit_value(self):
        # Tr F(W + L_v) = Tr FW + <1_K, v>
        rng = random.Random(17)
        sp = square_space()
        F = random_collection(sp, (1, 1), rng)
        W = random_witness_map(SQ, sp, rng)
        v = sp.interior_point()
        got = trace_pairing(F, W.translate(v))
        assert got == trace_pairing(F, W) + la.dot(sp.unit, v)


class TestQValue:
    def test_identity_square(self):
        F = identity_collection(SQ)
        q, W, lam = q_value(F, SQ.barycenter())
        assert q == rat(-1)
        assert lam == rat(1, 2)
        assert trace_pairing(F, W) == q

    def test_uniform_coin_toss(self):
        F = coin_toss(SQ, SQ.barycenter())
        q, _W, lam = q_value(F, SQ.barycenter())
        assert q == R1
        assert lam == R0

    def test_boundary_rejected(self):
        F = identity_collection(SQ)
        # a vertex, a positive point whose blocks sum to 2, a short point
        for s in (SQ.vertex((0, 0)), (R1,) * 4, (R1, R1, R1)):
            with pytest.raises(ValueError):
                q_value(F, s)


class TestWitnessDuality:
    def test_known_witness(self):
        W = square_witness()
        dec = is_witness(W)
        assert dec.is_witness
        assert dec.min_value < 0
        assert dec.translation is None and dec.translated_etb is None
        assert trace_pairing(dec.minimizer, W) == dec.min_value
        ok, _ = is_etb(W)
        assert not ok

    def test_explicit_etb_map(self):
        W = square_etb_map()
        ok, dec = is_etb(W)
        assert ok
        assert dec.check(W)
        decision = is_witness(W)
        assert not decision.is_witness
        assert decision.translation is not None
        shifted = W.translate(decision.translation)
        assert decision.translated_etb.check(shifted)

    def test_random_draw_consistency(self):
        rng = random.Random(23)
        for sp in SPACES:
            for _ in range(5):
                W = random_witness_map(SQ, sp, rng)
                dec = is_witness(W)
                assert dec.is_witness == (dec.min_value < 0)
                assert dec.is_witness == (dec.translation is None)
                assert trace_pairing(dec.minimizer, W) == dec.min_value
                if dec.translation is not None:
                    assert la.dot(sp.unit, dec.translation) == R0
                    dec.translated_etb.check(W.translate(dec.translation))

    def test_scaling_preserves_witnesses(self):
        W = square_witness()
        dec = is_witness(W.scale(rat(5, 2)))
        assert dec.is_witness
        assert dec.min_value == rat(5, 2) * is_witness(W).min_value

    def test_translation_shifts_min_value(self):
        W = square_witness()
        base = is_witness(W).min_value
        c = rat(1, 8)
        shifted = W.translate(la.vec_scale(c, W.space.interior_point()))
        assert is_witness(shifted).min_value == base + c


class TestTwoOutcomeCriterion:
    def test_non_hypercube_rejected(self):
        rng = random.Random(1)
        sh = PolySimplex((2, 1))
        W = random_witness_map(sh, square_space(), rng)
        with pytest.raises(ValueError):
            two_outcome_witness_criterion(W)

    def test_matches_witness_test(self):
        rng = random.Random(31)
        hits = 0
        for sp in SPACES:
            for _ in range(5):
                W = random_witness_map(SQ, sp, rng)
                dec = is_witness(W)
                hits += dec.is_witness
                assert two_outcome_witness_criterion(W) == dec.is_witness
        W = square_witness()
        assert two_outcome_witness_criterion(W)


class TestMaximal:
    def test_identity_square_is_maximal(self):
        rep = maximal_incompatibility_certificate(identity_collection(SQ))
        assert rep.maximal
        assert rep.value == rat(-1)
        assert rep.orthogonal
        assert is_witness(rep.witness).is_witness

    def test_identity_cube_is_maximal(self):
        cube = PolySimplex((1, 1, 1))
        rep = maximal_incompatibility_certificate(identity_collection(cube))
        assert rep.maximal
        assert rep.value == rat(-2)
        assert rep.orthogonal

    def test_coin_toss_is_not(self):
        rep = maximal_incompatibility_certificate(coin_toss(SQ, SQ.barycenter()))
        assert not rep.maximal
        assert rep.value == R1
        assert rep.witness is None


class TestRetraction:
    def test_identity_retracts(self):
        F = identity_collection(SQ)
        rep = retraction_check(F)
        assert rep.is_retraction
        for n in SQ.outcomes():
            assert apply_collection(F, rep.section_images[n]) == SQ.vertex(n)
        # S'∘F is idempotent on the span of K
        p = rep.projection
        for v in F.space.vertices:
            assert la.mat_vec(p, la.mat_vec(p, v)) == la.mat_vec(p, v)

    def test_coin_toss_does_not(self):
        rep = retraction_check(coin_toss(SQ, SQ.barycenter()))
        assert not rep.is_retraction
        assert rep.section_images is None

    def test_non_hypercube_rejected(self):
        with pytest.raises(ValueError):
            retraction_check(identity_collection(PolySimplex((2, 1))))


class TestSquareExtremality:
    def test_maximal_witness_is_extremal(self):
        rep = maximal_incompatibility_certificate(identity_collection(SQ))
        assert square_extremality(rep.witness)

    def test_interior_constant_map_is_not(self):
        sp = square_space()
        W = make_witness_map(SQ, sp, constant_map(SQ, sp, sp.interior_point()))
        assert not square_extremality(W)

    def test_non_square_rejected(self):
        rng = random.Random(6)
        sh = PolySimplex((1, 1, 1))
        W = random_witness_map(sh, square_space(), rng)
        with pytest.raises(ValueError):
            square_extremality(W)


def per_vertex_lp(F, states):
    """Reference witness LP with one block of rows per polysimplex vertex
    n: w_n ∈ V(K)+ and, with `states`, ⟨1_K, w_n⟩ = 1. Returns (lp, top,
    edges, images), images[n] the expressions of w_n."""
    space = F.space
    lp = LpBuilder()
    top = lp.vars(space.rank, nonneg=False)
    edges = {(i, j): lp.vars(space.rank, nonneg=False)
             for i, l in enumerate(F.shape.shape) for j in range(l)}
    images = {}
    for n in F.shape.outcomes():
        img = vec_expr([(R1, top)] + [(R1, edges[(i, ni)]) for i, ni in enumerate(n)
                                      if ni < F.shape.shape[i]])
        lp.add_rows(space.facet_rows, img, "ge", R0)
        if states:
            lp.add_rows([(R1,) * space.rank], img, "eq", R1)
        images[n] = img
    return lp, top, edges, images


def per_vertex_q(F, s):
    """q_s(F) with W(s) ∈ K written as facet rows and the unit row."""
    lp, top, edges, _ = per_vertex_lp(F, states=False)
    point = vec_expr([(R1, top)] + [(F.shape.coords(s, i, j), cols)
                                    for (i, j), cols in edges.items()])
    lp.add_rows(F.space.facet_rows, point, "ge", R0)
    lp.add_rows([(R1,) * F.space.rank], point, "eq", R1)
    return _min_trace_witness(F, lp, top, edges)[0]


def per_vertex_maximal_value(F):
    lp, top, edges, _ = per_vertex_lp(F, states=True)
    return _min_trace_witness(F, lp, top, edges)[0]


def per_vertex_retraction(F):
    """Whether a section exists, with F(σ_n) = s_n written at every vertex."""
    lp, _top, _edges, images = per_vertex_lp(F, states=True)
    effects = [[F.effects[(i, 0)][x] for x in F.space.basis_idx]
               for i in range(F.shape.k + 1)]
    for n, img in images.items():
        lp.add_rows(effects, img, "eq", [R1 if ni == 0 else R0 for ni in n])
    return lp.minimize({}).status == OPTIMAL


def seeded_collections(shape, seed):
    """Identity (as is and with input 0's outcomes cycled), coin toss and
    random collections of `shape`, on the polysimplex itself (pulled
    towards the identity) and on the square."""
    rng = random.Random(seed)
    own = polysimplex_space(shape.shape)
    ident = identity_collection(shape)
    l0 = shape.shape[0]
    cycled = MeasurementCollection(own, shape, {
        (i, j): ident.effects[(i, (j + 1) % (l0 + 1) if i == 0 else j)]
        for i, l in enumerate(shape.shape) for j in range(l + 1)})
    out = [ident, cycled, coin_toss(shape, shape.barycenter())]
    for bias in (None, rat(1, 2), rat(3, 4)):
        out.append(random_collection(own, shape, rng, bias=bias))
    out.append(random_collection(square_space(), shape, rng))
    return out


class TestPerInputWitnessLp:
    """`_witness_lp` bounds each facet value per input, not per vertex;
    the per-vertex reference above must give the same optima."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 1, 1), (1, 1, 1, 1), (2, 1), (2, 2)],
                             ids=str)
    def test_matches_per_vertex_reference(self, shape):
        shape = PolySimplex(shape)
        hypercube = all(l == 1 for l in shape.shape)
        for F in seeded_collections(shape, seed=sum(shape.shape) * 7 + shape.k):
            s = shape.barycenter()
            q, W, lam = q_value(F, s)
            assert q == per_vertex_q(F, s)
            make_witness_map(shape, F.space, W.vertex_images)
            assert trace_pairing(F, W) == q
            assert lam == ((-q) / (R1 - q) if q <= 0 else R0)
            rep = maximal_incompatibility_certificate(F)
            assert rep.value == per_vertex_maximal_value(F)
            assert rep.maximal == (rep.value == -shape.k)
            if rep.maximal:
                make_witness_map(shape, F.space, rep.witness.vertex_images)
                assert trace_pairing(F, rep.witness) == rep.value
            if hypercube:
                assert retraction_check(F).is_retraction == per_vertex_retraction(F)

    def test_identity_five_cube(self):
        shape = PolySimplex((1, 1, 1, 1, 1))
        F = identity_collection(shape)
        q, W, lam = q_value(F, shape.barycenter())
        assert q == -4 and lam == rat(4, 5)
        assert trace_pairing(F, W) == q
        rep = maximal_incompatibility_certificate(F)
        assert rep.maximal and rep.value == -4 and rep.orthogonal
        ret = retraction_check(F)
        assert ret.is_retraction
        for n in shape.outcomes():
            assert apply_collection(F, ret.section_images[n]) == shape.vertex(n)


def ambient_etb_lp(W, translate):
    """The ambient form of the ETB LP: rows at every vertex of S and every
    ambient coordinate of K. Returns the solved LpResult."""
    space = W.space
    lp = LpBuilder()
    cvar = lp.vars(space.rank, nonneg=False) if translate else []
    beta = {(i, j): lp.vars(len(space.vertices), nonneg=True)
            for i, l in enumerate(W.shape.shape) for j in range(l + 1)}
    cols, shift = list(space.vertices), []
    if translate:
        lp.add_eq({c: R1 for c in cvar}, R0)
        cols += [la.vec_scale(-R1, b) for b in space.basis]
        shift = vec_expr([(R1, cvar)])
    m = la.transpose(cols)
    for n in W.shape.outcomes():
        expr = vec_expr([(R1, beta[(i, ni)]) for i, ni in enumerate(n)])
        lp.add_rows(m, expr + shift, "eq", W.vertex_images[n])
    return lp.minimize({})


def facet_collection(shape, space, rng):
    """Input i measures the normalised facet g_i/max_v g_i(v) (outcome 0)
    against its complement (outcome l_i), the outcomes between never
    firing; distinct facets per input where there are enough. Usually
    incompatible off the simplex."""
    n = len(space.facets)
    picks = rng.sample(range(n), shape.k + 1) if n > shape.k else \
        [rng.randrange(n) for _ in shape.shape]
    effects = {}
    for i, (l, g) in enumerate(zip(shape.shape, picks)):
        vals = [la.dot(space.facets[g], v) for v in space.vertices]
        top = max(vals)
        for j in range(l + 1):
            effects[(i, j)] = [v / top if j == 0 else 1 - v / top if j == l else R0
                               for v in vals]
    return MeasurementCollection(space, shape, effects)


def etb_probes(shape, space, rng):
    """Seeded witness maps (small and large slack) and q_s-minimizers of
    facet collections (witnesses when q < 0), each also scaled and
    shifted along the interior point, so that both ETB verdicts occur."""
    maps = [random_witness_map(shape, space, rng) for _ in range(3)]
    for _ in range(3):
        maps.append(q_value(facet_collection(shape, space, rng), shape.barycenter())[1])
    out = []
    for W in maps:
        out += [W, W.scale(rat(rng.randrange(1, 5), 2)),
                W.translate(la.vec_scale(rat(rng.randrange(1, 9), 8), space.interior_point()))]
    return out


class TestEtbLpOnChartVertices:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 1, 1)], ids=str)
    def test_matches_ambient_rows(self, state_space, shape):
        P = PolySimplex(shape)
        rng = random.Random(str((state_space.label, shape)))
        seen = set()
        for W in etb_probes(P, state_space, rng):
            ok, cert = is_etb(W)
            assert ok == (ambient_etb_lp(W, False).status == OPTIMAL)
            # is_etb checked the certificate: a refutation on every
            # (False, ·) probe
            assert isinstance(cert, EtbDecomposition if ok else EtbRefutation)
            shifts = not is_witness(W).is_witness
            assert shifts == (ambient_etb_lp(W, True).status == OPTIMAL)
            seen.add((ok, shifts))
        if state_space.label != "delta:2":
            assert (False, False) in seen and (True, True) in seen

    def test_square_rows(self, solved_rows):
        W = square_witness()
        del solved_rows[:]
        _etb_lp(W)
        ambient_etb_lp(W, False)
        ambient_etb_lp(W, True)
        assert solved_rows == [9, 16, 17]


class TestEtbRefutation:
    """A map that does not factor gets the functionals φ_n of the ETB
    LP's Farkas vector, one per chart vertex, checked in the call."""

    def test_one_solve(self, solved_rows):
        W = square_witness()
        del solved_rows[:]
        ok, ref = is_etb(W)
        assert not ok and len(solved_rows) == 1
        assert set(ref.phi) == {(1, 1), (0, 1), (1, 0)}
        assert ref.pairing(W) > 0 and ref.check(W)

    @pytest.mark.parametrize("doctor", ["one entry", "negate"])
    def test_doctored_refutation_raises(self, doctor):
        W = square_witness()
        _ok, ref = is_etb(W)
        phi = dict(ref.phi)
        if doctor == "negate":
            phi = {n: la.vec_scale(-R1, f) for n, f in phi.items()}
        else:
            n, f = next(iter(phi.items()))
            phi[n] = (f[0] + 1,) + f[1:]
        with pytest.raises(AssertionError, match="refutation"):
            EtbRefutation(phi).check(W)


def etb_map():
    """`square_etb_map` shifted by x_0/3: a non-witness whose minimum is
    positive, 1/3."""
    W = square_etb_map()
    return W.translate(la.vec_scale(rat(1, 3), W.space.vertices[0]))


class TestWitnessDecisionIsOneLp:
    """`is_witness` solves only the minimizing-F LP; a non-witness gets
    its ETB translation from that LP's duals, checked in the call."""

    def test_one_solve_either_way(self, solved_rows):
        W, V = square_witness(), etb_map()
        del solved_rows[:]
        assert is_witness(W).is_witness
        assert len(solved_rows) == 1
        dec = is_witness(V)
        assert not dec.is_witness and dec.min_value == rat(1, 3)
        assert len(solved_rows) == 2
        assert la.dot(V.space.unit, dec.translation) == R0
        assert dec.translated_etb.check(V.translate(dec.translation))

    @pytest.mark.parametrize("doctor", ["move v_1", "negate"])
    def test_doctored_duals_raise(self, monkeypatch, doctor):
        V = etb_map()
        D = V.space.rank
        solve = LpBuilder.minimize

        def doctored(self, coeffs):
            res = solve(self, coeffs)
            y = list(res.duals)
            if doctor == "negate":
                y = [-c for c in y]
            else:
                y[D] += rat(1, 2)  # v_1 moves by b_0/2
            return dataclasses.replace(res, duals=tuple(y))

        assert not is_witness(V).is_witness
        monkeypatch.setattr(LpBuilder, "minimize", doctored)
        with pytest.raises(AssertionError, match="⟨1_K, v⟩"):
            is_witness(V)

    def test_cone_check_catches_a_factor_outside(self):
        V = etb_map()
        dec = is_witness(V)
        psi = dict(dec.translated_etb.psi)
        # the sums at every vertex stay, one factor leaves V(K)+
        shift = la.vec_scale(rat(-1, 2), V.space.vertices[3])
        psi[(0, 0)] = la.vec_add(psi[(0, 0)], shift)
        psi[(0, 1)] = la.vec_add(psi[(0, 1)], shift)
        psi[(1, 0)] = la.vec_sub(psi[(1, 0)], shift)
        psi[(1, 1)] = la.vec_sub(psi[(1, 1)], shift)
        assert not all(V.space.in_cone(p) for p in psi.values())
        with pytest.raises(AssertionError, match="not in the state cone"):
            EtbDecomposition(psi).check(V.translate(dec.translation))


class TestFarkasWitness:
    """`is_compatible` reads a witness off its Farkas multipliers; "own"
    is the polysimplex S itself."""

    @pytest.mark.parametrize("space", ["own", "square", "poly:2,1", "pentagon"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 1, 1), (2, 1), (2, 2), (1, 1, 1, 1)],
                             ids=str)
    def test_certifies_incompatibility(self, space, shape):
        P = PolySimplex(shape)
        if space == "own":
            sp = polysimplex_space(shape)
        elif space == "pentagon":
            sp = sz.space_from_json(pentagon_json())
        else:
            sp = sz.builtin_space(space)
        rng = random.Random(str(("farkas", space, shape)))
        cands = [identity_collection(P)] if space == "own" else []
        for _ in range(3):
            if space == "own":
                cands.append(random_collection(sp, P, rng, bias=rat(3, 4)))
            else:
                cands.append(facet_collection(P, sp, rng))
        sbar = P.barycenter()
        found = 0
        for F in cands:
            ok, W = is_compatible(F)
            if ok:
                continue
            found += 1
            assert make_witness_map(P, sp, W.vertex_images).vertex_images == W.vertex_images
            assert la.dot(sp.unit, W.apply(sbar)) == R1
            trace = trace_pairing(F, W)
            assert trace < 0
            assert is_witness(W).is_witness
            assert q_value(F, sbar)[0] <= trace
        assert found
