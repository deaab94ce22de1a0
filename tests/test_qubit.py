"""Qubit pairs: effects, joint POVMs, the witness family, degrees, CHSH."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from polybox import qubit
from polybox.bell import bell_value, chsh_witness
from polybox.qubit import (QUBIT_MAX_ID, QubitEffect, QubitWitnessParams, born_box,
                           holder_check, joint_povm_feasible, max_entangled_state,
                           mub_pair, qubit_bound_report, qubit_id, random_effect,
                           trace_pairing_qubit, tsirelson_box, witness_q)


#: the 36th pair that demo row 3's loop draws from random.Random(0):
#: compatible, with a joint effect whose POVM elements all have smallest
#: eigenvalue ≥ 8e-5
REGRESSION_PAIR = (
    QubitEffect(0.4768245647467665, (-0.14663048544088603, 0.3567951667291718,
                                     -0.004179718339504759)),
    QubitEffect(0.2816009058355796, (0.07114195206043553, -0.17201185243931785,
                                     0.21108745148764524)))

#: the 38th pair that demo row 3's loop draws from random.Random(3), i.e.
#: at --seed 0: incompatible, with ID 0.0708308; a 16³ witness grid with
#: 40 refinement rounds left its dual bound 1.5e-5 short of that
ROW3_PAIR_38 = (
    QubitEffect(0.4840382476753442, (0.2123637518928114, -0.2513048105642849,
                                     -0.18746331345314593)),
    QubitEffect(0.524245928386944, (0.12058849380289001, 0.3510127143660734,
                                    -0.11514900690042464)))

#: three unsharp pairs of the `qubit-pairs` benchmark workload
#: (perfbench/workloads.py), seed 1311 item 332, seed 5112 item 2405 and
#: seed 14324 item 1619, with their q̂ to 1e-7: a local search
#: for the witness in polar form (r, n̂) stops at r = 0 on each, at
#: q̂ = −0.1138048, −0.0993717 and −0.2921146
STALL_PAIRS = (
    ((QubitEffect(0.506778516787895, (0.13767908898072795, -0.1454044272379637,
                                      -0.2862958670744545)),
      QubitEffect(0.49414171688695285, (0.4490488230106437, -0.025730511357397595,
                                        -0.161428669857507))), -0.1139499),
    ((QubitEffect(0.5012675413844563, (0.0010278564187551729, -0.39269624658330565,
                                       0.0272465779485542)),
      QubitEffect(0.49941180358774695, (0.24770374920147095, 0.06539574148180602,
                                        0.28738765589324355))), -0.0993755),
    ((QubitEffect(0.5107809552507083, (-0.1715764451567668, -0.33969058621649517,
                                       -0.22798957766220185)),
      QubitEffect(0.4967988257870313, (0.2673324840234304, -0.306166201483631,
                                        0.23542690958249254))), -0.2922918))
STALL_IDS = ["1311-332", "5112-2405", "14324-1619"]

#: sharp×unsharp pairs n = 19, 213 (did not converge) and 202, 224 (dual
#: bound missed) of a float search for the witness, drawn by
#: rng = random.Random(20261019); for n = 1, 2, …:
#: A = random_effect(rng, sharp=True), B = random_effect(rng), swapped
#: when n is even
SEARCH_FAILURES = (
    (QubitEffect(0.5, (0.2096665311476583, 0.4334793483342753, 0.1346684828911356)),
     QubitEffect(0.6758517074304149, (-0.004055148879734898, 0.004719041050158056,
                                      0.0018949742466562857))),
    (QubitEffect(0.5, (0.17530066756896065, 0.41997889755979473, -0.20709273660448893)),
     QubitEffect(0.19558913427540467, (0.0042569716503099075, -3.0093024585034063e-05,
                                       -0.0030643425810988004))),
    (QubitEffect(0.5069273330667539, (-0.010723943375677883, -0.00187803990214558,
                                      -0.0008303363223043014)),
     QubitEffect(0.5, (0.4633437690082349, -0.1731907356079399, -0.07292133309823806))),
    (QubitEffect(0.500043386903963, (-0.1531342671244334, 0.32111135187513623,
                                     -0.14231329434611023)),
     QubitEffect(0.5, (0.16743927880173756, 0.4668572112118132, 0.06331218092817935))))
SEARCH_FAILURE_IDS = ["19", "213", "202", "224"]

#: a Bloch radius next to a pure ρ
R_NEAR_PURE = 1.0 - 2e-8

SIGMAS = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def focal(x, m):
    """F(x, m) = ½[√((1+x)²−|m|²) + √((1−x)²−|m|²)] of the effect
    ½[(1+x)I + m·σ], and x²/F², taken as 0 for a sharp projector
    (x = 0, F = 0). F ≥ |x| for every effect; the min keeps rounding
    from pushing the ratio above 1."""
    m2 = float(np.dot(m, m))
    f = 0.5 * (math.sqrt(max((1.0 + x) ** 2 - m2, 0.0))
               + math.sqrt(max((1.0 - x) ** 2 - m2, 0.0)))
    return f, (min(x * x / (f * f), 1.0) if f > 0.0 else 0.0)


def coexistence_margin(a, b):
    """The reference criterion of Yu, Liu, Li & Oh, PRA 81 062116 (2010)
    (Busch, PRD 33 2253 (1986) in the unbiased case), in floats: with
    A = ½[(1+x)I + m·σ], B = ½[(1+y)I + n·σ], the pair is coexistent iff
    (1 − F_x² − F_y²)(1 − x²/F_x² − y²/F_y²) − (m·n − xy)² ≤ 0."""
    x, m = 2.0 * a.alpha - 1.0, 2.0 * a.bloch
    y, n = 2.0 * b.alpha - 1.0, 2.0 * b.bloch
    fx, rx = focal(x, m)
    fy, ry = focal(y, n)
    return (1.0 - fx * fx - fy * fy) * (1.0 - rx - ry) - (float(np.dot(m, n)) - x * y) ** 2


def reference_id(a, b):
    """ID_s̄ by bisection on `coexistence_margin` down to a bracket of
    1e-12, its midpoint."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if coexistence_margin(a.smear(mid), b.smear(mid)) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def busch_id(a, b):
    """1 − 2/(|m+n| + |m−n|) of an unbiased pair ½(I + m·σ), ½(I + n·σ),
    from the floats' exact values: |m+n| − 2 = (|m+n|² − 4)/(|m+n| + 2)
    keeps the digits that cancel when m ≈ n."""
    m = [Fraction(2 * x) for x in a.bloch.tolist()]
    n = [Fraction(2 * x) for x in b.bloch.tolist()]
    plus2 = sum((x + y) ** 2 for x, y in zip(m, n))
    plus, minus = math.sqrt(plus2), math.sqrt(sum((x - y) ** 2 for x, y in zip(m, n)))
    return (float(plus2 - 4) / (plus + 2.0) + minus) / (plus + minus)


def exact_boundary_sign(a, b, lam):
    """The sign of |b|²(a′·g)² − 2(a·b)(a′·g)(b′·g) + |a|²(b′·g)² −
    s²·det M₀·g₀² at s = 1 − λ, in Fractions, written out from the
    critical joint effect's g₀, a′·g and b′·g."""
    s, half = 1 - Fraction(lam), Fraction(1, 2)
    al, be = half + s * (Fraction(a.alpha) - half), half + s * (Fraction(b.alpha) - half)
    av = [Fraction(x) for x in a.bloch.tolist()]
    bv = [Fraction(x) for x in b.bloch.tolist()]
    aa, ab, bb = (sum(x * y for x, y in zip(u, v)) for u, v in ((av, av), (av, bv), (bv, bv)))
    g0 = s * s * ab + (al * al + be * be - (1 - al - be) ** 2) / 2
    ag = (s * s * aa - al * al + 2 * al * g0) / 2
    bg = (s * s * bb - be * be + 2 * be * g0) / 2
    q = bb * ag * ag - 2 * ab * ag * bg + aa * bg * bg - s * s * (aa * bb - ab * ab) * g0 * g0
    return (q > 0) - (q < 0)


def near_commuting(eps):
    """σz against σz tilted by ε in the x–z plane."""
    return (QubitEffect.sharp((0.0, 0.0, 1.0)),
            QubitEffect.sharp((math.sin(eps), 0.0, math.cos(eps))))


EPSILONS = (1e-2, 1e-4, 1e-6, 1e-8)


def pauli_matrix(t, vec):
    return t * np.eye(2, dtype=complex) + sum(c * s for c, s in zip(vec, SIGMAS))


def psd(m, tol=1e-8):
    return float(np.linalg.eigvalsh(m).min()) >= -tol


def is_joint_effect(g, a, b, tol=1e-9):
    am, bm = a.matrix(), b.matrix()
    return all(psd(m, tol) for m in (g, am - g, bm - g, np.eye(2) - am - bm + g))


def unbiased(rng, r_min=0.0):
    """½(I + m·σ) with r_min ≤ |m| ≤ 1, and its m."""
    z, ph = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
    r = rng.uniform(r_min, 1.0)
    rho = math.sqrt(1.0 - z * z)
    m = np.array([rho * math.cos(ph), rho * math.sin(ph), z]) * r
    return QubitEffect(0.5, m / 2.0), m


def biased(rng):
    """αI + a·σ with α ≠ ½ in general and ‖a‖ near its bound min(α, 1−α)."""
    alpha = rng.uniform(0.2, 0.8)
    m = unbiased(rng, 0.85)[1]
    return QubitEffect(alpha, m * min(alpha, 1.0 - alpha))


class TestQubitEffect:
    def test_norm_guard(self):
        with pytest.raises(ValueError):
            QubitEffect(0.5, (0.6, 0.0, 0.0))
        with pytest.raises(ValueError):
            QubitEffect(0.9, (0.0, 0.2, 0.0))
        with pytest.raises(ValueError):
            QubitEffect(0.5, (0.1, 0.1))

    @pytest.mark.parametrize("alpha, bloch", [
        (float("nan"), (0.0, 0.0, 0.0)), (0.5, (float("nan"), 0.0, 0.0)),
        (float("inf"), (0.0, 0.0, 0.0)), (0.5, (0.0, float("-inf"), 0.0))])
    def test_refuses_non_finite(self, alpha, bloch):
        # NaN fails every comparison, so the norm guard alone passes it
        with pytest.raises(ValueError, match="finite"):
            QubitEffect(alpha, bloch)

    def test_sharp_is_projector(self):
        e = QubitEffect.sharp((3.0, 0.0, 4.0))
        m = e.matrix()
        assert np.allclose(m @ m, m)
        assert abs(np.trace(m) - 1.0) < 1e-12

    def test_smear(self):
        e = QubitEffect.sharp((0, 0, 1))
        lam = 0.25
        want = (1 - lam) * e.matrix() + lam * 0.5 * np.eye(2)
        assert np.allclose(e.smear(lam).matrix(), want)


class TestFeasibility:
    def test_mub_infeasible(self):
        a, b = mub_pair()
        ok, g = joint_povm_feasible(a, b)
        assert not ok and g is None

    def test_commuting_feasible(self):
        a = QubitEffect.sharp((0, 0, 1))
        b = QubitEffect(0.5, (0.0, 0.0, 0.25))
        ok, g = joint_povm_feasible(a, b)
        assert ok
        assert psd(g)
        assert psd(a.matrix() - g)
        assert psd(b.matrix() - g)
        assert psd(g - (a.matrix() + b.matrix() - np.eye(2)))

    def test_smearing_crosses_threshold(self):
        a, b = mub_pair()
        for margin in (0.02, 1e-6):
            lam_over = QUBIT_MAX_ID + margin
            lam_under = QUBIT_MAX_ID - margin
            over = a.smear(lam_over), b.smear(lam_over)
            ok, g = joint_povm_feasible(*over)
            assert ok
            assert is_joint_effect(g, *over)
            ok, _ = joint_povm_feasible(a.smear(lam_under), b.smear(lam_under))
            assert not ok

    def test_regression_pair_compatible(self):
        a, b = REGRESSION_PAIR
        ok, g = joint_povm_feasible(a, b)
        assert ok
        assert is_joint_effect(g, a, b, tol=0.0)
        assert qubit_id(a, b).value == 0.0


class TestCoexistenceCriterion:
    def test_unbiased_pairs_match_busch(self):
        rng = random.Random(23)
        verdicts = set()
        for _ in range(200):
            (a, m_a), (b, m_b) = unbiased(rng, 0.5), unbiased(rng, 0.5)
            busch = np.linalg.norm(m_a + m_b) + np.linalg.norm(m_a - m_b)
            if abs(busch - 2.0) < 1e-9:
                continue
            ok, g = joint_povm_feasible(a, b)
            assert ok == (busch <= 2.0)
            assert not ok or is_joint_effect(g, a, b)
            verdicts.add(ok)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("b, commutes", [
        (QubitEffect.sharp((0, 0, 1)), True),
        (QubitEffect.sharp((0, 0, -1)), True),
        (QubitEffect.sharp((1, 0, 0)), False),
        (QubitEffect.sharp((0, 1, 0)), False),
        (QubitEffect.sharp((1e-3, 0, 1)), False),
        (QubitEffect(0.7, (0.0, 0.0, -0.3)), True),
        (QubitEffect(0.3, (0.0, 0.0, 0.1)), True),
        (QubitEffect(0.6, (0.1, 0.0, 0.3)), False),
        (QubitEffect(0.4, (0.0, 0.0, 0.0)), True),
        (QubitEffect(1.0, (0.0, 0.0, 0.0)), True),
    ], ids=["same", "opposite", "orthogonal-x", "orthogonal-y", "tilted",
            "biased-commuting", "biased-commuting-2", "biased-tilted", "trivial",
            "identity"])
    def test_sharp_coexists_iff_commutes(self, b, commutes):
        a = QubitEffect.sharp((0, 0, 1))
        for first, second in ((a, b), (b, a)):
            ok, g = joint_povm_feasible(first, second)
            assert ok == commutes
            assert not ok or is_joint_effect(g, first, second)

    def test_biased_pairs_come_with_joint_effect(self):
        rng = random.Random(29)
        verdicts = set()
        for _ in range(80):
            a, b = biased(rng), biased(rng)
            ok, g = joint_povm_feasible(a, b)
            verdicts.add(ok)
            if ok:
                assert is_joint_effect(g, a, b)
            else:
                assert g is None
        assert verdicts == {True, False}

    def test_value_meets_dual_bound_at_barycenter(self):
        rng = random.Random(31)
        pairs = [(QubitEffect.sharp(unbiased(rng)[1]), QubitEffect.sharp(unbiased(rng)[1]))
                 for _ in range(4)]
        pairs += [(unbiased(rng, 0.9)[0], unbiased(rng, 0.9)[0]) for _ in range(4)]
        pairs.append(ROW3_PAIR_38)
        incompatible = 0
        for a, b in pairs:
            rep = qubit_id(a, b)
            assert abs(rep.value - rep.dual_bound) <= 1e-9
            assert rep.value <= QUBIT_MAX_ID + 1e-9
            incompatible += rep.value > 0.0
        assert incompatible >= 5


class TestWitness:
    def test_mub_optimum(self):
        a, b = mub_pair()
        rep = witness_q(a, b)
        assert abs(rep.q_hat - (1.0 - math.sqrt(2.0))) <= 1e-6
        assert abs(rep.id_lower_bound - QUBIT_MAX_ID) <= 1e-6
        got = trace_pairing_qubit(a, b, rep.params.check())
        assert abs(got - rep.q_hat) <= 1e-9
        c, d = holder_check(rep.params)
        assert abs(c * c + d * d - 1.0) <= 1e-9

    def test_trivial_pair_not_detected(self):
        e = QubitEffect(0.5, (0.0, 0.0, 0.0))
        rep = witness_q(e, e)
        assert rep.q_hat >= -1e-9
        assert rep.id_lower_bound == 0.0


class TestWitnessEvaluator:
    """The closed Pauli form of witness_q's evaluator against the matrix
    route."""

    PAIRS = (mub_pair(), ROW3_PAIR_38,
             (QubitEffect(0.3, (0.1, -0.2, 0.05)), QubitEffect(0.7, (0.0, 0.1, 0.25))),
             (QubitEffect(0.5, (0.0, 0.0, 0.0)), QubitEffect(0.5, (0.0, 0.0, 0.0))))

    @staticmethod
    def directions(rng, count):
        dirs = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
        for _ in range(count):
            n = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
            dirs.append(tuple(n / np.linalg.norm(n)))
        return dirs

    def test_h_matches_matrix_sandwich(self):
        rng = random.Random(41)
        for r in (0.0, 0.35, 0.9, R_NEAR_PURE):
            for n in self.directions(rng, 4):
                # √M = (M + √det M·I)/√(Tr M + 2√det M) for a 2×2 M ≥ 0,
                # independent of the closed form's c and d
                rho = pauli_matrix(0.5, 0.5 * r * np.array(n))
                root_det = math.sqrt(np.linalg.det(rho).real)
                sq = (rho + root_det * np.eye(2)) / math.sqrt(1.0 + 2.0 * root_det)
                c, d = qubit._sqrt_rho_terms(r)
                for _ in range(3):
                    e0, e = rng.uniform(-1.0, 1.0), [rng.uniform(-1.0, 1.0) for _ in range(3)]
                    want = [np.trace(pauli_matrix(e0, e) @ sq @ s @ sq).real for s in SIGMAS]
                    got = qubit._h(c, d, n, e0, e)
                    assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_value_matches_matrix_route(self):
        rng = random.Random(43)
        for a, b in self.PAIRS:
            pair = qubit._pair_terms(a, b)
            for r in (0.0, 0.5, 0.95, R_NEAR_PURE):
                for n in self.directions(rng, 3):
                    val, u, v = qubit._value(pair, r, n)
                    params = QubitWitnessParams(r, n, u, v)
                    w = params.vertex_images()
                    # W(s̄), the mean of the PSD vertex images, is a state,
                    # even at r = r_max
                    ws = 0.25 * (w[(0, 0)] + w[(0, 1)] + w[(1, 0)] + w[(1, 1)])
                    assert np.linalg.eigvalsh(ws).min() >= -1e-12
                    assert abs(np.trace(ws).real - 1.0) <= 1e-12
                    assert abs(val - trace_pairing_qubit(a, b, w)) <= 1e-12


class TestPolarStall:
    """Pairs whose witness has its optimum at a ρ just off I/2, where a
    polar parametrization (r, n̂) of ρ is badly conditioned."""

    @pytest.mark.parametrize("pair, q_hat", STALL_PAIRS, ids=STALL_IDS)
    def test_stalled_pairs_meet_the_bisection_value(self, pair, q_hat):
        rep = qubit_id(*pair)
        assert abs(rep.value - rep.dual_bound) <= 1e-9
        assert abs(rep.q_hat - q_hat) <= 1e-7
        assert rep.params.r > 0.0


def critical_witness(a, b):
    """The POVM elements at the root's coexistent end, and the weights
    of the vertex images on their kernels."""
    hi = qubit._incompatibility(a, b)[0]
    elements = qubit._critical_elements(a.smear(hi), b.smear(hi))
    return elements, qubit._kernel_weights(elements)[0]


def incompatible_pairs():
    rng = random.Random(47)
    pairs = [mub_pair(), ROW3_PAIR_38, *(pair for pair, _ in STALL_PAIRS),
             *SEARCH_FAILURES]
    pairs += [(random_effect(rng, sharp=True), random_effect(rng, sharp=True))
              for _ in range(6)]
    pairs += [(unbiased(rng, 0.9)[0], unbiased(rng, 0.9)[0]) for _ in range(8)]
    pairs += [(biased(rng), biased(rng)) for _ in range(12)]
    return [(a, b) for a, b in pairs if qubit._incompatibility(a, b)[1] is not None]


class TestCriticalWitness:
    """The witness read off the joint effect at the root of the boundary
    polynomial."""

    def test_elements_singular_and_weights_positive(self):
        pairs = incompatible_pairs()
        assert len(pairs) >= 20
        for a, b in pairs:
            elements, c = critical_witness(a, b)
            for t, p in elements:
                low = np.linalg.eigvalsh(pauli_matrix(t, p)).min()
                assert -1e-9 <= low <= 1e-9
            assert c.min() > 0.0
            assert abs(c.sum() - 4.0) <= 1e-12

    @pytest.mark.parametrize("pair", SEARCH_FAILURES, ids=SEARCH_FAILURE_IDS)
    def test_search_failures_meet_the_bisection_value(self, pair):
        rep = qubit_id(*pair)
        assert rep.value > 0.0
        assert abs(rep.value - rep.dual_bound) <= 1e-9

    def test_sharp_pairs_take_the_center(self):
        # sharp pairs have their optimum at ρ = I/2
        rng = random.Random(37)
        pairs = [mub_pair()] + [(random_effect(rng, sharp=True), random_effect(rng, sharp=True))
                                for _ in range(6)]
        for a, b in pairs:
            rep = witness_q(a, b)
            assert rep.params.r <= 1e-9

    def test_compatible_pair_takes_the_center(self):
        a, b = REGRESSION_PAIR
        rep = witness_q(a, b)
        assert rep.params.r == 0.0
        assert rep.q_hat >= 0.0
        assert rep.id_lower_bound == 0.0

    @pytest.mark.parametrize("swap", [(0, 1), (0, 2), (1, 3), (2, 3)],
                             ids=["00-01", "00-10", "01-11", "10-11"])
    def test_swapped_vertex_labels_refused(self, swap, monkeypatch):
        # pairing each element with another vertex across the affine
        # condition w₀₀ + w₁₁ = w₀₁ + w₁₀ leaves no positive weights, so
        # the pair is judged compatible, and the witness at I/2 refutes it
        def mutant(a, b):
            elements = list(critical_elements(a, b))
            i, j = swap
            elements[i], elements[j] = elements[j], elements[i]
            return elements

        critical_elements = qubit._critical_elements
        monkeypatch.setattr(qubit, "_critical_elements", mutant)
        for a, b in (mub_pair(), ROW3_PAIR_38, SEARCH_FAILURES[3]):
            with pytest.raises(AssertionError, match="judged compatible"):
                qubit_id(a, b)

    def test_verdicts_match_the_yu_busch_reference(self):
        # 500 pairs of each kind: sharp×sharp, sharp×unsharp and
        # unsharp×unsharp of random_effect, and near-bound biased effects
        rng = random.Random(20261019)
        pairs = [(random_effect(rng, sharp=True), random_effect(rng, sharp=True))
                 for _ in range(500)]
        pairs += [(random_effect(rng, sharp=True), random_effect(rng)) for _ in range(500)]
        pairs += [(random_effect(rng), random_effect(rng)) for _ in range(500)]
        pairs += [(biased(rng), biased(rng)) for _ in range(500)]
        incompatible = 0
        for a, b in pairs:
            value = qubit_id(a, b).value
            margin = coexistence_margin(a, b)
            if abs(margin) > 1e-9:
                assert (value > 0.0) == (margin > 0.0)
            if value > 0.0:
                incompatible += 1
                assert abs(value - reference_id(a, b)) <= 1e-10
        assert 500 < incompatible < 1500

    def test_root_is_bracketed_by_exact_signs(self):
        # the coexistent end and the float below it straddle the root
        for a, b in incompatible_pairs():
            hi = qubit_id(a, b).value
            below = exact_boundary_sign(a, b, math.nextafter(hi, 0.0))
            assert below != 0
            assert exact_boundary_sign(a, b, hi) in (0, -below)


class TestNearCommuting:
    """σz against σz tilted by ε: the ID is ε/2 to first order, and
    det M₀ ≈ ε²/16 cancels in the boundary polynomial's coefficients."""

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_id_matches_busch(self, eps):
        a, b = near_commuting(eps)
        rep = qubit_id(a, b)
        assert abs(rep.value / busch_id(a, b) - 1.0) <= 1e-9
        assert abs(rep.value - rep.dual_bound) <= 1e-9

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_infeasible(self, eps):
        ok, g = joint_povm_feasible(*near_commuting(eps))
        assert not ok and g is None


class TestIdDegree:
    def test_mub_degree(self):
        a, b = mub_pair()
        rep = qubit_id(a, b)
        assert abs(rep.value - QUBIT_MAX_ID) <= 1e-6
        assert abs(rep.dual_bound - QUBIT_MAX_ID) <= 1e-6
        assert rep.dual_bound <= rep.value + 1e-6

    def test_compatible_pair(self):
        e = QubitEffect(0.5, (0.0, 0.0, 0.2))
        rep = qubit_id(e, e)
        assert rep.value == 0.0
        assert rep.iterations == 0

    def test_random_pairs_below_maximum(self):
        rng = random.Random(19)
        for t in range(6):
            a = random_effect(rng, sharp=t % 2 == 0)
            b = random_effect(rng, sharp=t % 2 == 0)
            rep = qubit_id(a, b)
            assert rep.value <= QUBIT_MAX_ID + 1e-6
            assert rep.dual_bound <= rep.value + 1e-6


class TestQubitBell:
    def test_tsirelson_value(self):
        box = tsirelson_box()
        assert abs(bell_value(box) - 2.0 * math.sqrt(2.0)) <= 1e-9

    def test_max_entangled_state(self):
        rho = max_entangled_state()
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert psd(rho)

    def test_born_box_validates(self):
        a = (QubitEffect.sharp((0, 0, 1)), QubitEffect.sharp((1, 0, 0)))
        rho = np.kron(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))
        box = born_box(a, a, rho.astype(complex))
        assert box.mode == "float"
        assert bell_value(box) <= 2.0 + 1e-9

    def test_bound_report(self):
        rep = qubit_bound_report()
        assert rep.lhs >= rep.rhs - qubit._BOUND_TOL
        assert abs(rep.lhs - 0.5 * (1.0 - math.sqrt(2.0))) <= 1e-9
        assert rep.equality_gap <= 1e-6
        mu = chsh_witness(0, 1, 0)
        assert abs(mu.value(tsirelson_box()) - rep.lhs) <= 1e-12
