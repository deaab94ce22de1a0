"""End-to-end demonstration rows, one per advertised guarantee.

Each row computes its quantities from scratch, checks them against the
pinned targets and time budget, and returns the measured values. The
CLI `demo` subcommand prints the rows as a table; the acceptance tests
assert them one by one. Randomness is drawn from a per-row generator
seeded from the caller's seed, so output is reproducible.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass

from .bell import (bell_id_bound_check, bell_value, chsh_witness,
                   deterministic_box, is_local, pr_box, random_ns_box,
                   square_equality_construction)
from .channels import box_to_causal_channel
from .exact import rat
from .measurements import (from_functionals, id_degree_at,
                           identity_collection, random_collection)
from .polysimplex import PolySimplex, polysimplex_space, square_space
from .qubit import QUBIT_MAX_ID, mub_pair, qubit_id, random_effect, tsirelson_box
from .spaces import separable_decomposition
from .steering import (assemblage_from, is_separable, self_dual_state,
                       square_self_dual_iso, steering_degree_at)
from .witnesses import (EtbDecomposition, is_etb, is_witness, q_value,
                        random_witness_map, retraction_check, trace_pairing,
                        two_outcome_witness_criterion)
from . import linalg as la


@dataclass
class DemoRow:
    index: int
    name: str
    ok: bool
    detail: str
    data: dict
    seconds: float


def _small_spaces():
    """(source polysimplex, state space) pairs used by the sweeps."""
    return [(PolySimplex((2,)), polysimplex_space((2,))),
            (PolySimplex((1, 1)), square_space()),
            (PolySimplex((2, 1)), polysimplex_space((2, 1)))]


def _coordinate_pair_collection(space, src, shape):
    """Binary coarse-grainings of the space's coordinate measurements,
    one per input: sharp, and incompatible whenever two inputs land on
    different blocks."""
    funcs = {}
    for i, l in enumerate(shape.shape):
        if l != 1:
            raise ValueError("seed collection is for binary inputs only")
        f0 = space.facets[src.index(i % (src.k + 1), 0)]
        funcs[(i, 0)] = f0
        funcs[(i, 1)] = la.vec_sub(space.unit, f0)
    return from_functionals(space, shape, funcs)


def _mixed_witness_draw(shape, space, src, rng):
    """Half generic cone-valued maps (mostly not witnesses), half scaled
    and translated dual minimizers of incompatible collections (always
    witnesses), so both answers occur in the sample. Simplex codomains
    admit no incompatibility, so they only get generic maps."""
    if rng.randrange(2) or src.k == 0:
        return random_witness_map(shape, space, rng)
    seed = _coordinate_pair_collection(space, src, shape)
    sbar = shape.barycenter()
    for _ in range(8):
        F = seed.mix(random_collection(space, shape, rng),
                     rat(rng.randrange(0, 3), 8))
        q, W, _lam = q_value(F, sbar)
        if q < 0:
            W = W.scale(rat(rng.randrange(1, 9), 4))
            shift = rat(rng.randrange(0, 3), 4)
            if shift:
                W = W.translate(la.vec_scale(shift, space.interior_point()))
            return W
    return random_witness_map(shape, space, rng)


def _row_gbit(rng):
    P = PolySimplex((1, 1))
    F = identity_collection(P)
    sbar = P.barycenter()
    lam = id_degree_at(F, sbar, cross_check=True)
    q, W, lam2 = q_value(F, sbar)
    tr = trace_pairing(F, W)
    ok = lam == rat(1, 2) and lam2 == lam and q == -1 and tr == -1
    return ok, f"ID = {lam}, certificate trace = {tr}", {
        "id": lam, "q": q, "trace": tr, "witness": W}


def _row_hypercubes(rng):
    values = {}
    ok = True
    for k in (1, 2, 3):
        F = identity_collection(PolySimplex((1,) * (k + 1)))
        lam = id_degree_at(F, F.shape.barycenter())
        rep = retraction_check(F)
        values[k] = lam
        ok = ok and lam == rat(k, k + 1) and rep.is_retraction
    detail = ", ".join(f"k={k}: {v}" for k, v in values.items())
    return ok, detail, {"values": values}


def _row_qubit_max(rng):
    A, B = mub_pair()
    rep = qubit_id(A, B)
    ok = abs(rep.value - QUBIT_MAX_ID) <= 1e-6
    ok = ok and abs(rep.q_hat - (1.0 - math.sqrt(2.0))) <= 1e-6
    ok = ok and abs(rep.dual_bound - QUBIT_MAX_ID) <= 1e-6
    worst = 0.0
    for t in range(200):
        sharp = t % 2 == 0
        r2 = qubit_id(random_effect(rng, sharp=sharp),
                      random_effect(rng, sharp=sharp))
        worst = max(worst, r2.value)
        if r2.value > QUBIT_MAX_ID + 1e-6:
            ok = False
    detail = (f"MUB ID = {rep.value:.9f} (dual {rep.dual_bound:.9f}), "
              f"largest random ID = {worst:.9f}")
    return ok, detail, {"mub": rep, "worst": worst}


def _row_witness_duality(rng):
    shape = PolySimplex((1, 1))
    spaces = _small_spaces()
    n_wit = 0
    ok = True
    for t in range(100):
        src, space = spaces[t % 3]
        W = _mixed_witness_draw(shape, space, src, rng)
        d = is_witness(W)
        if d.is_witness != (d.min_value < 0) or d.is_witness != (d.translation is None):
            ok = False
            break
        if d.is_witness:
            n_wit += 1
            if trace_pairing(d.minimizer, W) != d.min_value:
                ok = False
                break
    return ok, f"{n_wit}/100 draws were witnesses, both routes agreed", {
        "witness_count": n_wit}


def _row_two_outcome(rng):
    spaces = _small_spaces()
    shapes = [PolySimplex((1, 1)), PolySimplex((1, 1, 1))]
    n_wit = 0
    ok = True
    for t in range(100):
        src, space = spaces[t % 3]
        W = _mixed_witness_draw(shapes[t % 2], space, src, rng)
        d = is_witness(W)
        if two_outcome_witness_criterion(W) != d.is_witness:
            ok = False
            break
        n_wit += d.is_witness
    return ok, f"norm criterion matched the LP on all 100 ({n_wit} witnesses)", {
        "witness_count": n_wit}


def _row_chsh(rng):
    pr = pr_box()
    b_pr = bell_value(pr)
    pair = chsh_witness(0, 1, 0).value(pr)
    ok = b_pr == 4 and pair == rat(-1, 2)
    P = pr.shape_a
    best = max(bell_value(deterministic_box(P, P, na, nb))
               for na in P.outcomes() for nb in P.outcomes())
    ok = ok and best == 2
    b_ts = bell_value(tsirelson_box())
    ok = ok and abs(b_ts - 2.0 * math.sqrt(2.0)) <= 1e-9
    detail = f"PR: {b_pr}, pairing {pair}; deterministic max {best}; Tsirelson {b_ts:.10f}"
    return ok, detail, {"pr": b_pr, "pairing": pair, "det": best, "tsirelson": b_ts}


def _row_channels(rng):
    shapes = [((1, 1), (1, 1))] * 250 + [((2, 1), (1, 1))] * 250
    ok = True
    for shape_a, shape_b in shapes:
        box = random_ns_box(PolySimplex(shape_a), PolySimplex(shape_b), rng)
        rep = box_to_causal_channel(box)
        if not (rep.psd and rep.trace_preserving and rep.causal):
            ok = False
            break
    return ok, "500 boxes recovered exactly from PSD causal channels", {}


def _row_steering(rng):
    sq = square_space()
    P = PolySimplex((1, 1))
    y_sd = self_dual_state(sq, square_self_dual_iso())
    sbar = P.barycenter()
    ok = True
    for t in range(50):
        F = random_collection(sq, P, rng, bias=rat(3, 4) if t % 2 else None)
        sd = steering_degree_at(assemblage_from(F, y_sd, sq), sbar)
        if sd != id_degree_at(F, sbar):
            ok = False
            break
    for _ in range(200):
        F = random_collection(sq, P, rng)
        y = random_ns_box(P, P, rng).tensor()
        sd = steering_degree_at(assemblage_from(F, y, sq), sbar)
        if sd > id_degree_at(F, sbar):
            ok = False
            break
    return ok, "SD = ID at the self-dual state (50), SD <= ID always (200)", {}


def _row_locality(rng):
    P = PolySimplex((1, 1))
    space_b = P.as_state_space()
    F_A = identity_collection(P)
    n_local = 0
    ok = True
    for _ in range(200):
        box = random_ns_box(P, P, rng)
        local, _model = is_local(box)
        sep, lhs = is_separable(assemblage_from(F_A, box.tensor(), space_b))
        if local != sep:
            ok = False
            break
        n_local += local
    return ok, f"locality = separability on all 200 ({n_local} local)", {
        "local_count": n_local}


def _row_bell_bound(rng):
    sq = square_space()
    P = PolySimplex((1, 1))
    y_sd = self_dual_state(sq, square_self_dual_iso())
    sbar = P.barycenter()
    idx_list = list(itertools.product((0, 1), repeat=3))
    ok = True
    count = 0
    while count < 200:
        F = random_collection(sq, P, rng, bias=rat(3, 4))
        q, _w, _lam = q_value(F, sbar)
        if q >= 0:
            continue
        F_B = random_collection(sq, P, rng)
        mu = chsh_witness(*idx_list[rng.randrange(8)])
        y = y_sd if count % 2 == 0 else random_ns_box(P, P, rng).tensor()
        rep = bell_id_bound_check(mu, F, F_B, y, sbar)
        if not rep.holds:
            ok = False
            break
        count += 1
    eq = square_equality_construction(identity_collection(P))
    ok = ok and eq.holds and eq.lhs == rat(-1, 2) and eq.q == -1
    n_eq = 0
    while n_eq < 5:
        F = random_collection(sq, P, rng, bias=rat(3, 4))
        q, _w, _lam = q_value(F, sbar)
        if q >= 0:
            continue
        e2 = square_equality_construction(F)
        ok = ok and e2.holds and e2.lhs == e2.q / 2
        n_eq += 1
    return ok, "bound held on 200 incompatible draws; equality met, PR value -1/2", {
        "equality": eq}


def _row_etb(rng):
    spaces = _small_spaces()
    shapes = [PolySimplex((1, 1)), PolySimplex((2,)), PolySimplex((1, 1, 1))]
    n_etb = 0
    ok = True
    for t in range(50):
        shape = shapes[t % 3]
        src, K = spaces[(t // 3) % 3]
        if all(l == 1 for l in shape.shape):
            T = _mixed_witness_draw(shape, K, src, rng)
        else:
            T = random_witness_map(shape, K, rng)
        etb, _decomp = is_etb(T)
        dom = shape.as_state_space()
        pushed = la.mat_mul(T.as_map_matrix(), dom.span_projector)
        # (T⊗id)(χ) sits in V(K)⊗A(S): right-hand generators are the
        # canonical representatives of the dual-cone rays m^i_j.
        pt = la.transpose(dom.span_projector)
        gens_right = [la.mat_vec(pt, f) for f in dom.facets]
        weights = separable_decomposition(pushed, K.vertices, gens_right)
        if etb != (weights is not None):
            ok = False
            break
        if etb:
            n_etb += 1
            # third route: weights reassemble into a factorization
            psi = {key: la.zeros(K.dim) for key in shape.keys}
            for (a, c), w in weights.items():
                if w:
                    key = shape.keys[c]
                    psi[key] = la.vec_add(psi[key], la.vec_scale(w, K.vertices[a]))
            EtbDecomposition(psi).check(T)
    return ok, f"all three routes agreed on 50 maps ({n_etb} factorizable)", {
        "etb_count": n_etb}


ROWS = (
    ("gbit identity pair: ID = 1/2 with trace certificate -1", 1.0, _row_gbit),
    ("hypercube identities: ID = k/(k+1) and a section, k = 1..3", 10.0, _row_hypercubes),
    ("qubit MUB pair: ID = 1 - 1/sqrt(2) both routes; 200 random below", 120.0, _row_qubit_max),
    ("witness decision matches the translation dual on 100 maps", None, _row_witness_duality),
    ("two-outcome norm criterion matches the LP on 100 maps", None, _row_two_outcome),
    ("CHSH: PR box 4, deterministic max 2, Tsirelson 2*sqrt(2)", 1.0, _row_chsh),
    ("500 no-signalling boxes become causal channels, exact recovery", 30.0, _row_channels),
    ("steering degree: equal to ID at the self-dual state, never above", None, _row_steering),
    ("box locality agrees with assemblage separability on 200 boxes", None, _row_locality),
    ("incompatibility bound on 200 Bell pairs; square equality exact", None, _row_bell_bound),
    ("factorization, chi separability and the LP agree on 50 maps", None, _row_etb),
)


def run_row(index, seed=0) -> DemoRow:
    """Run one row (1-based index) with its own deterministic generator."""
    name, budget, fn = ROWS[index - 1]
    rng = random.Random(seed * 997 + index)
    start = time.perf_counter()
    ok, detail, data = fn(rng)
    seconds = time.perf_counter() - start
    if budget is not None and seconds > budget:
        ok = False
        detail += f" [took {seconds:.1f}s, exceeded {budget:.0f}s budget]"
    return DemoRow(index, name, ok, detail, data, seconds)


def run_all(seed=0):
    return [run_row(i, seed) for i in range(1, len(ROWS) + 1)]
