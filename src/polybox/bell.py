"""No-signalling boxes, locality, CHSH witnesses and the
witness-factorization bound linking Bell violations to incompatibility.

Box probability tables are literally the ambient tensor coordinates of
the corresponding bipartite polysimplex element, so locality questions
reduce to separability of that tensor: a local model is a decomposition
γ = Σ_n s_n ⊗ c_n with every c_n in the cone of S_B's vertices, the
`ProductDecomposition` of `measurements`, as a hidden-state model of an
assemblage is.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import linalg as la
from .exact import R0, R1, nonneg, rat, same, scalars
from .lp import OPTIMAL
from .measurements import (MeasurementCollection, identity_collection,
                           product_decomposition, product_functional, product_lp)
from .polysimplex import PolySimplex, square_space
from .spaces import StateSpace, max_tensor_member, product_range
from .witnesses import q_value


class Box:
    """Bipartite conditional probability table p(j_a, j_b | i_a, i_b).

    Exact (rational) or float mode, detected from the values. Keys run
    over (i_a, i_b, j_a, j_b) with per-input outcome counts taken from
    the polysimplex shapes.
    """

    def __init__(self, shape_a: PolySimplex, shape_b: PolySimplex, probs):
        self.shape_a = shape_a
        self.shape_b = shape_b
        values, exact = scalars(probs.values())
        self.mode = "exact" if exact else "float"
        self.probs = dict(zip(probs, values))
        self._validate()

    def _keys(self):
        for ia, ja in self.shape_a.keys:
            for ib, jb in self.shape_b.keys:
                yield (ia, ib, ja, jb)

    def _validate(self):
        want = set(self._keys())
        if set(self.probs) != want:
            raise ValueError("probability table does not match the shapes")
        for k, v in self.probs.items():
            if not nonneg(v):
                raise ValueError(f"negative probability at {k}")
        for ia, la_ in enumerate(self.shape_a.shape):
            for ib, lb in enumerate(self.shape_b.shape):
                tot = sum(self.probs[(ia, ib, ja, jb)]
                          for ja in range(la_ + 1) for jb in range(lb + 1))
                if not same(tot, R1):
                    raise ValueError(f"setting ({ia},{ib}) does not normalize")
        # no-signalling in both directions: each marginal is the same at
        # every remote input
        for ia, ja in self.shape_a.keys:
            margs = [sum(self.probs[(ia, ib, ja, jb)] for jb in range(lb + 1))
                     for ib, lb in enumerate(self.shape_b.shape)]
            if not all(same(margs[0], m) for m in margs[1:]):
                raise ValueError(f"signalling to A at input {ia}, outcome {ja}")
        for ib, jb in self.shape_b.keys:
            margs = [sum(self.probs[(ia, ib, ja, jb)] for ja in range(la_ + 1))
                     for ia, la_ in enumerate(self.shape_a.shape)]
            if not all(same(margs[0], m) for m in margs[1:]):
                raise ValueError(f"signalling to B at input {ib}, outcome {jb}")

    def tensor(self):
        """γ as an ambient matrix over V(S_A) ⊗ V(S_B): the coordinate at
        (m^{i_a}_{j_a}, m^{i_b}_{j_b}) is the probability itself."""
        rows = self.shape_a.ambient_dim
        cols = self.shape_b.ambient_dim
        t = [[None] * cols for _ in range(rows)]
        for (ia, ib, ja, jb), v in self.probs.items():
            t[self.shape_a.index(ia, ja)][self.shape_b.index(ib, jb)] = v
        return la.mat(t) if self.mode == "exact" else tuple(tuple(r) for r in t)

    def __repr__(self):
        return f"Box({self.shape_a.shape}|{self.shape_b.shape}, {self.mode})"


def box_from(F_A: MeasurementCollection, F_B: MeasurementCollection, y) -> Box:
    """p(j_a,j_b|i_a,i_b) = ⟨f^{i_a}_{j_a} ⊗ f^{i_b}_{j_b}, y⟩. The Box
    validation doubles as the check that y behaves like a composite
    state with respect to the two collections."""
    probs = {}
    for ia, ja in F_A.shape.keys:
        row = la.mat_vec(la.transpose(y), F_A.effect(ia, ja))
        for ib, jb in F_B.shape.keys:
            probs[(ia, ib, ja, jb)] = la.dot(row, F_B.effect(ib, jb))
    return Box(F_A.shape, F_B.shape, probs)


def is_local(box: Box):
    """Locality LP, exact boxes only: the `product_lp` of γ = Σ_na s_na ⊗
    c_na over S_A and S_B, each c_na a nonnegative combination of S_B's
    vertices s_nb, whose weights are those of the products of
    deterministic strategies (na, nb): 9 rows on the 2222 box where the
    table has 16 entries. Returns (True, ProductDecomposition), re-checked
    on every entry of γ, or (False, BellWitness): the Bell functional of
    `separating_witness`, ≥ 0 on every deterministic box and < 0 on γ,
    read off the same solve."""
    if box.mode != "exact":
        raise ValueError("locality decision needs exact probabilities")
    gamma = box.tensor()
    space_b = box.shape_b.as_state_space()
    lp, w, _lam, _t = product_lp(box.shape_a, space_b, gamma)
    res = lp.minimize({})
    if res.status != OPTIMAL:
        return False, separating_witness(box.shape_a, box.shape_b, gamma, res.farkas)
    model = product_decomposition(box.shape_a, space_b, res, w)
    model.check(gamma)
    return True, model


def _right_space(factor) -> StateSpace:
    """A BellWitness's right factor as a state space."""
    return factor if isinstance(factor, StateSpace) else factor.as_state_space()


@dataclass(frozen=True)
class BellWitness:
    """Element μ ∈ A(S_A)⊗A(K_B), nonnegative on products of vertices,
    stored as its ambient matrix. The right factor `shape_b` is a
    polysimplex S_B, making μ a Bell functional on boxes (its matrix
    holds the coefficients against the coordinate effects), or a state
    space K_B, making it a functional on assemblages. `idx` names a CHSH
    witness, and is None for a functional read off an LP. `norm_max`, μ's
    greatest value on a product of vertices, comes from the same check of
    every product and is never passed in. Frozen: `chsh_witness` hands
    out shared instances."""
    idx: tuple | None
    tensor: tuple
    shape_a: PolySimplex
    shape_b: PolySimplex | StateSpace
    norm_max: object = field(init=False)

    def __post_init__(self):
        low, best = product_range(self.tensor, self.shape_a.as_state_space(),
                                  _right_space(self.shape_b))
        if low < 0:
            raise ValueError("not a Bell witness: negative on a product vertex")
        object.__setattr__(self, "norm_max", best)

    def value(self, box: Box):
        """⟨μ, γ⟩ against the box tensor."""
        if box.shape_a != self.shape_a or box.shape_b != self.shape_b:
            raise ValueError("box scenario does not match the witness")
        return self.pair_tensor(box.tensor())

    def pair_tensor(self, gamma):
        """⟨μ, γ⟩ summed coordinate-wise over μ's nonzero entries."""
        return sum(self.tensor[r][c] * gamma[r][c]
                   for r in range(len(self.tensor))
                   for c in range(len(self.tensor[0]))
                   if self.tensor[r][c])


def separating_witness(shape_a: PolySimplex, right, tensor, farkas) -> BellWitness:
    """The functional μ of `measurements.product_functional`, read off
    the Farkas multipliers of an infeasible `product_lp` of `tensor`
    over S_A and the right factor (S_B for a box, K for an assemblage),
    checked outside the LP: the BellWitness construction visits every
    product s_n ⊗ v of vertices for ⟨μ, s_n ⊗ v⟩ ≥ 0, and ⟨μ, T⟩ < 0 is
    paired on the full tensor T. A failed check is an internal error
    (AssertionError), not a bad input."""
    mu = product_functional(shape_a, _right_space(right), farkas)
    try:
        witness = BellWitness(None, mu, shape_a, right)
    except ValueError as e:
        raise AssertionError(f"Farkas functional rejected: {e}") from None
    value = witness.pair_tensor(tensor)
    if not value < 0:
        raise AssertionError(f"Farkas functional pairs to {value} with the tensor, not < 0")
    return witness


@functools.cache
def chsh_witness(i, j, k) -> BellWitness:
    """μ_{i,j,k} = m^i_{1−j}⊗1 + (m^{1−i}_k − m^i_{1−j})⊗m^0_0
    + (m^{1−i}_{1−k} − m^i_{1−j})⊗m^1_0 on the square pair, built once
    per (i, j, k)."""
    if not all(v in (0, 1) for v in (i, j, k)):
        raise ValueError("indices must be 0 or 1")
    P = PolySimplex((1, 1))
    a1 = P.m(i, 1 - j)
    a2 = la.vec_sub(P.m(1 - i, k), a1)
    a3 = la.vec_sub(P.m(1 - i, 1 - k), a1)
    t = la.mat([[R0] * 4 for _ in range(4)])
    t = _acc(t, a1, P.unit())
    t = _acc(t, a2, P.m(0, 0))
    t = _acc(t, a3, P.m(1, 0))
    return BellWitness((i, j, k), t, P, P)


def _acc(t, left, right):
    return la.mat([[t[r][c] + left[r] * right[c] for c in range(len(right))]
                   for r in range(len(left))])


def all_chsh_witnesses():
    return [chsh_witness(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]


def correlator(box: Box, x, yb):
    """E(x,y) = Σ (−1)^{j_a+j_b} p(j_a,j_b|x,y) for binary outcomes."""
    tot = box.probs[(x, yb, 0, 0)] + box.probs[(x, yb, 1, 1)]
    return tot - box.probs[(x, yb, 0, 1)] - box.probs[(x, yb, 1, 0)]


def bell_value(box: Box):
    """𝔹 = E(0,0) + E(0,1) + E(1,1) − E(1,0); the identity
    𝔹 = 2 − 4⟨μ_{0,1,0}, γ⟩ is asserted before returning."""
    if box.shape_a.shape != (1, 1) or box.shape_b.shape != (1, 1):
        raise ValueError("Bell value is defined for the 2-input binary scenario")
    b = (correlator(box, 0, 0) + correlator(box, 0, 1)
         + correlator(box, 1, 1) - correlator(box, 1, 0))
    ident = 2 - 4 * chsh_witness(0, 1, 0).value(box)
    if not same(b, ident):
        raise AssertionError("Bell identity violated")
    return b


def pr_box() -> Box:
    """The no-signalling box with a⊕b = xy⊕x: perfectly correlated
    except anti-correlated at setting (1,0); attains 𝔹 = 4."""
    P = PolySimplex((1, 1))
    return Box(P, P, _pr_variant_probs(1, 0, 0))


def _deterministic_probs(shape_a: PolySimplex, shape_b: PolySimplex, na, nb):
    """The table of the box that answers na[i_a] to i_a and nb[i_b] to i_b."""
    return {(ia, ib, ja, jb): R1 if (na[ia] == ja and nb[ib] == jb) else R0
            for ia, ja in shape_a.keys for ib, jb in shape_b.keys}


def deterministic_box(shape_a: PolySimplex, shape_b: PolySimplex, na, nb) -> Box:
    return Box(shape_a, shape_b, _deterministic_probs(shape_a, shape_b, tuple(na), tuple(nb)))


def _pr_variant_probs(alpha, beta, gamma):
    """a⊕b = xy ⊕ αx ⊕ βy ⊕ γ on the square pair."""
    probs = {}
    half = rat(1, 2)
    for ia, ib, ja, jb in itertools.product((0, 1), repeat=4):
        hit = (ja ^ jb) == ((ia & ib) ^ (alpha & ia) ^ (beta & ib) ^ gamma)
        probs[(ia, ib, ja, jb)] = half if hit else R0
    return probs


def _embedded_pr_probs(shape_a, shape_b, ia_pair, ib_pair, variant):
    """A PR variant on a chosen pair of binary inputs per side, uniform
    against non-selected partner inputs, outcome 0 elsewhere."""
    base = _pr_variant_probs(*variant)
    probs = {}
    half = rat(1, 2)
    for ia, la_ in enumerate(shape_a.shape):
        for ib, lb in enumerate(shape_b.shape):
            in_a = ia in ia_pair
            in_b = ib in ib_pair
            for ja in range(la_ + 1):
                for jb in range(lb + 1):
                    if in_a and in_b:
                        x = ia_pair.index(ia)
                        yb = ib_pair.index(ib)
                        probs[(ia, ib, ja, jb)] = base[(x, yb, ja, jb)]
                    elif in_a:
                        probs[(ia, ib, ja, jb)] = half if jb == 0 else R0
                    elif in_b:
                        probs[(ia, ib, ja, jb)] = half if ja == 0 else R0
                    else:
                        probs[(ia, ib, ja, jb)] = R1 if (ja == 0 and jb == 0) else R0
    return probs


def random_ns_box(shape_a: PolySimplex, shape_b: PolySimplex, rng) -> Box:
    """Random no-signalling box: a rational mixture of deterministic
    product boxes, on binary shapes with up to two embedded PR-type
    components."""
    parts = []
    for _ in range(rng.randrange(2, 6)):
        na = tuple(rng.randrange(0, l + 1) for l in shape_a.shape)
        nb = tuple(rng.randrange(0, l + 1) for l in shape_b.shape)
        parts.append(_deterministic_probs(shape_a, shape_b, na, nb))
    if all(l == 1 for l in shape_a.shape + shape_b.shape):
        for _ in range(rng.randrange(0, 3)):
            ia_pair = tuple(sorted(rng.sample(range(shape_a.k + 1), 2)))
            ib_pair = tuple(sorted(rng.sample(range(shape_b.k + 1), 2)))
            variant = (rng.randrange(2), rng.randrange(2), rng.randrange(2))
            parts.append(_embedded_pr_probs(shape_a, shape_b, ia_pair, ib_pair,
                                            variant))
    weights = [rat(rng.randrange(1, 10)) for _ in parts]
    tot = sum(weights)
    probs = {}
    for w, part in zip(weights, parts):
        for k, v in part.items():
            probs[k] = probs.get(k, R0) + (w / tot) * v
    return Box(shape_a, shape_b, probs)


@dataclass
class BellBoundReport:
    lhs: object
    q: object
    norm_max: object
    rhs: object
    holds: bool
    equality_value: object | None
    equality_holds: bool | None


def bell_id_bound_check(mu: BellWitness, F_A: MeasurementCollection,
                        F_B: MeasurementCollection, y, s) -> BellBoundReport:
    """⟨μ, (F_A⊗F_B)(y)⟩ ≥ ‖μ‖_max · q_s(F_A): both sides evaluated; the
    report also carries the square equality target ½q_{s}(F_A). Needs
    q_s(F_A) ≤ 0 (the bound is false otherwise)."""
    if not max_tensor_member(y, F_A.space, F_B.space):
        raise ValueError("y is not a composite state of the two spaces")
    box = box_from(F_A, F_B, y)
    lhs = mu.value(box)
    gamma = la.mat_mul(F_A.as_map_matrix(),
                       la.mat_mul(y, la.transpose(F_B.as_map_matrix())))
    if mu.pair_tensor(gamma) != lhs:
        raise AssertionError("box tensor disagrees with the mapped state")
    q, _w, _lam = q_value(F_A, s)
    if q > 0:
        raise ValueError("F_A is compatible with positive margin; the bound "
                         "needs q_s(F_A) <= 0")
    rhs = mu.norm_max * q
    if lhs < rhs:
        raise AssertionError("incompatibility bound violated")
    eq_val = None
    eq_holds = None
    if F_A.shape.shape == (1, 1):
        eq_val = q / 2
        eq_holds = lhs == eq_val
    return BellBoundReport(lhs, q, mu.norm_max, rhs, True, eq_val, eq_holds)


@dataclass
class EqualityConstruction:
    y: tuple
    f_b: MeasurementCollection
    witness: object
    q: object
    lhs: object
    holds: bool
    self_dual_route: bool


def square_equality_construction(F_A: MeasurementCollection) -> EqualityConstruction:
    """Realize the Bell-bound equality case on the square: from a
    minimizer W of the q LP at s̄ build y = ½·(W∘Ψ⁻¹ ⊗ id)(χ) (Ψ the
    vertex↔effect matching behind μ_{0,1,0}), so that with F_B = id,
    ⟨μ, (F_A⊗F_B)(y)⟩ = ½ q_{s̄}(F_A) exactly. When possible the same
    box is re-expressed with y = the self-dual composite state and the
    correction moved into F_B."""
    if F_A.shape.shape != (1, 1):
        raise ValueError("equality construction lives on the square scenario")
    sq = square_space()
    if F_A.space.vertices != sq.vertices:
        raise ValueError("equality construction needs K_A = the square")
    from .steering import self_dual_state, square_self_dual_iso
    s = F_A.shape.barycenter()
    q, W, _lam = q_value(F_A, s)
    mu = chsh_witness(0, 1, 0)
    X = sq.span_projector
    # Ψ: V(S_A) → A(S_B) with ⟨Ψ(s), s'⟩ = ⟨μ, s⊗s'⟩, canonically X μᵀ X
    Qpsi = la.mat_mul(X, la.mat_mul(la.transpose(mu.tensor), X))
    Qinv = la.linear_map([la.mat_vec(Qpsi, b) for b in sq.basis], sq.basis)
    half = rat(1, 2)
    Y = la.mat_mul(W.as_map_matrix(), la.mat_mul(Qinv, X))
    Y = la.mat([[half * v for v in row] for row in Y])
    f_b = identity_collection(F_A.shape)
    y_out, fb_out, sd_route = Y, f_b, False
    y_sd = self_dual_state(sq, square_self_dual_iso())
    solved = _solve_partner_collection(sq, F_A.shape, y_sd, Y)
    if solved is not None:
        y_out, fb_out, sd_route = y_sd, solved, True
    rep = bell_id_bound_check(mu, F_A, fb_out, y_out, s)
    if not rep.equality_holds:
        raise AssertionError("equality construction missed ½q")
    return EqualityConstruction(y_out, fb_out, W, q, rep.lhs, True, sd_route)


def _solve_partner_collection(space, shape, y_from, y_to):
    """F_B with (id ⊗ F_B)(y_from) = y_to, if one exists as a valid
    collection: M_Bᵀ solves y_from · M_Bᵀ = y_to over the span, through
    the inverse of y_from on the span (none when y_from is singular
    there)."""
    try:
        inv = la.linear_map([la.mat_vec(y_from, b) for b in space.basis], space.basis)
        z = la.mat_mul(inv, y_to)
    except ValueError:
        return None
    mb = la.transpose(z)
    effs = {key: tuple(la.dot(row, v) for v in space.vertices)
            for key, row in zip(shape.keys, mb)}
    try:
        return MeasurementCollection(space, shape, effs)
    except ValueError:
        return None
