"""Assemblages over a polysimplex and a polytopic state space:
extraction from a bipartite state, separability (local-hidden-state
models), steering degrees, and self-dual bipartite states.

Bipartite elements are ambient matrices Y with ⟨f⊗g, y⟩ = fᵀ Y g.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg as la
from .exact import R0, R1, rat
from .lp import OPTIMAL
from .bell import separating_witness
from .measurements import DegreeReport, MeasurementCollection, least_mixing, product_lp
from .polysimplex import PolySimplex
from .spaces import StateSpace, max_tensor_member


class Assemblage:
    """Conditional family {p(j|i), x_{j|i}} with a common average x."""

    def __init__(self, shape: PolySimplex, space: StateSpace, x, p, sub_states):
        self.shape = shape
        self.space = space
        self.x = tuple(rat(c) for c in x)
        self.p = {k: rat(v) for k, v in p.items()}
        self.sub_states = {k: tuple(rat(c) for c in v)
                           for k, v in sub_states.items()}
        self._validate()

    def _validate(self):
        space = self.space
        want = set(self.shape.keys)
        if set(self.p) != want or set(self.sub_states) != want:
            raise ValueError("p and sub-state tables do not match the outcome shape")
        if not space.is_state(self.x):
            raise ValueError("assemblage average is not a state")
        for i, l in enumerate(self.shape.shape):
            tot = R0
            avg = la.zeros(space.dim)
            for j in range(l + 1):
                pij = self.p[(i, j)]
                if pij < 0:
                    raise ValueError(f"p({j}|{i}) negative")
                xij = self.sub_states[(i, j)]
                if not space.is_state(xij):
                    raise ValueError(f"sub-state ({i},{j}) is not a state")
                tot += pij
                avg = la.vec_add(avg, la.vec_scale(pij, xij))
            if tot != R1:
                raise ValueError(f"p(·|{i}) does not normalize")
            if tuple(avg) != self.x:
                raise ValueError(f"input {i} does not average to the barycenter")

    def to_tensor(self):
        """β = s_top ⊗ x + Σ_{i,j<l_i} e^i_j ⊗ p(j|i)x_{j|i}."""
        shape = self.shape
        t = la.outer(shape.vertex(shape.top), self.x)
        for key in shape.edges:
            w = la.vec_scale(self.p[key], self.sub_states[key])
            e = shape.edge(*key)
            t = [[a + e[r] * w[c] for c, a in enumerate(row)] for r, row in enumerate(t)]
        return la.mat(t)

    def __repr__(self):
        return f"Assemblage({self.shape.shape} ⊗ {self.space.label})"


def assemblage_from(F: MeasurementCollection, y, space_b: StateSpace) -> Assemblage:
    """β = (F ⊗ id)(y): sub-states by conditioning on Alice's outcomes.

    y is an ambient matrix over V(K_A)⊗V(K_B); it must lie in the
    maximal tensor product of the two spaces.
    """
    space_a = F.space
    if not max_tensor_member(y, space_a, space_b):
        raise ValueError("y is not a state of the maximal tensor product")
    shape = F.shape
    yt = la.transpose(y)
    x = la.mat_vec(yt, space_a.unit)
    p = {}
    subs = {}
    for key in shape.keys:
        phi = la.mat_vec(yt, F.effect(*key))
        pij = la.dot(space_b.unit, phi)
        p[key] = pij
        subs[key] = tuple(la.vec_scale(1 / pij, phi)) if pij else tuple(x)
    return Assemblage(shape, space_b, tuple(x), p, subs)


@dataclass
class LhsModel:
    """Hidden-state model: weights q(λ) over deterministic responses
    q(j|i,λ) = [λ_i = j] with states x_λ."""
    weights: dict
    states: dict

    def check(self, beta: Assemblage, mixing=None):
        """The model reproduces β, or with mixing = (s, μ) the mixture
        (1−μ)β + μ s⊗x: on every coordinate, Σ_{n_i=j} q(n)·x_n equals
        (1−μ)p(j|i)x_{j|i} + μ s^i_j x for each (i, j)."""
        for lam, q in self.weights.items():
            if q < 0:
                raise AssertionError(f"LHS weight of {lam} is negative")
            if not beta.space.is_state(self.states[lam]):
                raise AssertionError(f"hidden state of {lam} is not in K")
        shape = beta.shape
        s, mu = mixing if mixing is not None else (None, R0)
        for i, j in shape.keys:
            acc = la.zeros(beta.space.dim)
            for lam, q in self.weights.items():
                if lam[i] == j and q:
                    acc = la.vec_add(acc, la.vec_scale(q, self.states[lam]))
            want = la.vec_scale((R1 - mu) * beta.p[(i, j)], beta.sub_states[(i, j)])
            if mu:
                want = la.vec_add(want, la.vec_scale(mu * shape.coords(s, i, j), beta.x))
            if tuple(acc) != tuple(want):
                raise AssertionError(f"LHS model misses component ({i},{j})")
        return True


def _lhs_lp(beta: Assemblage, mixing=None):
    """The hidden-state LP of (1−λ)β + λ s⊗x: the `product_lp` of β =
    Σ_n s_n ⊗ α_n over S and K, with α_n ∈ V(K)+; `mixing` as in
    `tensor_lp`, and T̄ = x. `LhsModel.check` re-checks every entry.
    Returns (lp, avar, lam, t); avar[n] holds the vertex weights of α_n.
    """
    return product_lp(beta.shape, beta.space, beta.to_tensor(), mixing)


def _lhs_model(res, avar, beta: Assemblage) -> LhsModel:
    """The LHS model whose unnormalized hidden states α_n = Σ_v a_{n,v} v
    are read off the solved `_lhs_lp` variables avar: q(n) = ⟨1_K, α_n⟩
    and x_n = α_n/q(n) (β's average when q(n) = 0)."""
    space = beta.space
    weights = {}
    states = {}
    for n, cols in avar.items():
        vec = la.combine([res[c] for c in cols], space.vertices)
        q = la.dot(space.unit, vec)
        weights[n] = q
        states[n] = tuple(la.vec_scale(1 / q, vec)) if q else beta.x
    return LhsModel(weights, states)


def is_separable(beta: Assemblage):
    """β separable ⟺ β = Σ_n s_n ⊗ α_n with α_n ∈ V(K)+ (LP). Returns
    (True, LhsModel) or (False, BellWitness): the functional of
    `bell.separating_witness` over S and K, ≥ 0 on every product s_n ⊗ v
    of vertices and < 0 on β, read off the same solve."""
    lp, avar, _lam, _t = _lhs_lp(beta)
    res = lp.minimize({})
    if res.status != OPTIMAL:
        return False, separating_witness(beta.shape, beta.space, beta.to_tensor(),
                                         res.farkas)
    model = _lhs_model(res, avar, beta)
    model.check(beta)
    return True, model


def steering_degree_at(beta: Assemblage, s):
    """SD_s(β) = min λ with (1−λ)β + λ s⊗x separable; a single LP since
    the mixing is linear in λ."""
    if not beta.shape.as_state_space().is_state(s):
        raise ValueError("mixing target must be a state of the polysimplex")
    lp, _avar, lam, _t = _lhs_lp(beta, s)
    res = lp.minimize({lam: R1})
    if res.status != OPTIMAL:
        raise AssertionError("steering LP infeasible at λ=1: s⊗x is separable")
    return res.objective


def steering_degree(beta: Assemblage) -> DegreeReport:
    """SD(β) = inf over interior s of SD_s(β), exactly: the least λ* of
    `_lhs_lp(beta, "free")` with an s from `least_mixing` that attains
    it, interior when some minimizer is and on the boundary otherwise.
    The same solve's α_n give the report's `model`, an LHS model that
    must pass `LhsModel.check` against (1−λ*)β + λ* s⊗x on every
    coordinate, so that SD_s(β) ≤ λ* at the returned s."""
    lp, avar, lam, t = _lhs_lp(beta, "free")
    rep = least_mixing(lp, lam, t, beta.shape)
    rep.model = _lhs_model(rep.solve, avar, beta)
    rep.model.check(beta, (rep.s, rep.value))
    return rep


def self_dual_state(space: StateSpace, iso):
    """y = (id ⊗ Ψ)(χ_K), normalized to unit pairing with 1⊗1.

    `iso` maps facet index → (vertex index, positive scale); it must be
    a bijection onto the vertex set and extend to a linear cone
    isomorphism A(K)+ → V(K)+. Returns the ambient matrix of y.
    """
    X = space.span_projector
    nf, nv = len(space.facets), len(space.vertices)
    targets = {}
    seen = set()
    for r, (t, c) in iso.items():
        if not (0 <= r < nf and 0 <= t < nv):
            raise ValueError(f"iso entry {r} ↦ {t} names no facet or no vertex of "
                             f"a space with {nf} facets and {nv} vertices")
        c = rat(c)
        if c <= 0:
            raise ValueError("iso scales must be positive")
        if t in seen:
            raise ValueError("iso must map facets onto distinct vertices")
        seen.add(t)
        targets[r] = la.vec_scale(c, space.vertices[t])
    if len(targets) != nf or len(seen) != nv:
        raise ValueError("iso must pair every facet with a distinct vertex")
    # canonical matrix Q of Ψ: defined on the canonical facet reps
    dom = [la.mat_vec(X, f) for f in space.facets]
    Q = la.linear_map(dom, [targets[r] for r in range(nf)])
    y0 = la.mat_mul(X, la.transpose(Q))
    norm = la.dot(space.unit, la.mat_vec(y0, space.unit))
    if norm <= 0:
        raise ValueError("iso gives a degenerate bipartite element")
    y = [[v / norm for v in row] for row in y0]
    if not max_tensor_member(y, space, space):
        raise ValueError("iso image is not positive: y leaves the maximal "
                         "tensor product")
    return la.mat(y)


def square_self_dual_iso():
    """The effect↔vertex matching of the square: m^0_0↦s00, m^0_1↦s11,
    m^1_0↦s01, m^1_1↦s10 (vertex order 00,01,10,11; facet order
    m00,m01,m10,m11)."""
    return {0: (0, 1), 1: (3, 1), 2: (1, 1), 3: (2, 1)}
