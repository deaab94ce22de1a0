"""Assemblages over a polysimplex and a polytopic state space:
extraction from a bipartite state, separability (local-hidden-state
models), steering degrees, and self-dual bipartite states.

Bipartite elements are ambient matrices Y with ⟨f⊗g, y⟩ = fᵀ Y g. An
assemblage is one of them, β = (F⊗id)(y) ∈ S ⊗̂ K, and is stored as
that matrix. A hidden-state model is a decomposition β = Σ_n s_n ⊗ α_n
with every α_n ∈ V(K)+: the `product_lp` of `measurements`, whose
solution `product_decomposition` reads and checks, as it does for the
locality LP of a box in `bell`.
"""
from __future__ import annotations

from functools import cached_property

from . import linalg as la
from .exact import R1, rat
from .lp import OPTIMAL
from .bell import separating_witness
from .measurements import (DegreeReport, MeasurementCollection, least_mixing,
                           product_decomposition, product_lp)
from .polysimplex import PolySimplex
from .spaces import StateSpace, max_tensor_member


class Assemblage:
    """β = Σ_{i,j} e_{ij} ⊗ σ_{j|i} ∈ S ⊗̂ K, stored by its rows: row
    (i, j), in `shape.keys` order, is σ_{j|i} = p(j|i)·x_{j|i} ∈ V(K)+.

    The rows form an assemblage iff β lies in the maximal tensor product,
    one integer test: S's span relations force one average x = Σ_j
    σ_{j|i} for every input i, the facet pairings m^i_j ⊗ g put each
    σ_{j|i} in V(K)+, and the unit pairing gives ⟨1_K, x⟩ = 1.
    """

    def __init__(self, shape: PolySimplex, space: StateSpace, rows):
        self.shape = shape
        self.space = space
        self.rows = la.mat(rows)
        if not max_tensor_member(self.rows, shape.as_state_space(), space):
            raise ValueError("assemblage rows are not a state of S ⊗̂ K")
        self.x = la.combine([R1] * (shape.shape[0] + 1), self.rows[:shape.shape[0] + 1])

    def to_tensor(self):
        """β's ambient matrix over V(S) ⊗ V(K): the rows themselves."""
        return self.rows

    @cached_property
    def p(self):
        """p(j|i) = ⟨1_K, σ_{j|i}⟩."""
        return {key: la.dot(self.space.unit, row)
                for key, row in zip(self.shape.keys, self.rows)}

    @cached_property
    def sub_states(self):
        """x_{j|i} = σ_{j|i}/p(j|i), and the average x where p(j|i) = 0."""
        return {key: la.vec_scale(1 / self.p[key], row) if self.p[key] else self.x
                for key, row in zip(self.shape.keys, self.rows)}

    def __repr__(self):
        return f"Assemblage({self.shape.shape} ⊗ {self.space.label})"


def assemblage_from(F: MeasurementCollection, y, space_b: StateSpace) -> Assemblage:
    """β = (F ⊗ id)(y): row (i, j) is ⟨f^i_j ⊗ ·, y⟩.

    y is an ambient matrix over V(K_A)⊗V(K_B); it must lie in the
    maximal tensor product of the two spaces.
    """
    if not max_tensor_member(y, F.space, space_b):
        raise ValueError("y is not a state of the maximal tensor product")
    return Assemblage(F.shape, space_b, la.mat_mul(F.as_map_matrix(), y))


def _mixture(beta: Assemblage, s, lam):
    """The rows of (1−λ)β + λ s⊗x: (1−λ)σ_{j|i} + λ s^i_j x."""
    lam = rat(lam)
    return tuple(la.vec_add(la.vec_scale(R1 - lam, row), la.vec_scale(lam * rat(c), beta.x))
                 for row, c in zip(beta.rows, s))


def is_separable(beta: Assemblage):
    """β separable ⟺ β = Σ_n s_n ⊗ α_n with α_n ∈ V(K)+: the hidden-state
    LP, the `product_lp` of β over S and K. Returns (True,
    ProductDecomposition), re-checked against β's rows, or (False,
    BellWitness): the functional of `bell.separating_witness` over S and
    K, ≥ 0 on every product s_n ⊗ v of vertices and < 0 on β, read off
    the same solve."""
    lp, avar, _lam, _t = product_lp(beta.shape, beta.space, beta.rows)
    res = lp.minimize({})
    if res.status != OPTIMAL:
        return False, separating_witness(beta.shape, beta.space, beta.rows, res.farkas)
    model = product_decomposition(beta.shape, beta.space, res, avar)
    model.check(beta.rows)
    return True, model


def steering_degree_at(beta: Assemblage, s):
    """SD_s(β) = min λ with (1−λ)β + λ s⊗x separable; a single LP since
    the mixing is linear in λ (T̄ = x in `tensor_lp`)."""
    if not beta.shape.as_state_space().is_state(s):
        raise ValueError("mixing target must be a state of the polysimplex")
    lp, _avar, lam, _t = product_lp(beta.shape, beta.space, beta.rows, s)
    res = lp.minimize({lam: R1})
    if res.status != OPTIMAL:
        raise AssertionError("steering LP infeasible at λ=1: s⊗x is separable")
    return res.objective


def steering_degree(beta: Assemblage) -> DegreeReport:
    """SD(β) = inf over interior s of SD_s(β), exactly: the least λ* of
    the hidden-state LP with mixing "free" (see `tensor_lp`), with an s
    from `least_mixing` that attains it, interior when some minimizer is
    and on the boundary otherwise.
    The same solve's vertex weights give the report's `model`, a
    `ProductDecomposition` that must reproduce the rows of `_mixture(β,
    s, λ*)`, so that SD_s(β) ≤ λ* at the returned s."""
    lp, avar, lam, t = product_lp(beta.shape, beta.space, beta.rows, "free")
    rep = least_mixing(lp, lam, t, beta.shape)
    rep.model = product_decomposition(beta.shape, beta.space, rep.solve, avar)
    rep.model.check(_mixture(beta, rep.s, rep.value))
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
