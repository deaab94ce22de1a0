"""Polytopic state spaces with both V- and H-representations.

A StateSpace carries the vertices of K (V-rep), the facet effects
generating A(K)+ (H-rep) and the unit functional. Both representations
are required; the built-in constructors (the polysimplex family in
polysimplex.py, simplices included) supply them analytically.

A linear map on span V(K) is stored as its canonical matrix, the one
that vanishes on the orthogonal complement of span V(K).
`StateSpace.linear_map` builds it from the images of the vertices, one
row per output coordinate through `canonical_functional` (the case of a
single output, on one cached Gram inverse per space). Its callers are
the validation of a measurement collection, whose functional table is
the matrix of F: K → S, a witness map's matrix, and `span_projector`,
the ambient matrix of χ_K, the map that fixes every vertex. A map given
on any other spanning family is built by `linalg.linear_map`.

Membership tests run on integers. Each space caches one integer table
(`int_table`): integer vectors z spanning the orthogonal complement of
span V(K) (its linear relations), and the integer numerators of the
facets and of the unit. With psi = P/D (P the integer numerators of
psi, D > 0), psi ∈ span V(K) iff z·P = 0 for every z, psi ∈ V(K)+ iff
moreover g·P ≥ 0 for every facet g, and psi ∈ K iff moreover u·P =
D·u_den: sign tests on integer dot products, with no rational built.
Values on the vertices extend to a linear map iff every vertex dependency
c (Σ_t c_t x_t = 0, so Σ_t c_t = 0) annihilates them: `failed_dependency`,
which runs before a functional is built, so no vertex is re-checked.
`max_tensor_member` tests a matrix the same way, row and column at a
time, and `product_range` evaluates a functional on every product of
two spaces' vertices, from the vertices' integer numerators.
"""
from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import linalg as la
from .exact import R0, R1, numerators, rat
from .lp import OPTIMAL, LpBuilder, vec_expr


class IntTable(NamedTuple):
    """Integer forms of a space's linear data, each vector sparse: a tuple
    of (coordinate, nonzero integer) pairs. `relations` span the orthogonal
    complement of span V(K), `dependencies` the c with Σ_t c_t x_t = 0;
    `facets` are the facets' integer numerators (positive multiples); the
    unit is `unit`/`unit_den`, and vertex t is `vertices[t]`/`vertex_den`."""
    relations: tuple
    dependencies: tuple
    facets: tuple
    unit: tuple
    unit_den: int
    vertices: tuple
    vertex_den: int


def _sparse(nums):
    return tuple((t, x) for t, x in enumerate(nums) if x)


def _idot(sparse, nums):
    """Σ_t c_t·nums[t] over a sparse integer vector."""
    return sum(c * nums[t] for t, c in sparse)


def _int_kernel(rows):
    """Sparse integer vectors spanning {z : r·z = 0 for every row r}: z_f = 1
    per non-pivot column f of the RREF R, z_p = −R[r][f] at row r's pivot."""
    red, pivots = la.rref(rows)
    out = []
    for f in (f for f in range(len(rows[0])) if f not in pivots):
        z = [R1 if t == f else R0 for t in range(len(rows[0]))]
        for row, p in zip(red, pivots):
            z[p] = -row[f]
        out.append(_sparse(numerators(z)[0]))
    return tuple(out)


def _icombine(sparse, rows):
    """Σ_t c_t·rows[t] over a sparse integer vector: an integer row."""
    acc = [0] * len(rows[0])
    for t, c in sparse:
        acc = [a + c * x for a, x in zip(acc, rows[t])]
    return acc


class StateSpace:
    def __init__(self, label, vertices, unit, facets):
        self.label = str(label)
        self.vertices = la.mat(vertices)
        self.unit = la.vec(unit)
        self.facets = la.mat(facets)
        if not self.vertices:
            raise ValueError("state space needs at least one vertex")
        self.dim = len(self.vertices[0])
        for v in self.vertices:
            if len(v) != self.dim:
                raise ValueError("vertex dimension mismatch")
            if la.dot(self.unit, v) != 1:
                raise ValueError("unit functional must be 1 on every vertex")
        for g in self.facets:
            if len(g) != self.dim:
                raise ValueError("facet dimension mismatch")
            for v in self.vertices:
                if la.dot(g, v) < 0:
                    raise ValueError("facet effect negative on a vertex")

    def __repr__(self):
        return f"StateSpace({self.label!r}, {len(self.vertices)} vertices)"

    # ----- linear structure -----

    @cached_property
    def basis_idx(self):
        """Indices of vertices forming a basis of span V(K)."""
        return tuple(la.independent_rows(self.vertices))

    @cached_property
    def basis(self):
        return tuple(self.vertices[i] for i in self.basis_idx)

    @cached_property
    def rank(self):
        return len(self.basis_idx)

    @cached_property
    def coord_idx(self):
        """Ambient coordinates that determine a vector of span V(K): the
        first `rank` coordinates, greedily, on which the basis is
        independent. Two vectors of the span that agree there are equal,
        so the LPs write equations between them there only
        (`measurements.product_lp`, `witnesses._etb_lp`)."""
        cols = [[v[i] for v in self.basis] for i in range(self.dim)]
        return tuple(la.independent_rows(cols))

    @cached_property
    def _gram_inv(self):
        g = tuple(tuple(la.dot(a, b) for b in self.basis) for a in self.basis)
        return la.invert(g)

    @cached_property
    def int_table(self) -> IntTable:
        """Relations: the vertex matrix's kernel; dependencies: its transpose's."""
        relations = _int_kernel(self.vertices)
        dependencies = _int_kernel(la.transpose(self.vertices))
        unit, unit_den = numerators(self.unit)
        flat, vertex_den = numerators([x for v in self.vertices for x in v])
        vertices = tuple(_sparse(flat[t:t + self.dim])
                         for t in range(0, len(flat), self.dim))
        return IntTable(relations, dependencies,
                        tuple(_sparse(numerators(g)[0]) for g in self.facets),
                        _sparse(unit), unit_den, vertices, vertex_den)

    def _numerators(self, psi):
        """(P, D) with psi = P/D, or None when psi has another length."""
        psi = la.vec(psi)
        return numerators(psi) if len(psi) == self.dim else None

    @cached_property
    def facet_rows(self):
        """⟨g, b_a⟩ per facet g and basis vertex b_a: a vector with basis
        coordinates c lies in V(K)+ iff facet_rows·c ≥ 0."""
        return tuple(tuple(la.dot(g, b) for b in self.basis) for g in self.facets)

    @cached_property
    def facet_values(self):
        """⟨g, v⟩ per vertex v and facet g: the effect Σ_g c_g·g takes the
        values facet_values·c on the vertices. Its rows at the basis
        vertices are the transpose of facet_rows."""
        return tuple(tuple(la.dot(g, v) for g in self.facets) for v in self.vertices)

    def _in_span(self, P):
        return all(_idot(z, P) == 0 for z in self.int_table.relations)

    def _in_cone(self, P):
        return self._in_span(P) and all(_idot(g, P) >= 0 for g in self.int_table.facets)

    def in_span(self, psi) -> bool:
        """psi ∈ span V(K): z·P = 0 for every relation z."""
        nd = self._numerators(psi)
        return nd is not None and self._in_span(nd[0])

    def in_cone(self, psi) -> bool:
        """psi ∈ V(K)+: z·P = 0 for every relation z and g·P ≥ 0 for every
        facet g, on the integer numerators P of psi (exact, since the
        facets generate A(K)+). A vector of another length is not in the
        cone."""
        nd = self._numerators(psi)
        return nd is not None and self._in_cone(nd[0])

    def is_state(self, psi) -> bool:
        """psi ∈ K: in the cone, and u·P = D·u_den for psi = P/D."""
        nd = self._numerators(psi)
        if nd is None:
            return False
        P, D = nd
        t = self.int_table
        return self._in_cone(P) and _idot(t.unit, P) == D * t.unit_den

    def interior_point(self):
        acc = la.zeros(self.dim)
        for v in self.vertices:
            acc = la.vec_add(acc, v)
        return la.vec_scale(rat(1, len(self.vertices)), acc)

    def failed_dependency(self, table):
        """The one affinity test: the first dependency c with Σ_t c_t·T_t ≠
        0 in some column of the table T (one row per vertex, on its integer
        numerators), or None when T extends to a linear map on span V(K)."""
        table = la.mat(table)
        if len(table) != len(self.vertices) or len({len(r) for r in table}) != 1:
            raise ValueError("one row per vertex, all of one length, required")
        width = len(table[0])
        flat = numerators([x for row in table for x in row])[0]
        cols = [flat[p::width] for p in range(width)]
        return next((c for c in self.int_table.dependencies
                     if any(_idot(c, col) for col in cols)), None)

    def canonical_functional(self, values):
        """Ambient representative in span V(K) of the functional taking
        the given values on the vertices, by the Gram inverse; None if no
        functional takes them."""
        values = la.vec(values)
        if self.failed_dependency([(t,) for t in values]) is not None:
            return None
        y = tuple(values[i] for i in self.basis_idx)
        return la.combine(la.mat_vec(self._gram_inv, y), self.basis)

    def linear_map(self, images):
        """Canonical matrix M of the map with M·v = image for every vertex
        v: row p is the canonical functional of the images' p-th
        coordinates, so M vanishes on the orthogonal complement of span
        V(K). None if the images are not affinely consistent."""
        if len(images) != len(self.vertices):
            raise ValueError("one image per vertex required")
        rows = tuple(self.canonical_functional(vals) for vals in la.transpose(images))
        return None if None in rows else rows

    @cached_property
    def span_projector(self):
        """Matrix of the projection onto span V(K) that is the identity
        there and kills the orthogonal complement; this is also the
        ambient matrix of χ_K = Σ_i x_i ⊗ e_i (basis x_i, dual basis
        e_i)."""
        return self.linear_map(self.vertices)


@lru_cache(maxsize=None)
def simplex_space(m) -> StateSpace:
    """Δ_m, with the point distributions e_t as vertices and facets,
    built once per m: the space of value tables on m+1 points, over
    which `is_compatible` writes a joint measurement. Unlike
    `polysimplex_space((m,))` it allows m = 0."""
    if m < 0:
        raise ValueError("simplex order must be nonnegative")
    verts = la.identity(m + 1)
    return StateSpace(f"delta:{m}", verts, (R1,) * (m + 1), verts)


# ----- the base norm and the facet check -----

def base_norm(space, psi):
    """inf{a+b : psi = a·x − b·y, x,y ∈ K} via the vertex LP."""
    psi = la.vec(psi)
    if len(psi) != space.dim:
        raise ValueError("dimension mismatch")
    if la.is_zero(psi):
        return R0
    if not space.in_span(psi):
        raise ValueError("psi outside span V(K)")
    lp, cost = _base_norm_lp(space)
    res = lp.with_rhs(psi).minimize(cost)
    if res.status != OPTIMAL:
        raise ValueError("psi outside span V(K)")
    return res.objective


@lru_cache(maxsize=32)
def _base_norm_lp(space):
    """`base_norm`'s LP with rhs 0, and its cost Σ(c + d): psi = Σ_t
    (c_t − d_t) x_t at every coordinate, with c, d ≥ 0. Built once per
    space; each psi is its rhs (`LpBuilder.with_rhs`)."""
    lp = LpBuilder()
    n = len(space.vertices)
    c = lp.vars(n)
    d = lp.vars(n)
    lp.add_rows(la.transpose(space.vertices), vec_expr([(R1, c), (-R1, d)]), "eq", R0)
    return lp, {i: R1 for i in c + d}


def check_facets_generate(space: StateSpace):
    """Raise ValueError unless the facets generate A(K)+, which the joint
    LP, is_witness, in_cone and the witness LPs all assume. In basis
    coordinates c the facets' H-description of K is P = {Σ_a c_a = 1,
    facet_rows·c ≥ 0}, and they generate A(K)+ iff P = K (Farkas). K ⊆ P
    holds by construction; P ⊆ K is checked exactly:
    - rank([1; facet_rows]) = rank, so P has basic points, and no
      nonzero c with facet_rows·c ≥ 0 has Σ_a c_a ≤ 0 (one LP), so P
      is bounded (its recession cone is {0}); then P is the hull of its
      basic points, and
    - every basic point (rank − 1 independent facets tight, all facets
      ≥ 0) is one of the given vertices.
    Built-in spaces are analytic and skip this; JSON spaces run it."""
    D = space.rank
    rows = space.facet_rows
    ones = (R1,) * D
    if la.rank([ones, *rows]) < D:
        raise ValueError("facets leave a line through the state space: "
                         "they do not generate the positive effects")
    lp = LpBuilder()
    c = lp.vars(D, nonneg=False)
    expr = vec_expr([(R1, c)])
    lp.add_rows(rows, expr, "ge", R0)
    lp.add_rows([ones], expr, "le", R0)
    # Σ_g ⟨g, c⟩ − Σ_a c_a ≥ 0 on that cone, and 0 only at c = 0
    weight = {v: sum((g[a] for g in rows), R0) - R1 for a, v in enumerate(c)}
    lp.add_le(weight, R1)
    if lp.maximize(weight).objective != 0:
        raise ValueError("facets admit a nonzero direction of unit value <= 0 "
                         "(K unbounded): they do not generate the positive effects")
    vertices = set(space.vertices)
    for tight in itertools.combinations(rows, D - 1):
        try:
            inv = la.invert([ones, *tight])
        except ValueError:
            continue
        point = tuple(r[0] for r in inv)
        if all(la.dot(g, point) >= 0 for g in rows):
            x = la.combine(point, space.basis)
            if x not in vertices:
                raise ValueError(f"facets admit the point ({', '.join(map(str, x))}), "
                                 "which is not a vertex: they do not generate "
                                 "the positive effects")


def separable_decomposition(tensor, gens_left, gens_right):
    """Nonnegative weights λ with tensor == Σ_ab λ_ab · outer(l_a, r_b),
    or None. tensor is a (dim left)×(dim right) matrix."""
    gl = [la.vec(g) for g in gens_left]
    gr = [la.vec(g) for g in gens_right]
    dl, dr = len(gl[0]), len(gr[0])
    b = LpBuilder()
    lam = {}
    for a in range(len(gl)):
        for c in range(len(gr)):
            lam[(a, c)] = b.var()
    for p in range(dl):
        for q in range(dr):
            coeffs = {}
            for (a, c), var in lam.items():
                cf = gl[a][p] * gr[c][q]
                if cf != 0:
                    coeffs[var] = cf
            b.add_eq(coeffs, rat(tensor[p][q]))
    res = b.minimize({})
    if res.status != OPTIMAL:
        return None
    return {(a, c): res[v] for (a, c), v in lam.items()}


def _int_matrix(tensor, space_a, space_b):
    """(M, D): the integer numerators of a dim_A × dim_B matrix over one
    denominator D > 0, as rows; ValueError on another shape."""
    m = la.mat(tensor)
    if len(m) != space_a.dim or any(len(row) != space_b.dim for row in m):
        raise ValueError("tensor shape does not match the two spaces")
    db = space_b.dim
    flat, D = numerators([x for row in m for x in row])
    return [flat[r * db:(r + 1) * db] for r in range(space_a.dim)], D


def max_tensor_member(tensor, space_a, space_b) -> bool:
    """tensor ∈ K_A ⊗̂ K_B: lies in span⊗span, pairs nonnegatively with
    all facet⊗facet generators, and has unit pairing 1.

    Runs on the tensor's integer numerators M over one denominator D > 0
    (a dim_A × dim_B matrix, raising ValueError on another shape). M lies
    in span⊗span iff every column lies in span V(K_A) and every row in
    span V(K_B): z_aᵀM = 0 and M z_b = 0 for the relations of each
    space. The generators pair as gᵀMh ≥ 0, and the unit pairing is
    u_aᵀM u_b = D·u_den_A·u_den_B."""
    M, D = _int_matrix(tensor, space_a, space_b)
    ta, tb = space_a.int_table, space_b.int_table
    if any(any(_icombine(z, M)) for z in ta.relations):
        return False
    if any(_idot(z, row) for z in tb.relations for row in M):
        return False
    for g in ta.facets:
        gm = _icombine(g, M)
        if any(_idot(h, gm) < 0 for h in tb.facets):
            return False
    return _idot(tb.unit, _icombine(ta.unit, M)) == D * ta.unit_den * tb.unit_den


def product_range(tensor, space_a, space_b):
    """(least, greatest) of ⟨μ, x ⊗ y⟩ over the vertices x of K_A and y
    of K_B, for μ ∈ V(K_A)* ⊗ V(K_B)* given by its dim_A × dim_B matrix
    (ValueError on another shape). Runs on integers like
    `max_tensor_member`: with μ = M/D and the vertices X/E_A and Y/E_B
    over one denominator per space, ⟨μ, x ⊗ y⟩ = Xᵀ·M·Y/(D·E_A·E_B), so
    each product costs one integer row Xᵀ·M per x and one sparse dot per
    y, and only the two extremes are made rational. Every one of the
    |V(K_A)|·|V(K_B)| products is visited."""
    M, D = _int_matrix(tensor, space_a, space_b)
    ta, tb = space_a.int_table, space_b.int_table
    vals = [_idot(y, xm) for xm in (_icombine(x, M) for x in ta.vertices)
            for y in tb.vertices]
    den = D * ta.vertex_den * tb.vertex_den
    return rat(min(vals), den), rat(max(vals), den)
