"""Measurement collections F = (f^0,…,f^k) on a polytopic state space,
the joint-measurement LP, coin tosses, and incompatibility degrees;
`tensor_lp`, the one LP builder of the joint-measurement, hidden-state
and locality LPs, and `chart_blocks`, the one reader of its row
multipliers: `_dual_witness` reads a witness map off them, and
`product_functional` the separating functional of an infeasible
`product_lp` (the locality and hidden-state LPs). The primal side has
one certificate with one exact check, `ProductDecomposition.check`: a
local or hidden-state model read off `product_lp` by
`product_decomposition`, and a joint measurement, the split of F's
value table over the simplex of value tables on K's vertices.

A collection is an affine map K → S into a polysimplex, stored by the
effect values f^i_j(x) on the vertices x of K and validated by two
tests: every vertex image is a state of S, and the images extend to a
linear map, whose canonical matrix is kept as the effect functionals.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg as la
from .exact import R0, R1, rat
from .lp import OPTIMAL, LpBuilder, LpResult, vec_expr
from .polysimplex import PolySimplex
from .spaces import StateSpace, simplex_space


class MeasurementCollection:
    """Affine map F: K → S given by effect values on K's vertices.

    effects[(i, j)] is the tuple (f^i_j(x_0), …, f^i_j(x_{N-1})) over the
    vertices of `space` in their stored order. Each vertex image F(x_t),
    one column of the table in `shape.keys` order, must pass S's integer
    `is_state`, and `space.linear_map` of the images must exist: its
    canonical matrix, row (i, j) the functional of f^i_j, is kept.
    """

    def __init__(self, space: StateSpace, shape: PolySimplex, effects):
        self.space = space
        self.shape = shape
        self.effects = {k: tuple(rat(v) for v in vals) for k, vals in effects.items()}
        self._matrix = self._validate()

    def _validate(self):
        """F's canonical matrix, or ValueError. Lengths are checked before
        the transpose, which would truncate a short effect silently."""
        n = len(self.space.vertices)
        if set(self.effects) != set(self.shape.keys):
            raise ValueError("effect table does not match the outcome shape")
        for key, vals in self.effects.items():
            if len(vals) != n:
                raise ValueError(f"effect {key} has {len(vals)} values, expected {n}")
        images = la.transpose([self.effects[key] for key in self.shape.keys])
        target = self.shape.as_state_space()
        for t, image in enumerate(images):
            if not target.is_state(image):
                raise ValueError(f"vertex {t} is not mapped to a state of S: an effect "
                                 "is negative there or an input does not sum to 1")
        matrix = self.space.linear_map(images)
        if matrix is None:
            raise ValueError("effect values are not affinely consistent")
        return matrix

    def effect(self, i, j):
        """Canonical ambient functional of f^i_j (vanishes off span V(K)),
        kept by validation; `effects` is never mutated."""
        return self._matrix[self.shape.index(i, j)]

    def effect_value(self, i, j, x):
        """f^i_j(x) for any x in span V(K)."""
        return la.dot(self.effect(i, j), x)

    def as_map_matrix(self):
        """Ambient matrix of F: V(K) → V(S), rows = canonical effects."""
        return self._matrix

    def mix(self, other: "MeasurementCollection", lam):
        """(1−λ)·self + λ·other, same space and shape."""
        if other.space is not self.space and other.space.vertices != self.space.vertices:
            raise ValueError("collections live on different spaces")
        if other.shape != self.shape:
            raise ValueError("collections have different outcome shapes")
        lam = rat(lam)
        eff = {k: tuple((R1 - lam) * a + lam * b for a, b in zip(vals, other.effects[k]))
               for k, vals in self.effects.items()}
        return MeasurementCollection(self.space, self.shape, eff)

    def __repr__(self):
        return f"MeasurementCollection({self.space.label}, {self.shape.shape})"


def make_collection(space: StateSpace, shape, effects) -> MeasurementCollection:
    if not isinstance(shape, PolySimplex):
        shape = PolySimplex(shape)
    return MeasurementCollection(space, shape, effects)


def from_functionals(space: StateSpace, shape, functionals) -> MeasurementCollection:
    """Build from ambient functionals {(i,j): vector}; values are taken
    on the vertices."""
    if not isinstance(shape, PolySimplex):
        shape = PolySimplex(shape)
    eff = {key: tuple(la.dot(f, v) for v in space.vertices)
           for key, f in functionals.items()}
    return MeasurementCollection(space, shape, eff)


@lru_cache(maxsize=None)
def identity_collection(shape: PolySimplex) -> MeasurementCollection:
    """F = (m^0,…,m^k) on K = S itself: the identity map. Built once per
    shape and shared, like `polysimplex_space`; nothing mutates a
    collection after construction."""
    space = shape.as_state_space()
    return from_functionals(space, shape, {key: shape.m(*key) for key in shape.keys})


def tensor_lp(shape: PolySimplex, gens, rows, mixing=None):
    """The LP "(1−λ)T + λ s⊗T̄ = Σ_n s_n ⊗ c_n" over the vertices s_n of
    S, without an objective: each unknown c_n is a nonnegative combination
    of the columns of `gens`, so it lies in the cone they generate.

    T lies in span V(S) ⊗ V, and rows[r] is its row at ambient coordinate
    r = (i, j) of S, written in the coordinates of `gens` (one per row of
    gens). The rows are written in S's chart: the functionals 1_S and
    m^i_j (j < l_i) form a basis of A(S), so pairing both sides with
    each of them is the whole equation. m^i_j gives one block per (i, j <
    l_i), Σ_{n_i=j} c_n + λ(T^i_j − s^i_j T̄) = T^i_j; 1_S gives the
    normalization block Σ_n c_n = T̄ = Σ_j T^0_j, with no λ term as
    Σ_j s^i_j = 1.

    `mixing` is None for λ = 0, a state s for λ ∈ [0, 1] at that fixed
    s, or "free" for t = λs variable too (see `scaled_state_vars`): the
    mixture is linear in (λ, t), so the least λ over all s is one LP.
    At λ = 0 the matrix depends on S and gens (a tuple of tuples) only:
    it is `_tensor_template`'s, built once, and T enters as the rhs
    through `LpBuilder.with_rhs`. Returns (lp, v, lam, t): v[n] holds the
    weights of c_n on the columns of gens; lam and t are None when not
    variables.
    """
    if mixing is None:
        template, v = _tensor_template(shape, gens)
        rhs = [b for i, j in shape.edges for b in rows[shape.index(i, j)]]
        rhs += la.combine([R1] * (shape.shape[0] + 1), rows[:shape.shape[0] + 1])
        return template.with_rhs(rhs), v, None, None
    return _write_tensor_lp(shape, gens, rows, mixing)


@lru_cache(maxsize=64)
def _tensor_template(shape: PolySimplex, gens):
    """`tensor_lp`'s LP at λ = 0 with T = 0, and v. Built once per (S,
    gens); callers take `with_rhs` of it and never change it."""
    lp, v, _lam, _t = _write_tensor_lp(shape, gens, ((R0,) * len(gens),) * shape.ambient_dim,
                                       None)
    return lp, v


def _write_tensor_lp(shape: PolySimplex, gens, rows, mixing):
    """`tensor_lp`'s LP, written row by row with T's rows in the rhs."""
    outcomes = shape.outcome_list()
    free = mixing == "free"

    lp = LpBuilder()
    lam = t = None
    if mixing is not None:
        lam = lp.var(nonneg=True)
        lp.add_le({lam: R1}, R1)
    v = {n: lp.vars(len(gens[0])) for n in outcomes}
    if free:
        t = scaled_state_vars(lp, lam, shape)
    gcols = la.transpose(gens)
    tbar = la.combine([R1] * (shape.shape[0] + 1), rows[:shape.shape[0] + 1])
    for i, j in shape.edges:
        # Σ_{n_i=j} c_n over the gens columns, then the columns of λ and
        # t, with t^i_j = λ s^i_j at fixed s
        r = shape.index(i, j)
        expr = vec_expr([(R1, v[n]) for n in outcomes if n[i] == j])
        cols = list(gcols)
        if free:
            cols += [rows[r], la.vec_scale(-R1, tbar)]
            expr += [{lam: R1}, {t[r]: R1}]
        elif mixing is not None:
            cols.append(la.vec_sub(rows[r], la.vec_scale(shape.coords(mixing, i, j), tbar)))
            expr.append({lam: R1})
        lp.add_rows(la.transpose(cols), expr, "eq", rows[r])
    lp.add_rows(gens, vec_expr([(R1, v[n]) for n in outcomes]), "eq", tbar)
    return lp, v, lam, t


def chart_blocks(shape: PolySimplex, multipliers, size):
    """The one reader of `tensor_lp`'s row multipliers (Farkas or dual),
    given from the first chart row on: the edge blocks y_{i,j} (j < l_i)
    in order, then the normalization block z, each of `size` entries,
    one per row of gens. Returns (−z, {(i, j): −y_{i,j}}): the top
    block and the edge blocks, negated, so that the sign condition of
    the column of c_n reads ⟨(−z) + Σ_{i: n_i<l_i} (−y_{i,n_i}), g⟩ ≥ 0
    on its generator g. Multipliers after the chart rows are ignored."""
    rows = iter(multipliers)

    def block():
        return [-next(rows) for _ in range(size)]

    edges = {key: block() for key in shape.edges}
    return block(), edges


def product_lp(shape: PolySimplex, space: StateSpace, tensor, mixing=None):
    """The `tensor_lp` of T = Σ_n s_n ⊗ α_n over the vertices s_n of S,
    each α_n a nonnegative combination of the vertices of K = `space`,
    so α_n ∈ V(K)+; `tensor` is T's ambient matrix over V(S) ⊗ V(K) and
    `mixing` is as there. Every term lies in span V(S) ⊗ span V(K), so
    the chart rows of S are written only at the coordinates
    coord_idx(K): 9 rows on the square pair where the tensor has 16
    entries. This is the locality LP of a box (K = S_B) and the
    hidden-state LP of an assemblage. Returns (lp, v, lam, t) of
    `tensor_lp`; v[n] holds the vertex weights of α_n."""
    cols = space.coord_idx
    gens = tuple(tuple(v[c] for v in space.vertices) for c in cols)
    rows = [[row[c] for c in cols] for row in tensor]
    return tensor_lp(shape, gens, rows, mixing)


def product_functional(shape: PolySimplex, space: StateSpace, farkas):
    """The functional μ = −(1_S ⊗ z + Σ_{i,j<l_i} m^i_j ⊗ y_{i,j}) ∈
    A(S) ⊗ A(K) read by `chart_blocks` off the Farkas multipliers of an
    infeasible `product_lp` at λ = 0, as its ambient matrix over V(S) ⊗
    V(K), with the blocks at the columns coord_idx(K). The weight of α_n
    on a vertex v of K meets exactly the rows paired with s_n ⊗ v, so
    the Farkas signs give ⟨μ, s_n ⊗ v⟩ ≥ 0, and ⟨μ, T⟩ is minus the
    multipliers' value on the rhs, < 0. `bell.separating_witness`
    checks both again on the full tensor, outside the LP."""
    top, edges = chart_blocks(shape, farkas, space.rank)
    mu = []
    for key in shape.keys:
        block = edges.get(key)
        if key[0] == 0:  # 1_S = Σ_j m^0_j
            block = top if block is None else [a + b for a, b in zip(top, block)]
        row = [R0] * space.dim
        for c, a in zip(space.coord_idx, block or ()):
            row[c] = a
        mu.append(tuple(row))
    return tuple(mu)


@dataclass
class ProductDecomposition:
    """T = Σ_n s_n ⊗ α_n over the vertices s_n of S, with α_n = Σ_t
    weights[n][t]·v_t over the vertices v_t of K = `space`: the feasible
    certificate of a `product_lp`, a local model of a box (K = S_B) or a
    hidden-state model of an assemblage, and of `is_compatible`, a joint
    measurement (K the simplex of value tables, T a collection's value
    rows, α_n the values of g_n)."""
    shape: PolySimplex
    space: StateSpace
    weights: dict

    def check(self, tensor):
        """Every weight is ≥ 0, so α_n ∈ V(K)+, and Σ_{n_i=j} α_n equals
        T's row (i, j) for every key: the decomposition is exactly T.
        Returns True or raises."""
        for n, w in self.weights.items():
            if any(c < 0 for c in w):
                raise AssertionError(f"a vertex weight of {n} is negative")
        alpha = {n: la.combine(w, self.space.vertices) for n, w in self.weights.items()}
        for (i, j), row in zip(self.shape.keys, tensor, strict=True):
            acc = la.zeros(self.space.dim)
            for n, a in alpha.items():
                if n[i] == j:
                    acc = la.vec_add(acc, a)
            if acc != tuple(row):
                raise AssertionError(f"the decomposition misses row ({i},{j})")
        return True


def product_decomposition(shape: PolySimplex, space: StateSpace, res: LpResult, v):
    """The decomposition whose vertex weights v[n] of α_n (from
    `product_lp`) are read off the solved `res`."""
    return ProductDecomposition(shape, space,
                                {n: tuple(res[c] for c in cols) for n, cols in v.items()})


def _joint_lp(F: MeasurementCollection, mixing=None):
    """The joint-measurement LP of (1−λ)F + λF_s: the `tensor_lp` of F's
    tensor Σ_{i,j} e_{ij} ⊗ f^i_j, written at the basis vertices, whose
    unknowns are the joint effects g_n. Each g_n = Σ_f c_{n,f} g_f is a
    nonnegative facet combination, so it is positive on K by
    construction: this is exact because K's facet functionals generate
    A(K)+ (Minkowski–Weyl; for a polysimplex they are the m^i_j). Its
    values at the basis vertices are `transpose(facet_rows)` times the
    weights, and T̄ = 1_K there. Returns (lp, c, lam, t) of `tensor_lp`:
    c[n] holds the facet weights of g_n.
    """
    space = F.space
    rows = [[F.effects[key][a] for a in space.basis_idx] for key in F.shape.keys]
    return tensor_lp(F.shape, la.transpose(space.facet_rows), rows, mixing)


def is_compatible(F: MeasurementCollection, want_joint=True):
    """Joint-measurement LP: F is compatible iff there are effects
    g_{n_0,…,n_k} ≥ 0 on K with Σ_n g_n = 1_K whose marginals reproduce
    every f^i_j. Returns (True, ProductDecomposition) or (False,
    WitnessMap), from one solve. The joint measurement is F's value
    table Σ_{i,j} e_ij ⊗ f^i_j split as Σ_n s_n ⊗ g_n over the simplex
    of value tables on K's N vertices (vertex t is e_t), so the weights
    of g_n are its values on the vertices; it is checked against F's
    value rows, and each g_n affine on K by `F.space.failed_dependency`.
    The witness is `_dual_witness` of the Farkas multipliers, with
    ⟨1_K, W(s̄)⟩ = 1 at the barycenter s̄ and Tr FW < 0. With
    `want_joint` False the second entry is None.
    """
    lp, c, _lam, _t = _joint_lp(F)
    res = lp.minimize({})
    if not want_joint:
        return res.status == OPTIMAL, None
    if res.status != OPTIMAL:
        W, trace = _dual_witness(F, res.farkas, F.shape.barycenter())
        if trace >= 0:
            raise AssertionError(f"Farkas witness has Tr FW = {trace}")
        return False, W
    values = simplex_space(len(F.space.vertices) - 1)
    joint = ProductDecomposition(
        F.shape, values, {n: la.mat_vec(F.space.facet_values, [res[v] for v in c[n]])
                          for n in F.shape.outcomes()})
    joint.check([F.effects[key] for key in F.shape.keys])
    # check holds for any nonnegative table with F's marginals; an effect
    # g_n is moreover affine on K, its values those of a linear map
    if F.space.failed_dependency(la.transpose(list(joint.weights.values()))) is not None:
        raise AssertionError("a joint effect is not affine on K")
    return True, joint


def id_degree_at(F: MeasurementCollection, s, cross_check=False):
    """ID_s(F) for s strictly inside S: the least λ making
    (1−λ)F + λF_s compatible. Computed from the witness dual q_s via
    ID_s = −q_s/(1−q_s) when q_s ≤ 0 (0 otherwise); `cross_check` also
    solves the primal minimum-λ LP and asserts agreement.
    """
    shape = F.shape
    if not shape.interior(s):
        raise ValueError("id_degree_at needs a strictly interior state s; "
                         "use the boundary-segment bound instead")
    from .witnesses import q_value

    q, _w, lam = q_value(F, s)
    if cross_check:
        lp, _c, lam_var, _t = _joint_lp(F, s)
        res = lp.minimize({lam_var: R1})
        if res.status != OPTIMAL:
            raise AssertionError("mixing LP infeasible at λ=1; coin toss must be compatible")
        if res.objective != lam:
            raise AssertionError(f"primal {res.objective} != dual {lam}")
    return lam


def scaled_state_vars(lp: LpBuilder, lam, shape: PolySimplex):
    """Variables t ≥ 0, one per ambient coordinate (block entry (i, j))
    of S, with Σ_j t^i_j = λ for every input: t = λs for a state s."""
    t = lp.vars(shape.ambient_dim, nonneg=True)
    for i, l in enumerate(shape.shape):
        row = {t[shape.index(i, j)]: R1 for j in range(l + 1)}
        row[lam] = -R1
        lp.add_eq(row, R0)
    return t


@dataclass
class DegreeReport:
    """A degree, a base point s attaining it (interior when some
    minimizer is, else on the boundary of S, with a zero coordinate;
    the degree is still the infimum over interior s, since ID_s and
    SD_s are continuous in s), the number of LP solves spent (one), the
    `LpResult` of that solve, and the exact
    certificate read off it. For ID(F), `witness` is a witness map W
    with ⟨1_K, W(s)⟩ = 1 and `q` = Tr FW = q_s(F), so that ID = −q/(1−q)
    is a lower bound the LP's least λ meets. For SD(β), `model` is a
    `ProductDecomposition` of (1−λ)β + λ s⊗x at the reported λ and s: a
    hidden-state model."""
    value: object
    s: tuple
    evaluations: int
    solve: LpResult | None = None
    witness: object = None
    q: object = None
    model: object = None


def least_mixing(lp: LpBuilder, lam, t, shape: PolySimplex) -> DegreeReport:
    """The least λ of a mixing LP whose variables t = λs come from
    `scaled_state_vars`, and an s attaining it.

    One solve: least λ, then, among its minimizers, the greatest μ ≤
    every t^i_j, so that s = t/λ* is interior when some optimum is.
    When none is (μ* = 0), s = t/λ* is a boundary point of S that
    attains λ*. λ* = 0 returns the barycenter. The report's `solve` is
    the LpResult, whose primal x and first-stage duals (those of λ)
    callers read their certificates from.
    """
    mu = lp.var(nonneg=True)
    for v in t:
        lp.add_le({mu: R1, v: -R1}, R0)
    res = lp.minimize(({lam: R1}, {mu: -R1}))
    if res.status != OPTIMAL:
        raise AssertionError("mixing LP infeasible at λ=1")
    lam_star = res.objective
    if lam_star == 0:
        return DegreeReport(R0, shape.barycenter(), 1, res)
    return DegreeReport(lam_star, tuple(res[v] / lam_star for v in t), 1, res)


def _dual_witness(F: MeasurementCollection, duals, s):
    """The witness map read off the multipliers of `_joint_lp`'s chart
    rows (Farkas at λ = 0, or the free LP's first-stage duals), normalized
    so that ⟨1_K, W(s)⟩ = 1, and its Tr FW. Raises AssertionError unless
    it is a witness map.

    `chart_blocks` reads the blocks, in the basis-vertex coordinates of
    the joint LP: top = −z and edge (i, j) = −y_{i,j}. Set w_n = Σ_a
    (top_a + Σ_{i: n_i<l_i} edge_{i,n_i,a}) b_a. The column of facet
    weight c_{n,f} meets exactly the rows of w_n, with coefficients ⟨g_f,
    b_a⟩, so its sign condition reads ⟨g_f, w_n⟩ ≥ 0: each w_n lies in
    V(K)+. The map is affine in the chart at the top vertex by
    construction.
    """
    from .witnesses import WitnessValidationError, make_witness_map, trace_pairing

    shape, space = F.shape, F.space
    top, edges = chart_blocks(shape, duals, space.rank)
    # every b_a is a vertex, so ⟨1_K, Σ_a c_a b_a⟩ = Σ_a c_a
    norm = sum(top) + sum(shape.coords(s, i, j) * sum(e) for (i, j), e in edges.items())
    if norm <= 0:
        raise AssertionError(f"dual witness has ⟨1_K, W(s)⟩ = {norm}")

    def vec(c):
        return la.combine([a / norm for a in c], space.basis)

    images = shape.chart_images(vec(top), {key: vec(e) for key, e in edges.items()})
    try:
        W = make_witness_map(shape, space, images)
    except WitnessValidationError as e:
        raise AssertionError(f"dual witness rejected: {e}") from None
    return W, trace_pairing(F, W)


def id_degree(F: MeasurementCollection) -> DegreeReport:
    """ID(F) = inf over interior s of ID_s(F), exactly: the least λ* of
    `_joint_lp(F, "free")` with an s from `least_mixing` that attains it
    (on the boundary when no interior s does). When
    λ* > 0 the certificate comes from the same solve: the witness W of
    `_dual_witness`, which must satisfy −q/(1−q) = λ* for q = Tr FW, so
    that ID_s(F) ≥ λ* at the returned s. When λ* = 0 it is the witness
    of q_s at the barycenter, whose ID_s must be 0."""
    lp, _c, lam, t = _joint_lp(F, "free")
    rep = least_mixing(lp, lam, t, F.shape)
    if rep.value == 0:
        from .witnesses import q_value

        rep.q, rep.witness, at = q_value(F, rep.s)
        if at != 0:
            raise AssertionError(f"least mixing 0 != ID_s {at} at its s")
        return rep
    rep.witness, rep.q = _dual_witness(F, rep.solve.duals[len(F.shape.shape) + 1:], rep.s)
    if rep.q >= 0 or -rep.q / (R1 - rep.q) != rep.value:
        raise AssertionError(f"least mixing {rep.value} != −q/(1−q) of its dual "
                             f"witness, q = {rep.q}")
    return rep


def random_collection(space: StateSpace, shape, rng, bias=None):
    """Random valid collection. Effects are nonnegative facet mixtures
    renormalized against the unit; `bias` ∈ [0,1) pulls towards the
    identity collection when space and shape match (useful to sample
    incompatible instances)."""
    if not isinstance(shape, PolySimplex):
        shape = PolySimplex(shape)
    nverts = len(space.vertices)
    eff = {}
    for i, l in enumerate(shape.shape):
        hs = []
        for j in range(l + 1):
            f = [R0] * space.dim
            for row in space.facets:
                c = rat(rng.randrange(0, 5), 1)
                f = [a + c * b for a, b in zip(f, row)]
            hs.append(tuple(f))
        vals = [[la.dot(h, v) for v in space.vertices] for h in hs]
        tot = [sum(vals[j][t] for j in range(l + 1)) for t in range(nverts)]
        m = max(tot)
        if m == 0:
            scale = R0
        else:
            scale = rat(rng.randrange(1, 5), 4) / m
        for j in range(l + 1):
            u = rat(1, l + 1)
            eff[(i, j)] = tuple(scale * vals[j][t] + (R1 - scale * tot[t]) * u
                                for t in range(nverts))
    F = MeasurementCollection(space, shape, eff)
    if bias:
        ident = identity_collection(shape)
        if len(ident.space.vertices) == nverts and ident.space.vertices == space.vertices:
            F = ident.mix(F, R1 - rat(bias))
    return F
