"""Incompatibility witnesses: positive maps W from a polysimplex into
the state cone V(K)+, their ETB decompositions, the trace pairing with
measurement collections, and the dual degree q_s.

A map W is stored redundantly by all vertex images; the exchange
equations w_n + w_n' = w_(n_i↔n'_i) are what makes an arbitrary image
table the vertex set of a linear map: they span S's integer vertex
dependencies, tested on construction (see make_witness_map).
The chart is S's own: its chart vertices, edge keys and the vertex
images of a map given by its top and edge images all come from
`PolySimplex`, and every LP here is written in it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg as la
from .exact import R0, R1, rat
from .lp import OPTIMAL, LpBuilder, vec_expr
from .measurements import MeasurementCollection, make_collection
from .polysimplex import PolySimplex
from .spaces import StateSpace, base_norm


class WitnessValidationError(ValueError):
    """Raised by make_witness_map; .code is CONSISTENCY_VIOLATION or
    NOT_POSITIVE, .detail names the offending equation or image."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


class WitnessMap:
    def __init__(self, shape: PolySimplex, space: StateSpace, vertex_images):
        self.shape = shape
        self.space = space
        self.vertex_images = {tuple(n): tuple(rat(c) for c in img)
                              for n, img in vertex_images.items()}

    @property
    def top_image(self):
        return self.vertex_images[self.shape.top]

    def edge_image(self, i, j):
        """W(e^i_j) = w_(top with j at i) − w_top."""
        return la.vec_sub(self.vertex_images[self.shape.chart_vertex(i, j)], self.top_image)

    def apply(self, s):
        """W(s) for any s in span V(S), via the dual-basis chart."""
        shape = self.shape
        unit_s = sum(shape.coords(s, 0, j) for j in range(shape.shape[0] + 1))
        out = la.vec_scale(unit_s, self.top_image)
        for i, j in shape.edges:
            c = shape.coords(s, i, j)
            if c:
                out = la.vec_add(out, la.vec_scale(c, self.edge_image(i, j)))
        return out

    def bar_image(self):
        """w̄ = W(s̄), the image of the barycenter."""
        return self.apply(self.shape.barycenter())

    def as_map_matrix(self):
        return self.shape.as_state_space().linear_map(
            [self.vertex_images[n] for n in self.shape.outcomes()])

    def translate(self, v):
        """W + L_v with L_v = 1_S(·)v: every vertex image shifts by v."""
        return WitnessMap(self.shape, self.space,
                          {n: la.vec_add(img, v)
                           for n, img in self.vertex_images.items()})

    def scale(self, c):
        c = rat(c)
        return WitnessMap(self.shape, self.space,
                          {n: la.vec_scale(c, img)
                           for n, img in self.vertex_images.items()})

    def __repr__(self):
        return f"WitnessMap({self.shape.shape} -> {self.space.label})"


def make_witness_map(shape: PolySimplex, space: StateSpace, vertex_images) -> WitnessMap:
    """Validate the exchange equations and cone positivity; raises
    WitnessValidationError naming the first violation found.

    The exchange equations span S's vertex dependencies Σ_n c_n s_n = 0,
    so they hold iff Σ_n c_n w_n = 0 for each; the detail names the first
    dependency that fails (`StateSpace.failed_dependency`)."""
    W = WitnessMap(shape, space, vertex_images)
    outs = shape.outcome_list()
    if set(W.vertex_images) != set(outs):
        raise ValueError("vertex images must be supplied for every outcome tuple")
    dep = shape.as_state_space().failed_dependency([W.vertex_images[n] for n in outs])
    if dep is not None:
        terms = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}·w{outs[t]}" for t, c in dep)
        raise WitnessValidationError("CONSISTENCY_VIOLATION", f"{terms.lstrip('+ ')} != 0")
    for n in outs:
        if not space.in_cone(W.vertex_images[n]):
            raise WitnessValidationError("NOT_POSITIVE",
                                         f"image w{n} is not in the state cone")
    return W


@dataclass
class EtbDecomposition:
    """ψ^i_j ∈ V(K)+ with w_n = Σ_i ψ^i_{n_i}: the map factors through
    a classical simplex (measure-and-prepare form). `check` tests both."""
    psi: dict

    def check(self, W: WitnessMap):
        for key, p in self.psi.items():
            if not W.space.in_cone(p):
                raise AssertionError(f"factor ψ{key} is not in the state cone")
        for n in W.shape.outcomes():
            tot = la.zeros(W.space.dim)
            for i, ni in enumerate(n):
                tot = la.vec_add(tot, self.psi[(i, ni)])
            if tuple(tot) != W.vertex_images[n]:
                raise AssertionError(f"decomposition misses vertex {n}")
        return True


@dataclass
class EtbRefutation:
    """Functionals φ_n, one per chart vertex n of S, with Σ_{n: n_i = j}
    ⟨φ_n, x⟩ ≤ 0 at every vertex x of K for every (i, j), and with
    `pairing(W)` = Σ_n ⟨φ_n, w_n⟩ > 0. No ETB decomposition exists then:
    w_n = Σ_i ψ^i_{n_i} with every ψ^i_j in V(K)+, the cone of K's
    vertices, would give Σ_n ⟨φ_n, w_n⟩ = Σ_{i,j} ⟨Σ_{n: n_i = j} φ_n,
    ψ^i_j⟩ ≤ 0. `check` tests both in exact arithmetic."""
    phi: dict

    def pairing(self, W: WitnessMap):
        return sum((la.dot(f, W.vertex_images[n]) for n, f in self.phi.items()), R0)

    def check(self, W: WitnessMap):
        for i, j in W.shape.keys:
            tot = la.zeros(W.space.dim)
            for n, f in self.phi.items():
                if n[i] == j:
                    tot = la.vec_add(tot, f)
            if any(la.dot(tot, x) > 0 for x in W.space.vertices):
                raise AssertionError(f"refutation is positive on K against ψ{(i, j)}")
        pairing = self.pairing(W)
        if not pairing > 0:
            raise AssertionError(f"refutation pairs to {pairing} with the vertex images")
        return True


def _etb_lp(W: WitnessMap):
    """Solve w_n = Σ_i ψ^i_{n_i} with each ψ^i_j a nonnegative
    combination of K's vertices; returns the EtbDecomposition ψ when the
    LP is feasible, else the EtbRefutation read off its Farkas vector.

    Both sides are additive in the chart at the top vertex (the exchange
    equations), so the rows are written only at the chart vertices, top
    and top with one entry changed, and, every term lying in span V(K),
    only at the coordinates coord_idx(K): 9 on the square where the
    images have 16 entries. A chart vertex's block of Farkas multipliers,
    placed at coord_idx(K) and 0 elsewhere, is its functional φ_n: the
    Farkas conditions on the columns of ψ^i_j and on the rhs are the
    conditions of `EtbRefutation`. `check` re-checks every vertex of S,
    or every vertex of K."""
    space = W.space
    shape = W.shape
    kc = space.coord_idx
    lp = LpBuilder()
    beta = {key: lp.vars(len(space.vertices), nonneg=True) for key in shape.keys}
    m = la.transpose(space.vertices)
    m = [m[c] for c in kc]
    chart = [n for n in shape.outcomes()
             if sum(ni != ti for ni, ti in zip(n, shape.top)) <= 1]
    for n in chart:
        expr = vec_expr([(R1, beta[(i, ni)]) for i, ni in enumerate(n)])
        img = W.vertex_images[n]
        lp.add_rows(m, expr, "eq", [img[c] for c in kc])
    res = lp.minimize({})
    if res.status == OPTIMAL:
        return EtbDecomposition({key: la.combine([res[c] for c in vs], space.vertices)
                                 for key, vs in beta.items()})
    phi = {}
    for t, n in enumerate(chart):
        f = [R0] * space.dim
        for c, y in zip(kc, res.farkas[t * len(kc):(t + 1) * len(kc)]):
            f[c] = y
        phi[n] = tuple(f)
    return EtbRefutation(phi)


def is_etb(W: WitnessMap):
    """One LP for the vertex-sum factorization; returns (True,
    EtbDecomposition) or (False, EtbRefutation), checked either way."""
    cert = _etb_lp(W)
    cert.check(W)
    return isinstance(cert, EtbDecomposition), cert


def trace_pairing(F: MeasurementCollection, W: WitnessMap):
    """Tr FW = Σ_i Σ_j ⟨f^i_j, w^i_j⟩ − k⟨1_K, w_top⟩ where w^i_j is the
    image at the top index with entry i replaced by j: Tr(F∘W) over the
    dual bases of the chart at the top vertex."""
    shape = W.shape
    if F.shape != shape:
        raise ValueError("collection and witness have different shapes")
    total = R0
    for i, j in shape.keys:
        total += F.effect_value(i, j, W.vertex_images[shape.chart_vertex(i, j)])
    return total - shape.k * la.dot(F.space.unit, W.top_image)


@dataclass
class WitnessDecision:
    is_witness: bool
    min_value: object
    minimizer: MeasurementCollection
    translation: tuple | None
    translated_etb: EtbDecomposition | None


def is_witness(W: WitnessMap) -> WitnessDecision:
    """W detects incompatibility iff min over collections F of Tr FW is
    negative. One LP: each f^i_j a nonnegative facet combination with
    Σ_j f^i_j = 1_K at the basis vertices (`rank` rows per input i).
    When min ≥ 0 its duals give v with ⟨1_K, v⟩ = 0 and W + L_v ETB:
    input i's duals y_{i,a} give v_i = Σ_a y_{i,a} b_a, and the dual sign
    conditions put ψ^i_j = w^i_j − v_i in V(K)+ (w^i_j the image at the
    top with entry i set to j). With min·x̄ taken off v_0, v = k·w_top −
    Σ_i v_i has ⟨1_K, v⟩ = 0 by strong duality, and W + L_v = Σ_i
    ψ^i_{n_i} as W is additive in the chart; both are re-checked."""
    space = W.space
    shape = W.shape

    lp, phi = _collection_lp(space, shape)
    chart = {key: W.vertex_images[shape.chart_vertex(*key)] for key in shape.keys}
    objective = {}
    for key, img in chart.items():
        pairs = la.mat_vec(space.facets, img)
        objective.update((v, p) for v, p in zip(phi[key], pairs) if p)
    res = lp.minimize(objective)
    if res.status != OPTIMAL:
        raise AssertionError("minimizing-F LP must be bounded and feasible")
    min_value = res.objective - shape.k * la.dot(space.unit, W.top_image)
    minimizer = make_collection(space, shape, {
        key: la.mat_vec(space.facet_values, [res[c] for c in cols])
        for key, cols in phi.items()})
    if min_value < 0:
        return WitnessDecision(True, min_value, minimizer, None, None)

    D = space.rank
    v_in = [la.combine(res.duals[i * D:(i + 1) * D], space.basis)
            for i in range(shape.k + 1)]
    v_in[0] = la.vec_sub(v_in[0], la.vec_scale(min_value, space.interior_point()))
    psi = {(i, j): la.vec_sub(img, v_in[i]) for (i, j), img in chart.items()}
    v = la.combine([shape.k] + [-R1] * len(v_in), [W.top_image, *v_in])
    if la.dot(space.unit, v) != 0:
        raise AssertionError(f"dual translation has ⟨1_K, v⟩ = {la.dot(space.unit, v)}")
    etb = EtbDecomposition(psi)
    etb.check(W.translate(v))
    return WitnessDecision(False, min_value, minimizer, tuple(v), etb)


@lru_cache(maxsize=32)
def _collection_lp(space, shape):
    """`is_witness`'s LP over collections K → S, without an objective:
    each f^i_j a nonnegative facet combination, phi[(i, j)] its weights,
    with Σ_j f^i_j = 1_K at the basis vertices. Its rows and rhs depend on
    (K, S) only, so it is built once per pair, and each W is a cost on it."""
    lp = LpBuilder()
    phi = {key: lp.vars(len(space.facets)) for key in shape.keys}
    for i, l in enumerate(shape.shape):
        lp.add_rows(la.transpose(space.facet_rows),
                    vec_expr([(R1, phi[(i, j)]) for j in range(l + 1)]), "eq", R1)
    return lp, phi


def _witness_lp(shape, space, states):
    """LP over witness maps in chart coordinates: basis coordinates of
    w_top and of each edge image W(e^i_j), j < l_i. Returns (lp, top,
    edges).

    W is affine on S, so for a facet g of K each vertex value splits into
    one term per input: ⟨g, w_n⟩ = ⟨g, w_top⟩ + Σ_i ⟨g, W(e^i_{n_i})⟩,
    with W(e^i_{l_i}) = 0. Every w_n lies in V(K)+ iff, for every g,
    ⟨g, w_top⟩ + Σ_i min(0, min_j ⟨g, W(e^i_j)⟩) ≥ 0. A nonnegative
    variable u_{g,i} per facet and input bounds each minimum from below:
    rows ⟨g, W(e^i_j)⟩ + u_{g,i} ≥ 0 for j < l_i and ⟨g, w_top⟩ − Σ_i
    u_{g,i} ≥ 0, that is 1 + Σ_i l_i rows per facet where one block per
    vertex would take Π_i (l_i + 1). The feasible (w_top, edges) are the
    same. With `states` every w_n is moreover in K, which is affine in
    n: ⟨1_K, w_top⟩ = 1 and ⟨1_K, W(e^i_j)⟩ = 0."""
    D = space.rank
    nf = len(space.facet_rows)
    lp = LpBuilder()
    top = lp.vars(D, nonneg=False)
    edges = {key: lp.vars(D, nonneg=False) for key in shape.edges}
    u = [lp.vars(nf) for _ in shape.shape]  # u[i][g] = u_{g,i} >= 0

    def bordered(sign):
        # [facet_rows | sign·I]: row g on (vector, u) is ⟨g, vector⟩ + sign·u_g
        return [list(row) + [sign if h == g else R0 for h in range(nf)]
                for g, row in enumerate(space.facet_rows)]

    plus = bordered(R1)
    for (i, _), cols in edges.items():
        lp.add_rows(plus, vec_expr([(R1, cols)]) + vec_expr([(R1, u[i])]), "ge", R0)
    lp.add_rows(bordered(-R1), vec_expr([(R1, top)]) + vec_expr([(R1, ui) for ui in u]),
                "ge", R0)
    if states:
        unit = [(R1,) * D]
        lp.add_rows(unit, vec_expr([(R1, top)]), "eq", R1)
        for cols in edges.values():
            lp.add_rows(unit, vec_expr([(R1, cols)]), "eq", R0)
    return lp, top, edges


def _solved_chart(space, res, top, edges):
    """The top and edge images whose basis coordinates an LP solved."""
    def vec(cols):
        return la.combine([res[c] for c in cols], space.basis)
    return vec(top), {key: vec(cols) for key, cols in edges.items()}


def _min_trace_witness(F, lp, top, edges):
    """Minimize Tr FW = ⟨1_K, w_top⟩ + Σ_{i,j<l_i} ⟨f^i_j, W(e^i_j)⟩
    (using Σ_j f^i_j = 1_K) over an LP from `_witness_lp`; returns the
    minimum and a minimizing WitnessMap."""
    space = F.space
    objective = dict.fromkeys(top, R1)
    for key, cols in edges.items():
        vals = F.effects[key]
        objective.update((c, vals[x]) for c, x in zip(cols, space.basis_idx) if vals[x])
    res = lp.minimize(objective)
    if res.status != OPTIMAL:
        raise AssertionError("witness LP must be bounded for a polytopic space")
    images = F.shape.chart_images(*_solved_chart(space, res, top, edges))
    return res.objective, make_witness_map(F.shape, space, images)


@lru_cache(maxsize=32)
def _q_lp(space, shape, s):
    """q_s's LP for every collection K → S, without an objective: rows
    and rhs depend on (K, S, s) only, so it is built once per triple and
    each F is a cost on it (`_min_trace_witness`)."""
    lp, top, edges = _witness_lp(shape, space, states=False)
    # ⟨1_K, W(s)⟩ = 1, with W(s) = w_top + Σ_{i,j<l_i} s^i_j W(e^i_j)
    point = vec_expr([(R1, top)] + [(shape.coords(s, i, j), cols)
                                    for (i, j), cols in edges.items()])
    lp.add_rows([(R1,) * space.rank], point, "eq", R1)
    return lp, top, edges


def q_value(F: MeasurementCollection, s):
    """q_s(F) = min Tr FW over W ∈ A(S,V(K)+) with W(s) ∈ K, and the
    incompatibility degree ID_s = −q/(1−q) for q ≤ 0 (else 0). Returns
    (q, minimizing WitnessMap, ID_s).

    The LP is `_witness_lp`'s per-input facet rows plus one unit row
    ⟨1_K, W(s)⟩ = 1. W(s) needs no facet rows: s is a convex combination
    of the vertices of S, so W(s) is the same combination of the vertex
    images and lies in V(K)+ with them."""
    if not F.shape.interior(s):
        raise ValueError("q_value needs a strictly interior state s")
    lp, top, edges = _q_lp(F.space, F.shape, tuple(rat(c) for c in s))
    q, W = _min_trace_witness(F, lp, top, edges)
    lam = (-q) / (R1 - q) if q <= 0 else R0
    return q, W, lam


def two_outcome_witness_criterion(W: WitnessMap) -> bool:
    """Hypercube witness test: Σ_i ‖W(e^i_0)‖_K > 2⟨1_K, w̄⟩."""
    shape = W.shape
    if any(l != 1 for l in shape.shape):
        raise ValueError("the norm criterion applies to hypercube shapes only")
    total = R0
    for i in range(shape.k + 1):
        total += base_norm(W.space, W.edge_image(i, 0))
    wbar = W.bar_image()
    return total > 2 * la.dot(W.space.unit, wbar)


def _face_span(space: StateSpace, w):
    """Generators of the minimal face of V(K)+ containing w: the
    vertices tight on every facet active at w."""
    active = [f for f in space.facets if la.dot(f, w) == 0]
    gens = [v for v in space.vertices
            if all(la.dot(f, v) == 0 for f in active)]
    return gens


def square_extremality(W: WitnessMap) -> bool:
    """Extremality of W ∈ A(□₂, V(K)+) by the face-span conditions:
    L_00 ∩ L_11 = L_01 ∩ L_10 = {0} and the two plane sums meet exactly
    in the line through w̄."""
    if W.shape.shape != (1, 1):
        raise ValueError("extremality test implemented for the square shape only")
    space = W.space
    L = {n: _face_span(space, W.vertex_images[n]) for n in W.shape.outcomes()}

    def dim(rows):
        return la.rank(rows) if rows else 0

    d00, d11 = dim(L[(0, 0)]), dim(L[(1, 1)])
    d01, d10 = dim(L[(0, 1)]), dim(L[(1, 0)])
    if dim(L[(0, 0)] + L[(1, 1)]) != d00 + d11:
        return False
    if dim(L[(0, 1)] + L[(1, 0)]) != d01 + d10:
        return False
    u = L[(0, 0)] + L[(1, 1)]
    v = L[(0, 1)] + L[(1, 0)]
    inter = dim(u) + dim(v) - dim(u + v)
    if inter != 1:
        return False
    return not la.is_zero(W.bar_image())


@dataclass
class MaximalReport:
    maximal: bool
    value: object
    witness: WitnessMap | None
    orthogonal: bool | None


def maximal_incompatibility_certificate(F: MeasurementCollection) -> MaximalReport:
    """Search W ∈ A(S,K) (all vertex images states) minimizing Tr FW;
    F is maximally incompatible iff the optimum is −k. On success the
    orthogonality relations ⟨f^i_j, w_(n_i=j)⟩ = 0 are verified too.
    The LP is `_witness_lp` with `states`: the vertex images' facet
    values are bounded per input, and their unit values, affine in the
    vertex, are fixed on w_top and the edge images."""
    shape = F.shape
    lp, top, edges = _witness_lp(shape, F.space, states=True)
    value, W = _min_trace_witness(F, lp, top, edges)
    if value != -shape.k:
        return MaximalReport(False, value, None, None)
    ortho = all(F.effect_value(i, n[i], W.vertex_images[n]) == 0
                for i in range(shape.k + 1) for n in shape.outcomes())
    return MaximalReport(True, value, W, ortho)


@dataclass
class RetractionReport:
    is_retraction: bool
    section_images: dict | None
    section_matrix: tuple | None
    projection: tuple | None


def retraction_check(F: MeasurementCollection) -> RetractionReport:
    """Look for a section S' ∈ A(□_{k+1}, K) with F∘S' = id: an LP on the
    chart images of S' (`_witness_lp` with `states`, so every vertex
    image is a state). F∘S' = id is affine in the vertex, so its rows
    are written at w_top and at each edge image, not at every vertex. On
    success also returns P = S'∘F, an affine projection of K onto a
    hypercube slice."""
    shape = F.shape
    space = F.space
    if any(l != 1 for l in shape.shape):
        raise ValueError("retraction test applies to hypercube shapes only")
    effects = [[F.effects[(i, 0)][x] for x in space.basis_idx]
               for i in range(shape.k + 1)]
    lp, top, edges = _witness_lp(shape, space, states=True)
    # F(σ_n) = s_n at every vertex n, affine in n: F(σ_top) = s_top, whose
    # 0-outcome probabilities all vanish, and F(σ(e^i_0)) = e_i
    lp.add_rows(effects, vec_expr([(R1, top)]), "eq", R0)
    for (i, _), cols in edges.items():
        lp.add_rows(effects, vec_expr([(R1, cols)]), "eq",
                    [R1 if a == i else R0 for a in range(shape.k + 1)])
    res = lp.minimize({})
    if res.status != OPTIMAL:
        return RetractionReport(False, None, None, None)
    images = shape.chart_images(*_solved_chart(space, res, top, edges))
    smat = shape.as_state_space().linear_map([images[n] for n in shape.outcomes()])
    proj = la.mat_mul(smat, F.as_map_matrix())
    return RetractionReport(True, images, smat, proj)


def random_witness_map(shape: PolySimplex, space: StateSpace, rng) -> WitnessMap:
    """Random valid witness map: random chart images shifted into the
    cone along an interior direction. Small slack tends to produce
    witnesses, large slack ETB maps."""
    xbar = space.interior_point()

    def rand_vec():
        return la.combine([rat(rng.randrange(-8, 9), 4) for _ in space.basis], space.basis)

    w_top = rand_vec()
    images = shape.chart_images(w_top, {key: rand_vec() for key in shape.edges})
    need = R0
    for img in images.values():
        for f in space.facets:
            val = la.dot(f, img)
            if val < 0:
                bound = -val / la.dot(f, xbar)
                if bound > need:
                    need = bound
    extra = rat(rng.choice((0, 0, 1, 4)), 2)
    shift = la.vec_scale(need + extra, xbar)
    images = {n: tuple(la.vec_add(img, shift)) for n, img in images.items()}
    return make_witness_map(shape, space, images)
