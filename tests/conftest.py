"""Shared test inputs: the state spaces on which the integer membership
tests and the tensor LPs on independent coordinates are compared with
their ambient reference forms, and the builders and reference forms that
several test modules use (hypercube spaces, coin-toss
collections, boxes, assemblage draws)."""

import numpy as np
import pytest

from polybox import linalg as la
from polybox import serialize as sz
from polybox.bell import Box, _embedded_pr_probs, deterministic_box
from polybox.channels import ChoiMatrix
from polybox.exact import R0, R1, rat
from polybox.lp import LpBuilder
from polybox.measurements import MeasurementCollection
from polybox.polysimplex import PolySimplex, polysimplex_space
from polybox.steering import Assemblage

#: a pentagon with vertices (0,0), (2,0), (3,2), (1,3), (−1,2) in ambient
#: coordinates (x, y, 2, x + y): rank 3 in dimension 4, so one linear
#: relation, and the unit (0, 0, 1/2, 0) has denominator 2. Each facet
#: is the edge functional of the CCW boundary, a·x + b·y + c, written as
#: (a − 1, b − 1, c/2, 1), which is not in the span but takes the same
#: values on it.
PENTAGON_POINTS = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)]


def pentagon_json():
    pts = PENTAGON_POINTS
    facets = []
    for (px, py), (qx, qy) in zip(pts, pts[1:] + pts[:1]):
        a, b, c = -(qy - py), qx - px, (qy - py) * px - (qx - px) * py
        facets.append([str(a - 1), str(b - 1), f"{c}/2", "1"])
    return {"label": "pentagon", "dim": 4,
            "vertices": [[str(x), str(y), "2", str(x + y)] for x, y in pts],
            "unit": ["0", "0", "1/2", "0"], "facets": facets}


SPACE_NAMES = ["square", "cube:3", "poly:2,1", "delta:2", "pentagon"]


@pytest.fixture(params=SPACE_NAMES)
def state_space(request):
    """Each built-in test space, and the pentagon loaded from JSON (so it
    passes the facet check)."""
    if request.param == "pentagon":
        return sz.space_from_json(pentagon_json())
    return sz.builtin_space(request.param)


def hypercube_space(m):
    """□_m, the state space of m binary inputs."""
    if m < 1:
        raise ValueError("hypercube needs at least one input")
    return polysimplex_space((1,) * m)


def coin_toss_on(space, shape, s):
    """The constant collection F_s(x) ≡ s on an arbitrary domain space."""
    if not shape.as_state_space().is_state(s):
        raise ValueError("coin_toss target is not a state of the polysimplex")
    eff = {(i, j): (shape.coords(s, i, j),) * len(space.vertices)
           for i, l in enumerate(shape.shape) for j in range(l + 1)}
    return MeasurementCollection(space, shape, eff)


def coin_toss(shape, s):
    """The constant collection F_s(x) ≡ s on S itself."""
    return coin_toss_on(shape.as_state_space(), shape, s)


@pytest.fixture
def solved_rows(monkeypatch):
    """`LpStats.rows` of every LP solved from here on, in order."""
    rows = []
    solve = LpBuilder._solve

    def recording(self, *args):
        res = solve(self, *args)
        rows.append(res.stats.rows)
        return res

    monkeypatch.setattr(LpBuilder, "_solve", recording)
    return rows


def dual_bases(shape, base=None):
    """Biorthogonal bases of A(S) and V(S) anchored at the vertex `base`
    (default the top): effects (1_S, m^i_j for j ≠ base_i) and vectors
    (s_base, e^i_j = s_(base with j at i) − s_base), with ⟨f_p, x_q⟩ =
    δ_pq."""
    base = shape.top if base is None else tuple(base)
    effects, vectors = [shape.unit()], [shape.vertex(base)]
    for i, l in enumerate(shape.shape):
        for j in range(l + 1):
            if j != base[i]:
                idx = base[:i] + (j,) + base[i + 1:]
                effects.append(shape.m(i, j))
                vectors.append(la.vec_sub(shape.vertex(idx), shape.vertex(base)))
    return effects, vectors


def map_trace(matrix, shape, base=None):
    """Trace of a linear map V(S) → V(S) restricted to span V(S),
    Tr T = Σ_p ⟨f_p, T x_p⟩ over the dual bases at `base`."""
    effects, vectors = dual_bases(shape, base)
    return sum((la.dot(f, la.mat_vec(matrix, x)) for f, x in zip(effects, vectors)), R0)


def apply_collection(F, x):
    """F(x) as an ambient vector of the polysimplex: f^i_j(x) in block
    order."""
    return tuple(F.effect_value(i, j, x)
                 for i, l in enumerate(F.shape.shape) for j in range(l + 1))


def box_from_tensor(shape_a, shape_b, tensor):
    """The Box whose probabilities are the entries of an ambient matrix
    over V(S_A) ⊗ V(S_B), read as `Box.tensor` writes them."""
    probs = {(ia, ib, ja, jb): tensor[shape_a.index(ia, ja)][shape_b.index(ib, jb)]
             for ia, la_ in enumerate(shape_a.shape) for ib, lb in enumerate(shape_b.shape)
             for ja in range(la_ + 1) for jb in range(lb + 1)}
    return Box(shape_a, shape_b, probs)


def random_local_box(shape_a, shape_b, rng):
    """A rational mixture of 2 to 5 deterministic product boxes: local by
    construction, with the draws of `bell.random_ns_box` minus its PR
    parts."""
    parts = []
    for _ in range(rng.randrange(2, 6)):
        na = tuple(rng.randrange(0, l + 1) for l in shape_a.shape)
        nb = tuple(rng.randrange(0, l + 1) for l in shape_b.shape)
        parts.append(deterministic_box(shape_a, shape_b, na, nb).probs)
    weights = [rat(rng.randrange(1, 10)) for _ in parts]
    tot = sum(weights)
    probs = {}
    for w, part in zip(weights, parts):
        for k, v in part.items():
            probs[k] = probs.get(k, R0) + (w / tot) * v
    return Box(shape_a, shape_b, probs)


def three_input_pr_box():
    """The PR box on Alice's inputs 0 and 1 with a third input that
    always answers 0: shapes (1,1,1)|(1,1), nonlocal, and outside the
    two-binary-inputs scenario of the CHSH witnesses."""
    A, B = PolySimplex((1, 1, 1)), PolySimplex((1, 1))
    return Box(A, B, _embedded_pr_probs(A, B, (0, 1), (0, 1), (1, 0, 0)))


def box_functional_separates(mu, box):
    """The re-check of a Bell functional made apart from `BellWitness`:
    μ, an ambient matrix over V(S_A) ⊗ V(S_B), pairs ≥ 0 with every
    deterministic box and < 0 with the box, each pairing a sum over the
    probability table."""
    A, B = box.shape_a, box.shape_b

    def pair(b):
        return sum(mu[A.index(ia, ja)][B.index(ib, jb)] * p
                   for (ia, ib, ja, jb), p in b.probs.items())

    return (all(pair(deterministic_box(A, B, na, nb)) >= 0
                for na in A.outcomes() for nb in B.outcomes())
            and pair(box) < 0)


def assemblage_functional_separates(mu, beta):
    """The same re-check on an assemblage: ⟨μ, s_n ⊗ v⟩ ≥ 0 for every
    vertex s_n of S and v of K, and ⟨μ, β⟩ < 0, by `linalg` on rationals."""
    S = beta.shape
    products = [la.dot(S.vertex(n), la.mat_vec(mu, v))
                for n in S.outcomes() for v in beta.space.vertices]
    tensor = beta.to_tensor()
    value = sum(la.dot(mu_row, t_row) for mu_row, t_row in zip(mu, tensor))
    return all(x >= 0 for x in products) and value < 0


def unitary_choi(u):
    """Choi matrix of σ ↦ UσU†, a dense (float-mode) ChoiMatrix."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if u.shape != (d, d) or np.max(np.abs(u @ u.conj().T - np.eye(d))) > 1e-9:
        raise ValueError("not a unitary matrix")
    x = np.einsum("ji,kl->jikl", u, u.conj()).reshape(d * d, d * d)
    return ChoiMatrix(d, d, dense=x)


def affine_relations(space):
    """Vectors c with Σ_v c_v v = 0 over K's vertices (so Σ_v c_v = 0)."""
    red, pivots = la.rref(la.transpose(space.vertices))
    out = []
    for f in range(len(space.vertices)):
        if f not in pivots:
            c = [R0] * len(space.vertices)
            c[f] = R1
            for row, p in zip(red, pivots):
                c[p] = -row[f]
            out.append(c)
    return out


def partition_assemblage(shape, space, rng):
    """x = the vertex average. Input i writes x = Σ_v w^i_v v with its own
    weights (uniform plus a random affine relation among the vertices,
    pushed up to or halfway to a zero weight), splits the vertices into
    l_i + 1 random nonempty groups, and takes σ_{j|i} = the part of
    group j, so p(j|i) = the weight of the group. Different weights per
    input can steer (the self-dual identity assemblage of the square is
    one such); on a simplex there are no relations and every draw is
    separable."""
    verts = space.vertices
    n = len(verts)
    rels = affine_relations(space)
    rows = []
    for i, l in enumerate(shape.shape):
        w = [rat(1, n)] * n
        if rels:
            d = la.combine([rat(rng.randrange(-2, 3)) for _ in rels], rels)
            neg = [-wv / dv for wv, dv in zip(w, d) if dv < 0]
            if neg:
                w = la.vec_add(w, la.vec_scale(min(neg) * rng.choice([1, rat(1, 2)]), d))
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), l))
        for a, b in zip([0] + cuts, cuts + [n]):
            group = order[a:b]
            rows.append(la.combine([w[v] for v in group], [verts[v] for v in group]))
    return Assemblage(shape, space, rows)


def edited(obj, x=None, **tables):
    """An assemblage file with x replaced, and entries of its "p" and
    "sub_states" tables replaced from dicts keyed "i,j"."""
    out = {**obj, "x": x or obj["x"]}
    for field, entries in tables.items():
        out[field] = {**obj[field], **entries}
    return out


#: input 0 always answers 0: p(0|0) = 1 at x_{0|0} = x, the barycenter
ZERO_P = {"p": {"0,0": "1", "0,1": "0"}, "sub_states": {"0,0": ["1/2"] * 4}}

#: edits of the file of the identity assemblage on the self-dual state
#: (p = 1/2 everywhere, x the square's barycenter) that make it
#: malformed, each in one way
MALFORMED_ASSEMBLAGES = {
    "negative-p": {"p": {"0,0": "-1/2", "0,1": "3/2"}},
    "sub-state-not-a-state": {"sub_states": {"1,0": ["3/2", "0", "0", "3/2"]}},
    "sub-state-not-a-state-at-p-0": {
        "p": ZERO_P["p"], "sub_states": {**ZERO_P["sub_states"], "0,1": ["2", "0", "0", "2"]}},
    # σ_{0|0} = x is valid, but x_{0|0} = 2x is not normalized
    "half-p-twice-a-state": {"p": {"0,0": "1/2", "0,1": "0"},
                             "sub_states": {"0,0": ["1"] * 4}},
    "averages-differ": {"sub_states": {"1,0": ["1", "0", "0", "1"],
                                       "1,1": ["1", "0", "0", "1"]}},
    "x-not-the-average": {"x": ["1", "0", "1", "0"]},
    "sub-state-too-short": {"sub_states": {"0,0": ["1", "0", "1"]}},
}
