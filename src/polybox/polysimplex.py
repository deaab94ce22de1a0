"""Products of simplices S_{l_0,…,l_k}: the state spaces of multi-input
multi-outcome box devices.

Ambient coordinates concatenate the (l_i+1)-dimensional simplex blocks,
so the coordinate projections m^i_j are literally coordinate reads; the
chart at the top vertex (1_S and the m^i_j with j < l_i, against the
top vertex and the edges e^i_j) is the minimal one. PolySimplex is the
one owner of both: `keys` and `index` give the layout of the ambient
coordinates, and `edges`, `chart_vertex` and `chart_images` the chart,
in which every LP over maps from S is written.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from . import linalg as la
from .exact import R0, R1, rat
from .spaces import StateSpace


class PolySimplex:
    def __init__(self, shape):
        shape = tuple(int(l) for l in shape)
        if not shape or any(l < 1 for l in shape):
            raise ValueError("shape must be a nonempty list of positive integers")
        self.shape = shape
        self.k = len(shape) - 1
        self.dim = sum(shape)
        self.ambient_dim = sum(l + 1 for l in shape)
        self._offset = []
        off = 0
        for l in shape:
            self._offset.append(off)
            off += l + 1
        self.top = shape  # the anchor vertex s_{l_0,…,l_k}
        #: (i, j) of each ambient coordinate, in ambient order
        self.keys = tuple((i, j) for i, l in enumerate(shape) for j in range(l + 1))
        #: the chart's edge keys (i, j), j < l_i, in key order
        self.edges = tuple((i, j) for i, j in self.keys if j < shape[i])

    def __repr__(self):
        return f"PolySimplex{self.shape}"

    def __eq__(self, other):
        return isinstance(other, PolySimplex) and self.shape == other.shape

    def __hash__(self):
        return hash(self.shape)

    def outcomes(self):
        return itertools.product(*[range(l + 1) for l in self.shape])

    def outcome_list(self):
        return list(self.outcomes())

    def _check_index(self, i, j):
        if not 0 <= i <= self.k:
            raise IndexError(f"input index {i} out of range")
        if not 0 <= j <= self.shape[i]:
            raise IndexError(f"outcome index {j} out of range for input {i}")

    def vertex(self, n):
        n = tuple(n)
        if len(n) != self.k + 1:
            raise IndexError("vertex index length mismatch")
        v = [R0] * self.ambient_dim
        for i, (ni, l) in enumerate(zip(n, self.shape)):
            if not 0 <= ni <= l:
                raise IndexError(f"vertex index {ni} out of range for input {i}")
            v[self.index(i, ni)] = R1
        return tuple(v)

    def index(self, i, j):
        """The ambient coordinate of m^i_j: `keys[index(i, j)] == (i, j)`."""
        return self._offset[i] + j

    def m(self, i, j):
        """The coordinate projection effect m^i_j."""
        self._check_index(i, j)
        v = [R0] * self.ambient_dim
        v[self.index(i, j)] = R1
        return tuple(v)

    def unit(self):
        v = [R0] * self.ambient_dim
        for j in range(self.shape[0] + 1):
            v[j] = R1
        return tuple(v)

    def chart_vertex(self, i, j):
        """The chart vertex s_{l_0,…,j,…,l_k}: the top with entry i set to
        j; the top itself when j = l_i."""
        return self.top[:i] + (j,) + self.top[i + 1:]

    def chart_images(self, top, edges):
        """Vertex images w_n = w_top + Σ_{i: n_i < l_i} W(e^i_{n_i}) of the
        affine map with top image `top` and edge images `edges[(i, j)]`."""
        images = {}
        for n in self.outcomes():
            img = top
            for i, ni in enumerate(n):
                if ni < self.shape[i]:
                    img = la.vec_add(img, edges[(i, ni)])
            images[n] = tuple(img)
        return images

    def barycenter(self):
        v = []
        for l in self.shape:
            v += [rat(1, l + 1)] * (l + 1)
        return tuple(v)

    def coords(self, s, i, j):
        """m^i_j(s) read off the ambient coordinates."""
        return rat(s[self.index(i, j)])

    def interior(self, s) -> bool:
        """s is a state of S (one coordinate per ambient entry, each block
        summing to 1) with every coordinate > 0."""
        if len(s) != self.ambient_dim:
            return False
        for i, l in enumerate(self.shape):
            block = [self.coords(s, i, j) for j in range(l + 1)]
            if sum(block) != 1 or any(c <= 0 for c in block):
                return False
        return True

    def as_state_space(self) -> StateSpace:
        """S as a StateSpace: the one space shared by every PolySimplex of
        this shape, `polysimplex_space(self.shape)`, so its cached tables
        (basis, Gram inverse, facet and vertex rows, span projector) are
        computed once per shape."""
        return polysimplex_space(self.shape)


def _default_label(shape):
    if all(l == 1 for l in shape):
        return "square" if len(shape) == 2 else f"cube:{len(shape)}"
    if len(shape) == 1:
        return f"delta:{shape[0]}"
    return "poly:" + ",".join(str(l) for l in shape)


@lru_cache(maxsize=None)
def _cached_space(shape):
    P = PolySimplex(shape)
    verts = [P.vertex(n) for n in P.outcomes()]
    facets = [P.m(i, j) for i, j in P.keys]
    return StateSpace(_default_label(shape), verts, P.unit(), facets)


def polysimplex_space(shape) -> StateSpace:
    """The state space of a polysimplex shape: vertices in outcome order,
    facets m^i_j in block order. Built once per shape and shared; nothing
    mutates a StateSpace after construction."""
    return _cached_space(tuple(int(l) for l in shape))


def square_space() -> StateSpace:
    return polysimplex_space((1, 1))
